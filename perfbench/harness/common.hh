/**
 * @file
 * Shared harness plumbing: the plan file, timing, statistics, the host
 * probe and result output.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.hh"
#include "mirage/pipeline.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/**
 * One line of a plan file (tab-separated):
 * name qasm-path topology trials swap-trials fwd-bwd seed vf2 lower format
 */
struct PlanItem
{
    std::string name;
    std::string path;
    std::string topology;
    int trials = 4;
    int swapTrials = 4;
    int fwdBwd = 2;
    uint64_t seed = 20240229;
    bool vf2 = true;
    bool lower = false;
    std::string format = "json";
};

std::vector<PlanItem> readPlan(const std::string &path);
std::string readFile(const std::string &path);

mirage::mirage_pass::TranspileOptions optionsOf(const PlanItem &item);

/** Quantile with linear interpolation (q in [0,1]); 0 when empty. */
double quantile(std::vector<double> v, double q);

/**
 * Pin this process, and the processes it starts from now on, to the last
 * CPU it may run on, so that the host probe reads the speed of the CPU
 * the timed work runs on. Compile loops are single-threaded anyway.
 */
void pinToOneCpu();

/**
 * The host's speed: wall time in ms of a fixed kernel of the benchmark's
 * own, a chain of 10,000 products of 4x4 complex matrices (median of
 * three runs). The kind of arithmetic the transpiler's routing and its
 * coverage set-up spend their time on slows with it when neighbours on a
 * shared host contend for the core (see README).
 */
double hostProbeMs();

/**
 * hostProbeMs on the reference host (a 4-core VM, quiet phase). Timings
 * reported by the benchmark are wall times scaled by this over the probe
 * taken around them, so that drift of the host's speed between runs, which
 * reaches a factor of two on a shared VM, cancels out.
 */
constexpr double kProbeRefMs = 1.1;

/**
 * Probe readings with isolated spikes removed: each reading replaced by
 * the median of itself and its neighbours. A host stall that lands in
 * one probe is a pause, not a speed, and must not scale the samples
 * around it.
 */
std::vector<double> steadyProbes(const std::vector<double> &probes);

/** kProbeRefMs over the mean of the two (steadied) probes around a sample. */
inline double
probeScale(const std::vector<double> &steady, size_t interval)
{
    return kProbeRefMs / (0.5 * (steady[interval] + steady[interval + 1]));
}

/**
 * Collects wall-time samples and scales each by the probes taken just
 * before and just after it (probeScale). Call tick() between operations:
 * it probes once at least 250 ms have passed since the last probe.
 */
class ProbedTimes
{
  public:
    ProbedTimes();

    /** A raw sample of `ms`, filed scaled into `*into` by finish(). */
    void add(std::vector<double> *into, double ms);
    void tick();
    /** Probe once more and file every sample. */
    void finish();

    /** Every probe taken (ms). */
    const std::vector<double> &probes() const { return probes_; }
    /** Sum of the raw samples (ms). */
    double rawMs() const { return rawMs_; }

  private:
    struct Sample
    {
        std::vector<double> *into;
        double ms;
        size_t interval;
    };
    Clock::time_point last_;
    std::vector<double> probes_;
    std::vector<Sample> samples_;
    double rawMs_ = 0;
};

/** Peak resident set of this process in MB (VmHWM). */
double peakRssMb();

/** Stable 64-bit fingerprint of a circuit's gates (bit-exact). */
uint64_t fingerprint(const mirage::circuit::Circuit &c);

/** Ordered metric map printed as the harness's result line. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;
    std::map<std::string, std::pair<double, std::string>> metrics;

    void
    fail(const std::string &why)
    {
        correct = false;
        if (problems.size() < 20)
            problems.push_back(why);
    }
    void
    set(const std::string &name, double v, const std::string &unit)
    {
        metrics[name] = {v, unit};
    }
    void print() const;
};

/** Flag lookup over argv ("--name value"). */
std::string flag(int argc, char **argv, const std::string &name,
                 const std::string &fallback = "");

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
