/**
 * @file
 * Shared harness plumbing (see common.hh).
 */

#include "common.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<PlanItem>
readPlan(const std::string &path)
{
    std::vector<PlanItem> items;
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> f;
        std::string cell;
        std::istringstream ls(line);
        while (std::getline(ls, cell, '\t'))
            f.push_back(cell);
        if (f.size() != 10)
            throw std::runtime_error("bad plan line: " + line);
        PlanItem it;
        it.name = f[0];
        it.path = f[1];
        it.topology = f[2];
        it.trials = std::stoi(f[3]);
        it.swapTrials = std::stoi(f[4]);
        it.fwdBwd = std::stoi(f[5]);
        it.seed = std::stoull(f[6]);
        it.vf2 = f[7] == "1";
        it.lower = f[8] == "1";
        it.format = f[9];
        items.push_back(std::move(it));
    }
    if (items.empty())
        throw std::runtime_error("empty plan " + path);
    return items;
}

mirage::mirage_pass::TranspileOptions
optionsOf(const PlanItem &item)
{
    mirage::mirage_pass::TranspileOptions o;
    o.flow = mirage::mirage_pass::Flow::MirageDepth;
    o.layoutTrials = item.trials;
    o.swapTrials = item.swapTrials;
    o.forwardBackwardPasses = item.fwdBwd;
    o.seed = item.seed;
    o.tryVf2 = item.vf2;
    o.threads = 1;
    o.lowerToBasis = item.lower;
    return o;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
hostProbeMs()
{
    using C = std::complex<double>;
    double t[3];
    for (double &ms : t) {
        const auto t0 = Clock::now();
        C a[4][4], b[4][4], c[4][4];
        for (int r = 0; r < 4; ++r)
            for (int k = 0; k < 4; ++k) {
                a[r][k] = C(0.1 * r + 0.01, 0.2 * k - 0.3);
                b[r][k] = C(0.05 * k, 0.1 * r + 0.02);
            }
        for (int it = 0; it < 10000; ++it) {
            double norm = 0;
            for (int r = 0; r < 4; ++r)
                for (int k = 0; k < 4; ++k) {
                    C acc = 0;
                    for (int m = 0; m < 4; ++m)
                        acc += a[r][m] * b[m][k];
                    c[r][k] = acc;
                    norm += std::norm(acc);
                }
            const double scale = 1.0 / std::sqrt(norm);
            for (int r = 0; r < 4; ++r)
                for (int k = 0; k < 4; ++k)
                    a[r][k] = c[r][k] * scale;
        }
        volatile double sink = a[1][2].real();
        (void)sink;
        ms = msSince(t0);
    }
    std::sort(t, t + 3);
    return t[1];
}

void
pinToOneCpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            last = c;
    if (last < 0)
        return;
    CPU_ZERO(&set);
    CPU_SET(last, &set);
    sched_setaffinity(0, sizeof set, &set);
}

std::vector<double>
steadyProbes(const std::vector<double> &probes)
{
    std::vector<double> out(probes);
    for (size_t i = 0; i < probes.size(); ++i) {
        std::vector<double> w(probes.begin() + long(i ? i - 1 : 0),
                              probes.begin() +
                                  long(std::min(i + 2, probes.size())));
        std::sort(w.begin(), w.end());
        // Of two readings (at either end) the smaller: a spike is slow.
        out[i] = w.size() == 3 ? w[1] : w[0];
    }
    return out;
}

ProbedTimes::ProbedTimes() : last_(Clock::now()), probes_{hostProbeMs()} {}

void
ProbedTimes::add(std::vector<double> *into, double ms)
{
    samples_.push_back({into, ms, probes_.size() - 1});
    rawMs_ += ms;
}

void
ProbedTimes::tick()
{
    if (msSince(last_) >= 250) {
        probes_.push_back(hostProbeMs());
        last_ = Clock::now();
    }
}

void
ProbedTimes::finish()
{
    probes_.push_back(hostProbeMs());
    const std::vector<double> steady = steadyProbes(probes_);
    for (const Sample &s : samples_)
        s.into->push_back(s.ms * probeScale(steady, s.interval));
    samples_.clear();
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

uint64_t
fingerprint(const mirage::circuit::Circuit &c)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    };
    const int nq = c.numQubits();
    mix(&nq, sizeof nq);
    for (const auto &g : c.gates()) {
        const int kind = int(g.kind);
        mix(&kind, sizeof kind);
        mix(g.qubits.data(), g.qubits.size() * sizeof(int));
        mix(g.params.data(), g.params.size() * sizeof(double));
        if (g.mat2)
            mix(g.mat2->a.data(), sizeof g.mat2->a);
        if (g.mat4)
            mix(g.mat4->a.data(), sizeof g.mat4->a);
    }
    return h;
}

void
Result::print() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"problems\": [";
    for (size_t i = 0; i < problems.size(); ++i) {
        if (i)
            out += ", ";
        out += '"';
        for (char ch : problems[i])
            out += (ch == '"' || ch == '\\') ? '\'' : ch;
        out += '"';
    }
    out += "], \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : metrics) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(vu.first) ? vu.first : 0.0);
        out += std::string(first ? "" : ", ") + "\"" + name +
               "\": {\"value\": " + buf + ", \"unit\": \"" + vu.second +
               "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

std::string
flag(int argc, char **argv, const std::string &name,
     const std::string &fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (name == argv[i])
            return argv[i + 1];
    return fallback;
}

} // namespace perfbench
