/**
 * @file
 * Workload entry points of the harness.
 */

#ifndef PERFBENCH_INPROC_HH
#define PERFBENCH_INPROC_HH

#include <string>

#include "common.hh"

namespace perfbench {

/** A live `mirage serve --socket` driven by one open-loop client. */
struct ServeMixConfig
{
    std::string mirage;   ///< path of the mirage binary
    std::string socket;   ///< socket path to serve on
    std::string catalog;  ///< --catalog for the server
    std::string plan;     ///< request pool (see serve_client.cc)
    std::string logFile;  ///< server stderr
    uint64_t seed = 1;
    double seconds = 10;
};

int runSuiteRoute(const std::string &plan, const std::string &catalog,
                  const std::string &lower_topology, uint64_t seed,
                  double seconds);
int runLowerCold(const std::string &plan, uint64_t seed, double seconds);
/** Cold set-up only, as the workloads above do it; prints READY, PROBE. */
int runSetup(const std::string &plan, const std::string &catalog);
int runTrace(const std::string &plan, const std::string &catalog,
             bool cold_lib, uint64_t seed, double seconds,
             const std::string &trace_out, const ServeMixConfig *serve);

/** Drive the serve mix; adds the per-layer serve.* metrics to `res`. */
void runServeMix(const ServeMixConfig &cfg, Result &res);

/** Check CLI/serve QASM outputs listed in `list` (see main.cc). */
int runCheckQasm(const std::string &list);

/** The benchmark's own tests: each check must fail on a corrupted output. */
int runSelftest();

/** Export the Table III suite and the catalog's mirror-RB circuits. */
int runExport(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_INPROC_HH
