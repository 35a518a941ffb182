/**
 * @file
 * perfbench_harness: the compiled half of the benchmark. perfbench/run.py
 * builds it and calls one subcommand per run; see perfbench/README.md.
 *
 *   suite-route --plan P --catalog C --lower-topology T --seed S --seconds N
 *   lower-cold  --plan P --seed S --seconds N
 *   setup       --plan P [--catalog C]   (the cold set-up of the two above)
 *   trace       --plan P --catalog C --library cold|catalog --seed S
 *               --seconds N --trace-out F [--mirage BIN --serve-plan P
 *               --socket S --log L, to add a serve session]
 *   check-qasm  --list FILE   (lines: output<TAB>logical input<TAB>topology)
 *   selftest
 *   export      --dir DIR
 *   run-timed   OUT ERR cmd args...
 *               (prints "<scaled-ms> <ms> <peak-rss-kB> <exit>"; the
 *               wall time scaled by the host probes around it)
 *   probe       (prints "<probe-ms> <reference-probe-ms>")
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench_circuits/generators.hh"
#include "bench_circuits/mirror.hh"
#include "checks.hh"
#include "circuit/qasm.hh"
#include "inproc.hh"
#include "topology/coupling.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

int
runCheckQasm(const std::string &list)
{
    std::istringstream in(readFile(list));
    std::string line;
    int bad = 0, n = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string out_path, in_path, topo;
        std::getline(ls, out_path, '\t');
        std::getline(ls, in_path, '\t');
        std::getline(ls, topo, '\t');
        ++n;
        std::string why;
        try {
            const QasmCircuit logical = parseQasm(readFile(in_path));
            const BasisOutcome want = basisOutcome(logical.qubits,
                                                   logical.ops);
            const QasmCircuit out = parseQasm(readFile(out_path));
            const auto edges = edgeSet(
                mirage::topology::CouplingMap::parseSpec(topo, logical.qubits)
                    .edges());
            const BasisOutcome got = basisOutcome(out.qubits, out.ops);
            if (want.probability < 1 - 1e-9)
                why = "input is not a mirror circuit";
            else if (int e = edgeViolations(out.ops, edges))
                why = std::to_string(e) + " gates off the device edges";
            else if (got.probability < 1 - 1e-6 || got.weight != want.weight)
                why = "output is not a basis state of weight " +
                      std::to_string(want.weight) + " (p=" +
                      std::to_string(got.probability) + ", weight " +
                      std::to_string(got.weight) + ")";
        } catch (const std::exception &e) {
            why = e.what();
        }
        if (!why.empty()) {
            ++bad;
            std::printf("FAIL %s: %s\n", out_path.c_str(), why.c_str());
        }
    }
    std::printf("checked %d, failed %d\n", n, bad);
    return bad ? 1 : 0;
}

int
runExport(const std::string &dir)
{
    namespace fs = std::filesystem;
    fs::create_directories(fs::path(dir) / "table3");
    fs::create_directories(fs::path(dir) / "mirror_rb");
    auto write = [](const fs::path &p, const std::string &text) {
        std::ofstream(p) << text;
    };
    for (const auto &b : mirage::bench::paperBenchmarks())
        write(fs::path(dir) / "table3" / (b.name + ".qasm"),
              mirage::circuit::toQasm(b.make()));
    // The fit catalog's mirror-RB target set: widths 8/10/14, three
    // layers, generation seed 0xA11CE.
    for (int w : {8, 10, 14})
        write(fs::path(dir) / "mirror_rb" / ("w" + std::to_string(w) + ".qasm"),
              mirage::circuit::toQasm(
                  mirage::bench::mirrorRb(w, 3, 0xA11CE).circuit));
    return 0;
}

/**
 * Run one command with stdout/stderr redirected to files, timed from fork
 * to exit and scaled by host probes just before and after it, on the CPU
 * this process and the command are pinned to. A plain fork from this
 * small process keeps the child's peak RSS (ru_maxrss) its own: a child
 * spawned straight from a large parent inherits the parent's high-water
 * mark across exec.
 */
int
runTimed(char **argv)
{
    pinToOneCpu();
    const double before = hostProbeMs();
    const auto t0 = Clock::now();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        const int out = open(argv[0], O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int err = open(argv[1], O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (out < 0 || err < 0)
            _exit(127);
        dup2(out, 1);
        dup2(err, 2);
        execv(argv[2], argv + 2);
        _exit(127);
    }
    int status = 0;
    rusage usage{};
    if (wait4(pid, &status, 0, &usage) != pid)
        throw std::runtime_error("wait4 failed");
    const double ms = msSince(t0);
    const double after = hostProbeMs();
    std::printf("%.9g %.9g %ld %d\n",
                ms * probeScale(steadyProbes({before, after}), 0), ms,
                usage.ru_maxrss,
                WIFEXITED(status) ? WEXITSTATUS(status) : 128);
    return 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_harness <command> ...\n");
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "run-timed" && argc >= 5)
        return perfbench::runTimed(argv + 2);
    if (cmd == "probe") {
        pinToOneCpu();
        std::printf("%.9g %.9g\n", hostProbeMs(), kProbeRefMs);
        return 0;
    }
    auto f = [&](const char *name, const char *fallback = "") {
        return flag(argc, argv, name, fallback);
    };
    try {
        const uint64_t seed = std::stoull(f("--seed", "1"));
        const double seconds = std::stod(f("--seconds", "10"));
        if (cmd == "suite-route")
            return runSuiteRoute(f("--plan"), f("--catalog"),
                                 f("--lower-topology"), seed, seconds);
        if (cmd == "lower-cold")
            return runLowerCold(f("--plan"), seed, seconds);
        if (cmd == "setup")
            return runSetup(f("--plan"), f("--catalog"));
        if (cmd == "trace") {
            ServeMixConfig serve;
            serve.mirage = f("--mirage");
            serve.socket = f("--socket");
            serve.catalog = f("--catalog");
            serve.plan = f("--serve-plan");
            serve.logFile = f("--log", "/dev/null");
            serve.seed = seed;
            serve.seconds = seconds * 0.3;
            return runTrace(f("--plan"), f("--catalog"),
                            f("--library") == "cold", seed, seconds,
                            f("--trace-out"),
                            serve.mirage.empty() ? nullptr : &serve);
        }
        if (cmd == "check-qasm")
            return runCheckQasm(f("--list"));
        if (cmd == "selftest")
            return runSelftest();
        if (cmd == "export")
            return runExport(f("--dir"));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "perfbench_harness: unknown command %s\n",
                 cmd.c_str());
    return 2;
}
