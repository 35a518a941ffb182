/**
 * @file
 * `mirage` subcommand implementations: transpile (QASM in, JSON/QASM
 * out), sweep (experiment registry -> versioned artifacts), report
 * (artifacts -> markdown). All user-facing failures are reported as
 * "mirage: ..." messages on the error stream with scripting-grade exit
 * codes; nothing in this layer calls exit() or aborts.
 */

#include "cli/cli.hh"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "cli/args.hh"
#include "cli/experiments.hh"
#include "common/atomic_file.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "decomp/catalog.hh"
#include "decomp/equivalence.hh"
#include "mirage/pipeline.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/traffic.hh"
#include "topology/coupling.hh"

namespace mirage::cli {

namespace {

/** Runtime (non-usage) failure: maps to exit code 1. */
class CliError : public std::runtime_error
{
  public:
    explicit CliError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/**
 * Validate a --cache DIR value up front: create it if absent, and
 * reject a path that cannot be a writable directory with a clear
 * usage error (exit 2) instead of silently fitting cold and failing
 * to persist at exit. Returns the (possibly empty) directory.
 */
std::string
validateCacheDir(const std::string &dir)
{
    if (dir.empty())
        return dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!std::filesystem::is_directory(dir, ec))
        throw UsageError("--cache '" + dir +
                         "' is not a directory and cannot be created" +
                         (ec ? " (" + ec.message() + ")" : ""));
    if (::access(dir.c_str(), W_OK) != 0)
        throw UsageError("--cache directory '" + dir +
                         "' is not writable");
    return dir;
}

std::string
readInput(const std::string &path)
{
    if (path == "-") {
        std::ostringstream buf;
        buf << std::cin.rdbuf();
        return buf.str();
    }
    std::ifstream in(path);
    if (!in)
        throw CliError("cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** readInput() parsed as JSON; a parse error names path:line:col. */
json::Value
readJsonFile(const std::string &path)
{
    const std::string text = readInput(path);
    try {
        return json::parse(text);
    } catch (const json::ParseError &e) {
        throw CliError(path + ":" + e.what()); // what() is "line:col: ..."
    }
}

void
writeOutput(const std::string &path, const std::string &content,
            std::ostream &out)
{
    if (path.empty() || path == "-") {
        out << content;
        return;
    }
    std::ofstream f(path);
    if (!f)
        throw CliError("cannot write '" + path + "'");
    f << content;
}

// --- transpile --------------------------------------------------------------

int
cmdTranspile(const std::vector<std::string> &args, std::ostream &out,
             std::ostream &err)
{
    ArgumentParser parser("transpile", "<input.qasm | ->");
    // The request options come from the schema the serve protocol
    // reads too, so both front doors share names, defaults and ranges.
    for (const serve::RequestOption &o : serve::requestOptions()) {
        if (o.kind == serve::RequestOption::Kind::Bool)
            parser.addFlag(o.flag, o.help);
        else
            parser.addOption(o.flag, o.valueName, o.defaultText, o.help);
    }
    parser.addOption("--threads", "N", "1",
                     "trial-grid worker threads (0 = all cores); output "
                     "is bit-identical for every value");
    parser.addOption("--cache", "DIR", "",
                     "equivalence-library cache directory (load before, "
                     "save after; implies faster --lower reruns)");
    parser.addOption("--catalog", "FILE", "",
                     "fit catalog warm-starting --lower ('none' "
                     "disables; default: $MIRAGE_FIT_CATALOG, then "
                     "./FIT_CATALOG.bin when present)");
    parser.addOption("--output", "FILE", "",
                     "write output here instead of stdout");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (parser.positionals().size() != 1)
        throw UsageError("transpile expects exactly one input file "
                         "(or '-' for stdin); see 'mirage transpile "
                         "--help'");

    const std::string &path = parser.positionals()[0];
    serve::TranspileRequest req;
    serve::PreparedTranspile prepared;
    try {
        using Kind = serve::RequestOption::Kind;
        for (const serve::RequestOption &o : serve::requestOptions()) {
            if (!parser.optionSeen(o.flag))
                continue;
            serve::OptionValue value;
            switch (o.kind) {
              case Kind::Text: value = parser.option(o.flag); break;
              case Kind::Int: value = int64_t(parser.intOption(o.flag)); break;
              case Kind::Seed: value = parser.u64Option(o.flag); break;
              case Kind::Bool:
                value = std::strcmp(o.defaultText, "true") != 0;
                break;
            }
            serve::setOption(req, o, value, o.flag);
        }
        req.name = path == "-" ? "<stdin>" : path;
        req.qasm = readInput(path);
        prepared = serve::prepareTranspile(req);
    } catch (const serve::RequestError &e) {
        if (e.code() == "request")
            throw UsageError(e.what());
        throw CliError(e.what());
    }
    mirage_pass::TranspileOptions &opts = req.options;
    opts.threads = parser.intOption("--threads", 0);
    if (req.deadlineMs > 0)
        opts.deadline = Deadline::afterMs(req.deadlineMs);

    // The library preseeds standard-gate fits, so build it only when
    // the lowering stage will actually run.
    const std::string cacheDir = validateCacheDir(parser.option("--cache"));
    std::unique_ptr<decomp::EquivalenceLibrary> library;
    if (opts.lowerToBasis) {
        decomp::CatalogLoad catalog;
        library = decomp::loadLibrary(
            opts.rootDegree, parser.option("--catalog"), cacheDir, &catalog);
        if (!catalog.path.empty() && !catalog.loaded())
            err << "mirage: warning: fit catalog "
                << decomp::cacheLoadStatusName(catalog.result.status) << ": "
                << catalog.result.message << "; fitting cold\n";
        opts.equivalenceLibrary = library.get();
    }

    mirage_pass::TranspileResult res;
    try {
        res = mirage_pass::transpile(prepared.input, *prepared.topology,
                                     opts);
    } catch (const DeadlineError &e) {
        err << "mirage: deadline: " << e.what() << " (budget "
            << req.deadlineMs << " ms)\n";
        return kExitFailure;
    }

    if (library && !decomp::saveLibraryCache(*library, cacheDir))
        err << "mirage: warning: cannot write cache '"
            << decomp::libraryCacheFile(cacheDir, opts.rootDegree) << "'\n";

    const json::Value output = serve::renderTranspile(req, prepared, res);
    writeOutput(parser.option("--output"),
                output.isString() ? output.asString() : output.dump(2), out);
    return kExitSuccess;
}

// --- sweep ------------------------------------------------------------------

int
cmdSweep(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    ArgumentParser parser("sweep", "--experiment <name>");
    parser.addOption("--experiment", "NAME", "",
                     "registered experiment to run (see --list)");
    parser.addOption("--out", "DIR", ".",
                     "directory for the emitted artifacts");
    // Each knob's help names the experiments that read it; the rest
    // reject it. Defaults are per experiment.
    for (const KnobSpec &s : knobSpecs()) {
        std::string readers;
        for (const auto &e : experimentRegistry())
            if (e.declared(s.knob))
                readers += (readers.empty() ? "" : ", ") + e.name;
        parser.addOption(s.flag, s.valueName, "",
                         std::string(s.help) + "; read by " + readers);
    }
    parser.addOption("--check", "FILE", "",
                     "baseline artifact; exit 1 if a gated counter rose "
                     "(counter-gated experiments only)");
    parser.addFlag("--csv", "also write <name>.csv next to the JSON");
    parser.addFlag("--stdout",
                   "print the artifact JSON to stdout instead of "
                   "writing files");
    parser.addFlag("--list", "list registered experiments and exit");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (parser.flag("--list")) {
        for (const auto &e : experimentRegistry())
            out << e.name << "\t" << e.artifact << "\t" << e.title
                << "\n";
        return kExitSuccess;
    }
    if (!parser.positionals().empty())
        throw UsageError("sweep takes no positional operands");
    const std::string name = parser.option("--experiment");
    if (name.empty())
        throw UsageError("sweep requires --experiment <name> (or "
                         "--list)");
    const Experiment *experiment = findExperiment(name);
    if (!experiment) {
        std::string known;
        for (const auto &e : experimentRegistry())
            known += (known.empty() ? "" : ", ") + e.name;
        throw UsageError("unknown experiment '" + name +
                         "' (available: " + known +
                         "; run 'mirage sweep --list' for one-line "
                         "descriptions)");
    }

    // fig5 takes ~11 ms per Monte-Carlo iteration (Release, 4-vCPU
    // container), so 10^5 iterations already run ~20 minutes; anything
    // larger is a typo, not a run anyone waits for.
    constexpr int kMaxMcIterations = 100000;
    SweepKnobs knobs;
    for (const KnobSpec &s : knobSpecs()) {
        if (!parser.optionSeen(s.flag))
            continue;
        if (s.text)
            knobs.*s.text = parser.option(s.flag);
        else
            knobs.*s.number = parser.intOption(
                s.flag, s.knob == Knob::Threads ? 0 : 1,
                s.knob == Knob::McIters ? kMaxMcIterations : INT_MAX);
    }
    // Reject a knob the experiment does not read before any work (or
    // creating a --cache directory it would never use).
    resolveKnobs(*experiment, knobs);
    knobs.cacheDir = validateCacheDir(knobs.cacheDir);

    // Read the baseline BEFORE writing the fresh artifact: the two
    // paths may coincide, and writing first would make the gate
    // compare the new artifact against itself -- always passing.
    const std::string baselinePath = parser.option("--check");
    json::Value baseline;
    if (!baselinePath.empty()) {
        if (experiment->gatedCounters.empty()) {
            std::string gated;
            for (const auto &e : experimentRegistry())
                if (!e.gatedCounters.empty())
                    gated += (gated.empty() ? "" : ", ") + e.name;
            throw UsageError("--check needs a counter-gated experiment (" +
                             gated + "); '" + name + "' has none");
        }
        baseline = readJsonFile(baselinePath);
    }

    err << "mirage: running experiment '" << name << "' ("
        << experiment->artifact << ")...\n";
    json::Value artifact = runExperiment(*experiment, knobs);
    const bool toStdout = parser.flag("--stdout");
    if (toStdout) {
        out << artifact.dump(2);
    } else {
        const std::string dir = parser.option("--out");
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        const std::string jsonPath = dir + "/" + name + ".json";
        {
            std::ofstream f(jsonPath);
            if (!f)
                throw CliError("cannot write '" + jsonPath + "'");
            f << artifact.dump(2);
        }
        out << "wrote " << jsonPath << " ("
            << artifact["rows"].size() << " rows)\n";
        if (parser.flag("--csv")) {
            const std::string csvPath = dir + "/" + name + ".csv";
            std::ofstream f(csvPath);
            if (!f)
                throw CliError("cannot write '" + csvPath + "'");
            f << renderCsv(artifact);
            out << "wrote " << csvPath << "\n";
        }
    }

    // The artifact is written either way, so a failing run can be
    // inspected; the checks then decide the exit status.
    std::ostream &log = toStdout ? err : out;
    int status = kExitSuccess;
    if (!baselinePath.empty()) {
        std::string report;
        const bool ok =
            checkBenchCounters(*experiment, artifact, baseline, &report);
        log << report;
        if (ok) {
            log << "check OK: no gated counter rose versus "
                << baselinePath << "\n";
        } else {
            err << "mirage: counter check versus '" << baselinePath
                << "' failed\n";
            status = kExitFailure;
        }
    }
    std::string broken;
    if (!checkInvariants(*experiment, artifact, &broken)) {
        std::istringstream lines(broken);
        for (std::string line; std::getline(lines, line);)
            err << "mirage: " << name << ": " << line << "\n";
        status = kExitFailure;
    }
    return status;
}

// --- report -----------------------------------------------------------------

int
cmdReport(const std::vector<std::string> &args, std::ostream &out,
          std::ostream &err)
{
    ArgumentParser parser("report", "<artifact.json>...");
    parser.addOption("--output", "FILE", "",
                     "write the markdown here instead of stdout");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (parser.positionals().empty())
        throw UsageError("report expects at least one artifact file");

    std::string rendered;
    for (const auto &path : parser.positionals()) {
        const json::Value artifact = readJsonFile(path);
        std::string schemaError;
        if (!validateArtifact(artifact, &schemaError)) {
            err << "mirage: " << path << ": invalid artifact: "
                << schemaError << "\n";
            return kExitFailure;
        }
        if (!rendered.empty())
            rendered += "\n";
        rendered += renderMarkdown(artifact);
    }
    writeOutput(parser.option("--output"), rendered, out);
    return kExitSuccess;
}

// --- serve ------------------------------------------------------------------

/** The running socket server, for SIGINT/SIGTERM-driven shutdown.
 * SocketServer::stop() only stores an atomic flag, so it is
 * async-signal-safe. */
std::atomic<serve::SocketServer *> g_signalServer{nullptr};

void
serveSignalHandler(int)
{
    if (serve::SocketServer *server = g_signalServer.load())
        server->stop();
}

int
cmdServe(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    ArgumentParser parser("serve", "--socket <path> | --stdio");
    parser.addOption("--socket", "PATH", "",
                     "bind a Unix domain socket here and serve "
                     "concurrent newline-delimited JSON requests");
    parser.addFlag("--stdio",
                   "serve requests from stdin to stdout (sequential; "
                   "for tests and piping)");
    parser.addOption("--threads", "N", "0",
                     "warm trial-grid worker threads shared by every "
                     "request (0 = all cores)");
    parser.addOption("--cache-entries", "N", "256",
                     "result memo capacity, in full transpile reports");
    parser.addOption("--cache", "DIR", "",
                     "equivalence-library persistence directory "
                     "(loaded on first use, saved on shutdown)");
    parser.addOption("--catalog", "FILE", "",
                     "fit catalog warm-starting the root-2 library at "
                     "startup ('none' disables; default: "
                     "$MIRAGE_FIT_CATALOG, then ./FIT_CATALOG.bin "
                     "when present)");
    parser.addOption("--max-queue", "N", "256",
                     "admission bound: shed requests with 'overloaded' "
                     "+ retryAfterMs once this many are queued (0 = "
                     "unbounded)");
    parser.addOption("--deadline-ms", "N", "0",
                     "server-wide per-request compute budget; caps any "
                     "client deadlineMs (0 = none)");
    parser.addOption("--max-qubits", "N", "0",
                     "reject wider circuits with 'toolarge' (0 = no "
                     "cap)");
    parser.addOption("--max-gates", "N", "0",
                     "reject longer circuits with 'toolarge' (0 = no "
                     "cap)");
    parser.addOption("--faults", "SPEC", "",
                     "arm a deterministic fault schedule, e.g. "
                     "'seed=7,serve.read=1/11,cache.save=1/1' "
                     "(overrides $MIRAGE_FAULTS; chaos testing only)");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (!parser.positionals().empty())
        throw UsageError("serve takes no positional operands");

    const std::string socketPath = parser.option("--socket");
    const bool stdio = parser.flag("--stdio");
    if (socketPath.empty() == !stdio)
        throw UsageError("serve needs exactly one transport: "
                         "--socket <path> or --stdio");

    serve::EngineOptions eopts;
    eopts.threads = parser.intOption("--threads", 0);
    eopts.cacheEntries = size_t(parser.intOption("--cache-entries", 1));
    eopts.cacheDir = validateCacheDir(parser.option("--cache"));
    eopts.catalogPath = parser.option("--catalog");
    eopts.maxQueue = parser.intOption("--max-queue", 0);
    eopts.deadlineMs = parser.intOption("--deadline-ms", 0);
    eopts.maxQubits = parser.intOption("--max-qubits", 0);
    eopts.maxGates = parser.intOption("--max-gates", 0);

    const std::string faultSpec = parser.option("--faults");
    if (!faultSpec.empty()) {
        try {
            fault::arm(faultSpec);
        } catch (const std::invalid_argument &e) {
            throw UsageError(std::string("--faults: ") + e.what());
        }
    }
    if (fault::armed())
        err << "mirage: serve: FAULT INJECTION armed: '" << fault::spec()
            << "'\n";

    // A client that hangs up mid-response must fail that one write
    // (counted as a dropped response), not kill the server.
    std::signal(SIGPIPE, SIG_IGN);

    try {
        serve::Engine engine(eopts);
        const decomp::CatalogLoad &catalog = engine.catalog();
        if (catalog.loaded())
            err << "mirage: serve: fit catalog '" << catalog.path
                << "' loaded (" << catalog.result.entriesLoaded
                << " entries)\n";
        else if (!catalog.path.empty())
            err << "mirage: serve: warning: fit catalog "
                << decomp::cacheLoadStatusName(catalog.result.status) << ": "
                << catalog.result.message << "; lowering cold\n";
        if (stdio) {
            const uint64_t n = serve::serveStdio(engine, std::cin, out);
            err << "mirage: serve: handled " << n << " request(s)\n";
            return kExitSuccess;
        }
        serve::SocketServer server(engine, socketPath);
        server.start();
        err << "mirage: serving on " << server.path() << " ("
            << engine.poolThreads() << " worker thread(s))\n";
        g_signalServer.store(&server);
        std::signal(SIGINT, serveSignalHandler);
        std::signal(SIGTERM, serveSignalHandler);
        server.run();
        g_signalServer.store(nullptr);
        std::signal(SIGINT, SIG_DFL);
        std::signal(SIGTERM, SIG_DFL);
        const serve::EngineCounters c = engine.counters();
        err << "mirage: serve: drained after " << c.requests
            << " request(s) (" << c.cacheHits << " cache hit(s), "
            << c.transpiles << " transpile(s))\n";
        return kExitSuccess;
    } catch (const serve::ServeError &e) {
        throw CliError(e.what());
    }
}

// --- serve-bench ------------------------------------------------------------

/**
 * `mirage serve-bench`: the serve throughput/latency trajectory.
 * Runs the two-phase synthetic workload (see serve/traffic.hh) against
 * an in-process engine (default) or a live server (--socket), writes
 * the BENCH_serve.json artifact, and with --check gates CI on the
 * deterministic parameters/counters exactly (timings stay
 * informational).
 */
int
cmdServeBench(const std::vector<std::string> &args, std::ostream &out,
              std::ostream &err)
{
    ArgumentParser parser("serve-bench", "[--check <baseline.json>]");
    parser.addOption("--clients", "N", "8",
                     "concurrent drive-phase client threads");
    parser.addOption("--requests", "N", "6",
                     "drive requests per client");
    parser.addOption("--distinct", "N", "4",
                     "distinct synthetic circuits in the request mix");
    parser.addOption("--width", "N", "5",
                     "qubits per synthetic circuit");
    parser.addOption("--gates", "N", "18",
                     "entangling gates per synthetic circuit");
    parser.addOption("--topology", "SPEC", "grid3x3",
                     "device coupling map for every request");
    parser.addOption("--trials", "N", "4", "layout trials per request");
    parser.addOption("--swap-trials", "N", "2",
                     "routing repeats per layout");
    parser.addOption("--fwd-bwd", "N", "2", "layout refinement rounds");
    parser.addOption("--seed", "N", "20240229",
                     "workload + pipeline seed");
    parser.addOption("--aggression", "N", "-1",
                     "fixed mirror aggression 0-3 (-1 = mixed)");
    parser.addFlag("--lower",
                   "requests also lower to RootISWAP pulses");
    parser.addOption("--threads", "N", "0",
                     "in-process engine pool threads (0 = all cores)");
    parser.addOption("--socket", "PATH", "",
                     "drive a live `mirage serve` at this socket "
                     "instead of an in-process engine");
    parser.addOption("--out", "FILE", "BENCH_serve.json",
                     "artifact path ('-' for stdout; --chaos defaults "
                     "to stdout instead)");
    parser.addOption("--check", "FILE", "",
                     "baseline artifact; exit 1 if the deterministic "
                     "parameters or counters drifted");
    parser.addFlag("--chaos",
                   "robustness mode: drive a server through a seeded "
                   "fault schedule; exit 1 unless it degrades cleanly "
                   "(documented errors, bit-identical successes, no "
                   "crash)");
    parser.addOption("--chaos-requests", "N", "200",
                     "requests driven through the chaos server");
    parser.addOption("--faults", "SPEC", "",
                     "chaos fault schedule (default: every injection "
                     "point; ignored with --socket, where the server "
                     "process owns its schedule)");
    parser.addOption("--chaos-dir", "DIR", "",
                     "chaos scratch directory for the in-process "
                     "server's socket/catalog/cache (default: "
                     "/tmp/mirage-chaos-<pid>)");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (!parser.positionals().empty())
        throw UsageError("serve-bench takes no positional operands");

    // --- chaos mode --------------------------------------------------------
    if (parser.flag("--chaos")) {
        if (!parser.option("--check").empty())
            throw UsageError("--chaos and --check are mutually "
                             "exclusive (chaos gates on its own pass "
                             "flag)");
        serve::ChaosOptions copts;
        copts.requests = parser.intOption("--chaos-requests", 1);
        copts.seed = parser.u64Option("--seed");
        copts.engineThreads = parser.intOption("--threads", 0);
        copts.faultSpec = parser.option("--faults");
        copts.socketPath = parser.option("--socket");
        copts.workDir = parser.option("--chaos-dir");
        // Writes happen over SocketClient; a server killed mid-chaos
        // must surface as a reconnect, not a fatal SIGPIPE.
        std::signal(SIGPIPE, SIG_IGN);

        json::Value artifact;
        try {
            artifact = serve::runChaos(copts, err);
        } catch (const serve::ServeError &e) {
            throw CliError(e.what());
        }
        // Never clobber the committed throughput baseline with a
        // chaos artifact by default.
        std::string path = parser.option("--out");
        if (path == "BENCH_serve.json")
            path = "-";
        writeOutput(path, artifact.dump(2), out);
        if (path != "-" && !path.empty())
            out << "wrote " << path << "\n";
        const json::Value *pass = artifact.find("pass");
        if (!pass || !pass->asBool()) {
            err << "mirage: serve-bench --chaos FAILED (see the "
                   "artifact's results section)\n";
            return kExitFailure;
        }
        return kExitSuccess;
    }

    serve::TrafficOptions topts;
    topts.clients = parser.intOption("--clients", 1);
    topts.requestsPerClient = parser.intOption("--requests", 1);
    topts.distinct = parser.intOption("--distinct", 1);
    topts.trials = parser.intOption("--trials", 1);
    topts.swapTrials = parser.intOption("--swap-trials", 1);
    // Entangling gates need two qubits.
    topts.width = parser.intOption("--width", 2);
    topts.twoQubitGates = parser.intOption("--gates", 1);
    topts.fwdBwd = parser.intOption("--fwd-bwd", 0);
    topts.aggression = parser.intOption("--aggression", -1, 3);
    topts.engineThreads = parser.intOption("--threads", 0);
    topts.seed = parser.u64Option("--seed");
    topts.topology = parser.option("--topology");
    topts.lower = parser.flag("--lower");
    topts.socketPath = parser.option("--socket");

    // Read the baseline BEFORE writing the fresh artifact: with the
    // default --out the two paths coincide (the committed repo-root
    // BENCH_serve.json), and writing first would gate the new artifact
    // against itself -- always passing.
    const std::string baselinePath = parser.option("--check");
    json::Value baseline;
    if (!baselinePath.empty())
        baseline = readJsonFile(baselinePath);

    json::Value artifact;
    try {
        artifact = serve::runTraffic(topts, err);
    } catch (const serve::ServeError &e) {
        throw CliError(e.what());
    }

    const std::string path = parser.option("--out");
    writeOutput(path, artifact.dump(2), out);
    if (path != "-" && !path.empty())
        out << "wrote " << path << "\n";

    if (!baselinePath.empty()) {
        std::string report;
        const bool ok =
            serve::checkServeArtifact(artifact, baseline, &report);
        if (!report.empty())
            out << report;
        if (!ok) {
            err << "mirage: serve-bench counters drifted versus '"
                << baselinePath << "'\n";
            return kExitFailure;
        }
        out << "serve-bench check OK: deterministic counters match "
            << baselinePath << "\n";
    }
    return kExitSuccess;
}

// --- catalog ----------------------------------------------------------------

/**
 * `mirage catalog`: maintain the committed FIT_CATALOG.bin. `build`
 * fits the full target set cold and writes the catalog; `check`
 * refits and byte-compares against the committed file (the CI gate:
 * any drift -- unreadable, malformed, or changed bytes -- fails and
 * leaves the fresh bytes next to the stale file); `stats` inspects a
 * catalog without fitting anything.
 */
int
cmdCatalog(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err)
{
    ArgumentParser parser("catalog", "<build | check | stats>");
    parser.addOption("--path", "FILE", decomp::kCatalogFileName,
                     "catalog file to write (build), compare against "
                     "(check), or inspect (stats)");
    parser.addOption("--threads", "N", "1",
                     "routing worker threads while collecting the "
                     "target set (0 = all cores; the catalog bytes do "
                     "not depend on this)");
    parser.parse(args);
    if (parser.helpRequested()) {
        out << parser.helpText();
        return kExitSuccess;
    }
    if (parser.positionals().size() != 1)
        throw UsageError("catalog expects exactly one action: build, "
                         "check, or stats; see 'mirage catalog --help'");
    const std::string action = parser.positionals()[0];
    const std::string path = parser.option("--path");
    const int threads = parser.intOption("--threads", 0);

    using Status = decomp::EquivalenceLibrary::CacheLoadStatus;

    if (action == "stats") {
        decomp::EquivalenceLibrary lib(2, /*preseed=*/false);
        const auto load = lib.loadCacheFileDetailed(path);
        if (load.status != Status::Ok) {
            err << "mirage: catalog stats: "
                << (load.status == Status::Unreadable ? "unreadable"
                                                      : "malformed")
                << ": " << load.message << "\n";
            return kExitFailure;
        }
        out << "catalog: " << path << "\n"
            << "entries: " << lib.cacheSize() << "\n"
            << "k histogram:\n";
        for (const auto &[k, count] : lib.kHistogram())
            out << "  k=" << k << ": " << count << "\n";
        return kExitSuccess;
    }
    if (action != "build" && action != "check")
        throw UsageError("unknown catalog action '" + action +
                         "' (expected build, check, or stats)");

    err << "mirage: fitting the catalog target set cold (Table III + "
           "mirror workloads; several minutes)...\n";
    auto lib = buildCatalogLibrary(threads);
    std::ostringstream fresh;
    lib->saveCache(fresh);

    if (action == "build") {
        // Atomic replace: a crash (or SIGKILL) mid-build must leave
        // either the old committed catalog or the new one, never a
        // torn file that poisons every warm start.
        std::string werr;
        if (!writeFileAtomic(path, fresh.str(), &werr))
            throw CliError("cannot write '" + path + "': " + werr);
        out << "wrote " << path << " (" << lib->cacheSize()
            << " entries, " << lib->fitCount() << " fits)\n";
        return kExitSuccess;
    }

    // check: classify the committed file first so CI logs say WHICH
    // way it is bad (missing/unreadable vs corrupt vs drifted bytes).
    decomp::EquivalenceLibrary probe(2, /*preseed=*/false);
    const auto load = probe.loadCacheFileDetailed(path);
    std::string failure;
    if (load.status == Status::Unreadable)
        failure = "unreadable: " + load.message;
    else if (load.status == Status::Malformed)
        failure = "malformed: " + load.message;
    else if (readInput(path) != fresh.str())
        failure = "'" + path +
                  "' drifted from the freshly fitted target set";
    if (failure.empty()) {
        out << "catalog check OK: " << path
            << " matches the freshly fitted target set ("
            << lib->cacheSize() << " entries)\n";
        return kExitSuccess;
    }
    const std::string freshPath = path + ".fresh";
    {
        std::ofstream f(freshPath);
        if (f)
            f << fresh.str();
    }
    err << "mirage: catalog check: " << failure
        << " (fresh bytes left at '" << freshPath
        << "'; regenerate with 'mirage catalog build')\n";
    return kExitFailure;
}

// --- dispatch ---------------------------------------------------------------

const char *const kVersion = "0.1.0";

std::string
usage()
{
    return "usage: mirage <command> [options]\n"
           "\n"
           "commands:\n"
           "  transpile   run the full MIRAGE pipeline on an OpenQASM 2 "
           "file\n"
           "  sweep       run a registered paper experiment, emit a "
           "JSON/CSV artifact;\n"
           "              --check gates the perf counters in CI\n"
           "  serve       persistent transpilation service (Unix socket "
           "or stdio)\n"
           "  serve-bench serve throughput/latency (BENCH_serve.json); "
           "--check gates CI,\n"
           "              --chaos runs the fault-tolerance gate\n"
           "  catalog     build/check/inspect the committed fit catalog "
           "(FIT_CATALOG.bin)\n"
           "  report      render sweep artifacts as markdown tables\n"
           "  version     print the version\n"
           "  help        show this message\n"
           "\n"
           "'mirage <command> --help' documents each command;\n"
           "'mirage sweep --list' names the registered experiments.\n";
}

} // namespace

int
run(const std::vector<std::string> &args, std::ostream &out,
    std::ostream &err)
{
    if (args.empty()) {
        err << usage();
        return kExitUsage;
    }
    const std::string &command = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());

    // MIRAGE_FAULTS arms the deterministic fault schedule for any
    // command (a --faults flag, where offered, re-arms over this).
    if (const char *spec = std::getenv("MIRAGE_FAULTS");
        spec && *spec && !fault::armed()) {
        try {
            fault::arm(spec);
            err << "mirage: FAULT INJECTION armed from MIRAGE_FAULTS: '"
                << spec << "'\n";
        } catch (const std::invalid_argument &e) {
            err << "mirage: bad MIRAGE_FAULTS spec: " << e.what()
                << "\n";
            return kExitUsage;
        }
    }

    try {
        if (command == "help" || command == "--help" || command == "-h") {
            out << usage();
            return kExitSuccess;
        }
        if (command == "version" || command == "--version") {
            out << "mirage " << kVersion << "\n";
            return kExitSuccess;
        }
        if (command == "transpile")
            return cmdTranspile(rest, out, err);
        if (command == "sweep")
            return cmdSweep(rest, out, err);
        if (command == "serve")
            return cmdServe(rest, out, err);
        if (command == "serve-bench")
            return cmdServeBench(rest, out, err);
        if (command == "catalog")
            return cmdCatalog(rest, out, err);
        if (command == "report")
            return cmdReport(rest, out, err);
        err << "mirage: unknown command '" << command << "'\n\n"
            << usage();
        return kExitUsage;
    } catch (const UsageError &e) {
        err << "mirage: " << e.what() << "\n";
        return kExitUsage;
    } catch (const CliError &e) {
        err << "mirage: " << e.what() << "\n";
        return kExitFailure;
    } catch (const std::exception &e) {
        err << "mirage: " << e.what() << "\n";
        return kExitFailure;
    }
}

} // namespace mirage::cli
