/**
 * @file
 * In-process tests for the `mirage` command-line tool: argument-parser
 * behavior, JSON layer round trips, subcommand exit codes and error
 * messages, QASM diagnostics surfaced as file:line:col, artifact
 * schema validation, and deterministic transpile output across runs
 * and thread counts. Everything drives cli::run directly -- no
 * subprocesses -- so failures point at the exact layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <unistd.h>

#include "bench_circuits/generators.hh"
#include "circuit/qasm.hh"
#include "cli/args.hh"
#include "cli/cli.hh"
#include "cli/experiments.hh"
#include "common/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace mirage;

namespace {

struct CliResult
{
    int code;
    std::string out;
    std::string err;
};

CliResult
runCli(const std::vector<std::string> &args)
{
    std::ostringstream out, err;
    int code = cli::run(args, out, err);
    return {code, out.str(), err.str()};
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path);
    ASSERT_TRUE(f.is_open()) << path;
    f << content;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    EXPECT_TRUE(f.is_open()) << path;
    std::ostringstream buf;
    buf << f.rdbuf();
    return buf.str();
}

/** The keys of an artifact's `parameters`, in order. */
std::vector<std::string>
parameterKeys(const json::Value &artifact)
{
    std::vector<std::string> keys;
    for (const auto &[key, value] : artifact["parameters"].members())
        keys.push_back(key);
    return keys;
}

/** The `parameters` keys a run of `name` records with no knob set. */
std::vector<std::string>
declaredKeys(const std::string &name)
{
    const cli::Experiment &e = *cli::findExperiment(name);
    std::vector<std::string> keys;
    for (const cli::KnobSpec &s : cli::knobSpecs())
        if (e.declared(s.knob) && s.parameter && s.number)
            keys.push_back(s.parameter);
    return keys;
}

} // namespace

// --- argument parser --------------------------------------------------------

TEST(ArgumentParser, FlagsOptionsAndPositionals)
{
    cli::ArgumentParser p("test", "<file>");
    p.addFlag("--lower", "flag");
    p.addOption("--seed", "N", "42", "seed");
    p.addOption("--topology", "SPEC", "auto", "topo");
    p.parse({"a.qasm", "--lower", "--seed=7", "--topology", "grid3x3",
             "--", "--not-an-option"});
    EXPECT_TRUE(p.flag("--lower"));
    EXPECT_EQ(p.intOption("--seed"), 7);
    EXPECT_TRUE(p.optionSeen("--seed"));
    EXPECT_EQ(p.option("--topology"), "grid3x3");
    ASSERT_EQ(p.positionals().size(), 2u);
    EXPECT_EQ(p.positionals()[0], "a.qasm");
    EXPECT_EQ(p.positionals()[1], "--not-an-option");
}

TEST(ArgumentParser, DefaultsApplyWhenAbsent)
{
    cli::ArgumentParser p("test", "");
    p.addOption("--seed", "N", "42", "seed");
    p.addFlag("--lower", "flag");
    p.parse({});
    EXPECT_EQ(p.intOption("--seed"), 42);
    EXPECT_FALSE(p.optionSeen("--seed"));
    EXPECT_FALSE(p.flag("--lower"));
}

TEST(ArgumentParser, ErrorsAreUsageErrors)
{
    cli::ArgumentParser p("test", "");
    p.addOption("--seed", "N", "42", "seed");
    p.addFlag("--lower", "flag");
    EXPECT_THROW(p.parse({"--bogus"}), cli::UsageError);

    cli::ArgumentParser q("test", "");
    q.addOption("--seed", "N", "42", "seed");
    EXPECT_THROW(q.parse({"--seed"}), cli::UsageError);

    cli::ArgumentParser r("test", "");
    r.addFlag("--lower", "flag");
    EXPECT_THROW(r.parse({"--lower=yes"}), cli::UsageError);

    cli::ArgumentParser s("test", "");
    s.addOption("--seed", "N", "42", "seed");
    s.parse({"--seed", "banana"});
    EXPECT_THROW(s.intOption("--seed"), cli::UsageError);

    // Values the target type cannot hold are rejected, not wrapped:
    // 4294967297 used to truncate to int 1, and strtoull negates a
    // leading '-' (-1 -> 2^64-1).
    for (const char *v : {"4294967297", "-4294967297", "2147483648",
                          "99999999999999999999"}) {
        cli::ArgumentParser t("test", "");
        t.addOption("--trials", "N", "8", "trials");
        t.parse({"--trials", v});
        EXPECT_THROW(t.intOption("--trials"), cli::UsageError) << v;
    }
    for (const char *v : {"-1", " -1", "-0", "18446744073709551616"}) {
        cli::ArgumentParser t("test", "");
        t.addOption("--seed", "N", "42", "seed");
        t.parse({"--seed", v});
        EXPECT_THROW(t.u64Option("--seed"), cli::UsageError) << v;
    }
    cli::ArgumentParser edge("test", "");
    edge.addOption("--trials", "N", "8", "trials");
    edge.addOption("--seed", "N", "42", "seed");
    edge.parse({"--trials", "-2147483648", "--seed",
                "18446744073709551615"});
    EXPECT_EQ(edge.intOption("--trials"), -2147483647 - 1);
    EXPECT_EQ(edge.u64Option("--seed"), ~uint64_t(0));

}

// --- json layer -------------------------------------------------------------

TEST(Json, DumpParseRoundTrip)
{
    json::Value doc = json::Value::object();
    doc.set("name", "qft_n8");
    doc.set("count", 42);
    doc.set("ratio", 0.1);
    doc.set("tiny", 1.77e-8);
    doc.set("ok", true);
    doc.set("none", json::Value());
    json::Value arr = json::Value::array();
    arr.push(1);
    arr.push("two");
    doc.set("mixed", std::move(arr));

    json::Value parsed = json::parse(doc.dump(2));
    EXPECT_EQ(parsed["name"].asString(), "qft_n8");
    EXPECT_EQ(parsed["count"].asInt(), 42);
    EXPECT_EQ(parsed["ratio"].asNumber(), 0.1);
    EXPECT_EQ(parsed["tiny"].asNumber(), 1.77e-8);
    EXPECT_TRUE(parsed["ok"].asBool());
    EXPECT_TRUE(parsed["none"].isNull());
    EXPECT_EQ(parsed["mixed"].at(1).asString(), "two");

    // Key order is preserved, so dumps are deterministic and diffable.
    EXPECT_EQ(parsed.dump(2), doc.dump(2));
    EXPECT_LT(doc.dump(0).find("\"name\""), doc.dump(0).find("\"count\""));
}

TEST(Json, StringEscapes)
{
    json::Value v(std::string("line\nquote\"tab\t\\"));
    json::Value parsed = json::parse(v.dump(0));
    EXPECT_EQ(parsed.asString(), "line\nquote\"tab\t\\");
}

TEST(Json, ParseErrorsCarryPosition)
{
    try {
        json::parse("{\n  \"a\": }");
        FAIL() << "expected ParseError";
    } catch (const json::ParseError &e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_GT(e.column(), 1);
    }
    EXPECT_THROW(json::parse(""), json::ParseError);
    EXPECT_THROW(json::parse("{} trailing"), json::ParseError);
    EXPECT_THROW(json::parse("[1, 2"), json::ParseError);
}

// --- top-level dispatch -----------------------------------------------------

TEST(CliDispatch, NoArgumentsIsUsageError)
{
    auto r = runCli({});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliDispatch, UnknownCommandIsUsageError)
{
    // `bench` is gone: its gate is `sweep --check`.
    for (const char *command : {"frobnicate", "bench"}) {
        auto r = runCli({command});
        EXPECT_EQ(r.code, cli::kExitUsage) << command;
        EXPECT_NE(r.err.find("unknown command"), std::string::npos)
            << command;
    }
}

TEST(CliDispatch, HelpAndVersionSucceed)
{
    auto help = runCli({"help"});
    EXPECT_EQ(help.code, cli::kExitSuccess);
    EXPECT_NE(help.out.find("transpile"), std::string::npos);

    auto version = runCli({"version"});
    EXPECT_EQ(version.code, cli::kExitSuccess);
    EXPECT_NE(version.out.find("mirage"), std::string::npos);

    auto sub = runCli({"transpile", "--help"});
    EXPECT_EQ(sub.code, cli::kExitSuccess);
    EXPECT_NE(sub.out.find("--topology"), std::string::npos);
}

// --- transpile --------------------------------------------------------------

namespace {

std::string
qft4Path()
{
    // ctest runs each case as its own process, all sharing this file:
    // write a private copy and rename it into place, so no reader ever
    // sees it truncated.
    static const std::string path = [] {
        std::string p = tempPath("qft4.qasm");
        const std::string mine = p + "." + std::to_string(::getpid());
        {
            std::ofstream f(mine);
            f << circuit::toQasm(bench::qft(4, true));
        }
        std::filesystem::rename(mine, p);
        return p;
    }();
    return path;
}

} // namespace

TEST(CliTranspile, MissingFileFailsWithExitOne)
{
    auto r = runCli({"transpile", tempPath("nope.qasm")});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliTranspile, MalformedQasmReportsFileLineColumn)
{
    std::string path = tempPath("bad.qasm");
    writeFile(path,
              "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\nfrob q[0];\n");
    auto r = runCli({"transpile", path});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find(path + ":4:1:"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("unsupported statement 'frob'"),
              std::string::npos);
}

TEST(CliTranspile, UnknownTopologyIsUsageError)
{
    auto r = runCli({"transpile", qft4Path(), "--topology", "torus9"});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("unknown topology"), std::string::npos);
}

TEST(CliTranspile, OversizedTopologySpecsAreRejectedOnBothFrontDoors)
{
    // A size that wraps or exceeds the qubit ceiling must be refused,
    // never routed on a different device.
    serve::Engine engine;
    const std::string qasm = readFile(qft4Path());
    for (const char *spec :
         {"line4294967304", "grid4294967299x3", "alltoall100000"}) {
        auto r = runCli({"transpile", qft4Path(), "--topology", spec});
        EXPECT_EQ(r.code, cli::kExitUsage) << spec << ": " << r.out;
        EXPECT_NE(r.err.find(spec), std::string::npos) << r.err;

        json::Value request = json::Value::object();
        request.set("qasm", qasm);
        json::Value options = json::Value::object();
        options.set("topology", spec);
        request.set("options", std::move(options));
        json::Value resp = json::parse(engine.handle(request.dump(0)));
        EXPECT_EQ(resp["error"]["code"].asString(), "request")
            << spec << ": " << resp.dump(0);
    }
    EXPECT_EQ(engine.topologiesCached(), 0u);
}

TEST(CliTranspile, OversizedDeclaredWidthsFailFastOnBothFrontDoors)
{
    // A width near INT_MAX under --topology auto, and two registers
    // whose widths sum past INT_MAX, are refused within a second on the
    // CLI and on a serve engine (whose default --max-qubits of 0 leaves
    // the width unchecked until the topology is resolved).
    const struct
    {
        const char *qasm;
        int exitCode;
        const char *errorCode;
        const char *mentions;
    } cases[] = {
        {"OPENQASM 2.0;\nqreg q[2147483647];\n", cli::kExitUsage, "request",
         "more than 1121 qubits"},
        {"OPENQASM 2.0;\nqreg a[2000000000];\nqreg b[2000000000];\n",
         cli::kExitFailure, "qasm", ":3:1: qreg b[2000000000]"},
    };
    serve::Engine engine;
    for (const auto &c : cases) {
        const std::string path = tempPath("wide.qasm");
        writeFile(path, c.qasm);
        auto start = std::chrono::steady_clock::now();
        auto r = runCli({"transpile", path, "--topology", "auto"});
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::seconds(1));
        EXPECT_EQ(r.code, c.exitCode) << r.err;
        EXPECT_NE(r.err.find(c.mentions), std::string::npos) << r.err;

        json::Value request = json::Value::object();
        request.set("qasm", c.qasm);
        start = std::chrono::steady_clock::now();
        json::Value resp = json::parse(engine.handle(request.dump(0)));
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::seconds(1));
        EXPECT_EQ(resp["error"]["code"].asString(), c.errorCode)
            << resp.dump(0);
        EXPECT_NE(resp["error"]["message"].asString().find(c.mentions),
                  std::string::npos)
            << resp.dump(0);
    }
    EXPECT_EQ(engine.topologiesCached(), 0u);
}

TEST(CliTranspile, TopologyTooSmallFails)
{
    auto r = runCli({"transpile", qft4Path(), "--topology", "line2"});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find("qubits"), std::string::npos);
}

TEST(CliTranspile, NumericFlagsOutOfRangeAreUsageErrors)
{
    // Every rejection must be exit code 2 (usage) with a message that
    // names the offending flag -- never a crash, a hang, or a silent
    // fallback to a default. Both front doors read one option schema,
    // so the same value sent to `mirage serve` as the flag's request
    // option must be a "request" error naming that option.
    const struct
    {
        const char *flag;
        const char *value;
    } cases[] = {
        {"--trials", "0"},
        {"--trials", "-3"},
        {"--swap-trials", "0"},
        {"--fwd-bwd", "-1"},
        {"--threads", "-1"},
        {"--root", "1"},
        {"--root", "5"},
        {"--aggression", "4"},
        {"--aggression", "-2"},
        {"--trials", "4294967297"},
        {"--swap-trials", "4294967297"},
        {"--fwd-bwd", "4294967297"},
        {"--root", "4294967298"},
        {"--aggression", "4294967297"},
        {"--deadline-ms", "-1"},
        {"--deadline-ms", "4294967297"},
        {"--seed", "-1"},
        {"--seed", "18446744073709551616"},
    };
    serve::Engine engine;
    const std::string qasm = readFile(qft4Path());
    for (const auto &c : cases) {
        auto r = runCli({"transpile", qft4Path(), c.flag, c.value});
        EXPECT_EQ(r.code, cli::kExitUsage) << c.flag << " " << c.value;
        EXPECT_NE(r.err.find(c.flag), std::string::npos) << r.err;

        const auto &schema = serve::requestOptions();
        auto o = std::find_if(schema.begin(), schema.end(),
                              [&c](const serve::RequestOption &s) {
                                  return std::string(s.flag) == c.flag;
                              });
        if (o == schema.end()) {
            // --threads sizes the CLI's own trial grid; a server's pool
            // is engine-wide, so it is no request option.
            EXPECT_STREQ(c.flag, "--threads");
            continue;
        }
        json::Value request = json::Value::object();
        request.set("qasm", qasm);
        json::Value options = json::Value::object();
        options.set(o->key, json::parse(c.value));
        request.set("options", std::move(options));
        json::Value resp = json::parse(engine.handle(request.dump(0)));
        EXPECT_EQ(resp["error"]["code"].asString(), "request")
            << c.flag << " " << c.value << ": " << resp.dump(0);
        EXPECT_NE(resp["error"]["message"].asString().find(
                      std::string("option '") + o->key + "'"),
                  std::string::npos)
            << resp.dump(0);
    }
}

TEST(CliTranspile, CatalogAppliesToRootTwoOnly)
{
    // The committed catalog holds sqrt(iSWAP) fits. A --root 3 lowering
    // must not try it (no "basis mismatch" warning) and fits cold,
    // whether the catalog is named or auto-discovered.
    const std::string catalog = MIRAGE_TEST_DATA_DIR "/../FIT_CATALOG.bin";
    const std::string path = tempPath("root3.qasm");
    writeFile(path, "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n");
    const std::vector<std::string> args = {"transpile", path, "--root", "3",
                                           "--lower"};

    std::vector<std::string> named = args;
    named.insert(named.end(), {"--catalog", catalog});
    auto explicitRun = runCli(named);
    EXPECT_EQ(explicitRun.code, cli::kExitSuccess) << explicitRun.err;
    EXPECT_EQ(explicitRun.err, "");

    ::setenv("MIRAGE_FIT_CATALOG", catalog.c_str(), 1);
    auto discovered = runCli(args);
    ::unsetenv("MIRAGE_FIT_CATALOG");
    EXPECT_EQ(discovered.code, cli::kExitSuccess) << discovered.err;
    EXPECT_EQ(discovered.err, "");
    EXPECT_EQ(discovered.out, explicitRun.out);

    auto cold = runCli({"transpile", path, "--root", "3", "--lower",
                        "--catalog", "none"});
    EXPECT_EQ(cold.out, explicitRun.out);
}

TEST(CliTranspile, UncreatableCacheDirIsUsageError)
{
    // A regular file where a directory component should be: the cache
    // dir can never be created, so the run must stop up front with a
    // usage error instead of transpiling and failing to persist.
    const std::string file = tempPath("cache_blocker");
    writeFile(file, "not a directory");
    auto r = runCli({"transpile", qft4Path(), "--lower", "--cache",
                     file + "/sub"});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("--cache"), std::string::npos) << r.err;

    // sweep shares the same validation.
    auto s = runCli({"sweep", "--experiment", "table3", "--cache",
                     file + "/sub"});
    EXPECT_EQ(s.code, cli::kExitUsage);
    EXPECT_NE(s.err.find("--cache"), std::string::npos) << s.err;
}

// --- serve flags ------------------------------------------------------------

TEST(CliServe, TransportAndNumericFlagValidation)
{
    auto none = runCli({"serve"});
    EXPECT_EQ(none.code, cli::kExitUsage);
    EXPECT_NE(none.err.find("--socket"), std::string::npos);

    auto both = runCli({"serve", "--socket", "/tmp/x.sock", "--stdio"});
    EXPECT_EQ(both.code, cli::kExitUsage);

    auto badThreads = runCli({"serve", "--stdio", "--threads", "-2"});
    EXPECT_EQ(badThreads.code, cli::kExitUsage);
    EXPECT_NE(badThreads.err.find("--threads"), std::string::npos);

    auto badEntries = runCli({"serve", "--stdio", "--cache-entries", "0"});
    EXPECT_EQ(badEntries.code, cli::kExitUsage);
    EXPECT_NE(badEntries.err.find("--cache-entries"), std::string::npos);

    // The dispatcher runs one transpile per job; there is no batch
    // size left to configure.
    auto noBatch = runCli({"serve", "--stdio", "--max-batch", "0"});
    EXPECT_EQ(noBatch.code, cli::kExitUsage);
    EXPECT_NE(noBatch.err.find("unknown option '--max-batch'"),
              std::string::npos)
        << noBatch.err;
}

TEST(CliServeBench, NumericFlagValidation)
{
    const struct
    {
        std::vector<std::string> extra;
        const char *needle;
    } cases[] = {
        {{"--clients", "0"}, "--clients"},
        {{"--requests", "-1"}, "--requests"},
        {{"--distinct", "0"}, "--distinct"},
        {{"--width", "1"}, "--width"},
        {{"--gates", "0"}, "--gates"},
        {{"--trials", "0"}, "--trials"},
        {{"--swap-trials", "0"}, "--swap-trials"},
        {{"--fwd-bwd", "-1"}, "--fwd-bwd"},
        {{"--aggression", "5"}, "--aggression"},
        {{"--threads", "-1"}, "--threads"},
    };
    for (const auto &c : cases) {
        std::vector<std::string> args = {"serve-bench"};
        args.insert(args.end(), c.extra.begin(), c.extra.end());
        auto r = runCli(args);
        EXPECT_EQ(r.code, cli::kExitUsage)
            << c.extra[0] << " " << c.extra[1];
        EXPECT_NE(r.err.find(c.needle), std::string::npos) << r.err;
    }
}

TEST(CliTranspile, JsonReportSchemaAndDeterminism)
{
    std::vector<std::string> args = {"transpile", qft4Path(),
                                     "--topology", "line4",
                                     "--seed",     "99",
                                     "--trials",   "4"};
    auto first = runCli(args);
    ASSERT_EQ(first.code, cli::kExitSuccess) << first.err;

    json::Value doc = json::parse(first.out);
    EXPECT_EQ(doc["schemaVersion"].asInt(), cli::kArtifactSchemaVersion);
    EXPECT_EQ(doc["kind"].asString(), "mirage-transpile");
    EXPECT_EQ(doc["input"]["qubits"].asInt(), 4);
    EXPECT_EQ(doc["topology"].find("name")->asString(), "line-4");
    EXPECT_GT(doc["result"]["metrics"]["totalPulses"].asNumber(), 0.0);
    EXPECT_FALSE(doc.contains("lowered"));

    // Identical invocation -> byte-identical report.
    auto second = runCli(args);
    EXPECT_EQ(first.out, second.out);

    // The determinism guarantee: thread count never changes the
    // transpile result (the echoed options block differs by design).
    args.push_back("--threads");
    args.push_back("4");
    auto threaded = runCli(args);
    json::Value threadedDoc = json::parse(threaded.out);
    EXPECT_EQ(doc["result"].dump(2), threadedDoc["result"].dump(2));
}

TEST(CliTranspile, LoweredQasmOutputRoundTripsThroughFromQasm)
{
    std::string outPath = tempPath("lowered.qasm");
    auto r = runCli({"transpile", qft4Path(), "--topology", "line4",
                     "--trials", "2", "--lower", "--format", "qasm",
                     "--output", outPath});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;

    circuit::Circuit lowered = circuit::fromQasm(readFile(outPath));
    EXPECT_EQ(lowered.numQubits(), 4);
    EXPECT_GT(lowered.size(), 0u);
}

TEST(CliTranspile, LoweredJsonReportsMeasuredMetrics)
{
    auto r = runCli({"transpile", qft4Path(), "--topology", "line4",
                     "--trials", "2", "--lower"});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    json::Value doc = json::parse(r.out);
    ASSERT_TRUE(doc.contains("lowered"));
    EXPECT_GT(doc["lowered"]["metrics"]["totalPulses"].asNumber(), 0.0);
    EXPECT_LT(doc["lowered"]["worstInfidelity"].asNumber(), 1e-6);
}

// --- sweep + report ---------------------------------------------------------

TEST(CliSweep, ListNamesEveryRegisteredExperiment)
{
    auto r = runCli({"sweep", "--list"});
    EXPECT_EQ(r.code, cli::kExitSuccess);
    for (const auto &e : cli::experimentRegistry())
        EXPECT_NE(r.out.find(e.name), std::string::npos) << e.name;
}

TEST(CliSweep, UnknownExperimentListsAvailable)
{
    auto r = runCli({"sweep", "--experiment", "fig99"});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("unknown experiment"), std::string::npos);
    EXPECT_NE(r.err.find("table3"), std::string::npos);
    EXPECT_NE(r.err.find("mirror-qv"), std::string::npos);
    // The error teaches discovery: it names the --list flag.
    EXPECT_NE(r.err.find("sweep --list"), std::string::npos);
}

TEST(CliSweep, MissingExperimentIsUsageError)
{
    auto r = runCli({"sweep"});
    EXPECT_EQ(r.code, cli::kExitUsage);
}

TEST(CliSweep, UndeclaredKnobsAreUsageErrors)
{
    // Every entry, every knob flag it does not declare: exit 2 before
    // any work, naming the flag and the experiment, with no artifact
    // (and no --cache directory) written.
    const std::string dir = tempPath("undeclared");
    const std::string cache = tempPath("undeclared-cache");
    int rejected = 0;
    for (const cli::Experiment &e : cli::experimentRegistry()) {
        for (const cli::KnobSpec &s : cli::knobSpecs()) {
            if (e.declared(s.knob))
                continue;
            const std::string value =
                s.number ? "2" : s.knob == cli::Knob::Cache ? cache : "none";
            auto r = runCli({"sweep", "--experiment", e.name, s.flag, value,
                             "--out", dir});
            EXPECT_EQ(r.code, cli::kExitUsage) << e.name << " " << s.flag;
            EXPECT_NE(r.err.find(std::string(s.flag) + " is not read by "
                                 "experiment '" + e.name + "'"),
                      std::string::npos)
                << r.err;
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 0);
    EXPECT_FALSE(std::filesystem::exists(dir));
    EXPECT_FALSE(std::filesystem::exists(cache));

    // The message lists what the experiment does read.
    auto r = runCli({"sweep", "--experiment", "bench", "--threads", "3"});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("(it reads --trials, --swap-trials, --fwd-bwd, "
                         "--limit)"),
              std::string::npos)
        << r.err;
}

TEST(CliSweep, McItersAboveTheBoundIsUsageError)
{
    // Values a signed doubling loop could not count up to: refused at
    // parse time, before any Monte-Carlo work or artifact.
    const std::string dir = tempPath("mc-iters");
    for (const auto &[name, iters] :
         {std::pair{"fig5", "1073741824"}, std::pair{"table2", "2147483647"}}) {
        const auto start = std::chrono::steady_clock::now();
        auto r = runCli({"sweep", "--experiment", name, "--mc-iters", iters,
                         "--out", dir});
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  std::chrono::seconds(1));
        EXPECT_EQ(r.code, cli::kExitUsage) << name << ": " << r.err;
        EXPECT_NE(r.err.find("--mc-iters"), std::string::npos) << r.err;
    }
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(CliSweep, Fig8ArtifactValidatesRendersAndExportsCsv)
{
    std::string dir = tempPath("arts");
    auto r = runCli({"sweep", "--experiment", "fig8", "--out", dir,
                     "--csv"});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    EXPECT_NE(r.out.find("fig8.json"), std::string::npos);

    json::Value artifact = json::parse(readFile(dir + "/fig8.json"));
    std::string schemaError;
    EXPECT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
    EXPECT_EQ(artifact["schemaVersion"].asInt(),
              cli::kArtifactSchemaVersion);
    EXPECT_EQ(artifact["kind"].asString(), "mirage-sweep");
    EXPECT_EQ(artifact["experiment"].asString(), "fig8");
    EXPECT_EQ(artifact["rows"].size(), 2u);
    // Exactly the knobs fig8 reads: it routes one seed, so no "seeds".
    EXPECT_EQ(parameterKeys(artifact), declaredKeys("fig8"));
    EXPECT_EQ(parameterKeys(artifact),
              (std::vector<std::string>{"layoutTrials", "swapTrials",
                                        "forwardBackwardPasses",
                                        "threads"}));

    std::string csv = readFile(dir + "/fig8.csv");
    EXPECT_NE(csv.find("flow,depthPulses"), std::string::npos);
    EXPECT_NE(csv.find("MIRAGE"), std::string::npos);

    auto report = runCli({"report", dir + "/fig8.json"});
    ASSERT_EQ(report.code, cli::kExitSuccess) << report.err;
    EXPECT_NE(report.out.find("| flow |"), std::string::npos);
    EXPECT_NE(report.out.find("MIRAGE"), std::string::npos);
}

TEST(CliSweep, StdoutModeEmitsArtifactJson)
{
    auto r = runCli({"sweep", "--experiment", "fig8", "--stdout"});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    json::Value artifact = json::parse(r.out);
    std::string schemaError;
    EXPECT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
}

TEST(CliSweep, MirrorQvSweepVerifiesBitstringsAboveSixQubits)
{
    // --limit 1 keeps this to the smallest width (8 qubits) -- already
    // strictly past the 6-qubit exhaustive-unitary ceiling.
    auto r = runCli({"sweep", "--experiment", "mirror-qv", "--limit", "1",
                     "--stdout"});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    json::Value artifact = json::parse(r.out);
    std::string schemaError;
    ASSERT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
    EXPECT_EQ(artifact["experiment"].asString(), "mirror-qv");
    ASSERT_EQ(artifact["rows"].size(), 1u);
    const json::Value &row = artifact["rows"].at(0);
    EXPECT_GT(row["qubits"].asInt(), 6);
    EXPECT_TRUE(row["verified"].asBool());
    EXPECT_GE(row["routedSuccess"].asNumber(), 1.0 - 1e-9);
    EXPECT_TRUE(artifact["summary"]["allVerified"].asBool());
}

TEST(CliSweep, MatrixSweepCoversTopologiesAndAggressions)
{
    // --limit 2 restricts the suite to the two mirror workloads (they
    // lead the suite precisely so the smoke slice self-verifies):
    // 2 workloads x 3 topologies x 4 aggression levels = 24 cells.
    auto r = runCli({"sweep", "--experiment", "matrix", "--limit", "2",
                     "--stdout"});
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;
    json::Value artifact = json::parse(r.out);
    std::string schemaError;
    ASSERT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
    ASSERT_EQ(artifact["rows"].size(), 24u);
    EXPECT_EQ(artifact["summary"]["mirrorCells"].asInt(), 24);
    EXPECT_TRUE(artifact["summary"]["allMirrorCellsVerified"].asBool());

    // Every topology and aggression level appears.
    std::set<std::string> topologies;
    std::set<int64_t> aggressions;
    for (size_t i = 0; i < artifact["rows"].size(); ++i) {
        const json::Value &row = artifact["rows"].at(i);
        topologies.insert(row["topology"].asString());
        aggressions.insert(row["aggression"].asInt());
        EXPECT_TRUE(row["verified"].asBool())
            << row["circuit"].asString() << " on "
            << row["topology"].asString() << " aggression "
            << row["aggression"].asInt();
    }
    EXPECT_EQ(topologies.size(), 3u);
    EXPECT_EQ(aggressions, (std::set<int64_t>{0, 1, 2, 3}));
}

// --- sweep --check ----------------------------------------------------------

namespace {

/** Tiny-knob `bench` sweep into `dir` (writes dir/bench.json). */
std::vector<std::string>
benchArgs(const std::string &dir)
{
    return {"sweep", "--experiment", "bench", "--limit", "2",
            "--trials", "2", "--swap-trials", "1", "--fwd-bwd", "1",
            "--out", dir};
}

/** `text` with its first heuristicEvals lowered by one. */
std::string
withFirstEvalsLowered(const std::string &text)
{
    const std::string key = "\"heuristicEvals\": ";
    size_t start = text.find(key);
    EXPECT_NE(start, std::string::npos);
    start += key.size();
    size_t end = text.find_first_of(",\n", start);
    long long evals = std::stoll(text.substr(start, end - start));
    return text.substr(0, start) + std::to_string(evals - 1) +
           text.substr(end);
}

} // namespace

TEST(CliBench, WritesValidArtifactAndSelfCheckPasses)
{
    const std::string dir = tempPath("bench_self");
    auto r = runCli(benchArgs(dir));
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;

    const std::string path = dir + "/bench.json";
    json::Value artifact = json::parse(readFile(path));
    std::string schemaError;
    EXPECT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
    EXPECT_EQ(artifact["experiment"].asString(), "bench");
    ASSERT_EQ(artifact["rows"].size(), 2u);
    EXPECT_GT(artifact["rows"].at(0)["heuristicEvals"].asInt(), 0);
    EXPECT_TRUE(artifact["summary"]["outputsBitIdentical"].asBool());

    // Re-running against the just-written baseline must pass: the
    // counters are deterministic.
    auto args = benchArgs(tempPath("bench_self2"));
    args.push_back("--check");
    args.push_back(path);
    auto check = runCli(args);
    EXPECT_EQ(check.code, cli::kExitSuccess) << check.err;
    EXPECT_NE(check.out.find("check OK"), std::string::npos);
}

TEST(CliBench, CheckFailsOnCounterRegression)
{
    const std::string dir = tempPath("bench_base");
    auto r = runCli(benchArgs(dir));
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;

    // Doctor the baseline so the current run looks like a regression.
    const std::string doctored = tempPath("bench_doctored.json");
    writeFile(doctored,
              withFirstEvalsLowered(readFile(dir + "/bench.json")));

    auto args = benchArgs(tempPath("bench_cur"));
    args.push_back("--check");
    args.push_back(doctored);
    auto check = runCli(args);
    EXPECT_EQ(check.code, cli::kExitFailure);
    EXPECT_NE(check.out.find("heuristicEvals regressed"), std::string::npos)
        << check.out;
    EXPECT_NE(check.err.find("counter check"), std::string::npos)
        << check.err;
}

TEST(CliBench, CheckRejectsMismatchedParameters)
{
    const std::string dir = tempPath("bench_params");
    auto r = runCli(benchArgs(dir));
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;

    auto args = benchArgs(tempPath("bench_params2"));
    args[6] = "1"; // --trials 2 -> 1
    args.push_back("--check");
    args.push_back(dir + "/bench.json");
    auto check = runCli(args);
    EXPECT_EQ(check.code, cli::kExitFailure);
    EXPECT_NE(check.out.find("parameter 'layoutTrials' differs"),
              std::string::npos)
        << check.out;
}

TEST(CliBench, CheckNamesEachDifferingWorkloadKnob)
{
    const cli::Experiment &bench = *cli::findExperiment("bench");
    cli::SweepKnobs knobs;
    knobs.suiteLimit = 1;
    knobs.layoutTrials = 2;
    knobs.swapTrials = 1;
    knobs.fwdBwd = 1;
    const json::Value current = cli::runExperiment(bench, knobs);
    std::string report;
    ASSERT_TRUE(cli::checkBenchCounters(bench, current, current, &report))
        << report;

    // Each declared workload knob, and the circuit count, must match.
    std::vector<std::string> workload;
    for (const cli::KnobSpec &s : cli::knobSpecs())
        if (s.workload && bench.declared(s.knob))
            workload.push_back(s.parameter);
    EXPECT_EQ(workload, (std::vector<std::string>{
                            "layoutTrials", "swapTrials",
                            "forwardBackwardPasses"}));
    workload.push_back("circuits");
    for (const std::string &key : workload) {
        json::Value baseline = current;
        json::Value params = baseline["parameters"];
        params.set(key, params[key].asInt() + 1);
        baseline.set("parameters", params);
        report.clear();
        EXPECT_FALSE(
            cli::checkBenchCounters(bench, current, baseline, &report));
        EXPECT_NE(report.find("parameter '" + key + "' differs"),
                  std::string::npos)
            << report;
    }

    // Keys bench does not read are not compared (an old baseline's
    // "seeds" and "threads").
    json::Value baseline = current;
    json::Value params = baseline["parameters"];
    params.set("seeds", 7);
    params.set("threads", 7);
    baseline.set("parameters", params);
    EXPECT_TRUE(cli::checkBenchCounters(bench, current, baseline, &report))
        << report;
}

TEST(CliBench, CheckReadsBaselineBeforeOverwritingIt)
{
    // When the baseline is the file the sweep writes, the gate must
    // read it before writing the fresh artifact -- otherwise it
    // compares the new file to itself and always passes.
    const std::string dir = tempPath("bench_inplace");
    auto r = runCli(benchArgs(dir));
    ASSERT_EQ(r.code, cli::kExitSuccess) << r.err;

    // Plant a regression in the baseline, then check IN PLACE.
    const std::string path = dir + "/bench.json";
    writeFile(path, withFirstEvalsLowered(readFile(path)));

    auto args = benchArgs(dir);
    args.push_back("--check");
    args.push_back(path);
    auto check = runCli(args);
    EXPECT_EQ(check.code, cli::kExitFailure) << check.out;
    EXPECT_NE(check.out.find("regressed"), std::string::npos) << check.out;
}

TEST(CliBench, RejectsBadLimit)
{
    auto r = runCli({"sweep", "--experiment", "bench", "--limit", "0"});
    EXPECT_EQ(r.code, cli::kExitUsage);
}

TEST(CliSweep, CheckNeedsACounterGatedExperiment)
{
    // fig6 gates no counters, so --check is a usage error, raised
    // before the experiment runs or the baseline is opened.
    auto r = runCli({"sweep", "--experiment", "fig6", "--check",
                     tempPath("no-such-baseline.json")});
    EXPECT_EQ(r.code, cli::kExitUsage);
    EXPECT_NE(r.err.find("counter-gated"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("bench-lowering"), std::string::npos) << r.err;
}

TEST(ExperimentRegistry, InvariantCheckNamesFalseFlags)
{
    const cli::Experiment &rb = *cli::findExperiment("mirror-rb");
    json::Value artifact = json::parse(
        readFile(MIRAGE_TEST_DATA_DIR "/../VERIFY_mirror_rb.json"));
    std::string report;
    EXPECT_TRUE(cli::checkInvariants(rb, artifact, &report)) << report;

    // Doctor the committed artifact's summary to allVerified: false.
    json::Value summary = artifact["summary"];
    summary.set("allVerified", false);
    artifact.set("summary", summary);
    EXPECT_FALSE(cli::checkInvariants(rb, artifact, &report));
    EXPECT_NE(report.find("'allVerified' is false, must be true\n"),
              std::string::npos)
        << report;
}

TEST(CliReport, RejectsMalformedJsonWithPosition)
{
    std::string path = tempPath("garbage.json");
    writeFile(path, "{\n  not json\n");
    auto r = runCli({"report", path});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find(path + ":2:"), std::string::npos) << r.err;

    // The --check baselines go through the same reader, before any
    // work runs, and every reader names the position exactly once.
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"report", path},
          {"sweep", "--experiment", "bench", "--check", path},
          {"serve-bench", "--check", path}}) {
        auto c = runCli(args);
        EXPECT_EQ(c.code, cli::kExitFailure) << args[0];
        EXPECT_EQ(c.err.rfind("mirage: " + path + ":2:3: ", 0), 0u)
            << c.err;
        EXPECT_EQ(c.err.find("2:3: 2:3:"), std::string::npos) << c.err;
    }
}

TEST(CliReport, RejectsSchemaVersionDrift)
{
    json::Value artifact =
        cli::runExperiment(*cli::findExperiment("table1"), {});
    artifact.set("schemaVersion", 99);
    std::string path = tempPath("drift.json");
    writeFile(path, artifact.dump(2));
    auto r = runCli({"report", path});
    EXPECT_EQ(r.code, cli::kExitFailure);
    EXPECT_NE(r.err.find("schemaVersion"), std::string::npos);
}

TEST(CliReport, RejectsMissingRequiredKeys)
{
    json::Value artifact =
        cli::runExperiment(*cli::findExperiment("table1"), {});
    std::string schemaError;
    ASSERT_TRUE(cli::validateArtifact(artifact, &schemaError));

    json::Value noRows = json::Value::object();
    for (const auto &[k, v] : artifact.members()) {
        if (k != "rows")
            noRows.set(k, v);
    }
    EXPECT_FALSE(cli::validateArtifact(noRows, &schemaError));
    EXPECT_NE(schemaError.find("rows"), std::string::npos);

    EXPECT_FALSE(cli::validateArtifact(json::Value(3.0), &schemaError));

    // Every key the renderers dereference must be validated up front:
    // report has to exit 1 on these, never crash (regression).
    json::Value noPaperArtifact = json::Value::object();
    for (const auto &[k, v] : artifact.members()) {
        if (k != "paperArtifact")
            noPaperArtifact.set(k, v);
    }
    EXPECT_FALSE(cli::validateArtifact(noPaperArtifact, &schemaError));
    std::string path = tempPath("no-paper-artifact.json");
    writeFile(path, noPaperArtifact.dump(2));
    auto r = runCli({"report", path});
    EXPECT_EQ(r.code, cli::kExitFailure);

    json::Value badColumn = artifact;
    json::Value cols = json::Value::array();
    json::Value numericKey = json::Value::object();
    numericKey.set("key", 7);
    numericKey.set("label", "seven");
    cols.push(std::move(numericKey));
    badColumn.set("columns", std::move(cols));
    EXPECT_FALSE(cli::validateArtifact(badColumn, &schemaError));
    EXPECT_NE(schemaError.find("key/label"), std::string::npos);
}

// --- experiment registry ----------------------------------------------------

TEST(ExperimentRegistry, CoversTheReproduciblePaperArtifacts)
{
    for (const char *name :
         {"fig3-4", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11",
          "fig12", "fig13", "table1", "table2", "table3", "fig12-large"})
        EXPECT_NE(cli::findExperiment(name), nullptr) << name;
    EXPECT_EQ(cli::findExperiment("fig7"), nullptr);
}

TEST(ExperimentRegistry, Fig6AndFig9ReproduceThePaperShapes)
{
    std::string schemaError;

    // Fig. 6: every fractional CPHASE (phi = i*pi/8, i < 8) costs k=2
    // and mirrors into a k=3 pSWAP; CNOT (phi = pi) and its iSWAP
    // mirror both cost k=2.
    json::Value fig6 =
        cli::runExperiment(*cli::findExperiment("fig6"), {});
    ASSERT_TRUE(cli::validateArtifact(fig6, &schemaError)) << schemaError;
    EXPECT_EQ(parameterKeys(fig6), declaredKeys("fig6"));
    EXPECT_TRUE(parameterKeys(fig6).empty());
    const json::Value &rows6 = fig6["rows"];
    ASSERT_EQ(rows6.size(), 8u);
    for (size_t i = 0; i < rows6.size(); ++i) {
        const json::Value &row = rows6.at(i);
        EXPECT_DOUBLE_EQ(row["phiOverPi"].asNumber(), double(i + 1) / 8.0);
        EXPECT_EQ(row["cpK"].asInt(), 2) << i;
        EXPECT_DOUBLE_EQ(row["cpCost"].asNumber(), 1.0) << i;
        EXPECT_EQ(row["pswapK"].asInt(), i + 1 < 8 ? 3 : 2) << i;
        EXPECT_DOUBLE_EQ(row["pswapCost"].asNumber(),
                         i + 1 < 8 ? 1.5 : 1.0)
            << i;
    }
    EXPECT_EQ(rows6.at(7)["cpCoords"].asString(),
              "(1.000000, 0.000000, 0.000000)pi/4");
    EXPECT_EQ(rows6.at(7)["pswapCoords"].asString(),
              "(1.000000, 1.000000, 0.000000)pi/4");

    // Fig. 9: 64 routing passes from one layout land in three minima,
    // 10 / 19 / 21 pulses hit by 32 / 15 / 17 trials.
    json::Value fig9 =
        cli::runExperiment(*cli::findExperiment("fig9"), {});
    ASSERT_TRUE(cli::validateArtifact(fig9, &schemaError)) << schemaError;
    EXPECT_EQ(fig9["parameters"]["layoutTrials"].asInt(), 64);
    EXPECT_EQ(parameterKeys(fig9), declaredKeys("fig9"));
    EXPECT_EQ(parameterKeys(fig9), std::vector<std::string>{"layoutTrials"});
    const json::Value &rows9 = fig9["rows"];
    ASSERT_EQ(rows9.size(), 3u);
    const int pulses[] = {10, 19, 21}, trials[] = {32, 15, 17};
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(rows9.at(i)["depthPulses"].asInt(), pulses[i]) << i;
        EXPECT_EQ(rows9.at(i)["trials"].asInt(), trials[i]) << i;
    }
    EXPECT_EQ(fig9["summary"]["bestPulses"].asInt(), 10);
    EXPECT_EQ(fig9["summary"]["worstPulses"].asInt(), 21);
    EXPECT_NE(cli::renderMarkdown(fig9).find("| 10 | 32 |"),
              std::string::npos);
}

TEST(ExperimentRegistry, Fig10To12ArmGridsFillEveryColumn)
{
    cli::SweepKnobs knobs;
    knobs.seeds = knobs.layoutTrials = knobs.swapTrials = knobs.fwdBwd = 1;
    std::map<std::string, json::Value> artifacts;
    for (const auto &[name, rows] :
         {std::pair{"fig10", 4u}, std::pair{"fig11", 13u},
          std::pair{"fig12", 26u}}) {
        json::Value &a = artifacts[name] =
            cli::runExperiment(*cli::findExperiment(name), knobs);
        std::string schemaError;
        ASSERT_TRUE(cli::validateArtifact(a, &schemaError)) << schemaError;
        ASSERT_EQ(a["rows"].size(), rows) << name;
        const json::Value &columns = a["columns"];
        for (size_t r = 0; r < a["rows"].size(); ++r)
            for (size_t c = 0; c < columns.size(); ++c)
                EXPECT_TRUE(a["rows"].at(r).contains(
                    columns.at(c)["key"].asString()))
                    << name << " row " << r << " column " << c;
    }

    const json::Value &fig11 = artifacts["fig11"]["summary"];
    for (const char *key :
         {"avgDepthReductionSwapSel", "avgDepthReductionDepthSel",
          "avgExtraFromDepthSel", "avgTotalPulseChange"})
        EXPECT_TRUE(fig11.contains(key)) << key;
    EXPECT_NEAR(fig11["avgExtraFromDepthSel"].asNumber(),
                fig11["avgDepthReductionDepthSel"].asNumber() -
                    fig11["avgDepthReductionSwapSel"].asNumber(),
                1e-9);

    const json::Value &fig12 = artifacts["fig12"]["summary"];
    for (const char *topology : {"heavyhex-57", "grid-6x6"}) {
        ASSERT_TRUE(fig12.contains(topology)) << topology;
        for (const char *key :
             {"avgDepthReduction", "avgPulseReduction", "avgSwapReduction",
              "weightedDepthReduction", "weightedPulseReduction",
              "weightedSwapReduction"})
            EXPECT_TRUE(fig12[topology].contains(key))
                << topology << " " << key;
    }
}

TEST(ExperimentRegistry, Fig12LargeGatesSparseMemoryAndCounters)
{
    // One circuit per device keeps this to CI-test territory; the
    // artifact must be schema-valid and its own counter gate must
    // accept it (checkBenchCounters is what `sweep --check` runs).
    cli::SweepKnobs knobs;
    knobs.suiteLimit = 1;
    json::Value artifact =
        cli::runExperiment(*cli::findExperiment("fig12-large"), knobs);
    std::string schemaError;
    ASSERT_TRUE(cli::validateArtifact(artifact, &schemaError))
        << schemaError;
    EXPECT_EQ(artifact["rows"].size(), 3u); // one per device
    std::string report;
    EXPECT_TRUE(cli::checkBenchCounters(
        *cli::findExperiment("fig12-large"), artifact, artifact, &report))
        << report;
}

TEST(CliTranspile, RoutesOnLargeSparseTopology)
{
    // End-to-end CLI on a 433-qubit device: route a small QASM
    // circuit and check the reported topology block.
    std::string path = tempPath("ghz5.qasm");
    writeFile(path, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\n"
                    "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
                    "cx q[2],q[3];\ncx q[3],q[4];\n");
    auto r = runCli({"transpile", path, "--topology", "heavyhex433",
                     "--trials", "1", "--swap-trials", "1", "--fwd-bwd",
                     "1", "--output", "-"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("\"heavyhex-433\""), std::string::npos);
    EXPECT_NE(r.out.find("\"qubits\": 433"), std::string::npos);
}

TEST(ExperimentRegistry, Table1MatchesPaperScores)
{
    json::Value artifact =
        cli::runExperiment(*cli::findExperiment("table1"), {});
    ASSERT_EQ(artifact["rows"].size(), 3u);
    // sqrt(iSWAP) exact Haar scores: paper Table I reports 1.105 plain
    // and 1.029 with mirrors.
    const json::Value &row = artifact["rows"].at(0);
    EXPECT_NEAR(row["haar"].asNumber(), 1.105, 0.02);
    EXPECT_NEAR(row["mirrorHaar"].asNumber(), 1.029, 0.02);
}
