/**
 * @file
 * The paper-reproduction experiment registry behind `mirage sweep`
 * and `mirage catalog`.
 *
 * Every reproducible figure/table of the paper (Figs. 3-6 and 8-13,
 * Tables I-III) is one named Experiment whose run() returns a
 * machine-readable JSON artifact: a versioned envelope (schemaVersion,
 * kind, experiment, title, paperRef) around the knobs it declares, a
 * typed column list, data rows, and a summary. The CLI writes the
 * artifact to disk for CI archival/diffing and `mirage report` renders
 * it as a markdown table, so each figure is reproduced in exactly one
 * place.
 */

#ifndef MIRAGE_CLI_EXPERIMENTS_HH
#define MIRAGE_CLI_EXPERIMENTS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"

namespace mirage::decomp {
class EquivalenceLibrary;
}

namespace mirage::cli {

/** Version stamped into every artifact; bump on breaking layout. */
inline constexpr int kArtifactSchemaVersion = 1;
/** The `kind` tag of sweep artifacts. */
inline constexpr const char *kSweepArtifactKind = "mirage-sweep";

/** The `mirage sweep` knobs an experiment may read. */
enum class Knob { Seeds, Trials, SwapTrials, FwdBwd, Threads, McIters,
                  Limit, Cache, Catalog };

/** Sweep knob values; -1 (or "") means "not set". */
struct SweepKnobs
{
    int seeds = -1;         ///< independent instances averaged
    int layoutTrials = -1;  ///< SABRE/MIRAGE layout trials
    int swapTrials = -1;    ///< routing repeats per layout
    int fwdBwd = -1;        ///< layout refinement rounds
    int threads = -1;       ///< trial-grid fan-out (0 = all cores)
    int mcIterations = -1;  ///< Monte-Carlo iterations
    int suiteLimit = -1;    ///< first N suite entries / widths (-1 = all)
    std::string cacheDir;   ///< equivalence-library cache dir ("" = off)
    /** Fit catalog: "" auto-discovers (decomp::loadLibrary), "none" off. */
    std::string catalogPath;
};

/** One sweep knob: its flag, its artifact key and its SweepKnobs slot. */
struct KnobSpec
{
    Knob knob;
    const char *flag;      ///< `mirage sweep` flag
    const char *valueName; ///< the flag's --help placeholder
    const char *help;      ///< the flag's --help text
    /** `parameters` key; nullptr: --limit/--catalog show elsewhere. */
    const char *parameter;
    bool workload; ///< `sweep --check` needs it to match the baseline
    int SweepKnobs::*number;                 ///< integer slot, or nullptr
    std::string SweepKnobs::*text = nullptr; ///< string slot, or nullptr
};

/** Every sweep knob, in `parameters` key order. */
const std::vector<KnobSpec> &knobSpecs();

/** A knob an experiment reads, with its default (-1 / "" if unset). */
struct KnobDefault
{
    Knob knob;
    int value = -1;
};

/** One registered experiment. */
struct Experiment
{
    std::string name;     ///< registry key, e.g. "table3"
    std::string artifact; ///< paper artifact, e.g. "Table III"
    std::string title;    ///< human title for reports
    std::string paperRef; ///< the paper's reference numbers
    /**
     * Runs on resolved knobs; returns columns/rows/summary and appends
     * the keys it computes (circuits, widths...) to `parameters`.
     */
    std::function<json::Value(const SweepKnobs &, json::Value &parameters)>
        run;
    /** The knobs run() reads; any other is a usage error. */
    std::vector<KnobDefault> knobs = {};
    /**
     * Row counters that may not rise against a baseline artifact
     * (`sweep --check`); rows are matched by their "name" key. Empty:
     * the experiment has no counter gate.
     */
    std::vector<std::string> gatedCounters = {};
    /** Summary booleans that must be true in every artifact. */
    std::vector<std::string> invariants = {};

    /** The declaration of `k`; nullptr when run() does not read it. */
    const KnobDefault *declared(Knob k) const
    {
        for (const KnobDefault &d : knobs)
            if (d.knob == k)
                return &d;
        return nullptr;
    }
};

/** All registered experiments, in paper order. */
const std::vector<Experiment> &experimentRegistry();

/**
 * Fit the full catalog target set -- every decomposition the table3,
 * mirror-rb and mirror-qv entries lower at their declared defaults,
 * plus the standard preseed gates -- into one
 * equivalence library, cold (no catalog/cache load). saveCache of the
 * result IS the FIT_CATALOG.bin artifact; the build is deterministic,
 * so `mirage catalog check` can compare bytes against the committed
 * file.
 */
std::unique_ptr<decomp::EquivalenceLibrary>
buildCatalogLibrary(int threads);

/** Lookup by name; nullptr when unknown. */
const Experiment *findExperiment(const std::string &name);

/**
 * Each knob e declares at the user's value or e's default, the rest
 * unset; the declared values also go to *parameters. A set knob e does
 * not declare throws UsageError naming it, e and e's knobs.
 */
SweepKnobs resolveKnobs(const Experiment &e, const SweepKnobs &user,
                        json::Value *parameters = nullptr);

/**
 * Run e on resolveKnobs(e, user) and wrap its result in the versioned
 * artifact envelope (schemaVersion/kind/experiment/title/paperRef +
 * parameters + payload).
 */
json::Value runExperiment(const Experiment &e, const SweepKnobs &user);

/**
 * Check an artifact against the schema `mirage report` and CI rely on:
 * schemaVersion == kArtifactSchemaVersion, kind == "mirage-sweep", and
 * the required keys (experiment/title/parameters/columns/rows) with
 * well-formed columns ({key,label} objects) and object rows. On
 * failure returns false and sets *error.
 */
bool validateArtifact(const json::Value &artifact, std::string *error);

/**
 * Perf-trajectory gate for `mirage sweep --check`: compare a freshly
 * produced artifact of `e` against a checked-in baseline. Fails (and
 * explains in *report) when a declared workload knob or `circuits`
 * differs, a baseline row is missing, or one of e.gatedCounters rose --
 * wall times are never compared, so the check is noise-free and runs
 * on any machine.
 */
bool checkBenchCounters(const Experiment &e, const json::Value &current,
                        const json::Value &baseline, std::string *report);

/**
 * Check that every one of e.invariants is `true` in the artifact's
 * summary. On failure names each false or missing flag in *report.
 */
bool checkInvariants(const Experiment &e, const json::Value &artifact,
                     std::string *report);

/** Render an artifact as a GitHub-markdown section (table + summary). */
std::string renderMarkdown(const json::Value &artifact);

/** Render an artifact's rows as CSV (header = column keys). */
std::string renderCsv(const json::Value &artifact);

} // namespace mirage::cli

#endif // MIRAGE_CLI_EXPERIMENTS_HH
