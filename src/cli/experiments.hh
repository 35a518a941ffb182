/**
 * @file
 * The paper-reproduction experiment registry behind `mirage sweep`
 * and `mirage catalog`.
 *
 * Every reproducible figure/table of the paper (Figs. 3-6 and 8-13,
 * Tables I-III) is one named Experiment whose run() returns a
 * machine-readable JSON artifact: a versioned envelope (schemaVersion,
 * kind, experiment, title, paperRef) around resolved parameters, a
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

/**
 * User-tunable sweep knobs. -1 (or "" for cacheDir) means "use the
 * experiment's own default"; the resolved values are recorded in the
 * artifact's `parameters` object.
 */
struct SweepKnobs
{
    int seeds = -1;         ///< independent instances averaged
    int layoutTrials = -1;  ///< SABRE/MIRAGE layout trials
    int swapTrials = -1;    ///< routing repeats per layout
    int fwdBwd = -1;        ///< layout refinement rounds
    int threads = 1;        ///< trial-grid fan-out (0 = all cores)
    int mcIterations = -1;  ///< Monte-Carlo iterations (fig5, table2)
    int suiteLimit = -1;    ///< first N Table III circuits (-1 = all)
    std::string cacheDir;   ///< equivalence-library cache dir ("" = off)
    /**
     * Committed fit catalog: "" auto-discovers ($MIRAGE_FIT_CATALOG,
     * then ./FIT_CATALOG.bin), "none" disables, anything else is an
     * explicit path. Lowering experiments (table3, mirror-*,
     * bench-lowering) warm-start their equivalence library from it.
     */
    std::string catalogPath;
};

/** One registered experiment. */
struct Experiment
{
    std::string name;     ///< registry key, e.g. "table3"
    std::string artifact; ///< paper artifact, e.g. "Table III"
    std::string title;    ///< human title for reports
    std::string paperRef; ///< the paper's reference numbers
    /** Runs the experiment; returns columns/rows/summary/parameters. */
    std::function<json::Value(const SweepKnobs &)> run;
    /**
     * Row counters that may not rise against a baseline artifact
     * (`sweep --check`); rows are matched by their "name" key. Empty:
     * the experiment has no counter gate.
     */
    std::vector<std::string> gatedCounters = {};
    /** Summary booleans that must be true in every artifact. */
    std::vector<std::string> invariants = {};
};

/** All registered experiments, in paper order. */
const std::vector<Experiment> &experimentRegistry();

/**
 * Fit the full catalog target set -- every decomposition the Table III
 * sweep (exact table3 config) and the mirror-rb/mirror-qv
 * families need, plus the standard preseed gates -- into one
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
 * Run an experiment and wrap its result in the versioned artifact
 * envelope (schemaVersion/kind/experiment/title/paperRef + payload).
 */
json::Value runExperiment(const Experiment &e, const SweepKnobs &knobs);

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
 * explains in *report) when the run parameters differ, a baseline row
 * is missing, or one of e.gatedCounters rose -- wall times are never
 * compared, so the check is noise-free and runs on any machine.
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
