/**
 * @file
 * The committed fit catalog and the one equivalence-library loader.
 *
 * FIT_CATALOG.bin at the repository root is an EquivalenceLibrary cache
 * (saveCache format, hexfloat text) holding every decomposition the
 * Table III + mirror-workload target set needs, so a fresh clone lowers
 * warm out of the box -- zero new fits, bit-identical output. The
 * artifact is regenerated by `mirage catalog build` and CI fails on any
 * byte drift (`mirage catalog check`), which is what makes committing
 * numerical fits safe: the file is a pure function of the target set
 * and the (deterministic, FMA-free) fit pipeline.
 *
 * loadLibrary() is how every lowering front end (`mirage transpile`,
 * the serve engine, the sweep registry) gets its library: catalog
 * first, for the root it was built for, then the preseeded fallback,
 * then the --cache directory file. Building the catalog's target set
 * lives in cli/experiments.cc (it needs the benchmark circuits).
 */

#ifndef MIRAGE_DECOMP_CATALOG_HH
#define MIRAGE_DECOMP_CATALOG_HH

#include <memory>
#include <string>

#include "decomp/equivalence.hh"

namespace mirage::decomp {

/** File name of the committed catalog at the repository root. */
inline constexpr const char *kCatalogFileName = "FIT_CATALOG.bin";

/** Knob/env value that explicitly disables catalog loading. */
inline constexpr const char *kCatalogDisabled = "none";

/** The basis root (sqrt(iSWAP)) the catalog's fits are for. */
inline constexpr int kCatalogRootDegree = 2;

/**
 * Resolve the catalog path from a user knob:
 *  - knob == "none"          -> "" (disabled)
 *  - knob nonempty           -> knob verbatim (even if missing, so a
 *                               typo surfaces as Unreadable, not a
 *                               silent cold start)
 *  - knob empty (auto)       -> $MIRAGE_FIT_CATALOG if set (its value
 *                               may also be "none"), else
 *                               ./FIT_CATALOG.bin when that file
 *                               exists, else "" (cold start).
 */
std::string resolveCatalogPath(const std::string &knob = "");

/** How loadLibrary() used the catalog. */
struct CatalogLoad
{
    /** Resolved path tried; "" when none applied (disabled, not found,
     * or a root other than kCatalogRootDegree). */
    std::string path;
    /** Outcome of loading `path` (Ok when none was tried). */
    EquivalenceLibrary::CacheLoadResult result;

    bool
    loaded() const
    {
        return !path.empty() &&
               result.status == EquivalenceLibrary::CacheLoadStatus::Ok;
    }
};

/** "ok" / "unreadable" / "malformed", for logs and stats. */
const char *cacheLoadStatusName(EquivalenceLibrary::CacheLoadStatus status);

/**
 * Set up the equivalence library for `root_degree`:
 *  1. resolve `catalog_knob` (resolveCatalogPath) and, for
 *     kCatalogRootDegree only, load the catalog into a bare library --
 *     it already holds the preseed gates;
 *  2. if no catalog loaded, build a preseeded library instead, or
 *     return null when `preseed_fallback` is false;
 *  3. merge `cache_dir`'s libraryCacheFile() when a directory is set.
 * `catalog` (optional) receives the catalog outcome; a failed load is
 * reported there, never thrown.
 */
std::unique_ptr<EquivalenceLibrary>
loadLibrary(int root_degree, const std::string &catalog_knob,
            const std::string &cache_dir, CatalogLoad *catalog = nullptr,
            bool preseed_fallback = true);

/** The --cache directory file of a root's library. */
std::string libraryCacheFile(const std::string &cache_dir, int root_degree);

/**
 * Persist `library` to its libraryCacheFile() (creating the directory).
 * No-op returning true when `cache_dir` is empty; false when the file
 * cannot be written.
 */
bool saveLibraryCache(const EquivalenceLibrary &library,
                      const std::string &cache_dir);

} // namespace mirage::decomp

#endif // MIRAGE_DECOMP_CATALOG_HH
