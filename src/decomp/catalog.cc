/**
 * @file
 * Catalog path resolution and the equivalence-library loader (see
 * catalog.hh for the contracts).
 */

#include "decomp/catalog.hh"

#include <cstdlib>
#include <filesystem>

namespace mirage::decomp {

std::string
resolveCatalogPath(const std::string &knob)
{
    if (knob == kCatalogDisabled)
        return "";
    if (!knob.empty())
        return knob;
    if (const char *env = std::getenv("MIRAGE_FIT_CATALOG")) {
        if (std::string(env) == kCatalogDisabled)
            return "";
        if (env[0] != '\0')
            return env;
    }
    std::error_code ec;
    if (std::filesystem::exists(kCatalogFileName, ec))
        return kCatalogFileName;
    return "";
}

const char *
cacheLoadStatusName(EquivalenceLibrary::CacheLoadStatus status)
{
    switch (status) {
      case EquivalenceLibrary::CacheLoadStatus::Ok: return "ok";
      case EquivalenceLibrary::CacheLoadStatus::Unreadable:
        return "unreadable";
      case EquivalenceLibrary::CacheLoadStatus::Malformed: return "malformed";
    }
    return "?";
}

std::unique_ptr<EquivalenceLibrary>
loadLibrary(int root_degree, const std::string &catalog_knob,
            const std::string &cache_dir, CatalogLoad *catalog,
            bool preseed_fallback)
{
    CatalogLoad load;
    if (root_degree == kCatalogRootDegree)
        load.path = resolveCatalogPath(catalog_knob);
    std::unique_ptr<EquivalenceLibrary> lib;
    if (!load.path.empty()) {
        lib = std::make_unique<EquivalenceLibrary>(root_degree,
                                                   /*preseed=*/false);
        load.result = lib->loadCacheFileDetailed(load.path);
        if (!load.loaded())
            lib.reset();
    }
    if (catalog)
        *catalog = load;
    if (!lib) {
        if (!preseed_fallback)
            return nullptr;
        lib = std::make_unique<EquivalenceLibrary>(root_degree);
    }
    if (!cache_dir.empty())
        lib->loadCacheFile(libraryCacheFile(cache_dir, root_degree));
    return lib;
}

std::string
libraryCacheFile(const std::string &cache_dir, int root_degree)
{
    return cache_dir + "/eqlib-root" + std::to_string(root_degree) +
           ".cache";
}

bool
saveLibraryCache(const EquivalenceLibrary &library,
                 const std::string &cache_dir)
{
    if (cache_dir.empty())
        return true;
    std::error_code ec;
    std::filesystem::create_directories(cache_dir, ec);
    return library.saveCacheFile(
        libraryCacheFile(cache_dir, library.rootDegree()));
}

} // namespace mirage::decomp
