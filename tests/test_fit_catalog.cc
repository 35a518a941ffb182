/**
 * @file
 * Fit-catalog persistence suite: the contracts that make committing
 * FIT_CATALOG.bin safe.
 *
 * 1. Round-trip byte identity: saveCache -> loadCache -> saveCache
 *    reproduces the exact bytes, so `mirage catalog check` can gate CI
 *    on a binary compare instead of a semantic diff.
 * 2. Warm lowering: a library loaded from a catalog translates the
 *    same circuit with newFits == 0, fitEvaluations == 0, and
 *    bit-identical lowered QASM versus the cold fit -- at threads 1
 *    and 4 (the catalog must not perturb the thread-invariance
 *    guarantee).
 * 3. Rejection: truncated, corrupted, version-bumped, wrong-basis, and
 *    unreadable catalogs are refused with a diagnostic, and the
 *    unreadable-vs-malformed split of loadCacheFileDetailed is pinned
 *    so `mirage catalog check` and serve startup can report which
 *    failure happened.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench_circuits/generators.hh"
#include "circuit/qasm.hh"
#include "decomp/equivalence.hh"
#include "mirage/pipeline.hh"
#include "topology/coupling.hh"

using namespace mirage;
using decomp::EquivalenceLibrary;
using Status = EquivalenceLibrary::CacheLoadStatus;

namespace {

/** The lowering config shared by every test in this file. */
mirage_pass::TranspileOptions
loweringOptions(int threads)
{
    mirage_pass::TranspileOptions opts;
    opts.rootDegree = 2;
    opts.flow = mirage_pass::Flow::MirageDepth;
    opts.tryVf2 = false;
    opts.lowerToBasis = true;
    opts.threads = threads;
    return opts;
}

/** A small input whose SU(4) blocks genuinely need numerical fits. */
const circuit::Circuit &
fixtureCircuit()
{
    static const circuit::Circuit c = bench::twoLocalFull(4);
    return c;
}

const topology::CouplingMap &
fixtureTopology()
{
    static const topology::CouplingMap topo =
        topology::CouplingMap::grid(2, 2);
    return topo;
}

/** Cold-fit the fixture once; every test reuses the same catalog. */
struct ColdFit
{
    std::string catalog;    ///< saveCache bytes of the cold library
    std::string loweredQasm;
    int newFits = 0;
};

const ColdFit &
coldFit()
{
    static const ColdFit fit = [] {
        EquivalenceLibrary lib(2);
        auto opts = loweringOptions(1);
        opts.equivalenceLibrary = &lib;
        auto res = mirage_pass::transpile(fixtureCircuit(),
                                          fixtureTopology(), opts);
        ColdFit f;
        std::ostringstream bytes;
        lib.saveCache(bytes);
        f.catalog = bytes.str();
        f.loweredQasm = circuit::toQasm(res.lowered);
        f.newFits = res.translateStats.newFits;
        return f;
    }();
    return fit;
}

/** Write `bytes` to a fresh file under the test temp dir. */
std::string
writeTempCatalog(const std::string &name, const std::string &bytes)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream f(path);
    EXPECT_TRUE(f.is_open()) << path;
    f << bytes;
    return path;
}

TEST(FitCatalog, SaveLoadSaveIsByteIdentical)
{
    const ColdFit &cold = coldFit();
    ASSERT_GT(cold.newFits, 0) << "fixture must exercise real fits";
    ASSERT_FALSE(cold.catalog.empty());

    EquivalenceLibrary loaded(2, /*preseed=*/false);
    std::istringstream in(cold.catalog);
    std::string error;
    ASSERT_TRUE(loaded.loadCache(in, &error)) << error;

    std::ostringstream again;
    loaded.saveCache(again);
    EXPECT_EQ(cold.catalog, again.str());
}

TEST(FitCatalog, WarmLoweringIsFitFreeAndBitIdentical)
{
    const ColdFit &cold = coldFit();
    for (int threads : {1, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        EquivalenceLibrary warm(2, /*preseed=*/false);
        std::istringstream in(cold.catalog);
        ASSERT_TRUE(warm.loadCache(in));

        auto opts = loweringOptions(threads);
        opts.equivalenceLibrary = &warm;
        auto res = mirage_pass::transpile(fixtureCircuit(),
                                          fixtureTopology(), opts);
        EXPECT_EQ(res.translateStats.newFits, 0);
        EXPECT_EQ(res.translateStats.fitEvaluations, 0u);
        EXPECT_EQ(circuit::toQasm(res.lowered), cold.loweredQasm);
    }
}

TEST(FitCatalog, TruncatedCatalogRejectedWithDiagnostic)
{
    const std::string &bytes = coldFit().catalog;
    // Cut mid-entry: parsing must fail without mutating the library.
    const std::string truncated = bytes.substr(0, bytes.size() * 3 / 5);
    EquivalenceLibrary lib(2, /*preseed=*/false);
    std::istringstream in(truncated);
    std::string error;
    EXPECT_FALSE(lib.loadCache(in, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(lib.cacheSize(), 0u)
        << "a rejected catalog must not leave partial entries behind";
}

TEST(FitCatalog, MissingEndMarkerRejected)
{
    std::string bytes = coldFit().catalog;
    const size_t end = bytes.rfind("end");
    ASSERT_NE(end, std::string::npos);
    bytes.resize(end);
    EquivalenceLibrary lib(2, /*preseed=*/false);
    std::istringstream in(bytes);
    std::string error;
    EXPECT_FALSE(lib.loadCache(in, &error));
    EXPECT_NE(error.find("missing end marker"), std::string::npos)
        << error;
}

TEST(FitCatalog, CorruptedEntryRejected)
{
    std::string bytes = coldFit().catalog;
    // Replace the first hexfloat with a non-numeric token.
    const size_t pos = bytes.find("0x");
    ASSERT_NE(pos, std::string::npos);
    bytes.replace(pos, 2, "!!");
    EquivalenceLibrary lib(2, /*preseed=*/false);
    std::istringstream in(bytes);
    std::string error;
    EXPECT_FALSE(lib.loadCache(in, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(lib.cacheSize(), 0u);
}

TEST(FitCatalog, VersionBumpRejected)
{
    std::string bytes = coldFit().catalog;
    const std::string magic = "mirage-eqlib 1";
    const size_t pos = bytes.find(magic);
    ASSERT_EQ(pos, 0u);
    bytes[magic.size() - 1] = '2';
    EquivalenceLibrary lib(2, /*preseed=*/false);
    std::istringstream in(bytes);
    std::string error;
    EXPECT_FALSE(lib.loadCache(in, &error));
    EXPECT_NE(error.find("unsupported cache format version 2"),
              std::string::npos)
        << error;
}

TEST(FitCatalog, BasisMismatchRejected)
{
    EquivalenceLibrary lib(3, /*preseed=*/false);
    std::istringstream in(coldFit().catalog);
    std::string error;
    EXPECT_FALSE(lib.loadCache(in, &error));
    EXPECT_NE(error.find("basis mismatch"), std::string::npos) << error;
}

TEST(FitCatalog, DetailedLoadSplitsUnreadableFromMalformed)
{
    EquivalenceLibrary lib(2, /*preseed=*/false);

    // Unreadable: the file does not exist.
    const std::string missing =
        ::testing::TempDir() + "no-such-catalog.bin";
    auto unreadable = lib.loadCacheFileDetailed(missing);
    EXPECT_EQ(unreadable.status, Status::Unreadable);
    EXPECT_NE(unreadable.message.find("cannot open"), std::string::npos)
        << unreadable.message;

    // Malformed: the file exists but is not a catalog.
    const std::string garbage =
        writeTempCatalog("garbage-catalog.bin", "not a catalog\n");
    auto malformed = lib.loadCacheFileDetailed(garbage);
    EXPECT_EQ(malformed.status, Status::Malformed);
    EXPECT_NE(malformed.message.find(garbage), std::string::npos)
        << "malformed diagnostic must name the file: "
        << malformed.message;
    EXPECT_NE(malformed.message.find("bad magic"), std::string::npos)
        << malformed.message;

    // A good file round-trips through the same API.
    const std::string good =
        writeTempCatalog("good-catalog.bin", coldFit().catalog);
    auto ok = lib.loadCacheFileDetailed(good);
    EXPECT_EQ(ok.status, Status::Ok);
    EXPECT_TRUE(ok.message.empty());
    EXPECT_EQ(ok.entriesLoaded, lib.cacheSize());
    EXPECT_GT(ok.entriesLoaded, 0u);
}

} // namespace
