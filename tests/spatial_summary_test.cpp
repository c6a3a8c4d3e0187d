// The lifetime spatial summary against the batch answers at every epoch:
// after each fold, the MRA counts must equal compute_mra_sorted over the
// lifetime set and every density row (folded or swept) must equal
// compute_density_table over a trie bulk-built from that set — every
// field, long doubles included.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "v6class/netgen/rng.h"
#include "v6class/spatial/summary.h"

namespace v6 {
namespace {

using namespace v6::literals;
using classes_t = std::vector<spatial_summary::density_class>;

// Folded classes: the edges n = 0, n = 1, p = 0 and p = 128 next to the
// paper's Table-3 shapes.
const classes_t kFolded = {{2, 112}, {8, 64}, {3, 48}, {1, 64}, {1, 0},
                           {5, 0},   {1, 128}, {2, 128}, {0, 64}};
// Answered by the sweep (not folded).
const classes_t kSwept = {{4, 120}, {2, 96}, {1, 0}, {1, 128}, {16, 112}};

void expect_matches_batch(const spatial_summary& summary,
                          const std::set<address>& lifetime,
                          const classes_t& folded = kFolded) {
    const std::vector<address> want(lifetime.begin(), lifetime.end());
    ASSERT_EQ(summary.addresses(), want);
    ASSERT_EQ(summary.size(), want.size());

    const mra_series want_mra = compute_mra_sorted(want);
    const mra_series got_mra = summary.mra();
    for (unsigned p = 0; p <= 128; ++p)
        EXPECT_EQ(got_mra.aggregate_count(p), want_mra.aggregate_count(p)) << "p=" << p;

    radix_tree tree;
    tree.bulk_build(want);
    for (const classes_t& classes : {folded, kSwept}) {
        const std::vector<density_row> want_rows = compute_density_table(tree, classes);
        const std::vector<density_row> got_rows = summary.density_table(classes);
        ASSERT_EQ(got_rows.size(), want_rows.size());
        for (std::size_t i = 0; i < want_rows.size(); ++i) {
            SCOPED_TRACE(std::to_string(classes[i].first) + "@/" +
                         std::to_string(classes[i].second));
            EXPECT_EQ(got_rows[i].n, want_rows[i].n);
            EXPECT_EQ(got_rows[i].p, want_rows[i].p);
            EXPECT_EQ(got_rows[i].dense_prefix_count, want_rows[i].dense_prefix_count);
            EXPECT_EQ(got_rows[i].covered_addresses, want_rows[i].covered_addresses);
            EXPECT_EQ(got_rows[i].possible_addresses, want_rows[i].possible_addresses);
            EXPECT_EQ(got_rows[i].address_density, want_rows[i].address_density);
        }
    }
}

/// Folds `day` (any order, may repeat lifetime addresses) the way the
/// stream engine does: only first sightings, sorted, split by address
/// hash into `parts` disjoint lists (one per shard).
void fold_day(spatial_summary& summary, std::set<address>& lifetime,
              const std::vector<address>& day, unsigned parts = 2) {
    std::set<address> fresh;
    for (const address& a : day)
        if (!lifetime.count(a)) fresh.insert(a);
    lifetime.insert(fresh.begin(), fresh.end());
    std::vector<std::vector<address>> lists(parts);
    for (const address& a : fresh) lists[address_hash{}(a) % parts].push_back(a);
    std::vector<const std::vector<address>*> ptrs;
    for (const auto& list : lists) ptrs.push_back(&list);
    summary.fold(ptrs);
}

TEST(SpatialSummaryTest, EmptySummaryMatchesEmptyBatch) {
    const spatial_summary summary(kFolded);
    expect_matches_batch(summary, {});
    EXPECT_EQ(summary.mra().aggregate_count(0), 0u);
}

TEST(SpatialSummaryTest, RandomDaysMatchBatchAtEveryEpoch) {
    // 4 /48 sites x 8 /64s x 16 /112 blocks, sparse low bits: dense and
    // sparse blocks at every class, with neighbours at many depths.
    rng r{20151028};
    const auto draw = [&] {
        const std::uint64_t hi =
            0x20010db800000000ull | (r.uniform(4) << 16) | r.uniform(8);
        const std::uint64_t lo = (r.uniform(16) << 16) | r.uniform(64);
        return address::from_pair(hi, lo);
    };
    for (const unsigned parts : {1u, 4u}) {
        SCOPED_TRACE("parts " + std::to_string(parts));
        spatial_summary summary(kFolded);
        std::set<address> lifetime;
        for (int day = 0; day < 40; ++day) {
            SCOPED_TRACE("day " + std::to_string(day));
            std::vector<address> active;
            // Every fifth day is empty; the others vary from a few to a
            // few hundred addresses, most of them repeats later on.
            const std::size_t n = day % 5 == 4 ? 0 : 1 + r.uniform(300);
            for (std::size_t i = 0; i < n; ++i) active.push_back(draw());
            fold_day(summary, lifetime, active, parts);
            expect_matches_batch(summary, lifetime);
        }
        EXPECT_GT(lifetime.size(), 1000u);
    }
}

// Blocks of thousands of run entries (16@64, 2@32, 4000@64): the block
// extents come from galloping out of the positions the fresh addresses
// landed at, so groups in the middle of a block, at its ends, at the
// first and last entries of the run, and a fold larger than the run
// must all count the whole block.
TEST(SpatialSummaryTest, LargeBlocksMatchBatch) {
    const classes_t big = {{16, 64}, {2, 32}, {4000, 64}, {1, 64}, {3, 48}};
    spatial_summary summary(big);
    std::set<address> lifetime;
    const auto at = [](std::uint64_t net, std::uint64_t iid) {
        return address::from_pair(0x20010db800000000ull | net, iid);
    };
    std::vector<address> day;
    // Two /64s of 3000 entries each, spaced 16 apart, plus a lone /64.
    for (std::uint64_t i = 0; i < 3000; ++i) {
        day.push_back(at(1, 16 * i + 8));
        day.push_back(at(2, 16 * i + 8));
    }
    day.push_back(at(0x50000, 1));
    fold_day(summary, lifetime, day);
    expect_matches_batch(summary, lifetime, big);

    // Groups in the middle of the first block, one at its first and one
    // at its last entry, and one in the middle of the second block.
    day.clear();
    for (std::uint64_t i = 1400; i < 1600; ++i) day.push_back(at(1, 16 * i + 9));
    day.push_back(at(1, 0));
    day.push_back(at(1, 16 * 2999 + 12));
    for (std::uint64_t i = 100; i < 110; ++i) day.push_back(at(2, 16 * i + 3));
    fold_day(summary, lifetime, day);
    expect_matches_batch(summary, lifetime, big);

    // Before the run's first entry and after its last one, and a lone
    // address that makes the /64 at 0x50000 reach 2 (crossing 2@32's
    // /32 stays dense; 16@64 does not cross).
    fold_day(summary, lifetime,
             {"::1"_v6, at(0, 5), at(0x50000, 2), "ffff::1"_v6,
              "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"_v6});
    expect_matches_batch(summary, lifetime, big);

    // A fold larger than the run: the first block crosses 4000@64, the
    // second gains entries throughout, and a new /64 of 5000 starts.
    day.clear();
    for (std::uint64_t i = 0; i < 3000; ++i) {
        day.push_back(at(1, 16 * i + 10));
        day.push_back(at(2, 16 * i + 11));
    }
    for (std::uint64_t i = 0; i < 5000; ++i) day.push_back(at(3, 7 * i));
    fold_day(summary, lifetime, day, 3);
    expect_matches_batch(summary, lifetime, big);
    EXPECT_EQ(summary.density_table({{4000, 64}}).at(0).dense_prefix_count, 3u);
}

TEST(SpatialSummaryTest, EmptyFoldChangesNothing) {
    spatial_summary summary(kFolded);
    std::set<address> lifetime;
    fold_day(summary, lifetime, {"2001:db8::1"_v6, "2001:db8::2"_v6});
    fold_day(summary, lifetime, {});
    fold_day(summary, lifetime, {"2001:db8::1"_v6});  // all repeats
    expect_matches_batch(summary, lifetime);
}

TEST(SpatialSummaryTest, FreshBeforeFirstAndAfterLastEntry) {
    spatial_summary summary(kFolded);
    std::set<address> lifetime;
    fold_day(summary, lifetime, {"2001:db8::10"_v6, "2001:db8::20"_v6});
    // One group below the first entry, one above the last, one between.
    fold_day(summary, lifetime,
             {"::1"_v6, "2001:db8::1"_v6, "2001:db8::15"_v6, "2001:db8::30"_v6,
              "ffff::1"_v6});
    expect_matches_batch(summary, lifetime);
    fold_day(summary, lifetime, {"::"_v6, "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"_v6});
    expect_matches_batch(summary, lifetime);
}

TEST(SpatialSummaryTest, AdjacentFreshRunsBetweenNeighbours) {
    spatial_summary summary(kFolded);
    std::set<address> lifetime;
    fold_day(summary, lifetime,
             {"2001:db8::100"_v6, "2001:db8::200"_v6, "2001:db8::300"_v6});
    // Two fresh runs in consecutive gaps, each several addresses long,
    // sharing the old entry 2001:db8::200 as right and left neighbour.
    fold_day(summary, lifetime,
             {"2001:db8::101"_v6, "2001:db8::102"_v6, "2001:db8::1ff"_v6,
              "2001:db8::201"_v6, "2001:db8::202"_v6, "2001:db8::2ff"_v6});
    expect_matches_batch(summary, lifetime);
}

TEST(SpatialSummaryTest, BlockCrossingNCountsOnceThenCovers) {
    const classes_t three_at_112 = {{3, 112}};
    spatial_summary summary(three_at_112);
    std::set<address> lifetime;
    const auto row = [&] { return summary.density_table(three_at_112).at(0); };

    fold_day(summary, lifetime, {"2001:db8::1"_v6, "2001:db8::2"_v6});
    EXPECT_EQ(row().dense_prefix_count, 0u);  // 2 < n
    fold_day(summary, lifetime, {"2001:db8::3"_v6});
    EXPECT_EQ(row().dense_prefix_count, 1u);  // 2 -> 3 crosses n
    EXPECT_EQ(row().covered_addresses, 3u);
    fold_day(summary, lifetime, {"2001:db8::4"_v6, "2001:db8:1::1"_v6});
    EXPECT_EQ(row().dense_prefix_count, 1u);  // already dense: covers more
    EXPECT_EQ(row().covered_addresses, 4u);
    // A block crossing n in a single fold, from empty.
    fold_day(summary, lifetime,
             {"2001:db8:2::1"_v6, "2001:db8:2::2"_v6, "2001:db8:2::3"_v6});
    EXPECT_EQ(row().dense_prefix_count, 2u);
    EXPECT_EQ(row().covered_addresses, 7u);
    expect_matches_batch(summary, lifetime);
}

}  // namespace
}  // namespace v6
