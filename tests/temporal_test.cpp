// Unit and property tests for the temporal (stability) classifier.
#include <gtest/gtest.h>

#include <algorithm>

#include "v6class/netgen/rng.h"
#include "v6class/temporal/stability.h"

namespace v6 {
namespace {

using namespace v6::literals;

address nth(unsigned i) {
    return address::from_pair(0x20010db800000000ull, 0x10000u + i);
}

TEST(DailySeriesTest, SetAndQuery) {
    daily_series s;
    s.set_day(5, {nth(2), nth(1), nth(2)});  // unsorted with duplicate
    EXPECT_EQ(s.count(5), 2u);
    EXPECT_TRUE(s.active_on(5, nth(1)));
    EXPECT_FALSE(s.active_on(5, nth(3)));
    EXPECT_TRUE(s.day(4).empty());
    EXPECT_TRUE(std::is_sorted(s.day(5).begin(), s.day(5).end()));
}

TEST(DailySeriesTest, SetDaySortsAndDedupesUnsortedInput) {
    daily_series s;
    s.set_day(1, {nth(5), nth(3), nth(5), nth(1), nth(3), nth(3)});
    EXPECT_EQ(s.day(1), (std::vector<address>{nth(1), nth(3), nth(5)}));
    // Ascending but not strictly: the duplicate still goes.
    s.set_day(2, {nth(1), nth(2), nth(2), nth(4)});
    EXPECT_EQ(s.day(2), (std::vector<address>{nth(1), nth(2), nth(4)}));
}

TEST(DailySeriesTest, SetDayKeepsSortedUniqueInput) {
    std::vector<address> sorted;
    for (unsigned i = 0; i < 1000; ++i) sorted.push_back(nth(2 * i));
    daily_series s;
    s.set_day(3, sorted);
    EXPECT_EQ(s.day(3), sorted);
    s.set_day(4, {nth(7)});
    EXPECT_EQ(s.day(4), std::vector<address>{nth(7)});
    s.set_day(5, {});
    EXPECT_TRUE(s.day(5).empty());
}

TEST(DailySeriesTest, MergeDay) {
    daily_series s;
    s.set_day(1, {nth(1)});
    s.merge_day(1, {nth(2), nth(1)});
    EXPECT_EQ(s.count(1), 2u);
    s.merge_day(2, {nth(9)});  // merge into an absent day behaves as set
    EXPECT_EQ(s.count(2), 1u);
}

TEST(DailySeriesTest, UnionOver) {
    daily_series s;
    s.set_day(1, {nth(1), nth(2)});
    s.set_day(2, {nth(2), nth(3)});
    s.set_day(5, {nth(9)});
    const auto u = s.union_over(1, 2);
    EXPECT_EQ(u.size(), 3u);
    EXPECT_EQ(s.union_over(1, 5).size(), 4u);
    EXPECT_TRUE(s.union_over(3, 4).empty());
}

TEST(DailySeriesTest, ProjectTo64) {
    daily_series s;
    s.set_day(1, {address::from_pair(0x20010db800000001ull, 1),
                  address::from_pair(0x20010db800000001ull, 2),
                  address::from_pair(0x20010db800000002ull, 1)});
    const daily_series p = s.project(64);
    EXPECT_EQ(p.count(1), 2u);  // two distinct /64s
    EXPECT_TRUE(p.active_on(1, address::from_pair(0x20010db800000001ull, 0)));
}

TEST(DailySeriesTest, Days) {
    daily_series s;
    s.set_day(3, {});
    s.set_day(1, {nth(1)});
    const auto d = s.days();
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0], 1);
    EXPECT_EQ(d[1], 3);
}

TEST(SetOpsTest, IntersectAndUnion) {
    const std::vector<address> a{nth(1), nth(2), nth(3)};
    const std::vector<address> b{nth(2), nth(3), nth(4)};
    const auto i = intersect_sorted(a, b);
    ASSERT_EQ(i.size(), 2u);
    EXPECT_EQ(i[0], nth(2));
    const auto u = union_sorted(a, b);
    EXPECT_EQ(u.size(), 4u);
}

// ------------------------------------------------------------ stability

TEST(StabilityTest, PaperDefinitionExamples) {
    // Section 5.1: seen March 17 and 18 -> 1d-stable; seen March 17 and
    // 19 -> 2d-stable (and 1d-stable); nd-stable implies (n-1)d-stable.
    daily_series s;
    s.set_day(17, {nth(1), nth(2)});
    s.set_day(18, {nth(1)});
    s.set_day(19, {nth(2)});
    stability_analyzer an(s);
    EXPECT_EQ(an.count_stable(17, 1), 2u);  // both are 1d-stable
    EXPECT_EQ(an.count_stable(17, 2), 1u);  // only nth(2) is 2d-stable
    EXPECT_EQ(an.count_stable(17, 3), 0u);
}

TEST(StabilityTest, SplitPartitionsReferenceDay) {
    daily_series s;
    s.set_day(10, {nth(1), nth(2), nth(3)});
    s.set_day(13, {nth(2)});
    stability_analyzer an(s);
    const stability_split split = an.classify_day(10, 3);
    ASSERT_EQ(split.stable.size(), 1u);
    EXPECT_EQ(split.stable[0], nth(2));
    EXPECT_EQ(split.not_stable.size(), 2u);
    EXPECT_EQ(split.stable.size() + split.not_stable.size(), s.count(10));
}

TEST(StabilityTest, WindowClipsObservations) {
    daily_series s;
    s.set_day(0, {nth(1)});
    s.set_day(20, {nth(1)});
    stability_analyzer an(s);  // default window (-7d,+7d)
    // The other observation is outside the window: not stable.
    EXPECT_EQ(an.count_stable(20, 3), 0u);
    // Widen the window and it becomes 20d-stable.
    stability_analyzer wide(s, {.window_back = 25, .window_fwd = 7});
    EXPECT_EQ(wide.count_stable(20, 20), 1u);
}

TEST(StabilityTest, GapSpanningReferenceDayCounts) {
    // Activity on days 4 and 10, reference day 7 — the address is not
    // active on day 7, so it is not classified at all there; but
    // reference day 10 sees the day-4 observation 6 days back.
    daily_series s;
    s.set_day(4, {nth(1)});
    s.set_day(10, {nth(1)});
    stability_analyzer an(s);
    EXPECT_EQ(an.count_stable(7, 1), 0u);  // not active on the ref day
    EXPECT_EQ(an.count_stable(10, 6), 1u);
    EXPECT_EQ(an.count_stable(10, 7), 0u);
}

TEST(StabilityTest, MinMaxSpreadWithinWindow) {
    // Days 3 and 17 around reference 10: spread 14 >= n though neither
    // pair includes the reference day's neighbours.
    daily_series s;
    s.set_day(3, {nth(1)});
    s.set_day(10, {nth(1)});
    s.set_day(17, {nth(1)});
    stability_analyzer an(s);
    EXPECT_EQ(an.count_stable(10, 14), 1u);
}

TEST(StabilityTest, SlewToleranceDemandsWiderGap) {
    daily_series s;
    s.set_day(10, {nth(1)});
    s.set_day(13, {nth(1)});
    stability_analyzer strict(s, {.slew_tolerance = 1});
    EXPECT_EQ(strict.count_stable(10, 3), 0u);  // needs gap >= 4 now
    EXPECT_EQ(strict.count_stable(10, 2), 1u);
    stability_analyzer trusting(s);
    EXPECT_EQ(trusting.count_stable(10, 3), 1u);
}

TEST(StabilityTest, WeekRollupUnionsDays) {
    daily_series s;
    // nth(1) stable around day 10, nth(2) stable around day 16; both
    // must appear in the weekly union starting day 10.
    s.set_day(10, {nth(1)});
    s.set_day(14, {nth(1)});
    s.set_day(16, {nth(2)});
    s.set_day(13, {nth(2)});
    stability_analyzer an(s);
    const auto week = an.classify_week(10, 3);
    EXPECT_EQ(week.stable.size(), 2u);
}

TEST(StabilityTest, AddressCanBeBothStableAndNotOverAWeek) {
    // Stable relative to one reference day, not another — the paper
    // counts such addresses in both weekly rows, so the two unions can
    // overlap and their sizes need not sum to the distinct total.
    daily_series s;
    s.set_day(10, {nth(1)});
    s.set_day(12, {nth(1)});
    s.set_day(16, {nth(1)});
    stability_analyzer an(s, {.window_back = 2, .window_fwd = 2});
    const auto week = an.classify_week(10, 2);
    // Ref day 10 sees days 10 and 12 (gap 2): stable. Ref day 16's
    // window (14..18) sees only day 16: not stable.
    EXPECT_EQ(week.stable.size(), 1u);
    EXPECT_EQ(week.not_stable.size(), 1u);
}

TEST(StabilityTest, OverlapSeries) {
    daily_series s;
    s.set_day(1, {nth(1), nth(2)});
    s.set_day(2, {nth(2), nth(3)});
    s.set_day(3, {nth(4)});
    stability_analyzer an(s);
    const auto series = an.overlap_series(1, 1, 3);
    ASSERT_EQ(series.size(), 3u);
    EXPECT_EQ(series[0], 2u);  // self-overlap = active count
    EXPECT_EQ(series[1], 1u);
    EXPECT_EQ(series[2], 0u);
}

TEST(StabilityTest, EpochStable) {
    const std::vector<address> now{nth(1), nth(2), nth(5)};
    const std::vector<address> past{nth(2), nth(5), nth(9)};
    const auto stable = epoch_stable(now, past);
    EXPECT_EQ(stable.size(), 2u);
}

// Property: nd-stable is a subset of (n-1)d-stable, over random
// activity schedules.
class StabilityMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StabilityMonotonicity, NestedClasses) {
    rng r{GetParam()};
    daily_series s;
    for (int day = 0; day < 20; ++day) {
        std::vector<address> active;
        for (unsigned i = 0; i < 200; ++i)
            if (r.chance(0.3)) active.push_back(nth(i));
        s.set_day(day, std::move(active));
    }
    stability_analyzer an(s);
    std::uint64_t prev = s.count(10);
    for (unsigned n = 1; n <= 14; ++n) {
        const std::uint64_t count = an.count_stable(10, n);
        EXPECT_LE(count, prev) << "n=" << n;
        prev = count;
    }
    // And the nd-stable sets themselves are nested.
    const auto s3 = an.classify_day(10, 3).stable;
    const auto s2 = an.classify_day(10, 2).stable;
    EXPECT_TRUE(std::includes(s2.begin(), s2.end(), s3.begin(), s3.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StabilityMonotonicity,
                         ::testing::Range<std::uint64_t>(1, 9));

// Property: /64 stability is an upper bound on address stability.
TEST(StabilityTest, PrefixStabilityBoundsAddressStability) {
    rng r{77};
    daily_series s;
    for (int day = 0; day < 15; ++day) {
        std::vector<address> active;
        for (unsigned i = 0; i < 500; ++i)
            if (r.chance(0.4))
                active.push_back(
                    address::from_pair(0x20010db800000000ull + i % 50, r()));
        s.set_day(day, std::move(active));
    }
    const daily_series s64 = s.project(64);
    stability_analyzer addr_an(s);
    stability_analyzer pfx_an(s64);
    // "The upper limit on the number of stable addresses is the number
    // of stable /64s" — as proportions of their own actives, prefixes
    // are at least as stable.
    const double addr_rate = static_cast<double>(addr_an.count_stable(7, 3)) /
                             static_cast<double>(s.count(7));
    const double pfx_rate = static_cast<double>(pfx_an.count_stable(7, 3)) /
                            static_cast<double>(s64.count(7));
    EXPECT_GE(pfx_rate, addr_rate);
}

}  // namespace
}  // namespace v6
