// Batch-vs-stream differential: replaying a >=100k-record feed through
// the streaming engine must reproduce the batch pipeline's answers
// *exactly* — same stability split, same lifetime spectrum, same Table-3
// density rows, same distinct set, same MRA counts — for any shard
// count (including the unsharded engine). The spatial answers are
// checked at every epoch (each day report against the batch state
// through its day), not only at the end.
#include <gtest/gtest.h>

#include <algorithm>

#include "v6class/netgen/rng.h"
#include "v6class/spatial/density.h"
#include "v6class/spatial/mra.h"
#include "v6class/stream/engine.h"
#include "v6class/temporal/observation_store.h"
#include "v6class/temporal/stability.h"

namespace v6 {
namespace {

constexpr int kFirstDay = 100;
constexpr int kLastDay = 114;              // 15 days
constexpr unsigned kRecordsPerDay = 7000;  // 105k records total
constexpr std::uint64_t kSeed = 20150317;

const std::vector<std::pair<std::uint64_t, unsigned>> kClasses = {
    {2, 112}, {8, 64}, {2, 48}};
// Not configured in the engine: answered by the sweep path.
const std::vector<std::pair<std::uint64_t, unsigned>> kSweptClasses = {
    {4, 120}, {1, 64}};

// A pool with real spatial structure: 64 /64 networks, 16 /112 blocks
// each, so the density classes and MRA ratios have something to find.
std::vector<address> make_pool() {
    std::vector<address> pool;
    pool.reserve(10000);
    for (unsigned i = 0; i < 10000; ++i) {
        const std::uint64_t high = 0x20010db800000000ull + (i % 64);
        const std::uint64_t low =
            (static_cast<std::uint64_t>(i % 16) << 16) | (mix64(i) & 0xffffu);
        pool.push_back(address::from_pair(high, low));
    }
    return pool;
}

// The replayed feed: duplicates, varying hit counts, random in-day order.
std::vector<stream_record> make_feed() {
    const std::vector<address> pool = make_pool();
    std::vector<stream_record> feed;
    feed.reserve((kLastDay - kFirstDay + 1) * kRecordsPerDay);
    rng r{kSeed};
    for (int day = kFirstDay; day <= kLastDay; ++day)
        for (unsigned i = 0; i < kRecordsPerDay; ++i)
            feed.push_back({day, pool[r.uniform(pool.size())], 1 + r.uniform(5)});
    return feed;
}

// The batch spatial answers over the distinct set of days up to one
// epoch: density rows from an add()-built trie, MRA from the sorted set.
struct epoch_answers {
    std::vector<density_row> density;
    mra_series mra{{}};
};

// The reference pipeline: the batch substrate fed whole days at a time.
struct batch_state {
    daily_series series;
    observation_store store128{128};
    observation_store store64{64};
    radix_tree tree;
    std::vector<address> distinct;
    std::vector<epoch_answers> epochs;  // [day - kFirstDay]

    explicit batch_state(const std::vector<stream_record>& feed) {
        std::vector<address> all;
        for (int day = kFirstDay; day <= kLastDay; ++day) {
            std::vector<address> active;
            for (const stream_record& rec : feed)
                if (rec.day == day) active.push_back(rec.addr);
            series.set_day(day, active);
            store128.record_day(day, active);
            store64.record_day(day, active);
            all.insert(all.end(), active.begin(), active.end());
            std::sort(all.begin(), all.end());
            all.erase(std::unique(all.begin(), all.end()), all.end());
            radix_tree at_day;
            for (const address& a : all) at_day.add(a);
            epochs.push_back({compute_density_table(at_day, kClasses),
                              compute_mra_sorted(all)});
        }
        distinct = std::move(all);
        for (const address& a : distinct) tree.add(a);
    }
};

void expect_same_rows(const std::vector<density_row>& got,
                      const std::vector<density_row>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(std::to_string(want[i].n) + "@/" + std::to_string(want[i].p));
        EXPECT_EQ(got[i].n, want[i].n);
        EXPECT_EQ(got[i].p, want[i].p);
        EXPECT_EQ(got[i].dense_prefix_count, want[i].dense_prefix_count);
        EXPECT_EQ(got[i].covered_addresses, want[i].covered_addresses);
        EXPECT_EQ(got[i].possible_addresses, want[i].possible_addresses);
        EXPECT_EQ(got[i].address_density, want[i].address_density);
    }
}

class StreamDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(StreamDifferential, StreamReproducesBatchExactly) {
    const std::vector<stream_record> feed = make_feed();
    ASSERT_GE(feed.size(), 100000u);
    const batch_state batch(feed);

    stream_config cfg;
    cfg.shards = GetParam();
    cfg.density_classes = kClasses;
    stream_engine engine(cfg);
    for (const stream_record& rec : feed) engine.push(rec);
    engine.finish();

    // Feed accounting: everything was in day order, nothing dropped.
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.records, feed.size());
    EXPECT_EQ(stats.late_dropped, 0u);
    EXPECT_EQ(engine.sealed_day(), kLastDay);

    // Distinct sets, at /128 and projected /64.
    EXPECT_EQ(stats.distinct_addresses, batch.store128.distinct_count());
    EXPECT_EQ(stats.distinct_projected, batch.store64.distinct_count());
    EXPECT_EQ(engine.distinct_addresses(), batch.distinct);

    // Windowed stability splits: byte-identical address vectors.
    const stability_analyzer an(batch.series);
    for (const int ref : {kFirstDay + 7, kFirstDay + 10})
        for (const unsigned n : {1u, 3u, 7u}) {
            const stability_split want = an.classify_day(ref, n);
            const stability_split got = engine.classify_day(ref, n);
            EXPECT_EQ(got.stable, want.stable) << "ref=" << ref << " n=" << n;
            EXPECT_EQ(got.not_stable, want.not_stable)
                << "ref=" << ref << " n=" << n;
        }

    // Lifetime spectrum.
    EXPECT_EQ(engine.stability_spectrum(14), batch.store128.stability_spectrum(14));

    // Table-3 density rows, every field: the configured classes (read
    // off the folded summary) and classes the engine was not configured
    // with (one sweep of the lifetime set).
    expect_same_rows(engine.density_table(kClasses),
                     compute_density_table(batch.tree, kClasses));
    expect_same_rows(engine.density_table(kSweptClasses),
                     compute_density_table(batch.tree, kSweptClasses));

    // MRA aggregate counts at every prefix length.
    const mra_series want_mra = compute_mra_sorted(batch.distinct);
    const mra_series got_mra = engine.mra();
    for (unsigned p = 0; p <= 128; ++p)
        EXPECT_EQ(got_mra.aggregate_count(p), want_mra.aggregate_count(p)) << p;

    // The day reports produced along the way agree with the batch state
    // through their day: stable counts, density rows and MRA ratios.
    const auto reports = engine.reports();
    ASSERT_EQ(reports.size(),
              static_cast<std::size_t>(kLastDay - kFirstDay + 1));
    for (const day_report& rep : reports) {
        SCOPED_TRACE("day " + std::to_string(rep.day));
        EXPECT_EQ(rep.ref_day, rep.day - cfg.window.window_fwd);
        const stability_split want = an.classify_day(rep.ref_day, cfg.stability_n);
        EXPECT_EQ(rep.stable, want.stable.size());
        EXPECT_EQ(rep.not_stable, want.not_stable.size());
        EXPECT_EQ(rep.active, want.stable.size() + want.not_stable.size());
        const epoch_answers& at = batch.epochs.at(
            static_cast<std::size_t>(rep.day - kFirstDay));
        expect_same_rows(rep.density, at.density);
        EXPECT_EQ(rep.gamma1, at.mra.ratio(64, 1));
        EXPECT_EQ(rep.gamma4, at.mra.ratio(60, 4));
        EXPECT_EQ(rep.gamma16, at.mra.ratio(48, 16));
    }

    // And the final snapshot is the whole-feed summary.
    const stream_snapshot snap = engine.snapshot();
    EXPECT_EQ(snap.epoch, kLastDay);
    EXPECT_EQ(snap.distinct_addresses, batch.distinct.size());
    EXPECT_EQ(snap.spectrum, batch.store128.stability_spectrum(cfg.spectrum_max));
    expect_same_rows(snap.density, batch.epochs.back().density);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, StreamDifferential,
                         ::testing::Values(1u, 2u, 5u));

}  // namespace
}  // namespace v6
