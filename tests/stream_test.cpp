// Tests for the streaming ingest engine and its parts: the bounded
// queue, the feed-record codec, shard sealing, and the engine's epoch /
// day-roll machinery (including ingest continuing while a seal is in
// flight).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>

#include "v6class/netgen/rng.h"
#include "v6class/obs/alert.h"
#include "v6class/obs/metrics.h"
#include "v6class/spatial/density.h"
#include "v6class/spatial/mra.h"
#include "v6class/stream/bounded_queue.h"
#include "v6class/stream/engine.h"
#include "v6class/temporal/observation_store.h"
#include "v6class/temporal/stability.h"

namespace v6 {
namespace {

address nth(unsigned i) {
    return address::from_pair(0x20010db800000000ull + (i % 7), 0x9000u + i);
}

// ------------------------------------------------------------ bounded_queue

TEST(BoundedQueueTest, FifoOrder) {
    bounded_queue<int> q(4);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
    bounded_queue<int> q(2);
    EXPECT_TRUE(q.try_push(1));
    EXPECT_TRUE(q.try_push(2));
    EXPECT_FALSE(q.try_push(3));  // full
    q.pop();
    EXPECT_TRUE(q.try_push(3));
}

TEST(BoundedQueueTest, ZeroCapacityClampedToOne) {
    bounded_queue<int> q(0);
    EXPECT_EQ(q.capacity(), 1u);
    EXPECT_TRUE(q.try_push(1));
    EXPECT_FALSE(q.try_push(2));
}

TEST(BoundedQueueTest, CloseDrainsThenStops) {
    bounded_queue<int> q(4);
    q.push(1);
    q.push(2);
    q.close();
    EXPECT_FALSE(q.push(3));  // closed: push fails
    EXPECT_EQ(q.pop(), 1);    // but the backlog drains
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueueTest, FullPushBlocksUntilConsumerPops) {
    bounded_queue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::atomic<bool> second_pushed{false};
    std::thread producer([&] {
        q.push(2);  // blocks: capacity 1, queue full
        second_pushed = true;
    });
    // The producer must be parked, not spinning through a failed push.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(second_pushed);
    EXPECT_EQ(q.pop(), 1);
    producer.join();
    EXPECT_TRUE(second_pushed);
    EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
    bounded_queue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    producer.join();
}

// ------------------------------------------------------------ record codec

TEST(StreamRecordTest, ParsesDayAddressHits) {
    stream_record r;
    ASSERT_TRUE(parse_stream_record("365 2001:db8::1 42", r));
    EXPECT_EQ(r.day, 365);
    EXPECT_EQ(r.addr, address::must_parse("2001:db8::1"));
    EXPECT_EQ(r.hits, 42u);
}

TEST(StreamRecordTest, HitsDefaultToOne) {
    stream_record r;
    ASSERT_TRUE(parse_stream_record("7 ::1", r));
    EXPECT_EQ(r.hits, 1u);
}

TEST(StreamRecordTest, RejectsGarbage) {
    stream_record r;
    EXPECT_FALSE(parse_stream_record("", r));
    EXPECT_FALSE(parse_stream_record("2001:db8::1", r));      // no day
    EXPECT_FALSE(parse_stream_record("x 2001:db8::1", r));    // bad day
    EXPECT_FALSE(parse_stream_record("5 not-an-addr", r));    // bad addr
    EXPECT_FALSE(parse_stream_record("5 ::1 0", r));          // zero hits
    EXPECT_FALSE(parse_stream_record("5 ::1 3 junk", r));     // trailing
}

TEST(StreamRecordTest, RoundTripsThroughText) {
    const stream_record original{123, address::must_parse("2001:db8::abcd"), 9};
    std::ostringstream out;
    write_stream_record(out, original);
    stream_record parsed;
    std::string line = out.str();
    ASSERT_FALSE(line.empty());
    line.pop_back();  // strip '\n'
    ASSERT_TRUE(parse_stream_record(line, parsed));
    EXPECT_EQ(parsed, original);
}

TEST(StreamRecordTest, ReaderToleratesCommentsAndCountsErrors) {
    std::istringstream in(
        "# header\n"
        "\n"
        "1 2001:db8::1 2\n"
        "broken line\n"
        "2 2001:db8::2\n");
    std::vector<stream_record> seen;
    const read_report report =
        read_stream_records(in, [&](const stream_record& r) { seen.push_back(r); });
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_EQ(report.parsed, 2u);
    EXPECT_EQ(report.malformed, 1u);
    ASSERT_EQ(report.first_errors.size(), 1u);
    EXPECT_EQ(report.first_errors[0].line_number, 4u);
}

// ------------------------------------------------------------ engine

stream_config small_config(unsigned shards) {
    stream_config cfg;
    cfg.shards = shards;
    cfg.batch_size = 8;
    cfg.queue_capacity = 4;
    return cfg;
}

TEST(StreamEngineTest, EmptyEngineFinishesCleanly) {
    stream_engine engine(small_config(2));
    engine.finish();
    EXPECT_EQ(engine.sealed_day(), kNoDay);
    EXPECT_TRUE(engine.reports().empty());
    const stream_snapshot snap = engine.snapshot();
    EXPECT_EQ(snap.epoch, kNoDay);
    EXPECT_EQ(snap.records, 0u);
}

TEST(StreamEngineTest, FinishSealsTheOpenDay) {
    stream_engine engine(small_config(3));
    engine.push(10, nth(1), 5);
    engine.push(10, nth(2));
    engine.push(10, nth(1));  // duplicate within the day
    engine.finish();
    EXPECT_EQ(engine.sealed_day(), 10);
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.records, 3u);
    EXPECT_EQ(stats.hits, 7u);
    EXPECT_EQ(stats.distinct_addresses, 2u);
    ASSERT_EQ(engine.reports().size(), 1u);
    EXPECT_EQ(engine.reports()[0].day, 10);
}

TEST(StreamEngineTest, FinishIsIdempotent) {
    stream_engine engine(small_config(2));
    engine.push(1, nth(1));
    engine.finish();
    engine.finish();
    EXPECT_EQ(engine.stats().records, 1u);
}

TEST(StreamEngineTest, PushAfterFinishIsIgnored) {
    stream_engine engine(small_config(2));
    engine.push(1, nth(1));
    engine.finish();
    engine.push(2, nth(2));
    EXPECT_EQ(engine.stats().records, 1u);
    EXPECT_EQ(engine.sealed_day(), 1);
}

TEST(StreamEngineTest, DayBoundaryAdvancesEpoch) {
    stream_engine engine(small_config(2));
    engine.push(5, nth(1));
    engine.push(5, nth(2));
    EXPECT_EQ(engine.stats().open_day, 5);
    engine.push(6, nth(1));  // seals day 5 behind its last batch
    const auto report5 = engine.wait_for_report(5);
    ASSERT_TRUE(report5.has_value());
    EXPECT_EQ(report5->day, 5);
    EXPECT_EQ(report5->distinct_addresses, 2u);
    EXPECT_EQ(engine.sealed_day(), 5);
    EXPECT_EQ(engine.stats().open_day, 6);
    engine.finish();
    EXPECT_EQ(engine.sealed_day(), 6);
    EXPECT_EQ(engine.reports().size(), 2u);
}

TEST(StreamEngineTest, SkippedDaysSealOnlyObservedOnes) {
    stream_engine engine(small_config(2));
    engine.push(1, nth(1));
    engine.push(4, nth(1));  // days 2 and 3 never existed in the feed
    engine.finish();
    const auto reports = engine.reports();
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].day, 1);
    EXPECT_EQ(reports[1].day, 4);
}

TEST(StreamEngineTest, LateRecordsAreDroppedAndCounted) {
    stream_engine engine(small_config(2));
    engine.push(10, nth(1));
    engine.push(11, nth(2));  // day 10 sealed
    engine.push(10, nth(3));  // late: sealed days are immutable
    engine.push(9, nth(4));   // later still
    engine.finish();
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.late_dropped, 2u);
    EXPECT_EQ(stats.distinct_addresses, 2u);
    // The dropped addresses are nowhere in the sealed state.
    const auto distinct = engine.distinct_addresses();
    EXPECT_EQ(distinct.size(), 2u);
}

TEST(StreamEngineTest, WaitForUnsealedDayReturnsNulloptAfterFinish) {
    stream_engine engine(small_config(2));
    engine.push(1, nth(1));
    engine.finish();
    EXPECT_FALSE(engine.wait_for_report(99).has_value());
}

TEST(StreamEngineTest, ReportCarriesWindowedSplitAndDensity) {
    stream_config cfg = small_config(2);
    cfg.window.window_back = 2;
    cfg.window.window_fwd = 2;
    cfg.stability_n = 2;
    cfg.density_classes = {{2, 112}};
    stream_engine engine(cfg);
    // nth(1) active on days 0..4; nth(2) only day 2: at ref_day 2
    // (sealed day 4 minus window_fwd 2), nth(1) is 2d-stable, nth(2) not.
    for (int day = 0; day <= 4; ++day) {
        engine.push(day, nth(1));
        if (day == 2) engine.push(day, nth(2));
    }
    engine.push(5, nth(1));  // seal day 4 -> report for ref_day 2
    const auto report = engine.wait_for_report(4);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->ref_day, 2);
    EXPECT_EQ(report->active, 2u);
    EXPECT_EQ(report->stable, 1u);
    EXPECT_EQ(report->not_stable, 1u);
    ASSERT_EQ(report->density.size(), 1u);
    EXPECT_EQ(report->density[0].n, 2u);
    EXPECT_EQ(report->density[0].p, 112u);
    engine.finish();
}

TEST(StreamEngineTest, ClassifyDayMergesShards) {
    stream_engine engine(small_config(4));
    daily_series series;
    rng r{77};
    for (int day = 0; day < 10; ++day) {
        std::vector<address> active;
        for (unsigned i = 0; i < 120; ++i)
            if (r.chance(0.4)) active.push_back(nth(i));
        for (const address& a : active) engine.push(day, a);
        series.set_day(day, active);
    }
    engine.finish();
    const stability_analyzer an(series);
    for (unsigned n : {1u, 3u}) {
        const stability_split batch = an.classify_day(5, n);
        const stability_split streamed = engine.classify_day(5, n);
        EXPECT_EQ(streamed.stable, batch.stable) << "n=" << n;
        EXPECT_EQ(streamed.not_stable, batch.not_stable) << "n=" << n;
    }
}

TEST(StreamEngineTest, SnapshotIsEpochConsistent) {
    stream_engine engine(small_config(3));
    engine.push(1, nth(1));
    engine.push(1, nth(2));
    engine.push(2, nth(1));
    ASSERT_TRUE(engine.wait_for_report(1).has_value());
    // Day 2 is still open: the snapshot must describe epoch 1 only.
    const stream_snapshot snap = engine.snapshot();
    EXPECT_EQ(snap.epoch, 1);
    EXPECT_EQ(snap.distinct_addresses, 2u);
    ASSERT_FALSE(snap.spectrum.empty());
    EXPECT_EQ(snap.spectrum[0], 2u);
    engine.finish();
    EXPECT_EQ(engine.snapshot().epoch, 2);
}

// The acceptance test of the roll design: once a day boundary is pushed,
// the seal and its report recompute happen on the roll thread while the
// pusher keeps streaming the next day's records. All of them must be
// accepted (none dropped, none deadlocked) even with tiny queues forcing
// backpressure, and the in-flight report must still come out right.
TEST(StreamEngineTest, IngestContinuesWhileSealIsInFlight) {
    stream_config cfg;
    cfg.shards = 4;
    cfg.batch_size = 4;      // many batches...
    cfg.queue_capacity = 1;  // ...through minimal queues: real backpressure
    stream_engine engine(cfg);
    constexpr unsigned kPerDay = 3000;
    for (unsigned i = 0; i < kPerDay; ++i) engine.push(0, nth(i % 500));
    // This push broadcasts the day-0 seal...
    engine.push(1, nth(0));
    // ...and without waiting for it we keep streaming day 1. The seal +
    // report build for day 0 is concurrently in flight on the roll
    // thread; these pushes must all be accepted meanwhile.
    for (unsigned i = 1; i < kPerDay; ++i) engine.push(1, nth(i % 500));
    const stream_stats mid = engine.stats();
    EXPECT_EQ(mid.records, 2 * kPerDay);
    EXPECT_EQ(mid.late_dropped, 0u);
    EXPECT_EQ(mid.open_day, 1);
    const auto report0 = engine.wait_for_report(0);
    ASSERT_TRUE(report0.has_value());
    EXPECT_EQ(report0->distinct_addresses, 500u);
    engine.finish();
    EXPECT_EQ(engine.stats().records, 2 * kPerDay);
    EXPECT_EQ(engine.sealed_day(), 1);
    EXPECT_EQ(engine.snapshot().distinct_addresses, 500u);
}

TEST(StreamEngineTest, ManyProducersOneEngine) {
    stream_config cfg = small_config(4);
    stream_engine engine(cfg);
    constexpr int kThreads = 4;
    constexpr unsigned kEach = 2000;
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t)
        producers.emplace_back([&engine, t] {
            for (unsigned i = 0; i < kEach; ++i)
                engine.push(3, nth(static_cast<unsigned>(t) * kEach + i));
        });
    for (auto& p : producers) p.join();
    engine.finish();
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.records, static_cast<std::uint64_t>(kThreads) * kEach);
    EXPECT_EQ(stats.distinct_addresses, kThreads * kEach);
}

// ------------------------------------------------------------ day seals

// Each shard's worker prepares its own day (sort, dedupe, first-seen
// lookup) and the roll thread applies the prepared days across shards in
// parallel. These cases seal large days while a second thread queries,
// and check every answer and every day report against the batch
// pipeline at the epoch it describes.

const std::vector<std::pair<std::uint64_t, unsigned>> kSealClasses = {
    {2, 112}, {16, 64}, {2, 48}};

// Even indices fill 64 /64s, each with a dense /112 block: dense blocks
// at every class. Odd indices scatter over 64k /64s, mostly one address
// each, so the projected (/64) count depends on every shard's day set.
address pool_address(unsigned i) {
    if (i % 2 == 1)
        return address::from_pair(0x20010db800010000ull + (mix64(i) & 0xffffu),
                                  mix64(i + 1));
    return address::from_pair(0x20010db800000000ull + (i / 2 % 64),
                              (static_cast<std::uint64_t>(i / 2 % 16) << 16) |
                                  (mix64(i) & 0xffffu));
}

bool same_rows(const std::vector<density_row>& a, const std::vector<density_row>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const density_row& x, const density_row& y) {
                          return x.n == y.n && x.p == y.p &&
                                 x.dense_prefix_count == y.dense_prefix_count &&
                                 x.covered_addresses == y.covered_addresses &&
                                 x.possible_addresses == y.possible_addresses &&
                                 x.address_density == y.address_density;
                      });
}

std::vector<std::uint64_t> mra_counts(const mra_series& m) {
    std::vector<std::uint64_t> out;
    for (unsigned p = 0; p <= 128; ++p) out.push_back(m.aggregate_count(p));
    return out;
}

// The batch answers once a given number of days has sealed.
struct sealed_epoch {
    int epoch = kNoDay;
    std::size_t distinct = 0;
    std::size_t distinct_projected = 0;
    std::vector<std::uint64_t> spectrum;
    std::vector<density_row> density;
    mra_series mra{{}};
    stability_split split;  // classify_day(kSealRef, kSealN)
};

constexpr int kSealFirstDay = 40;
constexpr int kSealRef = kSealFirstDay + 1;
constexpr unsigned kSealN = 1;

stream_config seal_config(unsigned shards) {
    stream_config cfg;
    cfg.shards = shards;
    cfg.density_classes = kSealClasses;
    cfg.stability_n = kSealN;
    cfg.window.window_back = 1;
    cfg.window.window_fwd = 1;
    return cfg;
}

// Five days over a 60k-address pool: two large overlapping days, a day
// only shard 0 receives records for, a day made only of addresses seen
// before (every shard's first-seen list empty), and a large fresh day.
std::vector<std::vector<address>> seal_days(unsigned shards) {
    const auto range = [](unsigned from, unsigned to) {
        std::vector<address> day;
        for (unsigned i = from; i < to; ++i) day.push_back(pool_address(i));
        return day;
    };
    std::vector<std::vector<address>> days;
    days.push_back(range(0, 24000));
    days.push_back(range(12000, 36000));
    std::vector<address> one_shard;
    for (const address& a : range(24000, 48000))
        if (address_hash{}(a) % shards == 0) one_shard.push_back(a);
    days.push_back(std::move(one_shard));
    days.push_back(range(2000, 30000));  // all seen on the first two days
    days.push_back(range(36000, 60000));
    return days;
}

std::vector<sealed_epoch> batch_epochs(const std::vector<std::vector<address>>& days,
                                       const stream_config& cfg) {
    std::vector<sealed_epoch> epochs(1);  // nothing sealed yet
    epochs[0].spectrum.assign(cfg.spectrum_max + 1, 0);
    epochs[0].density = compute_density_table(radix_tree{}, kSealClasses);
    epochs[0].mra = compute_mra_sorted({});
    daily_series series;
    observation_store store128(128), store64(cfg.projected_length);
    std::vector<address> all;
    for (std::size_t d = 0; d < days.size(); ++d) {
        const int day = kSealFirstDay + static_cast<int>(d);
        series.set_day(day, days[d]);
        store128.record_day(day, days[d]);
        store64.record_day(day, days[d]);
        all.insert(all.end(), days[d].begin(), days[d].end());
        std::sort(all.begin(), all.end());
        all.erase(std::unique(all.begin(), all.end()), all.end());
        radix_tree tree;
        tree.bulk_build(all);
        sealed_epoch e;
        e.epoch = day;
        e.distinct = all.size();
        e.distinct_projected = store64.distinct_count();
        e.spectrum = store128.stability_spectrum(cfg.spectrum_max);
        e.density = compute_density_table(tree, kSealClasses);
        e.mra = compute_mra_sorted(all);
        e.split = stability_analyzer(series, cfg.window).classify_day(kSealRef, kSealN);
        epochs.push_back(std::move(e));
    }
    return epochs;
}

class StreamSealTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(StreamSealTest, ConcurrentQueriesSeeOnlySealedEpochs) {
    const stream_config cfg = seal_config(GetParam());
    const std::vector<std::vector<address>> days = seal_days(cfg.shards);
    const std::vector<sealed_epoch> epochs = batch_epochs(days, cfg);
    stream_engine engine(cfg);

    const auto at_epoch = [&](int epoch) -> const sealed_epoch* {
        for (const sealed_epoch& e : epochs)
            if (e.epoch == epoch) return &e;
        return nullptr;
    };
    const auto any_epoch = [&](auto&& matches) {
        return std::any_of(epochs.begin(), epochs.end(), matches);
    };
    std::atomic<bool> done{false};
    std::atomic<unsigned> rounds{0};
    std::atomic<bool> failed{false};
    std::string failure;  // written by the reader only; read after join
    std::thread reader([&] {
        while (!done.load() && failure.empty()) {
            const stream_snapshot snap = engine.snapshot();
            const sealed_epoch* e = at_epoch(snap.epoch);
            if (!e) {
                failure = "snapshot of unknown epoch " + std::to_string(snap.epoch);
            } else if (snap.distinct_addresses != e->distinct ||
                       snap.distinct_projected != e->distinct_projected ||
                       snap.spectrum != e->spectrum || !same_rows(snap.density, e->density)) {
                failure = "snapshot differs from epoch " + std::to_string(e->epoch);
            }
            const stream_stats st = engine.stats();
            const sealed_epoch* se = at_epoch(st.sealed_day);
            if (!se || st.distinct_addresses != se->distinct ||
                st.distinct_projected != se->distinct_projected)
                failure = "stats differ from epoch " + std::to_string(st.sealed_day);
            const stability_split split = engine.classify_day(kSealRef, kSealN);
            if (!any_epoch([&](const sealed_epoch& x) {
                    return x.split.stable == split.stable &&
                           x.split.not_stable == split.not_stable;
                }))
                failure = "classify_day matches no sealed epoch";
            const std::vector<density_row> rows = engine.density_table(kSealClasses);
            if (!any_epoch([&](const sealed_epoch& x) { return same_rows(x.density, rows); }))
                failure = "density_table matches no sealed epoch";
            const std::vector<std::uint64_t> mra = mra_counts(engine.mra());
            if (!any_epoch([&](const sealed_epoch& x) { return mra_counts(x.mra) == mra; }))
                failure = "mra matches no sealed epoch";
            if (!failure.empty()) failed.store(true);
            rounds.fetch_add(1);
        }
    });
    // One whole reader round after each seal, so every epoch is queried
    // at least once besides the rounds that overlap the seals.
    const auto observe = [&] {
        const unsigned seen = rounds.load();
        while (rounds.load() < seen + 2 && !failed.load()) std::this_thread::yield();
    };
    for (std::size_t d = 0; d < days.size(); ++d) {
        const int day = kSealFirstDay + static_cast<int>(d);
        for (const address& a : days[d]) engine.push(day, a);
        if (d > 0) {
            EXPECT_TRUE(engine.wait_for_report(day - 1).has_value());
            observe();
        }
    }
    engine.finish();
    observe();
    done.store(true);
    reader.join();
    EXPECT_EQ(failure, "");
    EXPECT_GE(rounds.load(), 2 * days.size());
    EXPECT_EQ(engine.sealed_day(), epochs.back().epoch);
}

// Every day report, including the day one shard received nothing and the
// day nothing was new, against the batch pipeline through its day.
TEST_P(StreamSealTest, ReportsOfEdgeDaysMatchBatch) {
    const stream_config cfg = seal_config(GetParam());
    const std::vector<std::vector<address>> days = seal_days(cfg.shards);
    const std::vector<sealed_epoch> epochs = batch_epochs(days, cfg);
    stream_engine engine(cfg);
    daily_series series;
    for (std::size_t d = 0; d < days.size(); ++d) {
        const int day = kSealFirstDay + static_cast<int>(d);
        for (const address& a : days[d]) engine.push(day, a);
        series.set_day(day, days[d]);
    }
    engine.finish();
    const std::vector<day_report> reports = engine.reports();
    ASSERT_EQ(reports.size(), days.size());
    const stability_analyzer an(series, cfg.window);
    for (std::size_t d = 0; d < days.size(); ++d) {
        const day_report& rep = reports[d];
        const sealed_epoch& want = epochs[d + 1];
        SCOPED_TRACE("day " + std::to_string(rep.day));
        EXPECT_EQ(rep.day, want.epoch);
        const stability_split split = an.classify_day(rep.ref_day, cfg.stability_n);
        EXPECT_EQ(rep.stable, split.stable.size());
        EXPECT_EQ(rep.not_stable, split.not_stable.size());
        EXPECT_EQ(rep.distinct_addresses, want.distinct);
        EXPECT_EQ(rep.distinct_projected, want.distinct_projected);
        EXPECT_TRUE(same_rows(rep.density, want.density));
        EXPECT_EQ(rep.gamma1, want.mra.ratio(64, 1));
        EXPECT_EQ(rep.gamma4, want.mra.ratio(60, 4));
        EXPECT_EQ(rep.gamma16, want.mra.ratio(48, 16));
    }
    // The edge days really are edge days.
    EXPECT_EQ(epochs[4].distinct, epochs[3].distinct);  // nothing new
    for (const address& a : days[2]) ASSERT_EQ(address_hash{}(a) % cfg.shards, 0u);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, StreamSealTest, ::testing::Values(2u, 4u));

// ------------------------------------------------------------ metrics

// Every record offered to push() must land in exactly one of the
// accounting counters: accepted, late, or dropped-after-finish.
TEST(StreamMetricsTest, EveryPushedRecordIsAccountedExactlyOnce) {
    stream_engine engine(small_config(2));
    engine.push(10, nth(1));
    engine.push(10, nth(2));
    engine.push(11, nth(3));  // seals day 10
    engine.push(10, nth(4));  // late
    engine.push(9, nth(5));   // late
    engine.finish();
    engine.push(12, nth(6));  // dropped: engine already finished
    engine.push(12, nth(7));
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.fed, 7u);
    EXPECT_EQ(stats.records, 3u);
    EXPECT_EQ(stats.late_dropped, 2u);
    EXPECT_EQ(stats.dropped, 2u);
    EXPECT_EQ(stats.fed, stats.records + stats.late_dropped + stats.dropped);
}

TEST(StreamMetricsTest, ConcurrentFeedKeepsTheAccountingInvariant) {
    stream_engine engine(small_config(4));
    constexpr int kThreads = 4;
    constexpr unsigned kEach = 3000;
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t)
        producers.emplace_back([&engine, t] {
            // Interleaved day advances make some records late by design.
            for (unsigned i = 0; i < kEach; ++i)
                engine.push(static_cast<int>(i / 1000) + (t % 2), nth(i % 300));
        });
    for (auto& p : producers) p.join();
    engine.finish();
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.fed, static_cast<std::uint64_t>(kThreads) * kEach);
    EXPECT_EQ(stats.fed, stats.records + stats.late_dropped + stats.dropped);
}

// stream_stats is a thin view over the metrics registry: the same
// numbers must come out of an injected registry's exported text.
TEST(StreamMetricsTest, StatsAreAViewOverTheInjectedRegistry) {
    obs::registry reg;
    stream_config cfg = small_config(2);
    cfg.metrics_registry = &reg;
    stream_engine engine(cfg);
    engine.push(5, nth(1), 3);
    engine.push(5, nth(2));
    engine.push(6, nth(3));
    engine.push(4, nth(4));  // late
    engine.finish();
    const stream_stats stats = engine.stats();
    EXPECT_EQ(reg.get_counter("v6_stream_fed_total").value(), stats.fed);
    EXPECT_EQ(reg.get_counter("v6_stream_records_total").value(),
              stats.records);
    EXPECT_EQ(reg.get_counter("v6_stream_hits_total").value(), stats.hits);
    EXPECT_EQ(reg.get_counter("v6_stream_late_total").value(),
              stats.late_dropped);
    EXPECT_EQ(reg.get_gauge("v6_stream_sealed_day").value(),
              engine.sealed_day());
    EXPECT_EQ(
        reg.get_gauge("v6_stream_distinct_addresses").value(),
        static_cast<std::int64_t>(stats.distinct_addresses));

    const std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("v6_stream_records_total 3"), std::string::npos);
    EXPECT_NE(text.find("v6_stream_queue_depth{shard=\"0\"}"),
              std::string::npos);
    EXPECT_NE(text.find("v6_stream_seal_latency_seconds_count"),
              std::string::npos);
}

TEST(StreamMetricsTest, SealHistogramCountsOneSealPerDay) {
    obs::registry reg;
    stream_config cfg = small_config(2);
    cfg.metrics_registry = &reg;
    stream_engine engine(cfg);
    for (int day = 1; day <= 4; ++day) engine.push(day, nth(1));
    engine.finish();
    EXPECT_EQ(reg.get_counter("v6_stream_seals_total").value(), 4u);
    EXPECT_EQ(
        reg.get_histogram("v6_stream_seal_latency_seconds").count(), 4u);
    EXPECT_EQ(
        reg.get_histogram("v6_stream_report_build_seconds").count(), 4u);
}

// cfg.metrics=false keeps the core accounting exact while skipping the
// sampled per-shard series — the uninstrumented baseline the overhead
// bench compares against.
TEST(StreamMetricsTest, DisablingMetricsKeepsCountersButDropsSampledSeries) {
    obs::registry reg;
    stream_config cfg = small_config(2);
    cfg.metrics_registry = &reg;
    cfg.metrics = false;
    stream_engine engine(cfg);
    engine.push(1, nth(1));
    engine.push(2, nth(2));
    engine.finish();
    const stream_stats stats = engine.stats();
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.fed, 2u);
    const std::string text = reg.prometheus_text();
    EXPECT_NE(text.find("v6_stream_records_total 2"), std::string::npos);
    EXPECT_EQ(text.find("v6_stream_queue_depth"), std::string::npos);
    EXPECT_EQ(text.find("v6_stream_seal_latency_seconds"), std::string::npos);
}

// Engines without an injected registry must not collide: each gets a
// private one, so parallel engines (and tests) stay independent.
TEST(StreamMetricsTest, PrivateRegistriesAreIndependent) {
    stream_engine a(small_config(1));
    stream_engine b(small_config(1));
    a.push(1, nth(1));
    a.push(1, nth(2));
    b.push(1, nth(3));
    a.finish();
    b.finish();
    EXPECT_EQ(a.stats().records, 2u);
    EXPECT_EQ(b.stats().records, 1u);
    EXPECT_EQ(a.metrics().get_counter("v6_stream_records_total").value(), 2u);
    EXPECT_EQ(b.metrics().get_counter("v6_stream_records_total").value(), 1u);
}

// ------------------------------------------------------------ live series

/// A config whose daily report classifies the sealed day itself
/// (window_fwd = 0), so the live series react to a day the moment it
/// seals — what the drift tests need.
stream_config live_config(unsigned shards) {
    stream_config cfg = small_config(shards);
    cfg.stability_n = 1;
    cfg.window.window_back = 1;
    cfg.window.window_fwd = 0;
    cfg.quantile_sample = 1;  // observe every hit count; exact quantiles
    return cfg;
}

const live_series_view* find_series(const live_view& view,
                                    const std::string& name) {
    for (const live_series_view& s : view.series)
        if (s.name == name) return &s;
    return nullptr;
}

TEST(StreamLiveTest, SeriesGainOnePointPerSealedDay) {
    stream_engine engine(live_config(2));
    for (int day = 1; day <= 4; ++day)
        for (unsigned i = 0; i < 40; ++i) engine.push(day, nth(i), 1 + i % 5);
    engine.finish();
    const live_view view = engine.live();
    EXPECT_EQ(view.epoch, 4);
    const live_series_view* active = find_series(view, "active");
    ASSERT_NE(active, nullptr);
    EXPECT_EQ(active->history.size(), 4u);  // one point per sealed day
    EXPECT_EQ(active->current, 40.0);
    const live_series_view* stable = find_series(view, "stable_fraction");
    ASSERT_NE(stable, nullptr);
    EXPECT_GE(stable->current, 0.0);
    EXPECT_LE(stable->current, 1.0);
    const live_series_view* gamma1 = find_series(view, "gamma1@64");
    ASSERT_NE(gamma1, nullptr);
    EXPECT_GE(gamma1->current, 1.0);  // count ratios never shrink downward
    const live_series_view* p50 = find_series(view, "hits_p50");
    ASSERT_NE(p50, nullptr);
    EXPECT_GE(p50->current, 1.0);
    EXPECT_LE(p50->current, 5.0);
}

TEST(StreamLiveTest, SketchEstimatesTrackTheSealedDay) {
    stream_engine engine(live_config(3));
    for (int day = 1; day <= 3; ++day)
        for (unsigned i = 0; i < 200; ++i) engine.push(day, nth(i));
    engine.finish();
    const live_view view = engine.live();
    const live_series_view* est = find_series(view, "day_addrs_est");
    ASSERT_NE(est, nullptr);
    // 200 distinct /128s per day; at this range the HLL's
    // linear-counting regime is essentially exact.
    EXPECT_NEAR(est->current, 200.0, 10.0);
    const live_series_view* est64 = find_series(view, "day_64s_est");
    ASSERT_NE(est64, nullptr);
    EXPECT_NEAR(est64->current, 7.0, 1.0);  // nth() spans 7 /64s
}

TEST(StreamLiveTest, SketchesOffSkipsEstimateSeries) {
    stream_config cfg = live_config(2);
    cfg.sketches = false;
    stream_engine engine(cfg);
    engine.push(1, nth(1));
    engine.push(2, nth(2));
    engine.finish();
    const live_view view = engine.live();
    EXPECT_EQ(find_series(view, "day_addrs_est"), nullptr);
    ASSERT_NE(find_series(view, "active"), nullptr);  // derived series stay
    EXPECT_EQ(engine.stats().records, 2u);
}

TEST(StreamLiveTest, StepChangeRaisesOneDriftEventPerSeries) {
    obs::registry reg;
    obs::event_log events;
    stream_config cfg = live_config(2);
    cfg.metrics_registry = &reg;
    cfg.events = &events;
    stream_engine engine(cfg);
    // Twelve steady days of the same 50 addresses, then an addressing
    // change: 400 active addresses from day 13 on.
    for (int day = 1; day <= 12; ++day)
        for (unsigned i = 0; i < 50; ++i) engine.push(day, nth(i));
    for (int day = 13; day <= 18; ++day)
        for (unsigned i = 0; i < 400; ++i) engine.push(day, nth(i));
    engine.finish();

    EXPECT_GE(events.total(), 1u);
    EXPECT_GE(reg.get_counter("v6class_drift_events_total").value(), 1u);
    // The "active" series stepped 50 -> 400 once; fire-once
    // re-baselining means exactly one alarm despite six post-step days.
    std::size_t active_alarms = 0;
    for (const obs::event& e : events.recent(1000)) {
        EXPECT_EQ(e.kind, "drift");
        EXPECT_EQ(e.level, obs::event_level::warn);
        for (const auto& [k, v] : e.fields)
            if (k == "series" && v == "\"active\"") ++active_alarms;
    }
    EXPECT_EQ(active_alarms, 1u);
    // The alarm flag is visible on the live view while it is fresh, and
    // the gauge export carries the new level.
    EXPECT_EQ(reg.get_dgauge("v6class_active_addresses").value(), 400.0);
}

TEST(StreamLiveTest, SteadyFeedRaisesNoDriftEvents) {
    obs::event_log events;
    stream_config cfg = live_config(2);
    cfg.events = &events;
    stream_engine engine(cfg);
    for (int day = 1; day <= 20; ++day)
        for (unsigned i = 0; i < 60; ++i) engine.push(day, nth(i));
    engine.finish();
    EXPECT_EQ(events.total(), 0u);
}

// Wall-clock timing series (pool utilization, ingest IPC) move with
// scheduling, not addressing practice: they keep their history but feed
// no drift detector, so even a hair-trigger detector raises alarms over
// classification series only.
TEST(StreamLiveTest, OnlyClassificationSeriesCanAlarm) {
    obs::event_log events;
    stream_config cfg = live_config(2);
    cfg.events = &events;
    cfg.drift.z_threshold = 0;  // any change at all would alarm
    cfg.drift.min_samples = 1;
    cfg.drift.rel_sigma = 0;
    stream_engine engine(cfg);
    constexpr int kDays = 12;
    for (int day = 1; day <= kDays; ++day)
        for (unsigned i = 0; i < 60; ++i) engine.push(day, nth(i));
    engine.finish();

    const live_view view = engine.live();
    const auto timing = [](const std::string& name) {
        return name == "pool util" || name == "ingest ipc";
    };
    const live_series_view* util = find_series(view, "pool util");
    ASSERT_NE(util, nullptr);
    EXPECT_EQ(util->history.size(), static_cast<std::size_t>(kDays));
    for (const live_series_view& s : view.series)
        if (timing(s.name)) {
            EXPECT_FALSE(s.alarmed) << s.name;
        }
    for (const obs::event& e : events.recent(1000))
        for (const auto& [k, v] : e.fields)
            if (k == "series") {
                EXPECT_NE(v, "\"pool util\"");
                EXPECT_NE(v, "\"ingest ipc\"");
            }
}

TEST(StreamLiveTest, DayReportCarriesDerivedSeries) {
    stream_engine engine(live_config(2));
    for (int day = 1; day <= 2; ++day)
        for (unsigned i = 0; i < 100; ++i) engine.push(day, nth(i));
    engine.finish();
    const auto report = engine.latest_report();
    ASSERT_TRUE(report.has_value());
    EXPECT_GE(report->gamma1, 1.0);
    EXPECT_GE(report->gamma16, 1.0);
    EXPECT_GE(report->stable_fraction, 0.0);
    EXPECT_LE(report->stable_fraction, 1.0);
    EXPECT_NEAR(report->est_day_addresses, 100.0, 5.0);
}

// ------------------------------------------------ seal/tick lock order

// The daemon shape from tools/v6stream: the roll thread evaluates the
// alert rules at every seal, while a wall-clock tick thread evaluates
// them too, sampling from a live_view snapshot captured *before*
// evaluate(). Under TSan this pins the required lock order — a sampler
// that called engine.live() from inside evaluate() (under the alert
// mutex) would invert against the seal path and deadlock a concurrent
// seal and tick.
TEST(StreamAlertTest, ConcurrentSealAndTickEvaluationsDoNotDeadlock) {
    obs::registry reg;
    obs::event_log log;
    obs::alert_engine alerts(&reg, &log);
    auto rules = obs::parse_alert_rules(
        "low_active series=v6class_active_addresses below=1000000\n");
    ASSERT_TRUE(rules.has_value());
    alerts.load_rules(std::move(*rules));

    stream_config cfg = live_config(2);
    cfg.metrics_registry = &reg;
    cfg.events = &log;
    cfg.alerts = &alerts;
    stream_engine engine(cfg);

    std::atomic<bool> stop{false};
    std::thread ticker([&] {
        std::int64_t ts = 1'000'000;
        while (!stop.load(std::memory_order_relaxed)) {
            const live_view lv = engine.live(0);  // snapshot first...
            alerts.evaluate(                      // ...alert mutex second
                [&lv](const std::string& series, const std::string& label)
                    -> std::optional<double> {
                    for (const live_series_view& v : lv.series)
                        if (v.metric == series && v.label == label &&
                            !v.history.empty())
                            return v.current;
                    return std::nullopt;
                },
                ts++);
        }
    });
    constexpr int kDays = 20;
    for (int day = 0; day < kDays; ++day)
        for (unsigned i = 0; i < 200; ++i) engine.push(day, nth(i));
    engine.finish();  // seals every day: kDays seal-path evaluations
    stop.store(true);
    ticker.join();
    EXPECT_GE(alerts.evaluations(), static_cast<std::uint64_t>(kDays));
    // 200 active addresses < 1e6: firing since the first seal, and no
    // tick evaluation may have flapped it (a missing sample freezes).
    EXPECT_EQ(alerts.firing_count(), 1u);
}

}  // namespace
}  // namespace v6
