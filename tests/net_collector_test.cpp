// The UDP collector end to end over loopback: a wire capture sent as
// real datagrams must land in the stream engine with the exact same
// sealed-day reports as pushing the records directly (the "network
// transparency" property), malformed datagrams must be counted and
// contained, and a SIGHUP-style enrichment reload under sustained
// ingest must drop nothing.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "v6class/net/collector.h"
#include "v6class/net/replay.h"
#include "v6class/netgen/rng.h"

namespace v6 {
namespace {

constexpr int kFirstDay = 100;
constexpr int kLastDay = 110;
constexpr unsigned kPerDay = 2000;

std::vector<stream_record> make_feed() {
    std::vector<stream_record> feed;
    feed.reserve((kLastDay - kFirstDay + 1) * kPerDay);
    rng r{20150317};
    for (int day = kFirstDay; day <= kLastDay; ++day)
        for (unsigned i = 0; i < kPerDay; ++i) {
            const std::uint64_t high = 0x20010db800000000ull + (i % 64);
            const std::uint64_t low = mix64(i % 500);
            feed.push_back(
                {day, address::from_pair(high, low), 1 + r.uniform(5)});
        }
    return feed;
}

stream_config small_config() {
    stream_config cfg;
    cfg.shards = 2;
    cfg.batch_size = 256;
    cfg.queue_capacity = 16;
    return cfg;
}

/// Spins until the collector has accepted `want` records (the sender
/// returned, so everything is at least in the loopback socket buffer).
void wait_for_records(const net::udp_collector& collector, std::uint64_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (collector.stats().records < want &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(collector.stats().records, want);
}

void expect_same_reports(const std::vector<day_report>& got,
                         const std::vector<day_report>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("report " + std::to_string(i));
        EXPECT_EQ(got[i].day, want[i].day);
        EXPECT_EQ(got[i].ref_day, want[i].ref_day);
        EXPECT_EQ(got[i].active, want[i].active);
        EXPECT_EQ(got[i].stable, want[i].stable);
        EXPECT_EQ(got[i].not_stable, want[i].not_stable);
        EXPECT_EQ(got[i].distinct_addresses, want[i].distinct_addresses);
        EXPECT_EQ(got[i].distinct_projected, want[i].distinct_projected);
        ASSERT_EQ(got[i].density.size(), want[i].density.size());
        for (std::size_t j = 0; j < got[i].density.size(); ++j) {
            EXPECT_EQ(got[i].density[j].dense_prefix_count,
                      want[i].density[j].dense_prefix_count);
            EXPECT_EQ(got[i].density[j].covered_addresses,
                      want[i].density[j].covered_addresses);
        }
        EXPECT_EQ(got[i].gamma1, want[i].gamma1);
        EXPECT_EQ(got[i].gamma4, want[i].gamma4);
        EXPECT_EQ(got[i].gamma16, want[i].gamma16);
        EXPECT_EQ(got[i].stable_fraction, want[i].stable_fraction);
    }
}

TEST(Collector, LoopbackMatchesDirectPushExactly) {
    const std::vector<stream_record> feed = make_feed();
    const std::string capture = testing::TempDir() + "collector_e2e.v6w";
    ASSERT_TRUE(net::write_wire_file(capture, feed).has_value());

    // Reference: the same records pushed straight into an engine.
    stream_engine direct(small_config());
    for (const stream_record& r : feed) direct.push(r);
    direct.finish();

    // Network path: capture -> UDP datagrams -> collector -> engine.
    stream_engine engine(small_config());
    net::collector_config ccfg;
    ccfg.bind = "::1";
    net::udp_collector collector(engine, ccfg);
    std::string error;
    ASSERT_TRUE(collector.start(&error)) << error;
    ASSERT_NE(collector.port(), 0);

    const net::replay_result sent =
        net::send_wire_file(capture, "::1", collector.port());
    ASSERT_TRUE(sent.ok()) << sent.error;
    EXPECT_EQ(sent.records, feed.size());

    wait_for_records(collector, feed.size());
    collector.stop();
    EXPECT_FALSE(collector.running());
    engine.finish();

    const net::collector_stats cs = collector.stats();
    EXPECT_EQ(cs.datagrams, sent.datagrams);
    EXPECT_EQ(cs.bytes, sent.bytes);
    EXPECT_EQ(cs.decode.rejected(), 0u);
    EXPECT_EQ(cs.decode.seq_gaps, 0u) << "loopback must not lose datagrams";

    expect_same_reports(engine.reports(), direct.reports());
    const stream_snapshot a = engine.snapshot();
    const stream_snapshot b = direct.snapshot();
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.distinct_addresses, b.distinct_addresses);
    EXPECT_EQ(a.spectrum, b.spectrum);
}

TEST(Collector, MalformedDatagramsAreCountedAndContained) {
    stream_engine engine(small_config());
    net::collector_config ccfg;
    ccfg.bind = "::1";
    net::udp_collector collector(engine, ccfg);
    std::string error;
    ASSERT_TRUE(collector.start(&error)) << error;

    const int fd = ::socket(AF_INET6, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in6 dst{};
    dst.sin6_family = AF_INET6;
    dst.sin6_port = htons(collector.port());
    dst.sin6_addr = in6addr_loopback;

    const std::uint8_t junk[64] = {'j', 'u', 'n', 'k'};
    for (int i = 0; i < 10; ++i)
        ASSERT_EQ(::sendto(fd, junk, sizeof junk, 0,
                           reinterpret_cast<const sockaddr*>(&dst), sizeof dst),
                  static_cast<ssize_t>(sizeof junk));
    // One valid datagram after the garbage proves the decoder recovers.
    net::wire_encoder enc;
    const std::vector<stream_record> one = {
        {kFirstDay, address::from_pair(0x20010db8ull << 32, 1), 1}};
    std::vector<std::uint8_t> datagram;
    enc.encode(one.data(), one.size(), datagram);
    ASSERT_EQ(::sendto(fd, datagram.data(), datagram.size(), 0,
                       reinterpret_cast<const sockaddr*>(&dst), sizeof dst),
              static_cast<ssize_t>(datagram.size()));
    ::close(fd);

    wait_for_records(collector, 1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (collector.stats().decode.bad_magic < 10 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    collector.stop();
    engine.finish();

    const net::collector_stats cs = collector.stats();
    EXPECT_EQ(cs.decode.bad_magic, 10u);
    EXPECT_EQ(cs.decode.rejected(), 10u);
    EXPECT_EQ(cs.records, 1u);
    EXPECT_EQ(engine.stats().records, 1u);
}

// The acceptance criterion: reload the enrichment db repeatedly while
// the collector ingests at full speed; every sent record must be
// accepted and accounted by the ledger — zero drops across the swaps.
TEST(Collector, EnrichmentReloadUnderIngestDropsNothing) {
    const std::vector<stream_record> feed = make_feed();
    const std::string capture = testing::TempDir() + "collector_reload.v6w";
    ASSERT_TRUE(net::write_wire_file(capture, feed).has_value());

    const std::string db_path = testing::TempDir() + "collector_reload.db";
    const auto db_entry = [](std::uint32_t asn) {
        return net::enrich_entry{prefix::must_parse("2001:db8::/32"),
                                 {asn, {'a', 'a'}}};
    };
    ASSERT_TRUE(net::write_asn_db(db_path, {db_entry(111)}));
    net::enrichment enrich(db_path);
    ASSERT_TRUE(enrich.reload());
    net::asn_ledger ledger;

    stream_engine engine(small_config());
    net::collector_config ccfg;
    ccfg.bind = "::1";
    net::udp_collector collector(engine, ccfg, &enrich, &ledger);
    std::string error;
    ASSERT_TRUE(collector.start(&error)) << error;

    std::atomic<bool> done{false};
    std::thread sender([&] {
        const net::replay_result sent =
            net::send_wire_file(capture, "::1", collector.port());
        EXPECT_TRUE(sent.ok()) << sent.error;
        done = true;
    });
    // The SIGHUP storm: swap generations as fast as the builds allow
    // for the whole duration of the send.
    std::uint64_t reloads = 0;
    while (!done.load()) {
        ASSERT_TRUE(net::write_asn_db(db_path, {db_entry(reloads % 2 ? 222 : 111)}));
        ASSERT_TRUE(enrich.reload());
        ++reloads;
    }
    sender.join();
    EXPECT_GT(reloads, 0u);

    wait_for_records(collector, feed.size());
    collector.stop();
    engine.finish();

    EXPECT_EQ(collector.stats().decode.rejected(), 0u);
    EXPECT_EQ(engine.stats().records, feed.size());
    // Every record was enriched against *some* complete snapshot: the
    // ledger saw all of them and the covering /32 matched every one.
    EXPECT_EQ(ledger.matched(), feed.size());
    EXPECT_EQ(ledger.unmatched(), 0u);
}

// A consumer that drains each day's ASN rows as soon as the day's report
// returns (v6stream --listen drains on a short timer) must find every
// row: the datagram whose first next-day record seals a day also
// carries that day's last rows, and the ledger must hold them before
// the seal can complete.
TEST(Collector, LedgerHoldsEveryRowOfADayWhenItsReportReturns) {
    constexpr int kDays = 40;
    constexpr unsigned kDayRecords = 300;
    constexpr std::size_t kDatagram = 256;  // straddles most day boundaries
    stream_config cfg = small_config();
    cfg.batch_size = 16;
    cfg.queue_capacity = 1;
    stream_engine engine(cfg);
    net::asn_ledger ledger;

    std::vector<std::uint64_t> drained(kDays, 0);
    std::thread drainer([&] {
        for (int k = 0; k < kDays; ++k) {
            if (!engine.wait_for_report(kFirstDay + k)) return;
            for (const net::asn_row& row : ledger.take_day(kFirstDay + k))
                drained[k] += row.records;
        }
    });
    simd::record_block block(kDatagram);
    for (int k = 0; k < kDays; ++k)
        for (unsigned i = 0; i < kDayRecords; ++i) {
            block.push_back(0x20010db800000000ull + (i % 64), mix64(k * kDayRecords + i),
                            kFirstDay + k, 1);
            if (block.size() == kDatagram) {
                net::ingest_block(engine, block, nullptr, &ledger);
                block.clear();
            }
        }
    if (!block.empty()) net::ingest_block(engine, block, nullptr, &ledger);
    engine.finish();
    drainer.join();
    for (int k = 0; k < kDays; ++k)
        EXPECT_EQ(drained[k], kDayRecords) << "day " << kFirstDay + k;
}

}  // namespace
}  // namespace v6
