// micro_trace_overhead — cost of the execution tracer on the two hot
// paths the acceptance criteria name: streaming ingest (1M records
// through the sharded engine) and trie densify (1M addresses). Each
// pair runs the identical pipeline with the tracer disabled (/0) and
// enabled (/1); the /1 rate must stay within 3% of /0, and the
// disabled-span primitives at the bottom price the /0 residue (a
// relaxed load + branch, sub-nanosecond). The pmu pair prices
// obs::pmu_scope the same way (two perf read(2)s per batch when armed;
// the same relaxed load + branch when not). Dumps BENCH_trace.json via
// the shared registry reporter.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_gbench.h"
#include "v6class/netgen/iid.h"
#include "v6class/netgen/rng.h"
#include "v6class/obs/pmu.h"
#include "v6class/obs/trace.h"
#include "v6class/stream/engine.h"
#include "v6class/trie/radix_tree.h"

namespace {

using namespace v6;

/// Flips the tracer for the duration of one benchmark run and restores
/// the disabled state (discarding the rings) afterwards, so benchmarks
/// cannot observe each other's spans.
class tracer_toggle {
public:
    explicit tracer_toggle(bool enabled) {
        if (enabled) obs::tracer::enable();
    }
    ~tracer_toggle() { obs::tracer::reset(); }
};

/// Same idea for pmu_scope collection; restores the prior state so the
/// other benchmarks keep whatever run_gbench_main armed.
class pmu_toggle {
public:
    explicit pmu_toggle(bool on) : was_(obs::pmu::enabled()) {
        if (on)
            obs::pmu::enable();
        else
            obs::pmu::disable();
    }
    ~pmu_toggle() {
        if (was_)
            obs::pmu::enable();
        else
            obs::pmu::disable();
    }

private:
    bool was_;
};

std::vector<stream_record> make_feed(std::size_t per_day, int days,
                                     std::uint64_t seed) {
    rng r{seed};
    std::vector<address> pool;
    pool.reserve(per_day / 2);
    for (std::size_t i = 0; i < per_day / 2; ++i) {
        const std::uint64_t hi = 0x20010db800000000ull | r.uniform(1u << 10);
        const std::uint64_t lo = r.uniform(1u << 20);
        pool.push_back(address::from_pair(hi, lo));
    }
    std::vector<stream_record> feed;
    feed.reserve(per_day * static_cast<std::size_t>(days));
    for (int d = 0; d < days; ++d)
        for (std::size_t i = 0; i < per_day; ++i)
            feed.push_back({d, pool[r.uniform(pool.size())], 1 + r.uniform(4)});
    return feed;
}

std::vector<address> make_addresses(std::size_t n, std::uint64_t seed) {
    rng r{seed};
    std::vector<address> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t hi = 0x20010db800000000ull | r.uniform(1u << 14);
        const std::uint64_t lo =
            r.chance(0.6) ? privacy_iid(r()) : r.uniform(1u << 12);
        out.push_back(address::from_pair(hi, lo));
    }
    return out;
}

// Arg(0): 1 = tracer enabled, 0 = disabled. 1M records through the
// 4-shard engine — the span-per-batch + queue-wait-per-batch path.
void BM_stream_ingest_trace(benchmark::State& state) {
    const auto feed = make_feed(250000, 4, 99);
    const tracer_toggle toggle(state.range(0) != 0);
    for (auto _ : state) {
        stream_config cfg;
        cfg.shards = 4;
        cfg.metrics = false;  // isolate the tracer from the metrics cost
        stream_engine engine(cfg);
        for (const stream_record& rec : feed) engine.push(rec);
        engine.finish();
        benchmark::DoNotOptimize(engine.stats().distinct_addresses);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(feed.size()) *
                            state.iterations());
    state.SetLabel(state.range(0) ? "traced" : "untraced");
}
BENCHMARK(BM_stream_ingest_trace)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Arg(0): 1 = pmu_scope deltas collected, 0 = off. The identical
// 1M-record ingest with the tracer quiet, so the pair isolates the
// counter-scope cost on shard.ingest_batch/shard.prepare_seal/par.task. The
// acceptance bar (scripts/check.sh): /1 within 5% of /0. Where no PMU
// is exposed the scopes no-op and the pair measures the same code.
void BM_stream_ingest_pmu(benchmark::State& state) {
    const auto feed = make_feed(250000, 4, 99);
    const tracer_toggle quiet(false);
    const pmu_toggle toggle(state.range(0) != 0);
    for (auto _ : state) {
        stream_config cfg;
        cfg.shards = 4;
        cfg.metrics = false;
        stream_engine engine(cfg);
        for (const stream_record& rec : feed) engine.push(rec);
        engine.finish();
        benchmark::DoNotOptimize(engine.stats().distinct_addresses);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(feed.size()) *
                            state.iterations());
    state.SetLabel(state.range(0) ? "pmu" : "no-pmu");
}
BENCHMARK(BM_stream_ingest_pmu)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Arg(0) as above. Densify over a 1M-address trie wrapped in one span —
// a long span over a hot kernel, the worst case for per-span cost
// amortisation being irrelevant and the best case for the disabled
// branch predictor.
void BM_densify_trace(benchmark::State& state) {
    const auto addrs = make_addresses(1000000, 4);
    radix_tree t;
    for (const address& a : addrs) t.add(a);
    const tracer_toggle toggle(state.range(0) != 0);
    for (auto _ : state) {
        const obs::span span("bench.densify");
        benchmark::DoNotOptimize(t.densify(2, 112));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(addrs.size()) *
                            state.iterations());
    state.SetLabel(state.range(0) ? "traced" : "untraced");
}
BENCHMARK(BM_densify_trace)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The primitives in isolation: a disabled span is one relaxed load and
// a branch; an enabled span adds two clock reads and a seqlock write
// into the calling thread's ring.
void BM_span_disabled(benchmark::State& state) {
    const tracer_toggle toggle(false);
    for (auto _ : state) {
        const obs::span span("bench.noop");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_span_disabled);

void BM_span_enabled(benchmark::State& state) {
    const tracer_toggle toggle(true);
    for (auto _ : state) {
        const obs::span span("bench.hot");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_span_enabled);

void BM_pmu_scope_disabled(benchmark::State& state) {
    const pmu_toggle toggle(false);
    for (auto _ : state) {
        const obs::pmu_scope scope("bench.pmu_noop");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_pmu_scope_disabled);

void BM_pmu_scope_enabled(benchmark::State& state) {
    // Two group read(2)s per scope where the probe succeeded; identical
    // to the disabled case where it did not.
    const pmu_toggle toggle(true);
    for (auto _ : state) {
        const obs::pmu_scope scope("bench.pmu_hot");
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_pmu_scope_enabled);

void BM_context_scope_enabled(benchmark::State& state) {
    const tracer_toggle toggle(true);
    const obs::span root("bench.root");
    for (auto _ : state) {
        const obs::context_scope adopt(root.context());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_context_scope_enabled);

}  // namespace

int main(int argc, char** argv) {
    return v6::bench::run_gbench_main(argc, argv, "BENCH_trace.json");
}
