// metrics.h — the process observability substrate: a registry of named
// counters, gauges, and fixed-bucket histograms.
//
// Design constraints (this layer sits on the ingest hot path):
//   * Handles, not lookups. Instrumented code interns a (name, labels)
//     pair once — typically at construction — and keeps a small handle.
//     The hot path is then one relaxed atomic RMW; it never hashes a
//     string, never allocates, never takes the registry mutex.
//   * Null-safe handles. A default-constructed handle is a no-op, so
//     instrumentation can be compiled in unconditionally and disabled
//     per subsystem (cf. stream_config::metrics) without a second code
//     path.
//   * Pointer-stable storage. Series live in a deque owned by the
//     registry; handles stay valid for the registry's lifetime, across
//     any number of later registrations.
//
// Naming scheme (see DESIGN.md "Observability"): v6_<subsystem>_<name>,
// unit-suffixed — `_total` for counters, `_seconds` for time histograms.
// Labels are few and low-cardinality (e.g. shard="3").
//
// Histogram buckets are HALF-OPEN: bucket i counts observations v with
// bound[i-1] <= v < bound[i]; the implicit last bucket is [bound[n-1],
// +Inf). (Prometheus's text format presents cumulative `le` buckets;
// the exporter converts. The in-memory semantics are half-open.)
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace v6::obs {

/// Label set of one time series: ordered (key, value) pairs.
using label_list = std::vector<std::pair<std::string, std::string>>;

enum class metric_kind { counter, gauge, histogram };

namespace detail {

/// Storage of one time series. Lives in the registry's deque; handles
/// point here. All mutable fields are atomics — the hot path writes
/// with relaxed ordering (counters are monotone and independently
/// meaningful; exporters read a live, slightly-torn-across-series view,
/// which is what scrapers expect).
struct series {
    std::string name;
    std::string help;
    metric_kind kind = metric_kind::counter;
    label_list labels;
    bool fp = false;  // gauge only: value holds double bits (dgauge)

    std::atomic<std::int64_t> value{0};  // counter / gauge

    // Histogram only: per-bucket counts (bounds.size() + 1 cells, the
    // last is the +Inf overflow), total count, and sum of observations
    // (a double accumulated through its bit pattern).
    std::vector<double> bounds;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_bits{0};

    void observe(double v) noexcept {
        std::size_t i = 0;
        while (i < bounds.size() && v >= bounds[i]) ++i;  // half-open: v < bound
        buckets[i].fetch_add(1, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
        std::uint64_t old = sum_bits.load(std::memory_order_relaxed);
        std::uint64_t desired;
        do {
            desired = std::bit_cast<std::uint64_t>(std::bit_cast<double>(old) + v);
        } while (!sum_bits.compare_exchange_weak(old, desired,
                                                 std::memory_order_relaxed));
    }

    double sum() const noexcept {
        return std::bit_cast<double>(sum_bits.load(std::memory_order_relaxed));
    }
};

}  // namespace detail

/// Monotonically increasing count. inc() is one relaxed fetch_add.
class counter {
public:
    counter() = default;
    void inc(std::uint64_t n = 1) const noexcept {
        if (s_) s_->value.fetch_add(static_cast<std::int64_t>(n),
                                    std::memory_order_relaxed);
    }
    std::uint64_t value() const noexcept {
        return s_ ? static_cast<std::uint64_t>(
                        s_->value.load(std::memory_order_relaxed))
                  : 0;
    }
    explicit operator bool() const noexcept { return s_ != nullptr; }

private:
    friend class registry;
    explicit counter(detail::series* s) noexcept : s_(s) {}
    detail::series* s_ = nullptr;
};

/// Point-in-time signed value (queue depth, epoch, lag).
class gauge {
public:
    gauge() = default;
    void set(std::int64_t v) const noexcept {
        if (s_) s_->value.store(v, std::memory_order_relaxed);
    }
    void add(std::int64_t d) const noexcept {
        if (s_) s_->value.fetch_add(d, std::memory_order_relaxed);
    }
    /// Ratchets the gauge up to v (high-water marks).
    void max_of(std::int64_t v) const noexcept {
        if (!s_) return;
        std::int64_t cur = s_->value.load(std::memory_order_relaxed);
        while (cur < v && !s_->value.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }
    std::int64_t value() const noexcept {
        return s_ ? s_->value.load(std::memory_order_relaxed) : 0;
    }
    explicit operator bool() const noexcept { return s_ != nullptr; }

private:
    friend class registry;
    explicit gauge(detail::series* s) noexcept : s_(s) {}
    detail::series* s_ = nullptr;
};

/// Point-in-time double value (ratios, fractions, estimates). Exported
/// as a Prometheus gauge; stored through its bit pattern in the same
/// atomic an integer gauge uses.
class dgauge {
public:
    dgauge() = default;
    void set(double v) const noexcept {
        if (s_) s_->value.store(std::bit_cast<std::int64_t>(v),
                                std::memory_order_relaxed);
    }
    double value() const noexcept {
        return s_ ? std::bit_cast<double>(
                        s_->value.load(std::memory_order_relaxed))
                  : 0.0;
    }
    explicit operator bool() const noexcept { return s_ != nullptr; }

private:
    friend class registry;
    explicit dgauge(detail::series* s) noexcept : s_(s) {}
    detail::series* s_ = nullptr;
};

/// Fixed-bucket distribution. observe() touches two atomics plus a CAS
/// loop for the sum; no allocation, no locks.
class histogram {
public:
    histogram() = default;
    void observe(double v) const noexcept {
        if (s_) s_->observe(v);
    }
    std::uint64_t count() const noexcept {
        return s_ ? s_->count.load(std::memory_order_relaxed) : 0;
    }
    double sum() const noexcept { return s_ ? s_->sum() : 0.0; }
    /// Count of bucket i (i == bounds().size() is the +Inf overflow).
    std::uint64_t bucket_count(std::size_t i) const noexcept {
        return s_ ? s_->buckets[i].load(std::memory_order_relaxed) : 0;
    }
    const std::vector<double>& bounds() const noexcept {
        static const std::vector<double> empty;
        return s_ ? s_->bounds : empty;
    }
    explicit operator bool() const noexcept { return s_ != nullptr; }

private:
    friend class registry;
    explicit histogram(detail::series* s) noexcept : s_(s) {}
    detail::series* s_ = nullptr;
};

/// Default bucket bounds for latency histograms: 1us .. ~10s,
/// roughly x4 per bucket.
std::vector<double> latency_buckets();

/// A set of named time series. get_* interns (name, labels) under the
/// registry mutex and returns a stable handle; repeated registration of
/// the same pair returns the same series (so "get" is the right verb).
/// Exporters walk all series in registration order.
class registry {
public:
    registry() = default;
    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;

    counter get_counter(const std::string& name, label_list labels = {},
                        const std::string& help = "");
    gauge get_gauge(const std::string& name, label_list labels = {},
                    const std::string& help = "");
    /// A gauge that stores and exports a double (count ratios, sketch
    /// estimates). A (name, labels) pair is either integer or double
    /// for the registry's lifetime; like histogram bounds, first wins.
    dgauge get_dgauge(const std::string& name, label_list labels = {},
                      const std::string& help = "");
    /// `bounds` must be strictly ascending; an empty list gets
    /// latency_buckets(). Re-registration ignores `bounds` (first wins).
    histogram get_histogram(const std::string& name,
                            std::vector<double> bounds = {},
                            label_list labels = {},
                            const std::string& help = "");

    /// Prometheus text exposition (version 0.0.4): HELP/TYPE per metric
    /// name, cumulative le-labelled histogram buckets.
    std::string prometheus_text() const;

    /// Structured JSON dump: {"metrics":[{name,type,labels,...}]}.
    /// Counters/gauges carry "value"; histograms carry "count", "sum",
    /// and per-bucket {"le","count"} (le of the overflow is "+Inf").
    std::string json_text() const;

    /// Writes prometheus_text() when `path` ends in ".prom", else
    /// json_text(); atomically, via tmp-file + rename, so a crash or a
    /// concurrent reader never observes a truncated dump. Returns false
    /// when the file cannot be written.
    bool write_file(const std::string& path) const;

    /// Number of registered series (for tests).
    std::size_t size() const;

    /// The process-wide registry: library phase timers and every tool's
    /// --metrics-out dump go here. Never destroyed, so threads still
    /// running during static destruction can keep updating it.
    static registry& global();

private:
    detail::series* intern(const std::string& name, metric_kind kind,
                           label_list labels, const std::string& help,
                           std::vector<double> bounds, bool fp = false);

    mutable std::mutex mutex_;
    std::deque<detail::series> series_;  // deque: handles stay valid
};

}  // namespace v6::obs
