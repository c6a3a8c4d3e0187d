// shard.h — one shard of the streaming ingest engine's state.
//
// The engine hashes each record's address into a shard; a shard
// therefore owns a disjoint subset of the /128 address space, which is
// what makes the per-address analyses (distinct counts, stability,
// lifetime spectra) exactly mergeable: summing per-shard answers equals
// the unsharded answer. Anything keyed by a *coarser* unit straddles
// shards — prefix density and MRA come from the engine's lifetime
// spatial summary, folded from every shard's first-seen addresses at
// seal time, and the projected (/64) observation store lives in the
// engine too — because two addresses of one /64 routinely hash to
// different shards, so per-shard projected counts would double-count.
//
// A day seal has two steps. prepare_seal() turns the staged records
// into the sorted day set and finds its first-ever sightings; it only
// reads sealed state, so the shard's worker runs it, in parallel with
// the other shards, before it reports the day drained. apply_seal()
// writes the prepared day into sealed state; the engine's roll thread
// runs it inside its exclusive section.
//
// Concurrency contract (enforced by stream_engine, not by this class):
// `buffer` and `prepare_seal` are called only by the shard's worker
// thread, `apply_seal` only by the roll thread while that worker is
// parked at the seal marker; the engine's drained/applied handshake
// orders the two. Sealed-state readers are serialized against
// apply_seal by the engine's epoch machinery. Nothing here locks.
#pragma once

#include <cstdint>
#include <vector>

#include "v6class/simd/address_block.h"
#include "v6class/stream/record.h"
#include "v6class/temporal/daily_series.h"
#include "v6class/temporal/observation_store.h"
#include "v6class/temporal/stability.h"

namespace v6 {

class stream_shard {
public:
    stream_shard() : store128_(128) {}

    /// Stages one record of the in-progress day. Sealed state is not
    /// touched until apply_seal.
    void buffer(const stream_record& r) {
        staged_.push_back(r.addr);
        pending_hits_ += r.hits;
    }

    /// Prepares the staged day for its seal: sorts and dedupes the
    /// staged records into the day set and sets fresh() to the
    /// addresses the lifetime store has never seen. Reads sealed state,
    /// writes none. Staged records all belong to one day (the engine
    /// broadcasts a seal marker before any newer-day record is
    /// enqueued).
    void prepare_seal();

    /// Seals `day`: records the prepared day set in the observation
    /// store and the daily series. No sort and no copy of the set.
    void apply_seal(int day);

    // ----- sealed-state queries (epoch-consistent under the engine) ----

    std::size_t distinct_addresses() const noexcept { return store128_.distinct_count(); }
    std::uint64_t hits() const noexcept { return hits_; }

    const daily_series& series() const noexcept { return series_; }
    const observation_store& store() const noexcept { return store128_; }

    /// This shard's slice of the windowed nd-stable split for `ref_day`.
    stability_split classify_day(int ref_day, unsigned n,
                                 const stability_options& opt) const {
        return stability_analyzer(series_, opt).classify_day(ref_day, n);
    }

    /// This shard's slice of the lifetime spectrum (span >= n).
    std::vector<std::uint64_t> spectrum(unsigned max_n) const {
        return store128_.stability_spectrum(max_n);
    }

    /// Addresses first seen on the day being sealed, sorted: what the
    /// engine folds into its lifetime spatial summary. Set by
    /// prepare_seal, valid until the next one.
    const std::vector<address>& fresh() const noexcept { return fresh_; }

private:
    simd::address_block staged_;        // staged records of the open day
    std::uint64_t pending_hits_ = 0;
    std::vector<address> prepared_;     // the day set, between prepare and apply
    std::vector<address> fresh_;        // first-seen addresses of the day

    daily_series series_;               // per-day active sets (sealed days)
    observation_store store128_;        // lifetime state at /128
    std::uint64_t hits_ = 0;
};

}  // namespace v6
