#include "v6class/stream/shard.h"

#include "v6class/simd/kernels.h"

namespace v6 {

void stream_shard::prepare_seal() {
    fresh_.clear();
    if (staged_.empty()) return;  // a day with no records for this shard

    // Sort + dedupe on the SoA lanes (radix-partitioned on the hi word);
    // (hi, lo) numeric order is byte-lexicographic address order, so the
    // result is exactly std::sort + std::unique on the addresses.
    simd::sort_unique_block(staged_);

    // First-ever sightings, in address order; the /128 store's lifetime
    // map is the dedup authority.
    prepared_.reserve(staged_.size());
    for (std::size_t i = 0; i < staged_.size(); ++i) {
        const address a = staged_.at(i);
        prepared_.push_back(a);
        if (!store128_.contains(a)) fresh_.push_back(a);
    }
    // Release the staging lanes rather than keep their capacity: a
    // shard holds one copy of its day, not two.
    staged_ = simd::address_block{};
}

void stream_shard::apply_seal(int day) {
    hits_ += pending_hits_;
    pending_hits_ = 0;
    if (prepared_.empty()) return;
    store128_.record_day(day, prepared_);
    series_.set_day(day, std::move(prepared_));  // already sorted: kept as is
    prepared_ = {};
}

}  // namespace v6
