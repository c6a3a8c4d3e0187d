#include "v6class/stream/shard.h"

#include "v6class/simd/kernels.h"

namespace v6 {

void stream_shard::seal_day(int day) {
    hits_ += pending_hits_;
    pending_hits_ = 0;
    fresh_.clear();
    if (pending_.empty()) return;  // a day with no records for this shard

    // Sort + dedupe on the SoA lanes (radix-partitioned on the hi word);
    // (hi, lo) numeric order is byte-lexicographic address order, so the
    // result is exactly std::sort + std::unique on the address vector.
    simd::address_block block(pending_.size());
    block.assign(pending_);
    simd::sort_unique_block(block);

    // First-ever sightings, in block (address) order; the /128 store's
    // lifetime map is the dedup authority.
    for (std::size_t i = 0; i < block.size(); ++i) {
        const address a = block.at(i);
        if (store128_.days_seen(a) == 0) fresh_.push_back(a);
    }

    store128_.record_day(day, block);
    pending_.clear();
    block.append_to(pending_);
    series_.set_day(day, std::move(pending_));
    pending_ = {};
}

}  // namespace v6
