#include "v6class/spatial/summary.h"

#include <algorithm>

namespace v6 {

namespace {

/// End of the run of addresses sharing `sorted[i]`'s /p prefix: sorted
/// order keeps a /p block contiguous, and neighbours share the block iff
/// their common prefix reaches p.
std::size_t block_end(const std::vector<address>& sorted, std::size_t i, unsigned p) {
    std::size_t end = i + 1;
    while (end < sorted.size() && sorted[end - 1].common_prefix_length(sorted[end]) >= p)
        ++end;
    return end;
}

/// A class's dense /p blocks and the addresses inside them.
struct class_count {
    std::uint64_t dense = 0;
    std::uint64_t covered = 0;
};

// n = 0 and p > 128 select nothing, as in radix_tree::dense_prefixes_at.
bool selects_nothing(std::uint64_t n, unsigned p) { return n == 0 || p > 128; }

/// First index of the block holding index `q`, searching no lower than
/// `floor`: `in(k)` holds on [first, q] and fails just below it. Gallops
/// down from q, then bisects the last step, so the cost is the log of
/// the distance, not of the run.
template <typename InBlock>
std::size_t gallop_down(std::size_t floor, std::size_t q, InBlock in) {
    std::size_t inside = q;  // in(inside) holds
    std::size_t step = 1;
    while (inside - floor >= step && in(inside - step)) {
        inside -= step;
        step *= 2;
    }
    std::size_t a = inside - floor >= step ? inside - step + 1 : floor;
    std::size_t b = inside;  // the answer lies in [a, b]
    while (a < b) {
        const std::size_t mid = a + (b - a) / 2;
        if (in(mid)) b = mid;
        else a = mid + 1;
    }
    return a;
}

/// One past the last index of the block holding index `q`, below `size`;
/// the mirror of gallop_down.
template <typename InBlock>
std::size_t gallop_up(std::size_t q, std::size_t size, InBlock in) {
    std::size_t inside = q;  // in(inside) holds
    std::size_t step = 1;
    while (step < size - inside && in(inside + step)) {
        inside += step;
        step *= 2;
    }
    std::size_t a = inside + 1;
    std::size_t b = std::min(inside + step, size);  // the answer lies in [a, b]
    while (a < b) {
        const std::size_t mid = a + (b - a) / 2;
        if (in(mid)) a = mid + 1;
        else b = mid;
    }
    return a;
}

/// What class n@/p gains when the fresh addresses at positions `at`
/// (ascending) of the merged run `run` joined the lifetime set.
class_count fold_class(const std::vector<address>& run,
                      const std::vector<std::size_t>& at, std::uint64_t n,
                      unsigned p) {
    class_count gain;
    if (selects_nothing(n, p)) return gain;
    std::size_t floor = 0;  // end of the last block counted
    for (std::size_t j = 0; j < at.size();) {
        // The /p block around the group's first address, found by
        // galloping out from its position: every address of the block
        // shares its /p prefix, and the block starts at or after the
        // previous block's end.
        const address& first = run[at[j]];
        const auto in = [&](std::size_t k) {
            return run[k].common_prefix_length(first) >= p;
        };
        const std::size_t lo = gallop_down(floor, at[j], in);
        const std::size_t hi = gallop_up(at[j], run.size(), in);
        std::size_t end = j + 1;
        while (end < at.size() && at[end] < hi) ++end;
        // The block's size after the fold; before it, the block held the
        // same addresses minus this group.
        const std::uint64_t after = hi - lo;
        const std::uint64_t added = end - j;
        const std::uint64_t before = after - added;
        if (before >= n) {
            gain.covered += added;
        } else if (after >= n) {  // crosses n-1 -> n
            ++gain.dense;
            gain.covered += after;
        }
        floor = hi;
        j = end;
    }
    return gain;
}

/// Class n@/p over all of `run`: one sweep of its /p blocks.
class_count sweep_class(const std::vector<address>& run, std::uint64_t n, unsigned p) {
    class_count total;
    if (selects_nothing(n, p)) return total;
    for (std::size_t i = 0; i < run.size();) {
        const std::size_t end = block_end(run, i, p);
        if (end - i >= n) {
            ++total.dense;
            total.covered += end - i;
        }
        i = end;
    }
    return total;
}

}  // namespace

spatial_summary::spatial_summary(std::vector<density_class> classes) {
    classes_.reserve(classes.size());
    for (const auto& [n, p] : classes) classes_.push_back({n, p});
}

void spatial_summary::fold(const std::vector<const std::vector<address>*>& parts) {
    std::size_t added = 0;
    for (const std::vector<address>* part : parts) added += part->size();
    if (added == 0) return;

    // Merge from the back, in place: only the tail from the first
    // insertion point moves. Each step places the largest unmerged fresh
    // address (the parts are disjoint, so their last addresses never
    // tie); `at` records where every fresh address lands, ascending.
    std::vector<std::size_t> left(parts.size());  // unmerged length per part
    for (std::size_t k = 0; k < parts.size(); ++k) left[k] = parts[k]->size();
    std::vector<std::size_t> at(added);
    std::size_t i = run_.size();
    run_.resize(run_.size() + added);
    std::size_t w = run_.size();
    for (std::size_t j = added; j > 0;) {
        std::size_t top = parts.size();
        for (std::size_t k = 0; k < parts.size(); ++k)
            if (left[k] > 0 && (top == parts.size() ||
                                (*parts[top])[left[top] - 1] < (*parts[k])[left[k] - 1]))
                top = k;
        const address& f = (*parts[top])[--left[top]];
        while (i > 0 && f < run_[i - 1]) run_[--w] = run_[--i];
        run_[--w] = f;
        at[--j] = w;
    }

    // Neighbour pairs: each maximal group of fresh addresses inserted at
    // one position replaces the pair (L, R) around it with the chain
    // L, f1, ..., fk, R.
    for (std::size_t j = 0; j < added;) {
        std::size_t end = j + 1;
        while (end < added && at[end] == at[end - 1] + 1) ++end;
        const std::size_t first = at[j];
        const std::size_t last = at[end - 1];
        const bool has_left = first > 0;
        const bool has_right = last + 1 < run_.size();
        if (has_left && has_right)
            --cpl_hist_[run_[first - 1].common_prefix_length(run_[last + 1])];
        const std::size_t chain_end = has_right ? last + 1 : last;
        for (std::size_t q = has_left ? first - 1 : first; q < chain_end; ++q)
            ++cpl_hist_[run_[q].common_prefix_length(run_[q + 1])];
        j = end;
    }

    for (class_state& c : classes_) {
        const class_count gain = fold_class(run_, at, c.n, c.p);
        c.dense += gain.dense;
        c.covered += gain.covered;
    }
}

mra_series spatial_summary::mra() const {
    return mra_series::from_cpl_histogram(cpl_hist_, run_.empty());
}

std::vector<density_row> spatial_summary::density_table(
    const std::vector<density_class>& classes) const {
    std::vector<density_row> rows;
    rows.reserve(classes.size());
    for (const auto& [n, p] : classes) {
        const auto kept = std::find_if(
            classes_.begin(), classes_.end(),
            [&](const class_state& c) { return c.n == n && c.p == p; });
        const class_count c = kept != classes_.end()
                                 ? class_count{kept->dense, kept->covered}
                                 : sweep_class(run_, n, p);
        rows.push_back(make_density_row(n, p, c.dense, c.covered));
    }
    return rows;
}

}  // namespace v6
