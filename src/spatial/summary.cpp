#include "v6class/spatial/summary.h"

#include <algorithm>

#include "v6class/ip/prefix.h"

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

/// What class n@/p gains when `fresh` joins the lifetime set; `run` is
/// the merged set, `fresh` sorted and now part of it.
class_count fold_class(const std::vector<address>& run,
                      const std::vector<address>& fresh, std::uint64_t n,
                      unsigned p) {
    class_count gain;
    if (selects_nothing(n, p)) return gain;
    for (std::size_t j = 0; j < fresh.size();) {
        const std::size_t end = block_end(fresh, j, p);
        // The block's size after the fold, from the merged run; before
        // it, the block held the same addresses minus this group.
        const prefix block{fresh[j], p};
        const auto lo = std::lower_bound(run.begin(), run.end(), block.base());
        const auto hi = std::upper_bound(lo, run.end(), block.last_address());
        const auto after = static_cast<std::uint64_t>(hi - lo);
        const std::uint64_t added = end - j;
        const std::uint64_t before = after - added;
        if (before >= n) {
            gain.covered += added;
        } else if (after >= n) {  // crosses n-1 -> n
            ++gain.dense;
            gain.covered += after;
        }
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

void spatial_summary::fold(const std::vector<address>& fresh) {
    if (fresh.empty()) return;
    const std::size_t old_size = run_.size();

    // Neighbour pairs, against the old run: each maximal group of fresh
    // addresses inserted at one position replaces the pair (L, R) around
    // that position with the chain L, f1, ..., fk, R.
    std::size_t pos = 0;
    for (std::size_t j = 0; j < fresh.size();) {
        pos = static_cast<std::size_t>(
            std::lower_bound(run_.begin() + static_cast<std::ptrdiff_t>(pos),
                             run_.end(), fresh[j]) -
            run_.begin());
        std::size_t end = j + 1;
        while (end < fresh.size() && (pos == old_size || fresh[end] < run_[pos])) ++end;
        const bool has_left = pos > 0;
        const bool has_right = pos < old_size;
        if (has_left && has_right)
            --cpl_hist_[run_[pos - 1].common_prefix_length(run_[pos])];
        if (has_left) ++cpl_hist_[run_[pos - 1].common_prefix_length(fresh[j])];
        for (std::size_t i = j; i + 1 < end; ++i)
            ++cpl_hist_[fresh[i].common_prefix_length(fresh[i + 1])];
        if (has_right) ++cpl_hist_[fresh[end - 1].common_prefix_length(run_[pos])];
        j = end;
    }

    // Merge from the back, in place: only the tail from the first
    // insertion point moves.
    run_.resize(old_size + fresh.size());
    std::size_t i = old_size;
    std::size_t j = fresh.size();
    std::size_t w = run_.size();
    while (j > 0) {
        if (i > 0 && fresh[j - 1] < run_[i - 1])
            run_[--w] = run_[--i];
        else
            run_[--w] = fresh[--j];
    }

    for (class_state& c : classes_) {
        const class_count gain = fold_class(run_, fresh, c.n, c.p);
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
