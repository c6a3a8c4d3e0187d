// summary.h — the lifetime spatial summary: a sorted distinct /128 set
// kept together with everything the paper's spatial classes need
// (Section 5.2), folded forward one batch of first-seen addresses at a
// time instead of rebuilt from the whole set.
//
// Both spatial classes have exact forms over a sorted distinct set:
//
//   MRA      n_p = 1 + #{adjacent pairs with cpl < p}, so a 129-bucket
//            histogram of adjacent common-prefix lengths yields every
//            aggregate count. Inserting a group of addresses between
//            two old neighbours L and R removes the pair (L, R) and adds
//            the pairs (L, f1), (f1, f2), ..., (fk, R).
//   density  a /p block is dense for n@/p when it holds at least n
//            addresses. A block growing from `before` to `after`
//            addresses crosses the class when before < n <= after (one
//            more dense prefix, `after` more covered addresses); a block
//            already dense just adds its new addresses to the coverage.
//
// A fold therefore costs a merge of the run plus, per folded class,
// O(k log b) for k fresh addresses in /p blocks of up to b addresses
// (each block's extent is found by galloping out from where its fresh
// addresses landed, not by a search of the whole run). Queries of the
// configured classes and of the MRA counts cost O(1) in the lifetime
// size. The answers are the same as the trie-backed
// compute_density_table / compute_mra_from_trie over the same set.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "v6class/ip/address.h"
#include "v6class/spatial/density.h"
#include "v6class/spatial/mra.h"

namespace v6 {

class spatial_summary {
public:
    using density_class = std::pair<std::uint64_t, unsigned>;  ///< (n, p)

    /// `classes` are the n@/p classes kept folded; any other class is
    /// still answered by density_table(), with one sweep of the run.
    explicit spatial_summary(std::vector<density_class> classes = {});

    /// Merges the fresh addresses of `parts` into the lifetime set, as
    /// if their union had been folded. Precondition: every part is
    /// sorted and unique, and the parts are disjoint from each other and
    /// from addresses() (the stream engine passes one first-seen list
    /// per shard; shards partition the address space).
    void fold(const std::vector<const std::vector<address>*>& parts);

    /// The lifetime distinct set, sorted.
    const std::vector<address>& addresses() const noexcept { return run_; }
    std::size_t size() const noexcept { return run_.size(); }

    /// Aggregate counts n_0..n_128 of the lifetime set.
    mra_series mra() const;

    /// Table-3 rows for `classes`, in order.
    std::vector<density_row> density_table(
        const std::vector<density_class>& classes) const;

private:
    struct class_state {
        std::uint64_t n = 0;
        unsigned p = 0;
        std::uint64_t dense = 0;    ///< /p blocks holding >= n addresses
        std::uint64_t covered = 0;  ///< addresses inside those blocks
    };

    std::vector<address> run_;
    std::array<std::uint64_t, 129> cpl_hist_{};  ///< [c] = adjacent pairs with cpl c
    std::vector<class_state> classes_;
};

}  // namespace v6
