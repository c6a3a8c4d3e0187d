#include "v6class/spatial/density.h"

#include <algorithm>
#include <cmath>

#include "v6class/obs/timer.h"
#include "v6class/par/pool.h"

namespace v6 {

density_row make_density_row(std::uint64_t n, unsigned p,
                             std::uint64_t dense_prefix_count,
                             std::uint64_t covered_addresses) {
    density_row row;
    row.n = n;
    row.p = p;
    row.dense_prefix_count = dense_prefix_count;
    row.covered_addresses = covered_addresses;
    row.possible_addresses =
        static_cast<long double>(row.dense_prefix_count) *
        std::ldexp(1.0L, static_cast<int>(128 - p));
    row.address_density = row.possible_addresses > 0
                              ? static_cast<long double>(row.covered_addresses) /
                                    row.possible_addresses
                              : 0.0L;
    return row;
}

density_row compute_density_class(const radix_tree& tree, std::uint64_t n, unsigned p) {
    const std::vector<dense_prefix> dense = tree.dense_prefixes_at(n, p);
    std::uint64_t covered = 0;
    for (const dense_prefix& d : dense) covered += d.observed;
    return make_density_row(n, p, dense.size(), covered);
}

std::vector<density_row> compute_density_table(
    const radix_tree& tree,
    const std::vector<std::pair<std::uint64_t, unsigned>>& classes) {
    static const obs::histogram phase = obs::registry::global().get_histogram(
        "v6_spatial_density_table_seconds", obs::latency_buckets(), {},
        "Time to compute every configured n@/p density class over a trie.");
    const obs::trace_scope span("density_table", phase);
    // Classes are independent reads of one immutable trie; fan them out
    // and keep the rows in class order (slot per index → deterministic).
    return par::map_indexed<density_row>(classes.size(), [&](std::size_t i) {
        return compute_density_class(tree, classes[i].first, classes[i].second);
    });
}

std::vector<address> addresses_covered(const std::vector<dense_prefix>& dense,
                                       std::vector<address> candidates) {
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    std::vector<address> out;
    // Both lists are in address order; sweep them together.
    std::size_t di = 0;
    for (const address& a : candidates) {
        while (di < dense.size() && dense[di].pfx.last_address() < a) ++di;
        if (di < dense.size() && dense[di].pfx.contains(a)) out.push_back(a);
    }
    return out;
}

std::vector<address> expand_scan_targets(const std::vector<dense_prefix>& dense,
                                         std::size_t limit) {
    std::vector<address> out;
    for (const dense_prefix& d : dense) {
        if (d.pfx.length() < 96) continue;  // > 2^32 hosts: not scannable
        const std::uint64_t span = std::uint64_t{1}
                                   << (128 - d.pfx.length() > 63
                                           ? 63
                                           : 128 - d.pfx.length());
        const std::uint64_t base_lo = d.pfx.base().lo();
        const std::uint64_t hi = d.pfx.base().hi();
        for (std::uint64_t off = 0; off < span; ++off) {
            if (out.size() >= limit) return out;
            out.push_back(address::from_pair(hi, base_lo | off));
        }
    }
    return out;
}

}  // namespace v6
