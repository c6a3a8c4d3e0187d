#include "v6class/temporal/daily_series.h"

#include <algorithm>
#include <functional>

namespace v6 {

const std::vector<address> daily_series::empty_{};

namespace {

void sort_unique(std::vector<address>& v) {
    // Input that is already strictly ascending (a sealed day set from the
    // stream engine) costs one O(n) check, not a sort.
    if (std::adjacent_find(v.begin(), v.end(), std::greater_equal<>{}) == v.end())
        return;
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

void daily_series::set_day(day_index day, std::vector<address> active) {
    sort_unique(active);
    days_[day] = std::move(active);
}

void daily_series::merge_day(day_index day, const std::vector<address>& active) {
    auto it = days_.find(day);
    if (it == days_.end()) {
        set_day(day, active);
        return;
    }
    std::vector<address> incoming = active;
    sort_unique(incoming);
    it->second = union_sorted(it->second, incoming);
}

const std::vector<address>& daily_series::day(day_index d) const noexcept {
    auto it = days_.find(d);
    return it == days_.end() ? empty_ : it->second;
}

bool daily_series::active_on(day_index d, const address& a) const noexcept {
    const auto& set = day(d);
    return std::binary_search(set.begin(), set.end(), a);
}

std::vector<address> daily_series::union_over(day_index from, day_index to) const {
    std::vector<address> out;
    for (auto it = days_.lower_bound(from); it != days_.end() && it->first <= to; ++it)
        out.insert(out.end(), it->second.begin(), it->second.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::vector<day_index> daily_series::days() const {
    std::vector<day_index> out;
    out.reserve(days_.size());
    for (const auto& [d, _] : days_) out.push_back(d);
    return out;
}

daily_series daily_series::project(unsigned len) const {
    daily_series out;
    for (const auto& [d, set] : days_) {
        std::vector<address> cut;
        cut.reserve(set.size());
        for (const address& a : set) cut.push_back(a.masked(len));
        out.set_day(d, std::move(cut));
    }
    return out;
}

std::vector<address> intersect_sorted(const std::vector<address>& a,
                                      const std::vector<address>& b) {
    std::vector<address> out;
    out.reserve(std::min(a.size(), b.size()));
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
}

std::vector<address> union_sorted(const std::vector<address>& a,
                                  const std::vector<address>& b) {
    std::vector<address> out;
    out.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
    return out;
}

}  // namespace v6
