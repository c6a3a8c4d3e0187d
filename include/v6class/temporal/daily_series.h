// daily_series.h — a time-indexed collection of daily active-address sets,
// the substrate for temporal (stability) classification.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "v6class/ip/address.h"

namespace v6 {

/// Day index within a study: an integer count of days from an arbitrary
/// study epoch (day 0). The paper's "log processed date".
using day_index = int;

/// Daily sets of active addresses (or of prefixes represented by their
/// base addresses), stored sorted and deduplicated so that the stability
/// analyses can run as linear merges.
class daily_series {
public:
    /// Records the active set for `day`, replacing any previous set.
    /// The input is sorted and deduplicated (input that is already
    /// strictly ascending is kept as is, after one O(n) check); hit
    /// counts are not retained here (activity is a yes/no per day for
    /// stability purposes).
    void set_day(day_index day, std::vector<address> active);

    /// Merges `active` into the existing set for `day`.
    void merge_day(day_index day, const std::vector<address>& active);

    /// The active set for `day` (empty if never recorded), sorted unique.
    const std::vector<address>& day(day_index d) const noexcept;

    /// True when `a` was active on `d`.
    bool active_on(day_index d, const address& a) const noexcept;

    /// Number of distinct addresses active on `d`.
    std::uint64_t count(day_index d) const noexcept { return day(d).size(); }

    /// Distinct addresses active on at least one day in [from, to].
    std::vector<address> union_over(day_index from, day_index to) const;

    /// All days with a recorded (possibly empty) set, ascending.
    std::vector<day_index> days() const;

    /// Projects every day's set to /len prefixes (masked base addresses,
    /// deduplicated). project(64) turns an address series into the /64
    /// series the paper analyzes in parallel.
    daily_series project(unsigned len) const;

private:
    std::map<day_index, std::vector<address>> days_;
    static const std::vector<address> empty_;
};

/// Sorted-unique intersection of two sorted-unique address vectors — the
/// primitive behind epoch stability ("active in March 2015 and also
/// March 2014").
std::vector<address> intersect_sorted(const std::vector<address>& a,
                                      const std::vector<address>& b);

/// Sorted-unique union of two sorted-unique address vectors.
std::vector<address> union_sorted(const std::vector<address>& a,
                                  const std::vector<address>& b);

}  // namespace v6
