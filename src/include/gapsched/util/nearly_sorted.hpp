#pragma once
// Sorting for sequences that usually arrive close to sorted order.
//
// Scenario generators emit jobs roughly in time order, and a schedule read
// in the canonical (release-sorted) job order has its times roughly in
// order too: each element sits a few places from where it belongs. A
// `poly_scale:2000` draw has about 300 inversions among 2000 jobs, and
// std::sort takes about six times as long on it as one insertion pass.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>

namespace gapsched {

/// Sorts [first, last) ascending by operator< (elements that compare equal
/// may end in either order, as with std::sort). One insertion pass handles
/// input with few inversions in O(n + inversions); once its moves exceed
/// the length, the rest is left to std::sort, so any input stays
/// O(n log n) and a shuffled one pays only the first few dozen insertions
/// extra.
template <typename RandomIt>
void sort_nearly_sorted(RandomIt first, RandomIt last) {
  const auto n = static_cast<std::size_t>(std::distance(first, last));
  std::size_t budget = n;
  for (RandomIt i = first; i != last; ++i) {
    if (i == first || !(*i < *std::prev(i))) continue;
    auto value = std::move(*i);
    RandomIt hole = i;
    do {
      if (budget == 0) {
        *hole = std::move(value);
        std::sort(first, last);
        return;
      }
      --budget;
      *hole = std::move(*std::prev(hole));
      --hole;
    } while (hole != first && value < *std::prev(hole));
    *hole = std::move(value);
  }
}

}  // namespace gapsched
