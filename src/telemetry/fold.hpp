// Deterministic pairwise tree reduction — the merge shape of the driver's
// interval fold of the lanes' busy seconds.
//
// For integer tallies any order works; for floating-point accumulators
// (lane busy seconds) association order changes the rounding, so the shape
// of the reduction *is* part of the determinism contract.  tree_fold fixes
// that shape as a function of n alone: [lo, hi) always splits at
// lo + (hi - lo) / 2, giving an O(log n) critical path when the leaves are
// expensive and — more importantly — an association order that no caller
// can accidentally vary with the thread count or the horizon split.
#pragma once

#include <cstddef>
#include <functional>

namespace p2sim::telemetry {

namespace detail {

template <typename Leaf, typename Merge>
auto tree_fold_range(std::size_t lo, std::size_t hi, const Leaf& leaf,
                     const Merge& merge) -> decltype(leaf(std::size_t{0})) {
  if (hi - lo == 1) return leaf(lo);
  const std::size_t mid = lo + (hi - lo) / 2;
  return merge(tree_fold_range(lo, mid, leaf, merge),
               tree_fold_range(mid, hi, leaf, merge));
}

}  // namespace detail

/// Reduces leaf(0) .. leaf(n-1) with `merge` in the fixed pairwise tree
/// shape described above.  `leaf(i)` produces the i-th value; `merge(a, b)`
/// combines two subtree results (a is always the lower index range).
/// Returns a value-initialized result when n == 0.
template <typename Leaf, typename Merge>
auto tree_fold(std::size_t n, const Leaf& leaf, const Merge& merge)
    -> decltype(leaf(std::size_t{0})) {
  using Acc = decltype(leaf(std::size_t{0}));
  if (n == 0) return Acc{};
  return detail::tree_fold_range(0, n, leaf, merge);
}

}  // namespace p2sim::telemetry
