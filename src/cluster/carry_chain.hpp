// Exact integer replay of a floating-point carry chain.
//
// Node's residual accumulators (take_whole) and the DMA engine's
// pending-byte counters (DmaEngine::harvest) each run, once per slice,
//     x += a1; x += a2; k = floor(x / m); x -= k * m;
// For a run of identical slices that is the recurrence x <- (x + a) mod m.
// Let u be the spacing of the doubles in the binade of m + a, 2^(e-52).
// If x, every add and m are multiples of u, and x + a < 2^53 u for every x
// in [0, m), then every floating-point operation of the step is exact:
//   - the sums are multiples of u below 2^53 u, so representable;
//   - floor(s) and s - floor(s) are always exact for m = 1;
//   - for any m, k = floor(fl(s / m)) equals floor(s / m): if s / m is not
//     an integer, the next integer k' has k' m - s >= u (both are
//     multiples of u), so s / m <= k' - u / m, while fl() moves s / m by
//     at most half an ulp, <= (s / m) 2^-53 < u / m; so fl(s / m) < k' and
//     the floor cannot round up.  Then k m and s - k m are multiples of u
//     below 2^53 u, so exact too.
// A whole bytes-per-transfer such as the default 48 is a multiple of every
// u here (u <= 1, since m + a < 2^53 is required), so for it only x and the
// adds have to be on the grid.  In units of u a slice is X <- (X + A) mod M
// and takes floor(A / M) plus a carry of 0 or 1 (as X < M), so n slices
// take floor((X + n A) / M) and leave its remainder.  Nothing here depends
// on where the run starts: a value that enters the grid before the first
// slice makes every slice of the run exact, the first one included.
#pragma once

#include <bit>
#include <cstdint>

#include "src/check/annotate.hpp"

namespace p2sim::cluster {

/// The grid of the carry chain x <- (x + a1 + a2) mod m: u, the adds and m
/// in integer units of u.  It depends only on the adds and m, so a run of
/// identical slices builds it once; the carried value x enters it through
/// enter() and leaves through value().  exact() is false, and the chain
/// must not be replayed, when an add or m is off the grid: an add that is
/// not a multiple of u (an add below the grid's spacing, or one whose sum
/// with m crosses into the next binade), m + a outside [1, 2^53), or m
/// itself not a multiple of u.  A bytes-per-transfer like 41.6 is a
/// multiple of 2^-47, so it is on the grid while m + a stays below 64 and
/// off it once an add takes m + a past 64.
class CarryGrid {
 public:
  /// The longest run take() accepts: with a start below 2^53 units and
  /// adds below 2^53 units per slice, 256 slices keep every unit sum below
  /// 2^62.
  static constexpr std::uint64_t kMaxSlices = 256;

  /// A grid nothing is on: exact() is false.
  CarryGrid() = default;

  P2SIM_PAR_SAFE CarryGrid(double a1, double a2, double m) {
    const double top = m + a1 + a2;
    if (!(top >= 1.0 && top < 0x1p53)) return;
    // top in [2^e, 2^(e+1)) with 0 <= e <= 52: u = 2^(e - 52) <= 1.
    const std::uint64_t e_biased = std::bit_cast<std::uint64_t>(top) >> 52;
    u_ = std::bit_cast<double>((e_biased - 52) << 52);
    inv_u_ = std::bit_cast<double>((2 * 1023 + 52 - e_biased) << 52);
    std::uint64_t a1_units = 0;
    std::uint64_t a2_units = 0;
    exact_ = units(a1, a1_units) && units(a2, a2_units) && units(m, m_) &&
             m_ > 0 && m_ + a1_units + a2_units <= (std::uint64_t{1} << 53);
    a_ = a1_units + a2_units;
    // A residual's m = 1 is a power-of-two number of units: shift, not
    // divide.
    shift_ = std::has_single_bit(m_) ? std::countr_zero(m_) : -1;
  }

  P2SIM_PAR_SAFE bool exact() const { return exact_; }

  /// A carried value in units: true when the grid is exact and `x` is a
  /// multiple of u in [0, m).
  P2SIM_PAR_SAFE bool enter(double x, std::uint64_t& x_units) const {
    return exact_ && units(x, x_units) && x_units < m_;
  }

  /// The whole count that `slices` (at most kMaxSlices) more slices take
  /// out of the chain at `x` (in units): floor((x + slices * a) / m).
  /// Leaves the remainder in `x`.
  P2SIM_PAR_SAFE std::uint64_t take(std::uint64_t& x,
                                    std::uint64_t slices) const {
    const std::uint64_t sum = x + slices * a_;
    const std::uint64_t whole = shift_ >= 0 ? sum >> shift_ : sum / m_;
    x = sum - whole * m_;
    return whole;
  }

  /// The whole count of a slice without a carry: floor(a / m).
  P2SIM_PAR_SAFE std::uint64_t base() const {
    return shift_ >= 0 ? a_ >> shift_ : a_ / m_;
  }
  /// Whether every slice takes exactly base(): a is a multiple of m, so
  /// x never carries.
  P2SIM_PAR_SAFE bool steady() const { return a_ == base() * m_; }

  /// The carried value of `x` units.
  P2SIM_PAR_SAFE double value(std::uint64_t x) const {
    return static_cast<double>(static_cast<std::int64_t>(x)) * u_;
  }

 private:
  /// v / u when v is a non-negative multiple of u below 2^53 u that the
  /// units give back bit for bit (so not -0.0, and not a v whose product
  /// with 1 / u fell below the subnormal range).
  P2SIM_PAR_SAFE bool units(double v, std::uint64_t& out) const {
    const double q = v * inv_u_;
    if (!(q >= 0.0 && q < 0x1p53)) return false;
    const auto n = static_cast<std::int64_t>(q);
    out = static_cast<std::uint64_t>(n);
    return std::bit_cast<std::uint64_t>(static_cast<double>(n) * u_) ==
           std::bit_cast<std::uint64_t>(v);
  }

  bool exact_ = false;
  int shift_ = 0;  ///< log2(m_) when m_ is a power of two, else -1
  double u_ = 0.0;
  double inv_u_ = 0.0;
  std::uint64_t a_ = 0;  ///< one slice's adds, in units
  std::uint64_t m_ = 1;  ///< modulus, in units
};

}  // namespace p2sim::cluster
