#ifndef APC_CORE_INTERVAL_H_
#define APC_CORE_INTERVAL_H_

#include <algorithm>
#include <string>
#include <utility>

#include "util/mathutil.h"

namespace apc {

/// A closed numeric interval [lo, hi] used as an approximation of an exact
/// value V. The approximation is *valid* while lo <= V <= hi (paper §2).
/// Precision is the reciprocal of the width: a zero-width interval is an
/// exact copy (infinite precision); an infinite-width interval carries no
/// information (zero precision) and models "effectively not cached".
class Interval {
 public:
  /// Constructs the degenerate interval [0, 0].
  Interval() : lo_(0.0), hi_(0.0) {}

  /// Constructs [lo, hi]. Requires lo <= hi (checked with assert semantics
  /// via Normalize in debug; swapped silently otherwise to preserve the
  /// no-exceptions contract).
  Interval(double lo, double hi) : lo_(lo), hi_(hi) {
    if (lo_ > hi_) std::swap(lo_, hi_);
  }

  /// Interval of width `width` centered on `center`. An infinite width
  /// produces the unbounded interval (-inf, +inf).
  static Interval Centered(double center, double width);

  /// Interval around `value` with independent lower and upper extents:
  /// [value - lower_width, value + upper_width]. Used by the uncentered
  /// variant of the algorithm (paper §4.5).
  static Interval Uncentered(double value, double lower_width,
                             double upper_width);

  /// The exact copy of `value`: [value, value].
  static Interval Exact(double value) { return Interval(value, value); }

  /// The interval (-inf, +inf): zero precision.
  static Interval Unbounded() { return Interval(-kInfinity, kInfinity); }

  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Width hi - lo; infinite for the unbounded interval.
  double Width() const {
    if (lo_ == -kInfinity || hi_ == kInfinity) return kInfinity;
    return hi_ - lo_;
  }

  /// Midpoint; only meaningful for bounded intervals.
  double Center() const { return 0.5 * (lo_ + hi_); }

  /// Precision as defined by the paper: 1 / width. Infinite for exact
  /// copies, zero for the unbounded interval.
  double Precision() const;

  /// Validity test Valid([L,H], V): true iff lo <= v <= hi.
  bool Contains(double v) const { return lo_ <= v && v <= hi_; }

  /// True iff every point of `other` lies inside this interval.
  bool Contains(const Interval& other) const {
    return lo_ <= other.lo_ && other.hi_ <= hi_;
  }

  /// True iff the two intervals share at least one point.
  bool Overlaps(const Interval& other) const {
    return lo_ <= other.hi_ && other.lo_ <= hi_;
  }

  bool IsExact() const { return lo_ == hi_ && IsFinite(lo_); }
  bool IsUnbounded() const { return Width() == kInfinity; }

  /// Minkowski sum: [a.lo + b.lo, a.hi + b.hi]. The width of the sum is the
  /// sum of the widths, which is what makes bounded-SUM refresh selection
  /// a covering problem (see query/aggregate.h).
  Interval operator+(const Interval& other) const {
    return Interval(lo_ + other.lo_, hi_ + other.hi_);
  }

  /// Interval max: [max(a.lo, b.lo), max(a.hi, b.hi)] — the tightest
  /// interval guaranteed to contain max(Va, Vb).
  static Interval Max(const Interval& a, const Interval& b) {
    return Interval(std::max(a.lo_, b.lo_), std::max(a.hi_, b.hi_));
  }

  /// Interval min: [min(a.lo, b.lo), min(a.hi, b.hi)].
  static Interval Min(const Interval& a, const Interval& b) {
    return Interval(std::min(a.lo_, b.lo_), std::min(a.hi_, b.hi_));
  }

  /// Translates both endpoints by delta.
  Interval Shifted(double delta) const;

  /// Symmetrically grows (positive amount) or shrinks each side; the result
  /// never inverts (collapses to the center point at most).
  Interval Inflated(double amount) const;

  bool operator==(const Interval& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_;
  }
  bool operator!=(const Interval& other) const { return !(*this == other); }

  /// Renders "[lo, hi]".
  std::string ToString() const;

 private:
  double lo_;
  double hi_;
};

}  // namespace apc

#endif  // APC_CORE_INTERVAL_H_
