#include "core/interval.h"

#include <cmath>
#include <sstream>

namespace apc {

Interval Interval::Centered(double center, double width) {
  if (width == kInfinity) return Unbounded();
  double half = 0.5 * width;
  return Interval(center - half, center + half);
}

Interval Interval::Uncentered(double value, double lower_width,
                              double upper_width) {
  double lo = (lower_width == kInfinity) ? -kInfinity : value - lower_width;
  double hi = (upper_width == kInfinity) ? kInfinity : value + upper_width;
  return Interval(lo, hi);
}

double Interval::Precision() const {
  double w = Width();
  if (w == 0.0) return kInfinity;
  if (w == kInfinity) return 0.0;
  return 1.0 / w;
}

Interval Interval::Shifted(double delta) const {
  return Interval(lo_ + delta, hi_ + delta);
}

Interval Interval::Inflated(double amount) const {
  double lo = lo_ - amount;
  double hi = hi_ + amount;
  if (lo > hi) {
    double c = Center();
    return Interval(c, c);
  }
  return Interval(lo, hi);
}

std::string Interval::ToString() const {
  std::ostringstream os;
  os << "[" << lo_ << ", " << hi_ << "]";
  return os.str();
}

}  // namespace apc
