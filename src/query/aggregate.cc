#include "query/aggregate.h"

#include <algorithm>
#include <numeric>

namespace apc {

Interval SumInterval(const std::vector<QueryItem>& items) {
  Interval total(0.0, 0.0);
  for (const auto& item : items) total = total + item.interval;
  return total;
}

Interval MaxInterval(const std::vector<QueryItem>& items) {
  if (items.empty()) return Interval(0.0, 0.0);
  Interval result = items.front().interval;
  for (size_t i = 1; i < items.size(); ++i) {
    result = Interval::Max(result, items[i].interval);
  }
  return result;
}

Interval MinInterval(const std::vector<QueryItem>& items) {
  if (items.empty()) return Interval(0.0, 0.0);
  Interval result = items.front().interval;
  for (size_t i = 1; i < items.size(); ++i) {
    result = Interval::Min(result, items[i].interval);
  }
  return result;
}

Interval AvgInterval(const std::vector<QueryItem>& items) {
  if (items.empty()) return Interval(0.0, 0.0);
  Interval sum = SumInterval(items);
  double n = static_cast<double>(items.size());
  return Interval(sum.lo() / n, sum.hi() / n);
}

void SumRefreshSelectionInto(const std::vector<QueryItem>& items,
                             double constraint, std::vector<size_t>* out) {
  out->clear();
  // Result width is the sum of item widths, so refreshing an item removes
  // exactly its width. Selecting widest-first minimizes the number of
  // (equal-cost) refreshes needed to bring the total under the constraint.
  // Each width is computed once; the sort and the greedy walk read the
  // thread-local copy.
  static thread_local std::vector<double> widths;
  widths.resize(items.size());
  double finite_total = 0.0;
  size_t unbounded = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    double w = items[i].interval.Width();
    widths[i] = w;
    if (w == kInfinity) {
      ++unbounded;
    } else {
      finite_total += w;
    }
  }
  // The snapshot already satisfies the constraint: nothing to pull, and
  // no order to establish.
  if (unbounded == 0 && finite_total <= constraint) return;

  static thread_local std::vector<size_t> order;
  order.resize(items.size());
  std::iota(order.begin(), order.end(), size_t{0});
  // std::sort with an explicit index tiebreak reproduces stable_sort's
  // order (width descending, ties in item order) without stable_sort's
  // internal temporary buffer — the read hot path must not allocate.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (widths[a] != widths[b]) return widths[a] > widths[b];
    return a < b;
  });

  for (size_t idx : order) {
    if (unbounded == 0 && finite_total <= constraint) break;
    double w = widths[idx];
    if (w == 0.0) break;  // only exact items remain; nothing left to shrink
    out->push_back(idx);
    if (w == kInfinity) {
      --unbounded;
    } else {
      finite_total -= w;
    }
  }
}

std::vector<size_t> SumRefreshSelection(const std::vector<QueryItem>& items,
                                        double constraint) {
  std::vector<size_t> selection;
  SumRefreshSelectionInto(items, constraint, &selection);
  return selection;
}

void AvgRefreshSelectionInto(const std::vector<QueryItem>& items,
                             double constraint, std::vector<size_t>* out) {
  SumRefreshSelectionInto(
      items, constraint * static_cast<double>(items.size()), out);
}

std::vector<size_t> AvgRefreshSelection(const std::vector<QueryItem>& items,
                                        double constraint) {
  return SumRefreshSelection(items,
                             constraint * static_cast<double>(items.size()));
}

int NextMaxRefreshCandidate(const std::vector<QueryItem>& items,
                            double constraint) {
  if (items.empty()) return -1;
  double max_lo = -kInfinity;
  double max_hi = -kInfinity;
  for (const auto& item : items) {
    max_lo = std::max(max_lo, item.interval.lo());
    max_hi = std::max(max_hi, item.interval.hi());
  }
  double width = (max_hi == kInfinity || max_lo == -kInfinity)
                     ? kInfinity
                     : max_hi - max_lo;
  if (width <= constraint) return -1;

  // Refresh the non-exact item with the largest upper endpoint: it defines
  // the result's upper bound, and learning its exact value either lowers
  // max_hi or raises max_lo. Items with hi <= max_lo can never be chosen —
  // they are eliminated as MAX candidates by the cached intervals alone.
  int best = -1;
  double best_hi = -kInfinity;
  double best_width = -1.0;
  for (size_t i = 0; i < items.size(); ++i) {
    const Interval& iv = items[i].interval;
    if (iv.IsExact()) continue;
    double w = iv.Width();
    if (iv.hi() > best_hi ||
        (iv.hi() == best_hi && w > best_width)) {
      best = static_cast<int>(i);
      best_hi = iv.hi();
      best_width = w;
    }
  }
  return best;
}

int NextMinRefreshCandidate(const std::vector<QueryItem>& items,
                            double constraint) {
  if (items.empty()) return -1;
  double min_lo = kInfinity;
  double min_hi = kInfinity;
  for (const auto& item : items) {
    min_lo = std::min(min_lo, item.interval.lo());
    min_hi = std::min(min_hi, item.interval.hi());
  }
  double width = (min_lo == -kInfinity || min_hi == kInfinity)
                     ? kInfinity
                     : min_hi - min_lo;
  if (width <= constraint) return -1;

  // Refresh the non-exact item with the smallest lower endpoint: it
  // defines the result's lower bound. Items with lo >= min_hi can never be
  // the minimum and are never chosen.
  int best = -1;
  double best_lo = kInfinity;
  double best_width = -1.0;
  for (size_t i = 0; i < items.size(); ++i) {
    const Interval& iv = items[i].interval;
    if (iv.IsExact()) continue;
    double w = iv.Width();
    if (iv.lo() < best_lo || (iv.lo() == best_lo && w > best_width)) {
      best = static_cast<int>(i);
      best_lo = iv.lo();
      best_width = w;
    }
  }
  return best;
}

}  // namespace apc
