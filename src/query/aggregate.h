#ifndef APC_QUERY_AGGREGATE_H_
#define APC_QUERY_AGGREGATE_H_

#include <vector>

#include "core/interval.h"

namespace apc {

/// Aggregate kinds over cached interval approximations, in the style of
/// the TRAPP bounded-aggregate queries [OW00]. The paper's workload (§4.1)
/// uses SUM and MAX; MIN (symmetric to MAX) and AVG (a scaled SUM) round
/// out the usual aggregate set.
enum class AggregateKind {
  kSum,
  kMax,
  kMin,
  kAvg,
};

/// One value accessed by a query: the source id and the interval the cache
/// currently holds for it (the unbounded interval when the value is not
/// cached at all).
struct QueryItem {
  int source_id = 0;
  Interval interval;
};

/// A query over a set of source values with a precision constraint: the
/// result interval's width must not exceed `constraint`.
struct Query {
  AggregateKind kind = AggregateKind::kSum;
  std::vector<int> source_ids;
  double constraint = 0.0;
};

/// Tightest interval guaranteed to contain the exact SUM: the Minkowski sum
/// of the item intervals. Its width is the sum of the item widths.
Interval SumInterval(const std::vector<QueryItem>& items);

/// Tightest interval guaranteed to contain the exact MAX:
/// [max_i lo_i, max_i hi_i].
Interval MaxInterval(const std::vector<QueryItem>& items);

/// Tightest interval guaranteed to contain the exact MIN:
/// [min_i lo_i, min_i hi_i].
Interval MinInterval(const std::vector<QueryItem>& items);

/// Tightest interval guaranteed to contain the exact AVG: the SUM interval
/// scaled by 1/n. Empty input yields [0, 0].
Interval AvgInterval(const std::vector<QueryItem>& items);

/// Chooses which items to refresh so that, once the chosen items are
/// replaced by exact values, the SUM interval's width is at most
/// `constraint`. Greedy widest-first, which refreshes the minimum possible
/// number of items (every refresh removes that item's full width from the
/// result and all refreshes cost the same Cqr). Returns indices into
/// `items`.
std::vector<size_t> SumRefreshSelection(const std::vector<QueryItem>& items,
                                        double constraint);

/// Allocation-free form of SumRefreshSelection: clears and fills `*out`
/// instead of returning a fresh vector, and keeps each item's width and
/// the sort order in thread-local scratch — with a caller-reused `*out`,
/// the steady state performs zero heap allocations (the read hot path's
/// contract; enforced by tests/alloc_free_read_test.cc). When the snapshot
/// already satisfies `constraint` it returns before sorting. Selection
/// order is identical to SumRefreshSelection's.
void SumRefreshSelectionInto(const std::vector<QueryItem>& items,
                             double constraint, std::vector<size_t>* out);

/// Iterative candidate selection for bounded MAX. Returns the index of the
/// next item to refresh, or -1 when the MAX interval already satisfies
/// `constraint`. The chosen item is the non-exact item with the largest
/// upper endpoint — the one currently determining the result's upper bound.
/// Items whose upper endpoint is below the result's lower bound are never
/// chosen (candidate elimination, which is why approximate caching helps
/// MAX even for exact-precision queries; paper §4.4/§4.6).
///
/// Caller contract: after refreshing the returned item, replace its
/// interval with the exact value and call again; each call strictly shrinks
/// the result interval, so the loop terminates.
int NextMaxRefreshCandidate(const std::vector<QueryItem>& items,
                            double constraint);

/// Mirror of NextMaxRefreshCandidate for bounded MIN: returns the index of
/// the non-exact item with the smallest lower endpoint, or -1 when the MIN
/// interval already satisfies `constraint`. Items whose lower endpoint is
/// above the result's upper bound are eliminated as candidates.
int NextMinRefreshCandidate(const std::vector<QueryItem>& items,
                            double constraint);

/// Refresh selection for bounded AVG: an AVG constraint of `constraint`
/// is exactly a SUM constraint of constraint * items.size().
std::vector<size_t> AvgRefreshSelection(const std::vector<QueryItem>& items,
                                        double constraint);

/// Allocation-free form of AvgRefreshSelection (see SumRefreshSelectionInto).
void AvgRefreshSelectionInto(const std::vector<QueryItem>& items,
                             double constraint, std::vector<size_t>* out);

}  // namespace apc

#endif  // APC_QUERY_AGGREGATE_H_
