#include "query/aggregate.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace apc {
namespace {

std::vector<QueryItem> Items(std::initializer_list<Interval> intervals) {
  std::vector<QueryItem> items;
  int id = 0;
  for (const Interval& iv : intervals) items.push_back({id++, iv});
  return items;
}

// ---------------------------------------------------------------------------
// Aggregate intervals
// ---------------------------------------------------------------------------

TEST(SumIntervalTest, AddsEndpoints) {
  auto items = Items({Interval(1, 3), Interval(10, 14)});
  Interval s = SumInterval(items);
  EXPECT_DOUBLE_EQ(s.lo(), 11.0);
  EXPECT_DOUBLE_EQ(s.hi(), 17.0);
}

TEST(SumIntervalTest, EmptyIsZero) {
  EXPECT_EQ(SumInterval({}), Interval(0, 0));
}

TEST(MaxIntervalTest, TakesMaxOfEndpoints) {
  auto items = Items({Interval(0, 5), Interval(3, 4), Interval(-10, 2)});
  Interval m = MaxInterval(items);
  EXPECT_DOUBLE_EQ(m.lo(), 3.0);
  EXPECT_DOUBLE_EQ(m.hi(), 5.0);
}

TEST(MaxIntervalTest, SingleItem) {
  auto items = Items({Interval(2, 9)});
  EXPECT_EQ(MaxInterval(items), Interval(2, 9));
}

// ---------------------------------------------------------------------------
// SUM refresh selection
// ---------------------------------------------------------------------------

TEST(SumSelectionTest, NoRefreshWhenConstraintMet) {
  auto items = Items({Interval(0, 2), Interval(0, 3)});
  EXPECT_TRUE(SumRefreshSelection(items, 5.0).empty());
  EXPECT_TRUE(SumRefreshSelection(items, 100.0).empty());
}

TEST(SumSelectionTest, RefreshesWidestFirst) {
  auto items = Items({Interval(0, 2), Interval(0, 8), Interval(0, 4)});
  // Total width 14; constraint 7 -> removing the widest (8) suffices.
  auto sel = SumRefreshSelection(items, 7.0);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 1u);
}

TEST(SumSelectionTest, RefreshesMultipleWhenNeeded) {
  auto items = Items({Interval(0, 2), Interval(0, 8), Interval(0, 4)});
  // Constraint 3 -> remove 8 then 4 -> remaining 2 <= 3.
  auto sel = SumRefreshSelection(items, 3.0);
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[1], 2u);
}

TEST(SumSelectionTest, ExactConstraintRefreshesAllNonExact) {
  auto items = Items({Interval(0, 2), Interval::Exact(5.0), Interval(0, 4)});
  auto sel = SumRefreshSelection(items, 0.0);
  // Both non-exact items selected; the exact one is never selected.
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_TRUE(std::find(sel.begin(), sel.end(), 1u) == sel.end());
}

TEST(SumSelectionTest, UnboundedItemsSelectedFirst) {
  auto items =
      Items({Interval(0, 2), Interval::Unbounded(), Interval(0, 4)});
  auto sel = SumRefreshSelection(items, 100.0);
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 1u);  // the unbounded one
}

TEST(SumSelectionTest, BoundaryConstraintEqualToTotalWidth) {
  auto items = Items({Interval(0, 2), Interval(0, 3)});
  EXPECT_TRUE(SumRefreshSelection(items, 5.0).empty());
  EXPECT_EQ(SumRefreshSelection(items, 4.999).size(), 1u);
}

TEST(SumSelectionTest, AllExactNeedsNothingEvenAtZero) {
  auto items = Items({Interval::Exact(1.0), Interval::Exact(2.0)});
  EXPECT_TRUE(SumRefreshSelection(items, 0.0).empty());
}

// ---------------------------------------------------------------------------
// MAX candidate selection
// ---------------------------------------------------------------------------

TEST(MaxSelectionTest, NoCandidateWhenConstraintMet) {
  auto items = Items({Interval(0, 5), Interval(3, 4)});
  EXPECT_EQ(NextMaxRefreshCandidate(items, 2.0), -1);  // width = 5-3 = 2
}

TEST(MaxSelectionTest, PicksLargestUpperEndpoint) {
  auto items = Items({Interval(0, 5), Interval(3, 9), Interval(1, 2)});
  EXPECT_EQ(NextMaxRefreshCandidate(items, 1.0), 1);
}

TEST(MaxSelectionTest, EliminatedCandidatesNeverChosen) {
  // Item 2's hi (2) is below max_lo (3): it cannot be the max, so even for
  // an exact answer it is never refreshed.
  auto items = Items({Interval(3, 5), Interval(4, 9), Interval(1, 2)});
  std::vector<int> refreshed;
  int idx;
  // Simulate the iterative protocol with exact values at interval centers.
  while ((idx = NextMaxRefreshCandidate(items, 0.0)) >= 0) {
    refreshed.push_back(idx);
    auto& item = items[static_cast<size_t>(idx)];
    item.interval = Interval::Exact(item.interval.Center());
    ASSERT_LE(refreshed.size(), items.size()) << "did not terminate";
  }
  EXPECT_TRUE(std::find(refreshed.begin(), refreshed.end(), 2) ==
              refreshed.end());
  // Result is exact.
  EXPECT_DOUBLE_EQ(MaxInterval(items).Width(), 0.0);
}

TEST(MaxSelectionTest, UnboundedItemRefreshedFirst) {
  auto items = Items({Interval(0, 5), Interval::Unbounded()});
  EXPECT_EQ(NextMaxRefreshCandidate(items, 10.0), 1);
}

TEST(MaxSelectionTest, AllExactReturnsMinusOne) {
  auto items = Items({Interval::Exact(1.0), Interval::Exact(5.0)});
  EXPECT_EQ(NextMaxRefreshCandidate(items, 0.0), -1);
}

TEST(MaxSelectionTest, EmptyItems) {
  EXPECT_EQ(NextMaxRefreshCandidate({}, 0.0), -1);
}

// ---------------------------------------------------------------------------
// Property tests: the refresh protocol always meets the constraint and the
// result always contains the true aggregate.
// ---------------------------------------------------------------------------

class AggregatePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregatePropertyTest, SumSelectionGuaranteesConstraint) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<QueryItem> items;
    std::vector<double> exact;
    int n = static_cast<int>(rng.UniformInt(1, 12));
    for (int i = 0; i < n; ++i) {
      double v = rng.Uniform(-100, 100);
      exact.push_back(v);
      items.push_back({i, Interval::Centered(v, rng.Uniform(0, 20))});
    }
    double constraint = rng.Uniform(0, 30);
    auto sel = SumRefreshSelection(items, constraint);
    for (size_t idx : sel) {
      items[idx].interval = Interval::Exact(exact[idx]);
    }
    Interval result = SumInterval(items);
    EXPECT_LE(result.Width(), constraint + 1e-9);
    double true_sum = 0;
    for (double v : exact) true_sum += v;
    EXPECT_TRUE(result.Contains(true_sum));
  }
}

TEST_P(AggregatePropertyTest, SumSelectionIsMinimalInCount) {
  // Greedy widest-first refreshes the fewest items: check against brute
  // force on small instances.
  Rng rng(GetParam() ^ 0xf00d);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<QueryItem> items;
    int n = static_cast<int>(rng.UniformInt(1, 8));
    double total = 0;
    for (int i = 0; i < n; ++i) {
      double w = rng.Uniform(0, 10);
      total += w;
      items.push_back({i, Interval::Centered(0.0, w)});
    }
    double constraint = rng.Uniform(0, total);
    auto sel = SumRefreshSelection(items, constraint);

    // Brute force: smallest subset whose removed width brings the rest
    // under the constraint.
    size_t best = items.size() + 1;
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      double remaining = 0;
      size_t count = 0;
      for (int i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          ++count;
        } else {
          remaining += items[static_cast<size_t>(i)].interval.Width();
        }
      }
      if (remaining <= constraint) best = std::min(best, count);
    }
    EXPECT_EQ(sel.size(), best);
  }
}

TEST_P(AggregatePropertyTest, MaxProtocolTerminatesAndContainsTruth) {
  Rng rng(GetParam() ^ 0xbeef);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<QueryItem> items;
    std::vector<double> exact;
    int n = static_cast<int>(rng.UniformInt(1, 12));
    for (int i = 0; i < n; ++i) {
      double v = rng.Uniform(-100, 100);
      exact.push_back(v);
      items.push_back({i, Interval::Centered(v, rng.Uniform(0, 20))});
    }
    double constraint = rng.Uniform(0, 10);
    int idx;
    int rounds = 0;
    while ((idx = NextMaxRefreshCandidate(items, constraint)) >= 0) {
      items[static_cast<size_t>(idx)].interval =
          Interval::Exact(exact[static_cast<size_t>(idx)]);
      ASSERT_LE(++rounds, n) << "must terminate within n refreshes";
    }
    Interval result = MaxInterval(items);
    EXPECT_LE(result.Width(), constraint + 1e-9);
    double true_max = *std::max_element(exact.begin(), exact.end());
    EXPECT_TRUE(result.Contains(true_max));
  }
}

TEST_P(AggregatePropertyTest, MaxNeverRefreshesEliminatedItems) {
  Rng rng(GetParam() ^ 0xabcd);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<QueryItem> items;
    std::vector<double> exact;
    int n = static_cast<int>(rng.UniformInt(2, 10));
    for (int i = 0; i < n; ++i) {
      double v = rng.Uniform(-100, 100);
      exact.push_back(v);
      items.push_back({i, Interval::Centered(v, rng.Uniform(0, 20))});
    }
    // Record which items are dominated at the start: hi < initial max lo.
    double max_lo = -kInfinity;
    for (const auto& it : items) max_lo = std::max(max_lo, it.interval.lo());
    std::vector<bool> dominated(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      dominated[static_cast<size_t>(i)] =
          items[static_cast<size_t>(i)].interval.hi() < max_lo;
    }
    int idx;
    while ((idx = NextMaxRefreshCandidate(items, 0.0)) >= 0) {
      EXPECT_FALSE(dominated[static_cast<size_t>(idx)])
          << "refreshed an item that could never be the max";
      items[static_cast<size_t>(idx)].interval =
          Interval::Exact(exact[static_cast<size_t>(idx)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregatePropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------------------------------------------------------------
// Selection oracle: the sort-first reference
// ---------------------------------------------------------------------------

// The selection as it was written before the width scratch and the
// satisfied-snapshot early return: sort every index by width (descending,
// ties by index ascending), then walk the order greedily. The production
// selection must reproduce it index for index.
std::vector<size_t> ReferenceSumSelection(const std::vector<QueryItem>& items,
                                          double constraint) {
  std::vector<size_t> order(items.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double wa = items[a].interval.Width();
    double wb = items[b].interval.Width();
    if (wa != wb) return wa > wb;
    return a < b;
  });
  double finite_total = 0.0;
  size_t unbounded = 0;
  for (const auto& item : items) {
    double w = item.interval.Width();
    if (w == kInfinity) {
      ++unbounded;
    } else {
      finite_total += w;
    }
  }
  std::vector<size_t> out;
  for (size_t idx : order) {
    if (unbounded == 0 && finite_total <= constraint) break;
    double w = items[idx].interval.Width();
    if (w == 0.0) break;
    out.push_back(idx);
    if (w == kInfinity) {
      --unbounded;
    } else {
      finite_total -= w;
    }
  }
  return out;
}

// Which widths one random item set draws from.
enum class WidthMix { kAllExact, kFinite, kMixed };

// One random item interval. The widths mix exact copies, a small set of
// tied widths, arbitrary ones and — under kMixed only — unbounded and
// half-unbounded intervals; kAllExact forces every item exact.
Interval RandomItemInterval(Rng& rng, WidthMix mix) {
  double center = rng.Uniform(-100, 100);
  if (mix == WidthMix::kAllExact) return Interval::Exact(center);
  int64_t kind = rng.UniformInt(0, 5);
  if (mix == WidthMix::kFinite && (kind == 1 || kind == 2)) kind = 3;
  switch (kind) {
    case 0:
      return Interval::Exact(center);
    case 1:
      return Interval::Unbounded();
    case 2:
      return rng.Bernoulli(0.5) ? Interval(center, kInfinity)
                                : Interval(-kInfinity, center);
    case 3:
      return Interval::Centered(
          center, static_cast<double>(rng.UniformInt(1, 3)));  // ties
    default:
      return Interval::Centered(center, rng.Uniform(0, 20));
  }
}

// A constraint of one of five kinds relative to the items' widths:
// already satisfied by the finite total, unsatisfied (a fraction of it),
// zero, negative, or arbitrary.
double RandomConstraint(Rng& rng, const std::vector<QueryItem>& items) {
  double finite_total = 0.0;
  for (const auto& item : items) {
    double w = item.interval.Width();
    if (w != kInfinity) finite_total += w;
  }
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return finite_total + rng.Uniform(0, 5);
    case 1:
      return finite_total * rng.Uniform(0, 1);
    case 2:
      return 0.0;
    case 3:
      return -rng.Uniform(0, 10);
    default:
      return rng.Uniform(0, 100);
  }
}

TEST(SelectionOracleTest, SumAndAvgMatchSortFirstReferenceIndexForIndex) {
  Rng rng(0x5E1EC7);
  std::vector<size_t> into;  // reused, like ExecuteQuery's scratch
  int satisfied_sets = 0;
  int unsatisfied_sets = 0;
  int tied_sets = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    // Sizes 0..64, so the empty set and single items come up often and the
    // thread-local scratch shrinks and grows between calls.
    size_t n = static_cast<size_t>(rng.UniformInt(0, 64));
    double u = rng.Uniform(0, 1);
    WidthMix mix = u < 0.05   ? WidthMix::kAllExact
                   : u < 0.5 ? WidthMix::kFinite
                             : WidthMix::kMixed;
    std::vector<QueryItem> items;
    for (size_t i = 0; i < n; ++i) {
      items.push_back({static_cast<int>(i), RandomItemInterval(rng, mix)});
    }
    double constraint = RandomConstraint(rng, items);

    std::vector<size_t> want = ReferenceSumSelection(items, constraint);
    (want.empty() ? satisfied_sets : unsatisfied_sets) += 1;
    for (size_t i = 1; i < want.size(); ++i) {
      if (items[want[i]].interval.Width() ==
          items[want[i - 1]].interval.Width()) {
        ++tied_sets;
        break;
      }
    }
    SumRefreshSelectionInto(items, constraint, &into);
    ASSERT_EQ(into, want) << "SUM, trial " << trial << ", n " << n
                          << ", constraint " << constraint;
    ASSERT_EQ(SumRefreshSelection(items, constraint), want)
        << "SUM, trial " << trial;

    // AVG is the SUM selection at constraint * n.
    double avg_constraint = n == 0 ? constraint
                                   : constraint / static_cast<double>(n);
    std::vector<size_t> avg_want = ReferenceSumSelection(
        items, avg_constraint * static_cast<double>(n));
    AvgRefreshSelectionInto(items, avg_constraint, &into);
    ASSERT_EQ(into, avg_want) << "AVG, trial " << trial << ", n " << n;
    ASSERT_EQ(AvgRefreshSelection(items, avg_constraint), avg_want)
        << "AVG, trial " << trial;
  }
  // The generator really covered both outcomes and the tie rule.
  EXPECT_GT(satisfied_sets, 400);
  EXPECT_GT(unsatisfied_sets, 400);
  EXPECT_GT(tied_sets, 100);
}

// The satisfied-snapshot early return must not fire while an unbounded
// item remains, however small the finite total is.
TEST(SelectionOracleTest, UnboundedItemIsSelectedEvenWhenFiniteTotalFits) {
  auto items = Items({Interval(0, 1), Interval(0, kInfinity), Interval(2, 2)});
  std::vector<size_t> sel;
  SumRefreshSelectionInto(items, 5.0, &sel);
  EXPECT_EQ(sel, (std::vector<size_t>{1}));
  EXPECT_EQ(sel, ReferenceSumSelection(items, 5.0));
}

}  // namespace
}  // namespace apc
