#include "cache/system.h"

#include <gtest/gtest.h>

#include "core/adaptive_policy.h"
#include "data/random_walk.h"

namespace apc {
namespace {

AdaptivePolicyParams Theta1Params(double initial_width = 8.0) {
  AdaptivePolicyParams p;
  p.cvr = 1.0;
  p.cqr = 2.0;
  p.alpha = 1.0;
  p.initial_width = initial_width;
  return p;
}

std::vector<std::unique_ptr<Source>> MakeSeriesSources(
    const std::vector<std::vector<double>>& series, double initial_width) {
  std::vector<std::unique_ptr<Source>> sources;
  for (size_t i = 0; i < series.size(); ++i) {
    sources.push_back(std::make_unique<Source>(
        static_cast<int>(i), std::make_unique<SeriesStream>(series[i]),
        std::make_unique<AdaptivePolicy>(Theta1Params(initial_width),
                                         1000 + i)));
  }
  return sources;
}

SystemConfig Config(size_t capacity = 10) {
  SystemConfig config;
  config.costs = {1.0, 2.0};
  config.cache_capacity = capacity;
  return config;
}

TEST(CacheSystemTest, PopulateCachesAllSources) {
  // Two constant sources.
  CacheSystem system(Config(),
                     MakeSeriesSources({{5.0, 5.0}, {9.0, 9.0}}, 8.0));
  system.PopulateInitial(0);
  EXPECT_EQ(system.cache().size(), 2u);
  EXPECT_TRUE(system.cache().Find(0)->approx.base.Contains(5.0));
}

TEST(CacheSystemTest, StableValuesNeverRefresh) {
  CacheSystem system(Config(),
                     MakeSeriesSources({{5.0, 5.0, 5.0, 5.0}}, 8.0));
  system.PopulateInitial(0);
  system.costs().BeginMeasurement(0);
  for (int64_t t = 1; t <= 3; ++t) system.Tick(t);
  EXPECT_EQ(system.costs().value_refreshes(), 0);
  EXPECT_EQ(system.costs().query_refreshes(), 0);
}

TEST(CacheSystemTest, EscapeTriggersValueRefresh) {
  // Jump far outside the initial interval [1, 9].
  CacheSystem system(Config(), MakeSeriesSources({{5.0, 100.0}}, 8.0));
  system.PopulateInitial(0);
  system.costs().BeginMeasurement(0);
  system.Tick(1);  // value 100 escapes
  EXPECT_EQ(system.costs().value_refreshes(), 1);
  // The refreshed interval is recentered on 100 with doubled width.
  const CacheEntry* entry = system.cache().Find(0);
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->approx.base.Center(), 100.0);
  EXPECT_DOUBLE_EQ(entry->raw_width, 16.0);
}

TEST(CacheSystemTest, QueryWithinPrecisionIsFree) {
  CacheSystem system(Config(), MakeSeriesSources({{5.0, 5.0}}, 8.0));
  system.PopulateInitial(0);
  system.costs().BeginMeasurement(0);
  Query q{AggregateKind::kSum, {0}, /*constraint=*/10.0};
  Interval result = system.ExecuteQuery(q, 1);
  EXPECT_EQ(system.costs().query_refreshes(), 0);
  EXPECT_TRUE(result.Contains(5.0));
  EXPECT_DOUBLE_EQ(result.Width(), 8.0);
}

TEST(CacheSystemTest, TightConstraintForcesQueryRefresh) {
  CacheSystem system(Config(), MakeSeriesSources({{5.0, 5.0}}, 8.0));
  system.PopulateInitial(0);
  system.costs().BeginMeasurement(0);
  Query q{AggregateKind::kSum, {0}, /*constraint=*/1.0};
  Interval result = system.ExecuteQuery(q, 1);
  EXPECT_EQ(system.costs().query_refreshes(), 1);
  EXPECT_LE(result.Width(), 1.0);
  EXPECT_TRUE(result.Contains(5.0));
  // Source width halved by the query-initiated refresh.
  EXPECT_DOUBLE_EQ(system.source(0)->raw_width(), 4.0);
}

TEST(CacheSystemTest, SumQueryRefreshesOnlyAsNeeded) {
  CacheSystem system(
      Config(), MakeSeriesSources({{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}}, 8.0));
  system.PopulateInitial(0);
  system.costs().BeginMeasurement(0);
  // Total width 24; constraint 17 -> exactly one refresh needed.
  Query q{AggregateKind::kSum, {0, 1, 2}, 17.0};
  Interval result = system.ExecuteQuery(q, 1);
  EXPECT_EQ(system.costs().query_refreshes(), 1);
  EXPECT_LE(result.Width(), 17.0);
  EXPECT_TRUE(result.Contains(6.0));
}

TEST(CacheSystemTest, MaxQueryUsesCandidateElimination) {
  // Source 1 dominates: [96,104] vs [1,9] — the latter can never be the
  // max, so an exact MAX needs only one refresh.
  CacheSystem system(Config(),
                     MakeSeriesSources({{5.0, 5.0}, {100.0, 100.0}}, 8.0));
  system.PopulateInitial(0);
  system.costs().BeginMeasurement(0);
  Query q{AggregateKind::kMax, {0, 1}, 0.0};
  Interval result = system.ExecuteQuery(q, 1);
  EXPECT_EQ(system.costs().query_refreshes(), 1);
  EXPECT_TRUE(result.IsExact());
  EXPECT_TRUE(result.Contains(100.0));
}

// A query ranges over a set of values: an id named twice is pulled,
// charged and adapted once, and its exact value fills every occurrence.
TEST(CacheSystemTest, RepeatedIdIsPulledOnce) {
  CacheSystem system(Config(),
                     MakeSeriesSources({{5.0, 5.0}, {100.0, 100.0}}, 8.0));
  system.PopulateInitial(0);
  system.costs().BeginMeasurement(0);

  Interval sum = system.ExecuteQuery({AggregateKind::kSum, {0, 0, 1}, 0.0}, 1);
  EXPECT_EQ(system.costs().query_refreshes(), 2);
  EXPECT_EQ(sum, Interval::Exact(110.0));
  EXPECT_DOUBLE_EQ(system.source(0)->raw_width(), 4.0) << "halved once";

  Interval max = system.ExecuteQuery({AggregateKind::kMax, {1, 0, 1}, 0.0}, 2);
  EXPECT_EQ(system.costs().query_refreshes(), 3);
  EXPECT_EQ(max, Interval::Exact(100.0));
  EXPECT_DOUBLE_EQ(system.source(1)->raw_width(), 2.0) << "halved twice";
}

TEST(CacheSystemTest, UncachedValueReadThroughQuery) {
  // Capacity 1 with two sources: one stays uncached; a query touching it
  // must pull it from the source.
  CacheSystem system(Config(/*capacity=*/1),
                     MakeSeriesSources({{5.0, 5.0}, {9.0, 9.0}}, 8.0));
  system.PopulateInitial(0);
  EXPECT_EQ(system.cache().size(), 1u);
  system.costs().BeginMeasurement(0);
  Query q{AggregateKind::kSum, {0, 1}, /*constraint=*/1000.0};
  Interval result = system.ExecuteQuery(q, 1);
  // Exactly one of the two is uncached; the generous constraint is still
  // unsatisfiable without pulling it (its visible interval is unbounded).
  EXPECT_EQ(system.costs().query_refreshes(), 1);
  EXPECT_TRUE(result.Contains(14.0));
}

TEST(CacheSystemTest, SourceKeepsPushingAfterEviction) {
  // Capacity 1: source 1's entry is uncached. When its value escapes the
  // last shipped interval the source still pushes (and pays Cvr), because
  // caches do not notify sources of evictions.
  std::vector<std::vector<double>> series = {
      {5.0, 5.0, 5.0}, {9.0, 9.0, 200.0}};
  CacheSystem system(Config(/*capacity=*/1),
                     MakeSeriesSources(series, 8.0));
  system.PopulateInitial(0);
  system.costs().BeginMeasurement(0);
  system.Tick(1);
  EXPECT_EQ(system.costs().value_refreshes(), 0);
  system.Tick(2);  // source 1 jumps to 200: escape
  EXPECT_EQ(system.costs().value_refreshes(), 1);
}

TEST(CacheSystemTest, QueryResultAlwaysContainsTrueAggregate) {
  std::vector<std::vector<double>> series = {
      {1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}};
  CacheSystem system(Config(), MakeSeriesSources(series, 4.0));
  system.PopulateInitial(0);
  for (int64_t t = 1; t <= 2; ++t) {
    system.Tick(t);
    Query sum{AggregateKind::kSum, {0, 1, 2}, 2.0};
    double true_sum = system.source(0)->value() + system.source(1)->value() +
                      system.source(2)->value();
    EXPECT_TRUE(system.ExecuteQuery(sum, t).Contains(true_sum));
    Query max{AggregateKind::kMax, {0, 1, 2}, 0.5};
    double true_max = std::max({system.source(0)->value(),
                                system.source(1)->value(),
                                system.source(2)->value()});
    EXPECT_TRUE(system.ExecuteQuery(max, t).Contains(true_max));
  }
}

TEST(CacheSystemTest, MeanRawWidth) {
  CacheSystem system(Config(),
                     MakeSeriesSources({{1.0, 1.0}, {2.0, 2.0}}, 8.0));
  EXPECT_DOUBLE_EQ(system.MeanRawWidth(), 8.0);
}

}  // namespace
}  // namespace apc
