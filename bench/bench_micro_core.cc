// Microbenchmarks (google-benchmark) for the hot paths of the library:
// width adjustment, interval algebra, refresh-set selection, cache offers
// and a whole sharded aggregate query. These quantify the per-refresh
// overhead of the adaptive algorithm — the paper's pitch is that it needs
// no history or monitoring, so a width update should be a handful of
// nanoseconds.
#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.h"
#include "core/adaptive_policy.h"
#include "query/aggregate.h"
#include "runtime/sharded_engine.h"
#include "runtime/workload_driver.h"
#include "util/rng.h"

namespace {

using namespace apc;

void BM_AdaptiveWidthUpdate(benchmark::State& state) {
  AdaptivePolicyParams params;
  params.cvr = 4.0;  // theta = 4: exercises the probabilistic branch
  AdaptivePolicy policy(params, 1);
  RefreshContext ctx{RefreshType::kQueryInitiated, false, 0};
  double w = 8.0;
  for (auto _ : state) {
    w = policy.NextWidth(w, ctx);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_AdaptiveWidthUpdate);

void BM_IntervalSum(benchmark::State& state) {
  Rng rng(7);
  std::vector<QueryItem> items;
  for (int i = 0; i < state.range(0); ++i) {
    items.push_back(
        {i, Interval::Centered(rng.Uniform(-100, 100), rng.Uniform(0, 10))});
  }
  for (auto _ : state) {
    Interval s = SumInterval(items);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_IntervalSum)->Arg(10)->Arg(100);

void BM_SumRefreshSelection(benchmark::State& state) {
  Rng rng(7);
  std::vector<QueryItem> items;
  for (int i = 0; i < state.range(0); ++i) {
    items.push_back(
        {i, Interval::Centered(rng.Uniform(-100, 100), rng.Uniform(0, 10))});
  }
  double constraint = 0.25 * 5.0 * state.range(0);
  for (auto _ : state) {
    auto sel = SumRefreshSelection(items, constraint);
    benchmark::DoNotOptimize(sel);
  }
}
BENCHMARK(BM_SumRefreshSelection)->Arg(10)->Arg(100);

void BM_MaxCandidateSelection(benchmark::State& state) {
  Rng rng(7);
  std::vector<QueryItem> items;
  for (int i = 0; i < state.range(0); ++i) {
    items.push_back(
        {i, Interval::Centered(rng.Uniform(-100, 100), rng.Uniform(0, 10))});
  }
  for (auto _ : state) {
    int idx = NextMaxRefreshCandidate(items, 0.5);
    benchmark::DoNotOptimize(idx);
  }
}
BENCHMARK(BM_MaxCandidateSelection)->Arg(10)->Arg(100);

// Offers cycling over 2χ ids into a pre-filled cache of χ: half re-offer
// a cached id in place, half miss and take the eviction path (evict the
// widest or reject). Per-op time should stay flat in χ.
void BM_CacheOffer(benchmark::State& state) {
  const int capacity = static_cast<int>(state.range(0));
  Cache cache(static_cast<size_t>(capacity));
  Rng rng(7);
  CachedApprox approx;
  approx.base = Interval(0, 1);
  for (int id = 0; id < capacity; ++id) {
    cache.Offer(id, approx, rng.Uniform(0, 100));
  }
  int id = 0;
  for (auto _ : state) {
    cache.Offer(id, approx, rng.Uniform(0, 100));
    id = (id + 1) % (2 * capacity);
  }
}
BENCHMARK(BM_CacheOffer)->Arg(64)->Arg(512)->Arg(4096);

// One ShardedEngine::ExecuteQuery end to end, single-threaded, no update
// pump: route and validate the ids, snapshot the seqlock slots, run the
// refresh selection and pull what it picks (with the evictions the pulls'
// re-offers cause). 4 shards, 4096 sources, χ = 2048, so about half of
// every group is uncached and must be pulled. Queries cycle over a
// pre-drawn ring of uniform groups with constraint 8. The iteration count
// is fixed: the cache state a query meets depends on how many ran before
// it, so every run (and every commit, decisions being identical) times
// the same sequence.
// Args: aggregate kind (AggregateKind: 0 SUM, 1 MAX, 2 MIN, 3 AVG), group
// size.
void BM_ExecuteQuery(benchmark::State& state) {
  constexpr int kSources = 4096;
  constexpr size_t kRing = 4096;
  const auto kind = static_cast<AggregateKind>(state.range(0));
  const int group = static_cast<int>(state.range(1));
  EngineConfig config;
  config.num_shards = 4;
  config.system.cache_capacity = 2048;
  ShardedEngine engine(config,
                       BuildRandomWalkSources(kSources, RandomWalkParams{},
                                              AdaptivePolicyParams{}, 7));
  engine.PopulateInitial(0);
  Rng rng(11);
  std::vector<Query> queries(kRing);
  for (Query& query : queries) {
    query.kind = kind;
    query.constraint = 8.0;
    for (int i = 0; i < group; ++i) {
      query.source_ids.push_back(
          static_cast<int>(rng.UniformInt(0, kSources - 1)));
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    Interval result = engine.ExecuteQuery(queries[next], 0);
    benchmark::DoNotOptimize(result);
    next = (next + 1) % kRing;
  }
}
BENCHMARK(BM_ExecuteQuery)
    ->ArgNames({"kind", "group"})
    ->ArgsProduct({{0, 1, 2, 3}, {8, 16}})
    ->Iterations(1 << 18);

}  // namespace

BENCHMARK_MAIN();
