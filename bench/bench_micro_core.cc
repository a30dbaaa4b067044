// Microbenchmarks (google-benchmark) for the hot paths of the library:
// width adjustment, interval algebra, refresh-set selection and cache
// offers. These quantify the per-refresh overhead of the adaptive
// algorithm — the paper's pitch is that it needs no history or monitoring,
// so a width update should be a handful of nanoseconds.
#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.h"
#include "core/adaptive_policy.h"
#include "query/aggregate.h"
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

}  // namespace

BENCHMARK_MAIN();
