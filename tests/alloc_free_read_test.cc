// The read hot path's allocation contract, enforced: once per-thread
// scratch buffers are warm, PointRead, ExecuteQuery (all four aggregate
// kinds), and the driver's query-generation loop perform ZERO heap
// allocations in steady state — also when the cache is over-subscribed and
// every pull evicts. The test swaps in
// counting global operator new/delete and asserts the measured window is
// allocation-free, so any std::stable_sort temporary buffer, by-value
// vector return, or per-query Query construction that sneaks back into the
// path fails loudly here instead of showing up as a latency regression.
//
// Run by the tier-1 suite and by scripts/check.sh --alloc (a
// release-with-asserts build, where inlining makes the zero-alloc claim
// about the real production code). Deliberately NOT in the
// tsan/asan concurrency suites: sanitizer runtimes own the allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "runtime/sharded_engine.h"
#include "runtime/workload_driver.h"

namespace {

// Only the measuring thread counts: the read path runs synchronously on
// the caller (no update pump is started), while the engine's notifier
// thread makes its own first allocation whenever the scheduler first runs
// it, which on a loaded host can fall inside the measured window.
thread_local bool t_count_allocations = false;
thread_local std::int64_t t_allocations = 0;

void* CountedAlloc(std::size_t size) {
  if (t_count_allocations) {
    ++t_allocations;
#ifdef APC_ALLOC_TEST_BACKTRACE
    void* frames[16];
    int n = backtrace(frames, 16);
    backtrace_symbols_fd(frames, n, 2);
    std::fprintf(stderr, "---- alloc of %zu bytes\n", size);
#endif
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();  // replacement new must not return null
  return p;
}

}  // namespace

// Global replacements: every operator new in the binary funnels through
// the counter. Deletes must pair with malloc above.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace apc {
namespace {

/// Allocations this thread makes while running `body`.
template <typename Body>
std::int64_t CountAllocations(Body&& body) {
  t_allocations = 0;
  t_count_allocations = true;
  body();
  t_count_allocations = false;
  return t_allocations;
}

TEST(AllocFreeReadTest, SteadyStateReadsAllocateNothing) {
  constexpr int kSources = 24;
  EngineConfig config;
  // Every shard gets a capacity slice covering the full population, so
  // this is the no-eviction steady state (the parity topology): entries
  // are re-offered in place. The over-subscribed case, where pulls evict,
  // is EvictingReadsAllocateNothing below.
  config.system.cache_capacity = 3 * kSources;
  config.num_shards = 3;
  config.seed = 11;
  ShardedEngine engine(
      config, BuildRandomWalkSources(kSources, RandomWalkParams{},
                                     AdaptivePolicyParams{}, /*seed=*/11));
  engine.PopulateInitial(0);

  // The driver's query mix: every aggregate kind, uniform ids — plus a
  // second Zipf-skewed generator so both id-sampling routes are covered.
  QueryWorkloadParams workload;
  workload.num_sources = kSources;
  workload.group_size = 8;
  workload.max_fraction = 0.25;
  workload.min_fraction = 0.25;
  workload.avg_fraction = 0.25;
  QueryGenerator uniform_gen(workload, /*seed=*/21);
  workload.zipf_s = 1.1;
  QueryGenerator zipf_gen(workload, /*seed=*/22);

  // Warm-up: touches every thread-local scratch buffer (query items,
  // shard groups, selection + sort order, torn-read indices) and the
  // hoisted Query's capacity, exactly like a serving thread's first
  // requests.
  Query query;
  auto run_queries = [&](int64_t now) {
    for (QueryGenerator* gen : {&uniform_gen, &zipf_gen}) {
      for (int i = 0; i < 32; ++i) {
        gen->Next(&query);
        engine.ExecuteQuery(query, now);
        engine.PointRead(query.source_ids.front(), query.constraint, now);
      }
    }
  };
  run_queries(/*now=*/0);

  // The measured window: identical traffic, zero allocations allowed.
  std::int64_t allocations = CountAllocations([&] { run_queries(1); });
  EXPECT_EQ(allocations, 0) << "read path allocated in steady state";
}

// Over-subscribed: the cache holds a third of the sources and every read
// demands an exact answer, so each pull of an uncached id meets a full
// shard and either evicts the widest entry or is rejected. Every id has
// its slot from registration and an eviction only swaps heap positions,
// so that path is allocation-free too.
TEST(AllocFreeReadTest, EvictingReadsAllocateNothing) {
  constexpr int kSources = 48;
  EngineConfig config;
  config.system.cache_capacity = kSources / 3;
  config.num_shards = 2;
  config.seed = 13;
  ShardedEngine engine(
      config, BuildRandomWalkSources(kSources, RandomWalkParams{},
                                     AdaptivePolicyParams{}, /*seed=*/13));
  engine.PopulateInitial(0);

  QueryWorkloadParams workload;
  workload.num_sources = kSources;
  workload.group_size = 8;
  workload.max_fraction = 0.25;
  workload.min_fraction = 0.25;
  workload.avg_fraction = 0.25;
  QueryGenerator gen(workload, /*seed=*/23);
  Query query;
  auto run_queries = [&](int64_t now) {
    for (int i = 0; i < 64; ++i) {
      gen.Next(&query);
      query.constraint = 0.0;  // exact answers: every member is pulled
      engine.ExecuteQuery(query, now);
      engine.PointRead(query.source_ids.front(), /*max_width=*/0.0, now);
    }
  };
  auto cached_ids = [&](int64_t now) {
    std::vector<int> ids;
    for (int id = 0; id < kSources; ++id) {
      if (!engine.shard(engine.ShardOf(id)).VisibleInterval(id, now)
               .IsUnbounded()) {
        ids.push_back(id);
      }
    }
    return ids;
  };
  run_queries(/*now=*/0);

  std::vector<int> before = cached_ids(1);
  std::int64_t allocations = CountAllocations([&] { run_queries(1); });
  std::vector<int> after = cached_ids(1);
  EXPECT_EQ(allocations, 0) << "evicting read path allocated";

  // The window really evicted: some id cached before it is not after.
  int evicted = 0;
  for (int id : before) {
    evicted += std::find(after.begin(), after.end(), id) == after.end();
  }
  EXPECT_GT(evicted, 0);
}

}  // namespace
}  // namespace apc
