#include "runtime/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "cache/system.h"
#include "core/adaptive_policy.h"
#include "data/random_walk.h"
#include "query/query_gen.h"
#include "runtime/workload_driver.h"
#include "util/rng.h"

namespace apc {
namespace {

constexpr uint64_t kSeed = 2001;

constexpr ReadLockMode kAllModes[] = {ReadLockMode::kSeqlock,
                                      ReadLockMode::kShared,
                                      ReadLockMode::kExclusive};

std::vector<std::unique_ptr<Source>> MakeSources(
    int n, const AdaptivePolicyParams& policy = AdaptivePolicyParams{}) {
  RandomWalkParams walk;
  return BuildRandomWalkSources(n, walk, policy, kSeed);
}

/// Random-walk sources with explicit ids, so tests can place ids on the
/// dense route, beyond it, and on the sparse (negative or huge) path.
std::vector<std::unique_ptr<Source>> MakeSourcesWithIds(
    const std::vector<int>& ids) {
  std::vector<std::unique_ptr<Source>> sources;
  for (int id : ids) {
    const uint64_t seed = kSeed ^ static_cast<uint64_t>(id);
    sources.push_back(std::make_unique<Source>(
        id, std::make_unique<RandomWalkStream>(RandomWalkParams{}, seed),
        std::make_unique<AdaptivePolicy>(AdaptivePolicyParams{}, ~seed)));
  }
  return sources;
}

/// Ids beyond the slot map's dense range take the hash path.
constexpr int kHugeId = static_cast<int>(EntryStore::kDenseIdLimit) + 3;

QueryWorkloadParams MakeWorkload(int num_sources) {
  QueryWorkloadParams params;
  params.num_sources = num_sources;
  params.group_size = 10;
  params.max_fraction = 0.25;
  params.min_fraction = 0.25;
  params.avg_fraction = 0.25;
  params.constraints.avg = 20.0;
  params.constraints.rho = 1.0;
  return params;
}

TEST(ShardedEngineTest, PartitionCoversEverySourceExactlyOnce) {
  EngineConfig config;
  config.num_shards = 4;
  config.system.cache_capacity = 30;
  ShardedEngine engine(config, MakeSources(64));
  EXPECT_EQ(engine.num_sources(), 64u);
  std::vector<size_t> counts = engine.ShardSourceCounts();
  ASSERT_EQ(counts.size(), 4u);
  size_t total = 0;
  size_t capacity = 0;
  for (int s = 0; s < engine.num_shards(); ++s) {
    total += counts[static_cast<size_t>(s)];
    capacity += engine.shard(s).CacheCapacity();
  }
  EXPECT_EQ(total, 64u);
  // Capacity slices sum exactly to χ.
  EXPECT_EQ(capacity, 30u);
  for (int id = 0; id < 64; ++id) {
    int owner = engine.ShardOf(id);
    for (int s = 0; s < engine.num_shards(); ++s) {
      EXPECT_EQ(engine.shard(s).Owns(id), s == owner);
    }
  }
}

// The dense id→shard route must pick exactly the ring the update bus
// picks, or the pump would apply a burst to a shard that does not own its
// ids. Covers dense ids, negative ids and ids past the dense range.
TEST(ShardedEngineTest, ShardOfMatchesBusRingForEveryOwnedId) {
  std::vector<int> ids;
  for (int id = 0; id < 200; id += 3) ids.push_back(id);
  for (int id : {-2, -77, kHugeId, kHugeId + 1000, 1 << 30}) ids.push_back(id);
  EngineConfig config;
  config.num_shards = 5;
  config.system.cache_capacity = 40;
  ShardedEngine engine(config, MakeSourcesWithIds(ids));
  ASSERT_EQ(engine.num_sources(), ids.size());
  ASSERT_EQ(engine.bus().num_rings(), 5u);
  for (int id : ids) {
    const int owner = engine.ShardOf(id);
    EXPECT_EQ(static_cast<size_t>(owner), engine.bus().RingOf(id))
        << "id " << id;
    for (int s = 0; s < engine.num_shards(); ++s) {
      EXPECT_EQ(engine.shard(s).Owns(id), s == owner) << "id " << id;
    }
  }
  // Unowned ids, inside and beyond the route, still hash like the bus.
  for (int id : {1, 2, 199, 200, 5000, -3, kHugeId + 1}) {
    EXPECT_EQ(static_cast<size_t>(engine.ShardOf(id)), engine.bus().RingOf(id))
        << "id " << id;
  }
}

// Unowned ids are dropped and counted on every entry point, wherever the
// route sends them: a hole inside the dense route, past its end, a
// negative id, a huge id. Owned negative and huge ids are served.
TEST(ShardedEngineTest, UnownedIdsOnEveryRouteAreRejectedAndCounted) {
  EngineConfig config;
  config.num_shards = 3;
  config.system.cache_capacity = 12;
  ShardedEngine engine(config,
                       MakeSourcesWithIds({0, 2, 4, 6, 8, -5, kHugeId}));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);
  const std::vector<int> unowned = {3, 9, 100000, -6, kHugeId + 1};

  for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAvg,
                             AggregateKind::kMax, AggregateKind::kMin}) {
    Query query;
    query.kind = kind;
    query.source_ids = {2, -5, kHugeId};
    query.source_ids.insert(query.source_ids.end(), unowned.begin(),
                            unowned.end());
    query.constraint = 0.0;
    EXPECT_TRUE(engine.ExecuteQuery(query, 0).IsExact());
  }
  EXPECT_EQ(engine.counters().rejected_query_ids.load(),
            static_cast<int64_t>(4 * unowned.size()));

  const int64_t pulls = engine.TotalCosts().query_refreshes;
  for (int id : unowned) {
    EXPECT_TRUE(engine.PointRead(id, 0.0, 0).IsUnbounded()) << "id " << id;
    EXPECT_TRUE(std::isnan(engine.ExactValue(id))) << "id " << id;
  }
  EXPECT_EQ(engine.TotalCosts().query_refreshes, pulls) << "no charge";
  EXPECT_EQ(engine.counters().rejected_query_ids.load(),
            static_cast<int64_t>(5 * unowned.size()));
  for (int id : {-5, kHugeId}) {
    EXPECT_TRUE(engine.PointRead(id, 0.0, 0).IsExact()) << "id " << id;
  }
  EXPECT_EQ(engine.Subscribe(
                Query{AggregateKind::kSum, {2, unowned[0]}, 1.0}, 1.0, 0),
            -1)
      << "a subscription over an unowned id is refused";

  ASSERT_TRUE(engine.StartUpdatePump());
  for (int id : unowned) ASSERT_TRUE(engine.bus().Push({1, id}));
  for (int id : {-5, kHugeId, 4}) ASSERT_TRUE(engine.bus().Push({1, id}));
  engine.StopUpdatePump();
  EXPECT_EQ(engine.counters().rejected_updates.load(),
            static_cast<int64_t>(unowned.size()));
  EXPECT_EQ(engine.counters().updates_applied.load(), 3);
}

// The acceptance bar for the runtime: a single-shard engine driven in
// lockstep from one thread reproduces the sequential CacheSystem's cost
// accounting and query results tick for tick.
TEST(ShardedEngineTest, SingleShardMatchesCacheSystemExactly) {
  constexpr int kSources = 40;
  constexpr int64_t kTicks = 400;

  SystemConfig sys_config;
  sys_config.cache_capacity = 25;  // forces evictions and unbounded reads

  CacheSystem sequential(sys_config, MakeSources(kSources));
  sequential.PopulateInitial(0);
  sequential.costs().BeginMeasurement(0);

  EngineConfig engine_config;
  engine_config.system = sys_config;
  engine_config.num_shards = 1;
  ShardedEngine engine(engine_config, MakeSources(kSources));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  QueryGenerator sequential_queries(MakeWorkload(kSources), kSeed ^ 0x71);
  QueryGenerator engine_queries(MakeWorkload(kSources), kSeed ^ 0x71);

  for (int64_t t = 1; t <= kTicks; ++t) {
    sequential.Tick(t);
    engine.TickAll(t);
    Interval expected = sequential.ExecuteQuery(sequential_queries.Next(), t);
    Interval actual = engine.ExecuteQuery(engine_queries.Next(), t);
    ASSERT_EQ(actual, expected) << "diverged at tick " << t;
  }
  sequential.costs().EndMeasurement(kTicks);
  engine.EndMeasurement(kTicks);

  EngineCosts costs = engine.TotalCosts();
  EXPECT_EQ(costs.value_refreshes, sequential.costs().value_refreshes());
  EXPECT_EQ(costs.query_refreshes, sequential.costs().query_refreshes());
  EXPECT_DOUBLE_EQ(costs.total_cost, sequential.costs().total_cost());
  EXPECT_EQ(costs.measured_ticks, sequential.costs().measured_ticks());
  EXPECT_DOUBLE_EQ(costs.CostRate(), sequential.costs().CostRate());
  EXPECT_DOUBLE_EQ(engine.MeanRawWidth(), sequential.MeanRawWidth());
}

// Lockstep parity harness shared by the drift-detection tests below: a
// single-shard engine and the sequential CacheSystem, built from identical
// source populations and driven tick-for-tick, must return the same
// intervals and account the same costs — in EVERY read-lock mode, since
// both sides drive the same ProtocolTable and a 1-thread optimistic read
// can never tear.
void ExpectLockstepParity(const SystemConfig& sys_config,
                          const AdaptivePolicyParams& policy,
                          const QueryWorkloadParams& workload,
                          ReadLockMode mode, int num_sources, int64_t ticks,
                          uint64_t query_seed) {
  CacheSystem sequential(sys_config, MakeSources(num_sources, policy), kSeed);
  sequential.PopulateInitial(0);
  sequential.costs().BeginMeasurement(0);

  EngineConfig engine_config;
  engine_config.system = sys_config;
  engine_config.num_shards = 1;
  engine_config.seed = kSeed;
  engine_config.read_lock_mode = mode;
  ShardedEngine engine(engine_config, MakeSources(num_sources, policy));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  QueryGenerator sequential_queries(workload, query_seed);
  QueryGenerator engine_queries(workload, query_seed);
  for (int64_t t = 1; t <= ticks; ++t) {
    sequential.Tick(t);
    engine.TickAll(t);
    Interval expected = sequential.ExecuteQuery(sequential_queries.Next(), t);
    Interval actual = engine.ExecuteQuery(engine_queries.Next(), t);
    ASSERT_EQ(actual, expected)
        << "diverged at tick " << t << " in mode " << static_cast<int>(mode);
  }
  sequential.costs().EndMeasurement(ticks);
  engine.EndMeasurement(ticks);

  EXPECT_EQ(engine.lost_pushes(), sequential.lost_pushes());
  EngineCosts costs = engine.TotalCosts();
  EXPECT_EQ(costs.value_refreshes, sequential.costs().value_refreshes());
  EXPECT_EQ(costs.query_refreshes, sequential.costs().query_refreshes());
  EXPECT_DOUBLE_EQ(costs.total_cost, sequential.costs().total_cost());
  EXPECT_DOUBLE_EQ(engine.MeanRawWidth(), sequential.MeanRawWidth());
}

// Satellite: the parity net must catch drift in the delta0/delta1
// threshold-snapping path — raw widths retained while effective widths
// snap to 0 (exact copies) or infinity (effectively uncached) — because
// that is where a shared-core regression would hide: pulls of unbounded
// entries and pushes of exact copies dominate the charging.
TEST(ShardedEngineTest, LockstepParityWithThresholdSnapping) {
  SystemConfig sys_config;
  sys_config.cache_capacity = 20;

  // theta = 1: deterministic width moves, so lockstep raw widths walk the
  // powers of two in [1, 16] under this workload — both thresholds sit
  // inside that range and genuinely fire (asserted below).
  AdaptivePolicyParams policy;
  policy.delta0 = 1.5;   // widths below ship as exact copies
  policy.delta1 = 12.0;  // widths at/above ship as unbounded

  QueryWorkloadParams workload = MakeWorkload(30);
  workload.constraints.avg = 10.0;  // tight enough that pulls shrink widths
  for (ReadLockMode mode : kAllModes) {
    ExpectLockstepParity(sys_config, policy, workload, mode,
                         /*num_sources=*/30, /*ticks=*/300, kSeed ^ 0x5A);
  }

  // The thresholds genuinely fired: drive one system again and observe
  // both snapped-to-zero and snapped-to-infinity shipments.
  CacheSystem probe(sys_config, MakeSources(30, policy), kSeed);
  probe.PopulateInitial(0);
  QueryGenerator queries(workload, kSeed ^ 0x5A);
  bool snapped_exact = false;
  bool snapped_unbounded = false;
  for (int64_t t = 1; t <= 300; ++t) {
    probe.Tick(t);
    probe.ExecuteQuery(queries.Next(), t);
    for (int id = 0; id < 30; ++id) {
      double effective = probe.source(id)->cell().EffectiveWidth();
      snapped_exact = snapped_exact || effective == 0.0;
      snapped_unbounded = snapped_unbounded || effective == kInfinity;
    }
  }
  EXPECT_TRUE(snapped_exact) << "delta0 never snapped: weak test setup";
  EXPECT_TRUE(snapped_unbounded) << "delta1 never snapped: weak test setup";
}

// Satellite: MAX/MIN candidate elimination under push-loss injection —
// lost pushes leave stale cached intervals, so the elimination order (and
// which shard-side runs it batches) is stressed far harder than under
// reliable delivery. All three read modes must still match the sequential
// system pull-for-pull.
TEST(ShardedEngineTest, LockstepParityMaxMinUnderPushLoss) {
  SystemConfig sys_config;
  sys_config.cache_capacity = 18;
  sys_config.push_loss_probability = 0.25;

  QueryWorkloadParams workload = MakeWorkload(24);
  workload.max_fraction = 0.45;
  workload.min_fraction = 0.45;
  workload.avg_fraction = 0.0;

  for (ReadLockMode mode : kAllModes) {
    ExpectLockstepParity(sys_config, AdaptivePolicyParams{}, workload, mode,
                         /*num_sources=*/24, /*ticks=*/300, kSeed ^ 0x5B);
  }
}

// The guarantee extends to failure injection: shard 0 inherits the engine
// seed unmangled, so a seed-matched single-shard engine draws the same
// push-loss Bernoulli stream as the CacheSystem and loses the same pushes.
TEST(ShardedEngineTest, SingleShardMatchesCacheSystemUnderPushLoss) {
  constexpr int kSources = 30;
  constexpr int64_t kTicks = 300;

  SystemConfig sys_config;
  sys_config.cache_capacity = 20;
  sys_config.push_loss_probability = 0.2;

  CacheSystem sequential(sys_config, MakeSources(kSources), kSeed);
  sequential.PopulateInitial(0);
  sequential.costs().BeginMeasurement(0);

  EngineConfig engine_config;
  engine_config.system = sys_config;
  engine_config.num_shards = 1;
  engine_config.seed = kSeed;
  ShardedEngine engine(engine_config, MakeSources(kSources));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  QueryGenerator sequential_queries(MakeWorkload(kSources), kSeed ^ 0x72);
  QueryGenerator engine_queries(MakeWorkload(kSources), kSeed ^ 0x72);
  for (int64_t t = 1; t <= kTicks; ++t) {
    sequential.Tick(t);
    engine.TickAll(t);
    Interval expected = sequential.ExecuteQuery(sequential_queries.Next(), t);
    Interval actual = engine.ExecuteQuery(engine_queries.Next(), t);
    ASSERT_EQ(actual, expected) << "diverged at tick " << t;
  }
  sequential.costs().EndMeasurement(kTicks);
  engine.EndMeasurement(kTicks);

  EXPECT_GT(engine.lost_pushes(), 0) << "injection never fired";
  EXPECT_EQ(engine.lost_pushes(), sequential.lost_pushes());
  EngineCosts costs = engine.TotalCosts();
  EXPECT_EQ(costs.value_refreshes, sequential.costs().value_refreshes());
  EXPECT_EQ(costs.query_refreshes, sequential.costs().query_refreshes());
  EXPECT_DOUBLE_EQ(costs.total_cost, sequential.costs().total_cost());
}

// Updates delivered through the bus (both the batched tick-all form and
// per-source events) must land exactly like synchronous lockstep ticks.
TEST(ShardedEngineTest, UpdateBusMatchesSynchronousTicks) {
  constexpr int kSources = 24;
  constexpr int64_t kTicks = 120;
  EngineConfig config;
  config.num_shards = 3;
  config.system.cache_capacity = 18;

  ShardedEngine lockstep(config, MakeSources(kSources));
  lockstep.PopulateInitial(0);
  lockstep.BeginMeasurement(0);
  for (int64_t t = 1; t <= kTicks; ++t) lockstep.TickAll(t);
  lockstep.EndMeasurement(kTicks);

  ShardedEngine via_tick_all(config, MakeSources(kSources));
  via_tick_all.PopulateInitial(0);
  via_tick_all.BeginMeasurement(0);
  via_tick_all.StartUpdatePump();
  for (int64_t t = 1; t <= kTicks; ++t) {
    ASSERT_TRUE(via_tick_all.bus().Push({t, UpdateEvent::kAllSources}));
  }
  via_tick_all.StopUpdatePump();  // drains the backlog before joining
  via_tick_all.EndMeasurement(kTicks);

  ShardedEngine via_per_source(config, MakeSources(kSources));
  via_per_source.PopulateInitial(0);
  via_per_source.BeginMeasurement(0);
  via_per_source.StartUpdatePump();
  for (int64_t t = 1; t <= kTicks; ++t) {
    for (int id = 0; id < kSources; ++id) {
      ASSERT_TRUE(via_per_source.bus().Push({t, id}));
    }
  }
  via_per_source.StopUpdatePump();
  via_per_source.EndMeasurement(kTicks);

  EngineCosts expected = lockstep.TotalCosts();
  for (ShardedEngine* engine : {&via_tick_all, &via_per_source}) {
    EngineCosts actual = engine->TotalCosts();
    EXPECT_EQ(actual.value_refreshes, expected.value_refreshes);
    EXPECT_DOUBLE_EQ(actual.total_cost, expected.total_cost);
    EXPECT_DOUBLE_EQ(engine->MeanRawWidth(), lockstep.MeanRawWidth());
  }
  EXPECT_EQ(via_per_source.counters().updates_applied.load(),
            kSources * kTicks);
}

TEST(ShardedEngineTest, PumpCannotRestartAfterStop) {
  EngineConfig config;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(12));
  engine.PopulateInitial(0);
  EXPECT_TRUE(engine.StartUpdatePump());
  EXPECT_TRUE(engine.StartUpdatePump());  // already running
  engine.StopUpdatePump();
  EXPECT_FALSE(engine.StartUpdatePump())
      << "a closed bus must not silently feed a dead pump";

  // A driver run against the consumed engine still completes; it just sees
  // static values (no ticks).
  DriverConfig driver;
  driver.num_threads = 1;
  driver.queries_per_thread = 10;
  driver.workload = MakeWorkload(12);
  driver.run_updates = true;
  DriverReport report = RunWorkload(engine, driver);
  EXPECT_EQ(report.queries, 10);
  EXPECT_EQ(report.ticks, 0);
  EXPECT_EQ(report.violations, 0);
}

TEST(ShardedEngineTest, PointReadPullsOnlyWhenTooWide) {
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(8));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  // Initial approximations have width 1 (AdaptivePolicyParams default).
  Interval loose = engine.PointRead(3, /*max_width=*/2.0, /*now=*/0);
  EXPECT_LE(loose.Width(), 2.0);
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 0)
      << "a wide-enough bound must be served from the cache";

  Interval tight = engine.PointRead(3, /*max_width=*/0.0, /*now=*/0);
  EXPECT_TRUE(tight.IsExact());
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 1);
  EXPECT_EQ(engine.counters().queries_executed.load(), 2);
}

// Concurrency smoke: many query threads race the update pump; every result
// must still satisfy its precision constraint, and the atomic counters must
// agree with the mutex-guarded cost trackers once quiescent.
TEST(ShardedEngineTest, ConcurrentQueriesRespectPrecisionConstraints) {
  constexpr int kSources = 64;
  EngineConfig config;
  config.num_shards = 4;
  config.system.cache_capacity = 48;
  ShardedEngine engine(config, MakeSources(kSources));

  DriverConfig driver;
  driver.num_threads = 4;
  driver.queries_per_thread = 300;
  driver.workload = MakeWorkload(kSources);
  driver.run_updates = true;
  driver.point_read_fraction = 0.2;
  driver.seed = kSeed;
  DriverReport report = RunWorkload(engine, driver);

  EXPECT_EQ(report.queries, 4 * 300);
  EXPECT_EQ(report.violations, 0)
      << "a returned interval exceeded its precision constraint";
  EXPECT_GT(report.ticks, 0) << "updater made no progress";
  EXPECT_GT(report.queries_per_second, 0.0);
  EXPECT_EQ(engine.counters().queries_executed.load(), report.queries);

  EngineCosts costs = engine.TotalCosts();
  EXPECT_EQ(engine.counters().value_refreshes.load(), costs.value_refreshes);
  EXPECT_EQ(engine.counters().query_refreshes.load(), costs.query_refreshes);
  EXPECT_GT(costs.query_refreshes, 0);
  EXPECT_GT(costs.value_refreshes, 0);
}

// An UpdateEvent carrying an id no shard owns once threw out of a map
// lookup on the pump thread and terminated the process. It must be
// skipped and counted instead.
TEST(ShardedEngineTest, UnknownSourceIdUpdatesAreSkippedAndCounted) {
  constexpr int kSources = 12;
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(kSources));
  engine.PopulateInitial(0);

  ASSERT_TRUE(engine.StartUpdatePump());
  ASSERT_TRUE(engine.bus().Push({1, 500}));   // not a registered id
  ASSERT_TRUE(engine.bus().Push({1, 3}));     // valid
  ASSERT_TRUE(engine.bus().Push({2, -99}));   // negative, not kAllSources
  engine.StopUpdatePump();  // drains; the pump thread must survive

  EXPECT_EQ(engine.counters().rejected_updates.load(), 2);
  EXPECT_EQ(engine.counters().updates_applied.load(), 1);
  int64_t per_shard_rejected = 0;
  for (int s = 0; s < engine.num_shards(); ++s) {
    per_shard_rejected += engine.shard(s).rejected_updates();
  }
  EXPECT_EQ(per_shard_rejected, 2);

  // The synchronous single-source path takes the same guard.
  engine.shard(0).TickSource(777, 3);
  EXPECT_EQ(engine.counters().rejected_updates.load(), 3);
}

// Satellite fix: duplicate-id sources used to be silently dropped by the
// shard while the engine still counted them, so num_sources() disagreed
// with the sum of ShardSourceCounts().
TEST(ShardedEngineTest, DuplicateSourceIdsRejectedAndNotCounted) {
  std::vector<std::unique_ptr<Source>> sources = MakeSources(10);
  for (auto& dup : MakeSources(5)) {  // ids 0..4 again
    sources.push_back(std::move(dup));
  }
  sources.push_back(nullptr);

  EngineConfig config;
  config.num_shards = 4;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, std::move(sources));

  EXPECT_EQ(engine.num_sources(), 10u);
  size_t hosted = 0;
  for (size_t count : engine.ShardSourceCounts()) hosted += count;
  EXPECT_EQ(hosted, engine.num_sources());

  // The engine remains fully usable after rejecting the duplicates.
  engine.PopulateInitial(0);
  EXPECT_TRUE(engine.PointRead(3, 0.0, 0).IsExact());
}

// Satellite fix: a source id occurring twice in one query used to be
// pulled — and charged Cqr — once per occurrence.
TEST(ShardedEngineTest, DuplicateIdsInOneQueryChargeOnce) {
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(8));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  Query sum;
  sum.kind = AggregateKind::kSum;
  sum.source_ids = {3, 3, 7};
  sum.constraint = 0.0;  // forces every distinct id exact
  Interval sum_result = engine.ExecuteQuery(sum, 0);
  EXPECT_TRUE(sum_result.IsExact());
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 2)
      << "duplicate id 3 must be charged once";

  Query max;
  max.kind = AggregateKind::kMax;
  max.source_ids = {5, 5};
  max.constraint = 0.0;
  Interval max_result = engine.ExecuteQuery(max, 0);
  EXPECT_TRUE(max_result.IsExact());
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 3)
      << "MAX elimination must not re-select the twin of a pulled id";
}

// Malformed query ids (no owning shard) are dropped and counted, never
// fatal: the aggregate ranges over the known sources, a point read sees
// the unbounded interval, and nothing is charged for the unknown id.
TEST(ShardedEngineTest, UnknownQueryIdsAreDroppedNotFatal) {
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(8));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  Query sum;
  sum.kind = AggregateKind::kSum;
  sum.source_ids = {2, 999};
  sum.constraint = 0.0;
  Interval result = engine.ExecuteQuery(sum, 0);
  EXPECT_TRUE(result.IsExact()) << "the known id must still be aggregated";
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 1);
  EXPECT_EQ(engine.counters().rejected_query_ids.load(), 1);

  Interval unbounded = engine.PointRead(999, 1e12, 0);
  EXPECT_EQ(unbounded.Width(), kInfinity);
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 1) << "no charge";
  EXPECT_EQ(engine.counters().rejected_query_ids.load(), 2);
}

// ExecuteQuery's documented semantics spelled out over the sequential
// CacheSystem (sources 0..n-1): unowned ids are dropped and counted in
// `*rejected`; SUM/AVG pull each distinct id of the selection once, in
// selection order, and MAX/MIN pull candidate by candidate; a pulled id's
// exact value lands in every item naming it.
Interval ReferenceQuery(CacheSystem& sys, const Query& query, int64_t now,
                        int64_t* rejected) {
  const int n = static_cast<int>(sys.num_sources());
  std::vector<QueryItem> items;
  for (int id : query.source_ids) {
    if (id < 0 || id >= n) {
      ++*rejected;
      continue;
    }
    items.push_back({id, sys.table().VisibleInterval(id, now)});
  }
  // One pull through the public surface: a one-id SUM whose constraint no
  // width meets selects that id, and every id pulled here is non-exact at
  // pull time (the selections skip exact items; another pull can only
  // evict it), so the query charges exactly one Cqr.
  auto pull = [&](int id) {
    Interval exact =
        sys.ExecuteQuery(Query{AggregateKind::kSum, {id}, -1.0}, now);
    EXPECT_TRUE(exact.IsExact()) << "id " << id;
    for (auto& item : items) {
      if (item.source_id == id) item.interval = exact;
    }
  };
  switch (query.kind) {
    case AggregateKind::kSum:
    case AggregateKind::kAvg: {
      std::vector<size_t> selection =
          query.kind == AggregateKind::kSum
              ? SumRefreshSelection(items, query.constraint)
              : AvgRefreshSelection(items, query.constraint);
      std::vector<int> distinct;
      for (size_t idx : selection) {
        int id = items[idx].source_id;
        if (std::find(distinct.begin(), distinct.end(), id) ==
            distinct.end()) {
          distinct.push_back(id);
        }
      }
      for (int id : distinct) pull(id);
      return query.kind == AggregateKind::kSum ? SumInterval(items)
                                               : AvgInterval(items);
    }
    case AggregateKind::kMax:
    case AggregateKind::kMin: {
      // Every pull makes a candidate exact, so the loop ends within
      // items.size() pulls; the bound keeps a broken pull from spinning.
      int idx;
      size_t pulls = 0;
      while ((idx = query.kind == AggregateKind::kMax
                        ? NextMaxRefreshCandidate(items, query.constraint)
                        : NextMinRefreshCandidate(items, query.constraint)) >=
             0) {
        if (++pulls > items.size()) {
          ADD_FAILURE() << "candidate elimination did not terminate";
          break;
        }
        pull(items[static_cast<size_t>(idx)].source_id);
      }
      return query.kind == AggregateKind::kMax ? MaxInterval(items)
                                               : MinInterval(items);
    }
  }
  return Interval(0.0, 0.0);
}

// The one-pass route+snapshot keeps every item in place while dropping
// unowned ids mid-query: queries of every kind interleave owned ids,
// repeats of earlier ids, and unowned ones (negative, past the route,
// huge), and the engine must match ReferenceQuery answer for answer and
// charge for charge in every read-lock mode. Two engines: one shard with
// χ below the source count (evictions, unbounded items), and three shards
// with χ large enough that nothing is evicted, so per-source state is the
// sequential system's even though pulls group by shard.
TEST(ShardedEngineTest, FusedSnapshotMatchesReferenceWithMessyIds) {
  constexpr int kSources = 40;
  constexpr int64_t kTicks = 300;
  const std::vector<int> unowned = {-1, -7, kSources, kSources + 5, 100000,
                                    kHugeId};
  struct Shape {
    int shards;
    size_t capacity;
  };
  for (Shape shape : {Shape{1, 25}, Shape{3, 4 * kSources}}) {
    for (ReadLockMode mode : kAllModes) {
      SystemConfig sys_config;
      sys_config.cache_capacity = shape.capacity;
      CacheSystem sequential(sys_config, MakeSources(kSources), kSeed);
      sequential.PopulateInitial(0);
      sequential.costs().BeginMeasurement(0);

      EngineConfig engine_config;
      engine_config.system = sys_config;
      engine_config.num_shards = shape.shards;
      engine_config.seed = kSeed;
      engine_config.read_lock_mode = mode;
      ShardedEngine engine(engine_config, MakeSources(kSources));
      engine.PopulateInitial(0);
      engine.BeginMeasurement(0);

      Rng rng(kSeed ^ 0xF05ED);
      int64_t rejected = 0;
      Query query;
      for (int64_t t = 1; t <= kTicks; ++t) {
        sequential.Tick(t);
        engine.TickAll(t);
        query.kind = static_cast<AggregateKind>(rng.UniformInt(0, 3));
        query.source_ids.clear();
        const int64_t size = rng.UniformInt(1, 16);
        for (int64_t i = 0; i < size; ++i) {
          double u = rng.Uniform(0.0, 1.0);
          if (u < 0.2) {
            query.source_ids.push_back(unowned[static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(unowned.size()) -
                                      1))]);
          } else if (u < 0.35 && !query.source_ids.empty()) {
            query.source_ids.push_back(
                query.source_ids[static_cast<size_t>(rng.UniformInt(
                    0,
                    static_cast<int64_t>(query.source_ids.size()) - 1))]);
          } else {
            query.source_ids.push_back(
                static_cast<int>(rng.UniformInt(0, kSources - 1)));
          }
        }
        const double constraints[] = {0.0, 2.0, 10.0, 40.0, 1e9};
        query.constraint = constraints[rng.UniformInt(0, 4)];

        Interval expected = ReferenceQuery(sequential, query, t, &rejected);
        Interval actual = engine.ExecuteQuery(query, t);
        ASSERT_EQ(actual, expected)
            << "diverged at tick " << t << ", kind "
            << static_cast<int>(query.kind) << ", mode "
            << static_cast<int>(mode) << ", shards " << shape.shards;
      }
      sequential.costs().EndMeasurement(kTicks);
      engine.EndMeasurement(kTicks);

      EngineCosts costs = engine.TotalCosts();
      EXPECT_EQ(costs.value_refreshes, sequential.costs().value_refreshes());
      EXPECT_EQ(costs.query_refreshes, sequential.costs().query_refreshes());
      EXPECT_GT(costs.query_refreshes, 0);
      EXPECT_DOUBLE_EQ(costs.total_cost, sequential.costs().total_cost());
      EXPECT_DOUBLE_EQ(engine.MeanRawWidth(), sequential.MeanRawWidth());
      EXPECT_GT(rejected, 0);
      EXPECT_EQ(engine.counters().rejected_query_ids.load(), rejected);
    }
  }
}

// The two halves of the one-pass snapshot, driven directly on a shard.
// TrySnapshot reads optimistically only in seqlock mode; SettleIntervals
// settles a group under one read acquisition — one read.shared_fallbacks
// per call in seqlock mode, none in the locking modes — and yields exactly
// VisibleInterval's answer for cached, evicted and unowned ids, touching
// no other item.
TEST(ShardedEngineTest, ShardSettleIntervalsMatchesVisibleInterval) {
  for (ReadLockMode mode : kAllModes) {
    RuntimeCounters counters;
    SystemConfig sys_config;
    Shard shard(0, sys_config, /*capacity=*/6, kSeed, &counters, mode);
    for (auto& src : MakeSources(10)) {
      ASSERT_TRUE(shard.AddSource(std::move(src)));
    }
    shard.PopulateInitial(0);
    for (int64_t t = 1; t <= 20; ++t) shard.TickAll(t);
    constexpr int64_t kNow = 20;

    const std::vector<int> ids = {9, 7, 0, 3, 42, 5, 1, 8};  // 42 unowned
    std::vector<QueryItem> items(2 * ids.size() + 1);
    std::vector<ShardSlot> slots;
    for (size_t k = 0; k < ids.size(); ++k) {
      size_t pos = 2 * k + 1;
      items[pos].source_id = ids[k];
      slots.push_back({pos, ids[k]});
    }
    const Interval untouched(-1.0, -1.0);
    for (size_t pos = 0; pos < items.size(); pos += 2) {
      items[pos].interval = untouched;
    }

    const int64_t fallbacks_before = counters.shared_fallbacks.load();
    shard.SettleIntervals(slots, &items, kNow);
    const int64_t fallbacks = counters.shared_fallbacks.load() -
                              fallbacks_before;
#if APC_OBS
    EXPECT_EQ(fallbacks, mode == ReadLockMode::kSeqlock ? 1 : 0)
        << "mode " << static_cast<int>(mode);
#else
    EXPECT_EQ(fallbacks, 0);
#endif
    EXPECT_EQ(counters.seqlock_retries.load(), 0);

    int bounded = 0;
    int unbounded = 0;
    for (const auto& [pos, id] : slots) {
      Interval visible = shard.VisibleInterval(id, kNow);
      EXPECT_EQ(items[pos].interval, visible) << "id " << id;
      (visible.IsUnbounded() ? unbounded : bounded) += 1;
      Interval snapshot(-2.0, -2.0);
      if (mode == ReadLockMode::kSeqlock) {
        EXPECT_TRUE(shard.TrySnapshot(id, kNow, &snapshot));
        EXPECT_EQ(snapshot, visible) << "id " << id;
      } else {
        EXPECT_FALSE(shard.TrySnapshot(id, kNow, &snapshot));
        EXPECT_EQ(snapshot, Interval(-2.0, -2.0)) << "left alone";
      }
    }
    EXPECT_GT(bounded, 0);
    EXPECT_GT(unbounded, 1) << "an evicted id and the unowned one";
    for (size_t pos = 0; pos < items.size(); pos += 2) {
      EXPECT_EQ(items[pos].interval, untouched) << "position " << pos;
    }
  }
}

// Tentpole property: snapshot readers (ExecuteQuery's one-pass snapshot,
// plus the observability snapshots) keep making progress while a writer
// cycles TickAll. With every value cached and constraints far wider than
// any interval, no query ever upgrades to an exclusive pull — the whole
// read side runs on shared locks and must finish with zero refcharges.
TEST(ShardedEngineTest, ConcurrentReadersProgressWhileWriterCycles) {
  constexpr int kSources = 64;
  EngineConfig config;
  config.num_shards = 4;
  // χ is partitioned across shards; 4× the source count guarantees every
  // shard's slice covers the sources hashed to it, so everything stays
  // cached and no read ever sees the unbounded interval.
  config.system.cache_capacity = kSources * 4;
  ShardedEngine engine(config, MakeSources(kSources));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  QueryWorkloadParams workload = MakeWorkload(kSources);
  workload.constraints.avg = 1e7;  // far wider than any cached interval
  workload.constraints.rho = 0.5;

  std::atomic<bool> stop{false};
  std::atomic<int64_t> ticks{0};
  std::thread writer([&] {
    for (int64_t t = 1; !stop.load(std::memory_order_relaxed); ++t) {
      engine.TickAll(t);
      ticks.store(t, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> readers;
  std::atomic<int64_t> completed{0};
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      QueryGenerator gen(workload, kSeed + 100 + static_cast<uint64_t>(r));
      for (int q = 0; q < 500; ++q) {
        int64_t now = ticks.load(std::memory_order_relaxed);
        Interval result = engine.ExecuteQuery(gen.Next(), now);
        ASSERT_LT(result.Width(), 1e7);
        engine.shard(r).CostsSnapshot();
        engine.MeanRawWidth();
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& reader : readers) reader.join();
  // The readers can finish before the writer is first scheduled on a
  // loaded host; stop only once it has completed a tick.
  while (ticks.load(std::memory_order_relaxed) < 1) std::this_thread::yield();
  stop.store(true);
  writer.join();

  EXPECT_EQ(completed.load(), 4 * 500);
  EXPECT_GT(ticks.load(), 0) << "writer made no progress";
  EXPECT_EQ(engine.TotalCosts().query_refreshes, 0)
      << "a loose-constraint read took the exclusive pull path";
}

// Direct (driver-less) races: raw ExecuteQuery and PointRead callers
// against raw TickAll callers, exercising every read-lock mode's snapshot
// path (seqlock validation + fallback, shared acquisition, exclusive
// baseline) without any bus in between.
TEST(ShardedEngineTest, RawConcurrentAccessKeepsGuaranteeInEveryMode) {
  constexpr int kSources = 32;
  for (ReadLockMode mode : kAllModes) {
    EngineConfig config;
    config.num_shards = 2;
    config.system.cache_capacity = 24;
    config.read_lock_mode = mode;
    ShardedEngine engine(config, MakeSources(kSources));
    engine.PopulateInitial(0);

    std::atomic<bool> stop{false};
    std::atomic<int64_t> violations{0};
    std::thread ticker([&] {
      for (int64_t t = 1; !stop.load(std::memory_order_relaxed); ++t) {
        engine.TickAll(t);
      }
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&, r] {
        QueryGenerator gen(MakeWorkload(kSources),
                           kSeed + static_cast<uint64_t>(r));
        for (int q = 0; q < 200; ++q) {
          Query query = gen.Next();
          Interval result = (q % 4 == 3)
                                ? engine.PointRead(query.source_ids.front(),
                                                   query.constraint, q)
                                : engine.ExecuteQuery(query, q);
          if (result.Width() > query.constraint + 1e-9) ++violations;
        }
      });
    }
    for (auto& reader : readers) reader.join();
    stop.store(true);
    ticker.join();
    EXPECT_EQ(violations.load(), 0)
        << "constraint violated in mode " << static_cast<int>(mode);
  }
}

// Satellite: EngineConfig is validated in full — a zero-capacity bus would
// deadlock every producer, and more shards than cache capacity would leave
// some shard with a zero-entry χ slice.
TEST(ShardedEngineTest, EngineConfigValidationRejectsBadConfigs) {
  EngineConfig config;
  config.system.cache_capacity = 8;
  config.num_shards = 4;
  EXPECT_TRUE(config.IsValid());

  EngineConfig zero_bus = config;
  zero_bus.bus_capacity = 0;
  EXPECT_FALSE(zero_bus.IsValid());

  EngineConfig too_many_shards = config;
  too_many_shards.num_shards = 9;  // > cache_capacity
  EXPECT_FALSE(too_many_shards.IsValid());

  EngineConfig bad_loss = config;
  bad_loss.system.push_loss_probability = 1.5;
  EXPECT_FALSE(bad_loss.IsValid());

  EngineConfig bad_costs = config;
  bad_costs.system.costs.cvr = 0.0;
  EXPECT_FALSE(bad_costs.IsValid());
}

// Satellite: a source carrying an invalid AdaptivePolicyParams set is
// rejected at engine construction — counted, not allowed to poison widths
// mid-run.
TEST(ShardedEngineTest, InvalidPolicySourcesRejectedAtConstruction) {
  std::vector<std::unique_ptr<Source>> sources = MakeSources(6);

  AdaptivePolicyParams bad;
  bad.alpha = -0.5;  // outside the documented domain
  ASSERT_FALSE(bad.IsValid());
  sources.push_back(std::make_unique<Source>(
      100, std::make_unique<RandomWalkStream>(RandomWalkParams{}, 1),
      std::make_unique<AdaptivePolicy>(bad, 1)));

  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, std::move(sources));

  EXPECT_EQ(engine.num_sources(), 6u) << "the bad source must be dropped";
  EXPECT_EQ(engine.counters().rejected_sources.load(), 1);
  EXPECT_FALSE(engine.shard(engine.ShardOf(100)).Owns(100));
}

// Satellite: the malformed-input tallies reach the DriverReport (and from
// there the bench JSON), so rejection rates land in the committed
// trajectory instead of dying with the process.
TEST(ShardedEngineTest, DriverReportSurfacesRejectedCounts) {
  EngineConfig config;
  config.num_shards = 2;
  config.system.cache_capacity = 8;
  ShardedEngine engine(config, MakeSources(12));
  engine.PopulateInitial(0);

  Query bad_sum;
  bad_sum.kind = AggregateKind::kSum;
  bad_sum.source_ids = {1, 999};
  bad_sum.constraint = 1e6;
  engine.ExecuteQuery(bad_sum, 0);        // 999 -> rejected_query_ids
  engine.shard(0).TickSource(777, 0);     // 777 -> rejected_updates

  DriverConfig driver;
  driver.num_threads = 1;
  driver.queries_per_thread = 20;
  driver.workload = MakeWorkload(12);
  driver.run_updates = true;
  DriverReport report = RunWorkload(engine, driver);
  EXPECT_EQ(report.rejected_query_ids, 1);
  EXPECT_EQ(report.rejected_updates, 1);
  EXPECT_EQ(report.violations, 0);
}

}  // namespace
}  // namespace apc
