#include "runtime/tiered_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "data/random_walk.h"
#include "hierarchy/hierarchy.h"
#include "runtime/workload_driver.h"
#include "util/rng.h"

namespace apc {
namespace {

constexpr uint64_t kSeed = 4001;

constexpr ReadLockMode kAllModes[] = {ReadLockMode::kSeqlock,
                                      ReadLockMode::kShared,
                                      ReadLockMode::kExclusive};

HierarchyConfig SequentialConfig(int sources, int edges) {
  HierarchyConfig config;
  config.num_sources = sources;
  config.num_edges = edges;
  config.wan = {4.0, 8.0};
  config.lan = {1.0, 2.0};
  config.regional_policy.alpha = 1.0;
  config.regional_policy.initial_width = 4.0;
  config.edge_policy.alpha = 1.0;
  config.edge_policy.initial_width = 8.0;
  return config;
}

TieredConfig TieredFrom(const HierarchyConfig& sequential, int num_shards,
                        uint64_t seed) {
  TieredConfig config;
  config.num_edges = sequential.num_edges;
  config.num_shards = num_shards;
  config.wan = sequential.wan;
  config.lan = sequential.lan;
  config.regional_policy = sequential.regional_policy;
  config.edge_policy = sequential.edge_policy;
  config.seed = seed;
  return config;
}

std::vector<std::unique_ptr<UpdateStream>> WalkStreams(int n,
                                                       uint64_t seed) {
  return BuildRandomWalkStreams(n, RandomWalkParams{}, seed);
}

TEST(TieredConfigTest, Validation) {
  TieredConfig config;
  EXPECT_TRUE(config.IsValid());

  TieredConfig bad = config;
  bad.num_edges = 0;
  EXPECT_FALSE(bad.IsValid());

  bad = config;
  bad.num_shards = 0;
  EXPECT_FALSE(bad.IsValid());

  bad = config;
  bad.bus_capacity = 0;
  EXPECT_FALSE(bad.IsValid());

  bad = config;
  bad.wan.cvr = 0.0;
  EXPECT_FALSE(bad.IsValid());

  bad = config;
  bad.lan_push_loss = 1.5;
  EXPECT_FALSE(bad.IsValid());

  bad = config;
  bad.edge_policy.alpha = -1.0;
  EXPECT_FALSE(bad.IsValid());
}

/// The acceptance bar of the tiered runtime: a TieredEngine driven in
/// lockstep from one thread reproduces the sequential HierarchicalSystem's
/// answers, intervals, raw widths, and per-link charges exactly. Policy
/// RNG streams are per-entity (one policy instance per regional value and
/// per (edge, value)), so the guarantee holds for ANY edge and shard
/// count; the 1-edge/1-shard case is the pinned acceptance criterion.
void ExpectTieredLockstepParity(int num_sources, int num_edges,
                                int num_shards, ReadLockMode mode,
                                int64_t ticks, uint64_t stream_seed) {
  HierarchyConfig seq_config = SequentialConfig(num_sources, num_edges);
  HierarchicalSystem sequential(seq_config,
                                WalkStreams(num_sources, stream_seed), kSeed);
  sequential.BeginMeasurement(0);

  TieredConfig tiered_config = TieredFrom(seq_config, num_shards, kSeed);
  tiered_config.read_lock_mode = mode;
  TieredEngine tiered(tiered_config, WalkStreams(num_sources, stream_seed));
  tiered.PopulateInitial(0);
  tiered.BeginMeasurement(0);

  Rng seq_reads(kSeed ^ 0xF00D);
  Rng tiered_reads(kSeed ^ 0xF00D);
  for (int64_t t = 1; t <= ticks; ++t) {
    sequential.Tick(t);
    tiered.TickAll(t);
    // Two reads per tick from identical draw streams.
    for (int r = 0; r < 2; ++r) {
      int edge = static_cast<int>(
          seq_reads.UniformInt(0, num_edges - 1));
      int id = static_cast<int>(seq_reads.UniformInt(0, num_sources - 1));
      double constraint = seq_reads.Uniform(0.0, 30.0);
      ASSERT_EQ(tiered_reads.UniformInt(0, num_edges - 1), edge);
      ASSERT_EQ(tiered_reads.UniformInt(0, num_sources - 1), id);
      ASSERT_EQ(tiered_reads.Uniform(0.0, 30.0), constraint);

      Interval expected = sequential.Read(edge, id, constraint, t);
      Interval actual = tiered.Read(edge, id, constraint, t);
      ASSERT_EQ(actual, expected)
          << "answer diverged at tick " << t << " (edge " << edge << ", id "
          << id << ", constraint " << constraint << ")";
    }
    for (int id = 0; id < num_sources; ++id) {
      ASSERT_EQ(tiered.regional_interval(id, t),
                sequential.regional_interval(id))
          << "regional interval diverged at tick " << t << ", id " << id;
      ASSERT_EQ(tiered.regional_raw_width(id),
                sequential.regional_raw_width(id));
      ASSERT_EQ(tiered.exact_value(id), sequential.exact_value(id));
      for (int e = 0; e < num_edges; ++e) {
        ASSERT_EQ(tiered.edge_interval(e, id, t),
                  sequential.edge_interval(e, id))
            << "edge interval diverged at tick " << t << ", edge " << e
            << ", id " << id;
        ASSERT_EQ(tiered.edge_raw_width(e, id),
                  sequential.edge_raw_width(e, id));
      }
    }
  }
  sequential.EndMeasurement(ticks);
  tiered.EndMeasurement(ticks);

  EngineCosts wan = tiered.WanCosts();
  EngineCosts lan = tiered.LanCosts();
  EXPECT_EQ(wan.value_refreshes, sequential.wan_costs().value_refreshes());
  EXPECT_EQ(wan.query_refreshes, sequential.wan_costs().query_refreshes());
  EXPECT_DOUBLE_EQ(wan.total_cost, sequential.wan_costs().total_cost());
  EXPECT_EQ(lan.value_refreshes, sequential.lan_costs().value_refreshes());
  EXPECT_EQ(lan.query_refreshes, sequential.lan_costs().query_refreshes());
  EXPECT_DOUBLE_EQ(lan.total_cost, sequential.lan_costs().total_cost());
  EXPECT_DOUBLE_EQ(tiered.TotalCostRate(), sequential.TotalCostRate());
  // The workload genuinely exercised every hop.
  EXPECT_GT(wan.value_refreshes, 0) << "weak setup: no WAN pushes";
  EXPECT_GT(wan.query_refreshes, 0) << "weak setup: no source escalations";
  EXPECT_GT(lan.value_refreshes, 0) << "weak setup: no derived fan-out";
  EXPECT_GT(lan.query_refreshes, 0) << "weak setup: no edge escalations";
}

// The pinned acceptance criterion: 1 edge / 1 shard / 1 thread.
TEST(TieredEngineTest, LockstepParityOneEdgeOneShard) {
  for (ReadLockMode mode : kAllModes) {
    ExpectTieredLockstepParity(/*num_sources=*/6, /*num_edges=*/1,
                               /*num_shards=*/1, mode, /*ticks=*/400,
                               kSeed ^ 0x11);
  }
}

// Per-entity policy RNG streams make the guarantee independent of the
// edge count and even of the shard partition (lockstep, one thread).
TEST(TieredEngineTest, LockstepParityMultiEdgeMultiShard) {
  ExpectTieredLockstepParity(/*num_sources=*/8, /*num_edges=*/3,
                             /*num_shards=*/1, ReadLockMode::kSeqlock,
                             /*ticks=*/300, kSeed ^ 0x22);
  ExpectTieredLockstepParity(/*num_sources=*/8, /*num_edges=*/3,
                             /*num_shards=*/3, ReadLockMode::kSeqlock,
                             /*ticks=*/300, kSeed ^ 0x22);
}

// Updates delivered through the bus (tick-all and per-source events) must
// land exactly like synchronous lockstep ticks, fan-out included.
TEST(TieredEngineTest, UpdateBusMatchesSynchronousTicks) {
  constexpr int kSources = 10;
  constexpr int64_t kTicks = 150;
  HierarchyConfig seq_config = SequentialConfig(kSources, 2);
  TieredConfig config = TieredFrom(seq_config, 2, kSeed);

  TieredEngine lockstep(config, WalkStreams(kSources, kSeed ^ 0x33));
  lockstep.PopulateInitial(0);
  lockstep.BeginMeasurement(0);
  for (int64_t t = 1; t <= kTicks; ++t) lockstep.TickAll(t);
  lockstep.EndMeasurement(kTicks);

  TieredEngine via_bus(config, WalkStreams(kSources, kSeed ^ 0x33));
  via_bus.PopulateInitial(0);
  via_bus.BeginMeasurement(0);
  ASSERT_TRUE(via_bus.StartUpdatePump());
  for (int64_t t = 1; t <= kTicks; ++t) {
    ASSERT_TRUE(via_bus.bus().Push({t, UpdateEvent::kAllSources}));
  }
  via_bus.StopUpdatePump();
  via_bus.EndMeasurement(kTicks);

  TieredEngine via_per_source(config, WalkStreams(kSources, kSeed ^ 0x33));
  via_per_source.PopulateInitial(0);
  via_per_source.BeginMeasurement(0);
  ASSERT_TRUE(via_per_source.StartUpdatePump());
  for (int64_t t = 1; t <= kTicks; ++t) {
    for (int id = 0; id < kSources; ++id) {
      ASSERT_TRUE(via_per_source.bus().Push({t, id}));
    }
  }
  via_per_source.StopUpdatePump();
  via_per_source.EndMeasurement(kTicks);

  EngineCosts expected_wan = lockstep.WanCosts();
  EngineCosts expected_lan = lockstep.LanCosts();
  for (TieredEngine* engine : {&via_bus, &via_per_source}) {
    EngineCosts wan = engine->WanCosts();
    EngineCosts lan = engine->LanCosts();
    EXPECT_EQ(wan.value_refreshes, expected_wan.value_refreshes);
    EXPECT_DOUBLE_EQ(wan.total_cost, expected_wan.total_cost);
    EXPECT_EQ(lan.value_refreshes, expected_lan.value_refreshes);
    EXPECT_DOUBLE_EQ(lan.total_cost, expected_lan.total_cost);
    for (int id = 0; id < kSources; ++id) {
      EXPECT_EQ(engine->regional_interval(id, kTicks),
                lockstep.regional_interval(id, kTicks));
      for (int e = 0; e < 2; ++e) {
        EXPECT_EQ(engine->edge_interval(e, id, kTicks),
                  lockstep.edge_interval(e, id, kTicks));
      }
    }
  }
  EXPECT_EQ(via_per_source.counters().updates_applied.load(),
            kSources * kTicks);
}

// Satellite: escalation charging under push loss. A lost WAN push is
// charged (the source paid for the message) but never reaches the
// regional cache, so it must not cascade LAN pushes; a lost LAN push is
// charged on the LAN link and leaves only that edge stale.
TEST(TieredEngineTest, EscalationChargingUnderWanPushLoss) {
  constexpr int kSources = 8;
  HierarchyConfig seq_config = SequentialConfig(kSources, 2);
  TieredConfig config = TieredFrom(seq_config, 1, kSeed);
  config.wan_push_loss = 1.0;  // every WAN push is lost in transit
  TieredEngine engine(config, WalkStreams(kSources, kSeed ^ 0x44));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  Rng rng(kSeed);
  for (int64_t t = 1; t <= 300; ++t) {
    engine.TickAll(t);
    // Loose reads only: value-initiated traffic dominates.
    engine.Read(static_cast<int>(rng.UniformInt(0, 1)),
                static_cast<int>(rng.UniformInt(0, kSources - 1)), 1e6, t);
  }
  engine.EndMeasurement(300);

  EngineCosts wan = engine.WanCosts();
  EngineCosts lan = engine.LanCosts();
  EXPECT_GT(wan.value_refreshes, 0) << "weak setup: no WAN pushes";
  // Charged-but-lost: every WAN push was charged AND lost.
  EXPECT_EQ(engine.lost_wan_pushes(), wan.value_refreshes);
  // An undelivered regional interval must not fan out LAN pushes.
  EXPECT_EQ(lan.value_refreshes, 0);
  EXPECT_EQ(engine.counters().derived_pushes.load(), 0);
  EXPECT_EQ(engine.lost_lan_pushes(), 0);
  // The invariant survives WAN loss: edges still contain the (stale)
  // regional interval.
  EXPECT_TRUE(engine.DerivedInvariantHolds(300));
}

TEST(TieredEngineTest, EscalationChargingUnderLanPushLoss) {
  constexpr int kSources = 8;
  HierarchyConfig seq_config = SequentialConfig(kSources, 3);
  TieredConfig config = TieredFrom(seq_config, 1, kSeed);
  config.lan_push_loss = 0.5;
  TieredEngine engine(config, WalkStreams(kSources, kSeed ^ 0x55));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  Rng rng(kSeed + 1);
  int64_t violations = 0;
  for (int64_t t = 1; t <= 400; ++t) {
    engine.TickAll(t);
    int edge = static_cast<int>(rng.UniformInt(0, 2));
    int id = static_cast<int>(rng.UniformInt(0, kSources - 1));
    double constraint = rng.Uniform(0.0, 20.0);
    Interval answer = engine.Read(edge, id, constraint, t);
    if (answer.Width() > constraint + 1e-9) ++violations;
  }
  engine.EndMeasurement(400);

  EngineCosts lan = engine.LanCosts();
  // Every derived push was charged, delivered or not (charged-but-lost),
  // and the injection genuinely fired.
  EXPECT_GT(engine.lost_lan_pushes(), 0) << "injection never fired";
  EXPECT_EQ(lan.value_refreshes, engine.counters().derived_pushes.load());
  EXPECT_GT(lan.value_refreshes, engine.lost_lan_pushes())
      << "weak setup: every push lost";
  // The WIDTH guarantee is loss-proof: escalation re-reads authoritative
  // tiers, so a stale edge can only cost extra hops, never a wide answer.
  EXPECT_EQ(violations, 0);
}

// Tentpole concurrency property: derived-refresh fan-out races concurrent
// edge reads. Every result must satisfy its constraint, and the derived-
// precision invariant must hold at ANY sampled instant (all mutations of
// an id's tier pair happen under its regional shard lock), not just at
// quiescence. Run under TSan by scripts/check.sh --tsan.
TEST(TieredEngineTest, FanOutCorrectUnderConcurrentEdgeReads) {
  constexpr int kSources = 24;
  constexpr int kEdges = 3;
  for (ReadLockMode mode : kAllModes) {
    HierarchyConfig seq_config = SequentialConfig(kSources, kEdges);
    TieredConfig config = TieredFrom(seq_config, 2, kSeed);
    config.read_lock_mode = mode;
    TieredEngine engine(config, WalkStreams(kSources, kSeed ^ 0x66));
    engine.PopulateInitial(0);

    std::atomic<bool> stop{false};
    std::atomic<int64_t> ticks{0};
    std::thread ticker([&] {
      for (int64_t t = 1; !stop.load(std::memory_order_relaxed); ++t) {
        engine.TickAll(t);
        ticks.store(t, std::memory_order_relaxed);
      }
    });
    std::thread checker([&] {
      // The invariant is checked mid-run, racing the ticker's fan-outs.
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t now = ticks.load(std::memory_order_relaxed);
        ASSERT_TRUE(engine.DerivedInvariantHolds(now))
            << "A_edge ⊉ A_regional observed mid-run in mode "
            << static_cast<int>(mode);
      }
    });
    std::vector<std::thread> readers;
    std::atomic<int64_t> violations{0};
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&, r] {
        Rng rng(kSeed + 10 + static_cast<uint64_t>(r));
        for (int q = 0; q < 400; ++q) {
          int edge = static_cast<int>(rng.UniformInt(0, kEdges - 1));
          int id = static_cast<int>(rng.UniformInt(0, kSources - 1));
          double constraint = rng.Uniform(0.0, 25.0);
          int64_t now = ticks.load(std::memory_order_relaxed);
          Interval answer = engine.Read(edge, id, constraint, now);
          if (answer.Width() > constraint + 1e-9) ++violations;
        }
      });
    }
    for (auto& reader : readers) reader.join();
    // The readers can finish before the ticker is first scheduled on a
    // loaded host; stop only once it has completed a tick, so the run
    // always checks the invariant across at least one fan-out.
    while (ticks.load(std::memory_order_relaxed) < 1) {
      std::this_thread::yield();
    }
    stop.store(true);
    checker.join();
    ticker.join();

    EXPECT_EQ(violations.load(), 0)
        << "constraint violated in mode " << static_cast<int>(mode);
    EXPECT_GT(ticks.load(), 0) << "ticker made no progress";
    EXPECT_TRUE(engine.DerivedInvariantHolds(ticks.load()));
    EXPECT_EQ(engine.counters().reads.load(), 3 * 400);
  }
}

// Every read lands in exactly one outcome bucket, and loose reads are
// free while tight reads escalate and charge.
TEST(TieredEngineTest, ReadOutcomeCountersPartitionReads) {
  constexpr int kSources = 10;
  HierarchyConfig seq_config = SequentialConfig(kSources, 2);
  TieredEngine engine(TieredFrom(seq_config, 1, kSeed),
                      WalkStreams(kSources, kSeed ^ 0x77));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);

  // Edge initial width 8 >= regional initial width 4.
  Interval loose = engine.Read(0, 0, /*constraint=*/100.0, 0);
  EXPECT_LE(loose.Width(), 100.0);
  EXPECT_EQ(engine.counters().edge_hits.load(), 1);
  EXPECT_DOUBLE_EQ(engine.LanCosts().total_cost, 0.0) << "local reads are free";

  Interval medium = engine.Read(0, 0, /*constraint=*/5.0, 0);
  EXPECT_LE(medium.Width(), 5.0);
  EXPECT_EQ(engine.counters().regional_hits.load(), 1);
  EXPECT_EQ(engine.LanCosts().query_refreshes, 1);
  EXPECT_EQ(engine.WanCosts().query_refreshes, 0);

  Interval tight = engine.Read(1, 0, /*constraint=*/0.0, 0);
  EXPECT_TRUE(tight.IsExact());
  EXPECT_EQ(engine.counters().source_pulls.load(), 1);
  EXPECT_EQ(engine.WanCosts().query_refreshes, 1);

  // Unknown edge / id: rejected, charge-free, unbounded.
  EXPECT_TRUE(engine.Read(7, 0, 1.0, 0).IsUnbounded());
  EXPECT_TRUE(engine.Read(0, 999, 1.0, 0).IsUnbounded());
  EXPECT_EQ(engine.counters().rejected_reads.load(), 2);

  const TieredCounters& counters = engine.counters();
  EXPECT_EQ(counters.reads.load(),
            counters.edge_hits.load() + counters.regional_hits.load() +
                counters.source_pulls.load() +
                counters.rejected_reads.load());

  // Unknown update ids are rejected, not fatal.
  engine.TickSource(999, 1);
  EXPECT_EQ(counters.rejected_updates.load(), 1);
}

// The tiered workload driver: geo-skewed phase-shifting run completes,
// meets every constraint, and surfaces the tier hit mix.
TEST(TieredWorkloadTest, GeoSkewedPhaseShiftingRunCompletes) {
  constexpr int kSources = 32;
  HierarchyConfig seq_config = SequentialConfig(kSources, 4);
  TieredConfig config = TieredFrom(seq_config, 2, kSeed);
  TieredEngine engine(config, WalkStreams(kSources, kSeed ^ 0x88));

  TieredWorkloadConfig workload;
  workload.num_threads = 3;
  workload.queries_per_thread = 400;
  workload.num_sources = kSources;
  workload.zipf_s = 1.1;
  workload.constraints = {15.0, 1.0};
  workload.run_updates = true;
  workload.update_burst = 8;
  workload.num_phases = 3;
  workload.seed = kSeed;
  TieredDriverReport report = RunTieredWorkload(engine, workload);

  EXPECT_EQ(report.queries, 3 * 400);
  EXPECT_EQ(report.violations, 0)
      << "a returned interval exceeded its precision constraint";
  EXPECT_GT(report.ticks, 0) << "updater made no progress";
  EXPECT_GT(report.queries_per_second, 0.0);
  EXPECT_EQ(report.edge_hits + report.regional_hits + report.source_pulls,
            report.queries);
  // The constraint mix genuinely exercises all three outcomes.
  EXPECT_GT(report.edge_hits, 0);
  EXPECT_GT(report.regional_hits + report.source_pulls, 0);
  EXPECT_GT(report.wan.total_cost + report.lan.total_cost, 0.0);
  EXPECT_EQ(engine.counters().reads.load(), report.queries);

  // An invalid config yields the zero report without touching the engine.
  TieredWorkloadConfig invalid = workload;
  invalid.num_threads = 0;
  EXPECT_EQ(RunTieredWorkload(engine, invalid).queries, 0);

  // An id space the engine does not fully own is refused up front — a
  // config/engine mismatch must not masquerade as precision violations.
  TieredWorkloadConfig mismatched = workload;
  mismatched.num_sources = kSources + 10;
  EXPECT_EQ(RunTieredWorkload(engine, mismatched).queries, 0);
}

// Null streams are rejected and counted; the engine stays fully usable.
TEST(TieredEngineTest, NullStreamsRejectedAtConstruction) {
  auto streams = WalkStreams(6, kSeed ^ 0x99);
  streams[2] = nullptr;
  HierarchyConfig seq_config = SequentialConfig(6, 2);
  TieredEngine engine(TieredFrom(seq_config, 2, kSeed), std::move(streams));
  EXPECT_EQ(engine.num_sources(), 5u);
  EXPECT_EQ(engine.counters().rejected_sources.load(), 1);
  EXPECT_FALSE(engine.Owns(2));
  engine.PopulateInitial(0);
  EXPECT_TRUE(engine.Read(0, 0, 1e9, 0).Width() < kInfinity);
}

// Ownership reads each regional table's slot map, lock-free. Unowned ids
// — a rejected stream's id, one past the end, negative, huge — are
// refused on every path, charge-free and counted; owned ids are served.
TEST(TieredEngineTest, UnownedIdsRejectedOnEveryPath) {
  auto streams = WalkStreams(6, kSeed ^ 0xaa);
  streams[2] = nullptr;
  HierarchyConfig seq_config = SequentialConfig(6, 2);
  TieredEngine engine(TieredFrom(seq_config, 3, kSeed), std::move(streams));
  engine.PopulateInitial(0);
  engine.BeginMeasurement(0);
  const std::vector<int> unowned = {2, 6, -3, 1 << 21};
  for (int id : {0, 1, 3, 4, 5}) {
    EXPECT_TRUE(engine.Owns(id)) << "id " << id;
    EXPECT_TRUE(engine.Read(1, id, 0.0, 0).IsExact()) << "id " << id;
  }
  const TieredCounters& counters = engine.counters();
  const double cost =
      engine.WanCosts().total_cost + engine.LanCosts().total_cost;
  for (int id : unowned) {
    EXPECT_FALSE(engine.Owns(id)) << "id " << id;
    EXPECT_TRUE(engine.Read(0, id, 1e9, 0).IsUnbounded()) << "id " << id;
    EXPECT_TRUE(engine.regional_interval(id).IsUnbounded()) << "id " << id;
    EXPECT_TRUE(engine.edge_interval(0, id).IsUnbounded()) << "id " << id;
    EXPECT_TRUE(std::isnan(engine.exact_value(id))) << "id " << id;
    EXPECT_TRUE(std::isnan(engine.regional_raw_width(id))) << "id " << id;
    EXPECT_TRUE(std::isnan(engine.edge_raw_width(1, id))) << "id " << id;
    engine.TickSource(id, 1);
  }
  EXPECT_EQ(counters.rejected_reads.load(),
            static_cast<int64_t>(unowned.size()));
  EXPECT_EQ(counters.rejected_updates.load(),
            static_cast<int64_t>(unowned.size()));
  EXPECT_DOUBLE_EQ(engine.WanCosts().total_cost + engine.LanCosts().total_cost,
                   cost)
      << "rejected reads and updates are charge-free";
  EXPECT_EQ(engine.Subscribe(Query{AggregateKind::kSum, {0, 6}, 1.0}, 1.0, 0),
            -1);

  ASSERT_TRUE(engine.StartUpdatePump());
  for (int id : unowned) ASSERT_TRUE(engine.bus().Push({2, id}));
  ASSERT_TRUE(engine.bus().Push({2, 4}));
  engine.StopUpdatePump();
  EXPECT_EQ(counters.rejected_updates.load(),
            static_cast<int64_t>(2 * unowned.size()));
  EXPECT_EQ(counters.updates_applied.load(), 1);
}

}  // namespace
}  // namespace apc
