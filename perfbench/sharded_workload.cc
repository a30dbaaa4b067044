// read_hot and refresh_churn: closed-loop clients over a ShardedEngine,
// calling PointRead and ExecuteQuery, with updates pushed through the
// engine's UpdateBus on the logical tick schedule.

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/source.h"
#include "core/adaptive_policy.h"
#include "data/random_walk.h"
#include "runtime/sharded_engine.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSources = 4096;
constexpr int kShards = 4;

struct ShardedSpec {
  int clients = kClients;
  size_t cache_capacity = kSources;
  OpMix mix;
  /// Every client pushes a tick after each ops_per_tick of its own
  /// operations, so ticks come once per ops_per_tick operations of all
  /// clients together; each carries updates_per_tick per-source events.
  int ops_per_tick = 64;
  int updates_per_tick = 4;
};

std::vector<std::unique_ptr<apc::Source>> BuildSources(int n, uint64_t seed) {
  apc::Rng master(seed);
  std::vector<std::unique_ptr<apc::Source>> sources;
  sources.reserve(static_cast<size_t>(n));
  for (int id = 0; id < n; ++id) {
    const uint64_t stream_seed = master.NextUint64();
    const uint64_t policy_seed = master.NextUint64();
    sources.push_back(std::make_unique<apc::Source>(
        id,
        std::make_unique<apc::RandomWalkStream>(apc::RandomWalkParams{},
                                                stream_seed),
        std::make_unique<apc::AdaptivePolicy>(apc::AdaptivePolicyParams{},
                                              policy_seed)));
  }
  return sources;
}

/// What one client measured during the measured phase.
struct ClientMeasures {
  int64_t untraced_ops = 0;
  int64_t traced_ops = 0;
  int64_t traced_ns = 0;  // client-thread time inside traced windows
  int64_t values_read = 0;  // point reads plus every aggregate's group
  FineHistogram point_ns;
  FineHistogram query_ns;
  std::array<FineHistogram, 4> query_kind_ns;  // by apc::AggregateKind
  TickSamples ticks;

  void Merge(const ClientMeasures& other) {
    untraced_ops += other.untraced_ops;
    traced_ops += other.traced_ops;
    traced_ns += other.traced_ns;
    values_read += other.values_read;
    point_ns.Merge(other.point_ns);
    query_ns.Merge(other.query_ns);
    for (size_t k = 0; k < query_kind_ns.size(); ++k) {
      query_kind_ns[k].Merge(other.query_kind_ns[k]);
    }
    ticks.Merge(other.ticks);
  }
};

/// One closed-loop client. Its position in its operation ring and in the
/// tick schedule carries over from the correctness pass to the warm-up to
/// the measured windows.
class ShardedClient {
 public:
  ShardedClient(apc::ShardedEngine* engine, TickClock* clock,
                const OpRing* ring, int ops_per_tick)
      : engine_(engine),
        clock_(clock),
        ring_(ring),
        ops_per_tick_(ops_per_tick),
        tracer_(kKeptSpans) {}

  /// Closed loop until `stop`.
  void Run(const std::atomic<bool>& stop, bool traced) {
    Tracer* tracer = traced ? &tracer_ : nullptr;
    const int64_t start = NowNs();
    int64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t i = next_op_++;
      {
        ScopedSpan span(tracer, SpanName::kOp);
        DoOp(ring_->at(i), clock_->Now(), !traced && i % kSampleEvery == 0,
             tracer);
      }
      ++ops;
      if (++since_tick_ == ops_per_tick_) {
        since_tick_ = 0;
        ScopedSpan span(tracer, SpanName::kTick);
        clock_->PushNext(traced ? nullptr : &m_.ticks, tracer);
      }
    }
    if (traced) {
      m_.traced_ops += ops;
      m_.traced_ns += NowNs() - start;
    } else {
      m_.untraced_ops += ops;
    }
  }

  /// The correctness pass: `ops` operations alone, waiting after every tick
  /// until the pump has applied it, so each answer must contain the exact
  /// value (or exact aggregate) read just before it.
  void RunLockstep(int64_t ops) {
    std::vector<double> exact;
    for (int64_t k = 0; k < ops; ++k) {
      const Op& op = ring_->at(next_op_++);
      const int32_t* ids = ring_->ids_of(op);
      const int n = ring_->size_of(op);
      exact.resize(static_cast<size_t>(n));
      for (int j = 0; j < n; ++j) exact[j] = engine_->ExactValue(ids[j]);
      const apc::Interval answer = DoOp(op, clock_->Now(), false, nullptr);
      const double want =
          op.kind == OpKind::kPoint
              ? exact[0]
              : ExactAggregate(AggregateOf(op.kind), exact.data(), n);
      if (!ContainsApprox(answer.lo(), answer.hi(), want)) {
        failures_.Fail("lockstep answer [" + std::to_string(answer.lo()) +
                       ", " + std::to_string(answer.hi()) +
                       "] misses exact " + std::to_string(want));
      }
      if (++since_tick_ == ops_per_tick_) {
        since_tick_ = 0;
        clock_->PushNext(nullptr, nullptr);
        if (!clock_->WaitApplied(kApplyTimeoutS)) {
          failures_.Fail("lockstep tick not applied in time");
        }
      }
    }
  }

  /// What the client measured since the last call.
  ClientMeasures TakeMeasures() { return std::exchange(m_, ClientMeasures{}); }
  const Tracer& tracer() const { return tracer_; }
  const RunResult& failures() const { return failures_; }
  int64_t checked() const { return checked_; }

 private:
  apc::Interval DoOp(const Op& op, int64_t now, bool timed, Tracer* tracer) {
    const int32_t* ids = ring_->ids_of(op);
    apc::Interval answer;
    if (op.kind == OpKind::kPoint) {
      const int64_t start = timed ? NowNs() : 0;
      {
        ScopedSpan span(tracer, SpanName::kPointRead);
        answer = engine_->PointRead(ids[0], op.constraint, now);
      }
      if (timed) m_.point_ns.Record(NowNs() - start);
    } else {
      query_.kind = AggregateOf(op.kind);
      query_.source_ids.assign(ids, ids + ring_->group_size);
      query_.constraint = op.constraint;
      const int64_t start = timed ? NowNs() : 0;
      {
        ScopedSpan span(tracer, SpanName::kExecuteQuery);
        answer = engine_->ExecuteQuery(query_, now);
      }
      if (timed) {
        const int64_t ns = NowNs() - start;
        m_.query_ns.Record(ns);
        m_.query_kind_ns[static_cast<size_t>(query_.kind)].Record(ns);
      }
    }
    m_.values_read += ring_->size_of(op);
    ++checked_;
    if (!WithinConstraint(answer.Width(), op.constraint)) {
      failures_.Fail("answer width " + std::to_string(answer.Width()) +
                     " exceeds constraint " + std::to_string(op.constraint));
    }
    return answer;
  }

  apc::ShardedEngine* engine_;
  TickClock* clock_;
  const OpRing* ring_;
  const int ops_per_tick_;
  uint64_t next_op_ = 0;
  int since_tick_ = 0;
  int64_t checked_ = 0;
  apc::Query query_;  // reused: no allocation per aggregate
  ClientMeasures m_;
  Tracer tracer_;
  RunResult failures_;
};

/// Engine tallies read at the edges of the measured phase.
struct EngineSnapshot {
  int64_t value_refreshes = 0;
  int64_t query_refreshes = 0;
  int64_t updates_applied = 0;
  int64_t seqlock_retries = 0;
  int64_t shared_fallbacks = 0;
  int64_t drained = 0;
  int64_t drain_batches = 0;

  static EngineSnapshot Take(const apc::ShardedEngine& engine) {
    const apc::RuntimeCounters& c = engine.counters();
    const auto registry = engine.metrics().TakeSnapshot();
    EngineSnapshot s;
    s.value_refreshes = c.value_refreshes.load();
    s.query_refreshes = c.query_refreshes.load();
    s.updates_applied = c.updates_applied.load();
    s.seqlock_retries = c.seqlock_retries.load();
    s.shared_fallbacks = c.shared_fallbacks.load();
    s.drained = registry.CounterValue("bus.drained");
    s.drain_batches = registry.CounterValue("bus.drain_batches");
    return s;
  }
};

RunResult RunSharded(const ShardedSpec& spec, const RunOptions& options) {
  RunResult result;
  const int n = kSources;

  // Inputs, all from the seed. Generating them is not part of setup_s.
  apc::Rng seeds(options.seed);
  const uint64_t source_seed = seeds.NextUint64();
  std::vector<OpRing> rings;
  for (int c = 0; c < spec.clients; ++c) {
    rings.push_back(MakeOpRing(spec.mix, n, kRingOps, seeds.NextUint64()));
  }
  const UpdateRing updates =
      MakeUpdateRing(n, spec.updates_per_tick, kRingTicks, seeds.NextUint64());

  apc::EngineConfig config;
  config.system.cache_capacity = spec.cache_capacity;
  config.num_shards = kShards;
  config.seed = source_seed;

  // Set-up, repeated; the last engine serves the run.
  std::unique_ptr<apc::ShardedEngine> engine;
  std::vector<double> setup_s, construct_s, populate_s;
  for (int k = 0; k < kSetups; ++k) {
    engine.reset();
    const int64_t t0 = NowNs();
    engine = std::make_unique<apc::ShardedEngine>(config,
                                                  BuildSources(n, source_seed));
    const int64_t t1 = NowNs();
    engine->PopulateInitial(0);
    const int64_t t2 = NowNs();
    construct_s.push_back((t1 - t0) * 1e-9);
    populate_s.push_back((t2 - t1) * 1e-9);
    setup_s.push_back((t2 - t0) * 1e-9);
  }
  if (!engine->StartUpdatePump()) {
    result.Fail("update pump did not start");
    return result;
  }

  TickClock clock(&engine->bus(), &updates,
                  &engine->counters().updates_applied);
  std::vector<std::unique_ptr<ShardedClient>> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.push_back(std::make_unique<ShardedClient>(
        engine.get(), &clock, &rings[static_cast<size_t>(c)],
        spec.ops_per_tick));
  }

  clients[0]->RunLockstep(kGateOps);
  RunWindow(spec.clients, options.seconds * kWarmupShare,
            [&](int c, const std::atomic<bool>& stop) {
              clients[static_cast<size_t>(c)]->Run(stop, false);
            });
  if (!clock.WaitApplied(kApplyTimeoutS)) {
    result.Fail("warm-up updates not applied in time");
  }
  for (auto& client : clients) client->TakeMeasures();

  const EngineSnapshot before = EngineSnapshot::Take(*engine);
  const int64_t offered_before = clock.offered();
  engine->BeginMeasurement(clock.Now());
  const std::vector<bool> plan = WindowPlan(options.seconds, options.trace);
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double stolen_s = 0.0;
  ClientMeasures all;
  WindowFigures windows;
  for (bool traced : plan) {
    const WindowTime time = RunWindow(
        spec.clients, options.seconds / static_cast<double>(plan.size()),
        [&](int c, const std::atomic<bool>& stop) {
          clients[static_cast<size_t>(c)]->Run(stop, traced);
        });
    ClientMeasures window;
    for (auto& client : clients) window.Merge(client->TakeMeasures());
    if (traced) {
      traced_s += time.run_s;
    } else {
      untraced_s += time.run_s;
      stolen_s += time.wall_s - time.run_s;
      windows.Add(window.untraced_ops / time.run_s, window.point_ns);
    }
    all.Merge(window);
  }
  // Offered load must equal achieved load: every pushed update applied.
  if (!clock.WaitApplied(kApplyTimeoutS)) {
    result.Fail("updates offered (" + std::to_string(clock.offered()) +
                ") != applied (" + std::to_string(clock.applied()) + ")");
  }
  engine->EndMeasurement(clock.Now());
  const EngineSnapshot after = EngineSnapshot::Take(*engine);
  const double cost = engine->TotalCosts().total_cost;
  const double mean_raw_width = engine->MeanRawWidth();
  const int64_t quiesce_start = NowNs();
  engine->subscriptions().WaitQuiescent();
  const double quiesce_ms = (NowNs() - quiesce_start) * 1e-6;
  engine->StopUpdatePump();

  std::vector<const Tracer*> tracers;
  for (const auto& client : clients) {
    tracers.push_back(&client->tracer());
    result.attempted += client->checked();
    result.failed += client->failures().failed;
    for (const std::string& e : client->failures().errors) {
      if (result.errors.size() < 16) result.errors.push_back(e);
    }
  }
  const int64_t ops = all.untraced_ops + all.traced_ops;

  const double vr = static_cast<double>(after.value_refreshes -
                                        before.value_refreshes);
  const double qr = static_cast<double>(after.query_refreshes -
                                        before.query_refreshes);
  const double applied = static_cast<double>(after.updates_applied -
                                             before.updates_applied);
  const double theta = apc::AdaptivePolicyParams{}.Theta();
  const double untraced_ops_per_s = Ratio(all.untraced_ops, untraced_s);
  auto& m = result.metrics;

  windows.Report(&result);
  m["cost_per_op"] = Ratio(cost, ops);
  m["setup_s"] = Median(setup_s);
  m["rss_mb"] = PeakRssMb();

  m["runtime.point_read_ns.p50"] = all.point_ns.Quantile(0.50);
  m["runtime.point_read_ns.p99"] = all.point_ns.Quantile(0.99);
  m["runtime.query_ns.p50"] = all.query_ns.Quantile(0.50);
  m["runtime.query_ns.p99"] = all.query_ns.Quantile(0.99);
  static constexpr std::pair<apc::AggregateKind, const char*> kKinds[] = {
      {apc::AggregateKind::kSum, "sum"},
      {apc::AggregateKind::kAvg, "avg"},
      {apc::AggregateKind::kMax, "max"},
      {apc::AggregateKind::kMin, "min"}};
  for (const auto& [kind, label] : kKinds) {
    m[std::string("runtime.query_") + label + "_ns.p50"] =
        all.query_kind_ns[static_cast<size_t>(kind)].Quantile(0.50);
  }
  m["runtime.seqlock_retries_per_kread"] =
      1e3 * Ratio(after.seqlock_retries - before.seqlock_retries, ops);
  m["runtime.shared_fallbacks_per_kread"] =
      1e3 * Ratio(after.shared_fallbacks - before.shared_fallbacks, ops);

  // Every exact pull is one value read the cache could not answer.
  m["core.read_satisfied_ratio"] = 1.0 - Ratio(qr, all.values_read);
  m["core.pulls_per_query"] = Ratio(qr, ops);
  m["core.value_refreshes_per_update"] = Ratio(vr, applied);
  m["core.balance"] = Ratio(theta * vr, qr);
  m["core.mean_raw_width"] = mean_raw_width;

  m["bus.push_ns_per_event.p50"] = all.ticks.push_ns_per_event.Quantile(0.50);
  m["bus.push_ns_per_event.p99"] = all.ticks.push_ns_per_event.Quantile(0.99);
  m["bus.backlog_events.p99"] = all.ticks.backlog_events.Quantile(0.99);
  m["bus.apply_lag_events.p99"] = all.ticks.apply_lag_events.Quantile(0.99);
  m["bus.events_per_drain"] = Ratio(after.drained - before.drained,
                                    after.drain_batches - before.drain_batches);
  m["bus.updates_offered"] = static_cast<double>(clock.offered() - offered_before);
  m["bus.updates_applied"] = applied;

  m["subscribe.quiesce_ms"] = quiesce_ms;
  m["setup.construct_s"] = Median(construct_s);
  m["setup.populate_s"] = Median(populate_s);

  result.notes.push_back({"measured_ops", std::to_string(ops)});
  result.notes.push_back({"client_cpu_stolen_s", std::to_string(stolen_s)});
  result.notes.push_back(
      {"updates_per_op",
       std::to_string(Ratio(clock.offered() - offered_before, ops))});
  result.notes.push_back(
      {"point_read_samples", std::to_string(all.point_ns.count())});
  result.notes.push_back(
      {"query_samples", std::to_string(all.query_ns.count())});
  result.notes.push_back(
      {"ticks_pushed", std::to_string(clock.Now())});
  if (options.trace) {
    AddTraceMetrics(tracers, all.traced_ops, all.traced_ns * 1e-9,
                    untraced_ops_per_s, Ratio(all.traced_ops, traced_s),
                    &result);
    if (!options.span_path.empty() &&
        !WriteSpans(options.span_path, tracers)) {
      result.Fail("could not write spans to " + options.span_path);
    }
  }
  return result;
}

}  // namespace

// read_hot: the working set fits the cache and constraints are loose, so
// nearly every read is a satisfied lock-free seqlock read; few updates per
// operation keep refresh, bus and eviction work small.
RunResult RunReadHot(const RunOptions& options) {
  ShardedSpec spec;
  spec.mix.point_fraction = 0.95;
  spec.mix.group_size = 8;
  spec.mix.zipf_s = 0.99;
  spec.mix.point_constraint = {20.0, 0.5};
  spec.mix.aggregate_constraint = {20.0, 0.5};
  spec.ops_per_tick = 1024;
  spec.updates_per_tick = 16;
  return RunSharded(spec, options);
}

// refresh_churn: twice as many sources as cache slots, an update every
// fourth operation and tight constraints, so value-initiated refreshes, the
// bus and its pump, refresh selection, exact pulls and eviction dominate.
RunResult RunRefreshChurn(const RunOptions& options) {
  ShardedSpec spec;
  spec.cache_capacity = 2048;
  spec.mix.point_fraction = 0.2;
  spec.mix.group_size = 16;
  spec.mix.zipf_s = 0.99;
  spec.mix.point_constraint = {2.0, 1.0};
  spec.mix.aggregate_constraint = {8.0, 1.0};
  spec.clients = 1;
  spec.ops_per_tick = 64;
  spec.updates_per_tick = 16;
  return RunSharded(spec, options);
}

}  // namespace perfbench
