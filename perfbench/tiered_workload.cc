// tiered_push: closed-loop clients reading a TieredEngine at their home
// edge, standing queries at the regional tier drained by client 0 every
// tick, and updates pushed through the engine's UpdateBus on the logical
// tick schedule.

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/random_walk.h"
#include "runtime/tiered_engine.h"
#include "subscribe/notification_hub.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSources = 4096;
constexpr int kEdges = 4;
constexpr int kShards = 4;
constexpr size_t kStandingQueries = 512;
/// Every client pushes a tick after each kOpsPerTick of its own reads, so
/// ticks come once per kOpsPerTick reads of all clients together; each
/// carries kUpdatesPerTick per-source events.
constexpr int kOpsPerTick = 256;
constexpr int kUpdatesPerTick = 4;
/// Every client's home edge, and with it the hotspot it reads, moves to the
/// next edge after this many of its operations.
constexpr uint64_t kPhaseOps = uint64_t{1} << 18;
constexpr size_t kDrainBatch = 256;

apc::TieredConfig Config(uint64_t seed) {
  apc::TieredConfig config;
  config.num_edges = kEdges;
  config.num_shards = kShards;
  config.wan = {4.0, 8.0};
  config.lan = {1.0, 2.0};
  config.regional_policy.initial_width = 4.0;
  config.edge_policy.initial_width = 8.0;
  // Room for every registration answer before anyone drains.
  config.subscription_hub_capacity = 4 * kStandingQueries;
  config.seed = seed;
  return config;
}

std::vector<std::unique_ptr<apc::UpdateStream>> BuildStreams(uint64_t seed) {
  apc::Rng master(seed);
  std::vector<std::unique_ptr<apc::UpdateStream>> streams;
  streams.reserve(kSources);
  for (int id = 0; id < kSources; ++id) {
    streams.push_back(std::make_unique<apc::RandomWalkStream>(
        apc::RandomWalkParams{}, master.NextUint64()));
  }
  return streams;
}

/// The standing queries: query i is op i of the ring, its bound the op's
/// constraint.
struct StandingQuery {
  int64_t sub_id = 0;
  apc::Query query;
  double delta = 0.0;
  int64_t last_epoch = 0;  // of the last drained notification
};

/// Drains the notification hub and checks that every subscription's
/// epochs arrive strictly increasing.
class Drainer {
 public:
  Drainer(apc::TieredEngine* engine, const TickClock* clock,
          std::vector<StandingQuery>* standing)
      : engine_(engine), clock_(clock), standing_(standing) {
    for (size_t i = 0; i < standing_->size(); ++i) {
      by_sub_[(*standing_)[i].sub_id] = i;
    }
  }

  /// Drains everything queued now. With `latency` set, records each
  /// notification's delay from the push of the tick it names.
  void Drain(Tracer* tracer, FineHistogram* latency, RunResult* failures) {
    ScopedSpan span(tracer, SpanName::kDrain);
    size_t got = 0;
    do {
      const int64_t start = NowNs();
      got = engine_->notifications().TryPopBatch(&batch_, kDrainBatch);
      const int64_t end = NowNs();
      drain_ns_ += end - start;
      records_ += static_cast<int64_t>(got);
      for (const apc::Notification& record : batch_) {
        auto it = by_sub_.find(record.sub_id);
        if (it == by_sub_.end()) {
          failures->Fail("notification for unknown subscription " +
                         std::to_string(record.sub_id));
          continue;
        }
        StandingQuery& sq = (*standing_)[it->second];
        if (record.epoch <= sq.last_epoch) {
          failures->Fail("subscription " + std::to_string(record.sub_id) +
                         " epoch " + std::to_string(record.epoch) +
                         " after " + std::to_string(sq.last_epoch));
        }
        sq.last_epoch = record.epoch;
        const int64_t pushed_at = clock_->PushedAtNs(record.now);
        if (latency != nullptr && pushed_at >= 0) {
          latency->Record(end - pushed_at);
        }
      }
    } while (got == kDrainBatch);
  }

  void ResetCounts() {
    drain_ns_ = 0;
    records_ = 0;
  }
  int64_t drain_ns() const { return drain_ns_; }
  int64_t records() const { return records_; }

 private:
  apc::TieredEngine* engine_;
  const TickClock* clock_;
  std::vector<StandingQuery>* standing_;
  std::unordered_map<int64_t, size_t> by_sub_;
  std::vector<apc::Notification> batch_;
  int64_t drain_ns_ = 0;
  int64_t records_ = 0;
};

/// Drains until every pending interval change has been evaluated, then
/// checks that each subscription's latest answer contains its exact
/// answer. Returns the time to quiesce in ms.
double QuiesceAndCheck(apc::TieredEngine* engine, Drainer* drainer,
                       const std::vector<StandingQuery>& standing,
                       RunResult* result) {
  const int64_t start = NowNs();
  // The notifier blocks on a full hub, so drain while waiting.
  while (engine->subscriptions().in_flight() > 0) {
    drainer->Drain(nullptr, nullptr, result);
    std::this_thread::yield();
  }
  engine->subscriptions().WaitQuiescent();
  const double quiesce_ms = (NowNs() - start) * 1e-6;
  drainer->Drain(nullptr, nullptr, result);

  std::vector<double> exact;
  for (const StandingQuery& sq : standing) {
    apc::Interval answer;
    int64_t epoch = 0;
    ++result->attempted;
    if (!engine->subscriptions().LatestAnswer(sq.sub_id, &answer, &epoch)) {
      result->Fail("subscription " + std::to_string(sq.sub_id) + " lost");
      continue;
    }
    exact.clear();
    for (int id : sq.query.source_ids) exact.push_back(engine->exact_value(id));
    const double want =
        ExactAggregate(sq.query.kind, exact.data(), static_cast<int>(exact.size()));
    if (!ContainsApprox(answer.lo(), answer.hi(), want)) {
      result->Fail("subscription " + std::to_string(sq.sub_id) +
                     " answer [" + std::to_string(answer.lo()) + ", " +
                     std::to_string(answer.hi()) + "] misses exact " +
                     std::to_string(want));
    }
  }
  return quiesce_ms;
}

struct ClientMeasures {
  int64_t untraced_ops = 0;
  int64_t traced_ops = 0;
  int64_t traced_ns = 0;  // client-thread time inside traced windows
  FineHistogram read_ns;
  FineHistogram notify_ns;  // client 0 only
  FineHistogram in_flight;  // client 0 only
  TickSamples ticks;

  void Merge(const ClientMeasures& other) {
    untraced_ops += other.untraced_ops;
    traced_ops += other.traced_ops;
    traced_ns += other.traced_ns;
    read_ns.Merge(other.read_ns);
    notify_ns.Merge(other.notify_ns);
    in_flight.Merge(other.in_flight);
    ticks.Merge(other.ticks);
  }
};

class TieredClient {
 public:
  /// `drainer` is non-null for the one client that drains notifications.
  TieredClient(int index, apc::TieredEngine* engine, TickClock* clock,
               const OpRing* ring, Drainer* drainer)
      : index_(index),
        engine_(engine),
        clock_(clock),
        ring_(ring),
        drainer_(drainer),
        tracer_(kKeptSpans) {}

  void Run(const std::atomic<bool>& stop, bool traced) {
    Tracer* tracer = traced ? &tracer_ : nullptr;
    const int64_t start = NowNs();
    int64_t ops = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const uint64_t i = next_op_++;
      {
        ScopedSpan span(tracer, SpanName::kOp);
        DoRead(i, !traced && i % kSampleEvery == 0, tracer,
               /*check_exact=*/false);
      }
      ++ops;
      if (++since_tick_ == kOpsPerTick) {
        since_tick_ = 0;
        ScopedSpan span(tracer, SpanName::kTick);
        Tick(/*record=*/!traced, tracer);
      }
    }
    if (traced) {
      m_.traced_ops += ops;
      m_.traced_ns += NowNs() - start;
    } else {
      m_.untraced_ops += ops;
    }
  }

  /// The correctness pass: reads alone, waiting after every tick until the
  /// pump has applied it, so each answer must contain the exact value.
  void RunLockstep(int64_t ops) {
    for (int64_t k = 0; k < ops; ++k) {
      const uint64_t i = next_op_++;
      DoRead(i, false, nullptr, /*check_exact=*/true);
      if (++since_tick_ == kOpsPerTick) {
        since_tick_ = 0;
        Tick(/*record=*/false, nullptr);
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
  /// Read `i` of this client's ring, at the edge its phase puts it on.
  /// With `check_exact`, the answer must also contain the exact value.
  void DoRead(uint64_t i, bool timed, Tracer* tracer, bool check_exact) {
    const Op& op = ring_->at(i);
    const int edge =
        static_cast<int>((static_cast<uint64_t>(index_) + i / kPhaseOps) %
                         kEdges);
    const int id = (ring_->ids_of(op)[0] + edge * (kSources / kEdges)) %
                   kSources;
    const double exact = check_exact ? engine_->exact_value(id) : 0.0;
    const int64_t now = clock_->Now();
    const int64_t start = timed ? NowNs() : 0;
    apc::Interval answer;
    {
      ScopedSpan span(tracer, SpanName::kTieredRead);
      answer = engine_->Read(edge, id, op.constraint, now);
    }
    if (timed) m_.read_ns.Record(NowNs() - start);
    ++checked_;
    if (!WithinConstraint(answer.Width(), op.constraint)) {
      failures_.Fail("read width " + std::to_string(answer.Width()) +
                     " exceeds constraint " + std::to_string(op.constraint));
    }
    if (check_exact && !ContainsApprox(answer.lo(), answer.hi(), exact)) {
      failures_.Fail("lockstep read [" + std::to_string(answer.lo()) + ", " +
                     std::to_string(answer.hi()) + "] misses exact " +
                     std::to_string(exact));
    }
  }

  /// Pushes the next tick; the draining client then drains the hub. With
  /// `record`, the update path and notification latency are sampled.
  void Tick(bool record, Tracer* tracer) {
    clock_->PushNext(record ? &m_.ticks : nullptr, tracer);
    if (drainer_ == nullptr) return;
    if (record) m_.in_flight.Record(engine_->subscriptions().in_flight());
    drainer_->Drain(tracer, record ? &m_.notify_ns : nullptr, &failures_);
  }

  const int index_;
  apc::TieredEngine* engine_;
  TickClock* clock_;
  const OpRing* ring_;
  Drainer* drainer_;
  uint64_t next_op_ = 0;
  int since_tick_ = 0;
  int64_t checked_ = 0;
  ClientMeasures m_;
  Tracer tracer_;
  RunResult failures_;
};

/// Engine tallies read at the edges of the measured phase.
struct EngineSnapshot {
  int64_t reads = 0;
  int64_t edge_hits = 0;
  int64_t regional_hits = 0;
  int64_t source_pulls = 0;
  int64_t derived_pushes = 0;
  int64_t updates_applied = 0;
  int64_t evaluations = 0;
  int64_t escalations = 0;
  int64_t suppressed = 0;
  int64_t drained = 0;
  int64_t drain_batches = 0;

  static EngineSnapshot Take(const apc::TieredEngine& engine) {
    const apc::TieredCounters& c = engine.counters();
    const apc::SubscriptionCounters& s = engine.subscriptions().counters();
    const auto registry = engine.metrics().TakeSnapshot();
    EngineSnapshot out;
    out.reads = c.reads.load();
    out.edge_hits = c.edge_hits.load();
    out.regional_hits = c.regional_hits.load();
    out.source_pulls = c.source_pulls.load();
    out.derived_pushes = c.derived_pushes.load();
    out.updates_applied = c.updates_applied.load();
    out.evaluations = s.evaluations.load();
    out.escalations = s.escalations.load();
    out.suppressed = s.suppressed.load();
    out.drained = registry.CounterValue("tiered.bus.drained");
    out.drain_batches = registry.CounterValue("tiered.bus.drain_batches");
    return out;
  }
};

}  // namespace

// tiered_push: reads at edges with a per-edge hotspot that moves every
// phase, so edge widths must re-converge; escalations, derived LAN fan-out
// and the notifier's evaluate-and-ship path run only here.
RunResult RunTieredPush(const RunOptions& options) {
  RunResult result;

  // Inputs, all from the seed. Generating them is not part of setup_s.
  apc::Rng seeds(options.seed);
  const uint64_t stream_seed = seeds.NextUint64();
  const uint64_t engine_seed = seeds.NextUint64();
  OpMix reads;
  reads.point_fraction = 1.0;
  reads.zipf_s = 1.1;
  reads.point_constraint = {20.0, 0.5};
  std::vector<OpRing> rings;
  for (int c = 0; c < kClients; ++c) {
    rings.push_back(MakeOpRing(reads, kSources, kRingOps, seeds.NextUint64()));
  }
  // Standing queries watch popular values: their ids follow the same Zipf
  // ranks as the reads, and query q sits on edge q mod kEdges's hotspot, so
  // every seed subscribes to the hottest values rather than to a lucky or
  // unlucky handful of them.
  OpMix standing_mix;
  standing_mix.point_fraction = 0.75;
  standing_mix.group_size = 8;
  standing_mix.zipf_s = reads.zipf_s;
  standing_mix.point_constraint = {20.0, 0.5};
  standing_mix.aggregate_constraint = {20.0, 0.5};
  const OpRing standing_ring =
      MakeOpRing(standing_mix, kSources, kStandingQueries, seeds.NextUint64());
  const UpdateRing updates =
      MakeUpdateRing(kSources, kUpdatesPerTick, kRingTicks, seeds.NextUint64());
  std::vector<StandingQuery> standing(kStandingQueries);
  for (size_t q = 0; q < kStandingQueries; ++q) {
    const Op& op = standing_ring.ops[q];
    const int32_t* ids = standing_ring.ids_of(op);
    standing[q].query.kind = AggregateOf(op.kind);
    const int offset = static_cast<int>(q % kEdges) * (kSources / kEdges);
    for (int j = 0; j < standing_ring.size_of(op); ++j) {
      standing[q].query.source_ids.push_back((ids[j] + offset) % kSources);
    }
    standing[q].delta = op.constraint;
  }

  // Set-up, repeated; the last engine serves the run.
  const apc::TieredConfig config = Config(engine_seed);
  std::unique_ptr<apc::TieredEngine> engine;
  std::vector<double> setup_s, construct_s, populate_s;
  FineHistogram subscribe_ns;
  for (int k = 0; k < kSetups; ++k) {
    engine.reset();
    const int64_t t0 = NowNs();
    engine = std::make_unique<apc::TieredEngine>(config,
                                                 BuildStreams(stream_seed));
    const int64_t t1 = NowNs();
    engine->PopulateInitial(0);
    const int64_t t2 = NowNs();
    for (StandingQuery& sq : standing) {
      const int64_t start = NowNs();
      sq.sub_id = engine->Subscribe(sq.query, sq.delta, 0);
      subscribe_ns.Record(NowNs() - start);
      sq.last_epoch = 0;
    }
    const int64_t t3 = NowNs();
    construct_s.push_back((t1 - t0) * 1e-9);
    populate_s.push_back((t2 - t1) * 1e-9);
    setup_s.push_back((t3 - t0) * 1e-9);
  }
  for (const StandingQuery& sq : standing) {
    if (sq.sub_id <= 0) result.Fail("Subscribe rejected a standing query");
  }
  if (!engine->StartUpdatePump()) {
    result.Fail("update pump did not start");
    return result;
  }

  TickClock clock(&engine->bus(), &updates,
                  &engine->counters().updates_applied);
  Drainer drainer(engine.get(), &clock, &standing);
  std::vector<std::unique_ptr<TieredClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<TieredClient>(
        c, engine.get(), &clock, &rings[static_cast<size_t>(c)],
        c == 0 ? &drainer : nullptr));
  }

  // Correctness pass, then the subscriptions' answers at quiescence.
  drainer.Drain(nullptr, nullptr, &result);  // the registration answers
  clients[0]->RunLockstep(kGateOps);
  QuiesceAndCheck(engine.get(), &drainer, standing, &result);

  RunWindow(kClients, options.seconds * kWarmupShare,
            [&](int c, const std::atomic<bool>& stop) {
              clients[static_cast<size_t>(c)]->Run(stop, false);
            });
  if (!clock.WaitApplied(kApplyTimeoutS)) {
    result.Fail("warm-up updates not applied in time");
  }
  for (auto& client : clients) client->TakeMeasures();
  drainer.ResetCounts();

  const EngineSnapshot before = EngineSnapshot::Take(*engine);
  const int64_t offered_before = clock.offered();
  const int64_t tick_before = clock.Now();
  engine->BeginMeasurement(clock.Now());
  const std::vector<bool> plan = WindowPlan(options.seconds, options.trace);
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double stolen_s = 0.0;
  ClientMeasures all;
  WindowFigures windows;
  for (bool traced : plan) {
    const WindowTime time = RunWindow(
        kClients, options.seconds / static_cast<double>(plan.size()),
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
      windows.Add(window.untraced_ops / time.run_s, window.read_ns);
    }
    all.Merge(window);
  }
  // Offered load must equal achieved load: every pushed update applied.
  if (!clock.WaitApplied(kApplyTimeoutS)) {
    result.Fail("updates offered (" + std::to_string(clock.offered()) +
                ") != applied (" + std::to_string(clock.applied()) + ")");
  }
  const int64_t drain_ns = drainer.drain_ns();
  const int64_t drained_records = drainer.records();
  const double quiesce_ms =
      QuiesceAndCheck(engine.get(), &drainer, standing, &result);
  engine->EndMeasurement(clock.Now());
  const EngineSnapshot after = EngineSnapshot::Take(*engine);
  const apc::EngineCosts wan = engine->WanCosts();
  const apc::EngineCosts lan = engine->LanCosts();
  double raw_width_sum = 0.0;
  for (int id = 0; id < kSources; ++id) {
    raw_width_sum += engine->regional_raw_width(id);
  }
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
  const double reads_done = static_cast<double>(after.reads - before.reads);
  const double applied =
      static_cast<double>(after.updates_applied - before.updates_applied);
  const double ticks = static_cast<double>(clock.Now() - tick_before);
  const double evaluations =
      static_cast<double>(after.evaluations - before.evaluations);
  const double untraced_ops_per_s = Ratio(all.untraced_ops, untraced_s);
  auto& m = result.metrics;

  windows.Report(&result);
  m["cost_per_op"] = Ratio(wan.total_cost + lan.total_cost, ops);
  m["setup_s"] = Median(setup_s);
  m["rss_mb"] = PeakRssMb();

  m["tiered.read_ns.p50"] = all.read_ns.Quantile(0.50);
  m["tiered.read_ns.p99"] = all.read_ns.Quantile(0.99);
  m["tiered.edge_hit_ratio"] = Ratio(after.edge_hits - before.edge_hits,
                                     reads_done);
  m["tiered.regional_hit_ratio"] =
      Ratio(after.regional_hits - before.regional_hits, reads_done);
  m["tiered.source_pull_ratio"] =
      Ratio(after.source_pulls - before.source_pulls, reads_done);
  m["tiered.derived_pushes_per_update"] =
      Ratio(after.derived_pushes - before.derived_pushes, applied);
  m["tiered.wan_cost_per_op"] = Ratio(wan.total_cost, ops);
  m["tiered.lan_cost_per_op"] = Ratio(lan.total_cost, ops);

  // The protocol core's view, on the WAN (source <-> regional) link.
  m["core.read_satisfied_ratio"] = m["tiered.edge_hit_ratio"];
  m["core.pulls_per_query"] = Ratio(wan.query_refreshes, ops);
  m["core.value_refreshes_per_update"] = Ratio(wan.value_refreshes, applied);
  m["core.balance"] = Ratio(config.wan.ThetaInterval() * wan.value_refreshes,
                            wan.query_refreshes);
  m["core.mean_raw_width"] = raw_width_sum / kSources;

  m["bus.push_ns_per_event.p50"] = all.ticks.push_ns_per_event.Quantile(0.50);
  m["bus.push_ns_per_event.p99"] = all.ticks.push_ns_per_event.Quantile(0.99);
  m["bus.backlog_events.p99"] = all.ticks.backlog_events.Quantile(0.99);
  m["bus.apply_lag_events.p99"] = all.ticks.apply_lag_events.Quantile(0.99);
  m["bus.events_per_drain"] = Ratio(after.drained - before.drained,
                                    after.drain_batches - before.drain_batches);
  m["bus.updates_offered"] =
      static_cast<double>(clock.offered() - offered_before);
  m["bus.updates_applied"] = applied;

  m["subscribe.notify_us.p50"] = all.notify_ns.Quantile(0.50) * 1e-3;
  m["subscribe.notify_us.p90"] = all.notify_ns.Quantile(0.90) * 1e-3;
  m["subscribe.notify_us.p99"] = all.notify_ns.Quantile(0.99) * 1e-3;
  m["subscribe.subscribe_ns.p50"] = subscribe_ns.Quantile(0.50);
  m["subscribe.evaluations_per_tick"] = Ratio(evaluations, ticks);
  m["subscribe.escalations_per_tick"] =
      Ratio(after.escalations - before.escalations, ticks);
  m["subscribe.suppressed_ratio"] =
      Ratio(after.suppressed - before.suppressed, evaluations);
  m["subscribe.in_flight.p99"] = all.in_flight.Quantile(0.99);
  m["subscribe.drain_ns_per_record"] = Ratio(drain_ns, drained_records);
  m["subscribe.quiesce_ms"] = quiesce_ms;
  m["setup.construct_s"] = Median(construct_s);
  m["setup.populate_s"] = Median(populate_s);

  result.notes.push_back({"measured_ops", std::to_string(ops)});
  result.notes.push_back({"client_cpu_stolen_s", std::to_string(stolen_s)});
  result.notes.push_back(
      {"updates_per_op",
       std::to_string(Ratio(clock.offered() - offered_before, ops))});
  result.notes.push_back(
      {"point_read_samples", std::to_string(all.read_ns.count())});
  result.notes.push_back(
      {"notification_samples", std::to_string(all.notify_ns.count())});
  result.notes.push_back({"ticks_pushed", std::to_string(clock.Now())});
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

}  // namespace perfbench
