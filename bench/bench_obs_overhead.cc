// Overhead bench for the observability layer (src/obs/) — and the data
// source for BENCH_obs.json, the committed obs-on vs obs-off comparison.
//
// The question it answers: what does leaving APC_OBS compiled in cost on
// the hottest path the repo has? The measured row replicates
// bench_runtime_throughput's widest-concurrency seqlock cell exactly —
// same seed, same workload mix, same 0.95 point-read fraction, 8 shards x
// 8 threads, updates streaming through the bus — so the number is
// comparable against the main trajectory. The binary reports whichever
// obs mode it was COMPILED with (stamped into every row as obs_enabled);
// `scripts/check.sh --obs` builds both modes, runs this bench in each
// tree, and asserts the obs-on qps stays within 5% of obs-off.
//
// Three rows are measured:
//   "steady_flight_recorder" — the RECOMMENDED always-on configuration and
//                     the GATED row: every registry metric live AND the
//                     crash-dump flight recorder armed at its default
//                     TraceLevel::kFlight (span begin/end, escalations,
//                     bus/offer events — per-read records skipped). The
//                     ≤5% gate holds with the recorder running, not just
//                     with it off.
//   "steady"        — metrics live, trace recorder in its default disabled
//                     state (one relaxed load per call site); the
//                     historical baseline row, kept for trajectory
//                     continuity.
//   "steady_traced" — full per-event tracing (TraceLevel::kFull) enabled,
//                     recording every read/bus/offer event into per-thread
//                     rings. Tracing everything is an on-demand debugging
//                     facility, so its (much larger) cost is persisted in
//                     the trajectory but not gated.
//
// Usage: bench_obs_overhead [queries_per_thread] [num_sources] [out.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "runtime/sharded_engine.h"
#include "runtime/workload_driver.h"

namespace {

using namespace apc;

// Identical to bench_runtime_throughput's sweep constants — the row here
// must be comparable against the committed BENCH_runtime.json trajectory.
constexpr uint64_t kSeed = 77;
constexpr double kPointReadFraction = 0.95;
constexpr int kShards = 8;
constexpr int kThreads = 8;

QueryWorkloadParams Workload(int num_sources) {
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

DriverReport RunOne(int64_t queries_per_thread, int num_sources,
                    int64_t* seqlock_retries) {
  EngineConfig config;
  config.num_shards = kShards;
  config.system.cache_capacity = static_cast<size_t>(num_sources) * 3 / 4;
  config.seed = kSeed;
  ShardedEngine engine(config,
                       BuildRandomWalkSources(num_sources, RandomWalkParams{},
                                              AdaptivePolicyParams{}, kSeed));

  DriverConfig driver;
  driver.num_threads = kThreads;
  driver.queries_per_thread = queries_per_thread;
  driver.workload = Workload(num_sources);
  driver.run_updates = true;
  driver.point_read_fraction = kPointReadFraction;
  // The same seed formula bench_runtime_throughput uses for this cell.
  driver.seed = kSeed + static_cast<uint64_t>(kShards * 1000 + kThreads * 10);
  DriverReport report = RunWorkload(engine, driver);
  *seqlock_retries = engine.counters().seqlock_retries.load();
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t queries_per_thread = argc > 1 ? std::atoll(argv[1]) : 20000;
  int num_sources = argc > 2 ? std::atoi(argv[2]) : 256;
  std::string out_path = argc > 3 ? argv[3] : "BENCH_obs.json";
  if (queries_per_thread <= 0 || !Workload(num_sources).IsValid()) {
    std::fprintf(stderr,
                 "usage: %s [queries_per_thread] [num_sources] [out.json]\n",
                 argv[0]);
    return 2;
  }

  bench::BenchReport report("obs_overhead");
  report.Meta()
      .Int("obs_enabled", APC_OBS)
      .Int("queries_per_thread", queries_per_thread)
      .Int("num_sources", num_sources)
      .Num("point_read_fraction", kPointReadFraction)
      .Int("hardware_threads",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("workload",
           "bench_runtime_throughput's seqlock/8-shard/8-thread cell: mixed "
           "SUM/MAX/MIN/AVG + point reads, updates via bus; "
           "'steady_flight_recorder' = metrics live + flight recorder armed "
           "at kFlight (the recommended always-on config, gated), 'steady' = "
           "metrics live + recorder disabled (baseline), 'steady_traced' = "
           "full per-event tracing on (on-demand debugging cost, "
           "informational)")
      .Str("units", "latency us, qps queries/s");

  bench::Banner("OBS-1", std::string("seqlock hot path with the obs layer ") +
                             (APC_OBS ? "COMPILED IN" : "COMPILED OUT"));

  int64_t total_violations = 0;
  // qps-median run per configuration, same policy as
  // bench_runtime_throughput: the committed number tracks the code, not
  // the interleaving lottery.
  auto run_median = [&](int64_t* seqlock_retries) -> DriverReport {
    constexpr int kRepeats = 7;
    std::vector<DriverReport> reports;
    for (int rep = 0; rep < kRepeats; ++rep) {
      reports.push_back(
          RunOne(queries_per_thread, num_sources, seqlock_retries));
      total_violations += reports.back().violations;
    }
    std::vector<size_t> order(reports.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return reports[a].queries_per_second < reports[b].queries_per_second;
    });
    return reports[order[order.size() / 2]];
  };

  auto add_row = [&](const std::string& scenario, const DriverReport& r,
                     int64_t seqlock_retries, int64_t trace_records) {
    std::printf(
        "  %-13s obs=%d seqlock %d shards x %d threads: %.0f q/s, "
        "p50 %.1f us, p99 %.1f us, %lld trace records\n",
        scenario.c_str(), APC_OBS, kShards, kThreads, r.queries_per_second,
        r.latency_p50_us, r.latency_p99_us,
        static_cast<long long>(trace_records));
    report.AddRun()
        .Str("scenario", scenario)
        .Int("obs_enabled", APC_OBS)
        .Num("zipf_s", 0.0)
        .Int("shards", kShards)
        .Int("threads", kThreads)
        .Num("qps", r.queries_per_second)
        .Num("p50_us", r.latency_p50_us)
        .Num("p95_us", r.latency_p95_us)
        .Num("p99_us", r.latency_p99_us)
        .Int("queries", r.queries)
        .Int("ticks", r.ticks)
        .Int("seqlock_retries", seqlock_retries)
        .Int("trace_records", trace_records)
        .Int("violations", r.violations);
  };

  // One unmeasured warmup run: thread creation, page faults, and allocator
  // steady state land outside every measured row, so row order cannot bias
  // the gated first-row comparison (both build modes warm up identically).
  {
    int64_t warmup_retries = 0;
    RunOne(queries_per_thread, num_sources, &warmup_retries);
  }

  // Row 1 (gated): the crash-dump flight recorder armed at its default
  // kFlight level — the configuration the ≤5% overhead promise covers.
  obs::FlightRecorder::Arm();
  int64_t armed_retries = 0;
  DriverReport armed = run_median(&armed_retries);
  obs::FlightRecorder::Disarm();
  int64_t flight_records =
      static_cast<int64_t>(obs::TraceRecorder::DumpTrace().size());
  obs::TraceRecorder::Reset();
  add_row("steady_flight_recorder", armed, armed_retries, flight_records);

  // Row 2: metrics live, recorder in its default disabled state — the
  // historical baseline.
  int64_t seqlock_retries = 0;
  DriverReport steady = run_median(&seqlock_retries);
  add_row("steady", steady, seqlock_retries, 0);

  // Row 3 (informational): full tracing on — every read start, bus event,
  // and offer recorded into per-thread rings while the workload runs.
  obs::TraceRecorder::Enable(/*ring_capacity=*/1 << 14);
  int64_t traced_retries = 0;
  DriverReport traced = run_median(&traced_retries);
  obs::TraceRecorder::Disable();
  int64_t trace_records =
      static_cast<int64_t>(obs::TraceRecorder::DumpTrace().size());
  obs::TraceRecorder::Reset();
  add_row("steady_traced", traced, traced_retries, trace_records);

  bool wrote = report.WriteFile(out_path);
  bench::Note(wrote ? "rows written to " + out_path
                    : "FAILED to write " + out_path);
  bench::Note(total_violations == 0
                  ? "precision: every concurrent result met its constraint"
                  : "precision: CONSTRAINT VIOLATIONS OBSERVED (BUG)");
#if APC_OBS
  bench::Note(trace_records > 0
                  ? "tracing: the recorder captured events when enabled"
                  : "tracing: NO EVENTS CAPTURED with obs compiled in (BUG)");
  bool obs_live = trace_records > 0;
#else
  bench::Note(trace_records == 0
                  ? "tracing: compiled out, zero records as expected"
                  : "tracing: RECORDS CAPTURED with obs compiled OUT (BUG)");
  bool obs_live = trace_records == 0;
#endif
  return (wrote && total_violations == 0 && obs_live) ? 0 : 1;
}
