#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

double CalibrateTimerNs() {
  // The fastest of several batches: the clock's own cost, without the
  // preemptions and frequency ramps that slow some batches down.
  constexpr int kBatches = 21;
  constexpr int kCalls = 100000;
  double best = 0.0;
  for (int b = 0; b < kBatches; ++b) {
    const int64_t start = NowNs();
    int64_t last = start;
    for (int i = 0; i < kCalls; ++i) last = NowNs();
    const double per_call = static_cast<double>(last - start) / kCalls;
    if (b == 0 || per_call < best) best = per_call;
  }
  return best;
}

// ------------------------------------------------------------ histogram

size_t FineHistogram::BinOf(int64_t value) {
  if (value < kLinear) return value < 0 ? 0 : static_cast<size_t>(value);
  const uint64_t v = static_cast<uint64_t>(value);
  const int octave = 63 - __builtin_clzll(v);  // >= 10
  if (octave - 10 >= kOctaves) return kBins - 1;
  const uint64_t sub = (v >> (octave - kSubBits)) & ((1u << kSubBits) - 1);
  return kLinear + static_cast<size_t>(octave - 10) * (1u << kSubBits) + sub;
}

double FineHistogram::BinLow(size_t bin) {
  if (bin < kLinear) return static_cast<double>(bin);
  const size_t rel = bin - kLinear;
  const int octave = static_cast<int>(rel >> kSubBits) + 10;
  const double sub = static_cast<double>(rel & ((1u << kSubBits) - 1));
  return std::ldexp((1u << kSubBits) + sub, octave - kSubBits);
}

double FineHistogram::BinWidth(size_t bin) {
  if (bin < kLinear) return 1.0;
  const int octave = static_cast<int>((bin - kLinear) >> kSubBits) + 10;
  return std::ldexp(1.0, octave - kSubBits);
}

void FineHistogram::Merge(const FineHistogram& other) {
  for (size_t i = 0; i < kBins; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double FineHistogram::Quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total_);
  double below = 0.0;
  for (size_t bin = 0; bin < kBins; ++bin) {
    const double here = static_cast<double>(counts_[bin]);
    if (here > 0.0 && below + here >= target) {
      return BinLow(bin) + BinWidth(bin) * (target - below) / here;
    }
    below += here;
  }
  return BinLow(kBins - 1);
}

// --------------------------------------------------------------- tracer

const char* SpanLabel(SpanName name) {
  switch (name) {
    case SpanName::kOp:
      return "op";
    case SpanName::kTick:
      return "tick";
    case SpanName::kPointRead:
      return "point_read";
    case SpanName::kExecuteQuery:
      return "execute_query";
    case SpanName::kTieredRead:
      return "tiered_read";
    case SpanName::kPushBatch:
      return "push_batch";
    case SpanName::kDrain:
      return "drain";
    case SpanName::kCount:
      break;
  }
  return "?";
}

void Tracer::Begin(SpanName name) {
  int32_t kept_index = -1;
  if (kept_.size() < keep_) {
    Span span;
    span.name = name;
    span.parent = depth_ > 0 ? stack_[depth_ - 1].kept_index : -1;
    kept_index = static_cast<int32_t>(kept_.size());
    kept_.push_back(span);
  }
  stack_[depth_++] = {name, NowNs(), 0, kept_index};
}

void Tracer::End() {
  const int64_t end = NowNs();
  const Open open = stack_[--depth_];
  const int64_t duration = end - open.start_ns;
  Totals& totals = totals_[static_cast<size_t>(open.name)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
  if (open.kept_index >= 0) {
    Span& span = kept_[static_cast<size_t>(open.kept_index)];
    span.start_ns = open.start_ns;
    span.end_ns = end;
  }
}

// ----------------------------------------------------------- tick clock

TickClock::TickClock(apc::UpdateBus* bus, const UpdateRing* ring,
                     const apc::obs::Counter* applied)
    : bus_(bus),
      ring_(ring),
      applied_(applied),
      pushed_at_ns_(static_cast<size_t>(kRemembered)) {
  for (auto& slot : pushed_at_ns_) slot.store(-1, std::memory_order_relaxed);
}

int64_t TickClock::PushNext(TickSamples* samples, Tracer* tracer) {
  // Reserve the tick, stamp its push time, push, and only then publish it
  // as the clients' `now`: a reader (or a notification) can only name a
  // tick whose stamp is already stored.
  const int64_t tick = reserved_.fetch_add(1, std::memory_order_relaxed) + 1;
  pushed_at_ns_[static_cast<size_t>(tick & (kRemembered - 1))].store(
      NowNs(), std::memory_order_release);

  static thread_local std::vector<apc::UpdateEvent> events;
  events.clear();
  const int32_t* ids = ring_->ids_of(tick);
  for (int i = 0; i < ring_->per_tick; ++i) events.push_back({tick, ids[i]});
  offered_.fetch_add(ring_->per_tick, std::memory_order_acq_rel);

  {
    ScopedSpan span(tracer, SpanName::kPushBatch);
    const int64_t start = samples != nullptr ? NowNs() : 0;
    bus_->PushBatch(events.data(), events.size());
    if (samples != nullptr) {
      samples->push_ns_per_event.Record((NowNs() - start) /
                                        ring_->per_tick);
    }
  }
  if (samples != nullptr) {
    samples->backlog_events.Record(static_cast<int64_t>(bus_->size()));
    samples->apply_lag_events.Record(std::max<int64_t>(0, offered() - applied()));
  }

  int64_t seen = published_.load(std::memory_order_relaxed);
  while (seen < tick && !published_.compare_exchange_weak(
                            seen, tick, std::memory_order_acq_rel)) {
  }
  return tick;
}

bool TickClock::WaitApplied(double timeout_s) const {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (applied() < offered()) {
    if (NowNs() > deadline) return false;
    std::this_thread::yield();
  }
  return applied() == offered();
}

int64_t TickClock::PushedAtNs(int64_t tick) const {
  const int64_t newest = reserved_.load(std::memory_order_acquire);
  if (tick <= 0 || tick > newest || tick <= newest - kRemembered) return -1;
  return pushed_at_ns_[static_cast<size_t>(tick & (kRemembered - 1))].load(
      std::memory_order_acquire);
}

// ------------------------------------------------------------ placement

namespace {
// CPUs of the process at start-up, in order; empty when there are too few
// to give every client its own.
std::vector<int> g_client_cpus;
}  // namespace

void ReserveClientCpus(int clients) {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) cpus.push_back(cpu);
  }
  if (static_cast<int>(cpus.size()) < clients + 2) return;
  cpu_set_t rest;
  CPU_ZERO(&rest);
  for (size_t i = static_cast<size_t>(clients); i < cpus.size(); ++i) {
    CPU_SET(cpus[i], &rest);
  }
  if (sched_setaffinity(0, sizeof(rest), &rest) != 0) return;
  g_client_cpus.assign(cpus.begin(), cpus.begin() + clients);
}

double ClientStolenSeconds() {
  if (g_client_cpus.empty()) return 0.0;
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0.0;
  // Lines "cpuN user nice system idle iowait irq softirq steal ...", in
  // clock ticks.
  double steal_ticks = 0.0;
  char line[512];
  while (std::fgets(line, sizeof(line), stat) != nullptr) {
    int cpu = -1;
    unsigned long long f[8] = {};
    if (std::sscanf(line, "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu", &cpu,
                    &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6],
                    &f[7]) != 9) {
      continue;
    }
    if (std::find(g_client_cpus.begin(), g_client_cpus.end(), cpu) !=
        g_client_cpus.end()) {
      steal_ticks += static_cast<double>(f[7]);
    }
  }
  std::fclose(stat);
  const long ticks_per_s = sysconf(_SC_CLK_TCK);
  if (ticks_per_s <= 0) return 0.0;
  return steal_ticks / static_cast<double>(ticks_per_s) /
         static_cast<double>(g_client_cpus.size());
}

void PinClient(int client) {
  if (client >= static_cast<int>(g_client_cpus.size())) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(g_client_cpus[static_cast<size_t>(client)], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

// ---------------------------------------------------------------- misc

bool ContainsApprox(double lo, double hi, double exact) {
  const double tolerance = 1e-9 * (1.0 + std::fabs(exact));
  return lo - tolerance <= exact && exact <= hi + tolerance;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void WindowFigures::Add(double window_ops_per_s, const FineHistogram& reads) {
  ops_per_s.push_back(window_ops_per_s);
  read_p50_us.push_back(reads.Quantile(0.50) * 1e-3);
  read_p90_us.push_back(reads.Quantile(0.90) * 1e-3);
}

namespace {
std::string Join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}
}  // namespace

void WindowFigures::Report(RunResult* result) const {
  result->notes.push_back({"ops_per_s_by_window", Join(ops_per_s)});
  result->notes.push_back({"point_read_p50_us_by_window", Join(read_p50_us)});
  result->metrics["ops_per_s"] = Median(ops_per_s);
  result->metrics["point_read_p50_us"] = Median(read_p50_us);
  result->metrics["point_read_p90_us"] = Median(read_p90_us);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return 0.5 * (upper + *std::max_element(values.begin(),
                                          values.begin() + mid));
}

void AddTraceMetrics(const std::vector<const Tracer*>& tracers,
                     int64_t traced_ops, double traced_client_s,
                     double untraced_ops_per_s, double traced_ops_per_s,
                     RunResult* result) {
  const double ops = static_cast<double>(std::max<int64_t>(traced_ops, 1));
  double layer_ns = 0.0;
  for (size_t k = 0; k < kNumSpanNames; ++k) {
    const SpanName name = static_cast<SpanName>(k);
    double self_ns = 0.0;
    for (const Tracer* tracer : tracers) {
      self_ns += static_cast<double>(tracer->totals(name).self_ns);
    }
    result->metrics[std::string("self.") + SpanLabel(name) + ".ns_per_op"] =
        self_ns / ops;
    if (name != SpanName::kOp && name != SpanName::kTick) layer_ns += self_ns;
  }
  const double client_ns = traced_client_s * 1e9;
  result->metrics["harness.unattributed_share"] =
      client_ns > 0.0 ? (client_ns - layer_ns) / client_ns : 0.0;
  result->metrics["harness.trace_overhead_pct"] =
      untraced_ops_per_s > 0.0
          ? 100.0 * (untraced_ops_per_s - traced_ops_per_s) /
                untraced_ops_per_s
          : 0.0;
}

bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  out << "thread,index,name,parent,start_ns,end_ns\n";
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->kept();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << ',' << i << ',' << SpanLabel(s.name) << ',' << s.parent
          << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  out.close();
  return !out.fail();
}

}  // namespace perfbench
