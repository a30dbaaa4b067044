#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the benchmark's workloads: the clock, a
// histogram fine enough to resolve a ~30 ns read, the span tracer of the
// traced run, and the logical tick clock that feeds updates through an
// engine's UpdateBus.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "runtime/update_bus.h"
#include "schedule.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cost of one NowNs() call in ns, measured by timing long runs of
/// back-to-back calls.
double CalibrateTimerNs();

/// Histogram of non-negative integers (ns, or event counts) with unit bins
/// below 1024 and 128 log-linear sub-bins per octave above, so every value
/// is resolved to 1 ns or 1%. Fixed size: recording never allocates, and
/// memory does not grow with the number of samples.
class FineHistogram {
 public:
  FineHistogram() : counts_(kBins, 0) {}

  void Record(int64_t value) {
    ++counts_[BinOf(value)];
    ++total_;
  }
  void Merge(const FineHistogram& other);
  int64_t count() const { return total_; }
  /// q-quantile, linearly interpolated inside the bin that holds it; 0
  /// when empty.
  double Quantile(double q) const;

 private:
  static constexpr int kLinear = 1024;  // unit bins [0, 1024)
  static constexpr int kSubBits = 7;    // 128 sub-bins per octave
  static constexpr int kOctaves = 40;   // up to 2^50
  static constexpr size_t kBins =
      kLinear + static_cast<size_t>(kOctaves) * (1u << kSubBits);

  static size_t BinOf(int64_t value);
  static double BinLow(size_t bin);
  static double BinWidth(size_t bin);

  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

/// Spans of the traced run. kOp and kTick are the client-side parents;
/// the rest wrap one call into an engine's public API.
enum class SpanName : uint8_t {
  kOp,            // one client operation
  kTick,          // one logical tick: push its updates, drain answers
  kPointRead,     // ShardedEngine::PointRead
  kExecuteQuery,  // ShardedEngine::ExecuteQuery
  kTieredRead,    // TieredEngine::Read
  kPushBatch,     // UpdateBus::PushBatch
  kDrain,         // NotificationHub::TryPopBatch
  kCount,
};
constexpr size_t kNumSpanNames = static_cast<size_t>(SpanName::kCount);
const char* SpanLabel(SpanName name);

/// One recorded span. `parent` indexes the same thread's span buffer, -1
/// for a root.
struct Span {
  SpanName name = SpanName::kOp;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread span recorder. Spans nest through a small stack; each span's
/// self time (its duration minus the time its children cover) is summed
/// per name as the span closes, so the per-layer totals cover every span
/// of the run. The first `keep` spans are also kept verbatim and written
/// out when the run ends.
class Tracer {
 public:
  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  explicit Tracer(size_t keep) : keep_(keep) { kept_.reserve(keep); }

  void Begin(SpanName name);
  void End();

  const Totals& totals(SpanName name) const {
    return totals_[static_cast<size_t>(name)];
  }
  const std::vector<Span>& kept() const { return kept_; }

 private:
  struct Open {
    SpanName name;
    int64_t start_ns;
    int64_t child_ns;
    int32_t kept_index;
  };
  static constexpr int kMaxDepth = 4;

  std::array<Open, kMaxDepth> stack_{};
  int depth_ = 0;
  std::array<Totals, kNumSpanNames> totals_{};
  size_t keep_;
  std::vector<Span> kept_;
};

/// Opens a span on `tracer` for the scope; no-op when `tracer` is null
/// (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Samples of the update path, taken by the client that pushes a tick.
struct TickSamples {
  FineHistogram push_ns_per_event;
  FineHistogram backlog_events;
  FineHistogram apply_lag_events;

  void Merge(const TickSamples& other) {
    push_ns_per_event.Merge(other.push_ns_per_event);
    backlog_events.Merge(other.backlog_events);
    apply_lag_events.Merge(other.apply_lag_events);
  }
};

/// The logical clock of a run. A tick is pushed by whichever client has
/// just completed its fixed share of operations; it carries the update
/// ring's fixed set of per-source events, so the offered update load per
/// operation is a property of the workload, not of the host's speed.
class TickClock {
 public:
  /// `applied` is the engine's updates_applied counter.
  TickClock(apc::UpdateBus* bus, const UpdateRing* ring,
            const apc::obs::Counter* applied);

  /// Latest pushed tick: the `now` client reads pass to the engine.
  int64_t Now() const { return published_.load(std::memory_order_acquire); }

  /// Pushes the next tick's events through the bus (timed into `samples`
  /// when non-null) and returns the tick.
  int64_t PushNext(TickSamples* samples, Tracer* tracer);

  /// Update events offered so far (pushed or being pushed).
  int64_t offered() const { return offered_.load(std::memory_order_acquire); }
  int64_t applied() const { return applied_->load(std::memory_order_acquire); }

  /// Waits until the engine has applied every offered event. Returns
  /// false if it has not within `timeout_s`, or if it applied more events
  /// than were offered.
  bool WaitApplied(double timeout_s) const;

  /// When tick `tick` started its push, or -1 when it is too old to be
  /// remembered (or not pushed yet).
  int64_t PushedAtNs(int64_t tick) const;

 private:
  static constexpr int64_t kRemembered = int64_t{1} << 16;

  apc::UpdateBus* bus_;
  const UpdateRing* ring_;
  const apc::obs::Counter* applied_;
  std::atomic<int64_t> reserved_{0};
  std::atomic<int64_t> published_{0};
  std::atomic<int64_t> offered_{0};
  std::vector<std::atomic<int64_t>> pushed_at_ns_;
};

/// Everything one run measured, keyed by metric name. The units live in
/// BENCHMARK.json, where run.py picks the metrics it reports.
struct RunResult {
  std::map<std::string, double> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// First few failure descriptions, for the log.
  std::vector<std::string> errors;
  /// Free-form "key value" notes for the log (sample counts and the like).
  std::vector<std::pair<std::string, std::string>> notes;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 16) errors.push_back(what);
  }
};

/// End-to-end figures of each untraced window of the measured phase. Each
/// reported figure is the median over the windows, so one disturbed second
/// cannot move it.
struct WindowFigures {
  std::vector<double> ops_per_s;
  std::vector<double> read_p50_us;
  std::vector<double> read_p90_us;

  /// One window: its throughput and its single-value read latencies (ns).
  void Add(double window_ops_per_s, const FineHistogram& reads);
  /// Sets ops_per_s and point_read_p50/p90_us.
  void Report(RunResult* result) const;
};

/// Thread placement. With at least clients + 2 CPUs, client c runs alone
/// on CPU c and every other thread (the engine's pump and notifier, which
/// inherit the main thread's mask) shares the remaining CPUs, so runs do
/// not differ by where the scheduler happened to put the threads.
/// ReserveClientCpus must run before the engine starts its threads.
void ReserveClientCpus(int clients);
void PinClient(int client);

/// Time the hypervisor has taken from the clients' pinned CPUs ("steal" in
/// /proc/stat) since boot, in seconds, averaged over those CPUs. 0 when
/// the clients are not pinned or the host does not report steal.
double ClientStolenSeconds();

/// How long a window ran: wall time, and the part of it the clients'
/// CPUs were actually running (wall minus stolen time). On a host shared
/// with other virtual machines the hypervisor can take a CPU away for
/// seconds at a time; throughput is counted against run_s so the
/// benchmark measures the program rather than the neighbours.
struct WindowTime {
  double wall_s = 0.0;
  double run_s = 0.0;
};

/// Runs `body(client, stop)` on `clients` threads for `seconds`, then
/// raises `stop` and joins them.
template <typename Body>
WindowTime RunWindow(int clients, double seconds, Body body) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const double stolen_before = ClientStolenSeconds();
  const int64_t start = NowNs();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&body, &stop, c] {
      PinClient(c);
      body(c, stop);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  const int64_t end = NowNs();
  const double stolen = ClientStolenSeconds() - stolen_before;
  for (std::thread& t : threads) t.join();
  WindowTime time;
  time.wall_s = static_cast<double>(end - start) * 1e-9;
  time.run_s = std::max(time.wall_s - stolen, 0.5 * time.wall_s);
  return time;
}

/// num / den, or 0 when nothing was counted.
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// True when `width` satisfies precision constraint `constraint` (the
/// tolerance only absorbs floating-point rounding in interval sums).
inline bool WithinConstraint(double width, double constraint) {
  return width <= constraint + 1e-9 * (1.0 + constraint);
}

/// True when `exact` lies in [lo, hi] up to floating-point rounding.
bool ContainsApprox(double lo, double hi, double exact);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

double Median(std::vector<double> values);

/// Adds what the traced windows measured: per span name, self time per
/// client operation ("self.<span>.ns_per_op"); harness.unattributed_share,
/// the share of client-thread time inside no engine call; and
/// harness.trace_overhead_pct, traced against untraced throughput.
void AddTraceMetrics(const std::vector<const Tracer*>& tracers,
                     int64_t traced_ops, double traced_client_s,
                     double untraced_ops_per_s, double traced_ops_per_s,
                     RunResult* result);

/// Writes the kept spans of every client thread as CSV (thread, index,
/// name, parent, start_ns, end_ns). Returns false on an I/O error.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
