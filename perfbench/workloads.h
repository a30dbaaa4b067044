#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Traced run: the measured phase alternates untraced and traced
  /// windows, and spans are recorded in the traced ones.
  bool trace = false;
  /// Where the traced run writes its kept spans (empty: nowhere).
  std::string span_path;
};

// Shape shared by every workload. Two closed-loop clients: with the
// engine's update pump and subscription notifier that is four threads, the
// host's core count.
constexpr int kClients = 2;
/// One client operation in kSampleEvery is timed (a deterministic sample by
/// operation index), so the clock pair does not set the throughput.
constexpr uint64_t kSampleEvery = 8;
/// Engine set-ups per run; setup_s is their median.
constexpr int kSetups = 11;
/// Operations of the lockstep correctness pass (one client).
constexpr int64_t kGateOps = 4096;
/// Warm-up before the measured phase, as a share of --seconds.
constexpr double kWarmupShare = 0.2;
/// Spans kept verbatim per client thread in the traced run.
constexpr size_t kKeptSpans = size_t{1} << 16;
/// Operation-ring length per client.
constexpr size_t kRingOps = size_t{1} << 17;
/// Update-ring length in ticks.
constexpr int64_t kRingTicks = int64_t{1} << 12;
/// Longest wait for the pump to apply every offered update.
constexpr double kApplyTimeoutS = 30.0;

/// Windows of the measured phase, about one second each: all untraced, or
/// for the traced run alternating untraced and traced, so the two modes
/// sample the same stretch of the run.
inline std::vector<bool> WindowPlan(double seconds, bool trace) {
  const int windows = std::max(2, static_cast<int>(seconds + 0.5));
  std::vector<bool> plan;
  for (int w = 0; w < windows; ++w) plan.push_back(trace && w % 2 == 1);
  return plan;
}

RunResult RunReadHot(const RunOptions& options);
RunResult RunRefreshChurn(const RunOptions& options);
RunResult RunTieredPush(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
