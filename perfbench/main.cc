// The repository benchmark program. Runs one workload, prints notes and
// failures, then everything it measured as one JSON object on the last
// line. run.py picks the metrics BENCHMARK.json lists and adds their units.
//
//   perfbench --workload read_hot|refresh_churn|tiered_push --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//
// Exits 1 on any correctness failure, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload read_hot|refresh_churn|"
               "tiered_push --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

int Main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 120.0) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      options.trace = value[0] == '1';
    } else if (flag == "--spans") {
      options.span_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed) return Usage();

  ReserveClientCpus(kClients);
  const double timer_ns = CalibrateTimerNs();
  RunResult result;
  if (workload == "read_hot") {
    result = RunReadHot(options);
  } else if (workload == "refresh_churn") {
    result = RunRefreshChurn(options);
  } else if (workload == "tiered_push") {
    result = RunTieredPush(options);
  } else {
    return Usage();
  }

  result.metrics["harness.timer_overhead_ns"] = timer_ns;
  result.metrics["harness.error_rate"] =
      result.attempted > 0
          ? static_cast<double>(result.failed) / result.attempted
          : 0.0;
  for (const auto& [name, value] : result.metrics) {
    if (!std::isfinite(value)) result.Fail("non-finite metric " + name);
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  for (const auto& [key, value] : result.notes) {
    std::printf("  note  %-36s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("  FAIL  %s\n", error.c_str());
  }
  std::printf("{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %lld, "
              "\"failed\": %lld, \"errors\": [",
              workload.c_str(), result.failed == 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (size_t i = 0; i < result.errors.size(); ++i) {
    std::printf("%s\"%s\"", i > 0 ? ", " : "",
                JsonEscape(result.errors[i]).c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}}\n");
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
