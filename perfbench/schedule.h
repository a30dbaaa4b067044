#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

// The inputs a run feeds the engines, generated up front from the seed:
// a compact operation ring per client and one ring of per-tick update ids.
// The rings are replayed cyclically, so the engines see the same inputs
// for a seed no matter how fast the host is, and generating them costs
// milliseconds rather than one heap-allocated Query per operation.

#include <cstdint>
#include <vector>

#include "query/aggregate.h"
#include "query/constraint_gen.h"

namespace perfbench {

enum class OpKind : uint8_t { kPoint, kSum, kAvg, kMax, kMin };

/// One client operation: a point read of ids[first] or an aggregate over
/// ids[first, first + group_size).
struct Op {
  OpKind kind = OpKind::kPoint;
  float constraint = 0.0f;
  int32_t first = 0;
};

struct OpMix {
  double point_fraction = 1.0;
  /// Aggregates are SUM/AVG/MAX/MIN in equal shares over this many
  /// distinct ids.
  int group_size = 8;
  /// Zipf exponent of id popularity (id k drawn with weight 1/(k+1)^s).
  double zipf_s = 0.0;
  apc::ConstraintParams point_constraint;
  apc::ConstraintParams aggregate_constraint;
};

struct OpRing {
  std::vector<Op> ops;  // power-of-two length
  std::vector<int32_t> ids;
  int group_size = 1;

  const Op& at(uint64_t i) const { return ops[i & (ops.size() - 1)]; }
  const int32_t* ids_of(const Op& op) const { return ids.data() + op.first; }
  int size_of(const Op& op) const {
    return op.kind == OpKind::kPoint ? 1 : group_size;
  }
};

/// `size` must be a power of two.
OpRing MakeOpRing(const OpMix& mix, int num_sources, size_t size,
                  uint64_t seed);

/// Per-tick update ids: tick t updates ids[(t mod ticks) * per_tick ...],
/// drawn uniformly over the sources.
struct UpdateRing {
  std::vector<int32_t> ids;
  int per_tick = 0;
  int64_t ticks = 0;

  const int32_t* ids_of(int64_t tick) const {
    return ids.data() + (tick % ticks) * per_tick;
  }
};

UpdateRing MakeUpdateRing(int num_sources, int per_tick, int64_t ticks,
                          uint64_t seed);

apc::AggregateKind AggregateOf(OpKind kind);

/// Exact aggregate of `values` (the reference a cached answer must
/// contain).
double ExactAggregate(apc::AggregateKind kind, const double* values, int n);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
