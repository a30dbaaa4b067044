#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/rng.h"

namespace perfbench {

namespace {

/// Inverse-CDF Zipf sampler over ranks 0..n-1 (uniform when s == 0).
class ZipfSampler {
 public:
  ZipfSampler(int n, double s) : n_(n) {
    if (s <= 0.0) return;
    cdf_.resize(static_cast<size_t>(n));
    double total = 0.0;
    for (int k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[static_cast<size_t>(k)] = total;
    }
  }

  int Draw(apc::Rng& rng) const {
    if (cdf_.empty()) return static_cast<int>(rng.UniformInt(0, n_ - 1));
    double u = rng.Uniform(0.0, cdf_.back());
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(std::min<std::ptrdiff_t>(it - cdf_.begin(), n_ - 1));
  }

 private:
  int n_;
  std::vector<double> cdf_;
};

OpKind DrawAggregateKind(apc::Rng& rng) {
  static constexpr OpKind kKinds[] = {OpKind::kSum, OpKind::kAvg,
                                      OpKind::kMax, OpKind::kMin};
  return kKinds[rng.UniformInt(0, 3)];
}

}  // namespace

OpRing MakeOpRing(const OpMix& mix, int num_sources, size_t size,
                  uint64_t seed) {
  apc::Rng rng(seed);
  apc::ConstraintGenerator point_constraints(mix.point_constraint,
                                             rng.NextUint64());
  apc::ConstraintGenerator aggregate_constraints(mix.aggregate_constraint,
                                                 rng.NextUint64());
  ZipfSampler zipf(num_sources, mix.zipf_s);

  OpRing ring;
  ring.group_size = mix.group_size;
  ring.ops.resize(size);
  ring.ids.reserve(size * static_cast<size_t>(mix.group_size));
  for (Op& op : ring.ops) {
    op.first = static_cast<int32_t>(ring.ids.size());
    if (rng.Uniform(0.0, 1.0) < mix.point_fraction) {
      op.kind = OpKind::kPoint;
      op.constraint = static_cast<float>(point_constraints.Next());
      ring.ids.push_back(zipf.Draw(rng));
      continue;
    }
    op.kind = DrawAggregateKind(rng);
    op.constraint = static_cast<float>(aggregate_constraints.Next());
    while (static_cast<int>(ring.ids.size()) - op.first < mix.group_size) {
      int id = zipf.Draw(rng);
      auto begin = ring.ids.begin() + op.first;
      if (std::find(begin, ring.ids.end(), id) == ring.ids.end()) {
        ring.ids.push_back(id);
      }
    }
  }
  return ring;
}

UpdateRing MakeUpdateRing(int num_sources, int per_tick, int64_t ticks,
                          uint64_t seed) {
  apc::Rng rng(seed);
  UpdateRing ring;
  ring.per_tick = per_tick;
  ring.ticks = ticks;
  ring.ids.resize(static_cast<size_t>(ticks * per_tick));
  for (int32_t& id : ring.ids) {
    id = static_cast<int32_t>(rng.UniformInt(0, num_sources - 1));
  }
  return ring;
}

apc::AggregateKind AggregateOf(OpKind kind) {
  switch (kind) {
    case OpKind::kAvg:
      return apc::AggregateKind::kAvg;
    case OpKind::kMax:
      return apc::AggregateKind::kMax;
    case OpKind::kMin:
      return apc::AggregateKind::kMin;
    default:
      return apc::AggregateKind::kSum;
  }
}

double ExactAggregate(apc::AggregateKind kind, const double* values, int n) {
  double acc = values[0];
  for (int i = 1; i < n; ++i) {
    switch (kind) {
      case apc::AggregateKind::kMax:
        acc = std::max(acc, values[i]);
        break;
      case apc::AggregateKind::kMin:
        acc = std::min(acc, values[i]);
        break;
      default:
        acc += values[i];
    }
  }
  return kind == apc::AggregateKind::kAvg ? acc / n : acc;
}

}  // namespace perfbench
