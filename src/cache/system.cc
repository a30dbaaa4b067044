#include "cache/system.h"

namespace apc {

CacheSystem::CacheSystem(const SystemConfig& config,
                         std::vector<std::unique_ptr<Source>> sources,
                         uint64_t seed)
    : sources_(std::move(sources)), table_(config.TableConfig(), seed) {
  for (const auto& src : sources_) table_.Register(src->id());
}

void CacheSystem::PopulateInitial(int64_t now) {
  for (auto& src : sources_) {
    table_.OfferInitial(src->id(), src->cell(), src->value(), now);
  }
}

void CacheSystem::Tick(int64_t now) {
  for (auto& src : sources_) {
    src->Tick();
    table_.OnValueTick(src->id(), src->cell(), src->value(), now);
  }
}

double CacheSystem::PullExact(int id, int64_t now) {
  Source* src = source(id);
  return table_.Pull(id, src->cell(), src->value(), now);
}

Interval CacheSystem::ExecuteQuery(const Query& query, int64_t now) {
  std::vector<QueryItem> items;
  items.reserve(query.source_ids.size());
  for (int id : query.source_ids) {
    items.push_back({id, VisibleInterval(id, now)});
  }

  // A query names a set of values: an id occurring more than once is
  // pulled (and charged, and adapted) once, and its exact value lands in
  // every occurrence — the engines' semantics, pinned by the parity suites.
  auto pull = [&](int id) {
    Interval exact = Interval::Exact(PullExact(id, now));
    for (auto& item : items) {
      if (item.source_id == id) item.interval = exact;
    }
  };

  switch (query.kind) {
    case AggregateKind::kSum:
    case AggregateKind::kAvg: {
      // One-shot selection: refreshing an item removes exactly its width
      // from the result, so the refresh set is known up front. A selected
      // id already pulled through an earlier occurrence is skipped.
      std::vector<size_t> selection =
          query.kind == AggregateKind::kSum
              ? SumRefreshSelection(items, query.constraint)
              : AvgRefreshSelection(items, query.constraint);
      for (size_t i = 0; i < selection.size(); ++i) {
        int id = items[selection[i]].source_id;
        bool pulled = false;
        for (size_t j = 0; j < i && !pulled; ++j) {
          pulled = items[selection[j]].source_id == id;
        }
        if (!pulled) pull(id);
      }
      return query.kind == AggregateKind::kSum ? SumInterval(items)
                                               : AvgInterval(items);
    }
    case AggregateKind::kMax:
    case AggregateKind::kMin: {
      // Iterative selection with candidate elimination: each pull either
      // tightens the result's determining bound or eliminates candidates.
      auto next_candidate = query.kind == AggregateKind::kMax
                                ? NextMaxRefreshCandidate
                                : NextMinRefreshCandidate;
      int idx;
      while ((idx = next_candidate(items, query.constraint)) >= 0) {
        pull(items[static_cast<size_t>(idx)].source_id);
      }
      return query.kind == AggregateKind::kMax ? MaxInterval(items)
                                               : MinInterval(items);
    }
  }
  return Interval(0.0, 0.0);
}

int CacheSystem::CountInvalidEntries(int64_t now) const {
  int invalid = 0;
  table_.ForEachEntry([&](int id, const ProtocolEntry& entry) {
    if (!entry.approx.Valid(source(id)->value(), now)) ++invalid;
  });
  return invalid;
}

double CacheSystem::MeanRawWidth() const {
  if (sources_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& src : sources_) total += src->raw_width();
  return total / static_cast<double>(sources_.size());
}

}  // namespace apc
