#include "runtime/shard.h"

#include <algorithm>
#include <limits>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "runtime/runtime_util.h"

namespace apc {

using runtime_internal::ReadLock;

void RuntimeCounters::RegisterWith(obs::MetricsRegistry* registry,
                                   const std::string& prefix) const {
  registry->RegisterCounter(prefix + ".value_refreshes", &value_refreshes);
  registry->RegisterCounter(prefix + ".query_refreshes", &query_refreshes);
  registry->RegisterCounter(prefix + ".lost_pushes", &lost_pushes);
  registry->RegisterCounter(prefix + ".queries_executed", &queries_executed);
  registry->RegisterCounter(prefix + ".updates_applied", &updates_applied);
  registry->RegisterCounter(prefix + ".rejected_updates", &rejected_updates);
  registry->RegisterCounter(prefix + ".rejected_query_ids",
                            &rejected_query_ids);
  registry->RegisterCounter(prefix + ".rejected_sources", &rejected_sources);
  registry->RegisterCounter(prefix + ".rejected_traces", &rejected_traces);
  registry->RegisterCounter("read.seqlock_retries", &seqlock_retries);
  registry->RegisterCounter("read.shared_fallbacks", &shared_fallbacks);
}

Shard::Shard(int index, const SystemConfig& config, size_t capacity,
             uint64_t seed, RuntimeCounters* counters, ReadLockMode read_mode)
    : index_(index),
      counters_(counters),
      read_mode_(read_mode),
      table_({config.costs, capacity, config.push_loss_probability}, seed) {}

bool Shard::AddSource(std::unique_ptr<Source> source) {
  if (source == nullptr) return false;
  // Construction-time only, but the lock keeps the guarded-member
  // contract unconditional (and is charged exactly once per source).
  WriterMutexLock lock(mu_);
  // Duplicate id: rejected, caller decides. Otherwise the new slot is
  // sources_.size() — slots are handed out in registration order.
  if (!table_.Register(source->id())) return false;
  sources_.push_back(std::move(source));
  return true;
}

size_t Shard::num_sources() const {
  ReaderMutexLock lock(mu_);
  return sources_.size();
}

Source* Shard::FindSource(int id) const {
  uint32_t slot = table_.SlotOf(id);
  return slot == EntryStore::kNoSlot ? nullptr : sources_[slot].get();
}

void Shard::SetChangeSink(IntervalChangeSink* sink) { sink_ = sink; }

void Shard::EnableChangeTracking() {
  WriterMutexLock lock(mu_);
  table_.EnableChangeTracking();
}

void Shard::SetAttribution(obs::AttributionTable* sink) {
  WriterMutexLock lock(mu_);
  table_.SetAttribution(sink);
}

void Shard::PublishChangesLocked(int64_t now) {
  if (sink_ == nullptr || !table_.has_dirty_ids()) return;
  dirty_scratch_.clear();
  table_.DrainDirtyIds(&dirty_scratch_);
  sink_->OnIntervalChanges(dirty_scratch_, now);
}

void Shard::PopulateInitial(int64_t now) {
  WriterMutexLock lock(mu_);
  for (auto& src : sources_) {
    table_.OfferInitial(src->id(), src->cell(), src->value(), now);
  }
  PublishChangesLocked(now);
}

// TickSourceLocked/PullExactLocked drive the SAME ProtocolTable methods as
// CacheSystem::Tick and CacheSystem::PullExact: the runtime's determinism
// guarantee — both charge and refresh identically, pinned by the
// SingleShardMatchesCacheSystem* tests — now holds by construction rather
// than by hand-maintained imitation.
void Shard::TickSourceLocked(Source* src, int64_t now) {
  src->Tick();
  if (counters_ != nullptr) {
    counters_->updates_applied.fetch_add(1, std::memory_order_relaxed);
  }
  ValueTickOutcome outcome =
      table_.OnValueTick(src->id(), src->cell(), src->value(), now);
  if (counters_ != nullptr) {
    if (outcome.refreshed) {
      counters_->value_refreshes.fetch_add(1, std::memory_order_relaxed);
    }
    if (outcome.lost) {
      counters_->lost_pushes.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Shard::RecordSeqlockRetry(int id, int64_t now) const {
  if (counters_ != nullptr) {
    counters_->seqlock_retries.fetch_add(1, std::memory_order_relaxed);
  }
  obs::TraceRecorder::Record(obs::TraceEvent::kSeqlockRetry, id, now);
}

void Shard::RecordSharedFallback(int id, int64_t now,
                                 int64_t torn_count) const {
  if (counters_ != nullptr) {
    counters_->shared_fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  obs::TraceRecorder::Record(obs::TraceEvent::kSharedFallback, id, now,
                             torn_count);
}

void Shard::RecordRejectedUpdateLocked(int id, int64_t now) {
  ++rejected_updates_;
  if (counters_ != nullptr) {
    counters_->rejected_updates.fetch_add(1, std::memory_order_relaxed);
  }
  obs::FlightRecorder::NoteRejectedInput("unowned update id", id, now);
}

void Shard::RecordRejectedQueryId(int id, int64_t now) const {
  if (counters_ != nullptr) {
    counters_->rejected_query_ids.fetch_add(1, std::memory_order_relaxed);
  }
  obs::FlightRecorder::NoteRejectedInput("unowned query id", id, now);
}

void Shard::TickAll(int64_t now) {
  WriterMutexLock lock(mu_);
  for (auto& src : sources_) TickSourceLocked(src.get(), now);
  PublishChangesLocked(now);
}

void Shard::TickSource(int id, int64_t now) {
  WriterMutexLock lock(mu_);
  Source* src = FindSource(id);
  if (src == nullptr) {
    RecordRejectedUpdateLocked(id, now);
    return;
  }
  TickSourceLocked(src, now);
  PublishChangesLocked(now);
}

void Shard::TickSources(const std::vector<std::pair<int, int64_t>>& updates) {
  WriterMutexLock lock(mu_);
  // Batch maximum, not the last element: with multiple bus producers the
  // batch need not be time-ordered, and publishing a change at an earlier
  // logical time than the tick that produced it would let the notifier
  // snapshot a stale (narrower) interval.
  int64_t last_now = 0;
  for (const auto& [id, now] : updates) {
    last_now = std::max(last_now, now);
    Source* src = FindSource(id);
    if (src == nullptr) {
      RecordRejectedUpdateLocked(id, now);
      continue;
    }
    TickSourceLocked(src, now);
  }
  PublishChangesLocked(last_now);
}

void Shard::ApplyEvents(const UpdateEvent* events, size_t count) {
  // Root span of the asynchronous update path: one drained bus burst and
  // every value-initiated refresh cascade it triggers.
  obs::TraceScope span(obs::SpanKind::kTick, /*id=*/-1,
                       count > 0 ? events[0].now : 0);
  WriterMutexLock lock(mu_);
  // Batch-maximum publish time, for the same reason as TickSources.
  int64_t last_now = 0;
  for (size_t i = 0; i < count; ++i) {
    const UpdateEvent& event = events[i];
    last_now = std::max(last_now, event.now);
    if (event.source_id == UpdateEvent::kAllSources) {
      for (auto& src : sources_) TickSourceLocked(src.get(), event.now);
      continue;
    }
    Source* src = FindSource(event.source_id);
    if (src == nullptr) {
      RecordRejectedUpdateLocked(event.source_id, event.now);
      continue;
    }
    TickSourceLocked(src, event.now);
  }
  PublishChangesLocked(last_now);
}

Interval Shard::VisibleInterval(int id, int64_t now) const {
  if (read_mode_ == ReadLockMode::kSeqlock) {
    Interval out;
    if (TryVisibleIntervalNoLock(id, now, &out) != SnapshotRead::kTorn) {
      return out;
    }
    // Torn by a racing refresh: settle it under the shared lock.
    RecordSeqlockRetry(id, now);
    RecordSharedFallback(id, now, 1);
  }
  ReadLock lock(mu_, read_mode_);
  return table_.VisibleInterval(id, now);
}

void Shard::SettleIntervals(const std::vector<ShardSlot>& slots,
                            std::vector<QueryItem>* items,
                            int64_t now) const {
  if (read_mode_ == ReadLockMode::kSeqlock) {
    RecordSharedFallback(/*id=*/-1, now, static_cast<int64_t>(slots.size()));
  }
  ReadLock lock(mu_, read_mode_);
  for (const auto& [pos, id] : slots) {
    (*items)[pos].interval = table_.VisibleInterval(id, now);
  }
}

double Shard::PullExactLocked(Source* src, int64_t now) {
  obs::TraceScope span(obs::SpanKind::kSourcePull, src->id(), now);
  if (counters_ != nullptr) {
    counters_->query_refreshes.fetch_add(1, std::memory_order_relaxed);
  }
  return table_.Pull(src->id(), src->cell(), src->value(), now);
}

double Shard::PullExact(int id, int64_t now) {
  WriterMutexLock lock(mu_);
  Source* src = FindSource(id);
  if (src == nullptr) {
    RecordRejectedQueryId(id, now);
    return std::numeric_limits<double>::quiet_NaN();
  }
  double value = PullExactLocked(src, now);
  PublishChangesLocked(now);
  return value;
}

void Shard::PullExactMany(const std::vector<ShardSlot>& slots,
                          std::vector<QueryItem>* items, int64_t now) {
  WriterMutexLock lock(mu_);
  for (const auto& [pos, id] : slots) {
    Source* src = FindSource(id);
    if (src == nullptr) {
      // Keep the snapshot interval; the caller already excluded unowned
      // ids, so this only fires for standalone (engine-less) misuse.
      RecordRejectedQueryId(id, now);
      continue;
    }
    (*items)[pos].interval = Interval::Exact(PullExactLocked(src, now));
  }
  PublishChangesLocked(now);
}

int Shard::PullCandidateRun(AggregateKind kind, double constraint,
                            int first_idx, std::vector<QueryItem>* items,
                            int64_t now) {
  WriterMutexLock lock(mu_);
  int idx = first_idx;
  while (idx >= 0) {
    int id = (*items)[static_cast<size_t>(idx)].source_id;
    Source* src = FindSource(id);
    if (src == nullptr) {
      PublishChangesLocked(now);
      return idx;  // next candidate lives on another shard
    }
    Interval exact = Interval::Exact(PullExactLocked(src, now));
    // One charge per distinct id: a duplicated id inside the query becomes
    // exact in every slot, so the elimination never re-selects it.
    for (auto& item : *items) {
      if (item.source_id == id) item.interval = exact;
    }
    idx = kind == AggregateKind::kMax
              ? NextMaxRefreshCandidate(*items, constraint)
              : NextMinRefreshCandidate(*items, constraint);
  }
  PublishChangesLocked(now);
  return -1;
}

Interval Shard::PointRead(int id, double max_width, int64_t now) {
  // Root span of a point read's lifecycle (kFull only, like kReadStart):
  // retries, fallbacks, and the exact pull all land under it.
  obs::TraceScope span(obs::SpanKind::kPointRead, id, now);
  obs::TraceRecorder::Record(obs::TraceEvent::kReadStart, id, now,
                             static_cast<int64_t>(read_mode_));
  // Fast path per mode; the exclusive baseline does the whole read under
  // its one exclusive acquisition, exactly like the original runtime — a
  // second acquisition there would bias the bench comparison.
  if (read_mode_ == ReadLockMode::kSeqlock) {
    Interval visible;
    SnapshotRead read = TryVisibleIntervalNoLock(id, now, &visible);
    if (read == SnapshotRead::kHit && visible.Width() <= max_width) {
      return visible;
    }
    if (read == SnapshotRead::kTorn) RecordSeqlockRetry(id, now);
  } else if (read_mode_ == ReadLockMode::kShared) {
    ReaderMutexLock lock(mu_);
    const ProtocolEntry* entry = table_.Find(id);
    if (entry != nullptr) {
      Interval visible = entry->approx.AtTime(now);
      if (visible.Width() <= max_width) return visible;
    }
  }
  WriterMutexLock lock(mu_);
  // Check (again, in the optimistic modes) under the exclusive lock: a
  // refresh may have landed between the two acquisitions, making the pull
  // (and its Cqr charge) needless.
  const ProtocolEntry* entry = table_.Find(id);
  if (entry != nullptr) {
    Interval visible = entry->approx.AtTime(now);
    if (visible.Width() <= max_width) return visible;
  }
  Source* src = FindSource(id);
  if (src == nullptr) {
    RecordRejectedQueryId(id, now);
    return Interval::Unbounded();
  }
  Interval result = Interval::Exact(PullExactLocked(src, now));
  PublishChangesLocked(now);
  return result;
}

void Shard::BeginMeasurement(int64_t now) {
  WriterMutexLock lock(mu_);
  table_.costs().BeginMeasurement(now);
}

void Shard::EndMeasurement(int64_t now) {
  WriterMutexLock lock(mu_);
  table_.costs().EndMeasurement(now);
}

CostTracker Shard::CostsSnapshot() const {
  ReadLock lock(mu_, read_mode_);
  return table_.costs();
}

std::pair<double, size_t> Shard::RawWidthSum() const {
  ReadLock lock(mu_, read_mode_);
  double total = 0.0;
  for (const auto& src : sources_) total += src->raw_width();
  return {total, sources_.size()};
}

size_t Shard::CacheSize() const {
  ReadLock lock(mu_, read_mode_);
  return table_.size();
}

size_t Shard::CacheCapacity() const {
  ReaderMutexLock lock(mu_);
  return table_.capacity();
}

int64_t Shard::lost_pushes() const {
  ReadLock lock(mu_, read_mode_);
  return table_.lost_pushes();
}

int64_t Shard::rejected_updates() const {
  ReadLock lock(mu_, read_mode_);
  return rejected_updates_;
}

double Shard::SourceValue(int id) const {
  ReadLock lock(mu_, read_mode_);
  Source* src = FindSource(id);
  return src == nullptr ? std::numeric_limits<double>::quiet_NaN()
                        : src->value();
}

}  // namespace apc
