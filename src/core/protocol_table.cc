#include "core/protocol_table.h"

#include <cassert>

#include "obs/attribution.h"
#include "obs/trace.h"

namespace apc {

const ProtocolEntry* EntryStore::Find(int id) const {
  uint32_t slot = SlotIndexOf(id);
  bool hit = slot != kNoSlot && entries_[slot].heap_pos != kNotCached;
  NoteSlotProbe(hit);
  return hit ? &entries_[slot] : nullptr;
}

EntryStore::OfferResult EntryStore::OfferEx(int id, const CachedApprox& approx,
                                            double raw_width) {
  uint32_t slot = SlotIndexOf(id);
  if (slot != kNoSlot && entries_[slot].heap_pos != kNotCached) {
    // Cached: replace in place and re-sift.
    SlotEntry& entry = entries_[slot];
    entry.approx = approx;
    entry.raw_width = raw_width;
    HeapFix(entry.heap_pos);
    WriteSlot(slab_[slot], approx, /*cached=*/true);
    return {true, -1};
  }
  const bool full = heap_.size() >= capacity_;
  // "the modified approximation may still be the widest and remain
  // uncached" — ties keep the incumbent to avoid pointless churn.
  if (full && (capacity_ == 0 ||
               raw_width >= entries_[heap_.front()].raw_width)) {
    return {false, -1};
  }
  if (slot == kNoSlot) slot = AddSlot(id);
  entries_[slot].approx = approx;
  entries_[slot].raw_width = raw_width;
  OfferResult result{/*cached=*/true, -1};
  if (!full) {
    heap_.push_back(slot);
    SiftUp(heap_.size() - 1);
  } else {
    // The newcomer takes the root's heap position; its key is below the
    // old root's, so it can only sink. Nothing moves but two heap_pos
    // fields.
    const uint32_t widest = heap_.front();
    entries_[widest].heap_pos = kNotCached;
    HeapPlace(0, slot);
    SiftDown(0);
    WriteSlot(slab_[widest], CachedApprox{}, /*cached=*/false);
#if APC_CACHE_INSTRUMENT
    evictions_.fetch_add(1, std::memory_order_relaxed);
#endif
    result.evicted = true;
    result.evicted_id = entries_[widest].id;
  }
  WriteSlot(slab_[slot], approx, /*cached=*/true);
  return result;
}

void EntryStore::Erase(int id) {
  uint32_t slot = SlotIndexOf(id);
  if (slot == kNoSlot || entries_[slot].heap_pos == kNotCached) return;
  HeapRemove(entries_[slot].heap_pos);
  entries_[slot].heap_pos = kNotCached;
  WriteSlot(slab_[slot], CachedApprox{}, /*cached=*/false);
}

void EntryStore::SiftUp(size_t pos) {
  uint32_t slot = heap_[pos];
  while (pos > 0) {
    size_t parent = (pos - 1) / 2;
    if (!HeapBelow(heap_[parent], slot)) break;
    HeapPlace(pos, heap_[parent]);
    pos = parent;
  }
  HeapPlace(pos, slot);
}

void EntryStore::SiftDown(size_t pos) {
  uint32_t slot = heap_[pos];
  const size_t n = heap_.size();
  for (size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && HeapBelow(heap_[child], heap_[child + 1])) ++child;
    if (!HeapBelow(slot, heap_[child])) break;
    HeapPlace(pos, heap_[child]);
    pos = child;
  }
  HeapPlace(pos, slot);
}

void EntryStore::HeapFix(size_t pos) {
  if (pos > 0 && HeapBelow(heap_[(pos - 1) / 2], heap_[pos])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void EntryStore::HeapRemove(size_t pos) {
  uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  HeapPlace(pos, last);
  HeapFix(pos);
}

bool EntryStore::RegisterSlot(int id) {
  if (SlotIndexOf(id) != kNoSlot) return false;
  AddSlot(id);
  return true;
}

uint32_t EntryStore::AddSlot(int id) {
  const size_t count = entries_.size();
  if (count == slab_capacity_) {
    size_t next = slab_capacity_ == 0 ? 64 : slab_capacity_ * 2;
    auto grown = std::make_unique<VersionedSlot[]>(next);
    // Slots are added single-threaded by contract, so relaxed copies of
    // the atomic payloads are safe; lock-free readers only start after
    // registration ends.
    for (size_t i = 0; i < count; ++i) {
      const VersionedSlot& from = slab_[i];
      VersionedSlot& to = grown[i];
      to.version.store(from.version.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      to.cached.store(from.cached.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      to.lo.store(from.lo.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      to.hi.store(from.hi.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      to.refresh_time.store(from.refresh_time.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      to.growth_coeff.store(from.growth_coeff.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      to.growth_exp.store(from.growth_exp.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
      to.drift_rate.store(from.drift_rate.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
    slab_ = std::move(grown);
    slab_capacity_ = next;
  }
  const uint32_t slot = static_cast<uint32_t>(count);
  entries_.emplace_back();
  entries_.back().id = id;
  if (id >= 0 && static_cast<size_t>(id) < kDenseIdLimit) {
    if (dense_index_.size() <= static_cast<size_t>(id)) {
      dense_index_.resize(static_cast<size_t>(id) + 1, kNoSlot);
    }
    dense_index_[static_cast<size_t>(id)] = slot;
  } else {
    sparse_index_.emplace(id, slot);
  }
  return slot;
}

void EntryStore::WriteSlot(VersionedSlot& slot, const CachedApprox& approx,
                           bool cached) {
  // Seqlock publish: odd version -> payload -> even version. The release
  // fence keeps the payload stores from sinking above the odd mark; the
  // final release store publishes the payload to validating readers.
  uint32_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.cached.store(cached, std::memory_order_relaxed);
  slot.lo.store(approx.base.lo(), std::memory_order_relaxed);
  slot.hi.store(approx.base.hi(), std::memory_order_relaxed);
  slot.refresh_time.store(approx.refresh_time, std::memory_order_relaxed);
  slot.growth_coeff.store(approx.growth_coeff, std::memory_order_relaxed);
  slot.growth_exp.store(approx.growth_exp, std::memory_order_relaxed);
  slot.drift_rate.store(approx.drift_rate, std::memory_order_relaxed);
  slot.version.store(v + 2, std::memory_order_release);
}

ProtocolTable::ProtocolTable(const Config& config, uint64_t seed)
    : config_(config),
      store_(config.capacity),
      costs_(config.costs),
      rng_(seed) {}

void ProtocolTable::MarkDirty(int id) {
  if (!change_tracking_) return;
  if (dirty_set_.insert(id).second) dirty_ids_.push_back(id);
}

void ProtocolTable::DrainDirtyIds(std::vector<int>* out) {
  out->insert(out->end(), dirty_ids_.begin(), dirty_ids_.end());
  dirty_ids_.clear();
  dirty_set_.clear();
}

void ProtocolTable::OfferMirrored(int id, const CachedApprox& approx,
                                  double raw_width) {
  // An unregistered id would get its slot here, growing the slab under
  // any lock-free reader; every engine registers its ids at construction.
  assert(store_.HasSlot(id) && "ProtocolTable offer of an unregistered id");
  // The store publishes the slab mirror itself (evicted slot first, then
  // the offered slot); this layer adds the trace and dirty-id outcomes.
  EntryStore::OfferResult result = store_.OfferEx(id, approx, raw_width);
  if (result.evicted) {
    // The evicted id's visible interval widened to unbounded — a change a
    // standing query over it must hear about.
    MarkDirty(result.evicted_id);
  }
  if (result.cached) {
    obs::TraceRecorder::Record(obs::TraceEvent::kOfferApplied, id,
                               approx.refresh_time);
    MarkDirty(id);
  }
}

void ProtocolTable::OfferInitial(int id, ProtocolCell& cell, double value,
                                 int64_t now) {
  CachedApprox approx = cell.Ship(value, now);
  OfferMirrored(id, approx, cell.raw_width());
}

ValueTickOutcome ProtocolTable::OnValueTick(int id, ProtocolCell& cell,
                                            double value, int64_t now) {
  ValueTickOutcome outcome;
  // The cell tests validity against the approximation it last shipped —
  // caches never report evictions (paper §2), so refreshes are pushed even
  // for entries the cache has dropped.
  if (!cell.NeedsValueRefresh(value, now)) return outcome;
  costs_.RecordValueRefresh();
  outcome.refreshed = true;
  CachedApprox approx = cell.Refresh(value, RefreshType::kValueInitiated, now);
  if (attribution_ != nullptr) {
    // Mirrored BEFORE loss injection, like the tracker charge: the source
    // paid Cvr whether or not the push arrives.
    attribution_->RecordValueRefresh(id, config_.costs.cvr, cell.raw_width(),
                                     now);
  }
  if (config_.push_loss_probability > 0.0 &&
      rng_.Bernoulli(config_.push_loss_probability)) {
    // The message is lost: the source has already updated its own notion of
    // the shipped interval (and paid Cvr), but the cache never sees it.
    ++lost_pushes_;
    outcome.lost = true;
    obs::TraceRecorder::Record(obs::TraceEvent::kOfferChargedLost, id, now);
    return outcome;
  }
  OfferMirrored(id, approx, cell.raw_width());
  return outcome;
}

double ProtocolTable::Pull(int id, ProtocolCell& cell, double value,
                           int64_t now) {
  costs_.RecordQueryRefresh();
  CachedApprox approx = cell.Refresh(value, RefreshType::kQueryInitiated, now);
  if (attribution_ != nullptr) {
    attribution_->RecordQueryRefresh(id, config_.costs.cqr, cell.raw_width(),
                                     now);
  }
  OfferMirrored(id, approx, cell.raw_width());
  return value;
}

void ProtocolTable::OfferDerivedInitial(int id, const CachedApprox& approx,
                                        double raw_width) {
  OfferMirrored(id, approx, raw_width);
}

ValueTickOutcome ProtocolTable::OfferDerived(int id, const CachedApprox& approx,
                                             double raw_width,
                                             RefreshType type) {
  ValueTickOutcome outcome;
  outcome.refreshed = true;
  if (type == RefreshType::kValueInitiated) {
    costs_.RecordValueRefresh();
    if (attribution_ != nullptr) {
      attribution_->RecordValueRefresh(id, config_.costs.cvr, raw_width,
                                       approx.refresh_time);
    }
    // Derived pushes cross a real link: the charge stands even when
    // failure injection drops the message (charged-but-lost, identical to
    // OnValueTick). The parent keeps its sender-side record of what it
    // shipped; the receiving cache simply never sees it.
    if (config_.push_loss_probability > 0.0 &&
        rng_.Bernoulli(config_.push_loss_probability)) {
      ++lost_pushes_;
      outcome.lost = true;
      obs::TraceRecorder::Record(obs::TraceEvent::kOfferChargedLost, id,
                                 approx.refresh_time);
      return outcome;
    }
  } else {
    // A query-initiated install is the reply of an escalated read the
    // reader already paid for; replies are not subject to push loss.
    costs_.RecordQueryRefresh();
    if (attribution_ != nullptr) {
      attribution_->RecordQueryRefresh(id, config_.costs.cqr, raw_width,
                                       approx.refresh_time);
    }
  }
  OfferMirrored(id, approx, raw_width);
  return outcome;
}

Interval ProtocolTable::VisibleInterval(int id, int64_t now) const {
  const ProtocolEntry* entry = store_.Find(id);
  if (entry == nullptr) return Interval::Unbounded();
  return entry->approx.AtTime(now);
}

SnapshotRead ProtocolTable::TryVisibleInterval(int id, int64_t now,
                                               Interval* out) const {
  // Dense ids: one vector load to find the slot, one cache line to read
  // it — no hashing, no pointer chasing on the optimistic path.
  uint32_t index = store_.SlotIndexOf(id);
  if (index == EntryStore::kNoSlot) {
    *out = Interval::Unbounded();
    return SnapshotRead::kMiss;
  }
  const VersionedSlot& slot = store_.SlotAt(index);
  uint32_t v1 = slot.version.load(std::memory_order_acquire);
  if (v1 & 1u) return SnapshotRead::kTorn;  // write in progress
  bool cached = slot.cached.load(std::memory_order_relaxed);
  double lo = slot.lo.load(std::memory_order_relaxed);
  double hi = slot.hi.load(std::memory_order_relaxed);
  int64_t refresh_time = slot.refresh_time.load(std::memory_order_relaxed);
  double growth_coeff = slot.growth_coeff.load(std::memory_order_relaxed);
  double growth_exp = slot.growth_exp.load(std::memory_order_relaxed);
  double drift_rate = slot.drift_rate.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.version.load(std::memory_order_relaxed) != v1) {
    return SnapshotRead::kTorn;
  }
  // Only a validated copy is materialized: a torn {lo, hi} pair could
  // violate lo <= hi and must never reach the Interval constructor.
  if (!cached) {
    store_.NoteSlotProbe(/*hit=*/false);
    *out = Interval::Unbounded();
    return SnapshotRead::kMiss;
  }
  store_.NoteSlotProbe(/*hit=*/true);
  CachedApprox approx;
  approx.base = Interval(lo, hi);
  approx.refresh_time = refresh_time;
  approx.growth_coeff = growth_coeff;
  approx.growth_exp = growth_exp;
  approx.drift_rate = drift_rate;
  *out = approx.AtTime(now);
  return SnapshotRead::kHit;
}

}  // namespace apc
