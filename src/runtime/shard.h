#ifndef APC_RUNTIME_SHARD_H_
#define APC_RUNTIME_SHARD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/source.h"
#include "cache/system.h"
#include "core/interval.h"
#include "core/protocol_table.h"
#include "obs/metrics.h"
#include "query/aggregate.h"
#include "runtime/update_bus.h"
#include "subscribe/change_sink.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace apc {

/// How snapshot reads acquire the shard. The runtime's hot path is a read
/// that the cache already satisfies; the three modes trade lock traffic on
/// exactly that path and exist side by side so the bench measures (rather
/// than assumes) what each step buys:
///
///  * kSeqlock   — the default. Snapshot reads validate an optimistic
///                 per-entry read against the ProtocolTable's versioned
///                 slots and take NO shard lock at all; only a torn read
///                 (a racing refresh of the same entry) falls back to the
///                 shared lock. Refreshes still serialize exclusively.
///  * kShared    — snapshot reads take the shard's shared_mutex shared
///                 (the pre-seqlock runtime): readers don't serialize
///                 against each other, but every read still pays two
///                 atomic RMWs on the shared lock word.
///  * kExclusive — every access exclusive (the original runtime); the
///                 bench's contention baseline.
enum class ReadLockMode {
  kSeqlock,
  kShared,
  kExclusive,
};

/// Engine-wide tallies kept in lock-free counters so monitoring threads can
/// observe totals without taking any shard lock. Shards bump these
/// alongside their own (mutex-guarded) CostTracker; after a quiescent point
/// the two views agree exactly. The fields are obs::Counter — striped under
/// APC_OBS=1, a single plain atomic under APC_OBS=0 — so the .load() /
/// .fetch_add() accessor surface (and the exact-total guarantee) is
/// identical in both builds.
struct RuntimeCounters {
  obs::Counter value_refreshes;
  obs::Counter query_refreshes;
  obs::Counter lost_pushes;
  obs::Counter queries_executed;
  obs::Counter updates_applied;
  /// Update events naming a source id no shard owns: skipped and counted
  /// rather than crashing the pump thread.
  obs::Counter rejected_updates;
  /// Query/point-read source ids no shard owns: dropped from the request
  /// and counted (the malformed id contributes nothing to the result).
  obs::Counter rejected_query_ids;
  /// Sources rejected at engine construction: null, duplicate id, or a
  /// precision policy whose configuration is invalid (see
  /// PrecisionPolicy::IsValidConfig).
  obs::Counter rejected_sources;
  /// Trace files rejected at load time: unreadable, empty, ragged, or a
  /// dimension header disagreeing with the rows present (see
  /// data/trace_io.h). Counted by the scenario harness, never fatal.
  obs::Counter rejected_traces;

  /// Observability-only tallies for the seqlock read path (no-ops under
  /// APC_OBS=0): optimistic reads that tore against a racing refresh, and
  /// shared-lock acquisitions taken to settle them.
  obs::ObsCounter seqlock_retries;
  obs::ObsCounter shared_fallbacks;

  /// Registers every field with `registry` under "<prefix>." names (the
  /// seqlock pair under "read."). Non-owning; this struct must outlive the
  /// registry's snapshots.
  void RegisterWith(obs::MetricsRegistry* registry,
                    const std::string& prefix) const;
};

/// A slot to fill in (or pull for) a query's item vector: the index into the
/// caller's `items` array paired with the source id living on this shard.
using ShardSlot = std::pair<size_t, int>;

/// One partition of the concurrent runtime: a slice of the environment
/// owning the sources hashed to it, their share of the cache capacity, and
/// a shared-core ProtocolTable. All public methods are thread-safe; batch
/// variants take the shard lock once per call so a query crossing the
/// shard pays one lock acquisition rather than one per value.
///
/// Writes (ticks, pulls) always hold the shard's shared_mutex exclusively.
/// Pure snapshot reads (TrySnapshot/SettleIntervals, VisibleInterval, the
/// satisfied branch of PointRead) follow the configured ReadLockMode:
/// optimistic per-entry seqlock validation by default — the read hot path
/// acquires no lock at all — with shared- and exclusive-acquisition modes
/// kept as measurable bench baselines. An aggregate query snapshots in one
/// pass over its ids: the engine routes each id and tries TrySnapshot at
/// once; only ids whose read tore (or, in the locking modes, every id) are
/// grouped per shard and settled by SettleIntervals under one read
/// acquisition per shard.
///
/// The refresh semantics are the shared protocol core's
/// (core/protocol_table.h), the same table the sequential CacheSystem
/// drives: value-initiated refreshes are charged even when the push is
/// lost in transit, eviction ordering uses raw widths, and every
/// query-initiated pull re-offers the fresh approximation to the cache. A
/// single-shard engine driven in lockstep from one thread and seeded like
/// the CacheSystem therefore reproduces its cost accounting exactly,
/// including under push-loss injection (tested in tests/runtime_test.cc).
class Shard {
 public:
  /// `capacity` is this shard's slice of the system's cache capacity χ.
  /// `counters` (owned by the engine) may be null in unit tests.
  Shard(int index, const SystemConfig& config, size_t capacity, uint64_t seed,
        RuntimeCounters* counters,
        ReadLockMode read_mode = ReadLockMode::kSeqlock);

  /// Registers a source on this shard. Returns false — and drops the
  /// source — when it is null or its id is already registered with the
  /// protocol table. The table numbers slots in registration order, so an
  /// accepted source's slot is its index here. Not thread-safe; sources
  /// are added during engine construction, before any concurrent access.
  bool AddSource(std::unique_ptr<Source> source);

  int index() const { return index_; }
  size_t num_sources() const;
  /// True when `id` is registered here. Lock-free: the table's id→slot
  /// map is immutable once construction ends (the sanctioned carve-out,
  /// like the seqlock read below).
  bool Owns(int id) const APC_NO_THREAD_SAFETY_ANALYSIS {
    return table_.Registered(id);
  }

  /// Attaches the subscription subsystem's change sink. Once tracking is
  /// also enabled (EnableChangeTracking), every mutating method hands the
  /// ids whose cached visible interval changed to the sink WHILE still
  /// holding the shard lock (the sink only enqueues), so a change is
  /// always in flight before the mutation is observable — the ordering the
  /// no-missed-violation checker relies on. Not thread-safe; call during
  /// engine construction, before any concurrent access.
  void SetChangeSink(IntervalChangeSink* sink);

  /// Turns on the protocol table's dirty-id recording, under the shard
  /// lock — called on the first Subscribe (SubscriptionActivate), so
  /// subscription-free engines never pay for change tracking. Thread-safe.
  void EnableChangeTracking();

  /// Attaches the engine's cost-attribution sink to this shard's protocol
  /// table (non-owning; see ProtocolTable::SetAttribution). Not
  /// thread-safe; call during engine construction, before any concurrent
  /// access, like SetChangeSink.
  void SetAttribution(obs::AttributionTable* sink);

  /// Ships every owned source's initial approximation (free of charge).
  void PopulateInitial(int64_t now);

  /// Advances every owned source one tick and performs the value-initiated
  /// refreshes the new values trigger, in source-registration order.
  void TickAll(int64_t now);

  /// Advances a single owned source and performs its value-initiated
  /// refresh if triggered. An unknown id is skipped and counted in
  /// RuntimeCounters::rejected_updates (and rejected_updates()).
  void TickSource(int id, int64_t now);

  /// Applies a batch of single-source updates under one lock acquisition.
  /// Pairs naming ids this shard does not own are skipped and counted.
  void TickSources(const std::vector<std::pair<int, int64_t>>& updates);

  /// Applies one drained bus burst under ONE lock acquisition: a
  /// kAllSources event ticks every owned source at its time, a specific id
  /// ticks that source (unowned ids are skipped and counted as rejected).
  /// Changes are published once at the batch-maximum time, like
  /// TickSources. This is the pump's whole-burst entry point — the reason
  /// the bus drains per-ring batches.
  void ApplyEvents(const UpdateEvent* events, size_t count);

  /// The interval a query sees for `id` at `now`: the cached interval, or
  /// the unbounded interval when the value is not cached.
  Interval VisibleInterval(int id, int64_t now) const;

  /// The lock-free half of an aggregate's snapshot. In seqlock mode it
  /// reads `id`'s visible interval into `*out` (the unbounded interval
  /// when uncached or unowned) with no lock and returns true when the
  /// optimistic read validated. It returns false, leaving `*out` alone,
  /// when the read tore against a racing refresh (counted in
  /// read.seqlock_retries) and always in the locking modes, which never
  /// read optimistically: the caller then settles the id with
  /// SettleIntervals.
  bool TrySnapshot(int id, int64_t now, Interval* out) const {
    if (read_mode_ != ReadLockMode::kSeqlock) return false;
    if (TryVisibleIntervalNoLock(id, now, out) != SnapshotRead::kTorn) {
      return true;
    }
    RecordSeqlockRetry(id, now);
    return false;
  }

  /// The locked half: fills `items->at(slot.first).interval` with the
  /// visible interval of `slot.second` for every slot under ONE read
  /// acquisition (exclusive in kExclusive). In seqlock mode the slots are
  /// the ids whose TrySnapshot tore, and the acquisition counts as one
  /// read.shared_fallbacks.
  void SettleIntervals(const std::vector<ShardSlot>& slots,
                       std::vector<QueryItem>* items, int64_t now) const;

  /// Pulls the exact value of `id` (query-initiated refresh): charges Cqr,
  /// adjusts the source's width, re-offers the fresh approximation, and
  /// returns the exact value. An unowned id is charge-free, counted as
  /// rejected, and yields NaN.
  double PullExact(int id, int64_t now);

  /// Pulls every slot's source exactly and stores Interval::Exact into the
  /// corresponding item, under one lock acquisition. Slots naming unowned
  /// ids keep their snapshot interval and are counted as rejected.
  void PullExactMany(const std::vector<ShardSlot>& slots,
                     std::vector<QueryItem>* items, int64_t now);

  /// Runs the MAX/MIN candidate-elimination loop for as long as the next
  /// candidate is owned by this shard, under ONE exclusive lock
  /// acquisition: pulls the candidate, stores the exact interval into every
  /// item with that source id (a duplicated id is charged once), and
  /// recomputes. `first_idx` is the candidate that routed the caller here
  /// (already known to live on this shard). Returns the first candidate
  /// index owned by another shard, or -1 when the constraint is satisfied.
  /// `kind` must be kMax or kMin.
  int PullCandidateRun(AggregateKind kind, double constraint, int first_idx,
                       std::vector<QueryItem>* items, int64_t now);

  /// Precision-bounded point read: returns the cached interval when its
  /// width already satisfies `max_width` (optimistic or shared read per
  /// the mode), otherwise takes the exclusive lock, re-checks — a racing
  /// refresh may have satisfied the bound in between, in which case
  /// nothing is charged — and pulls the exact value (one query-initiated
  /// refresh). An unowned id yields the unbounded interval, charge-free,
  /// counted as rejected.
  Interval PointRead(int id, double max_width, int64_t now);

  void BeginMeasurement(int64_t now);
  void EndMeasurement(int64_t now);

  /// Copy of this shard's cost tracker (consistent snapshot under lock).
  CostTracker CostsSnapshot() const;

  /// Sum of retained raw widths across owned sources (for engine-level
  /// MeanRawWidth), plus the count, as one locked snapshot.
  std::pair<double, size_t> RawWidthSum() const;

  size_t CacheSize() const;
  size_t CacheCapacity() const;
  int64_t lost_pushes() const;
  int64_t rejected_updates() const;

  /// Current exact value of an owned source (consistent under the shard
  /// lock), or NaN for an unowned id. Charge-free observability — the
  /// no-missed-violation checker reads truth through this.
  double SourceValue(int id) const;

 private:
  /// Owned source for `id`, or nullptr (never throws — pump hardening):
  /// the id's table slot indexes `sources_` directly.
  Source* FindSource(int id) const APC_REQUIRES_SHARED(mu_);
  void TickSourceLocked(Source* src, int64_t now) APC_REQUIRES(mu_);
  void RecordRejectedUpdateLocked(int id, int64_t now) APC_REQUIRES(mu_);
  void RecordRejectedQueryId(int id, int64_t now) const;
  /// Query-initiated exact pull of `src` (charges Cqr, re-offers the fresh
  /// approximation); requires the shard lock held exclusively.
  double PullExactLocked(Source* src, int64_t now) APC_REQUIRES(mu_);
  /// Drains the table's dirty ids to the change sink; requires the shard
  /// lock held exclusively. No-op without a sink.
  void PublishChangesLocked(int64_t now) APC_REQUIRES(mu_);
  /// Observability taps for the seqlock read path: counter bump (skipped
  /// when the shard is engine-less) plus a trace event when recording.
  void RecordSeqlockRetry(int id, int64_t now) const;
  void RecordSharedFallback(int id, int64_t now, int64_t torn_count) const;
  /// The seqlock optimistic read — the ONE sanctioned analysis carve-out:
  /// it touches `table_`'s versioned slots with no shard lock by design
  /// (validation detects torn reads), which GUARDED_BY cannot type.
  SnapshotRead TryVisibleIntervalNoLock(int id, int64_t now, Interval* out)
      const APC_NO_THREAD_SAFETY_ANALYSIS {
    return table_.TryVisibleInterval(id, now, out);
  }

  const int index_;
  RuntimeCounters* const counters_;
  const ReadLockMode read_mode_;

  /// One lock class kEngineShard for every shard: engines take shard locks
  /// one at a time (never two shards nested), after the subscription
  /// manager's mutex and before edge/queue/leaf classes.
  mutable SharedMutex mu_{LockRank::kEngineShard, "shard.mu"};
  /// Indexed by the sources' table slots (registration order).
  std::vector<std::unique_ptr<Source>> sources_ APC_GUARDED_BY(mu_);
  ProtocolTable table_ APC_GUARDED_BY(mu_);
  int64_t rejected_updates_ APC_GUARDED_BY(mu_) = 0;
  /// Set once before concurrent use (SetChangeSink documents this); the
  /// pointee is thread-safe (it only enqueues), so it is unguarded.
  IntervalChangeSink* sink_ = nullptr;
  std::vector<int> dirty_scratch_ APC_GUARDED_BY(mu_);  // exclusive-lock scratch
};

}  // namespace apc

#endif  // APC_RUNTIME_SHARD_H_
