#include "core/protocol_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "cache/source.h"
#include "core/adaptive_policy.h"
#include "core/precision_policy.h"
#include "data/random_walk.h"
#include "runtime/shard.h"
#include "util/rng.h"

namespace apc {
namespace {

/// Deterministic adaptive policy: costs {1, 2} give theta = 1, so a
/// value-initiated refresh ALWAYS doubles the raw width (grow probability
/// min(theta, 1) = 1) and a query-initiated refresh ALWAYS halves it.
AdaptivePolicyParams DeterministicParams() {
  AdaptivePolicyParams params;
  params.cvr = 1.0;
  params.cqr = 2.0;
  params.alpha = 1.0;
  params.initial_width = 1.0;
  return params;
}

ProtocolCell MakeCell(double value, const AdaptivePolicyParams& params) {
  return ProtocolCell(std::make_unique<AdaptivePolicy>(params, /*seed=*/7),
                      value);
}

ProtocolTable::Config TableConfig(size_t capacity,
                                  double push_loss_probability = 0.0) {
  ProtocolTable::Config config;
  config.costs = {1.0, 2.0};
  config.capacity = capacity;
  config.push_loss_probability = push_loss_probability;
  return config;
}

TEST(ProtocolCellTest, RefreshAdjustsWidthAndReships) {
  ProtocolCell cell = MakeCell(10.0, DeterministicParams());
  EXPECT_DOUBLE_EQ(cell.raw_width(), 1.0);
  EXPECT_TRUE(cell.last_shipped().Valid(10.0, 0));

  // 10.6 escaped [9.5, 10.5]: the value-initiated refresh doubles the
  // width and ships a fresh interval centered on the new value.
  EXPECT_TRUE(cell.NeedsValueRefresh(10.6, 1));
  CachedApprox approx = cell.Refresh(10.6, RefreshType::kValueInitiated, 1);
  EXPECT_DOUBLE_EQ(cell.raw_width(), 2.0);
  EXPECT_TRUE(approx.Valid(10.6, 1));
  EXPECT_DOUBLE_EQ(approx.base.Width(), 2.0);

  // A pull halves it again.
  cell.Refresh(10.6, RefreshType::kQueryInitiated, 2);
  EXPECT_DOUBLE_EQ(cell.raw_width(), 1.0);
}

TEST(ProtocolCellTest, RawWidthRetainedAcrossThresholdSnapping) {
  AdaptivePolicyParams params = DeterministicParams();
  params.delta0 = 0.3;  // effective 0 below
  params.delta1 = 3.0;  // effective infinity at or above
  ProtocolCell cell = MakeCell(0.0, params);

  // Raw 1 -> 2 -> 4: the shipped width snaps to infinity at 4, but the
  // retained raw width keeps its true value and keeps adjusting from it
  // (paper §2) — the next pull halves 4, not infinity.
  cell.Refresh(0.0, RefreshType::kValueInitiated, 1);
  cell.Refresh(0.0, RefreshType::kValueInitiated, 2);
  EXPECT_DOUBLE_EQ(cell.raw_width(), 4.0);
  EXPECT_EQ(cell.EffectiveWidth(), kInfinity);
  EXPECT_TRUE(cell.last_shipped().base.IsUnbounded());

  cell.Refresh(0.0, RefreshType::kQueryInitiated, 3);
  EXPECT_DOUBLE_EQ(cell.raw_width(), 2.0);
  EXPECT_DOUBLE_EQ(cell.EffectiveWidth(), 2.0);

  // 2 -> 1 -> 0.5 -> 0.25: below delta0 the shipped copy is exact while
  // the raw width stays 0.25.
  cell.Refresh(0.0, RefreshType::kQueryInitiated, 4);
  cell.Refresh(0.0, RefreshType::kQueryInitiated, 5);
  cell.Refresh(0.0, RefreshType::kQueryInitiated, 6);
  EXPECT_DOUBLE_EQ(cell.raw_width(), 0.25);
  EXPECT_DOUBLE_EQ(cell.EffectiveWidth(), 0.0);
  EXPECT_TRUE(cell.last_shipped().base.IsExact());
}

TEST(EntryStoreTest, OfferExReportsEviction) {
  EntryStore store(2);
  CachedApprox approx;
  approx.base = Interval(0.0, 1.0);
  EXPECT_TRUE(store.OfferEx(1, approx, 8.0).cached);
  EXPECT_TRUE(store.OfferEx(2, approx, 4.0).cached);

  // Full: a narrower offer evicts the widest (id 1, raw 8).
  EntryStore::OfferResult result = store.OfferEx(3, approx, 2.0);
  EXPECT_TRUE(result.cached);
  EXPECT_EQ(result.evicted_id, 1);

  // An offer at least as wide as the widest incumbent is rejected.
  result = store.OfferEx(4, approx, 4.0);
  EXPECT_FALSE(result.cached);
  EXPECT_EQ(result.evicted_id, -1);
  EXPECT_EQ(store.size(), 2u);
}

/// Brute-force reference for EntryStore's eviction rule: the full scan the
/// store's eviction index replaced, kept here as the oracle.
class ReferenceStore {
 public:
  explicit ReferenceStore(size_t capacity) : capacity_(capacity) {}

  int WidestId() const {
    int widest = -1;
    double widest_width = -1.0;
    for (const auto& [id, entry] : entries_) {
      if (entry.second > widest_width ||
          (entry.second == widest_width && id > widest)) {
        widest = id;
        widest_width = entry.second;
      }
    }
    return widest;
  }

  EntryStore::OfferResult Offer(int id, const CachedApprox& approx,
                                double raw_width) {
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      it->second = {approx, raw_width};
      return {true, -1};
    }
    if (entries_.size() < capacity_) {
      entries_.emplace(id, std::make_pair(approx, raw_width));
      return {true, -1};
    }
    if (capacity_ == 0) return {false, -1};
    int widest = WidestId();
    if (raw_width >= entries_.at(widest).second) return {false, -1};
    entries_.erase(widest);
    entries_.emplace(id, std::make_pair(approx, raw_width));
    return {true, widest, /*evicted=*/true};
  }

  void Erase(int id) { entries_.erase(id); }

  const std::pair<CachedApprox, double>* Find(int id) const {
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
  }
  size_t size() const { return entries_.size(); }

 private:
  size_t capacity_;
  std::unordered_map<int, std::pair<CachedApprox, double>> entries_;
};

/// How the oracle test draws raw widths.
enum class WidthMix {
  kAllEqual,  // every width 1e-30: ties decide every eviction
  kFewLevels, // four distinct widths: frequent ties among many entries
  kSpread,    // continuous widths plus occasional 0 and +infinity
};

double DrawWidth(WidthMix mix, Rng& rng) {
  switch (mix) {
    case WidthMix::kAllEqual:
      return 1e-30;
    case WidthMix::kFewLevels:
      return 0.5 * static_cast<double>(1 << rng.UniformInt(0, 3));
    case WidthMix::kSpread: {
      double u = rng.Uniform(0.0, 1.0);
      if (u < 0.03) return 0.0;
      if (u < 0.06) return std::numeric_limits<double>::infinity();
      return rng.Uniform(0.0, 100.0);
    }
  }
  return 0.0;
}

// Seeded random OfferEx/Erase sequences against the brute-force scan:
// after every step the widest id, the offer outcome, every entry and every
// seqlock slot must agree. Covers χ = 0 and 1, ties, offers that tie the
// incumbent, and in-place re-offers that widen or narrow an entry.
TEST(EntryStoreTest, EvictionIndexMatchesFullScanOracle) {
  constexpr int kSteps = 3000;
  for (WidthMix mix :
       {WidthMix::kAllEqual, WidthMix::kFewLevels, WidthMix::kSpread}) {
    for (size_t capacity : {0, 1, 2, 3, 7, 64}) {
      for (uint64_t seed : {1, 2}) {
        SCOPED_TRACE(::testing::Message()
                     << "mix=" << static_cast<int>(mix) << " capacity="
                     << capacity << " seed=" << seed);
        // Ids span negative (sparse slot route) through 3χ + 4, so offers
        // hit cached ids (in place) and uncached ones (evict or reject).
        const int lo_id = -3;
        const int hi_id = static_cast<int>(3 * capacity) + 4;
        EntryStore store(capacity);
        ReferenceStore reference(capacity);
        for (int id = lo_id; id <= hi_id; ++id) {
          ASSERT_TRUE(store.RegisterSlot(id));
        }
        Rng rng(seed);
        for (int step = 0; step < kSteps; ++step) {
          int id = static_cast<int>(rng.UniformInt(lo_id, hi_id));
          double raw_width = DrawWidth(mix, rng);
          double u = rng.Uniform(0.0, 1.0);
          if (u < 0.1) {
            store.Erase(id);
            reference.Erase(id);
          } else {
            if (u < 0.2 && reference.WidestId() != -1) {
              // An offer that exactly ties the incumbent is rejected.
              raw_width = reference.Find(reference.WidestId())->second;
            }
            CachedApprox approx;
            approx.base = Interval(static_cast<double>(step),
                                   static_cast<double>(step) + 1.0);
            approx.refresh_time = step;
            EntryStore::OfferResult got = store.OfferEx(id, approx, raw_width);
            EntryStore::OfferResult want =
                reference.Offer(id, approx, raw_width);
            ASSERT_EQ(got.cached, want.cached) << "step " << step;
            ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
            ASSERT_EQ(got.evicted_id, want.evicted_id) << "step " << step;
          }
          ASSERT_EQ(store.WidestId(), reference.WidestId()) << "step " << step;
          ASSERT_EQ(store.size(), reference.size()) << "step " << step;
          for (int probe = lo_id; probe <= hi_id; ++probe) {
            const ProtocolEntry* entry = store.Find(probe);
            const auto* expected = reference.Find(probe);
            ASSERT_EQ(entry != nullptr, expected != nullptr)
                << "step " << step << " id " << probe;
            const VersionedSlot& slot =
                store.SlotAt(store.SlotIndexOf(probe));
            ASSERT_EQ(slot.cached.load(std::memory_order_relaxed),
                      expected != nullptr)
                << "step " << step << " id " << probe;
            if (expected == nullptr) continue;
            ASSERT_EQ(entry->raw_width, expected->second);
            ASSERT_EQ(entry->approx.refresh_time,
                      expected->first.refresh_time);
            ASSERT_EQ(slot.lo.load(std::memory_order_relaxed),
                      expected->first.base.lo());
            ASSERT_EQ(slot.refresh_time.load(std::memory_order_relaxed),
                      expected->first.refresh_time);
          }
        }
      }
    }
  }
}

/// Every (id, raw width, refresh time) ForEachEntry visits, keyed by id;
/// fails the test when an id is visited twice.
std::map<int, std::pair<double, int64_t>> VisitedEntries(
    const EntryStore& store) {
  std::map<int, std::pair<double, int64_t>> visited;
  store.ForEachEntry([&](int id, const ProtocolEntry& entry) {
    bool fresh = visited
                     .emplace(id, std::make_pair(entry.raw_width,
                                                 entry.approx.refresh_time))
                     .second;
    EXPECT_TRUE(fresh) << "id " << id << " visited twice";
  });
  return visited;
}

// Direct `Cache` users never register: an id gets its slot on its first
// cached offer — dense, negative and huge ids alike — and a rejected offer
// allocates nothing. The same seeded sequences as the oracle test above,
// without registration, checking after every step that ForEachEntry
// visits exactly the cached set.
TEST(EntryStoreTest, UnregisteredIdsMatchOracleAndForEachVisitsCachedSet) {
  constexpr int kSteps = 2000;
  constexpr int kHugeId = static_cast<int>(EntryStore::kDenseIdLimit) + 5;
  std::vector<int> ids;
  for (int id = -4; id <= 12; ++id) ids.push_back(id);
  for (int i = 0; i < 4; ++i) ids.push_back(kHugeId + i);
  for (WidthMix mix :
       {WidthMix::kAllEqual, WidthMix::kFewLevels, WidthMix::kSpread}) {
    for (size_t capacity : {0, 1, 3, 8}) {
      SCOPED_TRACE(::testing::Message() << "mix=" << static_cast<int>(mix)
                                        << " capacity=" << capacity);
      Cache store(capacity);
      ReferenceStore reference(capacity);
      std::vector<bool> ever_cached(ids.size(), false);
      Rng rng(11);
      for (int step = 0; step < kSteps; ++step) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1));
        const int id = ids[pick];
        double raw_width = DrawWidth(mix, rng);
        if (rng.Uniform(0.0, 1.0) < 0.15) {
          store.Erase(id);
          reference.Erase(id);
        } else {
          CachedApprox approx;
          approx.base = Interval(0.0, 1.0);
          approx.refresh_time = step;
          EntryStore::OfferResult got = store.OfferEx(id, approx, raw_width);
          EntryStore::OfferResult want =
              reference.Offer(id, approx, raw_width);
          ASSERT_EQ(got.cached, want.cached) << "step " << step;
          ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
          ASSERT_EQ(got.evicted_id, want.evicted_id) << "step " << step;
          if (got.cached) ever_cached[pick] = true;
        }
        ASSERT_EQ(store.WidestId(), reference.WidestId()) << "step " << step;
        ASSERT_EQ(store.size(), reference.size()) << "step " << step;
        std::map<int, std::pair<double, int64_t>> visited =
            VisitedEntries(store);
        ASSERT_EQ(visited.size(), reference.size()) << "step " << step;
        for (size_t i = 0; i < ids.size(); ++i) {
          const auto* expected = reference.Find(ids[i]);
          auto it = visited.find(ids[i]);
          ASSERT_EQ(it != visited.end(), expected != nullptr)
              << "step " << step << " id " << ids[i];
          ASSERT_EQ(store.Find(ids[i]) != nullptr, expected != nullptr);
          // A slot exists exactly for the ids some offer has cached.
          ASSERT_EQ(store.HasSlot(ids[i]), ever_cached[i])
              << "step " << step << " id " << ids[i];
          if (expected == nullptr) continue;
          ASSERT_EQ(it->second.first, expected->second);
          ASSERT_EQ(it->second.second, expected->first.refresh_time);
          const VersionedSlot& slot = store.SlotAt(store.SlotIndexOf(ids[i]));
          ASSERT_TRUE(slot.cached.load(std::memory_order_relaxed));
          ASSERT_EQ(slot.refresh_time.load(std::memory_order_relaxed),
                    expected->first.refresh_time);
        }
      }
    }
  }
}

// Registered ids keep their slots, in registration order, whatever is
// cached; ForEachEntry skips registered-but-uncached and evicted slots.
TEST(EntryStoreTest, ForEachEntrySkipsUncachedSlots) {
  EntryStore store(2);
  for (int id : {7, -2, 40}) ASSERT_TRUE(store.RegisterSlot(id));
  EXPECT_EQ(store.SlotIndexOf(7), 0u);
  EXPECT_EQ(store.SlotIndexOf(-2), 1u);
  EXPECT_EQ(store.SlotIndexOf(40), 2u);
  EXPECT_TRUE(VisitedEntries(store).empty());

  CachedApprox approx;
  approx.base = Interval(0.0, 1.0);
  store.Offer(7, approx, 4.0);
  store.Offer(-2, approx, 2.0);
  EntryStore::OfferResult result = store.OfferEx(40, approx, 1.0);
  EXPECT_TRUE(result.evicted);
  EXPECT_EQ(result.evicted_id, 7);
  auto visited = VisitedEntries(store);
  ASSERT_EQ(visited.size(), 2u);
  EXPECT_EQ(visited.count(-2), 1u);
  EXPECT_EQ(visited.count(40), 1u);
  store.Erase(-2);
  visited = VisitedEntries(store);
  ASSERT_EQ(visited.size(), 1u);
  EXPECT_EQ(visited.begin()->first, 40);
  EXPECT_EQ(store.num_slots(), 3u) << "evictions and erases keep slots";
  EXPECT_EQ(store.SlotIndexOf(7), 0u);
}

// Shard addresses its sources through the table's slot map, so a rejected
// duplicate must leave slot index == source index for every later source.
// Each source carries a distinct constant value, so any slot/source skew
// would read (and pull) another source's value.
TEST(ShardSlotTest, DuplicateAddSourceRejectedAndSlotsStayAligned) {
  auto constant_source = [](int id, double value) {
    return std::make_unique<Source>(
        id, std::make_unique<SeriesStream>(std::vector<double>{value}),
        std::make_unique<FixedWidthPolicy>(1.0));
  };
  SystemConfig config;
  Shard shard(/*index=*/0, config, /*capacity=*/4, /*seed=*/1,
              /*counters=*/nullptr);
  EXPECT_TRUE(shard.AddSource(constant_source(10, 100.0)));
  EXPECT_FALSE(shard.AddSource(constant_source(10, -1.0))) << "duplicate";
  EXPECT_FALSE(shard.AddSource(nullptr));
  EXPECT_TRUE(shard.AddSource(constant_source(-4, 200.0)));
  EXPECT_FALSE(shard.AddSource(constant_source(-4, -1.0))) << "duplicate";
  EXPECT_TRUE(shard.AddSource(constant_source(1 << 22, 300.0)));
  EXPECT_TRUE(shard.AddSource(constant_source(3, 400.0)));
  EXPECT_EQ(shard.num_sources(), 4u);

  shard.PopulateInitial(0);
  const std::pair<int, double> expected[] = {
      {10, 100.0}, {-4, 200.0}, {1 << 22, 300.0}, {3, 400.0}};
  for (const auto& [id, value] : expected) {
    EXPECT_TRUE(shard.Owns(id)) << "id " << id;
    EXPECT_EQ(shard.SourceValue(id), value) << "id " << id;
    EXPECT_EQ(shard.PullExact(id, 1), value) << "id " << id;
    EXPECT_EQ(shard.PointRead(id, 0.0, 2), Interval::Exact(value))
        << "id " << id;
  }
  EXPECT_FALSE(shard.Owns(11));
  EXPECT_TRUE(std::isnan(shard.SourceValue(11)));
}

TEST(ProtocolTableTest, ChargedButLostPushes) {
  // Loss probability 1: every push is dropped, yet Cvr is still charged —
  // the source paid for the message whether or not it arrived.
  ProtocolTable table(TableConfig(4, /*push_loss_probability=*/1.0),
                      /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ProtocolCell cell = MakeCell(0.0, DeterministicParams());
  table.costs().BeginMeasurement(0);

  ValueTickOutcome outcome = table.OnValueTick(0, cell, 5.0, 1);
  EXPECT_TRUE(outcome.refreshed);
  EXPECT_TRUE(outcome.lost);
  EXPECT_EQ(table.costs().value_refreshes(), 1);
  EXPECT_EQ(table.lost_pushes(), 1);
  EXPECT_EQ(table.Find(0), nullptr) << "the cache must never see the push";
  // The cell's own shipped interval DID advance: no resend until the value
  // escapes the new interval.
  EXPECT_FALSE(cell.NeedsValueRefresh(5.0, 1));
  EXPECT_EQ(table.OnValueTick(0, cell, 5.0, 2).refreshed, false);
}

TEST(ProtocolTableTest, ValueTickChargesOnlyOnEscape) {
  ProtocolTable table(TableConfig(4), /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ProtocolCell cell = MakeCell(0.0, DeterministicParams());
  table.costs().BeginMeasurement(0);
  table.OfferInitial(0, cell, 0.0, 0);
  EXPECT_EQ(table.costs().value_refreshes(), 0) << "initial ship is free";

  EXPECT_FALSE(table.OnValueTick(0, cell, 0.4, 1).refreshed)
      << "0.4 is inside [-0.5, 0.5]";
  EXPECT_TRUE(table.OnValueTick(0, cell, 0.6, 2).refreshed);
  EXPECT_EQ(table.costs().value_refreshes(), 1);
  ASSERT_NE(table.Find(0), nullptr);
  EXPECT_TRUE(table.Find(0)->approx.Valid(0.6, 2));
}

TEST(ProtocolTableTest, PullChargesAndReoffersEveryTime) {
  ProtocolTable table(TableConfig(4), /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ProtocolCell cell = MakeCell(1.0, DeterministicParams());
  table.costs().BeginMeasurement(0);

  // First pull: the value was never cached; the pull both charges Cqr and
  // installs the fresh approximation.
  EXPECT_DOUBLE_EQ(table.Pull(0, cell, 1.0, 1), 1.0);
  EXPECT_EQ(table.costs().query_refreshes(), 1);
  ASSERT_NE(table.Find(0), nullptr);
  double first_width = table.Find(0)->raw_width;
  EXPECT_DOUBLE_EQ(first_width, 0.5);  // deterministic halving

  // Every subsequent pull re-offers: the entry tracks the shrinking width.
  table.Pull(0, cell, 1.0, 2);
  EXPECT_EQ(table.costs().query_refreshes(), 2);
  EXPECT_DOUBLE_EQ(table.Find(0)->raw_width, 0.25);
}

TEST(ProtocolTableTest, EvictionUsesRawWidthsAndMirrorsSlots) {
  ProtocolTable table(TableConfig(1), /*seed=*/3);
  ASSERT_TRUE(table.Register(0));
  ASSERT_TRUE(table.Register(1));
  EXPECT_FALSE(table.Register(1)) << "duplicate registration rejected";

  AdaptivePolicyParams wide = DeterministicParams();
  wide.initial_width = 8.0;
  ProtocolCell wide_cell = MakeCell(0.0, wide);
  ProtocolCell narrow_cell = MakeCell(0.0, DeterministicParams());

  table.OfferInitial(0, wide_cell, 0.0, 0);
  ASSERT_NE(table.Find(0), nullptr);
  Interval seen;
  EXPECT_EQ(table.TryVisibleInterval(0, 0, &seen), SnapshotRead::kHit);
  EXPECT_EQ(seen, table.VisibleInterval(0, 0));

  // The narrower offer evicts id 0; both the store and the optimistic
  // read slots must agree.
  table.OfferInitial(1, narrow_cell, 0.0, 0);
  EXPECT_EQ(table.Find(0), nullptr);
  ASSERT_NE(table.Find(1), nullptr);
  EXPECT_EQ(table.TryVisibleInterval(0, 0, &seen), SnapshotRead::kMiss);
  EXPECT_TRUE(seen.IsUnbounded());
  EXPECT_EQ(table.TryVisibleInterval(1, 0, &seen), SnapshotRead::kHit);
  EXPECT_EQ(seen, table.VisibleInterval(1, 0));

  // An unregistered id reads as a definitive miss, never a tear.
  EXPECT_EQ(table.TryVisibleInterval(99, 0, &seen), SnapshotRead::kMiss);
  EXPECT_TRUE(seen.IsUnbounded());
}

// The slot slab's id -> index map is dense (a direct vector load) for
// small non-negative ids and falls back to a hash map for negative or
// huge ids; both routes must serve identical seqlock reads.
TEST(EntryStoreTest, SlabServesDenseAndSparseIds) {
  constexpr int kHugeId = 1 << 21;  // beyond the dense-map limit
  EntryStore store(4);
  ASSERT_TRUE(store.RegisterSlot(3));        // dense route
  ASSERT_TRUE(store.RegisterSlot(kHugeId));  // sparse route: huge
  ASSERT_TRUE(store.RegisterSlot(-7));       // sparse route: negative
  EXPECT_FALSE(store.RegisterSlot(3));       // duplicates rejected
  EXPECT_EQ(store.num_slots(), 3u);
  for (int id : {3, kHugeId, -7}) {
    EXPECT_TRUE(store.HasSlot(id));
    EXPECT_NE(store.SlotIndexOf(id), EntryStore::kNoSlot);
  }
  EXPECT_EQ(store.SlotIndexOf(12345), EntryStore::kNoSlot);
  EXPECT_EQ(store.SlotIndexOf(-1), EntryStore::kNoSlot);
  EXPECT_EQ(store.SlotIndexOf(kHugeId + 1), EntryStore::kNoSlot);
}

// The optimistic read must serve dense, huge, and negative ids alike: the
// dense id takes the direct vector load, the other two the hash fallback,
// and all three hit the same contiguous slab.
TEST(ProtocolTableTest, OptimisticReadServesDenseAndSparseIds) {
  constexpr int kHugeId = 1 << 21;
  ProtocolTable table(TableConfig(4), /*seed=*/3);
  ASSERT_TRUE(table.Register(3));
  ASSERT_TRUE(table.Register(kHugeId));
  ASSERT_TRUE(table.Register(-7));

  CachedApprox approx;
  approx.base = Interval(1.0, 2.0);
  for (int id : {3, kHugeId, -7}) {
    Interval visible;
    EXPECT_EQ(table.TryVisibleInterval(id, /*now=*/0, &visible),
              SnapshotRead::kMiss)
        << "uncached id " << id << " must read as a definitive miss";
    table.OfferDerivedInitial(id, approx, 1.0);
    ASSERT_EQ(table.TryVisibleInterval(id, /*now=*/0, &visible),
              SnapshotRead::kHit)
        << "slab read failed for id " << id;
    EXPECT_EQ(visible, table.VisibleInterval(id, /*now=*/0));
  }
  Interval out;
  EXPECT_EQ(table.TryVisibleInterval(12345, 0, &out), SnapshotRead::kMiss);
  EXPECT_EQ(table.TryVisibleInterval(-1, 0, &out), SnapshotRead::kMiss);
}

TEST(ProtocolTableTest, OptimisticReadMatchesAuthoritativeOverTime) {
  ProtocolTable table(TableConfig(2), /*seed=*/3);
  ASSERT_TRUE(table.Register(5));
  ProtocolCell cell(std::make_unique<FixedWidthPolicy>(1.0), 2.0);
  table.OfferInitial(5, cell, 2.0, 0);
  // The optimistic read reconstructs the CachedApprox (including its
  // time-evolution fields) from the versioned slot; it must agree with
  // the authoritative locked read at every time.
  for (int64_t now : {0, 3, 10}) {
    Interval optimistic;
    ASSERT_EQ(table.TryVisibleInterval(5, now, &optimistic),
              SnapshotRead::kHit);
    EXPECT_EQ(optimistic, table.VisibleInterval(5, now));
  }
}

}  // namespace
}  // namespace apc
