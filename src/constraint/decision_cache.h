#ifndef CQLOPT_CONSTRAINT_DECISION_CACHE_H_
#define CQLOPT_CONSTRAINT_DECISION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace cqlopt {

/// Process-wide memo table for boolean constraint decisions — the answers
/// of fm::IsSatisfiable, fm::ImpliesAtom, and Implies(Conjunction,
/// Conjunction) keyed by the fingerprints of their inputs
/// (constraint/fingerprint.h).
///
/// Why process-wide rather than per-evaluation: the same conjunctions recur
/// across rule applications, across fixpoint iterations, across the
/// subsumption checks of reconciliation, and across the Gen_*_constraints
/// transform fixpoints — and the decision procedures are pure, so an answer
/// computed anywhere is valid everywhere. Campagna et al. and Greco et al.
/// both identify exactly this redundancy as the dominant cost of bottom-up
/// CLP evaluation.
///
/// Concurrency: the table is sharded by key; each shard is guarded by its
/// own mutex, so queries evaluating concurrently on the scheduler's workers
/// (service/scheduler.h) share hits without serializing on one lock.
/// Counters are relaxed atomics.
///
/// Bounding: each shard holds at most kMaxEntriesPerShard entries; an
/// insert into a full shard clears that shard first (wholesale eviction —
/// entries are single bytes keyed by uint64, so tracking recency would cost
/// more than recomputing the evicted decisions). Evicted entry counts are
/// reported so benches can see thrash.
class DecisionCache {
 public:
  static constexpr int kShardCount = 16;
  static constexpr size_t kMaxEntriesPerShard = 1u << 15;

  /// Monotonic counter snapshot (entries is a point-in-time gauge).
  struct Counters {
    long hits = 0;
    long misses = 0;
    long evictions = 0;
    long entries = 0;
  };

  static DecisionCache& Instance();

  /// When disabled, Lookup always misses (without counting) and Store is a
  /// no-op — every decision is recomputed. Used by the cache-equivalence
  /// tests and the bench ablation arms.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  std::optional<bool> Lookup(uint64_t key);
  void Store(uint64_t key, bool value);

  /// Entries a shard may hold before Store evicts it wholesale. Defaults to
  /// kMaxEntriesPerShard; tests override it (capacity 1 turns every insert
  /// into an eviction, the worst-case thrash the cache-equivalence property
  /// pins byte-identical results under).
  size_t capacity_per_shard() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  void set_capacity_per_shard_for_testing(size_t n) {
    capacity_.store(n == 0 ? kMaxEntriesPerShard : n,
                    std::memory_order_relaxed);
  }

  Counters Snapshot() const;

  /// Drops all entries (counters keep accumulating). Tests only.
  void Clear();

 private:
  DecisionCache() = default;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, bool> map;
  };

  static size_t ShardOf(uint64_t key) {
    // The fingerprints are already well mixed; fold the high bits so shard
    // choice is independent of the map's own bucket choice (low bits).
    return static_cast<size_t>((key >> 48) ^ (key >> 32)) %
           static_cast<size_t>(kShardCount);
  }

  Shard shards_[kShardCount];
  std::atomic<size_t> capacity_{kMaxEntriesPerShard};
  std::atomic<long> hits_{0};
  std::atomic<long> misses_{0};
  std::atomic<long> evictions_{0};
  std::atomic<bool> enabled_{true};
};

/// RAII guard disabling the decision cache in a scope (tests, ablations).
class DecisionCacheDisabler {
 public:
  DecisionCacheDisabler()
      : was_enabled_(DecisionCache::Instance().enabled()) {
    DecisionCache::Instance().set_enabled(false);
  }
  ~DecisionCacheDisabler() {
    DecisionCache::Instance().set_enabled(was_enabled_);
  }
  DecisionCacheDisabler(const DecisionCacheDisabler&) = delete;
  DecisionCacheDisabler& operator=(const DecisionCacheDisabler&) = delete;

 private:
  bool was_enabled_;
};

/// RAII guard pinning the per-shard capacity in a scope (tests). Clears the
/// cache on entry and exit so no run observes entries stored under the
/// other capacity regime.
class DecisionCacheCapacityOverride {
 public:
  explicit DecisionCacheCapacityOverride(size_t capacity) {
    DecisionCache::Instance().Clear();
    DecisionCache::Instance().set_capacity_per_shard_for_testing(capacity);
  }
  ~DecisionCacheCapacityOverride() {
    DecisionCache::Instance().set_capacity_per_shard_for_testing(0);
    DecisionCache::Instance().Clear();
  }
  DecisionCacheCapacityOverride(const DecisionCacheCapacityOverride&) = delete;
  DecisionCacheCapacityOverride& operator=(
      const DecisionCacheCapacityOverride&) = delete;
};

}  // namespace cqlopt

#endif  // CQLOPT_CONSTRAINT_DECISION_CACHE_H_
