// ParallelSet — the adoptable front door to the runtime treap operations.
//
// A sorted set of int64 keys supporting *batch* mutation: each batch is one
// parallel treap union / difference / intersection (Sections 3.2–3.3 of the
// paper) executed on the coroutine futures runtime, rather than m
// sequential updates.
//
// Batches are **asynchronous and pipelined across operations**: a mutator
// chains its treap op onto the current root cell — which may still be
// materializing — and returns immediately. Successive batches overlap
// exactly as `union(union(t, b1), b2)` does inside the paper's algorithms:
// the second union descends into the first one's output while it is still
// being written. Quiescence is explicit (`flush()`) or implied by the
// whole-tree reads (`size()` when stale, `keys()`, `height()`); point reads
// (`contains`) force only the cells along their search path, so they run
// concurrently with in-flight batches and see the newest root published
// before they started.
//
// Thread contract: one mutator thread at a time (batches chain through a
// single root, like any sequential API); any number of concurrent reader
// threads may call `contains`, `keys`, `height` and `size` while batches
// are in flight. `compact()` may run concurrently with readers: reads
// announce themselves through a seq_cst reader count before loading the
// root, and compact publishes the fresh root before spinning the count down
// to zero — so a reader either sees the new root or finishes on the old
// store before it is freed (docs/service.md).
//
// The set borrows a Scheduler (one scheduler per process may be alive; see
// runtime/scheduler.hpp) and owns its node storage.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/rt_async.hpp"
#include "runtime/rt_treap.hpp"
#include "runtime/scheduler.hpp"

namespace pwf::rt {

// SetSnapshot — an immutable, epoch-pinned view of a ParallelSet.
//
// Obtained from ParallelSet::snapshot(); holds a shared_ptr to the store of
// the epoch it was taken in, so the nodes stay alive across any number of
// subsequent compact() calls (refcounted epoch retirement). Reads are
// lock-free: no reader count, no mutex — the root cell is fixed and every
// reachable cell is written exactly once, so traversal is wait_blocking on
// cells at most (pipelining with a still-materializing batch chained before
// the snapshot) and plain loads afterwards.
class SetSnapshot {
 public:
  using Key = treap::Key;

  // Forces only the cells along the search path.
  bool contains(Key k) const;

  std::size_t size() const;       // forces the whole pinned tree
  std::vector<Key> keys() const;  // in order; forces the whole pinned tree

 private:
  friend class ParallelSet;

  SetSnapshot(std::shared_ptr<const treap::Store> store,
              std::vector<std::shared_ptr<const treap::Store>> merged,
              treap::Cell* root)
      : store_(std::move(store)), merged_(std::move(merged)), root_(root) {}

  std::shared_ptr<const treap::Store> store_;  // pins the epoch's arena
  // Stores of shards absorbed by adaptive merges: the pinned tree can still
  // reference their nodes until the facade's next compact() rebuild.
  std::vector<std::shared_ptr<const treap::Store>> merged_;
  treap::Cell* root_;
};

class ParallelSet {
 public:
  using Key = treap::Key;

  // Service-layer observability (relaxed counters, like Scheduler::Stats).
  struct Stats {
    std::uint64_t batches = 0;      // batch mutators issued
    std::uint64_t overlapped = 0;   // issued while the root was still materializing
    std::uint64_t max_pending = 0;  // high-water mark of unflushed batches
    std::uint64_t flushes = 0;      // quiescence points (explicit + implied)
    std::uint64_t epochs = 0;       // compactions (store replacements)
    std::uint64_t arena_bytes = 0;  // current store footprint
  };

  // Software cache-economy of the current snapshot (docs/storage.md):
  // storage composition plus arena footprint, for the E19/E24 columns.
  struct CacheEconomy {
    std::uint64_t internal_nodes = 0;  // one cache line each
    std::uint64_t leaf_chunks = 0;     // flat sorted key runs
    std::uint64_t leaf_keys = 0;       // keys living inside chunks
    std::uint64_t leaf_ops = 0;        // chunk merges/splits on this store
    std::uint64_t arena_bytes = 0;     // store footprint
    std::uint64_t wasted_padding = 0;  // arena alignment + dead-tail waste
  };

  explicit ParallelSet(Scheduler& sched,
                       std::uint64_t salt = 0x9e3779b97f4a7c15ULL,
                       std::size_t leaf_cap =
                           pipelined::treap::kDefaultLeafCapacity);

  // Initial contents (cheaper than insert_batch on an empty set).
  ParallelSet(Scheduler& sched, std::span<const Key> keys,
              std::uint64_t salt = 0x9e3779b97f4a7c15ULL,
              std::size_t leaf_cap = pipelined::treap::kDefaultLeafCapacity);

  ParallelSet(const ParallelSet&) = delete;
  ParallelSet& operator=(const ParallelSet&) = delete;

  // Waits for frame-pool quiescence: fibers of a chained batch may outlive
  // the last written cell of the result tree (their outputs simply aren't
  // part of it) and they read this set's arena until they finish. Skipped
  // when no Scheduler is alive — nothing could drain the frames, so waiting
  // would hang (fibers still queued at scheduler shutdown were dropped).
  ~ParallelSet();

  // Batch mutators — one pipelined set operation each, chained onto the
  // (possibly still-materializing) root; they return without joining.
  // Duplicates within the batch and against the set are handled (set
  // semantics). Unsorted input is fine; it is sorted internally.
  void insert_batch(std::span<const Key> keys);  // set = set ∪ keys
  void erase_batch(std::span<const Key> keys);   // set = set \ keys
  void retain_batch(std::span<const Key> keys);  // set = set ∩ keys

  // Quiescence point: blocks until every pending batch has fully
  // materialized, and refreshes the cached size.
  void flush() const { force_recount(); }

  // Async quiescence — the server-side flush: spawns a fiber that
  // co_awaits every cell of the current epoch-pinned tree and then writes
  // `done`, so a server fiber can await quiescence without blocking its
  // worker thread (docs/service.md). Observational only: counts a flush
  // but leaves pending/size accounting to the blocking paths.
  void on_flush(FutCell<int>& done) const;

  // The epoch pin the async walks travel with (rt_async.hpp); O(1).
  rtasync::Pinned<treap::Store, treap::Cell> pinned() const;

  // Quiescence + storage epoch: rebuilds the set into a fresh chunked store
  // and frees every node superseded by past batches (the arena is
  // monotonic, so a long-lived service must compact periodically). Safe
  // against concurrent readers: the old store is freed only after the
  // reader count drains (see the thread contract above). Still a mutator —
  // one at a time, not concurrent with batch calls.
  void compact();

  // Pins the current epoch and root into an immutable lock-free view. May
  // be called from any reader thread; the returned snapshot stays valid
  // (and its reads race-free) across later batches and compactions — the
  // pinned store is retired only when the last snapshot holding it drops.
  SetSnapshot snapshot() const;

  // Forces only the cells along the search path (paper-style: a consumer
  // descends into a tree whose producer may still be writing it).
  bool contains(Key k) const;

  std::size_t size() const;  // lazily maintained; recounts only when stale
  bool empty() const { return size() == 0; }
  std::vector<Key> keys() const;  // in order; forces the whole snapshot

  // Range reads over keys in [lo, hi]: force only the subtrees that overlap
  // the range. The sharded facade reads each shard through these, over the
  // range its pinned routing table assigns the shard (docs/service.md).
  std::vector<Key> keys(Key lo, Key hi) const;  // in order
  std::size_t count(Key lo, Key hi) const;
  int height() const;             // forces the whole snapshot

  Stats stats() const;
  CacheEconomy cache_economy() const;  // forces the whole snapshot

  // ---- adaptive-sharding rebalance protocol (docs/service.md) ------------
  //
  // Mutator-class calls used by the sharded facades' contention-adaptive
  // rebalancer. Both halves of a split and a merge are pipelined treap ops
  // chained like any batch: they return immediately and materialize on the
  // scheduler, overlapping in-flight batches.

  // Phase 1 of a split: forks a pipelined split at `pivot` and returns a
  // new set owning the keys >= pivot (sharing this set's store and salt, so
  // node priorities stay consistent across future joins). This set keeps
  // answering from the *full* pre-split tree until complete_split() installs
  // the < pivot root — the caller republishes its routing table in between,
  // so no reader routed by the old table can miss a key.
  std::unique_ptr<ParallelSet> split_off(Key pivot);
  // Phase 2: publish the keys-below-pivot root computed by split_off().
  void complete_split();

  // Concatenates `right` — every key of which must be >= every key of this
  // set (adjacent shard ranges) — onto this pipeline with a pipelined join.
  // `right` becomes an absorbed husk: its store is kept alive by this set
  // until the next compact(), its counters fold into this set's, and its
  // destructor skips quiescence (this pipeline owns the in-flight work now).
  // The caller destroys the husk once no reader can still route to it.
  void absorb(ParallelSet& right);

  // Unflushed batch depth of this pipeline (adaptive facade heat stats).
  std::uint64_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

 private:
  // Shares an existing store: the >= pivot half made by split_off().
  ParallelSet(Scheduler& sched, std::shared_ptr<treap::Store> store,
              treap::Cell* root, std::uint64_t salt, std::size_t leaf_cap);
  // Builds a treap over a batch (sorted + deduplicated copy).
  treap::Cell* build_batch(std::span<const Key> keys);
  // Publishes `next` as the new root and maintains the pending/overlap
  // accounting shared by all three mutators.
  void chain(treap::Cell* next);
  // The pending bookkeeping of chain() without the root publish —
  // rebalance ops account here (they are pipeline work, not batches).
  void account_chain();
  // Publishes `next` as the root and marks the size cache stale, atomically
  // with respect to force_recount's cache update.
  void publish_root(treap::Cell* next, std::memory_order order);
  // Blocks until the tree under the current root is fully written and
  // returns its key count; caches it in size_ unless the root moved
  // meanwhile. const: logically a read (all mutable state is
  // cache/accounting).
  std::size_t force_recount() const;

  Scheduler& sched_;
  std::uint64_t salt_;
  std::size_t leaf_cap_;
  // Replaced wholesale by compact(); shared so snapshots can pin an epoch.
  std::shared_ptr<treap::Store> store_;
  // Stores of shards this set absorbed: the live tree references their
  // nodes until compact() rebuilds into a fresh arena. Guarded by snap_mu_
  // (stats()/snapshot() read it while the mutator appends).
  std::vector<std::shared_ptr<const treap::Store>> keep_alive_;
  // The < pivot root between split_off() and complete_split().
  treap::Cell* split_pending_ = nullptr;
  // Set by absorb() on the absorbed husk: its in-flight work now belongs to
  // the surviving pipeline, so the destructor must not wait for it.
  bool released_ = false;
  std::atomic<treap::Cell*> root_;

  // Pairs (store_, root_) for snapshot() against compact()'s swap. Never
  // held while waiting on cells, so snapshot() is O(1).
  mutable std::mutex snap_mu_;

  // Readers in flight (seq_cst Dekker pair with compact()'s root publish).
  mutable std::atomic<std::uint64_t> active_readers_{0};

  mutable std::atomic<std::size_t> size_{0};
  mutable std::atomic<bool> size_valid_{true};
  // Orders root publishes against recounts' cache updates.
  mutable std::mutex size_mu_;
  mutable std::atomic<std::uint64_t> pending_{0};
  mutable std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> overlapped_{0};
  std::atomic<std::uint64_t> max_pending_{0};
  std::atomic<std::uint64_t> epochs_{0};
};

}  // namespace pwf::rt
