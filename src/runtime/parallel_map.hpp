// ParallelMap<V, A> — batch-updatable key→value map over the runtime treap
// maps (rt_map.hpp). The aggregation counterpart of ParallelSet: each
// insert_batch is one pipelined union whose value-merge function resolves
// key collisions (sum for counters, last-writer-wins for stores, ...).
//
// The optional second parameter A is a PAM-style augmentation policy (an
// AugOps type like pipelined::treap::SumAug<V>; void = unaugmented). With
// an augmentation, every node and leaf chunk maintains A::combine over its
// subtree, `aggregate(lo, hi)` answers range queries forcing only O(lg n)
// cells, and snapshots aggregate too (docs/augmentation.md).
//
// Like ParallelSet, batches are asynchronous and pipelined across
// operations: mutators chain their treap op onto the (possibly still
// materializing) root cell and return immediately; `flush()` is the
// explicit quiescence point, `size()` recounts lazily, and `get()` forces
// only the cells along its search path. One mutator thread at a time; any
// number of concurrent readers (`get`/`contains`/`items`). `compact()` is
// safe against concurrent readers (same seq_cst reader-count protocol as
// ParallelSet). See docs/service.md for the full contract.
//
// `snapshot()` returns an immutable, epoch-pinned view (MapSnapshot):
// readers traverse and aggregate it lock-free — no reader count, no lock —
// while the pipeline keeps writing new batches, and the pinned store
// outlives any number of compact() calls via refcounted epoch retirement
// (the snapshot holds a shared_ptr to its store; compact() only drops the
// map's own reference).
//
// V must be trivially copyable and default constructible (values travel
// through future cells and arena nodes, like every value in the paper's
// model).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/rt_async.hpp"
#include "runtime/rt_map.hpp"
#include "runtime/scheduler.hpp"
#include "support/check.hpp"

#if PWF_ANALYZE
#include "analyze/rt_recorder.hpp"
#endif

namespace pwf::rt {

template <typename V, typename A>
class ParallelMap;

// MapSnapshot<V, A> — an immutable, epoch-pinned view of a ParallelMap.
//
// Obtained from ParallelMap::snapshot(); holds a shared_ptr to the store of
// the epoch it was taken in, so the nodes stay alive across any number of
// subsequent compact() calls (refcounted epoch retirement). Reads are
// lock-free: no reader count, no mutex — the root cell is fixed and every
// reachable cell is written exactly once, so traversal is wait_blocking on
// cells at most (pipelining with a still-materializing batch) and plain
// loads afterwards. Copyable and cheap to pass around (two words + a
// refcount bump).
template <typename V, typename A = void>
class MapSnapshot {
 public:
  using Key = map::Key;
  using Item = std::pair<Key, V>;

  // Forces only the search path (pipelines with in-flight batches that were
  // chained before the snapshot was taken).
  std::optional<V> get(Key k) const { return map::lookup_wait(root_, k); }
  bool contains(Key k) const { return get(k).has_value(); }

  std::size_t size() const { return map::wait_count(root_); }

  std::vector<Item> items() const { return map::wait_items(root_); }

  // Range aggregate over keys in [lo, hi]: O(lg n) forced cells, combine in
  // key order. Augmented instantiations only.
  auto aggregate(Key lo, Key hi) const
    requires(!std::is_void_v<A>)
  {
    return map::aggregate_wait(root_, lo, hi);
  }

 private:
  friend class ParallelMap<V, A>;

  MapSnapshot(std::shared_ptr<const map::Store<V, A>> store,
              std::vector<std::shared_ptr<const map::Store<V, A>>> merged,
              map::Cell<V, A>* root)
      : store_(std::move(store)), merged_(std::move(merged)), root_(root) {}

  std::shared_ptr<const map::Store<V, A>> store_;  // pins the epoch's arena
  // Stores of shards absorbed by adaptive merges — the pinned tree can
  // still reference their nodes until the facade's next compact() rebuild.
  std::vector<std::shared_ptr<const map::Store<V, A>>> merged_;
  map::Cell<V, A>* root_;
};

template <typename V, typename A = void>
class ParallelMap {
 public:
  using Key = map::Key;
  using Item = std::pair<Key, V>;

  // Same shape as ParallelSet::Stats (service observability).
  struct Stats {
    std::uint64_t batches = 0;
    std::uint64_t overlapped = 0;
    std::uint64_t max_pending = 0;
    std::uint64_t flushes = 0;
    std::uint64_t epochs = 0;
    std::uint64_t arena_bytes = 0;
  };

  // Storage composition of the current snapshot (docs/storage.md).
  struct CacheEconomy {
    std::uint64_t internal_nodes = 0;
    std::uint64_t leaf_chunks = 0;
    std::uint64_t leaf_keys = 0;
    std::uint64_t leaf_ops = 0;  // chunk merges/splits on this store
    std::uint64_t arena_bytes = 0;
    std::uint64_t wasted_padding = 0;
  };

  explicit ParallelMap(Scheduler& sched,
                       std::uint64_t salt = 0x9e3779b97f4a7c15ULL,
                       std::size_t leaf_cap = map::kDefaultLeafCapacity)
      : sched_(sched),
        salt_(salt),
        leaf_cap_(leaf_cap),
        store_(std::make_shared<map::Store<V, A>>(salt, leaf_cap)),
        root_(store_->input(nullptr)) {}

  ParallelMap(const ParallelMap&) = delete;
  ParallelMap& operator=(const ParallelMap&) = delete;

  // Fibers of a chained batch may still be running (or parked) after every
  // cell of the result tree is written — their outputs just aren't part of
  // the final tree. They still read this map's arena, so the store can only
  // be freed once the frame pool reports no live frames. After ~Scheduler no
  // worker can drain them, so waiting would hang forever (any fiber still
  // queued at shutdown was dropped); the map is torn down as-is.
  ~ParallelMap() {
    // An absorbed husk's pipeline belongs to the surviving shard (see
    // absorb()); its pending accounting was already transferred.
    if (released_) return;
    if (Scheduler::current() != nullptr) FramePool::wait_quiescent();
#if PWF_ANALYZE
    analyze::note_pipeline_flushed(
        pending_.exchange(0, std::memory_order_relaxed));
#endif
  }

  // map = map ∪ items, duplicate keys resolved by merge(old, new). Items
  // need not be sorted; duplicate keys *within* the batch are pre-merged
  // with the same function. Returns without joining the union.
  template <typename Merge>
  void insert_batch(std::span<const Item> items, Merge merge) {
    if (items.empty()) return;
    std::vector<Item> sorted(items.begin(), items.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const Item& x, const Item& y) { return x.first < y.first; });
    std::vector<Item> dedup;
    for (const Item& it : sorted) {
      if (!dedup.empty() && dedup.back().first == it.first)
        dedup.back().second = merge(dedup.back().second, it.second);
      else
        dedup.push_back(it);
    }
    map::Cell<V, A>* batch = store_->input(store_->build(dedup));
    map::Cell<V, A>* cur = root_.load(std::memory_order_acquire);
    if (!cur->written()) overlapped_.fetch_add(1, std::memory_order_relaxed);
    chain(map::union_maps(*store_, cur, batch, merge));
  }

  // Overwrite semantics (new value wins).
  void assign_batch(std::span<const Item> items) {
    insert_batch(items, [](const V&, const V& incoming) { return incoming; });
  }

  // Remove a batch of keys.
  void erase_batch(std::span<const Key> keys) {
    if (keys.empty()) return;
    std::vector<Key> sorted(keys.begin(), keys.end());
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    std::vector<Item> items;
    items.reserve(sorted.size());
    for (Key k : sorted) items.emplace_back(k, V{});
    map::Cell<V, A>* batch = store_->input(store_->build(items));
    map::Cell<V, A>* cur = root_.load(std::memory_order_acquire);
    if (!cur->written()) overlapped_.fetch_add(1, std::memory_order_relaxed);
    chain(map::diff_maps(*store_, cur, batch));
  }

  // Quiescence point: blocks until every pending batch has materialized.
  void flush() const { force_recount(); }

  // Async quiescence — the server-side flush (docs/service.md): spawns a
  // fiber that co_awaits every cell of the current epoch-pinned tree and
  // then writes `done`. A server fiber `co_await done` instead of calling
  // flush(), so no worker thread is blocked while batches materialize.
  // Purely observational: counts a flush, but leaves the pending/size
  // accounting to the blocking paths — `done` certifies everything chained
  // before this call; batches chained after it are not covered.
  void on_flush(FutCell<int>& done) const {
    std::vector<rtasync::Pinned<map::Store<V, A>, map::Cell<V, A>>> pins(1);
    pins[0] = pinned();
    spawn(rtasync::quiesce_fiber(std::move(pins), &done));
    flushes_.fetch_add(1, std::memory_order_relaxed);
  }

  // Async point read: forces only the O(lg n) search-path cells with a
  // parked fiber and writes the Probe into `out` (E27's pipelined reply
  // path). Pipelines with in-flight batches like get(), without blocking.
  void probe_into(Key k, FutCell<rtasync::Probe<V>>& out) const {
    spawn(rtasync::probe_fiber(pinned(), k, &out));
  }

  // The epoch pin the async walks travel with — also how the sharded
  // facade quiesces every shard under one fiber. O(1), like snapshot().
  rtasync::Pinned<map::Store<V, A>, map::Cell<V, A>> pinned() const {
    rtasync::Pinned<map::Store<V, A>, map::Cell<V, A>> p;
    std::lock_guard<std::mutex> lk(snap_mu_);
    p.store = store_;
    p.merged = keep_alive_;
    p.root = root_.load(std::memory_order_seq_cst);
    return p;
  }

  // Quiescence + storage epoch (see ParallelSet::compact): publishes the
  // fresh chunked root seq_cst, then drains the reader count before
  // releasing the old store. The (store_, root_) pair is swapped under
  // snap_mu_ so snapshot() never pairs a root with the wrong epoch's store;
  // the old epoch's arena is freed here unless a live MapSnapshot still
  // pins it (refcounted retirement).
  void compact() {
    // Forces every pending batch, then copies the finished tree's entries
    // straight into the fresh store (treap_walk.hpp rebuild: O(n), no sort).
    map::Cell<V, A>* cur = root_.load(std::memory_order_acquire);
    const std::size_t n = map::wait_count(cur);
    auto fresh = std::make_shared<map::Store<V, A>>(salt_, leaf_cap_);
    map::Cell<V, A>* next = fresh->input(
        pipelined::treap::rebuild(*fresh, cur, n, map::detail::kWait));
    FramePool::wait_quiescent();  // stragglers still read the old arena
    std::shared_ptr<map::Store<V, A>> old;
    std::vector<std::shared_ptr<const map::Store<V, A>>> merged;
    {
      std::lock_guard<std::mutex> lk(snap_mu_);
      publish_root(next, std::memory_order_seq_cst);
      old = std::exchange(store_, std::move(fresh));
      merged = std::move(keep_alive_);
      keep_alive_.clear();
    }
    while (active_readers_.load(std::memory_order_seq_cst) != 0)
      std::this_thread::yield();
    old.reset();
    merged.clear();  // arenas of absorbed shards retire with the epoch
    {
      std::lock_guard<std::mutex> lk(size_mu_);
      size_.store(n, std::memory_order_release);
      size_valid_.store(true, std::memory_order_release);
    }
#if PWF_ANALYZE
    analyze::note_pipeline_flushed(
        pending_.exchange(0, std::memory_order_relaxed));
#else
    pending_.store(0, std::memory_order_relaxed);
#endif
    epochs_.fetch_add(1, std::memory_order_relaxed);
  }

  // Pins the current epoch and root into an immutable lock-free view. May
  // be called from any reader thread; the returned snapshot stays valid
  // (and its reads race-free) across later batches and compactions.
  MapSnapshot<V, A> snapshot() const {
    std::lock_guard<std::mutex> lk(snap_mu_);
    return MapSnapshot<V, A>(store_, keep_alive_,
                             root_.load(std::memory_order_seq_cst));
  }

  // Range aggregate over keys in [lo, hi] on the live root: O(lg n) forced
  // cells, combine applied in key order. Augmented instantiations only.
  auto aggregate(Key lo, Key hi) const
    requires(!std::is_void_v<A>)
  {
    ReadGuard guard(active_readers_);
    return map::aggregate_wait(root_.load(std::memory_order_seq_cst), lo, hi);
  }

  // Forces only the search path; safe concurrently with in-flight batches.
  std::optional<V> get(Key k) const {
    ReadGuard guard(active_readers_);
    return map::lookup_wait(root_.load(std::memory_order_seq_cst), k);
  }
  bool contains(Key k) const { return get(k).has_value(); }

  std::size_t size() const {
    if (!size_valid_.load(std::memory_order_acquire)) return force_recount();
    return size_.load(std::memory_order_acquire);
  }
  bool empty() const { return size() == 0; }

  std::vector<Item> items() const {  // forces the whole snapshot
    return items(std::numeric_limits<Key>::min(),
                 std::numeric_limits<Key>::max());
  }

  // Range reads over keys in [lo, hi]: force only the subtrees that overlap
  // the range. The sharded facade reads each shard through these, over the
  // range its pinned routing table assigns the shard (docs/service.md).
  std::vector<Item> items(Key lo, Key hi) const {  // in key order
    ReadGuard guard(active_readers_);
    std::vector<Item> out;
    pipelined::treap::visit_entries(
        root_.load(std::memory_order_seq_cst), lo, hi, map::detail::kWait,
        [&](const auto& e) { out.emplace_back(e.key, e.value); });
    return out;
  }
  std::size_t count(Key lo, Key hi) const {
    ReadGuard guard(active_readers_);
    return pipelined::treap::count_keys(root_.load(std::memory_order_seq_cst),
                                        lo, hi, map::detail::kWait);
  }

  Stats stats() const {
    Stats s;
    s.batches = batches_.load(std::memory_order_relaxed);
    s.overlapped = overlapped_.load(std::memory_order_relaxed);
    s.max_pending = max_pending_.load(std::memory_order_relaxed);
    s.flushes = flushes_.load(std::memory_order_relaxed);
    s.epochs = epochs_.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(snap_mu_);
      s.arena_bytes = store_->bytes_used();
      for (const auto& ka : keep_alive_) s.arena_bytes += ka->bytes_used();
    }
    return s;
  }

  CacheEconomy cache_economy() const {  // forces the whole snapshot
    ReadGuard guard(active_readers_);
    const map::CacheEconomy ce =
        map::cache_economy(root_.load(std::memory_order_seq_cst));
    CacheEconomy out;
    out.internal_nodes = ce.internal_nodes;
    out.leaf_chunks = ce.leaf_chunks;
    out.leaf_keys = ce.leaf_keys;
    out.leaf_ops = store_->leaf_ops();
    out.arena_bytes = store_->bytes_used();
    out.wasted_padding = store_->wasted_padding();
    return out;
  }

  // ---- adaptive-sharding rebalance protocol --------------------------------
  // Identical to ParallelSet's (see parallel_set.hpp for the two-phase
  // split / husk-absorbing merge contract); docs/service.md has the story.

  std::unique_ptr<ParallelMap> split_off(Key pivot) {
    PWF_CHECK_MSG(split_pending_ == nullptr,
                  "split_off before the previous split completed");
    map::Cell<V, A>* cur = root_.load(std::memory_order_acquire);
    map::Cell<V, A>* less = store_->cell();
    map::Cell<V, A>* geq = store_->cell();
    map::split_maps(*store_, cur, pivot, less, geq);
    auto right = std::unique_ptr<ParallelMap>(
        new ParallelMap(sched_, store_, geq, salt_, leaf_cap_));
    {
      std::lock_guard<std::mutex> lk(snap_mu_);
      right->keep_alive_ = keep_alive_;
    }
    right->account_chain();
    split_pending_ = less;
    return right;
  }

  void complete_split() {
    PWF_CHECK_MSG(split_pending_ != nullptr,
                  "complete_split without a pending split_off");
    account_chain();
    std::lock_guard<std::mutex> lk(snap_mu_);
    publish_root(std::exchange(split_pending_, nullptr),
                 std::memory_order_release);
  }

  void absorb(ParallelMap& right) {
    PWF_CHECK_MSG(&right != this && !right.released_, "bad absorb operand");
    PWF_CHECK_MSG(split_pending_ == nullptr && right.split_pending_ == nullptr,
                  "absorb during an incomplete split");
    map::Cell<V, A>* a = root_.load(std::memory_order_acquire);
    map::Cell<V, A>* b = right.root_.load(std::memory_order_acquire);
    map::Cell<V, A>* out = map::join_maps(*store_, a, b);
    account_chain();
    {
      std::lock_guard<std::mutex> lk(snap_mu_);
      rtasync::keep_alive_once<map::Store<V, A>>(keep_alive_, right.store_,
                                                 right.keep_alive_);
      publish_root(out, std::memory_order_release);
    }
    batches_.fetch_add(right.batches_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    overlapped_.fetch_add(right.overlapped_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    flushes_.fetch_add(right.flushes_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    epochs_.fetch_add(right.epochs_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    const std::uint64_t rhw =
        right.max_pending_.load(std::memory_order_relaxed);
    std::uint64_t hw = max_pending_.load(std::memory_order_relaxed);
    while (rhw > hw &&
           !max_pending_.compare_exchange_weak(hw, rhw,
                                               std::memory_order_relaxed)) {
    }
    pending_.fetch_add(right.pending_.exchange(0, std::memory_order_relaxed),
                       std::memory_order_relaxed);
    right.released_ = true;
  }

  std::uint64_t pending() const {
    return pending_.load(std::memory_order_relaxed);
  }

 private:
  // Shares an existing store: the >= pivot half made by split_off().
  ParallelMap(Scheduler& sched, std::shared_ptr<map::Store<V, A>> store,
              map::Cell<V, A>* root, std::uint64_t salt, std::size_t leaf_cap)
      : sched_(sched),
        salt_(salt),
        leaf_cap_(leaf_cap),
        store_(std::move(store)),
        root_(root) {
    size_valid_.store(false, std::memory_order_relaxed);
  }

  // Same seq_cst Dekker pair as ParallelSet (see parallel_set.cpp).
  struct ReadGuard {
    std::atomic<std::uint64_t>& count;
    explicit ReadGuard(std::atomic<std::uint64_t>& c) : count(c) {
      count.fetch_add(1, std::memory_order_seq_cst);
    }
    ~ReadGuard() { count.fetch_sub(1, std::memory_order_release); }
  };

  void account_chain() {
#if PWF_ANALYZE
    analyze::note_pipeline_chained();
#endif
    const std::uint64_t pending =
        pending_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t hw = max_pending_.load(std::memory_order_relaxed);
    while (pending > hw &&
           !max_pending_.compare_exchange_weak(hw, pending,
                                               std::memory_order_relaxed)) {
    }
  }

  // Same size-cache discipline as ParallelSet (see parallel_set.cpp): the
  // cache goes stale in the critical section that moves the root, and a
  // recount caches its count only if the root has not moved.
  void publish_root(map::Cell<V, A>* next, std::memory_order order) {
    std::lock_guard<std::mutex> lk(size_mu_);
    size_valid_.store(false, std::memory_order_relaxed);
    root_.store(next, order);
  }

  void chain(map::Cell<V, A>* next) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    account_chain();
    publish_root(next, std::memory_order_release);
  }

  std::size_t force_recount() const {
    ReadGuard guard(active_readers_);
    map::Cell<V, A>* cur = root_.load(std::memory_order_seq_cst);
    const std::size_t n = map::wait_count(cur);
    flushes_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(size_mu_);
    if (root_.load(std::memory_order_relaxed) != cur) return n;
    size_.store(n, std::memory_order_release);
    size_valid_.store(true, std::memory_order_release);
#if PWF_ANALYZE
    analyze::note_pipeline_flushed(
        pending_.exchange(0, std::memory_order_relaxed));
#else
    pending_.store(0, std::memory_order_relaxed);
#endif
    return n;
  }

  Scheduler& sched_;
  std::uint64_t salt_;
  std::size_t leaf_cap_;
  // Replaced wholesale by compact(); shared so snapshots can pin an epoch.
  std::shared_ptr<map::Store<V, A>> store_;
  // Stores of shards this map absorbed, pinned until compact() rebuilds.
  // Guarded by snap_mu_ (stats()/snapshot() read while the mutator appends).
  std::vector<std::shared_ptr<const map::Store<V, A>>> keep_alive_;
  // The < pivot root between split_off() and complete_split().
  map::Cell<V, A>* split_pending_ = nullptr;
  // Set on the absorbed husk: its in-flight work now belongs to the
  // surviving pipeline, so the destructor must not wait for it.
  bool released_ = false;
  std::atomic<map::Cell<V, A>*> root_;

  // Pairs (store_, root_) for snapshot() against compact()'s swap. Never
  // held while waiting on cells, so snapshot() is O(1).
  mutable std::mutex snap_mu_;

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
