#include "runtime/parallel_set.hpp"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "pipelined/treap_walk.hpp"
#include "support/check.hpp"

#if PWF_ANALYZE
#include "analyze/rt_recorder.hpp"
#endif

namespace pwf::rt {

namespace {

namespace pl = pipelined;

// Announces a reader to compact()'s Dekker pair: the seq_cst increment is
// ordered against compact()'s seq_cst root publish, so either the reader's
// root load (also seq_cst) sees the fresh root, or compact's drain loop sees
// the reader and keeps the old store alive until it leaves.
struct ReadGuard {
  std::atomic<std::uint64_t>& count;
  explicit ReadGuard(std::atomic<std::uint64_t>& c) : count(c) {
    count.fetch_add(1, std::memory_order_seq_cst);
  }
  ~ReadGuard() { count.fetch_sub(1, std::memory_order_release); }
};

// All walks below are the shared explicit-stack visitors of
// pipelined/treap_walk.hpp with a wait_blocking force: they run on the
// caller's stack and must not recurse (the root may be an arbitrarily deep
// chain while a pipeline is mid-flight).
constexpr auto kWait = [](auto* c) { return c->wait_blocking(); };

}  // namespace

bool SetSnapshot::contains(Key k) const {
  return pl::treap::lookup(root_, k, kWait).has_value();
}

std::size_t SetSnapshot::size() const {
  return pl::treap::count_keys(root_, kWait);
}

std::vector<SetSnapshot::Key> SetSnapshot::keys() const {
  std::vector<Key> out;
  pl::treap::visit_items(root_, kWait,
                         [&](Key k, const auto&) { out.push_back(k); });
  return out;
}

ParallelSet::~ParallelSet() {
  // An absorbed husk's pipeline belongs to the surviving shard: its pending
  // accounting was transferred by absorb() and waiting here would serialize
  // the merge against the in-flight join.
  if (released_) return;
  // Only a live scheduler can drain in-flight fibers; after ~Scheduler the
  // frame pool can never reach quiescence (workers are gone and any fiber
  // still queued at shutdown was dropped), so spinning would hang forever.
  if (Scheduler::current() != nullptr) FramePool::wait_quiescent();
#if PWF_ANALYZE
  analyze::note_pipeline_flushed(
      pending_.exchange(0, std::memory_order_relaxed));
#endif
}

ParallelSet::ParallelSet(Scheduler& sched, std::uint64_t salt,
                         std::size_t leaf_cap)
    : sched_(sched),
      salt_(salt),
      leaf_cap_(leaf_cap),
      store_(std::make_shared<treap::Store>(salt, leaf_cap)),
      root_(store_->input(nullptr)) {}

ParallelSet::ParallelSet(Scheduler& sched, std::span<const Key> keys,
                         std::uint64_t salt, std::size_t leaf_cap)
    : sched_(sched),
      salt_(salt),
      leaf_cap_(leaf_cap),
      store_(std::make_shared<treap::Store>(salt, leaf_cap)),
      root_(nullptr) {
  std::vector<Key> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  size_.store(sorted.size(), std::memory_order_relaxed);
  root_.store(store_->input(store_->build(sorted)), std::memory_order_release);
}

treap::Cell* ParallelSet::build_batch(std::span<const Key> keys) {
  std::vector<Key> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return store_->input(store_->build(sorted));
}

void ParallelSet::account_chain() {
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

void ParallelSet::publish_root(treap::Cell* next, std::memory_order order) {
  // The cache goes stale in the same critical section that moves the root,
  // so a recount racing this publish never caches an old root's count as
  // valid (force_recount re-checks the root under size_mu_), and a reader
  // that sees the new root also sees size_valid_ == false.
  std::lock_guard<std::mutex> lk(size_mu_);
  size_valid_.store(false, std::memory_order_relaxed);
  root_.store(next, order);
}

void ParallelSet::chain(treap::Cell* next) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  account_chain();
  publish_root(next, std::memory_order_release);
}

void ParallelSet::insert_batch(std::span<const Key> keys) {
  if (keys.empty()) return;
  treap::Cell* cur = root_.load(std::memory_order_acquire);
  if (!cur->written()) overlapped_.fetch_add(1, std::memory_order_relaxed);
  chain(treap::union_treaps(*store_, cur, build_batch(keys)));
}

void ParallelSet::erase_batch(std::span<const Key> keys) {
  if (keys.empty()) return;
  treap::Cell* cur = root_.load(std::memory_order_acquire);
  if (!cur->written()) overlapped_.fetch_add(1, std::memory_order_relaxed);
  chain(treap::diff_treaps(*store_, cur, build_batch(keys)));
}

void ParallelSet::retain_batch(std::span<const Key> keys) {
  treap::Cell* cur = root_.load(std::memory_order_acquire);
  if (!cur->written()) overlapped_.fetch_add(1, std::memory_order_relaxed);
  chain(treap::intersect_treaps(*store_, cur, build_batch(keys)));
}

ParallelSet::ParallelSet(Scheduler& sched, std::shared_ptr<treap::Store> store,
                         treap::Cell* root, std::uint64_t salt,
                         std::size_t leaf_cap)
    : sched_(sched),
      salt_(salt),
      leaf_cap_(leaf_cap),
      store_(std::move(store)),
      root_(root) {
  size_valid_.store(false, std::memory_order_relaxed);
}

std::unique_ptr<ParallelSet> ParallelSet::split_off(Key pivot) {
  PWF_CHECK_MSG(split_pending_ == nullptr,
                "split_off before the previous split completed");
  treap::Cell* cur = root_.load(std::memory_order_acquire);
  treap::Cell* less = store_->cell();
  treap::Cell* geq = store_->cell();
  treap::split_treaps(*store_, cur, pivot, less, geq);
  auto right = std::unique_ptr<ParallelSet>(
      new ParallelSet(sched_, store_, geq, salt_, leaf_cap_));
  {
    // The >= half can reference nodes from every store this set keeps
    // alive (past merges), so the new shard pins them too.
    std::lock_guard<std::mutex> lk(snap_mu_);
    right->keep_alive_ = keep_alive_;
  }
  right->account_chain();
  split_pending_ = less;
  return right;
}

void ParallelSet::complete_split() {
  PWF_CHECK_MSG(split_pending_ != nullptr,
                "complete_split without a pending split_off");
  account_chain();
  std::lock_guard<std::mutex> lk(snap_mu_);
  publish_root(std::exchange(split_pending_, nullptr),
               std::memory_order_release);
}

void ParallelSet::absorb(ParallelSet& right) {
  PWF_CHECK_MSG(&right != this && !right.released_, "bad absorb operand");
  PWF_CHECK_MSG(split_pending_ == nullptr && right.split_pending_ == nullptr,
                "absorb during an incomplete split");
  treap::Cell* a = root_.load(std::memory_order_acquire);
  treap::Cell* b = right.root_.load(std::memory_order_acquire);
  // The join allocates in *this* store; right's arena (plus anything it
  // kept alive) stays pinned below until compact() rebuilds.
  treap::Cell* out = treap::join_treaps(*store_, a, b);
  account_chain();
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    rtasync::keep_alive_once<treap::Store>(keep_alive_, right.store_,
                                           right.keep_alive_);
    publish_root(out, std::memory_order_release);
  }
  // Fold the husk's counters into the surviving pipeline: transferring
  // pending keeps the analyze-mode chained/flushed ledger balanced.
  batches_.fetch_add(right.batches_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  overlapped_.fetch_add(right.overlapped_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  flushes_.fetch_add(right.flushes_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  epochs_.fetch_add(right.epochs_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  const std::uint64_t rhw = right.max_pending_.load(std::memory_order_relaxed);
  std::uint64_t hw = max_pending_.load(std::memory_order_relaxed);
  while (rhw > hw &&
         !max_pending_.compare_exchange_weak(hw, rhw,
                                             std::memory_order_relaxed)) {
  }
  pending_.fetch_add(right.pending_.exchange(0, std::memory_order_relaxed),
                     std::memory_order_relaxed);
  right.released_ = true;
}

std::size_t ParallelSet::force_recount() const {
  ReadGuard guard(active_readers_);
  treap::Cell* cur = root_.load(std::memory_order_seq_cst);
  const std::size_t n = pl::treap::count_keys(cur, kWait);
  flushes_.fetch_add(1, std::memory_order_relaxed);
  // Cached only if cur is still the root (publish_root moves it under the
  // same lock): a recount that raced a batch must not pass the older
  // root's count off as current. Release, paired with size()'s acquires: a
  // reader that takes this count is ordered after the root it was taken
  // from (the sharded facades' rebalance seqlock relies on it).
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

void ParallelSet::compact() {
  // Forces every pending batch, then copies the finished tree's entries
  // straight into the fresh store (treap_walk.hpp rebuild: O(n), no sort).
  treap::Cell* cur = root_.load(std::memory_order_acquire);
  const std::size_t n = pl::treap::count_keys(cur, kWait);
  auto fresh = std::make_shared<treap::Store>(salt_, leaf_cap_);
  treap::Cell* next = fresh->input(pl::treap::rebuild(*fresh, cur, n, kWait));
  // Forcing the result tree is not fiber quiescence: stragglers whose
  // outputs aren't in the final tree still read the old arena.
  FramePool::wait_quiescent();
  // Dekker publish: the seq_cst store is ordered against every reader's
  // seq_cst announce. A reader that loaded the old root has incremented
  // active_readers_ before this store, so the drain loop below observes it;
  // a reader announcing later is guaranteed to load the fresh root. The
  // (store_, root_) pair is swapped under snap_mu_ so a concurrent
  // snapshot() never pairs a root with the wrong epoch's store.
  std::shared_ptr<treap::Store> old;
  std::vector<std::shared_ptr<const treap::Store>> merged;
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    publish_root(next, std::memory_order_seq_cst);
    old = std::exchange(store_, std::move(fresh));
    merged = std::move(keep_alive_);
    keep_alive_.clear();
  }
  while (active_readers_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  // Refcounted epoch retirement: frees every superseded node and cell now
  // — including arenas of shards absorbed by adaptive merges — unless a
  // live SetSnapshot still pins the old epoch.
  old.reset();
  merged.clear();
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

SetSnapshot ParallelSet::snapshot() const {
  std::lock_guard<std::mutex> lk(snap_mu_);
  return SetSnapshot(store_, keep_alive_,
                     root_.load(std::memory_order_seq_cst));
}

void ParallelSet::on_flush(FutCell<int>& done) const {
  std::vector<rtasync::Pinned<treap::Store, treap::Cell>> pins(1);
  pins[0] = pinned();
  spawn(rtasync::quiesce_fiber(std::move(pins), &done));
  flushes_.fetch_add(1, std::memory_order_relaxed);
}

rtasync::Pinned<treap::Store, treap::Cell> ParallelSet::pinned() const {
  rtasync::Pinned<treap::Store, treap::Cell> p;
  std::lock_guard<std::mutex> lk(snap_mu_);
  p.store = store_;
  p.merged = keep_alive_;
  p.root = root_.load(std::memory_order_seq_cst);
  return p;
}

bool ParallelSet::contains(Key k) const {
  ReadGuard guard(active_readers_);
  return pl::treap::lookup(root_.load(std::memory_order_seq_cst), k, kWait)
      .has_value();
}

std::size_t ParallelSet::size() const {
  if (!size_valid_.load(std::memory_order_acquire)) return force_recount();
  return size_.load(std::memory_order_acquire);
}

std::vector<ParallelSet::Key> ParallelSet::keys() const {
  return keys(std::numeric_limits<Key>::min(), std::numeric_limits<Key>::max());
}

std::vector<ParallelSet::Key> ParallelSet::keys(Key lo, Key hi) const {
  ReadGuard guard(active_readers_);
  std::vector<Key> out;
  pl::treap::visit_entries(root_.load(std::memory_order_seq_cst), lo, hi,
                           kWait,
                           [&](const auto& e) { out.push_back(e.key); });
  return out;
}

std::size_t ParallelSet::count(Key lo, Key hi) const {
  ReadGuard guard(active_readers_);
  return pl::treap::count_keys(root_.load(std::memory_order_seq_cst), lo, hi,
                               kWait);
}

int ParallelSet::height() const {
  ReadGuard guard(active_readers_);
  return pl::treap::height_of(root_.load(std::memory_order_seq_cst), kWait);
}

ParallelSet::Stats ParallelSet::stats() const {
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

ParallelSet::CacheEconomy ParallelSet::cache_economy() const {
  ReadGuard guard(active_readers_);
  const pipelined::treap::CacheEconomy ce =
      treap::cache_economy(root_.load(std::memory_order_seq_cst));
  CacheEconomy out;
  out.internal_nodes = ce.internal_nodes;
  out.leaf_chunks = ce.leaf_chunks;
  out.leaf_keys = ce.leaf_keys;
  out.leaf_ops = store_->leaf_ops();
  out.arena_bytes = store_->bytes_used();
  out.wasted_padding = store_->wasted_padding();
  return out;
}

}  // namespace pwf::rt
