// ShardedParallelMap<V, A> — the key→value counterpart of ShardedParallelSet:
// S range-partitioned ParallelMap shards with independent batch pipelines
// and independent storage epochs. See sharded_set.hpp for the rationale and
// the contention-adaptive partition machinery (heat EWMAs, split/merge via
// the pipelined treap bodies, epoch-published routing table); this header
// only adds the value plumbing (slices carry (key, value) items, insert
// routes the merge function through to each shard).
//
// Thread contract is inherited from ParallelMap: one mutator thread at a
// time (rebalances happen inside mutator calls), any number of concurrent
// readers.
//
// The optional augmentation policy A is routed through to every shard;
// `aggregate(lo, hi)` combines the per-shard range aggregates in shard
// (i.e. key) order, so non-commutative combines behave exactly as on the
// unsharded map.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "runtime/parallel_map.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/shard_adapt.hpp"
#include "runtime/sharded_set.hpp"  // shares the aggregated Stats shape

namespace pwf::rt {

template <typename V, typename A = void>
class ShardedParallelMap {
 public:
  using Key = typename ParallelMap<V, A>::Key;
  using Item = typename ParallelMap<V, A>::Item;
  using CacheEconomy = typename ParallelMap<V, A>::CacheEconomy;
  // Same aggregated shape as ShardedParallelSet::Stats (one definition for
  // both facades keeps the bench columns uniform).
  using Stats = ShardedParallelSet::Stats;

  ShardedParallelMap(Scheduler& sched, unsigned shards,
                     std::uint64_t salt = 0x9e3779b97f4a7c15ULL,
                     std::size_t leaf_cap = map::kDefaultLeafCapacity,
                     adapt::Config cfg = {})
      : sched_(sched), salt_(salt), leaf_cap_(leaf_cap), cfg_(cfg) {
    std::size_t n = std::max(1u, shards);
    if (cfg_.enabled)
      n = std::clamp(n, std::max<std::size_t>(1, cfg_.min_shards),
                     std::max<std::size_t>(1, cfg_.max_shards));
    const std::uint64_t step =
        std::numeric_limits<std::uint64_t>::max() / n + 1;
    for (std::size_t i = 1; i < n; ++i)
      lowers_.push_back(from_unsigned(step * i));
    for (std::size_t i = 0; i < n; ++i)
      shards_.push_back(
          std::make_unique<ParallelMap<V, A>>(sched, salt, leaf_cap));
    heats_.resize(n);
    publish_table();
  }

  ShardedParallelMap(const ShardedParallelMap&) = delete;
  ShardedParallelMap& operator=(const ShardedParallelMap&) = delete;

  std::size_t shard_count() const {
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    return g->shards.size();
  }

  std::vector<Key> boundaries() const {
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    return g->lowers;
  }

  // Sorted + pre-merged once (so cross-slice behavior matches the unsharded
  // map exactly), then each nonempty slice is one pipelined shard union.
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
    const std::size_t total = dedup.size();
    auto lo = dedup.begin();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const auto hi =
          (i < lowers_.size())
              ? std::lower_bound(lo, dedup.end(), lowers_[i],
                                 [](const Item& it, Key b) {
                                   return it.first < b;
                                 })
              : dedup.end();
      const std::span<const Item> slice(
          dedup.data() + (lo - dedup.begin()),
          static_cast<std::size_t>(hi - lo));
      double ms = 0.0;
      if (!slice.empty()) {
        const auto t0 = std::chrono::steady_clock::now();
        shards_[i]->insert_batch(slice, merge);
        ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
      }
      note_heat(i, slice, total, ms);
      lo = hi;
    }
    if (cfg_.enabled) maybe_rebalance();
  }

  void assign_batch(std::span<const Item> items) {
    insert_batch(items, [](const V&, const V& incoming) { return incoming; });
  }

  void erase_batch(std::span<const Key> keys) {
    if (keys.empty()) return;
    std::vector<Key> sorted(keys.begin(), keys.end());
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    const std::size_t total = sorted.size();
    auto lo = sorted.begin();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const auto hi = (i < lowers_.size())
                          ? std::lower_bound(lo, sorted.end(), lowers_[i])
                          : sorted.end();
      const std::span<const Key> slice(
          sorted.data() + (lo - sorted.begin()),
          static_cast<std::size_t>(hi - lo));
      double ms = 0.0;
      if (!slice.empty()) {
        const auto t0 = std::chrono::steady_clock::now();
        shards_[i]->erase_batch(slice);
        ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
      }
      if (cfg_.enabled) {
        std::lock_guard<std::mutex> lk(stats_mu_);
        heats_[i].record(slice, total, shards_.size(), cfg_, ms);
      }
      lo = hi;
    }
    if (cfg_.enabled) maybe_rebalance();
  }

  void flush() const {
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    for (ParallelMap<V, A>* s : g->shards) s->flush();
  }

  // Async quiescence across every shard: one fiber awaits all shards'
  // epoch-pinned trees, then writes `done` (see ParallelMap::on_flush).
  void on_flush(FutCell<int>& done) const {
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    std::vector<rtasync::Pinned<map::Store<V, A>, map::Cell<V, A>>> pins;
    pins.reserve(g->shards.size());
    for (ParallelMap<V, A>* s : g->shards) pins.push_back(s->pinned());
    spawn(rtasync::quiesce_fiber(std::move(pins), &done));
  }

  // Async point read, routed like get(): the owning shard pins its epoch
  // before this returns, so a concurrent rebalance cannot strand the walk.
  void probe_into(Key k, FutCell<rtasync::Probe<V>>& out) const {
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    g->shards[g->index(k)]->probe_into(k, out);
  }

  void compact() {
    for (auto& s : shards_) s->compact();
  }
  void compact_shard(std::size_t i) { shards_[i]->compact(); }

  std::optional<V> get(Key k) const {
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    return g->shards[g->index(k)]->get(k);
  }
  bool contains(Key k) const { return get(k).has_value(); }

  // Epoch-pinned snapshot of the shard currently owning key k (see
  // ShardedParallelSet::snapshot(Key)).
  MapSnapshot<V, A> snapshot(Key k) const {
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    return g->shards[g->index(k)]->snapshot();
  }

  // Range aggregate over keys in [lo, hi]: only the shards whose key range
  // intersects [lo, hi] are queried, and their aggregates are combined in
  // shard (key) order — associativity suffices, like the unsharded map.
  auto aggregate(Key lo, Key hi) const
    requires(!std::is_void_v<A>)
  {
    using Ops = typename map::Entry<V, A>::AugOps;
    auto acc = Ops::identity();
    if (lo > hi) return acc;
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    const std::size_t last = g->index(hi);
    for (std::size_t i = g->index(lo); i <= last; ++i)
      acc = Ops::combine(acc,
                         g->shards[i]->aggregate(std::max(lo, g->first(i)),
                                                 std::min(hi, g->last(i))));
    return acc;
  }

  // Cross-shard reads (size, items, aggregate) read each shard only over
  // the range the pinned table assigns it, so a rebalance in flight never
  // counts a key twice (docs/service.md).
  std::size_t size() const {
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    std::size_t n = 0;
    // O(1) per shard from the cached counts unless a rebalance was in
    // flight; then each shard is counted over its pinned range.
    if (reshape_.quiet([&] {
          for (ParallelMap<V, A>* s : g->shards) n += s->size();
        }))
      return n;
    clamped_reads_.fetch_add(1, std::memory_order_relaxed);
    n = 0;
    for (std::size_t i = 0; i < g->shards.size(); ++i)
      n += g->shards[i]->count(g->first(i), g->last(i));
    return n;
  }
  bool empty() const { return size() == 0; }

  std::vector<Item> items() const {  // key-sorted concatenation
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    std::vector<Item> out;
    for (std::size_t i = 0; i < g->shards.size(); ++i) {
      std::vector<Item> part = g->shards[i]->items(g->first(i), g->last(i));
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  Stats stats() const {
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    Stats agg;
    agg.shards = g->shards.size();
    std::size_t total = 0;
    std::size_t kmin = std::numeric_limits<std::size_t>::max();
    std::size_t kmax = 0;
    for (ParallelMap<V, A>* s : g->shards) {
      const auto st = s->stats();
      agg.batches += st.batches;
      agg.overlapped += st.overlapped;
      agg.max_pending = std::max(agg.max_pending, st.max_pending);
      agg.flushes += st.flushes;
      agg.epochs += st.epochs;
      agg.arena_bytes += st.arena_bytes;
      const std::size_t n = s->size();
      total += n;
      kmin = std::min(kmin, n);
      kmax = std::max(kmax, n);
    }
    agg.keys_min = kmin == std::numeric_limits<std::size_t>::max() ? 0 : kmin;
    agg.keys_max = kmax;
    if (total > 0 && agg.shards > 0) {
      const double ideal =
          static_cast<double>(total) / static_cast<double>(agg.shards);
      agg.imbalance_min = static_cast<double>(agg.keys_min) / ideal;
      agg.imbalance_max = static_cast<double>(agg.keys_max) / ideal;
    }
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      agg.splits = splits_;
      agg.merges = merges_;
      agg.clamped_reads = clamped_reads_.load(std::memory_order_relaxed);
      std::uint64_t rmin = std::numeric_limits<std::uint64_t>::max();
      std::uint64_t rmax = 0;
      for (const adapt::Heat& h : heats_) {
        rmin = std::min(rmin, h.routed);
        rmax = std::max(rmax, h.routed);
      }
      agg.routed_min = heats_.empty() ? 0 : rmin;
      agg.routed_max = rmax;
    }
    return agg;
  }

  typename ParallelMap<V, A>::Stats shard_stats(std::size_t i) const {
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    return g->shards[i]->stats();
  }

  // Storage composition summed over every shard (forces all snapshots).
  CacheEconomy cache_economy() const {
    typename adapt::Router<ParallelMap<V, A>>::Guard g(router_);
    CacheEconomy agg;
    for (ParallelMap<V, A>* s : g->shards) {
      const CacheEconomy ce = s->cache_economy();
      agg.internal_nodes += ce.internal_nodes;
      agg.leaf_chunks += ce.leaf_chunks;
      agg.leaf_keys += ce.leaf_keys;
      agg.leaf_ops += ce.leaf_ops;
      agg.arena_bytes += ce.arena_bytes;
      agg.wasted_padding += ce.wasted_padding;
    }
    return agg;
  }

 private:
  static Key from_unsigned(std::uint64_t u) {
    return static_cast<Key>(u ^ (std::uint64_t{1} << 63));
  }

  void publish_table() {
    std::vector<ParallelMap<V, A>*> raw;
    raw.reserve(shards_.size());
    for (auto& s : shards_) raw.push_back(s.get());
    router_.publish(std::move(raw), lowers_);
  }

  // Item slices feed the heat sample with their keys.
  void note_heat(std::size_t i, std::span<const Item> slice,
                 std::size_t total, double ms) {
    if (!cfg_.enabled) return;
    scratch_keys_.clear();
    scratch_keys_.reserve(slice.size());
    for (const Item& it : slice) scratch_keys_.push_back(it.first);
    std::lock_guard<std::mutex> lk(stats_mu_);
    heats_[i].record(scratch_keys_, total, shards_.size(), cfg_, ms);
  }

  // Same policy as ShardedParallelSet::maybe_rebalance (one structural
  // change per batch, cooldown-gated, split beats merge).
  void maybe_rebalance() {
    if (++since_change_ <= cfg_.cooldown) return;
    std::size_t hot = 0;
    for (std::size_t i = 1; i < heats_.size(); ++i)
      if (heats_[i].heat > heats_[hot].heat) hot = i;
    if (heats_[hot].heat > adapt::split_threshold(cfg_, shards_.size()) &&
        shards_.size() < std::max<std::size_t>(1, cfg_.max_shards) &&
        try_split(hot)) {
      since_change_ = 0;
      return;
    }
    if (shards_.size() <= std::max<std::size_t>(1, cfg_.min_shards)) return;
    std::size_t best = heats_.size();
    double best_sum = cfg_.low_cont;
    for (std::size_t i = 0; i + 1 < heats_.size(); ++i) {
      const double sum = heats_[i].heat + heats_[i + 1].heat;
      if (sum < best_sum) {
        best_sum = sum;
        best = i;
      }
    }
    if (best == heats_.size()) return;
    do_merge(best);
    since_change_ = 0;
  }

  bool try_split(std::size_t i) {
    const std::optional<Key> pivot = adapt::split_point(heats_[i].sample);
    if (!pivot) return false;
    reshape_.begin();
    std::unique_ptr<ParallelMap<V, A>> right = shards_[i]->split_off(*pivot);
    shards_.insert(shards_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                   std::move(right));
    lowers_.insert(lowers_.begin() + static_cast<std::ptrdiff_t>(i), *pivot);
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      adapt::Heat parent = std::move(heats_[i]);
      adapt::Heat l, r;
      l.heat = r.heat = parent.heat / 2.0;
      l.lat_ms = r.lat_ms = parent.lat_ms;
      l.routed = r.routed = parent.routed / 2;
      for (Key k : parent.sample)
        (k < *pivot ? l : r).sample.push_back(k);
      heats_[i] = std::move(l);
      heats_.insert(heats_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    std::move(r));
      ++splits_;
    }
    publish_table();
    shards_[i]->complete_split();
    reshape_.end();
    return true;
  }

  void do_merge(std::size_t i) {
    std::unique_ptr<ParallelMap<V, A>> husk = std::move(shards_[i + 1]);
    reshape_.begin();
    shards_[i]->absorb(*husk);
    shards_.erase(shards_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    lowers_.erase(lowers_.begin() + static_cast<std::ptrdiff_t>(i));
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      heats_[i].heat += heats_[i + 1].heat;
      heats_[i].routed += heats_[i + 1].routed;
      for (Key k : heats_[i + 1].sample) {
        if (heats_[i].sample.size() < cfg_.sample_cap) {
          heats_[i].sample.push_back(k);
        } else if (!heats_[i].sample.empty()) {
          heats_[i].sample[heats_[i].sample_pos] = k;
          heats_[i].sample_pos =
              (heats_[i].sample_pos + 1) % heats_[i].sample.size();
        }
      }
      heats_.erase(heats_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      ++merges_;
    }
    publish_table();
    reshape_.end();
    husk.reset();
  }

  Scheduler& sched_;
  std::uint64_t salt_;
  std::size_t leaf_cap_;
  adapt::Config cfg_;

  std::vector<Key> lowers_;  // lower boundary of shards 1..S-1
  std::vector<std::unique_ptr<ParallelMap<V, A>>> shards_;
  std::vector<adapt::Heat> heats_;  // guarded by stats_mu_
  std::vector<Key> scratch_keys_;   // mutator-only slice-key scratch
  std::uint64_t since_change_ = 0;
  std::uint64_t splits_ = 0;  // guarded by stats_mu_
  std::uint64_t merges_ = 0;  // guarded by stats_mu_
  // Rebalance windows, and the size() calls that had to count clamped
  // ranges because one was open.
  adapt::Reshape reshape_;
  mutable std::atomic<std::uint64_t> clamped_reads_{0};

  mutable std::mutex stats_mu_;

  adapt::Router<ParallelMap<V, A>> router_;
};

}  // namespace pwf::rt
