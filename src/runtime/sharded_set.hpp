// ShardedParallelSet — a range-partitioned façade over S independent
// ParallelSet shards, each with its own store and its own pending-batch
// pipeline.
//
// Why shard a structure whose batches are already parallel? Two reasons,
// both service-shaped rather than algorithmic:
//   1. *Independent pipelines.* A ParallelSet chains every batch through a
//      single root cell, so one slow batch delays the materialization of
//      everything behind it. With S shards a batch splits into S slices
//      that chain onto S independent roots — stragglers only stall their
//      own key range.
//   2. *Independent epochs.* compact() (the arena-epoch rebuild) can be
//      rotated across shards, bounding the pause and the peak footprint to
//      1/S of the whole set.
//
// Partitioning is by key range. The initial partition cuts the signed
// 64-bit key space into S equal-width contiguous ranges (computed in
// order-preserving unsigned space); with an adapt::Config{.enabled = true}
// the partition then *follows the traffic*: every shard keeps per-batch
// contention stats (share of routed keys, pending depth, slice latency
// EWMA), a shard whose heat crosses `high_cont` splits at the weighted
// median of its sampled traffic, and adjacent shards whose summed heat
// falls below `low_cont` merge. The rebalance primitives are the pipelined
// treap split/join bodies (ParallelSet::split_off / absorb), so a
// rebalance chains onto the shard pipelines and overlaps in-flight batches
// instead of stopping the world.
//
// Routing is an atomically published sorted split-point table
// (adapt::Router): readers pin the current table with a Dekker-style
// guard, structural changes publish a fresh table and drain the guard
// count before destroying merged-away shard husks — the same epoch
// retirement compact() uses for stores. All shards share one priority
// salt so nodes can migrate between shards through split/join.
//
// An incoming batch is sorted once and sliced per shard by binary search —
// O(S lg m) to route a batch of m keys. Thread contract is inherited from
// ParallelSet: one mutator thread at a time (rebalancing happens inside
// mutator calls), any number of concurrent readers.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/parallel_set.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/shard_adapt.hpp"

namespace pwf::rt {

class ShardedParallelSet {
 public:
  using Key = ParallelSet::Key;
  using CacheEconomy = ParallelSet::CacheEconomy;

  // Aggregated service observability: the ParallelSet::Stats fields summed
  // over shards (max_pending is the max — per-pipeline depth is the
  // meaningful quantity), plus the partition shape and adaptation history.
  // keys_min/keys_max and the imbalance ratios come from per-shard size(),
  // so reading stats() may force pending batches like any whole-tree read.
  struct Stats {
    std::uint64_t batches = 0;
    std::uint64_t overlapped = 0;
    std::uint64_t max_pending = 0;
    std::uint64_t flushes = 0;
    std::uint64_t epochs = 0;
    std::uint64_t arena_bytes = 0;
    std::uint64_t shards = 0;        // current shard count
    std::uint64_t keys_min = 0;      // stored keys in the emptiest shard
    std::uint64_t keys_max = 0;      // stored keys in the fullest shard
    double imbalance_min = 0.0;      // keys_min / (total / shards)
    double imbalance_max = 0.0;      // keys_max / (total / shards)
    std::uint64_t routed_min = 0;    // cumulative traffic extremes
    std::uint64_t routed_max = 0;
    std::uint64_t splits = 0;        // adaptive rebalances executed
    std::uint64_t merges = 0;
    std::uint64_t clamped_reads = 0;  // size() calls made mid-rebalance
  };

  ShardedParallelSet(Scheduler& sched, unsigned shards,
                     std::uint64_t salt = 0x9e3779b97f4a7c15ULL,
                     std::size_t leaf_cap =
                         pipelined::treap::kDefaultLeafCapacity,
                     adapt::Config cfg = {})
      : sched_(sched), salt_(salt), leaf_cap_(leaf_cap), cfg_(cfg) {
    std::size_t n = std::max(1u, shards);
    if (cfg_.enabled)
      n = std::clamp(n, std::max<std::size_t>(1, cfg_.min_shards),
                     std::max<std::size_t>(1, cfg_.max_shards));
    // Shard i owns [lowers_[i-1], lowers_[i]) with implicit -inf/+inf ends.
    const std::uint64_t step =
        std::numeric_limits<std::uint64_t>::max() / n + 1;
    for (std::size_t i = 1; i < n; ++i)
      lowers_.push_back(from_unsigned(step * i));
    for (std::size_t i = 0; i < n; ++i)
      shards_.push_back(std::make_unique<ParallelSet>(sched, salt, leaf_cap));
    heats_.resize(n);
    publish_table();
  }

  ShardedParallelSet(const ShardedParallelSet&) = delete;
  ShardedParallelSet& operator=(const ShardedParallelSet&) = delete;

  std::size_t shard_count() const {
    adapt::Router<ParallelSet>::Guard g(router_);
    return g->shards.size();
  }

  // Current split points (lower bounds of shards 1..S-1), for tests and
  // monitoring.
  std::vector<Key> boundaries() const {
    adapt::Router<ParallelSet>::Guard g(router_);
    return g->lowers;
  }

  // Batch mutators: sort + dedup once, slice per shard by binary search,
  // then chain each nonempty slice onto its shard's pipeline. With
  // adaptation enabled, each batch also feeds the heat EWMAs and may
  // trigger at most one split or merge.
  void insert_batch(std::span<const Key> keys) {
    route(keys, /*visit_empty=*/false,
          [](ParallelSet& s, std::span<const Key> slice) {
            s.insert_batch(slice);
          });
  }
  void erase_batch(std::span<const Key> keys) {
    route(keys, /*visit_empty=*/false,
          [](ParallelSet& s, std::span<const Key> slice) {
            s.erase_batch(slice);
          });
  }
  // retain must visit *every* shard: a shard whose slice is empty keeps no
  // keys (set ∩ ∅ = ∅).
  void retain_batch(std::span<const Key> keys) {
    route(keys, /*visit_empty=*/true,
          [](ParallelSet& s, std::span<const Key> slice) {
            s.retain_batch(slice);
          });
  }

  void flush() const {
    adapt::Router<ParallelSet>::Guard g(router_);
    for (ParallelSet* s : g->shards) s->flush();
  }

  // Async quiescence across every shard: one fiber awaits all shards'
  // epoch-pinned trees, then writes `done` (see ParallelSet::on_flush).
  void on_flush(FutCell<int>& done) const {
    adapt::Router<ParallelSet>::Guard g(router_);
    std::vector<rtasync::Pinned<treap::Store, treap::Cell>> pins;
    pins.reserve(g->shards.size());
    for (ParallelSet* s : g->shards) pins.push_back(s->pinned());
    spawn(rtasync::quiesce_fiber(std::move(pins), &done));
  }

  // Compact every shard. Long-lived services should instead rotate:
  // `compact_shard(epoch % shard_count())` once per maintenance tick.
  void compact() {
    for (auto& s : shards_) s->compact();
  }
  void compact_shard(std::size_t i) { shards_[i]->compact(); }

  bool contains(Key k) const {
    adapt::Router<ParallelSet>::Guard g(router_);
    return g->shards[g->index(k)]->contains(k);
  }

  // Epoch-pinned snapshot of the shard currently owning key k (the sharded
  // facade has no cross-shard snapshot; ranges are independent pipelines).
  // Taken under the routing guard, so it cannot pin a merged-away husk.
  SetSnapshot snapshot(Key k) const {
    adapt::Router<ParallelSet>::Guard g(router_);
    return g->shards[g->index(k)]->snapshot();
  }

  // Cross-shard reads (size, keys) read each shard only over the range the
  // pinned table assigns it, so a rebalance in flight never counts a key
  // twice (docs/service.md).
  std::size_t size() const {
    adapt::Router<ParallelSet>::Guard g(router_);
    std::size_t n = 0;
    // O(1) per shard from the cached counts unless a rebalance was in
    // flight; then each shard is counted over its pinned range.
    if (reshape_.quiet([&] {
          for (ParallelSet* s : g->shards) n += s->size();
        }))
      return n;
    clamped_reads_.fetch_add(1, std::memory_order_relaxed);
    n = 0;
    for (std::size_t i = 0; i < g->shards.size(); ++i)
      n += g->shards[i]->count(g->first(i), g->last(i));
    return n;
  }
  bool empty() const { return size() == 0; }

  std::vector<Key> keys() const {  // sorted: shards are contiguous ranges
    adapt::Router<ParallelSet>::Guard g(router_);
    std::vector<Key> out;
    for (std::size_t i = 0; i < g->shards.size(); ++i) {
      std::vector<Key> part = g->shards[i]->keys(g->first(i), g->last(i));
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  Stats stats() const {
    adapt::Router<ParallelSet>::Guard g(router_);
    Stats agg;
    agg.shards = g->shards.size();
    std::size_t total = 0;
    std::size_t kmin = std::numeric_limits<std::size_t>::max();
    std::size_t kmax = 0;
    for (ParallelSet* s : g->shards) {
      const ParallelSet::Stats st = s->stats();
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

  ParallelSet::Stats shard_stats(std::size_t i) const {
    adapt::Router<ParallelSet>::Guard g(router_);
    return g->shards[i]->stats();
  }

  // A shard's live heat record (approximate — the partition may change
  // between indexing and reading; monitoring only).
  struct ShardLoad {
    double heat = 0.0;
    double lat_ms = 0.0;
    std::uint64_t routed = 0;
    std::uint64_t pending = 0;
  };
  ShardLoad shard_load(std::size_t i) const {
    ShardLoad out;
    {
      adapt::Router<ParallelSet>::Guard g(router_);
      if (i < g->shards.size()) out.pending = g->shards[i]->pending();
    }
    std::lock_guard<std::mutex> lk(stats_mu_);
    if (i < heats_.size()) {
      out.heat = heats_[i].heat;
      out.lat_ms = heats_[i].lat_ms;
      out.routed = heats_[i].routed;
    }
    return out;
  }

  // Storage composition summed over every shard (forces all snapshots).
  CacheEconomy cache_economy() const {
    adapt::Router<ParallelSet>::Guard g(router_);
    CacheEconomy agg;
    for (ParallelSet* s : g->shards) {
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
  // Order-preserving int64 <-> uint64 (flip the sign bit), so the uniform
  // unsigned split yields contiguous signed ranges.
  static Key from_unsigned(std::uint64_t u) {
    return static_cast<Key>(u ^ (std::uint64_t{1} << 63));
  }

  void publish_table() {
    std::vector<ParallelSet*> raw;
    raw.reserve(shards_.size());
    for (auto& s : shards_) raw.push_back(s.get());
    router_.publish(std::move(raw), lowers_);
  }

  // Mutator-side batch routing: slice the sorted batch against the
  // mutator's own partition (lowers_ — always in sync with shards_), feed
  // the heat EWMAs, then consider one structural change.
  template <typename Visit>
  void route(std::span<const Key> keys, bool visit_empty, Visit visit) {
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
      if (!slice.empty() || visit_empty) {
        const auto t0 = std::chrono::steady_clock::now();
        visit(*shards_[i], slice);
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

  // At most one structural change per batch, rate-limited by the cooldown.
  // Split beats merge when both trigger (heat is the thing hurting now).
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
    if (!pivot) return false;  // traffic can't be cut (e.g. one hot key)
    reshape_.begin();
    // Phase 1: fork the pipelined split; shard i keeps answering for its
    // full range from the old tree.
    std::unique_ptr<ParallelSet> right = shards_[i]->split_off(*pivot);
    shards_.insert(shards_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                   std::move(right));
    lowers_.insert(lowers_.begin() + static_cast<std::ptrdiff_t>(i), *pivot);
    {
      // Split the traffic record between the halves.
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
    // New readers now route >= pivot keys to the new shard (which answers
    // from the shared split output); old-table readers drain against the
    // still-complete left tree.
    publish_table();
    // Phase 2: only now may the left shard shrink to its < pivot root.
    shards_[i]->complete_split();
    reshape_.end();
    return true;
  }

  void do_merge(std::size_t i) {
    std::unique_ptr<ParallelSet> husk = std::move(shards_[i + 1]);
    // Chain the pipelined join onto shard i; the husk's pending work and
    // arena now belong to the survivor.
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
    // Drains every reader that could still route to the husk, then
    // destroys it (its store stays pinned by the survivor until compact()).
    publish_table();
    reshape_.end();
    husk.reset();
  }

  Scheduler& sched_;
  std::uint64_t salt_;
  std::size_t leaf_cap_;
  adapt::Config cfg_;

  // Mutator-owned partition state; readers use the published router table.
  std::vector<Key> lowers_;  // lower boundary of shards 1..S-1
  std::vector<std::unique_ptr<ParallelSet>> shards_;
  std::vector<adapt::Heat> heats_;  // guarded by stats_mu_
  std::uint64_t since_change_ = 0;
  std::uint64_t splits_ = 0;   // guarded by stats_mu_
  std::uint64_t merges_ = 0;   // guarded by stats_mu_
  // Rebalance windows, and the size() calls that had to count clamped
  // ranges because one was open.
  adapt::Reshape reshape_;
  mutable std::atomic<std::uint64_t> clamped_reads_{0};

  // Serializes the mutator's heat updates against stats()/shard_load().
  mutable std::mutex stats_mu_;

  adapt::Router<ParallelSet> router_;
};

}  // namespace pwf::rt
