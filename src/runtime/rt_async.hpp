// Async (fiber-parking) walks over pipelined treap cells — the server-side
// counterparts of the blocking walks in treap_walk.hpp / rt_map.hpp.
//
// The facades' flush()/get() force cells with wait_blocking(), which is
// right for an external joiner thread but wrong inside a fiber: a fiber
// that blocks its worker thread stalls the very pipeline it is waiting on
// (fatal at one worker, a latency cliff at few). These walks are coroutine
// Fibers instead — `co_await *cell` parks the fiber *in the cell* (O(1),
// no allocation, no occupied worker) and the cell's writer reposts it.
//
// They cannot reuse treap_walk.hpp's force-callable visitors (co_await is
// not legal inside a lambda passed down a call stack), so the two walks the
// service layer needs are hand-rolled here, single-source for every facade:
//
//   * quiesce_fiber  — co_awaits every reachable cell (including internal
//     aug cells of augmented trees), then writes a done-cell: the async
//     quiescence behind ParallelSet/ParallelMap::on_flush.
//   * probe_fiber    — forces only the O(lg n) search-path cells and writes
//     a Probe<V> result-cell: the async point read behind
//     ParallelMap::probe_into (E27's pipelined reply path).
//
// Both pin their epoch the way MapSnapshot does — shared_ptr copies of the
// store (plus absorbed-shard stores) travel in the coroutine frame — so the
// walk stays valid across concurrent compact() epochs and adaptive merges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "pipelined/treap.hpp"
#include "runtime/future.hpp"
#include "runtime/scheduler.hpp"

namespace pwf::rt::rtasync {

// Result of an async point probe (trivially copyable: it travels through a
// FutCell).
template <typename V>
struct Probe {
  V value{};
  bool found = false;
};

// One epoch-pinned tree: the (store, merged-stores, root) triple a facade
// snapshots under its snap_mu_. `store` may be null for input-only cells in
// tests; the pins are only held, never dereferenced.
template <typename StoreT, typename CellT>
struct Pinned {
  std::shared_ptr<const StoreT> store;
  std::vector<std::shared_ptr<const StoreT>> merged;
  CellT* root = nullptr;
};

// The keep-alive list a merge leaves on the surviving shard: its own list
// plus the absorbed shard's store and list, each store once. A split shares
// every store with the sibling that may later be re-absorbed, so plain
// appends would double the list per split/merge cycle. The absorbed store
// is kept even when it is the survivor's own (a re-absorbed split sibling),
// as plain appends did: stats() then counts that store twice, and that is
// what steers fair-share compaction policies (E26's) to the shards that
// went through a split and a merge, whose stores carry both operations'
// garbage; without it those shards are compacted less and peak arena rises.
template <typename StoreT>
void keep_alive_once(std::vector<std::shared_ptr<const StoreT>>& keep,
                     std::shared_ptr<const StoreT> absorbed_store,
                     const std::vector<std::shared_ptr<const StoreT>>& absorbed) {
  const auto add = [&](const std::shared_ptr<const StoreT>& s) {
    if (std::find(keep.begin(), keep.end(), s) == keep.end()) keep.push_back(s);
  };
  add(absorbed_store);
  for (const auto& s : absorbed) add(s);
}

// Await every cell reachable from every pinned root (structure cells, and
// aug cells when the entry is augmented), then write *done = 1. Spawn it;
// the caller co_awaits (or wait_blocking()s) the done cell.
template <typename StoreT, typename CellT>
Fiber quiesce_fiber(std::vector<Pinned<StoreT, CellT>> pins,
                    FutCell<int>* done) {
  using NodeT = std::remove_pointer_t<typename CellT::value_type>;
  std::vector<CellT*> stack;
  for (const Pinned<StoreT, CellT>& p : pins) stack.push_back(p.root);
  while (!stack.empty()) {
    CellT* c = stack.back();
    stack.pop_back();
    NodeT* n = co_await *c;
    if (n == nullptr) continue;
    if constexpr (NodeT::Entry::kHasAug) co_await *n->aug;
    if (!pipelined::treap::is_leaf(n)) {
      stack.push_back(n->left);
      stack.push_back(n->right);
    }
  }
  done->write(1);
}

// Point lookup forcing only the search path (the same descent as
// treap_walk.hpp's lookup, awaiting instead of blocking); writes the
// Probe into *out. Pipelines with in-flight batches chained before the pin
// was taken — the paper's consumer descending into a producer's half-built
// tree, now without holding a worker hostage.
template <typename StoreT, typename CellT, typename V>
Fiber probe_fiber(Pinned<StoreT, CellT> pin, pipelined::treap::Key k,
                  FutCell<Probe<V>>* out) {
  using NodeT = std::remove_pointer_t<typename CellT::value_type>;
  CellT* c = pin.root;
  for (;;) {
    NodeT* n = co_await *c;
    if (n == nullptr) {
      out->write(Probe<V>{});
      co_return;
    }
    if (pipelined::treap::is_leaf(n)) {
      const auto* e = n->items;
      std::uint32_t lo = 0, hi = n->count;
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (e[mid].key < k)
          lo = mid + 1;
        else
          hi = mid;
      }
      Probe<V> r{};
      if (lo < n->count && e[lo].key == k) {
        r.value = e[lo].value;
        r.found = true;
      }
      out->write(r);
      co_return;
    }
    if (k < n->key) {
      c = n->left;
    } else if (k > n->key) {
      c = n->right;
    } else {
      out->write(Probe<V>{n->value, true});
      co_return;
    }
  }
}

}  // namespace pwf::rt::rtasync
