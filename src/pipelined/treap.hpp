// Single-source treaps (the paper's Sections 3.2–3.3) — splitm, union,
// join, difference, intersection, plus the strict fork-join baselines —
// written once against the substrate concept (docs/substrates.md) and
// instantiated by src/treap (cost model), src/runtime/rt_treap (coroutine
// runtime sets) and src/runtime/rt_map (coroutine runtime maps).
//
// Every body is parameterized on an Entry policy E (treap_entry.hpp):
//   * SetEntry keeps the paper's key-only semantics — all payload and
//     augmentation statements are `if constexpr`-dead, so the recorded
//     cost-model counts are bit-identical to the key-only formulation;
//   * MapEntry<V> carries a value; union takes a Merge functor applied in
//     *operand* order (merge(value_in_a, value_in_b), tracked by `flip`
//     across the priority swaps), difference drops b's values;
//   * AugEntry adds a PAM-style augmentation: each node owns one extra
//     future cell holding combine() over its subtree, recomputed by a
//     forked aug_into fiber per rebuilt node — the aggregate flows through
//     the same pipelined DAG as the structure itself (docs/augmentation.md).
//
// Priorities are derived from keys by hashing (splitmix64 with a store-wide
// salt), so a key has the same priority in every treap of a store; this
// preserves the paper's randomness assumption because the hash is a PRF of
// the key. The hash is computed once per key at build time and cached in the
// node / leaf-entry record; the hot bodies below only ever compare cached
// priorities.
//
// Storage is B-treap-style (docs/storage.md): internal nodes keep the
// key/priority/child layout in one cache line, while subtrees below the
// store's leaf capacity collapse into sorted flat chunks of LeafEntryT that
// the serial fast paths process branch-free. Substrates opt in through
// P::kMaxLeafCapacity — the cost model pins it to 0, so every leaf branch is
// `if constexpr`-dead there and the recorded DAG counts stay bit-identical.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "pipelined/exec.hpp"
#include "pipelined/treap_entry.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace pwf::pipelined::treap {

template <typename P, typename E = SetEntry>
struct Node;

template <typename P, typename E = SetEntry>
using Cell = typename P::template Cell<Node<P, E>*>;

// One key of a flat leaf chunk. The priority is cached alongside the key so
// re-chunking (slices, merges, joins) never rehashes; the value column
// vanishes for key-only entries.
template <typename E>
struct LeafEntryT {
  Key key = 0;
  Pri pri = 0;
  [[no_unique_address]] typename E::Value value{};
};

// Key-only alias, kept for the set-facade code that scans chunks directly.
using LeafEntry = LeafEntryT<SetEntry>;

namespace detail {

// Augmented nodes own one extra future cell: the subtree aggregate, written
// by the aug_into fiber (or preset by the chunk builders). Empty base for
// unaugmented entries so the node layout doesn't move.
template <typename P, typename E, bool = E::kHasAug>
struct AugBase {};

template <typename P, typename E>
struct AugBase<P, E, true> {
  typename P::template Cell<typename E::AugOps::Aug>* aug = nullptr;
};

}  // namespace detail

// A node is either *internal* (items == nullptr; left/right are cells) or a
// *leaf view* (items != nullptr; left/right unused): a window [items,
// items+count) into an immutable, key-sorted, arena-backed entry array. A
// leaf's key/pri/value mirror its maximum-priority entry (items[root_pos]) —
// the root the subtree would have had — so every priority comparison in the
// bodies below works on leaves unchanged.
template <typename P, typename E>
struct Node : detail::AugBase<P, E> {
  using Policy = P;
  using Entry = E;

  Key key = 0;
  Pri pri = 0;
  [[no_unique_address]] typename E::Value value{};
  typename P::Time created{};  // t(v) (cost model only)
  Cell<P, E>* left = nullptr;
  Cell<P, E>* right = nullptr;
  const LeafEntryT<E>* items = nullptr;  // leaf view into a sorted chunk
  std::uint32_t count = 0;               // number of entries in the view
  std::uint32_t root_pos = 0;            // index of the max-priority entry
};

template <typename P, typename E>
bool is_leaf(const Node<P, E>* n) {
  return n != nullptr && n->items != nullptr;
}

inline constexpr std::uint64_t kDefaultSalt = 0x9e3779b97f4a7c15ULL;

// Default flat-chunk capacity: picked by the bench_e19 --leaf-cap sweep
// (BENCH_e19.json); tunable per Store.
inline constexpr std::size_t kDefaultLeafCapacity = 32;

template <typename P, typename E = SetEntry>
class Store {
 public:
  using Context = typename P::Context;
  using Entry = E;
  using Value = typename E::Value;
  using AugValue = typename AugTraits<E>::Aug;

  // Internal nodes must stay within one cache line — the point of caching
  // the priority and packing the leaf view into the node record. Augmented
  // nodes spend one extra pointer on the aggregate cell; payloads beyond a
  // word trade the line for locality of the payload itself.
  static_assert(E::kHasAug || sizeof(Value) > 8 || sizeof(Node<P, E>) <= 64,
                "treap::Node must fit in a 64-byte cache line");

  explicit Store(Context ctx, std::uint64_t salt = kDefaultSalt,
                 std::size_t leaf_cap = kDefaultLeafCapacity)
      : ctx_(std::move(ctx)), salt_(salt), leaf_cap_(clamp_cap(leaf_cap)) {}
  explicit Store(std::uint64_t salt = kDefaultSalt,
                 std::size_t leaf_cap = kDefaultLeafCapacity)
    requires std::default_initializable<Context>
      : salt_(salt), leaf_cap_(clamp_cap(leaf_cap)) {}

  decltype(auto) engine() { return ctx_.engine(); }

  Pri priority(Key k) const {
    std::uint64_t x = static_cast<std::uint64_t>(k) ^ salt_;
    return splitmix64(x);
  }

  // Effective flat-chunk capacity: 1 means "no chunking" (every key is its
  // own node); the substrate's kMaxLeafCapacity bounds it from above.
  std::size_t leaf_capacity() const { return leaf_cap_; }

  Cell<P, E>* cell() { return arena_.template create<Cell<P, E>>(); }

  Cell<P, E>* input(Node<P, E>* root) {
    Cell<P, E>* c = cell();
    P::preset(*c, root);
    return c;
  }

  Node<P, E>* make(Key key, Pri pri, Cell<P, E>* l, Cell<P, E>* r) {
    Node<P, E>* n = create_node();
    n->key = key;
    n->pri = pri;
    n->left = l;
    n->right = r;
    return n;
  }

  Node<P, E>* make(Key key, Pri pri) { return make(key, pri, cell(), cell()); }

  Node<P, E>* make_ready(Key key, Pri pri, Node<P, E>* l, Node<P, E>* r) {
    return make(key, pri, input(l), input(r));
  }

  // 64-byte-aligned chunk storage for leaf entries.
  LeafEntryT<E>* alloc_entries(std::size_t n) {
    return static_cast<LeafEntryT<E>*>(
        arena_.allocate(n * sizeof(LeafEntryT<E>), 64));
  }

  // Leaf view over base[lo, hi) (hi > lo); scans for the max-priority entry.
  // The chunk is fully materialized data, so an augmented leaf's aggregate
  // is preset here — leaf aug cells are *always* readable.
  Node<P, E>* make_leaf(const LeafEntryT<E>* base, std::uint32_t lo,
                        std::uint32_t hi) {
    std::uint32_t rp = lo;
    for (std::uint32_t i = lo + 1; i < hi; ++i)
      if (base[i].pri > base[rp].pri) rp = i;
    Node<P, E>* n = create_node();
    n->key = base[rp].key;
    n->pri = base[rp].pri;
    n->value = base[rp].value;
    n->items = base + lo;
    n->count = hi - lo;
    n->root_pos = rp - lo;
    if constexpr (E::kHasAug) {
      using Ops = typename E::AugOps;
      AugValue acc = Ops::identity();
      for (std::uint32_t i = lo; i < hi; ++i)
        acc = Ops::combine(acc, Ops::from_entry(base[i].key, base[i].value));
      P::preset(*n->aug, acc);
    }
    return n;
  }

  // Treap over the sorted, duplicate-free entries base[0, n): subtrees of
  // at most `cap` entries collapse into flat chunks, larger ones get an
  // internal node at their max-priority entry, ties to the leftmost (cap 0:
  // node per key). Up to kTopDownMax entries the range recursion builds it:
  // its max-priority scans run in cache and beat the stack pass's
  // unpredictable pops on batches and re-chunked leaves. Larger arrays —
  // compaction's whole-tree rebuilds — take one Cartesian-tree stack pass,
  // O(n), where the recursion would re-read an array that no longer fits in
  // cache once per level (measurements in docs/storage.md). Both make the
  // same tree. Aggregates are preset bottom-up (children are complete when
  // the parent is made).
  static constexpr std::size_t kTopDownMax = std::size_t{1} << 15;

  Node<P, E>* shape(const LeafEntryT<E>* base, std::size_t n,
                    std::size_t cap) {
    if (n <= kTopDownMax)
      return top_down(base, 0, static_cast<std::uint32_t>(n), cap);
    return cartesian(base, n, cap);
  }

  // The internal node holding entry e over finished children l and r.
  Node<P, E>* make_inner(const LeafEntryT<E>& e, Node<P, E>* l,
                         Node<P, E>* r) {
    Node<P, E>* n = make(e.key, e.pri, input(l), input(r));
    n->value = e.value;
    if constexpr (E::kHasAug) {
      using Ops = typename E::AugOps;
      AugValue acc = Ops::identity();
      if (l != nullptr) acc = Ops::combine(acc, P::peek(l->aug));
      acc = Ops::combine(acc, Ops::from_entry(e.key, e.value));
      if (r != nullptr) acc = Ops::combine(acc, P::peek(r->aug));
      P::preset(*n->aug, acc);
    }
    return n;
  }

  Node<P, E>* top_down(const LeafEntryT<E>* base, std::uint32_t lo,
                       std::uint32_t hi, std::size_t cap) {
    if (lo == hi) return nullptr;
    if (hi - lo <= cap) return make_leaf(base, lo, hi);
    std::uint32_t rp = lo;
    for (std::uint32_t i = lo + 1; i < hi; ++i)
      if (base[i].pri > base[rp].pri) rp = i;
    Node<P, E>* l = top_down(base, lo, rp, cap);
    Node<P, E>* r = top_down(base, rp + 1, hi, cap);
    return make_inner(base[rp], l, r);
  }

  // The stack pass: a node is finished the moment a higher-priority entry
  // pops it, so it is built bottom-up right there — or left as a bare entry
  // range while its subtree still fits one chunk.
  Node<P, E>* cartesian(const LeafEntryT<E>* base, std::size_t n,
                        std::size_t cap) {
    // A finished subtree: the entry range [lo, hi), built as `node` once it
    // outgrows a chunk (node == nullptr: still a bare range).
    struct Sub {
      std::uint32_t lo, hi;
      Node<P, E>* node;
    };
    struct Open {
      std::uint32_t at;  // the entry this node holds
      Sub left;          // its finished left subtree
    };
    const auto realize = [&](const Sub& s) -> Node<P, E>* {
      if (s.node != nullptr || s.lo == s.hi) return s.node;
      return make_leaf(base, s.lo, s.hi);
    };
    const auto close = [&](const Open& o, const Sub& right) -> Sub {
      Sub s{o.left.lo, right.hi, nullptr};
      if (s.hi - s.lo <= cap) return s;
      Node<P, E>* l = realize(o.left);
      Node<P, E>* r = realize(right);
      s.node = make_inner(base[o.at], l, r);
      return s;
    };
    std::vector<Open> spine;
    spine.reserve(64);
    for (std::uint32_t i = 0; i < n; ++i) {
      Sub done{i, i, nullptr};
      while (!spine.empty() && base[spine.back().at].pri < base[i].pri) {
        done = close(spine.back(), done);
        spine.pop_back();
      }
      spine.push_back({i, done});
    }
    Sub done{static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(n),
             nullptr};
    while (!spine.empty()) {
      done = close(spine.back(), done);
      spine.pop_back();
    }
    return realize(done);
  }

  // The chunked treap over a merged or rebuilt entry array of this store.
  Node<P, E>* chunked(const LeafEntryT<E>* base, std::uint32_t n) {
    return shape(base, n, leaf_cap_);
  }

  // Treap over `n` key-sorted, duplicate-free entries that fill(entries)
  // writes — key, cached priority and value each. With chunking enabled the
  // array lives in the arena and the leaf chunks view it; otherwise it is
  // scratch for the node-per-key build.
  template <typename Fill>
  Node<P, E>* build_entries(std::size_t n, Fill fill) {
    if (n == 0) return nullptr;
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (leaf_cap_ > 1) {
        LeafEntryT<E>* e = alloc_entries(n);
        fill(e);
        return chunked(e, static_cast<std::uint32_t>(n));
      }
    }
    std::vector<LeafEntryT<E>> scratch(n);
    fill(scratch.data());
    return shape(scratch.data(), n, 0);
  }

  // Builds a treap over the given keys (input data; costs nothing in the
  // model). Keys are sorted and deduplicated unless they already ascend
  // strictly (the facades' batches do); each priority is hashed once.
  Node<P, E>* build(std::span<const Key> keys) {
    if (!std::is_sorted(keys.begin(), keys.end(), std::less_equal<Key>())) {
      std::vector<Key> sorted(keys.begin(), keys.end());
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      return build(sorted);
    }
    return build_entries(keys.size(), [&](LeafEntryT<E>* e) {
      for (std::size_t i = 0; i < keys.size(); ++i)
        e[i] = {keys[i], priority(keys[i])};
    });
  }

  // Construction over key-sorted, duplicate-free (key, value) items (input
  // data).
  Node<P, E>* build(std::span<const std::pair<Key, Value>> sorted)
    requires(E::kHasValue)
  {
    return build_entries(sorted.size(), [&](LeafEntryT<E>* e) {
      for (std::size_t i = 0; i < sorted.size(); ++i)
        e[i] = {sorted[i].first, priority(sorted[i].first), sorted[i].second};
    });
  }

  std::size_t bytes_used() const { return arena_.bytes_used(); }

  // Arena monitoring passthrough; only instantiated for arenas that track
  // padding (the runtime's ConcurrentArena).
  std::size_t wasted_padding() const { return arena_.wasted_padding(); }

  // Leaf-chunk operations (merge/split/concat of flat runs) performed
  // against this store, across all substrates and both the serial and
  // pipelined paths. Relaxed: a monitoring counter, like arena bytes.
  void note_leaf_op() const {
    leaf_ops_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t leaf_ops() const {
    return leaf_ops_.load(std::memory_order_relaxed);
  }

 private:
  Node<P, E>* create_node() {
    Node<P, E>* n = arena_.template create<Node<P, E>>();
    if constexpr (E::kHasAug)
      n->aug = arena_.template create<
          typename P::template Cell<typename E::AugOps::Aug>>();
    return n;
  }

  static std::size_t clamp_cap(std::size_t req) {
    if constexpr (P::kMaxLeafCapacity == 0) {
      return 1;
    } else {
      return std::min(std::max<std::size_t>(req, 1), P::kMaxLeafCapacity);
    }
  }

  Context ctx_;
  std::uint64_t salt_ = kDefaultSalt;
  std::size_t leaf_cap_ = 1;
  mutable std::atomic<std::uint64_t> leaf_ops_{0};
  typename P::Arena arena_;
};

// Publishes a node into its destination cell, stamping t(v) where the
// substrate keeps timestamps.
template <typename Ex, typename P, typename E>
void publish(Ex ex, Cell<P, E>* out, Node<P, E>* n) {
  ex.write(out, n);
  if constexpr (P::kHasTimestamps) {
    if (n) n->created = out->ts;
  }
}

template <typename P, typename C>
auto peek(const C* c) {
  return P::peek(c);
}

// ---- augmentation -----------------------------------------------------------

// Recomputes one rebuilt internal node's aggregate from its children. This
// is itself a pipelined consumer: it touches the child cells and the child
// aggregate cells, so the aggregate flows bottom-up through the same future
// DAG as the structure (the paper's pipelining argument, applied to PAM-style
// augmentation). Leaf chunks never get here — their aggregates are preset by
// make_leaf. Note the deliberate CREW reads: an aug fiber re-reads cells the
// structural fibers also read, so augmented traces are verified with the
// EREW/linearity checks relaxed (docs/augmentation.md).
template <typename Ex, typename P, typename E>
Fiber aug_into(Ex ex, Node<P, E>* n) {
  using Ops = typename E::AugOps;
  typename E::AugOps::Aug acc = Ops::identity();
  Node<P, E>* l = co_await ex.touch(n->left);
  if (l != nullptr) acc = Ops::combine(acc, co_await ex.touch(l->aug));
  acc = Ops::combine(acc, Ops::from_entry(n->key, n->value));
  Node<P, E>* r = co_await ex.touch(n->right);
  if (r != nullptr) acc = Ops::combine(acc, co_await ex.touch(r->aug));
  ex.on_aug_op();
  ex.write(n->aug, acc);
}

namespace detail {

// Deferred aug_into forks for the progressive bodies (splitm, join): their
// nodes are published *before* the child cells are written, so the aug
// fibers can only be forked at the body's exits — in reverse creation order,
// because later nodes are descendants of earlier ones and the eager
// substrates require a valid topological fork order. Empty (and free) for
// unaugmented entries.
template <typename P, typename E, bool = E::kHasAug>
struct AugPending {
  void add(Node<P, E>*) {}
  template <typename Ex>
  void flush(Ex) {}
};

template <typename P, typename E>
struct AugPending<P, E, true> {
  std::vector<Node<P, E>*> nodes;
  void add(Node<P, E>* n) { nodes.push_back(n); }
  template <typename Ex>
  void flush(Ex ex) {
    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it)
      ex.fork(aug_into(ex, *it));
    nodes.clear();
  }
};

// Forks the aggregate recomputation for one freshly built node whose child
// cells are already linked (the non-progressive creation sites).
template <typename Ex, typename P, typename E>
void fork_aug(Ex ex, Node<P, E>* n) {
  if constexpr (E::kHasAug) ex.fork(aug_into(ex, n));
}

}  // namespace detail

// ---- serial fast paths (granularity control) --------------------------------
//
// Plain recursive counterparts of the pipelined bodies, taken when one
// operand is small and fully written and every cell the serial body will
// read in the other one is written too (serial_avail below). Unlike the
// strict baselines below, these mirror the *pipelined* semantics exactly —
// including value and aggregate propagation — so the published result is
// indistinguishable from the one the forked path would build. They take the
// executor for the leaf-op hook and for aggregates: a node whose children's
// aggregates are already written gets its own computed in place, otherwise
// (a child shared with a pre-existing tree may still have its aggregate in
// flight on the runtime substrate) an aggregate fiber is forked. Dead on the
// cost-model substrates (threshold 0), as is every leaf branch
// (kMaxLeafCapacity 0).

namespace detail {

inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

// Whether the tree `n` is fully written and holds at most `budget` keys
// (leaf entries count one each). Stops at the first node past the budget,
// so a large operand costs a few node visits, not `budget` keys.
template <typename P, typename E>
bool fits(const Node<P, E>* n, std::size_t& budget) {
  if (n == nullptr) return true;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (n->items != nullptr) {  // leaf chunks are always complete
      if (n->count > budget) return false;
      budget -= n->count;
      return true;
    }
  }
  if (budget == 0 || !P::ready(n->left) || !P::ready(n->right)) return false;
  --budget;
  return fits(P::peek(n->left), budget) && fits(P::peek(n->right), budget);
}

// Appends the keys of the fully written tree `n` to `out` in order.
template <typename P, typename E>
void append_keys(const Node<P, E>* n, std::vector<Key>& out) {
  if (n == nullptr) return;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (n->items != nullptr) {
      for (std::uint32_t i = 0; i < n->count; ++i)
        out.push_back(n->items[i].key);
      return;
    }
  }
  append_keys(P::peek(n->left), out);
  out.push_back(n->key);
  append_keys(P::peek(n->right), out);
}

// Both child cells of every node on one spine of `n` (right: the right
// spine) — what a join walks.
template <typename P, typename E>
bool spine_avail(const Node<P, E>* n, bool right) {
  for (; n != nullptr && !is_leaf(n); n = P::peek(right ? n->right : n->left))
    if (!P::ready(n->left) || !P::ready(n->right)) return false;
  return true;
}

// Every cell a serial body reads in the larger operand `n` on behalf of the
// sorted keys [lo, hi) of the smaller one: both child cells of each node on
// their search paths and, past a node holding one of the keys, of the two
// spines a join of its sides walks. Subtrees no key leads into are never
// read — the serial bodies link them into the result by their cells.
template <typename P, typename E>
bool paths_avail(const Node<P, E>* n, const Key* lo, const Key* hi) {
  while (lo != hi && n != nullptr && !is_leaf(n)) {
    if (!P::ready(n->left) || !P::ready(n->right)) return false;
    const Key* mid = std::lower_bound(lo, hi, n->key);
    const Key* past = mid;
    if (mid != hi && *mid == n->key) {
      ++past;
      if (!spine_avail(P::peek(n->left), true) ||
          !spine_avail(P::peek(n->right), false))
        return false;
    }
    if (!paths_avail(P::peek(n->left), lo, mid)) return false;
    n = P::peek(n->right);
    lo = past;
  }
  return true;
}

// The granularity test of every two-operand body: one operand holds at most
// `thr` keys, all written, and the cells the serial body reads in the other
// one are written. Cost O(thr + m lg n) at most; a miss falls back to the
// pipelined fork, so pipelining is untouched wherever it is live.
template <typename P, typename E>
bool serial_avail(const Node<P, E>* a, const Node<P, E>* b, std::size_t thr) {
  thread_local std::vector<Key> keys;
  for (int side = 0; side < 2; ++side, std::swap(a, b)) {
    std::size_t budget = thr;
    if (!fits(a, budget)) continue;
    keys.clear();
    append_keys(a, keys);
    return paths_avail(b, keys.data(), keys.data() + keys.size());
  }
  return false;
}

template <typename P, typename E>
struct SerialSplit {
  Node<P, E>* less = nullptr;
  Node<P, E>* greater = nullptr;
  Node<P, E>* equal = nullptr;
};

// ---- leaf-chunk primitives --------------------------------------------------
//
// Only instantiated when P::kMaxLeafCapacity > 0. All of them operate on the
// immutable entry arrays, so slices share storage with their source leaf and
// only merges/joins allocate new chunks. The ones that do chunk work report
// it (ex.on_leaf_op with the keys covered, plus the store's own counter) on
// every path that calls them: pipelined, serial and strict.

// Sub-view of a leaf, [lo, hi) relative to leaf->items. Empty -> nullptr.
template <typename P, typename E>
Node<P, E>* leaf_slice(Store<P, E>& st, const Node<P, E>* leaf,
                       std::uint32_t lo, std::uint32_t hi) {
  if (lo >= hi) return nullptr;
  return st.make_leaf(leaf->items, lo, hi);
}

// The subtree a leaf's root entry would have on each side.
template <typename P, typename E>
Node<P, E>* left_part(Store<P, E>& st, Node<P, E>* t) {
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t)) return leaf_slice(st, t, 0, t->root_pos);
  }
  return peek<P>(t->left);
}

template <typename P, typename E>
Node<P, E>* right_part(Store<P, E>& st, Node<P, E>* t) {
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t)) return leaf_slice(st, t, t->root_pos + 1, t->count);
  }
  return peek<P>(t->right);
}

// Rewrites a leaf as an internal node (same key/pri/value, preset side
// slices) so the pipelined bodies can hand out child cells. The opened node
// is only ever consumed as an operand (never published), but its aggregate
// is preset anyway — copied from the leaf — so every node keeps the "aug
// cell readable or in flight" invariant.
template <typename P, typename E>
Node<P, E>* open_leaf(Store<P, E>& st, Node<P, E>* t) {
  Node<P, E>* n = st.make(t->key, t->pri, st.input(left_part(st, t)),
                          st.input(right_part(st, t)));
  n->value = t->value;
  if constexpr (E::kHasAug) P::preset(*n->aug, P::peek(t->aug));
  return n;
}

// splitm on a flat chunk: one binary search, two zero-copy slices. The equal
// verdict is a one-entry leaf view carrying the value (the set path only
// null-checks it).
template <typename Ex, typename P, typename E>
SerialSplit<P, E> split_leaf(Ex ex, Store<P, E>& st, Key s,
                             const Node<P, E>* t) {
  ex.on_leaf_op(t->count);
  st.note_leaf_op();
  const LeafEntryT<E>* e = t->items;
  const std::uint32_t n = t->count;
  std::uint32_t lo = 0, hi = n;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (e[mid].key < s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  SerialSplit<P, E> out;
  out.less = leaf_slice(st, t, 0, lo);
  if (lo < n && e[lo].key == s) {
    out.equal = st.make_leaf(e, lo, lo + 1);
    out.greater = leaf_slice(st, t, lo + 1, n);
  } else {
    out.greater = leaf_slice(st, t, lo, n);
  }
  return out;
}

// Sorted-array union of two chunks; a shared key keeps
// merge(value_in_a, value_in_b) (`flip` says (a, b) arrived swapped relative
// to the caller's operand order). Re-chunks the merged array (an internal
// spine appears only above the capacity).
template <typename Ex, typename P, typename E, typename Merge>
Node<P, E>* leaf_union(Ex ex, Store<P, E>& st, const Node<P, E>* a,
                       const Node<P, E>* b, Merge merge, bool flip) {
  ex.on_leaf_op(a->count + b->count);
  st.note_leaf_op();
  LeafEntryT<E>* out = st.alloc_entries(a->count + b->count);
  const LeafEntryT<E>* x = a->items;
  const LeafEntryT<E>* xe = x + a->count;
  const LeafEntryT<E>* y = b->items;
  const LeafEntryT<E>* ye = y + b->count;
  LeafEntryT<E>* w = out;
  while (x != xe && y != ye) {
    prefetch(x + 4);
    prefetch(y + 4);
    if (x->key < y->key) {
      *w++ = *x++;
    } else if (y->key < x->key) {
      *w++ = *y++;
    } else {
      *w = *x;
      w->value = flip ? merge(y->value, x->value) : merge(x->value, y->value);
      ++w;
      ++x;
      ++y;
    }
  }
  while (x != xe) *w++ = *x++;
  while (y != ye) *w++ = *y++;
  return st.chunked(out, static_cast<std::uint32_t>(w - out));
}

// Sorted-array difference a \ b (b's values are irrelevant).
template <typename Ex, typename P, typename E>
Node<P, E>* leaf_diff(Ex ex, Store<P, E>& st, const Node<P, E>* a,
                      const Node<P, E>* b) {
  ex.on_leaf_op(a->count + b->count);
  st.note_leaf_op();
  LeafEntryT<E>* out = st.alloc_entries(a->count);
  const LeafEntryT<E>* x = a->items;
  const LeafEntryT<E>* xe = x + a->count;
  const LeafEntryT<E>* y = b->items;
  const LeafEntryT<E>* ye = y + b->count;
  LeafEntryT<E>* w = out;
  while (x != xe && y != ye) {
    prefetch(x + 4);
    prefetch(y + 4);
    if (x->key < y->key) {
      *w++ = *x++;
    } else if (y->key < x->key) {
      ++y;
    } else {
      ++x;
      ++y;
    }
  }
  while (x != xe) *w++ = *x++;
  return st.chunked(out, static_cast<std::uint32_t>(w - out));
}

// Sorted-array intersection (a's values survive).
template <typename Ex, typename P, typename E>
Node<P, E>* leaf_intersect(Ex ex, Store<P, E>& st, const Node<P, E>* a,
                           const Node<P, E>* b) {
  ex.on_leaf_op(a->count + b->count);
  st.note_leaf_op();
  LeafEntryT<E>* out = st.alloc_entries(std::min(a->count, b->count));
  const LeafEntryT<E>* x = a->items;
  const LeafEntryT<E>* xe = x + a->count;
  const LeafEntryT<E>* y = b->items;
  const LeafEntryT<E>* ye = y + b->count;
  LeafEntryT<E>* w = out;
  while (x != xe && y != ye) {
    prefetch(x + 4);
    prefetch(y + 4);
    if (x->key < y->key) {
      ++x;
    } else if (y->key < x->key) {
      ++y;
    } else {
      *w++ = *x++;
      ++y;
    }
  }
  return st.chunked(out, static_cast<std::uint32_t>(w - out));
}

// join of two chunks (all of a's keys < all of b's): flat concatenation.
template <typename Ex, typename P, typename E>
Node<P, E>* leaf_concat(Ex ex, Store<P, E>& st, const Node<P, E>* a,
                        const Node<P, E>* b) {
  ex.on_leaf_op(a->count + b->count);
  st.note_leaf_op();
  LeafEntryT<E>* out = st.alloc_entries(a->count + b->count);
  std::memcpy(out, a->items, a->count * sizeof(LeafEntryT<E>));
  std::memcpy(out + a->count, b->items, b->count * sizeof(LeafEntryT<E>));
  return st.chunked(out, a->count + b->count);
}

// ---- serial recursive bodies ------------------------------------------------

// The aggregate of a node a serial body just built: computed in place when
// both children's aggregates are written (always so for the body's own
// nodes, which are finished bottom-up), forked otherwise. Written, not
// preset: the node may already be published and a reader parked on it.
template <typename Ex, typename P, typename E>
void settle_aug(Ex ex, Node<P, E>* n) {
  if constexpr (E::kHasAug) {
    using Ops = typename E::AugOps;
    const auto aug_ready = [](const Cell<P, E>* c) {
      if (!P::ready(c)) return false;
      const Node<P, E>* child = P::peek(c);
      return child == nullptr || P::ready(child->aug);
    };
    if (!aug_ready(n->left) || !aug_ready(n->right)) {
      ex.fork(aug_into(ex, n));
      return;
    }
    const Node<P, E>* l = P::peek(n->left);
    const Node<P, E>* r = P::peek(n->right);
    typename Ops::Aug acc = Ops::identity();
    if (l != nullptr) acc = Ops::combine(acc, P::peek(l->aug));
    acc = Ops::combine(acc, Ops::from_entry(n->key, n->value));
    if (r != nullptr) acc = Ops::combine(acc, P::peek(r->aug));
    ex.on_aug_op();
    ex.write(n->aug, acc);
  }
}

template <typename Ex, typename P, typename E>
SerialSplit<P, E> splitm_serial(Ex ex, Store<P, E>& st, Key s, Node<P, E>* t) {
  if (t == nullptr) return {};
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t)) return split_leaf(ex, st, s, t);
  }
  if (s < t->key) {
    SerialSplit<P, E> sub = splitm_serial(ex, st, s, peek<P>(t->left));
    sub.greater = st.make(t->key, t->pri, st.input(sub.greater), t->right);
    sub.greater->value = t->value;
    settle_aug(ex, sub.greater);
    return sub;
  }
  if (s > t->key) {
    SerialSplit<P, E> sub = splitm_serial(ex, st, s, peek<P>(t->right));
    sub.less = st.make(t->key, t->pri, t->left, st.input(sub.less));
    sub.less->value = t->value;
    settle_aug(ex, sub.less);
    return sub;
  }
  return {peek<P>(t->left), peek<P>(t->right), t};
}

template <typename Ex, typename P, typename E>
Node<P, E>* join_serial(Ex ex, Store<P, E>& st, Node<P, E>* t1,
                        Node<P, E>* t2) {
  if (t1 == nullptr) return t2;
  if (t2 == nullptr) return t1;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t1) && is_leaf(t2)) return leaf_concat(ex, st, t1, t2);
  }
  Node<P, E>* res;
  if (t1->pri >= t2->pri) {
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t1)) t1 = open_leaf(st, t1);
    }
    Node<P, E>* j = join_serial(ex, st, peek<P>(t1->right), t2);
    res = st.make(t1->key, t1->pri, t1->left, st.input(j));
    res->value = t1->value;
  } else {
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t2)) t2 = open_leaf(st, t2);
    }
    Node<P, E>* j = join_serial(ex, st, t1, peek<P>(t2->left));
    res = st.make(t2->key, t2->pri, st.input(j), t2->right);
    res->value = t2->value;
  }
  settle_aug(ex, res);
  return res;
}

// Union, published top-down like the pipelined body but without a fork:
// each result node is written to its cell as soon as its key, priority and
// value are known, before its subtrees are built, so a batch chained behind
// this one (or a point probe) can descend into the finished part while the
// rest is still being built.
template <typename Ex, typename P, typename E, typename Merge>
void union_serial(Ex ex, Store<P, E>& st, Node<P, E>* ta, Node<P, E>* tb,
                  Cell<P, E>* out, Merge merge, bool flip) {
  if (ta == nullptr || tb == nullptr) {
    publish(ex, out, ta == nullptr ? tb : ta);
    return;
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(ta) && is_leaf(tb)) {
      publish(ex, out, leaf_union(ex, st, ta, tb, merge, flip));
      return;
    }
  }
  if (ta->pri < tb->pri) {
    std::swap(ta, tb);
    flip = !flip;
  }
  SerialSplit<P, E> s = splitm_serial(ex, st, ta->key, tb);
  Node<P, E>* res = st.make(ta->key, ta->pri);
  res->value = ta->value;
  if constexpr (E::kHasValue) {
    if (s.equal != nullptr)
      res->value = flip ? merge(s.equal->value, ta->value)
                        : merge(ta->value, s.equal->value);
  }
  publish(ex, out, res);
  union_serial(ex, st, left_part(st, ta), s.less, res->left, merge, flip);
  union_serial(ex, st, right_part(st, ta), s.greater, res->right, merge, flip);
  settle_aug(ex, res);
}

template <typename Ex, typename P, typename E>
Node<P, E>* diff_serial(Ex ex, Store<P, E>& st, Node<P, E>* t1,
                        Node<P, E>* t2) {
  if (t1 == nullptr) return nullptr;
  if (t2 == nullptr) return t1;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t1) && is_leaf(t2)) return leaf_diff(ex, st, t1, t2);
  }
  SerialSplit<P, E> s = splitm_serial(ex, st, t1->key, t2);
  Node<P, E>* l = diff_serial(ex, st, left_part(st, t1), s.less);
  Node<P, E>* r = diff_serial(ex, st, right_part(st, t1), s.greater);
  if (s.equal != nullptr) return join_serial(ex, st, l, r);
  Node<P, E>* res = st.make_ready(t1->key, t1->pri, l, r);
  res->value = t1->value;
  settle_aug(ex, res);
  return res;
}

template <typename Ex, typename P, typename E>
Node<P, E>* intersect_serial(Ex ex, Store<P, E>& st, Node<P, E>* ta,
                             Node<P, E>* tb) {
  if (ta == nullptr || tb == nullptr) return nullptr;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(ta) && is_leaf(tb)) return leaf_intersect(ex, st, ta, tb);
  }
  if (ta->pri < tb->pri) std::swap(ta, tb);
  SerialSplit<P, E> s = splitm_serial(ex, st, ta->key, tb);
  Node<P, E>* l = intersect_serial(ex, st, left_part(st, ta), s.less);
  Node<P, E>* r = intersect_serial(ex, st, right_part(st, ta), s.greater);
  if (s.equal == nullptr) return join_serial(ex, st, l, r);
  Node<P, E>* res = st.make_ready(ta->key, ta->pri, l, r);
  res->value = ta->value;
  settle_aug(ex, res);
  return res;
}

}  // namespace detail

// ---- pipelined versions (Figures 4 and 7) -----------------------------------

// splitm (Figure 4): splits the available treap rooted at `t` by key `s`.
// Keys < s are published progressively under *outL, keys > s under *outR; a
// node with key == s is excluded from both and, when outEq != nullptr,
// delivered through it (nullptr if s was absent). outEq is written only when
// the traversal terminates — the "splitm completes as soon as it finds the
// splitter" behaviour diff depends on.
template <typename Ex, typename P, typename E>
Fiber splitm_from(Ex ex, Store<P, E>& st, Key s, Node<P, E>* t,
                  Cell<P, E>* outL, Cell<P, E>* outR, Cell<P, E>* outEq) {
  detail::AugPending<P, E> augs;
  for (;;) {
    if (t == nullptr) {
      ex.write(outL, static_cast<Node<P, E>*>(nullptr));
      ex.write(outR, static_cast<Node<P, E>*>(nullptr));
      if (outEq) ex.write(outEq, static_cast<Node<P, E>*>(nullptr));
      augs.flush(ex);
      co_return;
    }
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t)) {
        detail::SerialSplit<P, E> sp = detail::split_leaf(ex, st, s, t);
        publish(ex, outL, sp.less);
        publish(ex, outR, sp.greater);
        if (outEq) ex.write(outEq, sp.equal);
        augs.flush(ex);
        co_return;
      }
    }
    if (ex.serial_threshold() > 0) {
      if (detail::paths_avail(t, &s, &s + 1)) {
        ex.on_serial_cutoff();
        detail::SerialSplit<P, E> sp = detail::splitm_serial(ex, st, s, t);
        publish(ex, outL, sp.less);
        publish(ex, outR, sp.greater);
        if (outEq) ex.write(outEq, sp.equal);
        augs.flush(ex);
        co_return;
      }
    }
    ex.step();  // key comparison
    if (s < t->key) {
      Node<P, E>* keep = st.make(t->key, t->pri, st.cell(), t->right);
      keep->value = t->value;
      publish(ex, outR, keep);
      augs.add(keep);
      outR = keep->left;
      t = co_await ex.touch(t->left);
    } else if (s > t->key) {
      Node<P, E>* keep = st.make(t->key, t->pri, t->left, st.cell());
      keep->value = t->value;
      publish(ex, outL, keep);
      augs.add(keep);
      outL = keep->right;
      t = co_await ex.touch(t->right);
    } else {
      // Splitter found: its subtrees are the two sides; the node itself is
      // excluded (and reported through outEq for difference and the map
      // union's value merge).
      ex.write(outL, co_await ex.touch(t->left));
      ex.write(outR, co_await ex.touch(t->right));
      if (outEq) ex.write(outEq, t);
      augs.flush(ex);
      co_return;
    }
  }
}

// Pipelined union (Figure 4): keys of both treaps, duplicates removed, heap
// and BST order restored. Consumes both inputs. For value-carrying entries a
// shared key keeps merge(value_in_a, value_in_b) — operand order, tracked by
// `flip` across priority swaps — which requires waiting for splitm's equal
// verdict before publishing each root (the set path keeps the original
// publish-before-verdict pipeline, so its recorded counts don't move).
template <typename Ex, typename P, typename E, typename Merge = FirstWins>
Fiber union_into(Ex ex, Store<P, E>& st, Cell<P, E>* a, Cell<P, E>* b,
                 Cell<P, E>* out, Merge merge = {}, bool flip = false) {
  Node<P, E>* ta = co_await ex.touch(a);
  Node<P, E>* tb = co_await ex.touch(b);
  if (ta == nullptr) {
    publish(ex, out, tb);
    co_return;
  }
  if (tb == nullptr) {
    publish(ex, out, ta);
    co_return;
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(ta) && is_leaf(tb)) {
      publish(ex, out, detail::leaf_union(ex, st, ta, tb, merge, flip));
      co_return;
    }
  }
  if (const std::size_t thr = ex.serial_threshold(); thr > 0) {
    if (detail::serial_avail(ta, tb, thr)) {
      ex.on_serial_cutoff();
      detail::union_serial(ex, st, ta, tb, out, merge, flip);
      co_return;
    }
  }
  ex.step();  // priority comparison
  if (ta->pri < tb->pri) {  // higher priority becomes root
    std::swap(ta, tb);
    flip = !flip;
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(ta)) ta = detail::open_leaf(st, ta);
  }
  Node<P, E>* res = st.make(ta->key, ta->pri);
  res->value = ta->value;
  Cell<P, E>* l2 = st.cell();
  Cell<P, E>* r2 = st.cell();
  Cell<P, E>* eq = nullptr;
  if constexpr (E::kHasValue) eq = st.cell();
  const Key v = ta->key;
  ex.fork(splitm_from(ex, st, v, tb, l2, r2, eq));
  ex.fork(union_into(ex, st, ta->left, l2, res->left, merge, flip));
  ex.fork(union_into(ex, st, ta->right, r2, res->right, merge, flip));
  if constexpr (E::kHasValue) {
    // The root's final value depends on whether the key is shared; unlike
    // the pure-set union we must wait for splitm's verdict before
    // publishing.
    Node<P, E>* dup = co_await ex.touch(eq);
    if (dup != nullptr)
      res->value = flip ? merge(dup->value, ta->value)
                        : merge(ta->value, dup->value);
  }
  publish(ex, out, res);
  detail::fork_aug(ex, res);
}

// join (Figure 7 helper): every key of `t1` less than every key of `t2`;
// interleaves the right spine of t1 with the left spine of t2 by priority,
// publishing progressively.
template <typename Ex, typename P, typename E>
Fiber join_from(Ex ex, Store<P, E>& st, Node<P, E>* t1, Node<P, E>* t2,
                Cell<P, E>* out) {
  detail::AugPending<P, E> augs;
  for (;;) {
    if (t1 == nullptr) {
      publish(ex, out, t2);
      augs.flush(ex);
      co_return;
    }
    if (t2 == nullptr) {
      publish(ex, out, t1);
      augs.flush(ex);
      co_return;
    }
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t1) && is_leaf(t2)) {
        publish(ex, out, detail::leaf_concat(ex, st, t1, t2));
        augs.flush(ex);
        co_return;
      }
    }
    if (const std::size_t thr = ex.serial_threshold(); thr > 0) {
      if (detail::serial_avail(t1, t2, thr)) {
        ex.on_serial_cutoff();
        publish(ex, out, detail::join_serial(ex, st, t1, t2));
        augs.flush(ex);
        co_return;
      }
    }
    ex.step();  // priority comparison
    if (t1->pri >= t2->pri) {
      if constexpr (P::kMaxLeafCapacity > 0) {
        if (is_leaf(t1)) t1 = detail::open_leaf(st, t1);
      }
      Node<P, E>* res = st.make(t1->key, t1->pri, t1->left, st.cell());
      res->value = t1->value;
      publish(ex, out, res);
      augs.add(res);
      out = res->right;
      t1 = co_await ex.touch(t1->right);
    } else {
      if constexpr (P::kMaxLeafCapacity > 0) {
        if (is_leaf(t2)) t2 = detail::open_leaf(st, t2);
      }
      Node<P, E>* res = st.make(t2->key, t2->pri, st.cell(), t2->right);
      res->value = t2->value;
      publish(ex, out, res);
      augs.add(res);
      out = res->left;
      t2 = co_await ex.touch(t2->left);
    }
  }
}

// Forked wrapper: wait for both diff/intersect sides, then join them.
template <typename Ex, typename P, typename E>
Fiber join_entry(Ex ex, Store<P, E>& st, Cell<P, E>* l, Cell<P, E>* r,
                 Cell<P, E>* out) {
  Node<P, E>* jl = co_await ex.touch(l);
  Node<P, E>* jr = co_await ex.touch(r);
  co_await join_from(ex, st, jl, jr, out);
}

// Pipelined two-way split: keys < pivot published progressively under
// *outL, keys >= pivot under *outR. This is the rebalance primitive of the
// contention-adaptive sharded facades (a hot shard splits at its traffic
// median); the complement is join_entry. Built on splitm_from, which
// excludes a node with key == pivot from both sides — that node's priority
// need not dominate the >= side, so it is reattached as a singleton union
// (an O(lg n) pipelined fix-up that only runs when the pivot is present).
template <typename Ex, typename P, typename E>
Fiber split_at(Ex ex, Store<P, E>& st, Key pivot, Cell<P, E>* in,
               Cell<P, E>* outL, Cell<P, E>* outR) {
  Node<P, E>* t = co_await ex.touch(in);
  Cell<P, E>* greater = st.cell();
  Cell<P, E>* eq = st.cell();
  ex.fork(splitm_from(ex, st, pivot, t, outL, greater, eq));
  Node<P, E>* dup = co_await ex.touch(eq);
  if (dup == nullptr) {
    publish(ex, outR, co_await ex.touch(greater));
  } else {
    Node<P, E>* single = st.make_ready(dup->key, dup->pri, nullptr, nullptr);
    single->value = dup->value;
    if constexpr (E::kHasAug) {
      using Ops = typename E::AugOps;
      P::preset(*single->aug, Ops::from_entry(single->key, single->value));
    }
    ex.fork(union_into(ex, st, st.input(single), greater, outR));
  }
}

// Pipelined difference (Figure 7): keys of `a` not present in `b` (b's
// values are irrelevant).
template <typename Ex, typename P, typename E>
Fiber diff_into(Ex ex, Store<P, E>& st, Cell<P, E>* a, Cell<P, E>* b,
                Cell<P, E>* out) {
  Node<P, E>* t1 = co_await ex.touch(a);
  Node<P, E>* t2 = co_await ex.touch(b);
  if (t1 == nullptr) {
    ex.write(out, static_cast<Node<P, E>*>(nullptr));
    co_return;
  }
  if (t2 == nullptr) {
    publish(ex, out, t1);
    co_return;
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t1) && is_leaf(t2)) {
      publish(ex, out, detail::leaf_diff(ex, st, t1, t2));
      co_return;
    }
  }
  if (const std::size_t thr = ex.serial_threshold(); thr > 0) {
    if (detail::serial_avail(t1, t2, thr)) {
      ex.on_serial_cutoff();
      publish(ex, out, detail::diff_serial(ex, st, t1, t2));
      co_return;
    }
  }
  ex.step();
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t1)) t1 = detail::open_leaf(st, t1);
  }
  Cell<P, E>* l2 = st.cell();
  Cell<P, E>* r2 = st.cell();
  Cell<P, E>* eq = st.cell();
  const Key v = t1->key;
  ex.fork(splitm_from(ex, st, v, t2, l2, r2, eq));
  Cell<P, E>* dl = st.cell();
  Cell<P, E>* dr = st.cell();
  ex.fork(diff_into(ex, st, t1->left, l2, dl));
  ex.fork(diff_into(ex, st, t1->right, r2, dr));
  // Whether the root survives depends on whether splitm found it in b — the
  // "work after the recursive calls" that makes diff's pipeline notable.
  Node<P, E>* found = co_await ex.touch(eq);
  if (found != nullptr) {
    ex.fork(join_entry(ex, st, dl, dr, out));
  } else {
    Node<P, E>* res = st.make(t1->key, t1->pri, dl, dr);
    res->value = t1->value;
    publish(ex, out, res);
    detail::fork_aug(ex, res);
  }
}

// Pipelined intersection (the third set operation from the authors'
// companion paper "Fast set operations using treaps"): keys present in both
// treaps (a's values survive where the surviving root came from a).
// Structurally the dual of difference — the root survives exactly when
// splitm *finds* it.
template <typename Ex, typename P, typename E>
Fiber intersect_into(Ex ex, Store<P, E>& st, Cell<P, E>* a, Cell<P, E>* b,
                     Cell<P, E>* out) {
  Node<P, E>* ta = co_await ex.touch(a);
  Node<P, E>* tb = co_await ex.touch(b);
  if (ta == nullptr || tb == nullptr) {
    ex.write(out, static_cast<Node<P, E>*>(nullptr));
    co_return;
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(ta) && is_leaf(tb)) {
      publish(ex, out, detail::leaf_intersect(ex, st, ta, tb));
      co_return;
    }
  }
  if (const std::size_t thr = ex.serial_threshold(); thr > 0) {
    if (detail::serial_avail(ta, tb, thr)) {
      ex.on_serial_cutoff();
      publish(ex, out, detail::intersect_serial(ex, st, ta, tb));
      co_return;
    }
  }
  ex.step();  // priority comparison
  if (ta->pri < tb->pri) std::swap(ta, tb);  // recurse on the higher root
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(ta)) ta = detail::open_leaf(st, ta);
  }
  Cell<P, E>* l2 = st.cell();
  Cell<P, E>* r2 = st.cell();
  Cell<P, E>* eq = st.cell();
  const Key v = ta->key;
  ex.fork(splitm_from(ex, st, v, tb, l2, r2, eq));
  Cell<P, E>* il = st.cell();
  Cell<P, E>* ir = st.cell();
  ex.fork(intersect_into(ex, st, ta->left, l2, il));
  ex.fork(intersect_into(ex, st, ta->right, r2, ir));
  // Dual of diff: the root survives exactly when splitm found it in b.
  Node<P, E>* found = co_await ex.touch(eq);
  if (found != nullptr) {
    Node<P, E>* res = st.make(ta->key, ta->pri, il, ir);
    res->value = ta->value;
    publish(ex, out, res);
    detail::fork_aug(ex, res);
  } else {
    ex.fork(join_entry(ex, st, il, ir, out));
  }
}

// ---- strict (non-pipelined) baselines ---------------------------------------

// Sequential splitm returning complete trees (+ the equal node if present).
template <typename P, typename E>
struct StrictSplit {
  Node<P, E>* less = nullptr;
  Node<P, E>* greater = nullptr;
  Node<P, E>* equal = nullptr;
};

template <typename Ex, typename P, typename E>
Task<StrictSplit<P, E>> splitm_strict(Ex ex, Store<P, E>& st, Key s,
                                      Node<P, E>* t) {
  ex.step();
  if (t == nullptr) co_return {};
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t)) {
      detail::SerialSplit<P, E> sp = detail::split_leaf(ex, st, s, t);
      co_return {sp.less, sp.greater, sp.equal};
    }
  }
  if (s < t->key) {
    StrictSplit<P, E> sub = co_await splitm_strict(ex, st, s, peek<P>(t->left));
    sub.greater = st.make(t->key, t->pri, st.input(sub.greater), t->right);
    sub.greater->value = t->value;
    detail::fork_aug(ex, sub.greater);
    co_return sub;
  }
  if (s > t->key) {
    StrictSplit<P, E> sub =
        co_await splitm_strict(ex, st, s, peek<P>(t->right));
    sub.less = st.make(t->key, t->pri, t->left, st.input(sub.less));
    sub.less->value = t->value;
    detail::fork_aug(ex, sub.less);
    co_return sub;
  }
  co_return {peek<P>(t->left), peek<P>(t->right), t};
}

template <typename Ex, typename P, typename E>
Task<Node<P, E>*> join_strict(Ex ex, Store<P, E>& st, Node<P, E>* t1,
                              Node<P, E>* t2) {
  ex.step();
  if (t1 == nullptr) co_return t2;
  if (t2 == nullptr) co_return t1;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(t1) && is_leaf(t2)) {
      co_return detail::leaf_concat(ex, st, t1, t2);
    }
  }
  Node<P, E>* res;
  if (t1->pri >= t2->pri) {
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t1)) t1 = detail::open_leaf(st, t1);
    }
    Node<P, E>* j = co_await join_strict(ex, st, peek<P>(t1->right), t2);
    res = st.make(t1->key, t1->pri, t1->left, st.input(j));
    res->value = t1->value;
  } else {
    if constexpr (P::kMaxLeafCapacity > 0) {
      if (is_leaf(t2)) t2 = detail::open_leaf(st, t2);
    }
    Node<P, E>* j = co_await join_strict(ex, st, t1, peek<P>(t2->left));
    res = st.make(t2->key, t2->pri, st.input(j), t2->right);
    res->value = t2->value;
  }
  detail::fork_aug(ex, res);
  co_return res;
}

// Fork-join union/difference/intersection: splitm runs to completion, then
// the two recursive calls run in parallel.
template <typename Ex, typename P, typename E, typename Merge = FirstWins>
Task<Node<P, E>*> union_strict(Ex ex, Store<P, E>& st, Node<P, E>* a,
                               Node<P, E>* b, Merge merge = {},
                               bool flip = false) {
  ex.step();
  if (a == nullptr) co_return b;
  if (b == nullptr) co_return a;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a) && is_leaf(b)) {
      co_return detail::leaf_union(ex, st, a, b, merge, flip);
    }
  }
  if (a->pri < b->pri) {
    std::swap(a, b);
    flip = !flip;
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a)) a = detail::open_leaf(st, a);
  }
  StrictSplit<P, E> s = co_await splitm_strict(ex, st, a->key, b);
  auto [l, r] = co_await ex.fork_join2(
      union_strict(ex, st, peek<P>(a->left), s.less, merge, flip),
      union_strict(ex, st, peek<P>(a->right), s.greater, merge, flip));
  Node<P, E>* res = st.make_ready(a->key, a->pri, l, r);
  res->value = a->value;
  if constexpr (E::kHasValue) {
    if (s.equal != nullptr)
      res->value = flip ? merge(s.equal->value, a->value)
                        : merge(a->value, s.equal->value);
  }
  detail::fork_aug(ex, res);
  co_return res;
}

template <typename Ex, typename P, typename E>
Task<Node<P, E>*> intersect_strict(Ex ex, Store<P, E>& st, Node<P, E>* a,
                                   Node<P, E>* b) {
  ex.step();
  if (a == nullptr || b == nullptr) co_return nullptr;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a) && is_leaf(b)) {
      co_return detail::leaf_intersect(ex, st, a, b);
    }
  }
  if (a->pri < b->pri) std::swap(a, b);
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a)) a = detail::open_leaf(st, a);
  }
  StrictSplit<P, E> s = co_await splitm_strict(ex, st, a->key, b);
  auto [l, r] = co_await ex.fork_join2(
      intersect_strict(ex, st, peek<P>(a->left), s.less),
      intersect_strict(ex, st, peek<P>(a->right), s.greater));
  if (s.equal != nullptr) {
    Node<P, E>* res = st.make_ready(a->key, a->pri, l, r);
    res->value = a->value;
    detail::fork_aug(ex, res);
    co_return res;
  }
  co_return co_await join_strict(ex, st, l, r);
}

template <typename Ex, typename P, typename E>
Task<Node<P, E>*> diff_strict(Ex ex, Store<P, E>& st, Node<P, E>* a,
                              Node<P, E>* b) {
  ex.step();
  if (a == nullptr) co_return nullptr;
  if (b == nullptr) co_return a;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a) && is_leaf(b)) {
      co_return detail::leaf_diff(ex, st, a, b);
    }
  }
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(a)) a = detail::open_leaf(st, a);
  }
  StrictSplit<P, E> s = co_await splitm_strict(ex, st, a->key, b);
  auto [l, r] =
      co_await ex.fork_join2(diff_strict(ex, st, peek<P>(a->left), s.less),
                             diff_strict(ex, st, peek<P>(a->right), s.greater));
  if (s.equal != nullptr) co_return co_await join_strict(ex, st, l, r);
  Node<P, E>* res = st.make_ready(a->key, a->pri, l, r);
  res->value = a->value;
  detail::fork_aug(ex, res);
  co_return res;
}

// ---- analysis helpers (no substrate actions) --------------------------------

template <typename P, typename E>
void collect_inorder(const Node<P, E>* root, std::vector<Key>& out) {
  if (root == nullptr) return;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) {
      for (std::uint32_t i = 0; i < root->count; ++i)
        out.push_back(root->items[i].key);
      return;
    }
  }
  collect_inorder(peek<P>(root->left), out);
  out.push_back(root->key);
  collect_inorder(peek<P>(root->right), out);
}

// In-order (key, value) collection for value-carrying entries.
template <typename P, typename E>
void collect_items(const Node<P, E>* root,
                   std::vector<std::pair<Key, typename E::Value>>& out) {
  if (root == nullptr) return;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) {
      for (std::uint32_t i = 0; i < root->count; ++i)
        out.emplace_back(root->items[i].key, root->items[i].value);
      return;
    }
  }
  collect_items(peek<P>(root->left), out);
  out.emplace_back(root->key, root->value);
  collect_items(peek<P>(root->right), out);
}

template <typename P, typename E>
int height(const Node<P, E>* root) {
  if (root == nullptr) return 0;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) return 1;
  }
  return 1 +
         std::max(height(peek<P>(root->left)), height(peek<P>(root->right)));
}

// Number of *keys* (a leaf chunk contributes all its entries), so the size
// semantics match the node-per-key layout.
template <typename P, typename E>
std::uint64_t count_nodes(const Node<P, E>* root) {
  if (root == nullptr) return 0;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) return root->count;
  }
  return 1 + count_nodes(peek<P>(root->left)) +
         count_nodes(peek<P>(root->right));
}

template <typename P, typename E>
typename P::Time max_created(const Node<P, E>* root) {
  if (root == nullptr) return 0;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) return root->created;
  }
  return std::max({root->created, max_created(peek<P>(root->left)),
                   max_created(peek<P>(root->right))});
}

// Software cache-economy of a finished tree: how many cache lines an
// operation has to touch, and how they are spent.
struct CacheEconomy {
  std::uint64_t internal_nodes = 0;
  std::uint64_t leaf_chunks = 0;
  std::uint64_t leaf_keys = 0;  // keys stored inside chunks
};

template <typename P, typename E>
void cache_economy_of(const Node<P, E>* root, CacheEconomy& ce) {
  if (root == nullptr) return;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(root)) {
      ++ce.leaf_chunks;
      ce.leaf_keys += root->count;
      return;
    }
  }
  ++ce.internal_nodes;
  cache_economy_of(peek<P>(root->left), ce);
  cache_economy_of(peek<P>(root->right), ce);
}

namespace detail {
template <typename P, typename E>
bool valid_in_range(const Store<P, E>& st, const Node<P, E>* n, const Key* lo,
                    const Key* hi, Pri max_pri) {
  if (n == nullptr) return true;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(n)) {
      if (n->count == 0 || n->root_pos >= n->count) return false;
      if (n->pri > max_pri) return false;
      Pri best = 0;
      for (std::uint32_t i = 0; i < n->count; ++i) {
        const LeafEntryT<E>& e = n->items[i];
        if (lo && e.key <= *lo) return false;
        if (hi && e.key >= *hi) return false;
        if (i > 0 && n->items[i - 1].key >= e.key) return false;
        if (e.pri > best) best = e.pri;
      }
      // The node record mirrors the max-priority entry.
      return n->items[n->root_pos].pri == best &&
             n->key == n->items[n->root_pos].key &&
             n->pri == n->items[n->root_pos].pri;
    }
  }
  if (lo && n->key <= *lo) return false;
  if (hi && n->key >= *hi) return false;
  if (n->pri > max_pri) return false;
  return valid_in_range(st, peek<P>(n->left), lo, &n->key, n->pri) &&
         valid_in_range(st, peek<P>(n->right), &n->key, hi, n->pri);
}

// Bottom-up recomputation of every cached aggregate — the same discipline as
// the cached-priority check: the cache is only trusted after it has been
// re-derived from the entries it summarizes. Returns false (and stops) on
// the first node whose aggregate cell disagrees.
template <typename P, typename E>
bool augs_valid(const Node<P, E>* n, typename E::AugOps::Aug& out) {
  using Ops = typename E::AugOps;
  out = Ops::identity();
  if (n == nullptr) return true;
  if constexpr (P::kMaxLeafCapacity > 0) {
    if (is_leaf(n)) {
      for (std::uint32_t i = 0; i < n->count; ++i)
        out = Ops::combine(out,
                           Ops::from_entry(n->items[i].key, n->items[i].value));
      return P::peek(n->aug) == out;
    }
  }
  typename Ops::Aug l, r;
  if (!augs_valid<P, E>(peek<P>(n->left), l)) return false;
  if (!augs_valid<P, E>(peek<P>(n->right), r)) return false;
  out = Ops::combine(Ops::combine(l, Ops::from_entry(n->key, n->value)), r);
  return P::peek(n->aug) == out;
}
}  // namespace detail

// Full treap invariant: BST order on keys, heap order on priorities, and —
// for augmented entries — every cached aggregate equal to the bottom-up
// recomputation over its subtree. The recursion checks order against the
// *cached* priorities (they are copied, never recomputed, by every
// operation); consistency with the store's hash is spot-checked once at the
// root instead of rehashing every node.
template <typename P, typename E>
bool validate(const Store<P, E>& st, const Node<P, E>* root) {
  if (root == nullptr) return true;
  if (root->pri != st.priority(root->key)) return false;
  if (!detail::valid_in_range(st, root, nullptr, nullptr,
                              std::numeric_limits<Pri>::max()))
    return false;
  if constexpr (E::kHasAug) {
    typename E::AugOps::Aug total;
    if (!detail::augs_valid<P, E>(root, total)) return false;
  }
  return true;
}

}  // namespace pwf::pipelined::treap
