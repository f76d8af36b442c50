// Shared explicit-stack walks over finished (or finishing) treaps.
//
// Every consumer of a treap — the set facade's wait_inorder, the map
// facade's wait_items/lookup, snapshot readers, validators — used to carry
// its own iterative walker. These are single-source now, parameterized on a
// *force* callable that resolves one cell to its node pointer:
//
//   * P::peek          — post-completion reads (cost model, analysis);
//   * c->peek()        — runtime reads of known-finished trees;
//   * c->wait_blocking() — runtime reads that pipeline with in-flight
//                          construction (the consumer parks per cell, the
//                          paper's point), used by the facades and by
//                          lock-free snapshot readers.
//
// The force callable is applied to both node cells and aggregate cells, so
// a generic lambda (`[](auto* c) { return c->wait_blocking(); }`) covers
// augmented walks too.
//
// All walks are iterative (explicit stack / loop): facade trees are
// arbitrarily deep chains while a pipeline is mid-flight, and the walkers
// must not ride the C++ call stack there.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "pipelined/treap.hpp"

namespace pwf::pipelined::treap {

namespace detail {
template <typename C, typename Force>
using forced_node_t =
    std::remove_pointer_t<std::remove_cvref_t<decltype(std::declval<Force&>()(
        std::declval<C*>()))>>;
}  // namespace detail

// Pre-order node visit: f(node) on every node record, leaves included (no
// descent into chunk entries). The visitor sees internal nodes before their
// subtrees — the shape walk validators and cache-economy scans want.
template <typename C, typename Force, typename F>
void visit_nodes(C* root, Force force, F&& f) {
  using NodeT = detail::forced_node_t<C, Force>;
  std::vector<C*> stack;
  stack.push_back(root);
  while (!stack.empty()) {
    C* c = stack.back();
    stack.pop_back();
    NodeT* n = force(c);
    if (n == nullptr) continue;
    f(n);
    if (!is_leaf(n)) {
      stack.push_back(n->right);
      stack.push_back(n->left);
    }
  }
}

// In-order visit of the entries with keys in [lo, hi]: f(entry) with its
// key, cached priority and value, ascending, leaf chunks expanded. Subtrees
// wholly outside the range are never forced. Two-phase frames: descend
// first, emit the node (then descend right) on the second visit.
template <typename C, typename Force, typename F>
void visit_entries(C* root, Key lo, Key hi, Force force, F&& f) {
  using NodeT = detail::forced_node_t<C, Force>;
  using EntryT = LeafEntryT<typename NodeT::Entry>;
  struct Frame {
    C* cell;
    bool emit;  // node already expanded; emit entry then go right
  };
  std::vector<Frame> stack;
  stack.push_back({root, false});
  while (!stack.empty()) {
    Frame fr = stack.back();
    stack.pop_back();
    NodeT* n = force(fr.cell);
    if (n == nullptr) continue;
    if (fr.emit) {
      f(EntryT{n->key, n->pri, n->value});
      if (n->key < hi) stack.push_back({n->right, false});
      continue;
    }
    if (is_leaf(n)) {
      const EntryT* e = n->items;
      const EntryT* end = e + n->count;
      e = std::lower_bound(e, end, lo, [](const EntryT& x, Key k) {
        return x.key < k;
      });
      for (; e != end && e->key <= hi; ++e) f(*e);
      continue;
    }
    if (n->key < lo) {
      stack.push_back({n->right, false});
    } else if (n->key > hi) {
      stack.push_back({n->left, false});
    } else {
      stack.push_back({fr.cell, true});
      if (n->key > lo) stack.push_back({n->left, false});
    }
  }
}

// In-order entry visit over the whole tree: f(key, value), ascending.
template <typename C, typename Force, typename F>
void visit_items(C* root, Force force, F&& f) {
  visit_entries(root, std::numeric_limits<Key>::min(),
                std::numeric_limits<Key>::max(), force,
                [&](const auto& e) { f(e.key, e.value); });
}

// Number of keys in [lo, hi]. Subtrees wholly outside the range are never
// forced, and a leaf chunk adds its entries in range by binary search, not
// one by one.
template <typename C, typename Force>
std::size_t count_keys(C* root, Key lo, Key hi, Force force) {
  using NodeT = detail::forced_node_t<C, Force>;
  using EntryT = LeafEntryT<typename NodeT::Entry>;
  const auto below = [](const EntryT& e, Key k) { return e.key < k; };
  const auto above = [](Key k, const EntryT& e) { return k < e.key; };
  std::size_t n = 0;
  std::vector<C*> stack;
  stack.push_back(root);
  while (!stack.empty()) {
    NodeT* t = force(stack.back());
    stack.pop_back();
    if (t == nullptr) continue;
    if (is_leaf(t)) {
      const EntryT* end = t->items + t->count;
      n += static_cast<std::size_t>(
          std::upper_bound(t->items, end, hi, above) -
          std::lower_bound(t->items, end, lo, below));
      continue;
    }
    if (t->key >= lo && t->key <= hi) ++n;
    // Left popped first: a walk that waits on cells (a flush) then follows
    // the order the bodies publish in, and parks less often behind them.
    if (t->key < hi) stack.push_back(t->right);
    if (t->key > lo) stack.push_back(t->left);
  }
  return n;
}

// Number of keys in the tree.
template <typename C, typename Force>
std::size_t count_keys(C* root, Force force) {
  return count_keys(root, std::numeric_limits<Key>::min(),
                    std::numeric_limits<Key>::max(), force);
}

// Rebuilds the n-key finished tree under `root` in `st` (a compaction's
// fresh store, hashing with the same salt): the entries — keys, cached
// priorities, values — are copied in order straight into the store's entry
// array and built over in one linear pass, with no sort, rehash or key
// vector in between. The result is the tree `st.build` would make over the
// same keys.
template <typename P, typename E, typename C, typename Force>
Node<P, E>* rebuild(Store<P, E>& st, C* root, std::size_t n, Force force) {
  return st.build_entries(n, [&](LeafEntryT<E>* out) {
    std::size_t filled = 0;
    visit_entries(root, std::numeric_limits<Key>::min(),
                  std::numeric_limits<Key>::max(), force,
                  [&](const LeafEntryT<E>& e) {
                    PWF_CHECK(filled < n);
                    out[filled++] = e;
                  });
    PWF_CHECK(filled == n);
  });
}

// Height in node records (a leaf chunk counts as one level).
template <typename C, typename Force>
int height_of(C* root, Force force) {
  using NodeT = detail::forced_node_t<C, Force>;
  struct Frame {
    C* cell;
    int depth;
  };
  int best = 0;
  std::vector<Frame> stack;
  stack.push_back({root, 1});
  while (!stack.empty()) {
    Frame fr = stack.back();
    stack.pop_back();
    NodeT* n = force(fr.cell);
    if (n == nullptr) continue;
    if (fr.depth > best) best = fr.depth;
    if (!is_leaf(n)) {
      stack.push_back({n->left, fr.depth + 1});
      stack.push_back({n->right, fr.depth + 1});
    }
  }
  return best;
}

// Point lookup: walks the BST path, finishing with a binary search inside
// the leaf chunk. Forces only the O(lg n) cells on the path.
template <typename C, typename Force>
auto lookup(C* root, Key k, Force force)
    -> std::optional<
        typename detail::forced_node_t<C, Force>::Entry::Value> {
  using NodeT = detail::forced_node_t<C, Force>;
  C* c = root;
  for (;;) {
    NodeT* n = force(c);
    if (n == nullptr) return std::nullopt;
    if (is_leaf(n)) {
      const LeafEntryT<typename NodeT::Entry>* e = n->items;
      std::uint32_t lo = 0, hi = n->count;
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (e[mid].key < k) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < n->count && e[lo].key == k) return e[lo].value;
      return std::nullopt;
    }
    if (k < n->key) {
      c = n->left;
    } else if (k > n->key) {
      c = n->right;
    } else {
      return n->value;
    }
  }
}

namespace detail {

// Aggregate of the chunk entries with keys in [lo, hi], combined in key
// (index) order.
template <typename NodeT>
auto fold_leaf(const NodeT* n, Key lo, Key hi) {
  using Ops = typename NodeT::Entry::AugOps;
  auto acc = Ops::identity();
  for (std::uint32_t i = 0; i < n->count; ++i) {
    const auto& e = n->items[i];
    if (e.key < lo) continue;
    if (e.key > hi) break;
    acc = Ops::combine(acc, Ops::from_entry(e.key, e.value));
  }
  return acc;
}

}  // namespace detail

// Whole-tree aggregate: one forced cell (the root's cached value).
template <typename C, typename Force>
auto aggregate_all(C* root, Force force) {
  using NodeT = detail::forced_node_t<C, Force>;
  using Ops = typename NodeT::Entry::AugOps;
  NodeT* n = force(root);
  if (n == nullptr) return Ops::identity();
  return static_cast<typename Ops::Aug>(force(n->aug));
}

// Range aggregate over keys in [lo, hi] (inclusive), O(lg n) forced cells:
// descend to the split node, then walk the two boundary paths, picking up
// whole-subtree cached aggregates that fall inside the range. combine() is
// applied strictly in key order (associativity suffices; commutativity is
// not required).
template <typename C, typename Force>
auto aggregate(C* root, Key lo, Key hi, Force force) {
  using NodeT = detail::forced_node_t<C, Force>;
  using Ops = typename NodeT::Entry::AugOps;
  using Aug = typename Ops::Aug;
  if (lo > hi) return Ops::identity();

  // Phase 1: find the split node — the first node with lo <= key <= hi.
  // Everything in [lo, hi] lives under it.
  C* c = root;
  NodeT* split = nullptr;
  for (;;) {
    NodeT* n = force(c);
    if (n == nullptr) return Ops::identity();
    if (is_leaf(n)) return detail::fold_leaf(n, lo, hi);
    if (hi < n->key) {
      c = n->left;
    } else if (lo > n->key) {
      c = n->right;
    } else {
      split = n;
      break;
    }
  }

  Aug acc = Ops::from_entry(split->key, split->value);

  // Phase 2 (left boundary): descend split->left looking for lo. Whenever
  // the path goes left, the current node and its whole right subtree are in
  // range; accumulate them *in front of* what's collected so far (they hold
  // smaller keys).
  {
    Aug pre = Ops::identity();
    C* lc = split->left;
    for (;;) {
      NodeT* n = force(lc);
      if (n == nullptr) break;
      if (is_leaf(n)) {
        pre = Ops::combine(detail::fold_leaf(n, lo, hi), pre);
        break;
      }
      if (n->key >= lo) {
        Aug part = Ops::from_entry(n->key, n->value);
        NodeT* rs = force(n->right);
        if (rs != nullptr) part = Ops::combine(part, force(rs->aug));
        pre = Ops::combine(part, pre);
        lc = n->left;
      } else {
        lc = n->right;
      }
    }
    acc = Ops::combine(pre, acc);
  }

  // Phase 3 (right boundary): mirror image under split->right; whole left
  // subtrees and nodes with key <= hi append after the accumulator.
  {
    Aug post = Ops::identity();
    C* rc = split->right;
    for (;;) {
      NodeT* n = force(rc);
      if (n == nullptr) break;
      if (is_leaf(n)) {
        post = Ops::combine(post, detail::fold_leaf(n, lo, hi));
        break;
      }
      if (n->key <= hi) {
        Aug part = Ops::identity();
        NodeT* ls = force(n->left);
        if (ls != nullptr) part = static_cast<Aug>(force(ls->aug));
        part = Ops::combine(part, Ops::from_entry(n->key, n->value));
        post = Ops::combine(post, part);
        rc = n->right;
      } else {
        rc = n->left;
      }
    }
    acc = Ops::combine(acc, post);
  }

  return acc;
}

}  // namespace pwf::pipelined::treap
