// Cross-substrate equivalence: every algorithm body in src/pipelined/ is a
// single templated coroutine, instantiated on four execution substrates —
// CmExec (pipelined cost model), CmStrictExec (fork-join baseline), RtExec
// (coroutine runtime) and RecExec (recording substrate). This test feeds
// random inputs through all available instantiations of each ported
// algorithm and checks every result against a sequential oracle, so a
// substrate-specific divergence in any shared body fails here regardless of
// which substrate introduced it. The RecExec column additionally requires
// every recorded trace to pass the pwf-analyze verifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "algos/mergesort.hpp"
#include "algos/producer_consumer.hpp"
#include "algos/quicksort.hpp"
#include "analyze/rec_exec.hpp"
#include "analyze/verifier.hpp"
#include "costmodel/engine.hpp"
#include "pipelined/treap_walk.hpp"
#include "runtime/rt_algos.hpp"
#include "runtime/rt_map.hpp"
#include "runtime/rt_treap.hpp"
#include "runtime/rt_trees.hpp"
#include "runtime/rt_ttree.hpp"
#include "runtime/scheduler.hpp"
#include "support/random.hpp"
#include "treap/setops.hpp"
#include "treap/treap.hpp"
#include "trees/merge.hpp"
#include "trees/rebalance.hpp"
#include "trees/tree.hpp"
#include "ttree/insert.hpp"
#include "ttree/ttree.hpp"

namespace pwf {
namespace {

using Key = std::int64_t;

std::vector<Key> random_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::set<Key> s;
  while (s.size() < n) s.insert(rng.range(0, 1 << 22));
  return {s.begin(), s.end()};
}

std::vector<Key> random_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);  // duplicates allowed: exercises pivot-equal paths
  std::vector<Key> v(n);
  for (auto& x : v) x = rng.range(0, 1 << 10);
  return v;
}

class ExecEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExecEquivalence, TreeMerge) {
  const std::uint64_t seed = GetParam();
  const auto a = random_keys(500 + 37 * seed, seed * 2 + 1);
  const auto b = random_keys(300 + 11 * seed, seed * 2 + 2);
  std::vector<Key> oracle;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(oracle));

  {
    cm::Engine eng;  // CmExec: pipelined cost model
    trees::Store st(eng);
    trees::TreeCell* out = trees::merge(
        st, st.input(st.build_balanced(a)), st.input(st.build_balanced(b)));
    std::vector<Key> got;
    trees::collect_inorder(trees::peek(out), got);
    EXPECT_EQ(got, oracle);
  }
  {
    cm::Engine eng;  // CmStrictExec: fork-join baseline
    trees::Store st(eng);
    std::vector<Key> got;
    trees::collect_inorder(
        trees::merge_strict(st, st.build_balanced(a), st.build_balanced(b)),
        got);
    EXPECT_EQ(got, oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec: pipelined + strict on real threads
    rt::trees::Store st;
    EXPECT_EQ(rt::trees::wait_inorder(rt::trees::merge(
                  st, st.input(st.build_balanced(a)),
                  st.input(st.build_balanced(b)))),
              oracle);
    std::vector<Key> got;
    rt::trees::collect_inorder(
        rt::trees::merge_strict_blocking(st, st.build_balanced(a),
                                         st.build_balanced(b)),
        got);
    EXPECT_EQ(got, oracle);
  }
}

TEST_P(ExecEquivalence, TreeRebalance) {
  const std::uint64_t seed = GetParam();
  const auto a = random_keys(800 + 53 * seed, seed * 3 + 1);
  const auto b = random_keys(200, seed * 3 + 2);
  std::vector<Key> oracle;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(oracle));

  std::vector<Key> cm_keys;
  int cm_height = 0;
  {
    cm::Engine eng;
    trees::Store st(eng);
    trees::TreeCell* merged = trees::merge(
        st, st.input(st.build_balanced(a)), st.input(st.build_balanced(b)));
    trees::TreeCell* out = trees::rebalance(st, merged);
    trees::collect_inorder(trees::peek(out), cm_keys);
    cm_height = trees::height(trees::peek(out));
    EXPECT_EQ(cm_keys, oracle);
  }
  {
    rt::Scheduler sched(2);
    rt::trees::Store st;
    rt::trees::Cell* merged = rt::trees::merge(
        st, st.input(st.build_balanced(a)), st.input(st.build_balanced(b)));
    rt::trees::Cell* out = rt::trees::rebalance(st, merged);
    EXPECT_EQ(rt::trees::wait_inorder(out), oracle);
    // Rank-split rebalance is deterministic: both substrates build the same
    // shape, not just the same key sequence.
    EXPECT_EQ(rt::trees::height(rt::trees::peek(out)), cm_height);
  }
}

TEST_P(ExecEquivalence, TreapSetOps) {
  const std::uint64_t seed = GetParam();
  const auto a = random_keys(400 + 29 * seed, seed * 5 + 1);
  const auto b = random_keys(300 + 17 * seed, seed * 5 + 2);
  std::vector<Key> u, d, i;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(u));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(d));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(i));

  {
    cm::Engine eng;  // CmExec
    treap::Store st(eng);
    const auto run = [&](treap::TreapCell* (*op)(treap::Store&,
                                                 treap::TreapCell*,
                                                 treap::TreapCell*),
                         const std::vector<Key>& expected) {
      treap::TreapCell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      std::vector<Key> got;
      treap::collect_inorder(treap::peek(out), got);
      EXPECT_EQ(got, expected);
      EXPECT_TRUE(treap::validate(st, treap::peek(out)));
    };
    run(treap::union_treaps, u);
    run(treap::diff_treaps, d);
    run(treap::intersect_treaps, i);
  }
  {
    cm::Engine eng;  // CmStrictExec
    treap::Store st(eng);
    const auto collect = [](treap::Node* n) {
      std::vector<Key> got;
      treap::collect_inorder(n, got);
      return got;
    };
    EXPECT_EQ(collect(treap::union_strict(st, st.build(a), st.build(b))), u);
    EXPECT_EQ(collect(treap::diff_strict(st, st.build(a), st.build(b))), d);
    EXPECT_EQ(collect(treap::intersect_strict(st, st.build(a), st.build(b))),
              i);
  }
  {
    rt::Scheduler sched(2);  // RtExec
    rt::treap::Store st;
    const auto run = [&](rt::treap::Cell* (*op)(rt::treap::Store&,
                                                rt::treap::Cell*,
                                                rt::treap::Cell*),
                         const std::vector<Key>& expected) {
      rt::treap::Cell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      EXPECT_EQ(rt::treap::wait_inorder(out), expected);
      EXPECT_TRUE(rt::treap::validate(st, out));
    };
    run(rt::treap::union_treaps, u);
    run(rt::treap::diff_treaps, d);
    run(rt::treap::intersect_treaps, i);
    std::vector<Key> got;
    rt::treap::Node* s =
        rt::treap::union_strict_blocking(st, st.build(a), st.build(b));
    EXPECT_EQ(rt::treap::wait_inorder(st.input(s)), u);
  }
}

TEST_P(ExecEquivalence, TtreeBulkInsert) {
  const std::uint64_t seed = GetParam();
  const auto base = random_keys(600 + 41 * seed, seed * 7 + 1);
  const auto extra = random_keys(250 + 13 * seed, seed * 7 + 2);
  std::set<Key> ref(base.begin(), base.end());
  ref.insert(extra.begin(), extra.end());
  const std::vector<Key> oracle(ref.begin(), ref.end());

  {
    cm::Engine eng;  // CmExec
    ttree::Store st(eng);
    ttree::TCell* out =
        ttree::bulk_insert(st, st.input(st.build(base, 3)), extra);
    std::vector<Key> got;
    ttree::collect_keys(ttree::peek(out), got);
    EXPECT_EQ(got, oracle);
    EXPECT_TRUE(ttree::validate(ttree::peek(out)));
  }
  {
    cm::Engine eng;  // CmStrictExec
    ttree::Store st(eng);
    ttree::TNode* out = ttree::bulk_insert_strict(st, st.build(base, 3), extra);
    std::vector<Key> got;
    ttree::collect_keys(out, got);
    EXPECT_EQ(got, oracle);
    EXPECT_TRUE(ttree::validate(out));
  }
  {
    rt::Scheduler sched(2);  // RtExec
    rt::ttree::Store st;
    rt::ttree::Cell* out =
        rt::ttree::bulk_insert(st, st.input(st.build(base, 3)), extra);
    EXPECT_EQ(rt::ttree::wait_keys(out), oracle);
    EXPECT_TRUE(rt::ttree::validate(out));
  }
}

TEST_P(ExecEquivalence, Mergesort) {
  const std::uint64_t seed = GetParam();
  auto values = random_keys(700 + 61 * seed, seed * 11 + 1);
  Rng rng(seed * 11 + 2);
  for (std::size_t k = values.size(); k > 1; --k) {
    std::swap(values[k - 1],
              values[static_cast<std::size_t>(rng.range(0, k - 1))]);
  }
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  {
    cm::Engine eng;  // CmExec (plain + balanced)
    trees::Store st(eng);
    std::vector<Key> got;
    trees::collect_inorder(trees::peek(algos::mergesort(st, values)), got);
    EXPECT_EQ(got, oracle);
    got.clear();
    trees::collect_inorder(trees::peek(algos::mergesort_balanced(st, values)),
                           got);
    EXPECT_EQ(got, oracle);
  }
  {
    cm::Engine eng;  // CmStrictExec
    trees::Store st(eng);
    std::vector<Key> got;
    trees::collect_inorder(algos::mergesort_strict(st, values), got);
    EXPECT_EQ(got, oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec (plain + balanced)
    rt::trees::Store st;
    EXPECT_EQ(rt::trees::wait_inorder(rt::trees::mergesort(st, values)),
              oracle);
    EXPECT_EQ(
        rt::trees::wait_inorder(rt::trees::mergesort_balanced(st, values)),
        oracle);
  }
}

TEST_P(ExecEquivalence, Quicksort) {
  const std::uint64_t seed = GetParam();
  const auto values = random_values(500 + 43 * seed, seed * 13 + 1);
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  {
    cm::Engine eng;  // CmExec
    algos::ListStore st(eng);
    EXPECT_EQ(algos::peek_list(algos::quicksort(st, values)), oracle);
  }
  {
    cm::Engine eng;  // CmStrictExec
    algos::ListStore st(eng);
    EXPECT_EQ(algos::peek_list(algos::quicksort_strict(st, values)), oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec
    rt::list::Store st;
    EXPECT_EQ(rt::list::wait_list(rt::list::quicksort(st, values)), oracle);
  }
}

TEST_P(ExecEquivalence, ProducerConsumer) {
  const std::int64_t n = 64 + 32 * static_cast<std::int64_t>(GetParam());
  const std::int64_t oracle = n * (n + 1) / 2;

  {
    cm::Engine eng;  // CmExec
    algos::ListStore st(eng);
    EXPECT_EQ(algos::produce_consume(st, n).sum, oracle);
  }
  {
    cm::Engine eng;  // CmStrictExec-style baseline
    algos::ListStore st(eng);
    EXPECT_EQ(algos::produce_consume_strict(st, n).sum, oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec
    rt::list::Store st;
    EXPECT_EQ(rt::list::produce_consume_sum(st, n), oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecEquivalence, ::testing::Values(0, 1, 2));

// ---- RecExec column ---------------------------------------------------------
// The recording substrate runs the same bodies with the granularity knobs
// live (chunked leaves, runtime serial threshold) while recording a DAG.
// Every family must match the sequential oracle at leaf cap 0 (node-per-key,
// the cost-model shape) and at the runtime's default cap of 32 — and every
// recorded trace must be verifier-clean (linearity demoted to a statistic,
// as in the engine-destructor hook: the Section-2 model allows multi-reads).

namespace rec = analyze::rec;

void expect_trace_clean(const cm::Engine& eng, const char* what) {
  ASSERT_NE(eng.trace(), nullptr);
  analyze::Options opts;
  opts.check_linearity = false;
  const analyze::Report rep = analyze::verify(*eng.trace(), opts);
  EXPECT_TRUE(rep.ok()) << what << ": " << rep.to_string();
}

class ExecEquivalenceRec : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExecEquivalenceRec, TreapSetOps) {
  const std::size_t cap = GetParam();
  const auto a = random_keys(400, 17);
  const auto b = random_keys(300, 18);
  std::vector<Key> u, d, i;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(u));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(d));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(i));

  cm::Engine eng(/*trace=*/true);
  analyze::RecExec ex(eng);
  rec::TreapStore st(eng, pipelined::treap::kDefaultSalt, cap);
  EXPECT_EQ(rec::treap_inorder(rec::union_treaps(
                ex, st, st.input(st.build(a)), st.input(st.build(b)))),
            u);
  EXPECT_EQ(rec::treap_inorder(rec::diff_treaps(
                ex, st, st.input(st.build(a)), st.input(st.build(b)))),
            d);
  EXPECT_EQ(rec::treap_inorder(rec::intersect_treaps(
                ex, st, st.input(st.build(a)), st.input(st.build(b)))),
            i);
  std::vector<Key> got;
  pipelined::treap::collect_inorder<analyze::RecPolicy>(
      rec::union_strict(ex, st, st.build(a), st.build(b)), got);
  EXPECT_EQ(got, u);
  expect_trace_clean(eng, "treap");
}

TEST_P(ExecEquivalenceRec, TreeMergeAndRebalance) {
  const std::size_t cap = GetParam();
  (void)cap;  // binary trees have no chunked leaves; both points still record
  const auto a = random_keys(500, 19);
  const auto b = random_keys(300, 20);
  std::vector<Key> oracle;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(oracle));

  cm::Engine eng(/*trace=*/true);
  analyze::RecExec ex(eng);
  rec::TreeStore st(eng);
  rec::TreeCell* merged = rec::merge(ex, st, st.input(st.build_balanced(a)),
                                     st.input(st.build_balanced(b)));
  EXPECT_EQ(rec::tree_inorder(merged), oracle);
  EXPECT_EQ(rec::tree_inorder(rec::rebalance(ex, st, merged)), oracle);
  expect_trace_clean(eng, "trees");
}

TEST_P(ExecEquivalenceRec, TtreeBulkInsert) {
  const std::size_t cap = GetParam();
  (void)cap;
  const auto base = random_keys(600, 21);
  const auto extra = random_keys(250, 22);
  std::set<Key> ref(base.begin(), base.end());
  ref.insert(extra.begin(), extra.end());
  const std::vector<Key> oracle(ref.begin(), ref.end());

  cm::Engine eng(/*trace=*/true);
  analyze::RecExec ex(eng);
  rec::TtreeStore st(eng);
  EXPECT_EQ(rec::ttree_keys(rec::bulk_insert(
                ex, st, st.input(st.build(base, 3)), extra)),
            oracle);
  expect_trace_clean(eng, "ttree");
}

TEST_P(ExecEquivalenceRec, Mergesort) {
  const std::size_t cap = GetParam();
  (void)cap;
  auto values = random_keys(700, 23);
  Rng rng(24);
  for (std::size_t k = values.size(); k > 1; --k) {
    std::swap(values[k - 1],
              values[static_cast<std::size_t>(rng.range(0, k - 1))]);
  }
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  cm::Engine eng(/*trace=*/true);
  analyze::RecExec ex(eng);
  rec::TreeStore st(eng);
  EXPECT_EQ(rec::tree_inorder(rec::mergesort(ex, st, values)), oracle);
  expect_trace_clean(eng, "mergesort");
}

TEST_P(ExecEquivalenceRec, QuicksortAndProducerConsumer) {
  const std::size_t cap = GetParam();
  (void)cap;
  const auto values = random_values(500, 25);
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  cm::Engine eng(/*trace=*/true);
  analyze::RecExec ex(eng);
  rec::ListStore st(eng);
  EXPECT_EQ(rec::list_values(rec::quicksort(ex, st, values)), oracle);
  EXPECT_EQ(rec::produce_consume(ex, st, 256), 256 * 257 / 2);
  expect_trace_clean(eng, "list");
}

INSTANTIATE_TEST_SUITE_P(
    LeafCaps, ExecEquivalenceRec,
    ::testing::Values(std::size_t{0}, pipelined::treap::kDefaultLeafCapacity));

// ---- serial-threshold straddle ----------------------------------------------
// RtExec bottoms out in tight sequential loops below kDefaultSerialThreshold;
// these sizes pin the handoff between the serial fast path and the forking
// path: threshold-1, threshold, threshold+1 and 2*threshold must agree with
// the sequential oracle on every substrate. The Cm substrates have threshold
// 0 (the cutoff branches are dead there) and run as the control group.

class ExecEquivalenceThreshold : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(ExecEquivalenceThreshold, TreeMergeAndRebalance) {
  const std::size_t n = GetParam();
  const auto a = random_keys(n, 2 * n + 1);
  const auto b = random_keys(n, 2 * n + 2);
  std::vector<Key> oracle;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(oracle));

  {
    cm::Engine eng;  // CmExec
    trees::Store st(eng);
    trees::TreeCell* out = trees::merge(
        st, st.input(st.build_balanced(a)), st.input(st.build_balanced(b)));
    std::vector<Key> got;
    trees::collect_inorder(trees::peek(out), got);
    EXPECT_EQ(got, oracle);
  }
  {
    cm::Engine eng;  // CmStrictExec
    trees::Store st(eng);
    std::vector<Key> got;
    trees::collect_inorder(
        trees::merge_strict(st, st.build_balanced(a), st.build_balanced(b)),
        got);
    EXPECT_EQ(got, oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec: merge, strict merge, and rebalance
    rt::trees::Store st;
    rt::trees::Cell* merged = rt::trees::merge(
        st, st.input(st.build_balanced(a)), st.input(st.build_balanced(b)));
    EXPECT_EQ(rt::trees::wait_inorder(merged), oracle);
    std::vector<Key> got;
    rt::trees::collect_inorder(
        rt::trees::merge_strict_blocking(st, st.build_balanced(a),
                                         st.build_balanced(b)),
        got);
    EXPECT_EQ(got, oracle);
    rt::trees::Cell* balanced = rt::trees::rebalance(
        st, rt::trees::merge(st, st.input(st.build_balanced(a)),
                             st.input(st.build_balanced(b))));
    EXPECT_EQ(rt::trees::wait_inorder(balanced), oracle);
  }
}

TEST_P(ExecEquivalenceThreshold, TreapSetOps) {
  const std::size_t n = GetParam();
  const auto a = random_keys(n, 3 * n + 1);
  const auto b = random_keys(n, 3 * n + 2);
  std::vector<Key> u, d, i;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(u));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(d));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(i));

  {
    cm::Engine eng;  // CmExec
    treap::Store st(eng);
    const auto run = [&](treap::TreapCell* (*op)(treap::Store&,
                                                 treap::TreapCell*,
                                                 treap::TreapCell*),
                         const std::vector<Key>& expected) {
      treap::TreapCell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      std::vector<Key> got;
      treap::collect_inorder(treap::peek(out), got);
      EXPECT_EQ(got, expected);
      EXPECT_TRUE(treap::validate(st, treap::peek(out)));
    };
    run(treap::union_treaps, u);
    run(treap::diff_treaps, d);
    run(treap::intersect_treaps, i);
  }
  {
    rt::Scheduler sched(2);  // RtExec, pipelined + strict
    rt::treap::Store st;
    const auto run = [&](rt::treap::Cell* (*op)(rt::treap::Store&,
                                                rt::treap::Cell*,
                                                rt::treap::Cell*),
                         const std::vector<Key>& expected) {
      rt::treap::Cell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      EXPECT_EQ(rt::treap::wait_inorder(out), expected);
      EXPECT_TRUE(rt::treap::validate(st, out));
    };
    run(rt::treap::union_treaps, u);
    run(rt::treap::diff_treaps, d);
    run(rt::treap::intersect_treaps, i);
    EXPECT_EQ(rt::treap::wait_inorder(st.input(rt::treap::union_strict_blocking(
                  st, st.build(a), st.build(b)))),
              u);
    EXPECT_EQ(rt::treap::wait_inorder(st.input(rt::treap::diff_strict_blocking(
                  st, st.build(a), st.build(b)))),
              d);
  }
}

TEST_P(ExecEquivalenceThreshold, TtreeBulkInsert) {
  const std::size_t n = GetParam();
  const auto base = random_keys(n, 5 * n + 1);
  const auto extra = random_keys(n, 5 * n + 2);
  std::set<Key> ref(base.begin(), base.end());
  ref.insert(extra.begin(), extra.end());
  const std::vector<Key> oracle(ref.begin(), ref.end());

  {
    cm::Engine eng;  // CmExec
    ttree::Store st(eng);
    ttree::TCell* out =
        ttree::bulk_insert(st, st.input(st.build(base, 3)), extra);
    std::vector<Key> got;
    ttree::collect_keys(ttree::peek(out), got);
    EXPECT_EQ(got, oracle);
    EXPECT_TRUE(ttree::validate(ttree::peek(out)));
  }
  {
    rt::Scheduler sched(2);  // RtExec, pipelined + strict
    rt::ttree::Store st;
    rt::ttree::Cell* out =
        rt::ttree::bulk_insert(st, st.input(st.build(base, 3)), extra);
    EXPECT_EQ(rt::ttree::wait_keys(out), oracle);
    EXPECT_TRUE(rt::ttree::validate(out));
    rt::ttree::TNode* s = rt::ttree::bulk_insert_strict_blocking(
        st, st.build(base, 3), extra);
    EXPECT_EQ(rt::ttree::wait_keys(st.input(s)), oracle);
  }
}

TEST_P(ExecEquivalenceThreshold, Mergesort) {
  const std::size_t n = GetParam();
  auto values = random_keys(n, 7 * n + 1);
  Rng rng(7 * n + 2);
  for (std::size_t k = values.size(); k > 1; --k) {
    std::swap(values[k - 1],
              values[static_cast<std::size_t>(rng.range(0, k - 1))]);
  }
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());

  {
    cm::Engine eng;  // CmExec, plain + balanced
    trees::Store st(eng);
    std::vector<Key> got;
    trees::collect_inorder(trees::peek(algos::mergesort(st, values)), got);
    EXPECT_EQ(got, oracle);
    got.clear();
    trees::collect_inorder(trees::peek(algos::mergesort_balanced(st, values)),
                           got);
    EXPECT_EQ(got, oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec, plain + balanced + strict
    rt::trees::Store st;
    EXPECT_EQ(rt::trees::wait_inorder(rt::trees::mergesort(st, values)),
              oracle);
    EXPECT_EQ(
        rt::trees::wait_inorder(rt::trees::mergesort_balanced(st, values)),
        oracle);
    std::vector<Key> got;
    rt::trees::collect_inorder(
        rt::trees::mergesort_strict_blocking(st, values), got);
    EXPECT_EQ(got, oracle);
  }
}

TEST_P(ExecEquivalenceThreshold, QuicksortAndProducerConsumer) {
  const std::size_t n = GetParam();
  const auto values = random_values(n, 11 * n + 1);
  std::vector<Key> oracle = values;
  std::sort(oracle.begin(), oracle.end());
  const auto ni = static_cast<std::int64_t>(n);
  const std::int64_t sum_oracle = ni * (ni + 1) / 2;

  {
    cm::Engine eng;  // CmExec
    algos::ListStore st(eng);
    EXPECT_EQ(algos::peek_list(algos::quicksort(st, values)), oracle);
    EXPECT_EQ(algos::produce_consume(st, ni).sum, sum_oracle);
  }
  {
    rt::Scheduler sched(2);  // RtExec
    rt::list::Store st;
    EXPECT_EQ(rt::list::wait_list(rt::list::quicksort(st, values)), oracle);
    EXPECT_EQ(rt::list::produce_consume_sum(st, ni), sum_oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ExecEquivalenceThreshold,
    ::testing::Values(pipelined::RtExec::kDefaultSerialThreshold - 1,
                      pipelined::RtExec::kDefaultSerialThreshold,
                      pipelined::RtExec::kDefaultSerialThreshold + 1,
                      2 * pipelined::RtExec::kDefaultSerialThreshold));

// ---- leaf-chunk boundary straddle -------------------------------------------
// Runtime treaps store subtrees at or below Store::leaf_capacity() as flat
// sorted chunks (docs/storage.md). These sizes pin the handoff between
// chunked leaves and internal nodes: capacity-1, capacity and capacity+1
// inputs, plus a few chunks' worth, must agree with the sequential oracle on
// every substrate. The Cm substrates have kMaxLeafCapacity == 0 (the leaf
// branches are compiled out there) and run as the control group.

class ExecEquivalenceLeaf : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExecEquivalenceLeaf, TreapSetOps) {
  const std::size_t n = GetParam();
  const auto a = random_keys(n, 13 * n + 1);
  const auto b = random_keys(n, 13 * n + 2);
  std::vector<Key> u, d, i;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(u));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(d));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(i));

  {
    cm::Engine eng;  // CmExec + CmStrictExec: node-per-key control group
    treap::Store st(eng);
    const auto run = [&](treap::TreapCell* (*op)(treap::Store&,
                                                 treap::TreapCell*,
                                                 treap::TreapCell*),
                         const std::vector<Key>& expected) {
      treap::TreapCell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      std::vector<Key> got;
      treap::collect_inorder(treap::peek(out), got);
      EXPECT_EQ(got, expected);
      EXPECT_TRUE(treap::validate(st, treap::peek(out)));
    };
    run(treap::union_treaps, u);
    run(treap::diff_treaps, d);
    run(treap::intersect_treaps, i);
    std::vector<Key> got;
    treap::collect_inorder(treap::union_strict(st, st.build(a), st.build(b)),
                           got);
    EXPECT_EQ(got, u);
  }
  {
    rt::Scheduler sched(2);  // RtExec with chunked leaves, pipelined + strict
    rt::treap::Store st;
    const auto run = [&](rt::treap::Cell* (*op)(rt::treap::Store&,
                                                rt::treap::Cell*,
                                                rt::treap::Cell*),
                         const std::vector<Key>& expected) {
      rt::treap::Cell* out =
          op(st, st.input(st.build(a)), st.input(st.build(b)));
      EXPECT_EQ(rt::treap::wait_inorder(out), expected);
      EXPECT_TRUE(rt::treap::validate(st, out));
    };
    run(rt::treap::union_treaps, u);
    run(rt::treap::diff_treaps, d);
    run(rt::treap::intersect_treaps, i);
    EXPECT_EQ(rt::treap::wait_inorder(st.input(rt::treap::union_strict_blocking(
                  st, st.build(a), st.build(b)))),
              u);
    EXPECT_EQ(rt::treap::wait_inorder(st.input(rt::treap::diff_strict_blocking(
                  st, st.build(a), st.build(b)))),
              d);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ExecEquivalenceLeaf,
    ::testing::Values(pipelined::treap::kDefaultLeafCapacity - 1,
                      pipelined::treap::kDefaultLeafCapacity,
                      pipelined::treap::kDefaultLeafCapacity + 1,
                      5 * pipelined::treap::kDefaultLeafCapacity + 3));

// ---- augmented maps across substrates ---------------------------------------
// One sum-augmented int64 map entry, the same union body on all four
// substrates, and every range aggregate checked against a sequential fold
// oracle over the merged items. Parameterized on the requested leaf capacity
// {0, 1, 32}: the Cm substrates clamp every request to 0 (node-per-key, the
// control group), Rt/Rec clamp 0 up to 1 — both handoffs are exercised.

using AugSum = pipelined::treap::SumAug<std::int64_t>;
using AugMapEntry =
    pipelined::treap::AugEntry<pipelined::treap::MapEntry<std::int64_t>,
                               AugSum>;
using AugItem = std::pair<Key, std::int64_t>;

std::vector<AugItem> aug_items(std::size_t n, std::uint64_t seed) {
  const auto keys = random_keys(n, seed);
  Rng rng(seed * 131 + 7);
  std::vector<AugItem> out;
  out.reserve(keys.size());
  for (Key k : keys) out.emplace_back(k, rng.range(1, 1000));
  return out;
}

class ExecEquivalenceAug : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExecEquivalenceAug, SumAggregatesMatchFoldOracle) {
  const std::size_t cap = GetParam();
  const auto a = aug_items(300 + 3 * cap, 41 + cap);
  const auto b = aug_items(220 + 5 * cap, 142 + cap);
  const auto plus = [](std::int64_t x, std::int64_t y) { return x + y; };

  std::map<Key, std::int64_t> merged(a.begin(), a.end());
  for (const auto& [k, v] : b) {
    auto [it, fresh] = merged.emplace(k, v);
    if (!fresh) it->second += v;
  }
  const std::vector<AugItem> oracle(merged.begin(), merged.end());

  // Probe ranges: everything, prefixes/infixes straddling subtrees, a single
  // key, and an empty range past the right end.
  const Key first = oracle.front().first, last = oracle.back().first;
  const std::vector<std::pair<Key, Key>> ranges = {
      {std::numeric_limits<Key>::min(), std::numeric_limits<Key>::max()},
      {first, oracle[oracle.size() / 2].first},
      {oracle[oracle.size() / 3].first, oracle[2 * oracle.size() / 3].first},
      {oracle[7].first, oracle[7].first},
      {last + 1, last + 100},
      {first - 100, first - 1},
  };
  const auto fold = [&](Key lo, Key hi) {
    std::int64_t s = 0;
    for (const auto& [k, v] : merged)
      if (k >= lo && k <= hi) s += v;
    return s;
  };
  const auto check_ranges = [&](auto&& aggregate, const char* what) {
    for (const auto& [lo, hi] : ranges)
      EXPECT_EQ(aggregate(lo, hi), fold(lo, hi)) << what << " [" << lo << ", "
                                                 << hi << "]";
  };

  const auto peekf = [](const auto* c) { return pipelined::CmPolicy::peek(c); };

  {
    cm::Engine eng;  // CmExec: pipelined, node-per-key
    eng.set_crew(true);  // aug fibers re-read node cells (CREW)
    pipelined::treap::Store<pipelined::CmPolicy, AugMapEntry> st(
        eng, pipelined::treap::kDefaultSalt, cap);
    auto* out = st.cell();
    pipelined::run_inline(pipelined::treap::union_into(
        pipelined::CmExec(eng), st, st.input(st.build(a)),
        st.input(st.build(b)), out, plus));
    std::vector<AugItem> got;
    pipelined::treap::visit_items(
        out, peekf,
        [&](Key k, const std::int64_t& v) { got.emplace_back(k, v); });
    EXPECT_EQ(got, oracle);
    EXPECT_TRUE(pipelined::treap::validate(
        st, pipelined::treap::peek<pipelined::CmPolicy>(out)));
    check_ranges(
        [&](Key lo, Key hi) {
          return pipelined::treap::aggregate(out, lo, hi, peekf);
        },
        "CmExec");
  }
  {
    cm::Engine eng;  // CmStrictExec: fork-join baseline
    eng.set_crew(true);
    pipelined::treap::Store<pipelined::CmPolicy, AugMapEntry> st(
        eng, pipelined::treap::kDefaultSalt, cap);
    auto* n = pipelined::run_inline(pipelined::treap::union_strict(
        pipelined::CmStrictExec(eng), st, st.build(a), st.build(b), plus));
    auto* out = st.input(n);
    std::vector<AugItem> got;
    pipelined::treap::visit_items(
        out, peekf,
        [&](Key k, const std::int64_t& v) { got.emplace_back(k, v); });
    EXPECT_EQ(got, oracle);
    check_ranges(
        [&](Key lo, Key hi) {
          return pipelined::treap::aggregate(out, lo, hi, peekf);
        },
        "CmStrictExec");
  }
  {
    rt::Scheduler sched(2);  // RtExec: chunked leaves, real threads
    rt::map::Store<std::int64_t, AugSum> st(pipelined::treap::kDefaultSalt,
                                            cap);
    auto* out = rt::map::union_maps(st, st.input(st.build(a)),
                                    st.input(st.build(b)), plus);
    EXPECT_EQ(rt::map::wait_items(out), oracle);
    check_ranges(
        [&](Key lo, Key hi) { return rt::map::aggregate_wait(out, lo, hi); },
        "RtExec");
  }
  {
    cm::Engine eng(/*trace=*/true);  // RecExec: recording substrate
    eng.set_crew(true);
    analyze::RecExec ex(eng);
    rec::AugMapStore st(eng, pipelined::treap::kDefaultSalt, cap);
    rec::AugMapCell* out = rec::union_aug_maps(
        ex, st, st.input(st.build(a)), st.input(st.build(b)));
    const auto rpeek = [](const auto* c) {
      return analyze::RecPolicy::peek(c);
    };
    std::vector<AugItem> got;
    pipelined::treap::visit_items(
        out, rpeek,
        [&](Key k, const std::int64_t& v) { got.emplace_back(k, v); });
    EXPECT_EQ(got, oracle);
    check_ranges(
        [&](Key lo, Key hi) {
          return pipelined::treap::aggregate(out, lo, hi, rpeek);
        },
        "RecExec");
    EXPECT_GT(eng.aug_ops(), 0u);
    // Aug fibers re-read node cells, so EREW (like linearity) is demoted;
    // write-once and race-freedom still hold on the recorded trace.
    ASSERT_NE(eng.trace(), nullptr);
    analyze::Options opts;
    opts.check_linearity = false;
    opts.check_erew = false;
    const analyze::Report rep = analyze::verify(*eng.trace(), opts);
    EXPECT_TRUE(rep.ok()) << "aug map: " << rep.to_string();
    EXPECT_GT(rep.aug_ops, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LeafCaps, ExecEquivalenceAug,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{32}));

// ---- small operand into a large one ------------------------------------------
// The serial cutoff takes any operand of at most serial_threshold() keys
// against a large operand whose search-path cells are written. These sizes
// straddle that key budget — threshold-1, threshold and threshold+1 keys,
// half of them shared with a 4096-key operand — in both operand orders, on
// the runtime (sets and SumAug maps) and on the recording substrate at the
// runtime's threshold, whose traces must stay verifier-clean.

class ExecEquivalenceSmallIntoLarge
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExecEquivalenceSmallIntoLarge, SetOpsBothOrdersAndAugMaps) {
  const std::size_t m = GetParam();
  const std::size_t thr = pipelined::RtExec::kDefaultSerialThreshold;
  const auto big = random_keys(4096, 5 * m + 1);
  std::set<Key> small_set;
  for (std::size_t i = 0; small_set.size() < m / 2; i += 7)
    small_set.insert(big[(i * 31) % big.size()]);
  Rng rng(5 * m + 2);
  while (small_set.size() < m) small_set.insert(rng.range(0, 1 << 20));
  const std::vector<Key> small(small_set.begin(), small_set.end());
  const auto oracle = [](const std::vector<Key>& x, const std::vector<Key>& y,
                         auto op) {
    std::vector<Key> out;
    op(x.begin(), x.end(), y.begin(), y.end(), std::back_inserter(out));
    return out;
  };
  const auto set_union = [](auto... a) { return std::set_union(a...); };
  const auto set_diff = [](auto... a) { return std::set_difference(a...); };
  const auto set_meet = [](auto... a) { return std::set_intersection(a...); };
  const std::vector<std::pair<const std::vector<Key>*,
                              const std::vector<Key>*>>
      orders = {{&big, &small}, {&small, &big}};

  {
    rt::Scheduler sched(2);  // RtExec
    rt::treap::Store st;
    for (const auto& [x, y] : orders) {
      const auto run = [&](rt::treap::Cell* (*op)(rt::treap::Store&,
                                                  rt::treap::Cell*,
                                                  rt::treap::Cell*),
                           const std::vector<Key>& expected) {
        rt::treap::Cell* out =
            op(st, st.input(st.build(*x)), st.input(st.build(*y)));
        EXPECT_EQ(rt::treap::wait_inorder(out), expected);
        EXPECT_TRUE(rt::treap::validate(st, out));
      };
      run(rt::treap::union_treaps, oracle(*x, *y, set_union));
      run(rt::treap::diff_treaps, oracle(*x, *y, set_diff));
      run(rt::treap::intersect_treaps, oracle(*x, *y, set_meet));
    }
    if (m <= thr) {
      EXPECT_GT(sched.stats().serial_cutoffs, 0u);
    }
  }
  {
    rt::Scheduler sched(2);  // RtExec, augmented maps
    rt::map::Store<std::int64_t, AugSum> st;
    const auto items = [](const std::vector<Key>& keys, std::int64_t v) {
      std::vector<AugItem> out;
      for (const Key k : keys) out.emplace_back(k, v);
      return out;
    };
    const auto plus = [](std::int64_t x, std::int64_t y) { return x + y; };
    std::map<Key, std::int64_t> sum;
    for (const Key k : big) sum[k] += 1;
    for (const Key k : small) sum[k] += 2;
    auto* u = rt::map::union_maps(st, st.input(st.build(items(big, 1))),
                                  st.input(st.build(items(small, 2))), plus);
    EXPECT_EQ(rt::map::wait_items(u),
              std::vector<AugItem>(sum.begin(), sum.end()));
    std::int64_t total = 0;
    for (const auto& [k, v] : sum) total += v;
    EXPECT_EQ(rt::map::aggregate_wait(u, std::numeric_limits<Key>::min(),
                                      std::numeric_limits<Key>::max()),
              total);
    auto* d = rt::map::diff_maps(st, st.input(st.build(items(big, 1))),
                                 st.input(st.build(items(small, 0))));
    const std::vector<Key> left = oracle(big, small, set_diff);
    EXPECT_EQ(rt::map::wait_items(d), items(left, 1));
    EXPECT_EQ(rt::map::aggregate_wait(d, std::numeric_limits<Key>::min(),
                                      std::numeric_limits<Key>::max()),
              static_cast<std::int64_t>(left.size()));
  }
  {
    cm::Engine eng(/*trace=*/true);  // RecExec at the runtime's threshold
    analyze::RecExec ex(eng, thr);
    rec::TreapStore st(eng, pipelined::treap::kDefaultSalt,
                       pipelined::treap::kDefaultLeafCapacity);
    for (const auto& [x, y] : orders) {
      EXPECT_EQ(rec::treap_inorder(rec::union_treaps(
                    ex, st, st.input(st.build(*x)), st.input(st.build(*y)))),
                oracle(*x, *y, set_union));
      EXPECT_EQ(rec::treap_inorder(rec::diff_treaps(
                    ex, st, st.input(st.build(*x)), st.input(st.build(*y)))),
                oracle(*x, *y, set_diff));
      EXPECT_EQ(rec::treap_inorder(rec::intersect_treaps(
                    ex, st, st.input(st.build(*x)), st.input(st.build(*y)))),
                oracle(*x, *y, set_meet));
    }
    expect_trace_clean(eng, "small into large");
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeyBudget, ExecEquivalenceSmallIntoLarge,
    ::testing::Values(pipelined::RtExec::kDefaultSerialThreshold - 1,
                      pipelined::RtExec::kDefaultSerialThreshold,
                      pipelined::RtExec::kDefaultSerialThreshold + 1));

// ---- linear construction ----------------------------------------------------
// Store::build and the compaction rebuild make small trees by the range
// recursion and large ones (above Store::kTopDownMax entries) in one
// Cartesian stack pass. Either way the shape must be exactly the one of the
// top-down recursion below (leaf chunk for every range of at most
// leaf_capacity() keys, otherwise an internal node at the leftmost
// max-priority entry), node for node.

using ShapeToken = std::pair<char, std::int64_t>;

void reference_shape(const std::vector<Key>& keys,
                     const std::vector<std::uint64_t>& pri, std::size_t lo,
                     std::size_t hi, std::size_t cap,
                     std::vector<ShapeToken>& out) {
  if (lo == hi) {
    out.emplace_back('E', 0);
    return;
  }
  if (cap > 1 && hi - lo <= cap) {
    out.emplace_back('L', keys[lo]);
    out.emplace_back('#', static_cast<std::int64_t>(hi - lo));
    return;
  }
  std::size_t rp = lo;
  for (std::size_t i = lo + 1; i < hi; ++i)
    if (pri[i] > pri[rp]) rp = i;
  out.emplace_back('N', keys[rp]);
  reference_shape(keys, pri, lo, rp, cap, out);
  reference_shape(keys, pri, rp + 1, hi, cap, out);
}

void built_shape(const rt::treap::Node* n, std::vector<ShapeToken>& out) {
  if (n == nullptr) {
    out.emplace_back('E', 0);
    return;
  }
  if (pipelined::treap::is_leaf(n)) {
    out.emplace_back('L', n->items[0].key);
    out.emplace_back('#', static_cast<std::int64_t>(n->count));
    return;
  }
  out.emplace_back('N', n->key);
  built_shape(n->left->peek(), out);
  built_shape(n->right->peek(), out);
}

TEST(ExecEquivalenceLinearBuild, BuildAndRebuildMatchTheTopDownShape) {
  rt::Scheduler sched(2);
  static_assert(rt::treap::Store::kTopDownMax < (std::size_t{1} << 16));
  // One size per build path: the range recursion and the stack pass.
  for (const std::size_t n : {std::size_t{3000}, std::size_t{1} << 16}) {
    const auto keys = random_keys(n, 61);
    for (const std::size_t cap : {std::size_t{1}, std::size_t{4},
                                  pipelined::treap::kDefaultLeafCapacity}) {
      rt::treap::Store st(pipelined::treap::kDefaultSalt, cap);
      std::vector<std::uint64_t> pri;
      for (const Key k : keys) pri.push_back(st.priority(k));
      std::vector<ShapeToken> want, got;
      reference_shape(keys, pri, 0, keys.size(), cap, want);
      rt::treap::Node* root = st.build(keys);
      built_shape(root, got);
      EXPECT_EQ(got, want) << "build, n " << n << ", cap " << cap;

      // A tree reshaped by batches rebuilds into the same shape as a fresh
      // build over its keys.
      const auto extra = random_keys(3000, 62);
      rt::treap::Cell* mixed = rt::treap::diff_treaps(
          st,
          rt::treap::union_treaps(st, st.input(root),
                                  st.input(st.build(extra))),
          st.input(st.build(std::span<const Key>(keys).subspan(0, n / 8))));
      const std::vector<Key> left = rt::treap::wait_inorder(mixed);
      rt::treap::Store fresh(pipelined::treap::kDefaultSalt, cap);
      got.clear();
      built_shape(pipelined::treap::rebuild(fresh, mixed, left.size(),
                                            [](auto* c) { return c->peek(); }),
                  got);
      pri.clear();
      for (const Key k : left) pri.push_back(fresh.priority(k));
      want.clear();
      reference_shape(left, pri, 0, left.size(), cap, want);
      EXPECT_EQ(got, want) << "rebuild, n " << n << ", cap " << cap;
    }
  }
}

// Structural contract of the chunked storage itself, on the runtime
// substrate: builds at/above capacity chunk as expected, ops that descend
// into a chunk promote it to an internal node without losing keys, and
// small results collapse back into a single flat chunk.
TEST(ExecEquivalenceLeafStructure, BuildPromoteCollapse) {
  rt::Scheduler sched(2);
  rt::treap::Store st;
  const std::size_t cap = st.leaf_capacity();
  ASSERT_GT(cap, 1u);

  // Build at capacity: one flat chunk, no internal nodes.
  {
    const auto keys = random_keys(cap, 901);
    rt::treap::Cell* c = st.input(st.build(keys));
    const rt::treap::Node* root = c->wait_blocking();
    ASSERT_NE(root, nullptr);
    EXPECT_TRUE(pipelined::treap::is_leaf(root));
    const auto ce = rt::treap::cache_economy(c);
    EXPECT_EQ(ce.internal_nodes, 0u);
    EXPECT_EQ(ce.leaf_chunks, 1u);
    EXPECT_EQ(ce.leaf_keys, cap);
  }
  // Build just above capacity: the root must be a real node.
  {
    const auto keys = random_keys(cap + 1, 902);
    const rt::treap::Node* root = st.input(st.build(keys))->wait_blocking();
    ASSERT_NE(root, nullptr);
    EXPECT_FALSE(pipelined::treap::is_leaf(root));
  }
  // Promotion: union a single chunk into a much larger treap. The op
  // descends into the chunk (leaf -> internal rewrite on the winner path)
  // and every key of both inputs must survive.
  {
    const auto big = random_keys(20 * cap, 903);
    const auto small = random_keys(cap, 904);
    std::vector<Key> expected;
    std::set_union(big.begin(), big.end(), small.begin(), small.end(),
                   std::back_inserter(expected));
    rt::treap::Cell* out = rt::treap::union_treaps(
        st, st.input(st.build(big)), st.input(st.build(small)));
    EXPECT_EQ(rt::treap::wait_inorder(out), expected);
    EXPECT_TRUE(rt::treap::validate(st, out));
  }
  // Collapse: an intersection far below capacity re-chunks into one leaf.
  {
    auto a = random_keys(10 * cap, 905);
    auto b = random_keys(10 * cap, 906);
    std::vector<Key> shared;
    for (std::size_t k = 0; k < cap / 2; ++k)
      shared.push_back(static_cast<Key>(1) << 40 | static_cast<Key>(k));
    a.insert(a.end(), shared.begin(), shared.end());
    b.insert(b.end(), shared.begin(), shared.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<Key> expected;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expected));
    ASSERT_GE(expected.size(), cap / 2);
    rt::treap::Cell* out = rt::treap::intersect_treaps(
        st, st.input(st.build(a)), st.input(st.build(b)));
    EXPECT_EQ(rt::treap::wait_inorder(out), expected);
    // Every key is either a chunk entry or an internal node, and the result
    // re-chunks into far fewer structural units than one node per key. (The
    // pipelined join path may keep a few internal nodes above the chunks, so
    // this is not always a single flat leaf.)
    const auto ce = rt::treap::cache_economy(out);
    EXPECT_EQ(ce.leaf_keys + ce.internal_nodes, expected.size());
    EXPECT_GE(ce.leaf_chunks, 1u);
    EXPECT_LE(ce.internal_nodes + ce.leaf_chunks, expected.size() / 2);
  }
}

}  // namespace
}  // namespace pwf
