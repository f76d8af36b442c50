// ingest — closed-loop batch ingest into one ParallelSet.
//
// Stresses the treap bodies, leaf-chunk storage and work stealing, with no
// I/O and no reader threads. One mutator streams 256-key batches (two
// insert batches of uniform keys, then one erase batch of keys drawn from
// the base and from the two inserts before it) into a set whose 2^20-key
// base exceeds a core's L2. Every window of 63 batches it calls flush() and
// compact(), as a caller must today to bound the arena. Between windows,
// off the stream's clock, it checks size() and a fixed set of point reads
// against the fold.
#include <unordered_set>

#include "common.hpp"
#include "runtime/parallel_set.hpp"
#include "support/random.hpp"

namespace svcbench {

namespace {

using Key = std::int64_t;
using Keys = std::vector<Key>;

constexpr Key kUniverse = Key{1} << 30;

struct Batch {
  bool erase = false;
  Keys keys;
};

struct Window {
  std::vector<Batch> batches;
  std::size_t size_after = 0;  // fold's size at the window's flush
  Keys probes;                 // point reads made after the window
  std::vector<char> expect;    // fold membership of each probe
};

struct Inputs {
  Keys base;
  Window warm;  // set-up's fixed warm-up window
  std::vector<Window> windows;
  Keys final_keys;  // fold's contents after the last window
};

// Generates the stream and folds it through a std::unordered_set, which is
// the independent reference every check compares against.
Inputs make_inputs(std::uint64_t seed, std::size_t base_n, std::size_t m,
                   std::size_t per_window, std::size_t nwindows,
                   std::size_t nprobes) {
  pwf::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  Inputs in;
  std::unordered_set<Key> fold;
  fold.reserve(base_n * 2);
  while (fold.size() < base_n) fold.insert(rng.range(0, kUniverse - 1));
  in.base.assign(fold.begin(), fold.end());
  std::sort(in.base.begin(), in.base.end());

  const auto make_window = [&](Window& w) {
    for (std::size_t j = 0; j < per_window; ++j) {
      Batch b;
      b.erase = j % 3 == 2;
      b.keys.reserve(m);
      if (!b.erase) {
        for (std::size_t i = 0; i < m; ++i)
          b.keys.push_back(rng.range(0, kUniverse - 1));
        for (Key k : b.keys) fold.insert(k);
      } else {
        const Keys& a = w.batches[j - 1].keys;
        const Keys& c = w.batches[j - 2].keys;
        for (std::size_t i = 0; i < m; ++i) {
          switch (i % 4) {
            case 0: b.keys.push_back(a[rng.below(a.size())]); break;
            case 1: b.keys.push_back(c[rng.below(c.size())]); break;
            default: b.keys.push_back(in.base[rng.below(in.base.size())]);
          }
        }
        for (Key k : b.keys) fold.erase(k);
      }
      w.batches.push_back(std::move(b));
    }
    w.size_after = fold.size();
    // Half the probes ask for keys this window inserted, half for keys it
    // erased; the fold says which are present.
    std::vector<const Batch*> from[2];
    for (const Batch& b : w.batches) from[b.erase ? 1 : 0].push_back(&b);
    for (std::size_t i = 0; i < nprobes; ++i) {
      const std::vector<const Batch*>& pick = from[i % 2];
      const Keys& ks = pick[rng.below(pick.size())]->keys;
      const Key k = ks[rng.below(ks.size())];
      w.probes.push_back(k);
      w.expect.push_back(fold.count(k) ? 1 : 0);
    }
  };
  make_window(in.warm);
  in.windows.resize(nwindows);
  for (Window& w : in.windows) make_window(w);
  in.final_keys.assign(fold.begin(), fold.end());
  std::sort(in.final_keys.begin(), in.final_keys.end());
  return in;
}

void apply(pwf::rt::ParallelSet& set, const Batch& b) {
  if (b.erase) {
    Scope s("svc.erase_batch");
    set.erase_batch(b.keys);
  } else {
    Scope s("svc.insert_batch");
    set.insert_batch(b.keys);
  }
}

}  // namespace

void run_ingest(const Options& opt, Result& out) {
  // A window of 63 batches takes ~0.25 s on the reference host.
  const std::size_t base_n = opt.smoke ? 1 << 12 : 1 << 20;
  const std::size_t m = opt.smoke ? 64 : 256;
  const std::size_t per_window = opt.smoke ? 9 : 63;
  const std::size_t nwindows = opt.smoke ? 4 : scaled(opt.seconds, 4.0);
  const std::size_t nprobes = opt.smoke ? 64 : 2048;
  const int setup_reps = 5;

  const Inputs in =
      make_inputs(opt.seed, base_n, m, per_window, nwindows, nprobes);
  std::printf("ingest: base %zu keys, %zu windows x %zu batches x %zu keys "
              "(2:1 insert:erase), flush+compact per window, %zu reads per "
              "window, %u workers\n",
              base_n, nwindows, per_window, m, nprobes, kWorkers);

  // ---- set-up: scheduler, facade with the base, flush, one warm window ----
  std::unique_ptr<pwf::rt::Scheduler> sched;
  std::unique_ptr<pwf::rt::ParallelSet> set;
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    set.reset();
    sched.reset();
    const std::int64_t t0 = now_ns();
    sched = std::make_unique<pwf::rt::Scheduler>(kWorkers);
    set = std::make_unique<pwf::rt::ParallelSet>(*sched, in.base);
    set->flush();
    for (const Batch& b : in.warm.batches) apply(*set, b);
    set->flush();
    set->compact();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  out.check(set->size() == in.warm.size_after, "size after warm-up == fold");

  // ---- timed stream ----
  RtCounters rt;
  const pwf::rt::ParallelSet::Stats st0 = set->stats();
  std::uint64_t arena_floor = st0.arena_bytes;
  std::uint64_t peak_arena = st0.arena_bytes, arena_growth = 0;
  std::vector<double> issue_us, flush_ms, compact_ms;
  issue_us.reserve(nwindows * per_window);
  // Each end-to-end figure is the median over windows, so a burst of load
  // from outside the process moves one window rather than the whole run.
  std::vector<double> win_rate, win_cpu, win_reads;
  double stream_s = 0.0, compact_s = 0.0;
  std::uint64_t keys_written = 0, batches = 0;

  for (std::size_t wi = 0; wi < in.windows.size(); ++wi) {
    const Window& w = in.windows[wi];
    const double c0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    rt.start(*sched);
    {
      Scope win("bench.window", wi);
      for (const Batch& b : w.batches) {
        const std::int64_t a = now_ns();
        apply(*set, b);
        issue_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
        keys_written += b.keys.size();
      }
      const std::int64_t f0 = now_ns();
      {
        Scope s("svc.flush");
        set->flush();
      }
      const std::int64_t f1 = now_ns();
      flush_ms.push_back(static_cast<double>(f1 - f0) / 1e6);
      const std::uint64_t arena = set->stats().arena_bytes;
      peak_arena = std::max(peak_arena, arena);
      arena_growth += arena - std::min(arena, arena_floor);
      {
        Scope s("svc.compact");
        set->compact();
      }
      const std::int64_t f2 = now_ns();
      compact_ms.push_back(static_cast<double>(f2 - f1) / 1e6);
      compact_s += static_cast<double>(f2 - f1) / 1e9;
      arena_floor = set->stats().arena_bytes;
    }
    rt.stop(*sched);
    const double dt = static_cast<double>(now_ns() - t0) / 1e9;
    const double keys = static_cast<double>(w.batches.size() * m);
    stream_s += dt;
    win_rate.push_back(keys / dt);
    win_cpu.push_back((process_cpu_s() - c0) * 1e6 / keys);
    batches += w.batches.size();
    out.attempt("batches", w.batches.size());

    // Off the stream's clock: size and point reads against the fold.
    const bool size_ok = set->size() == w.size_after;
    if (!size_ok) out.fail("batches", w.batches.size());
    out.check(size_ok, "size at window == fold size");
    const std::int64_t r0 = now_ns();
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < w.probes.size(); ++i) {
      Scope s("svc.contains");
      if (set->contains(w.probes[i]) != (w.expect[i] != 0)) ++bad;
    }
    win_reads.push_back(static_cast<double>(w.probes.size()) * 1e9 /
                        static_cast<double>(now_ns() - r0));
    out.attempt("reads", w.probes.size());
    out.fail("reads", bad);
  }
  const pwf::rt::Scheduler::Stats& d = rt.sum();
  const pwf::rt::ParallelSet::Stats st1 = set->stats();

  // ---- end-of-run checks and the storage economy of the final epoch ----
  out.check(set->keys() == in.final_keys, "final keys == std::set fold");
  const pwf::rt::ParallelSet::CacheEconomy ce = set->cache_economy();
  const double live = static_cast<double>(in.final_keys.size());

  const double kw = static_cast<double>(keys_written);
  const double nb = static_cast<double>(batches);
  out.e2e("setup_s", median(setup_s));
  out.e2e("keys_per_s", median(win_rate));
  out.e2e("cpu_us_per_key", median(win_cpu));
  out.e2e("peak_arena_mb", static_cast<double>(peak_arena) / 1048576.0);
  out.e2e("req_p50_us", median(issue_us));
  out.e2e("reads_per_s", median(win_reads));

  out.layer("treap.arena_b_per_key", ratio(arena_growth, kw));
  out.layer("treap.bytes_per_live_key", ratio(ce.arena_bytes, live));
  out.layer("treap.leaf_ops_per_key", ratio(d.leaf_ops, kw));
  out.layer("rt.resumes_per_key", ratio(d.resumed, kw));
  out.layer("rt.frame_misses_per_key", ratio(d.frame_pool_misses, kw));
  out.layer("rt.serial_cutoffs_per_batch", ratio(d.serial_cutoffs, nb));
  out.layer("rt.steals_per_batch", ratio(d.steals, nb));
  out.layer("rt.wakeups_per_batch", ratio(d.wakeups, nb));
  out.layer("svc.issue_us_per_batch", median(issue_us));
  out.layer("svc.flush_wait_ms", mean(flush_ms));
  out.layer("svc.compact_ms", mean(compact_ms));
  out.layer("svc.compact_share", compact_s / stream_s);
  out.layer("svc.overlap_per_batch",
            ratio(st1.overlapped - st0.overlapped, nb));
  out.layer("svc.max_pending", static_cast<double>(st1.max_pending));

  set.reset();
  sched.reset();
}

}  // namespace svcbench
