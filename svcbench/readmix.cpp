// readmix — reads beside writes on an adaptive sharded, augmented map.
//
// Stresses shard_adapt splits and merges, routing-table epochs, aggregate
// maintenance and snapshots, over the same treap layer as ingest but with
// skewed keys and a contending reader. The writer streams E26's zipfian
// shifting-hotspot batches (256 keys, +1 each) into a
// ShardedParallelMap<int64, SumAug>; every 16 batches it makes a live
// full-range aggregate, a flush, and E26's fair-share maintenance (compact
// each shard holding more than twice its share of the arena). One reader
// thread alternates a point get() and a snapshot(k) aggregate over hot and
// cold keys, and checks each value against the batches issued around it.
//
// The reader makes no live cross-shard aggregate: during a rebalance such
// a read double-counts the moved range, and it does so only now and then
// (README.md, "Known faults").
#include <pthread.h>

#include <cmath>
#include <limits>
#include <map>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "pipelined/treap_entry.hpp"
#include "runtime/shard_adapt.hpp"
#include "runtime/sharded_map.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace svcbench {

namespace {

namespace rt = pwf::rt;

using Key = std::int64_t;
using Item = std::pair<Key, std::int64_t>;
using Aug = pwf::pipelined::treap::SumAug<std::int64_t>;
using Map = rt::ShardedParallelMap<std::int64_t, Aug>;

constexpr Key kUniverse = Key{1} << 28;
constexpr std::size_t kTick = 16;  // batches between maintenance steps

// Zipf(s) rank sampler over [0, n) by inversion on the harmonic CDF.
class ZipfRanks {
 public:
  ZipfRanks(std::size_t n, double s) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t next(pwf::Rng& rng) const {
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01()) -
        cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// E26's stream: batch b draws m zipf ranks over a hot window of hot_n ranks
// scattered across hot_n * 8 key slots; the window jumps to the next of
// `windows` locations every shift_every batches.
std::vector<std::vector<Key>> skewed_batches(pwf::Rng& rng, std::size_t n,
                                             std::size_t m) {
  constexpr std::size_t hot_n = 512, shift_every = 32, windows = 4;
  const ZipfRanks zipf(hot_n, 1.0);
  const Key span = kUniverse / static_cast<Key>(windows);
  std::vector<std::vector<Key>> out(n);
  for (std::size_t b = 0; b < n; ++b) {
    const std::size_t w = (b / shift_every) % windows;
    for (std::size_t j = 0; j < m; ++j) {
      std::uint64_t mix = zipf.next(rng) + 0x9e3779b97f4a7c15ULL * (w + 1);
      const std::uint64_t slot = pwf::splitmix64(mix) % (hot_n * 8);
      out[b].push_back(static_cast<Key>(w) * span + static_cast<Key>(slot));
    }
  }
  return out;
}

struct Inputs {
  std::vector<Item> base;
  std::vector<std::vector<Item>> warm;
  // The timed stream is `blocks` repetitions of one block of batches.
  std::vector<std::vector<Item>> block;
  std::size_t blocks = 0;
  // Reader keys; `start[r]` is a key's value when the timed stream starts,
  // `cum[r][b]` its count in the block's first b batches.
  std::vector<Key> read_keys;
  std::vector<std::int64_t> start;
  std::vector<std::vector<std::uint32_t>> cum;
  std::vector<Item> final_items;  // std::map fold of everything written
};

Inputs make_inputs(std::uint64_t seed, std::size_t base_n, std::size_t m,
                   std::size_t warm_n, std::size_t block_n, std::size_t blocks,
                   std::size_t hot_readers, std::size_t cold_readers) {
  pwf::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 26);
  Inputs in;
  std::map<Key, std::int64_t> fold;
  while (fold.size() < base_n) fold.emplace(rng.range(0, kUniverse - 1), 1);
  in.base.assign(fold.begin(), fold.end());
  const auto as_items = [](const std::vector<std::vector<Key>>& bs) {
    std::vector<std::vector<Item>> out;
    for (const auto& b : bs) {
      out.emplace_back();
      for (Key k : b) out.back().emplace_back(k, 1);
    }
    return out;
  };
  in.warm = as_items(skewed_batches(rng, warm_n, m));
  in.block = as_items(skewed_batches(rng, block_n, m));
  in.blocks = blocks;
  for (const auto& b : in.warm)
    for (const Item& it : b) fold[it.first] += 1;

  // Hot reader keys: the block's most written keys; cold ones: base keys.
  std::unordered_map<Key, std::int64_t> per_block;
  for (const auto& b : in.block)
    for (const Item& it : b) per_block[it.first] += 1;
  std::vector<std::pair<std::int64_t, Key>> by_count;
  for (const auto& [k, c] : per_block) by_count.emplace_back(-c, k);
  std::sort(by_count.begin(), by_count.end());
  for (std::size_t i = 0; i < hot_readers && i < by_count.size(); ++i)
    in.read_keys.push_back(by_count[i].second);
  for (std::size_t i = 0; i < cold_readers; ++i)
    in.read_keys.push_back(in.base[rng.below(in.base.size())].first);
  std::unordered_map<Key, std::size_t> slot;
  for (std::size_t r = 0; r < in.read_keys.size(); ++r) {
    slot.emplace(in.read_keys[r], r);
    const auto it = fold.find(in.read_keys[r]);
    in.start.push_back(it == fold.end() ? 0 : it->second);
  }
  in.cum.assign(in.read_keys.size(),
                std::vector<std::uint32_t>(block_n + 1, 0));
  for (std::size_t b = 0; b < block_n; ++b) {
    for (auto& c : in.cum) c[b + 1] = c[b];
    for (const Item& it : in.block[b]) {
      const auto s = slot.find(it.first);
      if (s != slot.end()) in.cum[s->second][b + 1] += 1;
    }
  }
  for (const auto& [k, c] : per_block)
    fold[k] += c * static_cast<std::int64_t>(blocks);
  in.final_items.assign(fold.begin(), fold.end());
  return in;
}

// Bound on reader key r's value after the first b timed batches.
std::int64_t expected(const Inputs& in, std::size_t r, std::uint64_t b) {
  const std::size_t n = in.block.size();
  return in.start[r] +
         static_cast<std::int64_t>(b / n) * in.cum[r][n] + in.cum[r][b % n];
}

// The reader thread: alternates get(k) and snapshot(k).aggregate(k, k)
// until told to stop. A value must lie between the key's count over the
// batches completed before the read began and over those started by its
// end, and a key's successive values never decrease.
struct Reader {
  const Inputs* in = nullptr;
  const Map* map = nullptr;
  std::atomic<std::uint64_t>* completed = nullptr;
  std::atomic<std::uint64_t>* started = nullptr;
  std::atomic<bool>* stop = nullptr;

  std::vector<double> get_us, snap_us;
  std::atomic<std::uint64_t> reads{0};  // sampled by the writer per block
  std::uint64_t bad = 0;

  void run() {
    const std::size_t nk = in->read_keys.size();
    std::vector<std::int64_t> last(nk, 0);
    for (std::uint64_t i = 0; !stop->load(std::memory_order_acquire); ++i) {
      const std::size_t r = (i / 2) % nk;
      const Key k = in->read_keys[r];
      // One get and one snapshot read in every 1024 are timed (and
      // traced): a read takes ~0.2 us, so timing all of them would cost a
      // quarter of the reader's rate and hold ~10^8 samples.
      const bool timed = i % 1024 < 2;
      const std::uint64_t lo_b = completed->load(std::memory_order_acquire);
      const std::int64_t t0 = timed ? now_ns() : 0;
      std::int64_t v = 0;
      if (i % 2 == 0) {
        Scope s(timed ? "read.get" : nullptr);
        v = map->get(k).value_or(0);
      } else {
        Scope s(timed ? "read.snapshot" : nullptr);
        v = map->snapshot(k).aggregate(k, k);
      }
      if (timed)
        (i % 2 == 0 ? get_us : snap_us)
            .push_back(static_cast<double>(now_ns() - t0) / 1e3);
      const std::uint64_t hi_b = started->load(std::memory_order_acquire);
      if (v < expected(*in, r, lo_b) || v > expected(*in, r, hi_b) ||
          v < last[r])
        ++bad;
      last[r] = v;
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

// E26's maintenance: compact every shard holding more than twice its fair
// share of the total arena.
void maintain(Map& map, std::vector<double>& compact_ms) {
  const std::size_t n = map.shard_count();
  std::vector<std::uint64_t> bytes(n);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = map.shard_stats(i).arena_bytes;
    total += bytes[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (bytes[i] * n <= 2 * total) continue;
    const std::int64_t t0 = now_ns();
    {
      Scope s("svc.compact_shard", i);
      map.compact_shard(i);
    }
    compact_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
}

}  // namespace

void run_readmix(const Options& opt, Result& out) {
  // One block of 1024 batches takes ~0.08 s on the reference host.
  const std::size_t base_n = opt.smoke ? 1 << 10 : 1 << 16;
  const std::size_t m = opt.smoke ? 64 : 256;
  const std::size_t warm_n = opt.smoke ? 64 : 2048;
  const std::size_t block_n = opt.smoke ? 128 : 1024;
  const std::size_t blocks = opt.smoke ? 2 : scaled(opt.seconds, 12.0);
  const int setup_reps = 5;
  const auto add = [](std::int64_t a, std::int64_t b) { return a + b; };

  const Inputs in =
      make_inputs(opt.seed, base_n, m, warm_n, block_n, blocks, 48, 16);
  std::printf("readmix: base %zu keys, %zu x %zu zipf batches x %zu keys, "
              "tick every %zu batches, 1 reader over %zu keys, %u workers\n",
              base_n, blocks, block_n, m, kTick, in.read_keys.size(),
              kWorkers);

  rt::adapt::Config cfg;
  cfg.enabled = true;
  cfg.min_shards = 2;
  cfg.max_shards = 64;
  cfg.low_cont = 0.1;  // E26: merge reluctantly, keep the cold base spread

  std::unique_ptr<rt::Scheduler> sched;
  std::unique_ptr<Map> map;
  std::vector<double> issue_us, agg_us, flush_ms, compact_ms;
  std::uint64_t peak_arena = 0, arena_growth = 0, arena_floor = 0;
  std::int64_t written = static_cast<std::int64_t>(base_n);
  std::uint64_t bad_aggregates = 0;

  // One writer step: the batch, then every kTick batches the live
  // aggregate (checked exactly: the writer is the only mutator), a flush,
  // an arena sample and the maintenance compactions.
  const auto step = [&](const std::vector<Item>& b, std::size_t count,
                        bool timed) {
    const std::int64_t t0 = now_ns();
    {
      Scope s("svc.insert_batch");
      map->insert_batch(b, add);
    }
    if (timed) issue_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    written += static_cast<std::int64_t>(b.size());
    if (count % kTick != 0) return;
    Scope tick("bench.tick", count);
    const std::int64_t a0 = now_ns();
    std::int64_t total = 0;
    {
      Scope s("read.aggregate");
      total = map->aggregate(std::numeric_limits<Key>::min(),
                             std::numeric_limits<Key>::max());
    }
    const std::int64_t a1 = now_ns();
    if (total != written) ++bad_aggregates;
    {
      Scope s("svc.flush");
      map->flush();
    }
    const std::int64_t a2 = now_ns();
    const std::uint64_t arena = map->stats().arena_bytes;
    if (timed) {
      agg_us.push_back(static_cast<double>(a1 - a0) / 1e3);
      flush_ms.push_back(static_cast<double>(a2 - a1) / 1e6);
      peak_arena = std::max(peak_arena, arena);
      arena_growth += arena - std::min(arena, arena_floor);
    }
    std::vector<double> scratch;
    maintain(*map, timed ? compact_ms : scratch);
    if (timed) arena_floor = map->stats().arena_bytes;
  };

  // ---- set-up: scheduler, facade, base load, warm-up stream ----
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    map.reset();
    sched.reset();
    written = static_cast<std::int64_t>(base_n);
    const std::int64_t t0 = now_ns();
    sched = std::make_unique<rt::Scheduler>(kWorkers);
    map = std::make_unique<Map>(*sched, 8, 0x9e3779b97f4a7c15ULL,
                                pwf::pipelined::treap::kDefaultLeafCapacity,
                                cfg);
    map->insert_batch(in.base, add);
    map->flush();
    for (std::size_t b = 0; b < in.warm.size(); ++b)
      step(in.warm[b], b + 1, false);
    map->flush();
    map->compact();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  out.check(bad_aggregates == 0, "warm-up live aggregates == base + writes");
  bad_aggregates = 0;

  // ---- timed stream with the reader beside it ----
  const Map::Stats st0 = map->stats();
  arena_floor = st0.arena_bytes;
  peak_arena = arena_floor;
  std::atomic<std::uint64_t> completed{0}, started{0};
  std::atomic<bool> stop{false};
  Reader reader;
  reader.in = &in;
  reader.map = map.get();
  reader.completed = &completed;
  reader.started = &started;
  reader.stop = &stop;
  RtCounters rtc;
  const std::size_t nbatches = in.blocks * in.block.size();
  issue_us.reserve(nbatches);

  // The stream is measured block by block and each end-to-end figure is
  // the median over blocks, so a burst of load from outside the process
  // moves one block rather than the whole run.
  std::thread reader_thread([&reader] { reader.run(); });
  clockid_t reader_clock;
  PWF_CHECK(pthread_getcpuclockid(reader_thread.native_handle(),
                                  &reader_clock) == 0);
  const auto writer_cpu_s = [&] {
    return process_cpu_s() - cpu_clock_s(reader_clock);
  };
  std::vector<double> blk_rate, blk_cpu, blk_reads, blk_peak;
  rtc.start(*sched);
  const std::int64_t t0 = now_ns();
  for (std::size_t blk = 0; blk < in.blocks; ++blk) {
    const std::int64_t b0 = now_ns();
    const double c0 = writer_cpu_s();
    const std::uint64_t r0 = reader.reads.load(std::memory_order_relaxed);
    peak_arena = 0;
    for (std::size_t i = 0; i < in.block.size(); ++i) {
      const std::size_t b = blk * in.block.size() + i;
      started.store(b + 1, std::memory_order_release);
      step(in.block[i], b + 1, true);
      completed.store(b + 1, std::memory_order_release);
    }
    const double dt = static_cast<double>(now_ns() - b0) / 1e9;
    const double keys = static_cast<double>(in.block.size() * m);
    blk_rate.push_back(keys / dt);
    blk_cpu.push_back((writer_cpu_s() - c0) * 1e6 / keys);
    blk_reads.push_back(
        static_cast<double>(reader.reads.load(std::memory_order_relaxed) - r0) /
        dt);
    blk_peak.push_back(static_cast<double>(peak_arena) / 1048576.0);
  }
  const double stream_s = static_cast<double>(now_ns() - t0) / 1e9;
  rtc.stop(*sched);
  stop.store(true, std::memory_order_release);
  reader_thread.join();
  const Map::Stats st1 = map->stats();
  const pwf::rt::Scheduler::Stats& d = rtc.sum();

  out.attempt("batches", nbatches);
  out.attempt("reads", reader.reads.load() + nbatches / kTick);
  out.fail("reads", reader.bad + bad_aggregates);
  out.check(reader.bad == 0, "reader values within their batch bounds");
  out.check(bad_aggregates == 0, "live aggregate == base + 256 x batches");

  // ---- end-of-run checks ----
  map->flush();
  const std::vector<Item> items = map->items();
  out.check(items == in.final_items, "final items == std::map fold");
  std::vector<std::int64_t> prefix(in.final_items.size() + 1, 0);
  for (std::size_t i = 0; i < in.final_items.size(); ++i)
    prefix[i + 1] = prefix[i] + in.final_items[i].second;
  pwf::Rng rng(opt.seed + 99);
  bool ranges_ok = true;
  for (int i = 0; i < 1000; ++i) {
    Key lo = rng.range(0, kUniverse - 1), hi = rng.range(0, kUniverse - 1);
    if (i % 2 == 0) hi = lo + rng.range(0, 1 << 16);  // narrow, hot-sized
    if (lo > hi) std::swap(lo, hi);
    const auto at = [&](Key k) {
      return static_cast<std::size_t>(
          std::lower_bound(in.final_items.begin(), in.final_items.end(),
                           Item{k, std::numeric_limits<std::int64_t>::min()}) -
          in.final_items.begin());
    };
    ranges_ok &= map->aggregate(lo, hi) == prefix[at(hi + 1)] - prefix[at(lo)];
  }
  out.check(ranges_ok, "range aggregates == std::map prefix sums");
  map->compact();
  const Map::CacheEconomy ce = map->cache_economy();
  const Map::Stats st2 = map->stats();

  const double kw = static_cast<double>(nbatches * m);
  const double nb = static_cast<double>(nbatches);
  out.e2e("setup_s", median(setup_s));
  out.e2e("keys_per_s", median(blk_rate));
  out.e2e("cpu_us_per_key", median(blk_cpu));
  out.e2e("peak_arena_mb", median(blk_peak));
  out.e2e("req_p50_us", median(reader.get_us));
  out.e2e("reads_per_s", median(blk_reads));

  out.layer("treap.arena_b_per_key", ratio(arena_growth, kw));
  out.layer("treap.bytes_per_live_key",
            static_cast<double>(ce.arena_bytes) /
                static_cast<double>(in.final_items.size()));
  out.layer("treap.leaf_ops_per_key", ratio(d.leaf_ops, kw));
  out.layer("rt.resumes_per_key", ratio(d.resumed, kw));
  out.layer("rt.frame_misses_per_key", ratio(d.frame_pool_misses, kw));
  out.layer("rt.serial_cutoffs_per_batch", ratio(d.serial_cutoffs, nb));
  out.layer("rt.steals_per_batch", ratio(d.steals, nb));
  out.layer("rt.wakeups_per_batch", ratio(d.wakeups, nb));
  out.layer("svc.issue_us_per_batch", median(issue_us));
  out.layer("svc.flush_wait_ms", mean(flush_ms));
  out.layer("svc.compact_ms", mean(compact_ms));
  double compact_total_ms = 0.0;
  for (double v : compact_ms) compact_total_ms += v;
  out.layer("svc.compact_share", compact_total_ms / 1e3 / stream_s);
  out.layer("svc.overlap_per_batch",
            st1.batches > st0.batches
                ? static_cast<double>(st1.overlapped - st0.overlapped) /
                      static_cast<double>(st1.batches - st0.batches)
                : 0.0);
  out.layer("svc.max_pending", static_cast<double>(st1.max_pending));
  out.layer("shard.splits", static_cast<double>(st1.splits - st0.splits));
  out.layer("shard.merges", static_cast<double>(st1.merges - st0.merges));
  out.layer("shard.count_final", static_cast<double>(st2.shards));
  out.layer("shard.imbalance_max", st2.imbalance_max);
  out.layer("read.get_us_p50", median(reader.get_us));
  out.layer("read.snapshot_us_p50", median(reader.snap_us));
  out.layer("read.aggregate_us_p50", median(agg_us));

  map.reset();
  sched.reset();
}

}  // namespace svcbench
