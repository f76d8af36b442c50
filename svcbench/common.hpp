// Shared plumbing of the service benchmark: clocks and CPU accounting, the
// in-memory span recorder behind --trace, and the result record that
// run.py turns into the benchmark's JSON line.
//
// Everything here is benchmark-side code. The program under test is only
// ever reached through its public facade, scheduler and reactor calls, made
// by the workload files around these helpers.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"

namespace svcbench {

// ---- clocks -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
inline double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

// a / b as a double, for counters of different integer types.
template <typename A, typename B>
double ratio(A a, B b) {
  return static_cast<double>(a) / static_cast<double>(b);
}

// Work sized from the nominal run length: `per_second` units a second.
inline std::size_t scaled(double seconds, double per_second) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds * per_second + 0.5));
}

// Sums of the scheduler's relaxed counters over measured intervals, each
// opened by start() and closed by stop().
class RtCounters {
 public:
  using Stats = pwf::rt::Scheduler::Stats;
  void start(const pwf::rt::Scheduler& s) { a_ = s.stats(); }
  void stop(const pwf::rt::Scheduler& s) {
    const Stats b = s.stats();
    sum_.resumed += b.resumed - a_.resumed;
    sum_.steals += b.steals - a_.steals;
    sum_.injected += b.injected - a_.injected;
    sum_.serial_cutoffs += b.serial_cutoffs - a_.serial_cutoffs;
    sum_.leaf_ops += b.leaf_ops - a_.leaf_ops;
    sum_.wakeups += b.wakeups - a_.wakeups;
    sum_.io_parks += b.io_parks - a_.io_parks;
    sum_.io_wakeups += b.io_wakeups - a_.io_wakeups;
    sum_.frame_pool_misses += b.frame_pool_misses - a_.frame_pool_misses;
  }
  const Stats& sum() const { return sum_; }

 private:
  Stats a_, sum_;
};

// ---- span recorder ----------------------------------------------------------
//
// A span is (name, start, end, id) on a track: the recording thread's own,
// numbered from 1, or the async track of request stages. Each thread
// appends to its own buffer, so recording takes no lock after a thread's
// first span; buffers are kept in memory and merged only when the trace is
// written at exit.
// The layer of a span is its name up to the first '.', which is also the
// module naming of the per-layer metrics.

struct Span {
  const char* name;
  std::int64_t t0;
  std::int64_t t1;
  std::uint64_t id;
  std::uint32_t track;
};

class Tracer {
 public:
  static bool on() { return on_; }
  static void enable() { on_ = true; }

  static void record(const char* name, std::int64_t t0, std::int64_t t1,
                     std::uint64_t id = 0) {
    Buffer& b = local();
    b.spans.push_back({name, t0, t1, id, b.track});
  }
  // A stage of request `id`. Stages of concurrent requests overlap in time
  // without nesting, so they go on the async track (0), written as
  // Chrome async events and never treated as parent or child of a span.
  static void record_stage(const char* name, std::int64_t t0, std::int64_t t1,
                           std::uint64_t id) {
    local().spans.push_back({name, t0, t1, id, kStageTrack});
  }
  static constexpr std::uint32_t kStageTrack = 0;

  static std::vector<Span> collect() {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> all;
    for (const auto& b : buffers_)
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
  }

 private:
  struct Buffer {
    std::uint32_t track = 0;
    std::vector<Span> spans;
  };
  static Buffer& local() {
    thread_local Buffer* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      mine = buffers_.back().get();
      mine->track = static_cast<std::uint32_t>(buffers_.size());
      mine->spans.reserve(1 << 14);
    }
    return *mine;
  }

  static inline bool on_ = false;
  static inline std::mutex mu_;
  static inline std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span around one call; free when tracing is off or name is null.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t id = 0)
      : name_(Tracer::on() ? name : nullptr), id_(id),
        t0_(name_ ? now_ns() : 0) {}
  ~Scope() {
    if (name_) Tracer::record(name_, t0_, now_ns(), id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  std::uint64_t id_;
  std::int64_t t0_;
};

// Writes <prefix>.trace.json (Chrome trace-event format, opens offline in
// Perfetto or chrome://tracing) and <prefix>.layers.txt, the per-name
// count / total / self-time table, which is also printed to stdout.
void write_trace(const std::string& prefix, const char* workload);

// ---- result record ----------------------------------------------------------

// Every metric the binary reports, with its unit, in output order. The
// end-to-end list must match BENCHMARK.json's; the per-layer list is
// BENCHMARK.json's without trace.overhead_pct, which run.py measures by
// comparing an untraced and a traced run.
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

class Result {
 public:
  explicit Result(const char* workload) : workload_(workload) {}

  // Operation accounting, per kind (batches, requests, probes, reads).
  void attempt(const char* kind, std::uint64_t n = 1) { ops_[kind].first += n; }
  void fail(const char* kind, std::uint64_t n = 1) { ops_[kind].second += n; }

  // A check of the program's output against the independent fold; prints
  // what failed.
  void check(bool ok, const char* what) {
    if (ok) return;
    checks_ok_ = false;
    std::printf("CHECK FAILED: %s\n", what);
  }

  // Names must come from kEndToEnd / kPerLayer. A per-layer metric a
  // workload has no operation for is reported as 0.
  void e2e(const char* name, double value);
  void layer(const char* name, double value);

  bool correct() const;
  // Prints the per-kind accounting table, then the machine-readable record
  // as the last stdout line.
  void emit() const;

 private:
  std::string workload_;
  bool checks_ok_ = true;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> ops_;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layer_;
};

// ---- workloads --------------------------------------------------------------

// Scheduler workers of every workload; with the benchmark's own threads
// a workload uses at most 4 threads.
constexpr unsigned kWorkers = 2;

struct Options {
  std::uint64_t seed = 1;
  double seconds = 20.0;  // nominal run length: the work is sized from it
  bool smoke = false;     // small sizes, every check
  bool trace = false;
};

void run_ingest(const Options& opt, Result& out);
void run_serve(const Options& opt, Result& out);
void run_readmix(const Options& opt, Result& out);

}  // namespace svcbench
