#include "common.hpp"

#include "support/check.hpp"

#include <cmath>
#include <cstring>
#include <string_view>

namespace svcbench {

namespace {

std::string_view layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string_view(name, static_cast<std::size_t>(dot - name))
             : std::string_view(name);
}

struct Row {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

// Self time = a span's duration minus the part its child spans cover. On a
// track spans nest (a call inside a window), so sorting by (start, longer
// first) and keeping a stack of open spans finds each span's parent.
std::map<std::string, Row> summarize(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.track != b.track) return a.track < b.track;
    if (a.t0 != b.t0) return a.t0 < b.t0;
    return a.t1 > b.t1;
  });
  std::vector<double> child(spans.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].track == Tracer::kStageTrack) continue;
    while (!open.empty() && (spans[open.back()].track != spans[i].track ||
                             spans[open.back()].t1 <= spans[i].t0))
      open.pop_back();
    if (!open.empty()) {
      const Span& p = spans[open.back()];
      child[open.back()] +=
          static_cast<double>(std::min(p.t1, spans[i].t1) - spans[i].t0);
    }
    open.push_back(i);
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Row& r = rows[spans[i].name];
    const double dur = static_cast<double>(spans[i].t1 - spans[i].t0);
    r.count += 1;
    r.total_ms += dur / 1e6;
    r.self_ms += (dur - child[i]) / 1e6;
  }
  return rows;
}

}  // namespace

void write_trace(const std::string& prefix, const char* workload) {
  const std::vector<Span> spans = Tracer::collect();
  std::int64_t origin = spans.empty() ? 0 : spans.front().t0;
  for (const Span& s : spans) origin = std::min(origin, s.t0);

  const std::string json_path = prefix + ".trace.json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    std::fprintf(f,
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"args\": {\"name\": \"svcbench %s\"}}",
                 workload);
    for (const Span& s : spans) {
      const std::string_view layer = layer_of(s.name);
      const double ts = static_cast<double>(s.t0 - origin) / 1e3;
      const double te = static_cast<double>(s.t1 - origin) / 1e3;
      if (s.track == Tracer::kStageTrack) {
        for (const auto& [ph, t] : {std::pair{'b', ts}, std::pair{'e', te}})
          std::fprintf(f,
                       ",\n{\"name\": \"%s\", \"cat\": \"%.*s\", "
                       "\"ph\": \"%c\", \"id\": %llu, \"pid\": 1, "
                       "\"tid\": 0, \"ts\": %.3f}",
                       s.name, static_cast<int>(layer.size()), layer.data(),
                       ph, static_cast<unsigned long long>(s.id), t);
        continue;
      }
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %llu}}",
                   s.name, static_cast<int>(layer.size()), layer.data(),
                   s.track, ts, te - ts, static_cast<unsigned long long>(s.id));
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
  }

  const std::map<std::string, Row> rows = summarize(spans);
  std::string table =
      "span                      count    total_ms     self_ms\n";
  char line[160];
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof line, "%-24s %7llu %11.3f %11.3f\n",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  r.total_ms, r.self_ms);
    table += line;
  }
  // Request stages overlap across requests, so they have no self time and
  // stay out of the per-layer sums.
  std::map<std::string, double> layer_self;
  for (const auto& [name, r] : rows)
    if (layer_of(name.c_str()) != "stage")
      layer_self[std::string(layer_of(name.c_str()))] += r.self_ms;
  table += "layer                    self_ms\n";
  for (const auto& [layer, ms] : layer_self) {
    std::snprintf(line, sizeof line, "%-24s %11.3f\n", layer.c_str(), ms);
    table += line;
  }
  std::fputs(table.c_str(), stdout);
  const std::string txt_path = prefix + ".layers.txt";
  if (std::FILE* f = std::fopen(txt_path.c_str(), "w")) {
    std::fputs(table.c_str(), f);
    std::fclose(f);
  }
  std::printf("trace: %zu spans -> %s, %s\n", spans.size(), json_path.c_str(),
              txt_path.c_str());
}

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},          {"keys_per_s", "keys/s"},
    {"cpu_us_per_key", "us"},  {"peak_arena_mb", "MB"},
    {"req_p50_us", "us"},      {"reads_per_s", "reads/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"treap.arena_b_per_key", "B/key"},
    {"treap.bytes_per_live_key", "B/key"},
    {"treap.leaf_ops_per_key", "count/key"},
    {"rt.resumes_per_key", "count/key"},
    {"rt.frame_misses_per_key", "count/key"},
    {"rt.serial_cutoffs_per_batch", "count/batch"},
    {"rt.steals_per_batch", "count/batch"},
    {"rt.wakeups_per_batch", "count/batch"},
    {"rt.wakeups_per_req", "count/req"},
    {"rt.injected_per_req", "count/req"},
    {"svc.issue_us_per_batch", "us"},
    {"svc.flush_wait_ms", "ms"},
    {"svc.compact_ms", "ms"},
    {"svc.compact_share", "ratio"},
    {"svc.overlap_per_batch", "ratio"},
    {"svc.max_pending", "count"},
    {"shard.splits", "count"},
    {"shard.merges", "count"},
    {"shard.count_final", "count"},
    {"shard.imbalance_max", "ratio"},
    {"read.get_us_p50", "us"},
    {"read.snapshot_us_p50", "us"},
    {"read.aggregate_us_p50", "us"},
    {"io.parks_per_req", "count/req"},
    {"io.wakeups_per_req", "count/req"},
    {"stage.wire_in_us_p50", "us"},
    {"stage.wire_in_us_mean", "us"},
    {"stage.queue_us_p50", "us"},
    {"stage.queue_us_mean", "us"},
    {"stage.issue_us_p50", "us"},
    {"stage.issue_us_mean", "us"},
    {"stage.apply_us_p50", "us"},
    {"stage.apply_us_mean", "us"},
    {"stage.reply_us_p50", "us"},
    {"stage.reply_us_mean", "us"},
    {"stage.gap_pct", "%"},
    {"req.paced_p50_us", "us"},
    {"gen.late_us_p50", "us"},
    {"gen.late_us_max", "us"},
    {"proc.peak_rss_mb", "MB"},
};

namespace {

bool known(const std::vector<MetricDef>& defs, const char* name) {
  for (const MetricDef& d : defs)
    if (std::strcmp(d.name, name) == 0) return true;
  return false;
}

}  // namespace

void Result::e2e(const char* name, double value) {
  PWF_CHECK_MSG(known(kEndToEnd, name), name);
  e2e_[name] = value;
}

void Result::layer(const char* name, double value) {
  PWF_CHECK_MSG(known(kPerLayer, name), name);
  layer_[name] = value;
}

bool Result::correct() const {
  if (!checks_ok_ || e2e_.size() != kEndToEnd.size()) return false;
  for (const auto& [kind, af] : ops_)
    if (af.second != 0) return false;
  return true;
}

void Result::emit() const {
  std::uint64_t attempted = 0, failed = 0;
  std::printf("%-10s %12s %8s\n", "ops", "attempted", "failed");
  for (const auto& [kind, af] : ops_) {
    std::printf("%-10s %12llu %8llu\n", kind.c_str(),
                static_cast<unsigned long long>(af.first),
                static_cast<unsigned long long>(af.second));
    attempted += af.first;
    failed += af.second;
  }
  const auto metrics = [](const std::vector<MetricDef>& defs,
                          const std::map<std::string, double>& got) {
    std::string s = "{";
    char buf[256];
    for (const MetricDef& d : defs) {
      const auto it = got.find(d.name);
      const double v =
          it == got.end() || !std::isfinite(it->second) ? 0.0 : it->second;
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    s.size() > 1 ? ", " : "", d.name, v, d.unit);
      s += buf;
    }
    return s + "}";
  };
  std::string ops = "{";
  for (const auto& [kind, af] : ops_) {
    if (ops.size() > 1) ops += ", ";
    ops += "\"" + kind + "\": [" + std::to_string(af.first) + ", " +
           std::to_string(af.second) + "]";
  }
  ops += "}";
  std::printf(
      "{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"ops\": %s, \"end_to_end\": %s, "
      "\"per_layer\": %s}\n",
      workload_.c_str(), correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), ops.c_str(),
      metrics(kEndToEnd, e2e_).c_str(), metrics(kPerLayer, layer_).c_str());
  std::fflush(stdout);
}

}  // namespace svcbench
