// serve — open-loop request serving through the epoll reactor.
//
// Stresses the reactor, fiber parking, probe_into and the runtime's wake
// path; the treap work per request is small. The topology is E27's
// pipelined backend with its generator and collector folded into the main
// thread:
//
//   main thread ──SOCK_SEQPACKET x4──▶ per-connection reader fibers
//     (paced sends,                       (co_await wait_readable)
//      reply receipt)                          │ FutCell-chained stream
//        ▲                                     ▼
//        │                              one service fiber: insert_batch
//        │                              (32 upserts) + probe_into
//        └─────── reply fibers (co_await the probe cell, then send)
//
// Each request upserts 32 keys drawn from the base's own keys and probes
// the first of them, so the 2^16-key ParallelMap keeps its size. Three
// phases follow set-up: paced (open loop well below capacity: CPU per key,
// the stage decomposition, the latency tail), closed loop with one request
// in flight (request latency), and unpaced (capacity). All run in rounds:
// at a round's end every connection is closed, which retires the reader
// fibers, and the map is flushed and compacted off the clock. compact()
// waits for every coroutine frame in the process, so it cannot run while a
// reader fiber is parked on its fd (README.md, "Known faults").
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <map>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "runtime/future.hpp"
#include "runtime/io_awaiter.hpp"
#include "runtime/io_reactor.hpp"
#include "runtime/parallel_map.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace svcbench {

namespace {

namespace rt = pwf::rt;
using namespace std::chrono_literals;

constexpr std::size_t kKeys = 32;  // upserts per request
constexpr unsigned kConns = 4;

using Item = std::pair<std::int64_t, std::int64_t>;
using Map = rt::ParallelMap<std::int64_t>;

// One request record; SOCK_SEQPACKET keeps record boundaries.
struct WireReq {
  std::uint64_t seq = 0;
  std::uint32_t conn = 0;
  std::uint32_t nkeys = 0;
  std::int64_t due_ns = 0;  // scheduled send time (now_ns clock)
  std::int64_t keys[kKeys] = {};
};

// Stage boundaries of one request, stamped by the server-side fibers when
// tracing (all on the now_ns clock; the collector adds the receipt).
struct Stamps {
  std::int64_t in = 0;      // reader fiber has the record
  std::int64_t pick = 0;    // service fiber took it from the stream
  std::int64_t ins = 0;     // insert_batch returned
  std::int64_t issued = 0;  // probe_into returned
  std::int64_t applied = 0; // reply fiber resumed with the probe result
};

struct WireRep {
  std::uint64_t seq = 0;
  std::int64_t due_ns = 0;
  std::int64_t value = 0;
  std::uint32_t found = 0;
  std::uint32_t pad = 0;
  Stamps st;
};

struct StreamNode {
  WireReq req;
  Stamps st;
  bool stop = false;
  rt::FutCell<StreamNode*> next;
};

// Server side of one round. Lives on the main thread's stack until every
// fiber that references it has finished.
struct RoundCtx {
  rt::IoReactor* reactor = nullptr;
  Map* map = nullptr;
  bool stamp = false;
  std::vector<int> server_fds;

  rt::FutCell<StreamNode*> head;
  std::mutex mu;
  rt::FutCell<StreamNode*>* tail = &head;

  std::atomic<int> readers_left{0};
  std::atomic<std::int64_t> outstanding{0};  // reply fibers in flight
  std::atomic<bool> service_done{false};

  void append(StreamNode* n) {
    std::lock_guard<std::mutex> lk(mu);
    tail->write(n);
    tail = &n->next;
  }
};

// Parks on the fd, drains every queued record into the stream, re-parks.
// EOF retires the reader; the last one out appends the stop sentinel.
rt::Fiber conn_reader(RoundCtx* ctx, int fd) {
  for (;;) {
    if (co_await rt::wait_readable(*ctx->reactor, fd) == 0) break;
    bool eof = false;
    for (;;) {
      auto* n = new StreamNode;
      const ssize_t got = ::recv(fd, &n->req, sizeof n->req, 0);
      if (got == static_cast<ssize_t>(sizeof n->req)) {
        if (ctx->stamp) n->st.in = now_ns();
        ctx->append(n);
        continue;
      }
      delete n;
      eof = !(got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
      break;
    }
    if (eof) break;
  }
  if (ctx->readers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    auto* stop = new StreamNode;
    stop->stop = true;
    ctx->append(stop);
  }
}

struct ReplyCtx {
  RoundCtx* ctx = nullptr;
  int fd = -1;
  WireRep rep;
  rt::FutCell<rt::rtasync::Probe<std::int64_t>> cell;
};

// Awaits the probe cell the facade writes, then sends the reply, parking on
// a reactor timer while the socket buffer is full (several reply fibers can
// share a connection, and fd parks are one waiter per fd).
rt::Fiber reply_when_probed(ReplyCtx* c) {
  const rt::rtasync::Probe<std::int64_t> p = co_await c->cell;
  RoundCtx* ctx = c->ctx;
  const int fd = c->fd;
  WireRep rep = c->rep;
  delete c;
  if (ctx->stamp) rep.st.applied = now_ns();
  rep.value = p.value;
  rep.found = p.found ? 1u : 0u;
  for (;;) {
    const ssize_t sn = ::send(fd, &rep, sizeof rep, 0);
    if (sn == static_cast<ssize_t>(sizeof rep)) break;
    if (sn < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      if (!co_await rt::sleep_for(*ctx->reactor, 50us)) break;
      continue;
    }
    break;  // peer gone: the collector counts the missing reply
  }
  ctx->outstanding.fetch_sub(1, std::memory_order_acq_rel);
}

// The single mutator: upserts the request's keys, then hands the probe of
// its first key to a reply fiber and moves on to the next request.
rt::Fiber service_loop(RoundCtx* ctx) {
  const auto add = [](std::int64_t a, std::int64_t b) { return a + b; };
  rt::FutCell<StreamNode*>* head = &ctx->head;
  StreamNode* prev = nullptr;
  std::vector<Item> items;
  for (;;) {
    StreamNode* n = co_await *head;
    delete prev;  // its next cell has been consumed
    prev = nullptr;
    if (n->stop) {
      delete n;
      break;
    }
    const WireReq& q = n->req;
    Stamps st = n->st;
    if (ctx->stamp) st.pick = now_ns();
    items.clear();
    for (std::uint32_t j = 0; j < q.nkeys; ++j)
      items.emplace_back(q.keys[j], 1);
    {
      Scope s("svc.insert_batch", q.seq);
      ctx->map->insert_batch(items, add);
    }
    if (ctx->stamp) st.ins = now_ns();
    auto* c = new ReplyCtx;
    c->ctx = ctx;
    c->fd = ctx->server_fds[q.conn];
    c->rep.seq = q.seq;
    c->rep.due_ns = q.due_ns;
    ctx->outstanding.fetch_add(1, std::memory_order_acq_rel);
    {
      Scope s("svc.probe_into", q.seq);
      ctx->map->probe_into(q.keys[0], c->cell);
    }
    if (ctx->stamp) st.issued = now_ns();
    c->rep.st = st;
    rt::spawn(reply_when_probed(c));
    prev = n;
    head = &prev->next;
  }
  ctx->service_done.store(true, std::memory_order_release);
}

// ---- inputs -----------------------------------------------------------------

struct RoundIn {
  std::vector<WireReq> reqs;
  std::vector<std::int64_t> lo, hi;  // bounds on each probe's value
};

struct Inputs {
  std::vector<Item> base;
  RoundIn warm_direct;  // set-up's upserts made straight through the facade
  RoundIn warm;         // set-up's round over the sockets
  std::vector<RoundIn> paced, closed, unpaced;
  std::vector<Item> final_items;  // std::map fold of base + every round
};

Inputs make_inputs(std::uint64_t seed, std::size_t base_n, std::size_t m,
                   std::size_t warm_direct_n, std::size_t warm_n,
                   std::size_t round_n, std::size_t paced_rounds,
                   std::size_t closed_rounds, std::size_t unpaced_rounds,
                   std::size_t unpaced_n) {
  pwf::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 27);
  Inputs in;
  std::map<std::int64_t, std::int64_t> fold;
  while (fold.size() < base_n) fold.emplace(rng.range(0, (1 << 28) - 1), 1);
  in.base.assign(fold.begin(), fold.end());

  std::uint64_t seq = 0;
  const auto make_round = [&](std::size_t n) {
    RoundIn r;
    r.reqs.resize(n);
    std::vector<std::int64_t> own(n);
    for (std::size_t i = 0; i < n; ++i) {
      WireReq& q = r.reqs[i];
      q.seq = seq++;
      q.conn = static_cast<std::uint32_t>(i % kConns);
      q.nkeys = static_cast<std::uint32_t>(m);
      for (std::size_t j = 0; j < m; ++j)
        q.keys[j] = in.base[rng.below(in.base.size())].first;
      for (std::size_t j = 0; j < m; ++j) own[i] += q.keys[j] == q.keys[0];
    }
    // A probe sees its own request and every earlier round, and at most
    // every request of its round.
    for (std::size_t i = 0; i < n; ++i)
      r.lo.push_back(fold[r.reqs[i].keys[0]] + own[i]);
    for (const WireReq& q : r.reqs)
      for (std::size_t j = 0; j < m; ++j) fold[q.keys[j]] += 1;
    for (const WireReq& q : r.reqs) r.hi.push_back(fold[q.keys[0]]);
    return r;
  };
  in.warm_direct = make_round(warm_direct_n);
  in.warm = make_round(warm_n);
  for (std::size_t i = 0; i < paced_rounds; ++i)
    in.paced.push_back(make_round(round_n));
  for (std::size_t i = 0; i < closed_rounds; ++i)
    in.closed.push_back(make_round(round_n));
  for (std::size_t i = 0; i < unpaced_rounds; ++i)
    in.unpaced.push_back(make_round(unpaced_n));
  in.final_items.assign(fold.begin(), fold.end());
  return in;
}

// ---- one round --------------------------------------------------------------

struct RoundOut {
  std::size_t received = 0;
  std::uint64_t bad_probes = 0;
  std::int64_t first_send = 0, last_recv = 0;
  double cpu_s = 0.0;  // process CPU minus this (client) thread's CPU
  std::vector<double> lat_us, late_us;
  std::vector<Stamps> stamps;   // per reply, when tracing
  std::vector<std::int64_t> recv_ns, due_ns;
};

// How a round sends: open loop at a fixed rate, closed loop with one
// request in flight, or open loop as fast as the sockets take them.
enum class Send { kPaced, kClosed, kUnpaced };

// Sends `in` over fresh connections, collects every reply, then closes the
// connections and waits for every server fiber to finish. Latency counts
// from the due time when paced, from the send otherwise.
RoundOut run_round(rt::Scheduler& sched, Map& map, const RoundIn& in,
                   Send mode, double rate, bool stamp) {
  RoundOut out;
  RoundCtx ctx;
  ctx.reactor = &sched.reactor();
  ctx.map = &map;
  ctx.stamp = stamp;
  std::vector<int> client_fds;
  for (unsigned c = 0; c < kConns; ++c) {
    int sv[2];
    PWF_CHECK(socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0, sv) == 0);
    ctx.server_fds.push_back(sv[0]);
    client_fds.push_back(sv[1]);
  }
  ctx.readers_left.store(static_cast<int>(kConns));
  for (int fd : ctx.server_fds) rt::spawn(conn_reader(&ctx, fd));
  rt::spawn(service_loop(&ctx));

  std::vector<WireReq> reqs = in.reqs;
  const std::size_t n = reqs.size();
  const std::int64_t interval =
      mode == Send::kPaced ? static_cast<std::int64_t>(1e9 / rate) : 0;
  out.lat_us.reserve(n);
  std::vector<pollfd> pfds;
  for (int fd : client_fds) pfds.push_back({fd, POLLIN, 0});

  const double cpu0 = process_cpu_s() - thread_cpu_s();
  const std::int64_t start = now_ns() + 200000;  // first send due in 0.2 ms
  out.first_send = start;
  std::size_t next = 0;
  std::int64_t last_progress = now_ns();
  while (out.received < n) {
    std::int64_t now = now_ns();
    if (now - last_progress > 30'000'000'000) break;  // stalled
    bool blocked = false;
    while (next < n) {
      WireReq& q = reqs[next];
      const std::int64_t due =
          start + static_cast<std::int64_t>(next) * interval;
      if (interval > 0 && due > now) break;
      if (mode == Send::kClosed && next > out.received) break;
      const std::int64_t sent = now_ns();
      q.due_ns = interval > 0 ? due : sent;
      const ssize_t sn = ::send(client_fds[q.conn], &q, sizeof q, 0);
      if (sn != static_cast<ssize_t>(sizeof q)) {
        PWF_CHECK_MSG(sn < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                                 errno == EINTR),
                      "request send failed");
        blocked = true;
        break;
      }
      if (interval > 0)
        out.late_us.push_back(static_cast<double>(sent - due) / 1e3);
      ++next;
      now = now_ns();
    }
    std::int64_t wait_ns = 100'000'000;
    if (blocked) {
      wait_ns = 50'000;
    } else if (next < n && interval > 0) {
      wait_ns = std::max<std::int64_t>(
          0, start + static_cast<std::int64_t>(next) * interval - now_ns());
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    for (const pollfd& p : pfds) {
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      for (;;) {
        WireRep rep;
        const ssize_t got = ::recv(p.fd, &rep, sizeof rep, 0);
        if (got != static_cast<ssize_t>(sizeof rep)) break;
        const std::int64_t t = now_ns();
        const std::size_t i = rep.seq - in.reqs.front().seq;
        PWF_CHECK(i < n);
        out.lat_us.push_back(static_cast<double>(t - rep.due_ns) / 1e3);
        if (rep.found == 0 || rep.value < in.lo[i] || rep.value > in.hi[i])
          ++out.bad_probes;
        if (stamp) {
          out.stamps.push_back(rep.st);
          out.recv_ns.push_back(t);
          out.due_ns.push_back(rep.due_ns);
          const char* names[] = {"stage.wire_in", "stage.queue", "stage.issue",
                                 "stage.apply", "stage.reply"};
          const std::int64_t b[] = {rep.due_ns, rep.st.in, rep.st.pick,
                                    rep.st.issued, rep.st.applied, t};
          for (int s = 0; s < 5; ++s)
            Tracer::record_stage(names[s], b[s], b[s + 1], rep.seq);
        }
        out.last_recv = t;
        ++out.received;
        last_progress = t;
      }
    }
  }
  out.cpu_s = process_cpu_s() - thread_cpu_s() - cpu0;

  // Close the client side: readers see EOF, the stop sentinel retires the
  // service fiber. Bounded wait, so a wedged server fails the round.
  for (int fd : client_fds) ::shutdown(fd, SHUT_WR);
  const std::int64_t deadline = now_ns() + 30'000'000'000;
  while ((!ctx.service_done.load(std::memory_order_acquire) ||
          ctx.outstanding.load(std::memory_order_acquire) != 0 ||
          ctx.readers_left.load(std::memory_order_acquire) != 0) &&
         now_ns() < deadline)
    std::this_thread::yield();
  PWF_CHECK_MSG(ctx.service_done.load() && ctx.outstanding.load() == 0,
                "serve: server fibers did not finish");
  for (int fd : ctx.server_fds) ::close(fd);
  for (int fd : client_fds) ::close(fd);
  return out;
}

}  // namespace

void run_serve(const Options& opt, Result& out) {
  // Rounds are sized so that one round's arena growth (~70 KB per request
  // before compaction) stays near 100 MB.
  const double rate = 1000.0;  // paced req/s, about 1/10 of capacity
  const std::size_t base_n = opt.smoke ? 1 << 10 : 1 << 16;
  const std::size_t m = opt.smoke ? 8 : kKeys;
  const std::size_t warm_direct_n = opt.smoke ? 64 : 4000;
  const std::size_t warm_n = opt.smoke ? 64 : 250;
  const std::size_t round_n = opt.smoke ? 100 : 1000;
  const std::size_t unpaced_n = opt.smoke ? 200 : 2000;
  const std::size_t paced_rounds = opt.smoke ? 2 : scaled(opt.seconds, 0.6);
  const std::size_t closed_rounds = opt.smoke ? 2 : scaled(opt.seconds, 0.8);
  const std::size_t unpaced_rounds =
      opt.smoke ? 2 : scaled(opt.seconds, 0.5);
  const int setup_reps = 5;

  const Inputs in =
      make_inputs(opt.seed, base_n, m, warm_direct_n, warm_n, round_n,
                  paced_rounds, closed_rounds, unpaced_rounds, unpaced_n);
  std::printf("serve: base %zu keys, %u conns, %zu upserts + 1 probe per "
              "request; %zu x %zu req paced at %.0f req/s, %zu x %zu req "
              "closed loop, %zu x %zu req unpaced; %u workers\n",
              base_n, kConns, m, paced_rounds, round_n, rate, closed_rounds,
              round_n, unpaced_rounds, unpaced_n, kWorkers);
  // The generator sleeps to each send's due time; default timer slack
  // (50 us) would make it late by that much.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  const auto add = [](std::int64_t a, std::int64_t b) { return a + b; };
  std::unique_ptr<rt::Scheduler> sched;
  std::unique_ptr<Map> map;
  std::uint64_t bad = 0;
  std::size_t lost = 0;
  const auto account = [&](const RoundIn& r, const RoundOut& o) {
    out.attempt("requests", r.reqs.size());
    out.attempt("probes", r.reqs.size());
    out.fail("requests", r.reqs.size() - o.received);
    out.fail("probes", o.bad_probes + (r.reqs.size() - o.received));
    bad += o.bad_probes;
    lost += r.reqs.size() - o.received;
  };

  // ---- set-up: scheduler + reactor, map with the base, warm-up ----
  // The warm-up is mostly upserts made straight through the facade, with a
  // short round over the sockets to start the reactor and fiber paths: a
  // socket round alone made set-up time swing with the host's wake-up
  // latency (0.21 s or 0.33 s from run to run).
  std::vector<Item> items;
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    map.reset();
    sched.reset();
    const std::int64_t t0 = now_ns();
    sched = std::make_unique<rt::Scheduler>(kWorkers);
    sched->reactor();
    map = std::make_unique<Map>(*sched);
    map->insert_batch(in.base, add);
    map->flush();
    for (std::size_t i = 0; i < in.warm_direct.reqs.size(); ++i) {
      const WireReq& q = in.warm_direct.reqs[i];
      items.clear();
      for (std::uint32_t j = 0; j < q.nkeys; ++j)
        items.emplace_back(q.keys[j], 1);
      map->insert_batch(items, add);
      // Keeps the facade's pending high-water mark (svc.max_pending) to
      // the timed rounds' own.
      if ((i + 1) % 500 == 0) map->flush();
    }
    map->flush();
    const RoundOut w =
        run_round(*sched, *map, in.warm, Send::kUnpaced, 0.0, false);
    map->flush();
    map->compact();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    out.check(w.received == in.warm.reqs.size() && w.bad_probes == 0,
              "warm-up round answered, probes within bounds");
  }

  // Flush, sample the arena, compact: off the clock, between rounds.
  std::uint64_t arena_floor = map->stats().arena_bytes;
  std::uint64_t peak_arena = arena_floor, arena_growth = 0;
  std::vector<double> flush_ms, compact_ms;
  double compact_s = 0.0, rounds_s = 0.0;
  const auto between_rounds = [&] {
    const std::int64_t f0 = now_ns();
    {
      Scope s("svc.flush");
      map->flush();
    }
    const std::int64_t f1 = now_ns();
    const std::uint64_t arena = map->stats().arena_bytes;
    peak_arena = std::max(peak_arena, arena);
    arena_growth += arena - std::min(arena, arena_floor);
    {
      Scope s("svc.compact");
      map->compact();
    }
    const std::int64_t f2 = now_ns();
    arena_floor = map->stats().arena_bytes;
    flush_ms.push_back(static_cast<double>(f1 - f0) / 1e6);
    compact_ms.push_back(static_cast<double>(f2 - f1) / 1e6);
    compact_s += static_cast<double>(f2 - f1) / 1e9;
  };

  const Map::Stats st0 = map->stats();
  RtCounters all_rt, paced_rt;  // rounds only: compaction excluded

  // ---- paced phase: latency and CPU at a fixed load ----
  // Each end-to-end figure is the median over rounds, so a burst of load
  // from outside the process moves one round rather than the whole run.
  std::vector<double> round_p50, round_cpu, round_rate;
  std::vector<double> lat_us, late_us, issue_us, stage[5];
  double lat_sum = 0.0, stage_sum = 0.0;
  std::size_t paced_reqs = 0;
  for (const RoundIn& r : in.paced) {
    all_rt.start(*sched);
    paced_rt.start(*sched);
    const RoundOut o =
        run_round(*sched, *map, r, Send::kPaced, rate, opt.trace);
    paced_rt.stop(*sched);
    all_rt.stop(*sched);
    rounds_s += static_cast<double>(o.last_recv - o.first_send) / 1e9;
    account(r, o);
    paced_reqs += r.reqs.size();
    lat_us.insert(lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    round_p50.push_back(median(o.lat_us));
    round_cpu.push_back(o.cpu_s * 1e6 / static_cast<double>(r.reqs.size() * m));
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    for (std::size_t i = 0; i < o.stamps.size(); ++i) {
      const Stamps& s = o.stamps[i];
      const std::int64_t b[] = {o.due_ns[i], s.in, s.pick, s.issued,
                                s.applied, o.recv_ns[i]};
      for (int k = 0; k < 5; ++k) {
        stage[k].push_back(static_cast<double>(b[k + 1] - b[k]) / 1e3);
        stage_sum += stage[k].back();
      }
      lat_sum += static_cast<double>(o.recv_ns[i] - o.due_ns[i]) / 1e3;
      issue_us.push_back(static_cast<double>(s.ins - s.pick) / 1e3);
    }
    between_rounds();
  }

  // ---- closed loop, one request in flight: request latency ----
  // An open-loop p50 at the paced rate moved with the host's wake-up
  // latency (223-709 us across runs); with one request always in flight
  // the same path read 144-180 us over runs where the paced p50 read
  // 223-343 us.
  std::vector<double> closed_p50;
  std::size_t closed_reqs = 0;
  for (const RoundIn& r : in.closed) {
    all_rt.start(*sched);
    const RoundOut o = run_round(*sched, *map, r, Send::kClosed, 0.0, false);
    all_rt.stop(*sched);
    rounds_s += static_cast<double>(o.last_recv - o.first_send) / 1e9;
    account(r, o);
    closed_reqs += r.reqs.size();
    closed_p50.push_back(median(o.lat_us));
    between_rounds();
  }

  // ---- unpaced phase: capacity ----
  double unpaced_s = 0.0;
  std::size_t unpaced_reqs = 0;
  for (const RoundIn& r : in.unpaced) {
    all_rt.start(*sched);
    const RoundOut o =
        run_round(*sched, *map, r, Send::kUnpaced, 0.0, false);
    all_rt.stop(*sched);
    const double dt = static_cast<double>(o.last_recv - o.first_send) / 1e9;
    unpaced_s += dt;
    round_rate.push_back(static_cast<double>(o.received) / dt);
    account(r, o);
    unpaced_reqs += o.received;
    between_rounds();
  }
  rounds_s += unpaced_s;
  const pwf::rt::Scheduler::Stats& d = all_rt.sum();
  const pwf::rt::Scheduler::Stats& paced_d = paced_rt.sum();
  const Map::Stats st1 = map->stats();

  // ---- end-of-run checks ----
  out.check(bad == 0, "every probe found, value within its request bounds");
  out.check(lost == 0, "every request answered");
  out.check(map->items() == in.final_items, "final items == std::map fold");
  const Map::CacheEconomy ce = map->cache_economy();

  const double total_reqs =
      static_cast<double>(paced_reqs + closed_reqs + unpaced_reqs);
  const double kw = total_reqs * static_cast<double>(m);
  const double preq = static_cast<double>(paced_reqs);
  out.e2e("setup_s", median(setup_s));
  out.e2e("keys_per_s", median(round_rate) * static_cast<double>(m));
  out.e2e("cpu_us_per_key", median(round_cpu));
  out.e2e("peak_arena_mb", static_cast<double>(peak_arena) / 1048576.0);
  out.e2e("req_p50_us", median(closed_p50));
  out.e2e("reads_per_s", median(round_rate));

  out.layer("treap.arena_b_per_key", ratio(arena_growth, kw));
  out.layer("treap.bytes_per_live_key",
            static_cast<double>(ce.arena_bytes) / static_cast<double>(base_n));
  out.layer("treap.leaf_ops_per_key", ratio(d.leaf_ops, kw));
  out.layer("rt.resumes_per_key", ratio(d.resumed, kw));
  out.layer("rt.frame_misses_per_key", ratio(d.frame_pool_misses, kw));
  out.layer("rt.serial_cutoffs_per_batch", ratio(d.serial_cutoffs, total_reqs));
  out.layer("rt.steals_per_batch", ratio(d.steals, total_reqs));
  out.layer("rt.wakeups_per_batch", ratio(d.wakeups, total_reqs));
  out.layer("rt.wakeups_per_req", ratio(paced_d.wakeups, preq));
  out.layer("rt.injected_per_req", ratio(paced_d.injected, preq));
  out.layer("io.parks_per_req", ratio(paced_d.io_parks, preq));
  out.layer("io.wakeups_per_req", ratio(paced_d.io_wakeups, preq));
  out.layer("svc.issue_us_per_batch", median(issue_us));
  out.layer("svc.flush_wait_ms", mean(flush_ms));
  out.layer("svc.compact_ms", mean(compact_ms));
  out.layer("svc.compact_share", compact_s / (rounds_s + compact_s));
  out.layer("svc.overlap_per_batch",
            ratio(st1.overlapped - st0.overlapped, total_reqs));
  out.layer("svc.max_pending", static_cast<double>(st1.max_pending));
  const char* names[5][2] = {{"stage.wire_in_us_p50", "stage.wire_in_us_mean"},
                             {"stage.queue_us_p50", "stage.queue_us_mean"},
                             {"stage.issue_us_p50", "stage.issue_us_mean"},
                             {"stage.apply_us_p50", "stage.apply_us_mean"},
                             {"stage.reply_us_p50", "stage.reply_us_mean"}};
  for (int k = 0; k < 5; ++k) {
    out.layer(names[k][0], median(stage[k]));
    out.layer(names[k][1], mean(stage[k]));
  }
  if (opt.trace) {
    const double gap = std::abs(stage_sum - lat_sum) / lat_sum * 100.0;
    out.layer("stage.gap_pct", gap);
    out.check(gap <= 1.0, "stage means add up to the mean latency within 1%");
  }
  out.layer("req.paced_p50_us", median(round_p50));
  out.layer("gen.late_us_p50", median(late_us));
  out.layer("gen.late_us_max", percentile(late_us, 1.0));

  std::printf("serve closed-loop latency (us): p50 %.1f over %zu rounds\n",
              median(closed_p50), closed_p50.size());
  const auto p = [&](double q) { return percentile(lat_us, q); };
  std::printf("serve paced latency (us, n=%zu): p50 %.1f  p90 %.1f  p99 %.1f  "
              "p999 %.1f  max %.1f; capacity %.0f req/s\n",
              lat_us.size(), p(0.5), p(0.9), p(0.99), p(0.999), p(1.0),
              median(round_rate));

  map.reset();
  sched.reset();
}

}  // namespace svcbench
