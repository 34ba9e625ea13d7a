// hop — a migration storm with iso-heap churn, run as a closed loop.
//
// Layout: 4 in-process nodes on the in-process hub, 1 worker each.  16
// threads each own a seeded working set of iso blocks (mostly 4-64 KiB,
// a tail up to 1 MiB that includes multi-slot blocks) and hop to seeded
// random other nodes.  At every stop a thread verifies every block's
// checksum, frees and re-allocates a seeded few blocks, re-stamps them and
// hops on.  Multi-slot blocks need contiguous slots, which the default
// round-robin slot distribution never has locally, so the global
// negotiation runs too.  No RPC is issued.
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "common/check.hpp"
#include "pm2/api.hpp"
#include "pm2/runtime.hpp"

namespace perfbench {
namespace {

constexpr uint32_t kNodes = 4;
constexpr int kThreads = 16;
constexpr int kBlocks = 8;         // working set per thread
constexpr double kTailShare = 0.1; // blocks drawn from the 64 KiB-1 MiB tail
// op_p50_us / op_p99_us: median over 0.5 s windows of each window's
// percentile (~6,000 hops a window).
constexpr uint64_t kWindowNs = 500'000'000;

struct HopState {
  std::atomic<uint64_t> tid{0};
  std::atomic<uint64_t> pre_ns{0};
  std::atomic<uint64_t> post_ns{0};
};

struct Globals {
  uint64_t seed = 1;
  std::atomic<int> ready{0};
  std::atomic<uint64_t> ready_ns{0};  // when the last working set was built
  std::atomic<bool> go{false};
  std::atomic<bool> measure{false};  // past the warm-up
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hop_seq{1};
  HopState hop[kThreads];
  pm2::Runtime* rt[kNodes] = {};
  // Per thread: hop latencies (us) untraced / traced, and stop-time errors.
  TimedSamples lat[kThreads];
  TimedSamples lat_traced[kThreads];
  std::atomic<uint64_t> hops{0};
  std::mutex err_mu;
  std::vector<std::string> errors;
};
Globals* g = nullptr;

struct Block {
  uint8_t* p;
  size_t size;
  uint64_t sum;
};

size_t draw_size(Rng& rng) {
  size_t n = rng.unit() < kTailShare ? rng.log_uniform(64 << 10, 1 << 20)
                                     : rng.log_uniform(4 << 10, 64 << 10);
  return n & ~size_t{7};
}

uint64_t node_negotiations() {
  return g->rt[pm2::pm2_self()]->negotiations_initiated();
}

void alloc_block(Block& b, Rng& rng, uint64_t op) {
  b.size = draw_size(rng);
  const uint64_t n0 = node_negotiations();
  const uint64_t t0 = now_ns();
  b.p = static_cast<uint8_t*>(pm2::pm2_isomalloc(b.size));
  const uint64_t t1 = now_ns();
  Tracer& tr = Tracer::get();
  tr.span(op, t0, t1, "iso.alloc", Layer::kIsomalloc);
  // One worker per node: a negotiation counted across the call is ours.
  if (node_negotiations() != n0)
    tr.span(op, t0, t1, "iso.negotiation", Layer::kIsomalloc);
  stamp_block(b.p, b.size, rng);
  b.sum = block_sum(b.p, b.size);
}

void free_block(Block& b, uint64_t op) {
  const uint64_t t0 = now_ns();
  pm2::pm2_isofree(b.p);
  Tracer::get().span(op, t0, now_ns(), "iso.free", Layer::kIsomalloc);
  b.p = nullptr;
}

void hopper(void* arg) {
  const auto idx = static_cast<int>(reinterpret_cast<uintptr_t>(arg));
  // Everything below lives on this thread's stack or iso-heap: it migrates.
  Rng rng(g->seed * 7919 + static_cast<uint64_t>(idx));
  Block blocks[kBlocks];
  for (Block& b : blocks) alloc_block(b, rng, 0);
  g->hop[idx].tid = pm2::marcel_self()->id;
  // The last thread stamps the end of set-up (not the poller that notices).
  if (g->ready.fetch_add(1) + 1 == kThreads) g->ready_ns = now_ns();
  while (!g->go.load()) pm2::pm2_sleep_us(100);

  while (!g->stop.load()) {
    const uint32_t here = pm2::pm2_self();
    const auto dest =
        static_cast<uint32_t>((here + 1 + rng.below(kNodes - 1)) % kNodes);
    const bool traced = tracing();
    const bool measured = g->measure.load();
    const uint64_t op = g->hop_seq.fetch_add(1);
    HopState& hs = g->hop[idx];
    const uint64_t t0 = now_ns();
    pm2::pm2_migrate(pm2::marcel_self(), dest);
    const uint64_t t1 = now_ns();
    if (pm2::pm2_self() != dest) {
      std::lock_guard<std::mutex> lk(g->err_mu);
      g->errors.push_back("thread " + std::to_string(idx) + " landed on " +
                          std::to_string(pm2::pm2_self()) + ", not " +
                          std::to_string(dest));
    }
    if (measured)
      (traced ? g->lat_traced : g->lat)[idx].add(t1, static_cast<double>(t1 - t0) /
                                                 1e3);
    g->hops.fetch_add(1);
    Tracer& tr = Tracer::get();
    const uint64_t pre = hs.pre_ns.load(), post = hs.post_ns.load();
    tr.root(op, t0, t1, "hop");
    tr.span(op, t0, pre, "mig.depart", Layer::kMigration);
    tr.span(op, pre, post, "mig.transit", Layer::kMigration, SpanKind::kWait);
    tr.span(op, post, t1, "mig.resume", Layer::kMigration);

    // The oracle: every block arrived intact.
    for (int b = 0; b < kBlocks; ++b) {
      if (block_sum(blocks[b].p, blocks[b].size) != blocks[b].sum) {
        std::lock_guard<std::mutex> lk(g->err_mu);
        g->errors.push_back("thread " + std::to_string(idx) + " block " +
                            std::to_string(b) + " checksum mismatch on node " +
                            std::to_string(pm2::pm2_self()));
      }
    }
    // Churn: free and re-allocate a seeded few blocks.
    const int churn = 1 + static_cast<int>(rng.below(2));
    for (int c = 0; c < churn; ++c) {
      Block& b = blocks[rng.below(kBlocks)];
      free_block(b, op);
      alloc_block(b, rng, op);
    }
  }
  for (Block& b : blocks) free_block(b, 0);
  pm2::pm2_signal(0);
}

int find_hopper(pm2::marcel::ThreadId id) {
  for (int i = 0; i < kThreads; ++i)
    if (g->hop[i].tid.load() == id) return i;
  return -1;
}

Counters sample_counters() {
  Counters c;
  for (pm2::Runtime* rt : g->rt) add_runtime_counters(c, *rt);
  return c;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

void sleep_s(double s) {
  const uint64_t until = now_ns() + static_cast<uint64_t>(s * 1e9);
  while (now_ns() < until) pm2::pm2_sleep_us(2000);
}

/// Per-window percentiles of one session's hops, all threads together.
std::vector<double> per_window(const TimedSamples* per_thread, double q) {
  TimedSamples all;
  for (int i = 0; i < kThreads; ++i)
    all.v.insert(all.v.end(), per_thread[i].v.begin(), per_thread[i].v.end());
  return all.per_window(q, kWindowNs);
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

// Time plan per session, as shares of --seconds: warm up for kWarmShare,
// then measure for kMeasureShare (traced runs: untraced for the first
// kCalmShare of it, traced for the rest).
constexpr double kMeasureShare = 1.0 / kSessions - kWarmShare;
constexpr double kCalmShare = kMeasureShare / 3;

Result run_hop(const Options& opt) {
  Result res;
  Samples setup_s;
  // Per-window percentiles pooled over every session.
  std::vector<double> p50s, p99s, calm_p50s, traced_p50s;
  uint64_t hops = 0, traced_hops = 0;
  double measured_s = 0;
  Counters traced_counters;
  for (int session = 0; session < kSessions; ++session) {
    auto globals = std::make_unique<Globals>();
    g = globals.get();
    g->seed = mix64(opt.seed) + static_cast<uint64_t>(session);
    g->hop_seq = (uint64_t{1} + session) << 40;  // op ids unique per run
    SessionConfig cfg;
    cfg.nodes = kNodes;
    cfg.workers = 1;
    const uint64_t t_begin = now_ns();
    run_session(
        cfg,
        [&](pm2::Runtime& rt) {
          const uint32_t self = rt.self();
          for (int i = 0; i < kThreads; ++i)
            if (static_cast<uint32_t>(i) % kNodes == self)
              pm2::pm2_thread_create(hopper, reinterpret_cast<void*>(
                                                 static_cast<uintptr_t>(i)),
                                     "hopper");
          if (self != 0) return;
          while (g->ready_ns.load() == 0) pm2::pm2_sleep_us(100);
          setup_s.add(static_cast<double>(g->ready_ns.load() - t_begin) / 1e9);
          g->go = true;
          sleep_s(opt.seconds * kWarmShare);  // not measured
          const uint64_t t0 = now_ns();
          const uint64_t hops0 = g->hops.load();
          g->measure = true;
          if (!opt.trace) {
            sleep_s(opt.seconds * kMeasureShare);
          } else {
            sleep_s(opt.seconds * kCalmShare);
            const Counters c0 = sample_counters();
            const uint64_t h0 = g->hops.load();
            Tracer::get().set_on(true);
            sleep_s(opt.seconds * (kMeasureShare - kCalmShare));
            Tracer::get().set_on(false);
            traced_counters += sample_counters() - c0;
            traced_hops += g->hops.load() - h0;
          }
          hops += g->hops.load() - hops0;
          g->stop = true;
          measured_s += static_cast<double>(now_ns() - t0) / 1e9;
          pm2::pm2_wait_signals(kThreads);
          append(opt.trace ? calm_p50s : p50s, per_window(g->lat, 0.50));
          append(p99s, per_window(g->lat, 0.99));
          append(traced_p50s, per_window(g->lat_traced, 0.50));
        },
        [&](pm2::Runtime& rt) {
          g->rt[rt.self()] = &rt;
          rt.on_migration(
              [](pm2::marcel::Thread* t) {
                int i = find_hopper(t->id);
                if (i >= 0) g->hop[i].pre_ns = now_ns();
              },
              [](pm2::marcel::Thread* t) {
                int i = find_hopper(t->id);
                if (i >= 0) g->hop[i].post_ns = now_ns();
              });
        });
    for (const std::string& e : g->errors) res.fail(e);
    res.attempted += g->hops.load();
    g = nullptr;
  }
  res.e2e("setup_s", setup_s.p(0.5), "s");
  if (!opt.trace) {
    res.e2e("op_p50_us", percentile(p50s, 0.5), "us");
    res.e2e("op_p99_us", percentile(p99s, 0.5), "us");
    res.e2e("ops_s", static_cast<double>(hops) / measured_s, "op/s");
    res.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    res.note("hop_windows", std::to_string(p50s.size()));
  } else {
    const auto ops = static_cast<double>(traced_hops);
    report_counters(res, traced_counters, ops);
    res.layer("pm2.migration.bytes_per_hop",
              ratio(traced_counters["bytes_sent"], ops), "B");
    finish_trace(res, opt, percentile(traced_p50s, 0.5),
                 percentile(calm_p50s, 0.5));
  }
  res.note("layout", "4 nodes x 1 worker, in-process hub");
  return res;
}

}  // namespace perfbench
