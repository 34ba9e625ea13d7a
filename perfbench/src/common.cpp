#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/check.hpp"
#include "fabric/inproc.hpp"
#include "fabric/socket_fabric.hpp"
#include "isomalloc/area.hpp"
#include "madeleine/buffers.hpp"
#include "marcel/sync.hpp"
#include "pm2/runtime.hpp"

namespace perfbench {

// --- zipf ------------------------------------------------------------------

Zipf::Zipf(uint64_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;
}

uint64_t Zipf::sample(Rng& rng) const {
  double u = rng.unit();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<uint64_t>(static_cast<uint64_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
}

// --- statistics --------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

std::vector<std::vector<double>> split_windows(
    std::vector<std::pair<uint64_t, double>> v, uint64_t window_ns) {
  std::vector<std::vector<double>> w;
  if (v.empty()) return w;
  std::sort(v.begin(), v.end());
  const uint64_t t0 = v.front().first;
  for (const auto& [t, x] : v) {
    const size_t i = (t - t0) / window_ns;
    if (i >= w.size()) w.resize(i + 1);
    w[i].push_back(x);
  }
  const double mean = static_cast<double>(v.size()) / static_cast<double>(w.size());
  std::erase_if(w, [mean](const std::vector<double>& x) {
    return static_cast<double>(x.size()) < mean / 2;
  });
  return w;
}

}  // namespace

std::vector<double> TimedSamples::per_window(double q,
                                             uint64_t window_ns) const {
  std::vector<double> per;
  for (auto& w : split_windows(v, window_ns)) per.push_back(percentile(w, q));
  return per;
}

double TimedSamples::all(double q) const {
  std::vector<double> x;
  x.reserve(v.size());
  for (const auto& s : v) x.push_back(s.second);
  return percentile(std::move(x), q);
}

// --- tracer ----------------------------------------------------------------

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kOp: return "op";
    case Layer::kMadeleine: return "madeleine";
    case Layer::kMarcel: return "marcel";
    case Layer::kIsomalloc: return "isomalloc";
    case Layer::kRpc: return "pm2.rpc";
    case Layer::kMigration: return "pm2.migration";
    case Layer::kStore: return "pm2.store";
    case Layer::kDriver: return "driver";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> g(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->spans.reserve(1 << 16);
  }
  return *buf;
}

void Tracer::span(uint64_t op, uint64_t start_ns, uint64_t end_ns,
                  const char* name, Layer layer, SpanKind kind, bool root) {
  if (!on()) return;
  Buffer& b = local();
  // Only this kernel thread appends; the lock orders against collect().
  std::lock_guard<std::mutex> g(b.mu);
  b.spans.push_back(Span{op, start_ns, std::max(start_ns, end_ns), name, layer,
                         kind, root});
}

std::vector<Span> Tracer::collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> g(mu_);
  for (auto& b : buffers_) {
    std::lock_guard<std::mutex> gb(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.op != b.op ? a.op < b.op : a.start_ns < b.start_ns;
  });
  return all;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> g(mu_);
  for (auto& b : buffers_) {
    std::lock_guard<std::mutex> gb(b->mu);
    b->spans.clear();
  }
}

std::map<std::string, LayerSummary> summarize(const std::vector<Span>& spans) {
  std::map<std::string, LayerSummary> out;
  // Spans arrive grouped by op (collect() sorts them).
  size_t i = 0;
  std::vector<std::pair<uint64_t, uint64_t>> inner;
  while (i < spans.size()) {
    size_t j = i;
    while (j < spans.size() && spans[j].op == spans[i].op) ++j;
    for (size_t a = i; a < j; ++a) {
      const Span& s = spans[a];
      const uint64_t dur = s.end_ns - s.start_ns;
      inner.clear();
      for (size_t b = i; b < j; ++b) {
        if (b == a) continue;
        const Span& c = spans[b];
        const uint64_t cdur = c.end_ns - c.start_ns;
        bool inside = c.start_ns >= s.start_ns && c.end_ns <= s.end_ns;
        // Equal intervals: the later-recorded one is the child.
        if (inside && (cdur < dur || (cdur == dur && b > a) || s.root))
          inner.emplace_back(c.start_ns, c.end_ns);
      }
      std::sort(inner.begin(), inner.end());
      uint64_t covered = 0, cur_s = 0, cur_e = 0;
      for (auto [cs, ce] : inner) {
        if (cs > cur_e) {
          covered += cur_e - cur_s;
          cur_s = cs;
          cur_e = ce;
        } else {
          cur_e = std::max(cur_e, ce);
        }
      }
      covered += cur_e - cur_s;
      LayerSummary& l = out[layer_name(s.layer)];
      l.count++;
      double us = static_cast<double>(dur) / 1e3;
      (s.kind == SpanKind::kWait ? l.wait_us : l.busy_us) += us;
      l.self_us += static_cast<double>(dur - std::min(dur, covered)) / 1e3;
    }
    i = j;
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        size_t max_ops) {
  FILE* f = std::fopen(path.c_str(), "w");
  PM2_CHECK(f != nullptr) << "cannot write trace " << path;
  uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  size_t ops = 0;
  uint64_t last_op = UINT64_MAX;
  for (const Span& s : spans) {
    if (s.op != last_op) {
      if (++ops > max_ops) break;
      last_op = s.op;
    }
    const char* cat = layer_name(s.layer);
    auto tid = static_cast<unsigned>(s.layer);
    for (int edge = 0; edge < 2; ++edge) {
      uint64_t ts = (edge == 0 ? s.start_ns : s.end_ns) - t0;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
                   "\"id\":\"0x%" PRIx64 "\",\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                   first ? "" : ",\n", s.name, cat, edge == 0 ? "b" : "e", s.op,
                   static_cast<double>(ts) / 1e3, tid);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// --- sessions --------------------------------------------------------------

void run_session(const SessionConfig& config,
                 const std::function<void(pm2::Runtime&)>& node_main,
                 const std::function<void(pm2::Runtime&)>& setup) {
  pm2::iso::AreaConfig ac;
  // Logical nodes share one address space (see pm2::run_app).
  ac.skip_decommit = true;
  pm2::iso::Area area(ac);
  std::shared_ptr<pm2::fabric::InProcHub> hub;
  if (config.socket_fabric) {
    PM2_CHECK(::mkdir(config.socket_dir.c_str(), 0700) == 0 || errno == EEXIST)
        << "cannot create socket dir " << config.socket_dir;
  } else {
    hub = std::make_shared<pm2::fabric::InProcHub>(config.nodes);
  }
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < config.nodes; ++i) {
    threads.emplace_back([&, i] {
      pm2::RuntimeConfig rc;
      rc.node = i;
      rc.n_nodes = config.nodes;
      rc.workers = config.workers;
      rc.slot_store_dir = config.slot_store_dir;
      rc.slot_store_recover = config.slot_store_recover;
      std::unique_ptr<pm2::fabric::Fabric> fab;
      if (config.socket_fabric) {
        pm2::fabric::SocketFabricConfig fc;
        fc.node_id = i;
        fc.n_nodes = config.nodes;
        fc.dir = config.socket_dir;
        fab = pm2::fabric::make_socket_fabric(fc);
      } else {
        fab = hub->endpoint(i);
      }
      pm2::Runtime rt(rc, area, std::move(fab));
      if (setup) setup(rt);
      rt.run([&rt, &node_main] {
        node_main(rt);
        rt.barrier();
        if (rt.self() == 0) rt.halt();
      });
    });
  }
  for (auto& t : threads) t.join();
  if (config.socket_fabric) {
    for (uint32_t i = 0; i < config.nodes; ++i) {
      std::string p = config.socket_dir + "/node" + std::to_string(i) + ".sock";
      ::unlink(p.c_str());
    }
    ::rmdir(config.socket_dir.c_str());
  }
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d = a;
  for (const auto& [k, v] : b) d[k] -= v;
  return d;
}

Counters& operator+=(Counters& a, const Counters& b) {
  for (const auto& [k, v] : b) a[k] += v;
  return a;
}

void add_runtime_counters(Counters& c, pm2::Runtime& rt) {
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  c["bytes_sent"] += n(rt.fabric().bytes_sent());
  c["payload_copy_bytes"] += n(rt.fabric().payload_copy_bytes());
  c["block_splits"] += n(rt.heap_stats().block_splits.load());
  c["slot_attach"] += n(rt.heap_stats().slot_attach.load());
  c["negotiations"] += n(rt.negotiations_initiated());
  c["pool_hits"] += n(rt.pool_hits());
  c["pool_misses"] += n(rt.pool_misses());
  c["rpc_timeouts"] += n(rt.rpc_timeouts());
  for (const auto& w : rt.sched().worker_stats()) {
    c["dispatches"] += n(w.dispatches);
    c["steals"] += n(w.steals);
    c["steal_failures"] += n(w.steal_failures);
    c["handoffs"] += n(w.handoffs);
    c["idle_wakeups"] += n(w.idle_wakeups);
  }
}

void add_pool_counters(Counters& c) {
  c["chunk_hits"] += static_cast<double>(pm2::mad::chunk_pool_hits());
  c["chunk_misses"] += static_cast<double>(pm2::mad::chunk_pool_misses());
  c["future_hits"] +=
      static_cast<double>(pm2::marcel::detail::future_pool_hits());
  c["future_misses"] +=
      static_cast<double>(pm2::marcel::detail::future_pool_misses());
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// hits / (hits + misses), or nothing when the pool was not used.
void hit_ratio(Result& r, const char* metric, const Counters& d,
               const char* hits, const char* misses) {
  auto h = d.find(hits), m = d.find(misses);
  if (h == d.end() || m == d.end() || h->second + m->second <= 0) return;
  r.layer(metric, h->second / (h->second + m->second), "ratio");
}

}  // namespace

void report_counters(Result& r, const Counters& d, double ops) {
  auto per_op = [&](const char* metric, const char* key, const char* unit) {
    auto it = d.find(key);
    if (it != d.end()) r.layer(metric, ratio(it->second, ops), unit);
  };
  per_op("fabric.bytes_per_op", "bytes_sent", "B");
  per_op("fabric.copy_bytes_per_op", "payload_copy_bytes", "B");
  per_op("marcel.dispatches_per_op", "dispatches", "count");
  per_op("marcel.steals_per_op", "steals", "count");
  per_op("marcel.handoffs_per_op", "handoffs", "count");
  per_op("marcel.idle_wakeups_per_op", "idle_wakeups", "count");
  per_op("isomalloc.negotiations_per_op", "negotiations", "count");
  per_op("isomalloc.slot_attach_per_op", "slot_attach", "count");
  per_op("isomalloc.block_splits_per_op", "block_splits", "count");
  hit_ratio(r, "marcel.steal_success_ratio", d, "steals", "steal_failures");
  hit_ratio(r, "pm2.rpc.pool_hit_ratio", d, "pool_hits", "pool_misses");
  hit_ratio(r, "madeleine.chunk_pool_hit_ratio", d, "chunk_hits",
            "chunk_misses");
  hit_ratio(r, "marcel.future_pool_hit_ratio", d, "future_hits",
            "future_misses");
  if (d.count("rpc_timeouts") != 0)
    r.layer("pm2.rpc.timeouts", d.at("rpc_timeouts"), "count");
}

void finish_trace(Result& r, const Options& opt, double traced_p50_us,
                  double untraced_p50_us) {
  std::vector<Span> spans = Tracer::get().collect();
  report_span_metrics(r, spans);
  auto summary = summarize(spans);
  for (const auto& [layer, s] : summary) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "count=%" PRIu64 " busy_us=%.1f wait_us=%.1f self_us=%.1f",
                  s.count, s.busy_us, s.wait_us, s.self_us);
    r.note("layer " + layer, line);
  }
  write_chrome_trace(opt.trace_path, spans, 20000);
  r.note("trace_file", opt.trace_path);
  r.note("trace_spans", std::to_string(spans.size()));
  r.layer("trace.op_p50_us", traced_p50_us, "us");
  r.layer("trace.untraced_op_p50_us", untraced_p50_us, "us");
  r.layer("trace.overhead_ratio", ratio(traced_p50_us, untraced_p50_us),
          "ratio");
}

}  // namespace perfbench
