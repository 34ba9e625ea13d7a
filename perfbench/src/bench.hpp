// Shared pieces of the perfbench workloads: deterministic input
// generation, sample statistics, the span tracer, the in-process session
// launcher and the result record every workload fills in.
//
// Everything here is benchmark-side code.  The runtime under test is only
// reached through its public surface (pm2/api.hpp, pm2::Runtime,
// pm2/checkpoint.hpp, mad::PackBuffer); spans are recorded by the
// benchmark around its own calls into each layer.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace pm2 {
class Runtime;
}

namespace perfbench {

using pm2::now_ns;

// --- deterministic randomness ---------------------------------------------

/// splitmix64 finalizer: a strong 64-bit mix, also the key scrambler.
inline uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// xoshiro256** seeded through splitmix64.  Trivially copyable, so a
/// migrating thread can keep one on its (iso-address) stack.
struct Rng {
  uint64_t s[4];
  explicit Rng(uint64_t seed = 1) {
    for (int i = 0; i < 4; ++i) s[i] = mix64(seed + 0x1234567ull * (i + 1));
  }
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t next() {
    uint64_t r = rotl(s[1] * 5, 7) * 9;
    uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return r;
  }
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Log-uniform integer in [lo, hi].
  uint64_t log_uniform(uint64_t lo, uint64_t hi) {
    double l = std::log(static_cast<double>(lo));
    double h = std::log(static_cast<double>(hi));
    auto v = static_cast<uint64_t>(std::exp(l + (h - l) * unit()));
    return std::clamp(v, lo, hi);
  }
};

/// Zipfian ranks over [0, n) with exponent theta, sampled exactly by
/// inverting the tabulated CDF (rank 0 is the most popular).
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t sample(Rng& rng) const;
  /// Analytic P(rank <= k) for k in [0, n).
  double cdf(uint64_t k) const { return cdf_[k]; }
  uint64_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

// --- block stamps ----------------------------------------------------------

/// Fill [p, p+n) with words drawn from `rng` (n a multiple of 8).
inline void stamp_block(uint8_t* p, size_t n, Rng& rng) {
  auto* w = reinterpret_cast<uint64_t*>(p);
  for (size_t i = 0; i < n / 8; ++i) w[i] = rng.next();
}

/// 64-bit block checksum: four independent multiply lanes, so any change
/// of one word changes the result, at several GB/s.
inline uint64_t block_sum(const uint8_t* p, size_t n) {
  const auto* w = reinterpret_cast<const uint64_t*>(p);
  uint64_t h[4] = {1, 2, 3, 4};
  size_t i = 0;
  for (; i + 4 <= n / 8; i += 4)
    for (int l = 0; l < 4; ++l)
      h[l] = (h[l] ^ w[i + l]) * 0x9E3779B97F4A7C15ull + 1;
  for (; i < n / 8; ++i) h[0] = (h[0] ^ w[i]) * 0x9E3779B97F4A7C15ull + 1;
  return mix64(h[0] ^ mix64(h[1] ^ mix64(h[2] ^ mix64(h[3] ^ n))));
}

// --- open-loop accounting --------------------------------------------------

/// Fixed-rate schedule: request i is due at start + i * interval, and its
/// latency runs from that due time however late it was actually sent, so
/// a stalled sender is charged for the wait it imposes on later requests.
struct OpenLoop {
  uint64_t start_ns;
  uint64_t interval_ns;
  uint64_t due(uint64_t i) const { return start_ns + i * interval_ns; }
  double latency_us(uint64_t i, uint64_t done_ns) const {
    return static_cast<double>(done_ns - due(i)) / 1e3;
  }
};

// --- sample statistics ---------------------------------------------------

/// Percentile by linear interpolation between closest ranks, q in [0, 1].
double percentile(std::vector<double> v, double q);

/// Raw samples of one quantity (kept whole: medians and tails of long runs,
/// never a histogram's bucket bound).
struct Samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  size_t size() const { return v.size(); }
  double p(double q) const { return v.empty() ? 0.0 : percentile(v, q); }
};

/// Samples stamped with the time they were taken.  per_window(q) is the
/// q-th percentile of each consecutive `window_ns` window; the median of
/// those values reflects every second of a run, instead of the one or two
/// host stalls that happened to land in it.  Windows with fewer than half
/// the mean count (the ragged last one) are left out.
struct TimedSamples {
  std::vector<std::pair<uint64_t, double>> v;
  void add(uint64_t t_ns, double x) { v.emplace_back(t_ns, x); }
  size_t size() const { return v.size(); }
  std::vector<double> per_window(double q, uint64_t window_ns) const;
  /// The q-th percentile of all samples.
  double all(double q) const;
};

/// Samples gathered concurrently by several kernel threads.
struct SharedSamples {
  std::mutex mu;
  Samples s;
  void add(double x) {
    std::lock_guard<std::mutex> g(mu);
    s.add(x);
  }
};

// --- tracing -------------------------------------------------------------

/// Layers a span can belong to (the runtime's modules, plus the driver
/// and the op root that groups one request, hop or round).
enum class Layer : uint8_t {
  kOp,
  kMadeleine,
  kMarcel,
  kIsomalloc,
  kRpc,
  kMigration,
  kStore,
  kDriver,
  kCount
};
const char* layer_name(Layer l);

/// Busy spans are time a layer worked; wait spans are time work sat queued
/// or in transit inside a layer.
enum class SpanKind : uint8_t { kBusy, kWait };

struct Span {
  uint64_t op;        // request / hop / round id shared by the op's spans
  uint64_t start_ns;
  uint64_t end_ns;
  const char* name;   // static string
  Layer layer;
  SpanKind kind;
  bool root;          // the op span itself; every other span is its child
};

/// In-memory span store.  Disabled (one predictable branch per call site)
/// unless the run is traced.  Spans are appended to per-kernel-thread
/// buffers, merged and written out after the measured phase.
class Tracer {
 public:
  static Tracer& get();
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  void span(uint64_t op, uint64_t start_ns, uint64_t end_ns, const char* name,
            Layer layer, SpanKind kind = SpanKind::kBusy, bool root = false);
  void root(uint64_t op, uint64_t start_ns, uint64_t end_ns, const char* name) {
    span(op, start_ns, end_ns, name, Layer::kOp, SpanKind::kBusy, true);
  }

  /// All spans recorded so far (merged across kernel threads).
  std::vector<Span> collect();
  void clear();

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Span> spans;
  };
  Buffer& local();
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

inline bool tracing() { return Tracer::get().on(); }

/// Per-layer totals of a span set: count, busy, wait and self time (a
/// span's duration minus the union of its op's child spans inside it).
struct LayerSummary {
  uint64_t count = 0;
  double busy_us = 0;
  double wait_us = 0;
  double self_us = 0;
};
std::map<std::string, LayerSummary> summarize(const std::vector<Span>& spans);

/// Write `spans` as Chrome trace-event JSON (nestable async b/e pairs keyed
/// by op id, one category per layer), for the first `max_ops` ops only;
/// the summary always covers every span.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        size_t max_ops);

// --- results -------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};

/// What one workload run reports.  `end_to_end` is filled from untraced
/// runs, `per_layer` from traced ones; `info` carries provenance and
/// extra context for the human-readable report.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> violations;

  void fail(const std::string& why) {
    correct = false;
    if (violations.size() < 20) violations.push_back(why);
  }
  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end[name] = Metric{v, unit};
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer[name] = Metric{v, unit};
  }
  void note(const std::string& k, const std::string& v) { info.emplace_back(k, v); }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;    // scratch directory inside the checkout
  std::string trace_path; // Chrome trace output (traced runs)
  std::string exe;        // this binary (ckpt's restore child re-execs it)
};

// --- sessions ------------------------------------------------------------

struct SessionConfig {
  uint32_t nodes = 1;
  uint32_t workers = 1;
  bool socket_fabric = false;
  std::string socket_dir;      // socket fabric: where node sockets live
  std::string slot_store_dir;  // "" = no slot store
  bool slot_store_recover = false;
};

/// Run one SPMD session of in-process logical nodes, like pm2::run_app but
/// with every file it creates (sockets, stores) under the caller's
/// directory.  `setup` runs per node before the scheduler starts;
/// `node_main` is each node's main thread; node 0 halts after a barrier.
void run_session(const SessionConfig& config,
                 const std::function<void(pm2::Runtime&)>& node_main,
                 const std::function<void(pm2::Runtime&)>& setup = {});

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

/// A snapshot of named runtime counters.  Deltas and sums go key by key,
/// so a traced run can add up the deltas of each of its sessions.
using Counters = std::map<std::string, double>;
Counters operator-(const Counters& a, const Counters& b);
Counters& operator+=(Counters& a, const Counters& b);

/// Add `rt`'s counters (fabric, heap, negotiation, invocation pool, RPC
/// timeouts, scheduler workers) to `c`.
void add_runtime_counters(Counters& c, pm2::Runtime& rt);
/// Add the process-wide pool counters (madeleine chunks, marcel futures).
void add_pool_counters(Counters& c);

/// Fill the per-op and ratio per-layer metrics a counter delta `d` over
/// `ops` operations gives (fabric, marcel, isomalloc, pm2.rpc pool and
/// timeouts).
void report_counters(Result& r, const Counters& d, double ops);

/// The per-layer latency metrics (p50/p99 of named spans).
void report_span_metrics(Result& r, const std::vector<Span>& spans);

/// Spans → the per-layer summary lines and the trace file, the span
/// latency metrics, and the trace.* metrics (tracing's overhead on
/// op_p50_us).
void finish_trace(Result& r, const Options& opt, double traced_p50_us,
                  double untraced_p50_us);

// --- workloads -------------------------------------------------------------

Result run_kv(const Options& opt);
Result run_hop(const Options& opt);
Result run_ckpt(const Options& opt);
/// ckpt's restore child: recover the store, restore and verify.
int ckpt_restore_child(const Options& opt, int argc, char** argv);
int run_selftests(const Options& opt);

/// Sessions per run.  Each one is set up from scratch (the median set-up
/// time is setup_s), warms up for kWarmShare of --seconds and then
/// measures; the metrics pool every session's measurements, so one
/// session's thread placement or host hiccup does not decide a run.
inline constexpr int kSessions = 12;
inline constexpr double kWarmShare = 0.01;

}  // namespace perfbench
