// ckpt — slot-store checkpoint, residency and restore, run as a closed loop.
//
// Layout: 1 node, 1 worker, the SlotStore in a directory of the run.  64
// threads hold 63 pages (252 KiB) of iso-heap each.  Every round:
//   1. dirty a seeded ~10% of each thread's pages;
//   2. checkpoint_node_to_store — this call is the op;
//   3. freeze a seeded cold quarter of the threads, demote_thread them and
//      fault them back with unfreeze_thread, checking their bytes.
// At the end a re-exec'd child of this binary recovers the store and
// restores every thread, which checks its own bytes; the parent waits, so
// only one process runs at a time.  No fabric or RPC traffic.
#include <spawn.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "bench.hpp"
#include "common/check.hpp"
#include "pm2/api.hpp"
#include "pm2/checkpoint.hpp"
#include "pm2/runtime.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kThreads = 64;
constexpr int kPages = 63;
constexpr size_t kPage = 4096;
constexpr int kDirtyPages = 6;   // ~10% of kPages per thread per round
constexpr int kCold = kThreads / 4;

/// Expected page contents: version v of page p of thread i.
struct Model {
  uint64_t seed = 1;
  uint32_t version[kThreads][kPages] = {};
  Rng dirty_rng;
  Rng cold_rng;
  explicit Model(uint64_t s)
      : seed(s), dirty_rng(s ^ 0xd1d1ull), cold_rng(s ^ 0xc01dull) {}

  uint64_t word(int t, int p, size_t w) const {
    return mix64(seed ^ (uint64_t(t) << 48) ^ (uint64_t(p) << 36) ^
                 (uint64_t(version[t][p]) << 16) ^ w);
  }
  void write_page(int t, int p, uint8_t* base) const {
    auto* w = reinterpret_cast<uint64_t*>(base + p * kPage);
    for (size_t i = 0; i < kPage / 8; ++i) w[i] = word(t, p, i);
  }
  /// Number of pages of thread t that differ from the model.
  int bad_pages(int t, const uint8_t* base) const {
    int bad = 0;
    for (int p = 0; p < kPages; ++p) {
      const auto* w = reinterpret_cast<const uint64_t*>(base + p * kPage);
      for (size_t i = 0; i < kPage / 8; ++i) {
        if (w[i] != word(t, p, i)) {
          ++bad;
          break;
        }
      }
    }
    return bad;
  }
  /// Round step 1 without touching memory: which pages advance.
  void advance(std::vector<std::pair<int, int>>* touched) {
    for (int t = 0; t < kThreads; ++t)
      for (int k = 0; k < kDirtyPages; ++k) {
        const int p = static_cast<int>(dirty_rng.below(kPages));
        ++version[t][p];
        if (touched != nullptr) touched->emplace_back(t, p);
      }
  }
  std::vector<int> cold_set() {
    std::vector<int> all(kThreads);
    for (int i = 0; i < kThreads; ++i) all[i] = i;
    for (int i = 0; i < kCold; ++i)
      std::swap(all[i], all[i + cold_rng.below(kThreads - i)]);
    all.resize(kCold);
    return all;
  }
};

struct Globals {
  std::unique_ptr<Model> model;
  uint8_t* data[kThreads] = {};
  std::atomic<int> built{0};
  std::atomic<bool> stop{false};
  bool child = false;  // restore child: restored threads verify and exit
  std::atomic<int> verified_bad{0};
  std::atomic<int> verified{0};
};
Globals* g = nullptr;

void ck_worker(void* arg) {
  const auto idx = static_cast<int>(reinterpret_cast<uintptr_t>(arg));
  auto* data = static_cast<uint8_t*>(pm2::pm2_isomalloc(kPages * kPage));
  for (int p = 0; p < kPages; ++p) g->model->write_page(idx, p, data);
  g->data[idx] = data;
  g->built.fetch_add(1);
  // A restored clone resumes inside this loop, in the child process.
  while (!g->stop.load()) {
    if (g->child) {
      g->verified_bad.fetch_add(g->model->bad_pages(idx, data));
      g->verified.fetch_add(1);
      pm2::pm2_signal(0);
      return;
    }
    pm2::pm2_yield();
  }
  pm2::pm2_isofree(data);
  pm2::pm2_signal(0);
}

std::string restore_file(const Options& opt) {
  return opt.run_dir + "/restore.out";
}

/// Spawn the restore child and wait for it.  Returns the ms from spawn to
/// "every thread restored and verified", or < 0 on failure.
double run_restore_child(const Options& opt, uint64_t seed,
                         const std::string& store, uint64_t rounds,
                         Result& res) {
  std::filesystem::remove(restore_file(opt));
  std::vector<std::string> args = {
      opt.exe,     "--restore-child", "--workload",
      "ckpt",      "--seed",          std::to_string(seed),
      "--rounds",  std::to_string(rounds), "--run-dir",
      opt.run_dir, "--store",         store};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const uint64_t t0 = now_ns();
  pid_t pid = 0;
  if (::posix_spawn(&pid, opt.exe.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
    res.fail("cannot spawn the restore child");
    return -1;
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::ifstream in(restore_file(opt));
  uint64_t done_ns = 0;
  int verified = 0, bad = 0, restored = 0;
  if (!(in >> done_ns >> restored >> verified >> bad) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    res.fail("restore child failed (status " + std::to_string(status) + ")");
    return -1;
  }
  if (restored != kThreads || verified != kThreads || bad != 0)
    res.fail("restore: " + std::to_string(restored) + " threads restored, " +
             std::to_string(verified) + " verified, " + std::to_string(bad) +
             " pages wrong");
  return static_cast<double>(done_ns - t0) / 1e6;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

}  // namespace

int ckpt_restore_child(const Options& opt, int argc, char** argv) {
  uint64_t rounds = 0;
  std::string store;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0) rounds = std::stoull(argv[i + 1]);
    if (std::strcmp(argv[i], "--store") == 0) store = argv[i + 1];
  }
  Globals globals;
  g = &globals;
  g->child = true;
  g->model = std::make_unique<Model>(opt.seed);
  for (uint64_t r = 0; r < rounds; ++r) {
    g->model->advance(nullptr);
    g->model->cold_set();
  }
  size_t restored = 0;
  SessionConfig cfg;
  cfg.slot_store_dir = store;
  cfg.slot_store_recover = true;
  run_session(cfg, [&](pm2::Runtime& rt) {
    restored = pm2::restore_node_from_store(rt).size();
    pm2::pm2_wait_signals(restored);
  });
  const uint64_t done = now_ns();
  std::ofstream out(restore_file(opt));
  out << done << " " << restored << " " << g->verified.load() << " "
      << g->verified_bad.load() << "\n";
  return out ? 0 : 1;
}

// Time plan per session, as shares of --seconds: warm up for kWarmShare,
// then measure for kMeasureShare (traced runs: untraced for the first
// kCalmShare of it, traced for the rest).
constexpr double kMeasureShare = 1.0 / kSessions - kWarmShare;
constexpr double kCalmShare = kMeasureShare / 3;

Result run_ckpt(const Options& opt) {
  Result res;
  Samples setup_s, lat, lat_traced;
  uint64_t measured_rounds = 0, traced_rounds = 0;
  uint64_t written = 0, skipped = 0, incremental = 0;
  double measured_s = 0, demoted_mb = 0, restore_ms = 0;
  Counters traced_counters;
  for (int session = 0; session < kSessions; ++session) {
    const bool last = session + 1 == kSessions;
    const uint64_t seed = mix64(opt.seed) + static_cast<uint64_t>(session);
    Globals globals;
    g = &globals;
    g->model = std::make_unique<Model>(seed);
    const std::string store = opt.run_dir + "/store" + std::to_string(session);
    std::filesystem::create_directories(store);
    SessionConfig cfg;
    cfg.slot_store_dir = store;
    const uint64_t t_begin = now_ns();
    run_session(cfg, [&](pm2::Runtime& rt) {
      std::vector<pm2::marcel::ThreadId> ids;
      for (int i = 0; i < kThreads; ++i)
        ids.push_back(pm2::pm2_thread_create(
            ck_worker, reinterpret_cast<void*>(static_cast<uintptr_t>(i)),
            "ckpt"));
      while (g->built.load() < kThreads) pm2::pm2_yield();
      pm2::StoreCheckpointStats first = pm2::checkpoint_node_to_store(rt);
      setup_s.add(static_cast<double>(now_ns() - t_begin) / 1e9);
      if (first.threads != kThreads)
        res.fail("first checkpoint saved " + std::to_string(first.threads) +
                 " threads");
      std::vector<std::pair<int, int>> touched;
      const uint64_t start = now_ns();
      auto at = [&](double share) {
        return start + static_cast<uint64_t>(opt.seconds * share * 1e9);
      };
      const uint64_t t0 = at(kWarmShare);
      const uint64_t trace_at =
          opt.trace ? at(kWarmShare + kCalmShare) : UINT64_MAX;
      const uint64_t end = at(kWarmShare + kMeasureShare);
      uint64_t rounds = 0;
      Counters c0;
      while (now_ns() < end) {
        if (!tracing() && now_ns() >= trace_at) {
          add_runtime_counters(c0, rt);
          Tracer::get().set_on(true);
        }
        const bool traced = tracing();
        const uint64_t op = (uint64_t(session) << 32) + rounds + 1;
        const uint64_t r0 = now_ns();
        // 1. Dirty a seeded ~10% of every thread's pages.
        touched.clear();
        g->model->advance(&touched);
        for (auto [t, p] : touched) g->model->write_page(t, p, g->data[t]);
        // 2. The op: an incremental node checkpoint.
        const uint64_t c_start = now_ns();
        pm2::StoreCheckpointStats st = pm2::checkpoint_node_to_store(rt);
        const uint64_t c_end = now_ns();
        const bool measured = r0 >= t0;
        if (measured) {
          (traced ? lat_traced : lat)
              .add(static_cast<double>(c_end - c_start) / 1e3);
          ++measured_rounds;
        }
        Tracer& tr = Tracer::get();
        tr.span(op, c_start, c_end, "store.checkpoint", Layer::kStore);
        if (st.threads != kThreads)
          res.fail("checkpoint saved " + std::to_string(st.threads) +
                   " threads");
        if (traced) {
          written += st.bytes_written;
          skipped += st.bytes_skipped;
          incremental += st.incremental ? 1 : 0;
        }
        // 3. Cold quarter: freeze, demote, fault back, check.
        std::vector<int> cold = g->model->cold_set();
        for (int t : cold) {
          if (!rt.freeze_thread(ids[t])) res.fail("freeze_thread failed");
          const uint64_t d0 = now_ns();
          if (!rt.demote_thread(ids[t])) res.fail("demote_thread failed");
          tr.span(op, d0, now_ns(), "store.demote", Layer::kStore);
        }
        if (traced)
          demoted_mb += static_cast<double>(rt.demoted_bytes()) / (1 << 20);
        for (int t : cold) {
          const uint64_t f0 = now_ns();
          if (!rt.unfreeze_thread(ids[t])) res.fail("unfreeze_thread failed");
          tr.span(op, f0, now_ns(), "store.fault_back", Layer::kStore);
          const int bad = g->model->bad_pages(t, g->data[t]);
          if (bad != 0)
            res.fail("thread " + std::to_string(t) + ": " +
                     std::to_string(bad) + " pages wrong after fault-back");
        }
        tr.root(op, r0, now_ns(), "ckpt.round");
        ++rounds;
        traced_rounds += traced ? 1 : 0;
      }
      measured_s += static_cast<double>(now_ns() - t0) / 1e9;
      if (tracing()) {
        Tracer::get().set_on(false);
        Counters c1;
        add_runtime_counters(c1, rt);
        traced_counters += c1 - c0;
      }
      res.attempted += rounds;
      // Restore in a fresh process while every thread here stays parked.
      if (last) restore_ms = run_restore_child(opt, seed, store, rounds, res);
      g->stop = true;
      pm2::pm2_wait_signals(kThreads);
    });
    g = nullptr;
    std::filesystem::remove_all(store);
  }
  res.e2e("setup_s", setup_s.p(0.5), "s");
  res.note("restore_ms", std::to_string(restore_ms));
  if (!opt.trace) {
    res.e2e("op_p50_us", lat.p(0.50), "us");
    res.e2e("op_p99_us", lat.p(0.99), "us");
    res.e2e("ops_s", static_cast<double>(measured_rounds) / measured_s, "op/s");
    res.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
    res.note("ckpt_samples", std::to_string(lat.size()));
  } else {
    const auto n = static_cast<double>(traced_rounds);
    report_counters(res, traced_counters, n);
    res.layer("pm2.store.bytes_written_per_round", ratio(written, n), "B");
    res.layer("pm2.store.skip_ratio",
              ratio(skipped, static_cast<double>(written + skipped)), "ratio");
    res.layer("pm2.store.incremental_ratio", ratio(incremental, n), "ratio");
    res.layer("pm2.store.demoted_mb", ratio(demoted_mb, n), "MiB");
    res.layer("pm2.store.restore_ms", restore_ms, "ms");
    finish_trace(res, opt, lat_traced.p(0.5), lat.p(0.5));
  }
  res.note("layout", "1 node x 1 worker, slot store in the run directory");
  return res;
}

}  // namespace perfbench
