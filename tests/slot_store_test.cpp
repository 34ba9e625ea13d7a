// SlotStore residency tiering: freeze -> demote -> (unfreeze | migrate),
// budget-driven eviction order, capacity beyond the resident budget,
// header/stamp validation on recovery, ASan poison round trips through the
// store file, audit coverage of demoted runs, and incremental node
// checkpoints whose store files stay byte-exact under every kind of writer.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"
#include "fabric/inproc.hpp"
#include "isomalloc/area.hpp"
#include "isomalloc/slot_store.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/audit.hpp"
#include "pm2/checkpoint.hpp"
#include "pm2/runtime.hpp"
#include "sys/dirty_tracker.hpp"
#include "sys/sanitizer.hpp"
#include "sys/vm.hpp"
#include "temp_dir.hpp"

namespace pm2 {
namespace {

std::atomic<int> g_phase{0};
std::atomic<int> g_built{0};
std::atomic<int> g_done{0};
std::atomic<bool> g_ok{true};

#define WEXPECT(cond)                                                   \
  do {                                                                  \
    if (!(cond)) {                                                      \
      g_ok = false;                                                     \
      pm2_printf("WEXPECT failed: %s (line %d)\n", #cond, __LINE__);    \
    }                                                                   \
  } while (0)


/// True when the page holding `addr` has resident (committed) physical
/// memory.  Demotion decommits (MADV_DONTNEED + PROT_NONE), so a demoted
/// run's pages read as non-resident without touching them.
bool page_resident(const void* addr) {
  uintptr_t page = reinterpret_cast<uintptr_t>(addr) & ~uintptr_t{4095};
  unsigned char vec = 0;
  PM2_CHECK(::mincore(reinterpret_cast<void*>(page), 1, &vec) == 0);
  return (vec & 1) != 0;
}

// --- freeze -> demote -> unfreeze -------------------------------------------

void tier_worker(void*) {
  auto* data = static_cast<int*>(pm2_isomalloc(2048 * sizeof(int)));
  for (int i = 0; i < 2048; ++i) data[i] = i ^ 0x5a5a;
  int local = 4242;
  g_phase = 1;
  while (g_phase.load() < 2) pm2_yield();
  // Back from the store file: heap and stack contents must be intact.
  for (int i = 0; i < 2048; ++i) WEXPECT(data[i] == (i ^ 0x5a5a));
  WEXPECT(local == 4242);
  pm2_isofree(data);
  g_done = 1;
  pm2_signal(0);
}

TEST(SlotStore, TierCycleFreezeDemoteUnfreeze) {
  g_phase = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  test::TempDir dir("pm2-store");
  cfg.rt.slot_store_dir = dir.path();
  run_app(cfg, [](Runtime& rt) {
    ASSERT_NE(rt.slot_store(), nullptr);
    marcel::ThreadId id = pm2_thread_create(tier_worker, nullptr, "tier");
    while (g_phase.load() < 1) pm2_yield();
    marcel::Thread* t = rt.sched().find(id);
    ASSERT_NE(t, nullptr);
    void* stack_probe = t->stack_base;
    EXPECT_TRUE(page_resident(stack_probe));

    ASSERT_TRUE(rt.freeze_thread(id));
    ASSERT_TRUE(rt.demote_thread(id));
    EXPECT_TRUE(rt.thread_demoted(id));
    EXPECT_EQ(rt.demoted_count(), 1u);
    EXPECT_EQ(rt.demotions(), 1u);
    EXPECT_GT(rt.demoted_bytes(), 0u);
    // Pages are really gone, not just bookkept: the store file is the only
    // copy of the thread now.
    EXPECT_FALSE(page_resident(stack_probe));
    EXPECT_TRUE(rt.slot_store()->has_record(id));

    ASSERT_TRUE(rt.unfreeze_thread(id));
    EXPECT_EQ(rt.fault_backs(), 1u);
    EXPECT_FALSE(rt.thread_demoted(id));
    EXPECT_EQ(rt.demoted_count(), 0u);
    EXPECT_TRUE(page_resident(stack_probe));
    g_phase = 2;
    pm2_wait_signals(1);
    EXPECT_EQ(g_done.load(), 1);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- freeze -> demote -> migrate out ----------------------------------------

void roam_worker(void*) {
  auto* data = static_cast<long*>(pm2_isomalloc(1024 * sizeof(long)));
  for (int i = 0; i < 1024; ++i) data[i] = 3L * i + 7;
  g_phase = 1;
  while (pm2_self() == 0) pm2_yield();
  // Resumed on node 1 after a demote + ship: the pack faulted the image
  // back from node 0's store file.
  WEXPECT(pm2_self() == 1);
  for (int i = 0; i < 1024; ++i) WEXPECT(data[i] == 3L * i + 7);
  pm2_isofree(data);
  pm2_signal(0);
}

TEST(SlotStore, FreezeDemoteMigrateFaultsBackOnPack) {
  g_phase = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 2;
  test::TempDir dir("pm2-store");
  cfg.rt.slot_store_dir = dir.path();
  run_app(cfg, [](Runtime& rt) {
    if (rt.self() != 0) return;
    marcel::ThreadId id = pm2_thread_create(roam_worker, nullptr, "roam");
    while (g_phase.load() < 1) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(id));
    ASSERT_TRUE(rt.demote_thread(id));
    EXPECT_TRUE(rt.thread_demoted(id));
    ASSERT_TRUE(rt.migrate(id, 1));
    // The slots left this node: the demotion record went with them.
    EXPECT_EQ(rt.demoted_count(), 0u);
    EXPECT_FALSE(rt.slot_store()->has_record(id));
    EXPECT_GE(rt.fault_backs(), 1u);
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- budget-driven decay: coldest first -------------------------------------

void spin_worker(void* arg) {
  // Stack-only footprint (one slot): a recognizable local pattern survives
  // the store round trip.
  long seed = reinterpret_cast<intptr_t>(arg);
  volatile long pattern[32];
  for (int i = 0; i < 32; ++i) pattern[i] = seed * 1000 + i;
  g_built.fetch_add(1);
  while (g_phase.load() < 1) pm2_yield();
  for (int i = 0; i < 32; ++i) WEXPECT(pattern[i] == seed * 1000 + i);
  g_done.fetch_add(1);
  pm2_signal(0);
}

TEST(SlotStore, OverBudgetEvictionIsColdestFirst) {
  g_phase = 0;
  g_built = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  test::TempDir dir("pm2-store");
  cfg.rt.slot_store_dir = dir.path();
  cfg.rt.slot_store_budget = cfg.area.slot_size;  // one resident cold thread
  cfg.rt.slot_store_decay_us = 0;                 // age horizon: immediate
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId ids[3];
    for (int i = 0; i < 3; ++i) {
      ids[i] = pm2_thread_create(spin_worker,
                                 reinterpret_cast<void*>(intptr_t{i + 1}),
                                 "spin");
    }
    while (g_built.load() < 3) pm2_yield();
    // Freeze in order 0,1,2 with distinct cold stamps: 0 is coldest.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(rt.freeze_thread(ids[i]));
      pm2_sleep_us(2000);
    }
    rt.store_decay(now_ns());
    // Budget fits exactly one stack slot: the two coldest page out, the
    // youngest stays resident.
    EXPECT_TRUE(rt.thread_demoted(ids[0]));
    EXPECT_TRUE(rt.thread_demoted(ids[1]));
    EXPECT_FALSE(rt.thread_demoted(ids[2]));
    EXPECT_EQ(rt.demoted_count(), 2u);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(rt.unfreeze_thread(ids[i]));
    EXPECT_EQ(rt.demoted_count(), 0u);
    g_phase = 1;
    pm2_wait_signals(3);
    EXPECT_EQ(g_done.load(), 3);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- capacity beyond the resident budget ------------------------------------

// Acceptance shape: a node hosts 4x more frozen threads than the resident
// budget allows hot — 8 frozen one-slot threads against a 2-slot budget.
constexpr int kThreads = 8;

TEST(SlotStore, HostsFourTimesMoreFrozenThanBudget) {
  g_phase = 0;
  g_built = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  test::TempDir dir("pm2-store");
  cfg.rt.slot_store_dir = dir.path();
  cfg.rt.slot_store_budget = 2 * cfg.area.slot_size;
  cfg.rt.slot_store_decay_us = 0;
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId ids[kThreads];
    for (int i = 0; i < kThreads; ++i) {
      ids[i] = pm2_thread_create(spin_worker,
                                 reinterpret_cast<void*>(intptr_t{i + 1}),
                                 "spin");
    }
    while (g_built.load() < kThreads) pm2_yield();
    for (int i = 0; i < kThreads; ++i) ASSERT_TRUE(rt.freeze_thread(ids[i]));
    rt.store_decay(now_ns());
    // 8 frozen threads, at most 2 slots resident: >= 6 demoted to the file.
    EXPECT_GE(rt.demoted_count(), static_cast<size_t>(kThreads - 2));
    EXPECT_GE(rt.demoted_bytes(),
              static_cast<size_t>(kThreads - 2) * rt.area().slot_size());
    for (int i = 0; i < kThreads; ++i) ASSERT_TRUE(rt.unfreeze_thread(ids[i]));
    EXPECT_EQ(rt.demoted_count(), 0u);
    EXPECT_GE(rt.fault_backs(), static_cast<uint64_t>(kThreads - 2));
    g_phase = 1;
    pm2_wait_signals(kThreads);
    EXPECT_EQ(g_done.load(), kThreads);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- recovery validation: refuse foreign or torn store files ----------------

TEST(SlotStore, RecoveryRefusesGarbageFile) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  test::TempDir dir("pm2-store");
  std::string path = dir.path() + "/bad.store";
  {
    std::ofstream f(path, std::ios::binary);
    for (int i = 0; i < 8192; ++i) f.put(static_cast<char>(i * 37));
  }
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(8);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  iso::SlotStoreConfig sc;
  sc.path = path;
  sc.recover = true;
  EXPECT_DEATH({ iso::SlotStore store(area, sc, binary_stamp(), 0, 1); },
               "not a PM2 slot store");
}

TEST(SlotStore, RecoveryRefusesForeignBinaryStamp) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  test::TempDir dir("pm2-store");
  std::string path = dir.path() + "/stamp.store";
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(9);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  {
    iso::SlotStoreConfig sc;
    sc.path = path;
    iso::SlotStore store(area, sc, binary_stamp(), 0, 1);
  }
  iso::SlotStoreConfig sc;
  sc.path = path;
  sc.recover = true;
  EXPECT_DEATH({ iso::SlotStore store(area, sc, binary_stamp() ^ 1, 0, 1); },
               "different binary");
}

TEST(SlotStore, RecoveryRefusesGeometryMismatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  test::TempDir dir("pm2-store");
  std::string path = dir.path() + "/geom.store";
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(10);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  {
    iso::SlotStoreConfig sc;
    sc.path = path;
    iso::SlotStore store(area, sc, binary_stamp(), 0, 1);
  }
  iso::AreaConfig ac2 = ac;
  ac2.base = iso::offset_area_base(11);  // different area base, same file
  iso::Area area2(ac2);
  iso::SlotStoreConfig sc;
  sc.path = path;
  sc.recover = true;
  EXPECT_DEATH({ iso::SlotStore store(area2, sc, binary_stamp(), 0, 1); },
               "geometry mismatch");
}

TEST(SlotStore, RecoveryRefusesSessionShapeMismatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  test::TempDir dir("pm2-store");
  std::string path = dir.path() + "/shape.store";
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(12);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  {
    iso::SlotStoreConfig sc;
    sc.path = path;
    iso::SlotStore store(area, sc, binary_stamp(), /*node=*/0, /*n_nodes=*/2);
  }
  iso::SlotStoreConfig sc;
  sc.path = path;
  sc.recover = true;
  EXPECT_DEATH(
      { iso::SlotStore store(area, sc, binary_stamp(), /*node=*/1,
                             /*n_nodes=*/2); },
      "different node/session shape");
}

// --- store decay evicts parked pool shells ----------------------------------

// A parked invocation-pool shell holds a dead invocation: over budget, store
// decay releases it through the pool instead of writing it to the file.
TEST(SlotStore, DecayEvictsParkedShellsWithoutIo) {
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(13);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  auto hub = std::make_shared<fabric::InProcHub>(1);
  test::TempDir dir("pm2-store");
  RuntimeConfig rc;
  rc.node = 0;
  rc.n_nodes = 1;
  rc.slot_store_dir = dir.path();
  rc.slot_store_budget = 0;    // every cold byte goes
  rc.slot_store_decay_us = 0;  // immediately
  Runtime rt(rc, area, hub->endpoint(0));
  rt.service("inc", [](RpcContext&, int v) -> int { return v + 1; });
  rt.run([] {
    Runtime& self = *Runtime::current();
    const uint64_t evictions = self.pool_evictions();
    const uint64_t bytes_out = self.slot_store()->stats().bytes_out;
    EXPECT_EQ(self.call<int>(0, "inc", 1), 2);
    self.store_decay(now_ns());
    EXPECT_EQ(self.pool_size(), 0u);
    EXPECT_GT(self.pool_evictions(), evictions);
    EXPECT_EQ(self.demoted_count(), 0u);
    EXPECT_EQ(self.slot_store()->stats().bytes_out, bytes_out);
    EXPECT_EQ(self.call<int>(0, "inc", 41), 42);
    self.halt();
  });
}

// --- audit covers demoted runs ----------------------------------------------

TEST(SlotStore, AuditCoversDemotedRuns) {
  g_phase = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 2;
  test::TempDir dir("pm2-store");
  cfg.rt.slot_store_dir = dir.path();
  run_app(cfg, [](Runtime& rt) {
    if (rt.self() != 0) return;
    marcel::ThreadId id = pm2_thread_create(tier_worker, nullptr, "tier");
    while (g_phase.load() < 1) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(id));
    ASSERT_TRUE(rt.demote_thread(id));
    AuditReport report = audit_session(rt);
    EXPECT_TRUE(report.ok) << report.summary();
    EXPECT_EQ(report.threads_demoted, 1u);
    // Stack run plus at least one heap run.
    EXPECT_GE(report.demoted_slots, 2u);
    ASSERT_TRUE(rt.unfreeze_thread(id));
    AuditReport after = audit_session(rt);
    EXPECT_TRUE(after.ok) << after.summary();
    EXPECT_EQ(after.threads_demoted, 0u);
    g_phase = 2;
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- incremental node checkpoints -------------------------------------------

void dirty_worker(void*) {
  constexpr size_t kBytes = 64 * 1024;
  auto* data = static_cast<unsigned char*>(pm2_isomalloc(kBytes));
  std::memset(data, 0xab, kBytes);
  g_phase = 1;
  while (g_phase.load() < 2) pm2_yield();
  // Dirty ~10% of the pages between the two checkpoints.
  for (size_t p = 0; p < kBytes / 4096; p += 8) data[p * 4096] = 0xcd;
  g_phase = 3;
  while (g_phase.load() < 4) pm2_yield();
  for (size_t i = 0; i < kBytes; ++i) {
    unsigned char want = (i % 4096 == 0 && (i / 4096) % 8 == 0) ? 0xcd : 0xab;
    WEXPECT(data[i] == want);
  }
  pm2_isofree(data);
  pm2_signal(0);
}

TEST(SlotStore, IncrementalCheckpointWritesLessThanFull) {
  g_phase = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  test::TempDir dir("pm2-store");
  cfg.rt.slot_store_dir = dir.path();
  run_app(cfg, [](Runtime& rt) {
    pm2_thread_create(dirty_worker, nullptr, "dirty");
    while (g_phase.load() < 1) pm2_yield();
    StoreCheckpointStats full = checkpoint_node_to_store(rt);
    EXPECT_EQ(full.threads, 1u);
    EXPECT_FALSE(full.incremental);  // first round: nothing recorded yet
    EXPECT_GT(full.bytes_written, 0u);
    g_phase = 2;
    while (g_phase.load() < 3) pm2_yield();
    StoreCheckpointStats incr = checkpoint_node_to_store(rt);
    EXPECT_EQ(incr.threads, 1u);
    if (sys::dirty_tracking_supported()) {
      EXPECT_TRUE(incr.incremental);
      EXPECT_LT(incr.bytes_written, full.bytes_written);
      EXPECT_GT(incr.bytes_skipped, 0u);
    } else {
      // Without the tracker the same path writes full images.
      EXPECT_FALSE(incr.incremental);
      EXPECT_EQ(incr.bytes_written, full.bytes_written);
    }
    g_phase = 4;
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
}

// A demoted thread is already fully persisted: the node checkpoint counts
// it without touching its (PROT_NONE) image.
TEST(SlotStore, NodeCheckpointSkipsDemotedThreads) {
  g_phase = 0;
  g_done = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  test::TempDir dir("pm2-store");
  cfg.rt.slot_store_dir = dir.path();
  run_app(cfg, [](Runtime& rt) {
    marcel::ThreadId id = pm2_thread_create(tier_worker, nullptr, "tier");
    while (g_phase.load() < 1) pm2_yield();
    ASSERT_TRUE(rt.freeze_thread(id));
    ASSERT_TRUE(rt.demote_thread(id));
    StoreCheckpointStats stats = checkpoint_node_to_store(rt);
    EXPECT_EQ(stats.threads, 1u);
    EXPECT_EQ(stats.bytes_written, 0u);   // image already in the file
    EXPECT_GT(stats.bytes_skipped, 0u);
    ASSERT_TRUE(rt.unfreeze_thread(id));
    g_phase = 2;
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
}

// --- exact store files ----------------------------------------------------

constexpr size_t kPage = 4096;

/// Freeze a READY thread (another worker may be running it this instant).
bool freeze_ready(Runtime& rt, marcel::ThreadId id) {
  for (int i = 0; i < 1000; ++i) {
    if (rt.freeze_thread(id)) return true;
    pm2_yield();
  }
  return false;
}

/// The `len` bytes the store file at `path` holds from slot `first` on.
std::vector<unsigned char> read_store_run(const std::string& path,
                                          size_t first, size_t len,
                                          size_t slot_size) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  PM2_CHECK(fd >= 0) << "cannot open " << path;
  iso::StoreHeader hdr;
  PM2_CHECK(::pread(fd, &hdr, sizeof(hdr), 0) ==
            static_cast<ssize_t>(sizeof(hdr)));
  std::vector<unsigned char> bytes(len);
  PM2_CHECK(::pread(fd, bytes.data(), len,
                    static_cast<off_t>(hdr.data_off + first * slot_size)) ==
            static_cast<ssize_t>(len));
  ::close(fd);
  return bytes;
}

/// Byte-compare every sealed record's runs in the node's store file with
/// memory.  Demoted threads are skipped: their pages are PROT_NONE and the
/// file is their only copy.  Callers keep every recorded thread frozen.
/// Returns the number of runs compared.
size_t expect_store_exact(Runtime& rt) {
  const std::string path = rt.config().slot_store_dir + "/node" +
                           std::to_string(rt.self()) + ".store";
  const size_t slot_size = rt.area().slot_size();
  size_t compared = 0;
  for (const auto& rec : rt.slot_store()->recorded_threads()) {
    if (rt.thread_demoted(rec.id)) continue;
    for (auto [first, count] : rec.runs) {
      const size_t len = size_t{count} * slot_size;
      const std::vector<unsigned char> file =
          read_store_run(path, first, len, slot_size);
      const auto* mem =
          static_cast<const unsigned char*>(rt.area().slot_addr(first));
      sys::san_unpoison(mem, len);  // a frozen stack keeps redzone poison
      for (size_t off = 0; off < len; off += kPage) {
        if (std::memcmp(file.data() + off, mem + off, kPage) != 0) {
          ADD_FAILURE() << "node " << rt.self() << " thread " << rec.id
                        << ": page " << off / kPage << " of slot run "
                        << first << " differs from the store file";
          break;
        }
      }
      ++compared;
    }
  }
  return compared;
}

// Every kind of writer between rounds: the owner thread, another PM2
// thread, the node's main thread, the kernel (read(2) from a pipe), a
// free + re-allocate that reuses a slot run, and a demote + fault-back.
// After every round the store file must equal memory byte for byte.
constexpr size_t kBufBytes = 24 * kPage;
constexpr size_t kBigBytes = 96 * 1024;  // a two-slot run of its own

struct ExactState {
  std::atomic<int> round{0};
  std::atomic<int> owner_done{0};
  std::atomic<int> helper_done{0};
  std::atomic<unsigned char*> buf{nullptr};
  std::atomic<bool> big_reused{true};
  std::atomic<bool> stop{false};
};
ExactState* g_exact = nullptr;

/// Seeded scatter of `n` one-byte writes over buf.
void scatter_writes(unsigned char* buf, uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  for (int i = 0; i < n; ++i) {
    const size_t at = rng() % kBufBytes;
    buf[at] = static_cast<unsigned char>(rng());
  }
}

void exact_owner(void*) {
  ExactState& st = *g_exact;
  auto* buf = static_cast<unsigned char*>(pm2_isomalloc(kBufBytes));
  std::memset(buf, 0x11, kBufBytes);
  auto* big = static_cast<unsigned char*>(pm2_isomalloc(kBigBytes));
  std::memset(big, 0x22, kBigBytes);
  st.buf = buf;
  int seen = 0;
  while (!st.stop.load()) {
    const int r = st.round.load();
    if (r == seen) {
      pm2_yield();
      continue;
    }
    seen = r;
    scatter_writes(buf, 1000 + r, 3);
    if (r % 2 == 0) {
      // The emptied run goes back to the node and comes straight back;
      // the re-allocation overwrites only its first third.
      pm2_isofree(big);
      auto* again = static_cast<unsigned char*>(pm2_isomalloc(kBigBytes));
      if (again != big) st.big_reused = false;
      big = again;
      std::memset(big, r, kBigBytes / 3);
    }
    st.owner_done = r;
  }
  pm2_isofree(big);
  pm2_isofree(buf);
  pm2_signal(0);
}

void exact_helper(void*) {
  ExactState& st = *g_exact;
  int seen = 0;
  while (!st.stop.load()) {
    const int r = st.round.load();
    if (r == seen) {
      pm2_yield();
      continue;
    }
    seen = r;
    scatter_writes(st.buf.load(), 2000 + r, 3);  // into the owner's heap
    st.helper_done = r;
  }
  pm2_signal(0);
}

TEST(SlotStore, StoreFileStaysExactUnderEveryWriter) {
  ExactState st;
  g_exact = &st;
  AppConfig cfg;
  cfg.nodes = 1;
  test::TempDir dir("pm2-store");
  cfg.rt.slot_store_dir = dir.path();
  run_app(cfg, [&st](Runtime& rt) {
    const bool exact = sys::dirty_tracking_supported();
    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    marcel::ThreadId owner = pm2_thread_create(exact_owner, nullptr, "owner");
    while (st.buf.load() == nullptr) pm2_yield();
    marcel::ThreadId helper = pm2_thread_create(exact_helper, nullptr, "help");
    constexpr int kRounds = 12;
    for (int r = 1; r <= kRounds; ++r) {
      st.round = r;
      while (st.owner_done.load() < r || st.helper_done.load() < r)
        pm2_yield();
      unsigned char* buf = st.buf.load();
      scatter_writes(buf, 3000 + r, 3);  // the main thread
      // The kernel: read(2) lands pipe bytes in the owner's heap.
      std::mt19937_64 rng(4000 + r);
      unsigned char bytes[300];
      for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng());
      const size_t at = rng() % (kBufBytes - sizeof(bytes));
      ASSERT_EQ(::write(pipefd[1], bytes, sizeof(bytes)),
                static_cast<ssize_t>(sizeof(bytes)));
      ASSERT_EQ(::read(pipefd[0], buf + at, sizeof(bytes)),
                static_cast<ssize_t>(sizeof(bytes)));

      ASSERT_TRUE(freeze_ready(rt, owner));
      ASSERT_TRUE(freeze_ready(rt, helper));
      StoreCheckpointStats stats = checkpoint_node_to_store(rt);
      EXPECT_EQ(stats.threads, 2u);
      EXPECT_EQ(stats.incremental, exact && r > 1) << "round " << r;
      EXPECT_GE(expect_store_exact(rt), 4u) << "round " << r;
      if (r % 3 == 0) {
        // Demote right after the checkpoint: nothing left to write.  The
        // fault-back below is the next round's last writer.
        const uint64_t out = rt.slot_store()->stats().bytes_out;
        ASSERT_TRUE(rt.demote_thread(owner));
        if (exact) {
          EXPECT_EQ(rt.slot_store()->stats().bytes_out, out);
        }
      }
      ASSERT_TRUE(rt.unfreeze_thread(owner));
      ASSERT_TRUE(rt.unfreeze_thread(helper));
    }
    EXPECT_TRUE(st.big_reused.load()) << "re-allocation took other slots";
    st.stop = true;
    pm2_wait_signals(2);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
  });
  g_exact = nullptr;
}

// Residency round trips cost no writes twice: a demote right after a
// checkpoint writes nothing, and a run faulted back (still frozen) is
// protected on arrival, so the next round writes none of it.  Without the
// tracker both write full images instead.
TEST(SlotStore, DemoteAndFaultBackRewriteNothing) {
  g_phase = 0;
  g_ok = true;
  AppConfig cfg;
  cfg.nodes = 1;
  test::TempDir dir("pm2-store");
  cfg.rt.slot_store_dir = dir.path();
  run_app(cfg, [](Runtime& rt) {
    const bool exact = sys::dirty_tracking_supported();
    marcel::ThreadId id = pm2_thread_create(tier_worker, nullptr, "tier");
    while (g_phase.load() < 1) pm2_yield();
    ASSERT_TRUE(freeze_ready(rt, id));
    StoreCheckpointStats full = checkpoint_node_to_store(rt);
    ASSERT_EQ(full.threads, 1u);
    ASSERT_GT(full.bytes_written, 0u);

    const uint64_t out = rt.slot_store()->stats().bytes_out;
    ASSERT_TRUE(rt.demote_thread(id));
    EXPECT_EQ(rt.slot_store()->stats().bytes_out - out,
              exact ? 0u : full.bytes_written);

    rt.ensure_resident(rt.sched().find(id));
    StoreCheckpointStats after = checkpoint_node_to_store(rt);
    EXPECT_EQ(after.threads, 1u);
    EXPECT_EQ(after.incremental, exact);
    EXPECT_EQ(after.bytes_written, exact ? 0u : full.bytes_written);
    EXPECT_EQ(expect_store_exact(rt), 2u);  // stack run + heap run

    ASSERT_TRUE(rt.unfreeze_thread(id));
    g_phase = 2;
    pm2_wait_signals(1);
  });
  EXPECT_TRUE(g_ok.load());
}

// The restore path at the store level: runs read back from a recovered
// store are protected on arrival, so re-persisting them writes nothing
// until something writes them again.
TEST(SlotStore, RecoveredRunsRewriteOnlyNewWrites) {
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(14);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  test::TempDir tmp("pm2-store");
  const std::string& dir = tmp.path();
  iso::SlotStoreConfig sc;
  sc.path = dir + "/restore.store";
  const size_t first = 3;
  const uint32_t count = 2;
  const std::vector<iso::SlotRun> runs = {{first, count}};
  const size_t len = count * area.slot_size();
  auto* mem = static_cast<unsigned char*>(area.slot_addr(first));
  const auto desc = reinterpret_cast<uint64_t>(mem);
  const bool exact = sys::dirty_tracking_supported();
  area.commit(first, count);
  std::memset(mem, 0x5c, len);
  {
    iso::SlotStore store(area, sc, binary_stamp(), 0, 1);
    iso::StoreWriteStats ws;
    ASSERT_TRUE(store.write_thread(7, desc, runs, &ws));
    EXPECT_EQ(ws.written, len);
    EXPECT_FALSE(ws.incremental);
  }
  std::memset(mem, 0, len);  // the restarted process has lost the bytes
  sc.recover = true;
  iso::SlotStore store(area, sc, binary_stamp(), 0, 1);
  ASSERT_TRUE(store.recovered());
  store.read_run(first, count);
  for (size_t i = 0; i < len; i += kPage) ASSERT_EQ(mem[i], 0x5c);

  iso::StoreWriteStats again;
  ASSERT_TRUE(store.write_thread(7, desc, runs, &again));
  EXPECT_EQ(again.written, exact ? 0u : len);
  EXPECT_EQ(again.incremental, exact);

  mem[5 * kPage + 17] = 1;
  iso::StoreWriteStats one;
  ASSERT_TRUE(store.write_thread(7, desc, runs, &one));
  EXPECT_EQ(one.written, exact ? kPage : len);
  area.decommit_force(first, count);
}

// A run its thread released can be protected by another store (an
// in-process node that owned the slots meanwhile) before the thread gets it
// back.  Its next write must be whole: a delta would miss every write that
// protect hid, and the file would go stale.
TEST(SlotStore, ReleasedRunComesBackWhole) {
  iso::AreaConfig ac;
  ac.base = iso::offset_area_base(15);
  ac.size = 64ull << 20;
  iso::Area area(ac);
  test::TempDir tmp("pm2-store");
  const std::string& dir = tmp.path();
  iso::SlotStoreConfig ca, cb;
  ca.path = dir + "/a.store";
  cb.path = dir + "/b.store";
  const size_t first = 5;
  const std::vector<iso::SlotRun> runs = {{first, 1}};
  const size_t len = area.slot_size();
  auto* mem = static_cast<unsigned char*>(area.slot_addr(first));
  const auto desc = reinterpret_cast<uint64_t>(mem);
  area.commit(first, 1);
  std::memset(mem, 0x31, len);
  iso::SlotStore a(area, ca, binary_stamp(), 0, 2);
  iso::SlotStore b(area, cb, binary_stamp(), 1, 2);
  ASSERT_TRUE(a.write_thread(7, desc, runs));
  a.note_released(first, 1);                     // thread 7 frees the run,
  std::memset(mem, 0x42, len);                   // node 1 writes the slots
  ASSERT_TRUE(b.write_thread(9, desc, runs));    // and checkpoints them,
  iso::StoreWriteStats ws;
  ASSERT_TRUE(a.write_thread(7, desc, runs, &ws));  // thread 7 has it back
  EXPECT_EQ(ws.written, len);
  EXPECT_FALSE(ws.incremental);
  const std::vector<unsigned char> file =
      read_store_run(ca.path, first, len, area.slot_size());
  EXPECT_EQ(std::memcmp(file.data(), mem, len), 0);
  area.decommit_force(first, 1);
}

// Two in-process Runtimes, each with its own store, share one address
// space: both go incremental and both keep exact files (a scan re-protects
// only the range it reads).  A thread migrating between them arrives
// without a record in the destination store and gets a full image there.
std::atomic<int> g_pair_built[2];
std::atomic<unsigned char*> g_pair_buf[2];
std::atomic<marcel::ThreadId> g_pair_id[2];
std::atomic<int> g_pair_arrived{0};

void pair_worker(void*) {
  const uint32_t home = pm2_self();
  auto* data = static_cast<unsigned char*>(pm2_isomalloc(16 * kPage));
  std::memset(data, 0x70 + static_cast<int>(home), 16 * kPage);
  g_pair_buf[home] = data;
  g_pair_built[home] = 1;
  while (g_phase.load() < 1) {
    if (pm2_self() != home) g_pair_arrived = 1;
    pm2_yield();
  }
  pm2_isofree(data);
  pm2_signal(home);
}

TEST(SlotStore, InprocNodesCheckpointIncrementallyAndExactly) {
  g_phase = 0;
  g_pair_arrived = 0;
  for (int i = 0; i < 2; ++i) {
    g_pair_built[i] = 0;
    g_pair_buf[i] = nullptr;
  }
  AppConfig cfg;
  cfg.nodes = 2;
  test::TempDir dir("pm2-store");
  cfg.rt.slot_store_dir = dir.path();
  run_app(cfg, [](Runtime& rt) {
    const uint32_t me = rt.self();
    const bool exact = sys::dirty_tracking_supported();
    marcel::ThreadId id = pm2_thread_create(pair_worker, nullptr, "pair");
    g_pair_id[me] = id;
    while (g_pair_built[me].load() == 0) pm2_yield();

    ASSERT_TRUE(freeze_ready(rt, id));
    StoreCheckpointStats first = checkpoint_node_to_store(rt);
    EXPECT_EQ(first.threads, 1u);
    EXPECT_FALSE(first.incremental);
    EXPECT_GT(first.bytes_written, 0u);
    EXPECT_EQ(expect_store_exact(rt), 2u);
    ASSERT_TRUE(rt.unfreeze_thread(id));
    rt.barrier();  // both full rounds (and their protects) are done

    unsigned char* buf = g_pair_buf[me].load();
    for (size_t page : {1, 5, 9}) buf[page * kPage + me] ^= 0xff;
    ASSERT_TRUE(freeze_ready(rt, id));
    StoreCheckpointStats second = checkpoint_node_to_store(rt);
    EXPECT_EQ(second.threads, 1u);
    EXPECT_EQ(second.incremental, exact);
    if (exact) {
      EXPECT_LT(second.bytes_written, first.bytes_written);
      EXPECT_GE(second.bytes_written, 3 * kPage);
    } else {
      EXPECT_EQ(second.bytes_written, first.bytes_written);
    }
    EXPECT_EQ(expect_store_exact(rt), 2u);
    rt.barrier();  // both incremental rounds are done

    if (me == 0) {
      ASSERT_TRUE(rt.migrate(id, 1));  // caller-frozen: shipped as is
      EXPECT_FALSE(rt.slot_store()->has_record(id));
    } else {
      ASSERT_TRUE(rt.unfreeze_thread(id));
      while (g_pair_arrived.load() == 0) pm2_yield();
      const marcel::ThreadId guest = g_pair_id[0].load();
      ASSERT_TRUE(freeze_ready(rt, id));
      ASSERT_TRUE(freeze_ready(rt, guest));
      StoreCheckpointStats third = checkpoint_node_to_store(rt);
      EXPECT_EQ(third.threads, 2u);
      EXPECT_EQ(third.incremental, exact);  // the resident thread's delta
      uint64_t guest_bytes = 0;
      for (const auto& rec : rt.slot_store()->recorded_threads()) {
        if (rec.id != guest) continue;
        for (auto [f, n] : rec.runs) {
          (void)f;
          guest_bytes += uint64_t{n} * rt.area().slot_size();
        }
      }
      EXPECT_GT(guest_bytes, 0u);
      EXPECT_GE(third.bytes_written, guest_bytes);  // full image on arrival
      EXPECT_EQ(expect_store_exact(rt), 4u);
      ASSERT_TRUE(rt.unfreeze_thread(id));
      ASSERT_TRUE(rt.unfreeze_thread(guest));
    }
    rt.barrier();
    g_phase = 1;
    pm2_wait_signals(1);
  });
}

}  // namespace
}  // namespace pm2
