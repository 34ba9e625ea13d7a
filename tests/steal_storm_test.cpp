// Steal-storm stress: keep every worker's Chase-Lev deque hovering at zero
// or one element while thieves hammer it, so the owner-pop-vs-thief-steal
// CAS race and the handoff-mailbox path fire continuously.  Run at
// workers == 1 (parity with the historical single-loop scheduler: no
// thieves, everything through the deque) and workers == 4 (the storm).
// The CI TSan and chaos legs run this binary as well.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "marcel/scheduler.hpp"

namespace pm2::marcel {
namespace {

constexpr size_t kRegion = 64 * 1024;

struct Pool {
  std::vector<void*> regions;
  void* take() {
    void* p = std::aligned_alloc(64, kRegion);
    regions.push_back(p);
    return p;
  }
  ~Pool() {
    for (void* p : regions) std::free(p);
  }
};

void exit_now() {
  Scheduler::current_scheduler()->exit_current([](Thread*) {});
}

// --- one-element churn -----------------------------------------------------

struct ChurnCtx {
  std::atomic<uint64_t>* laps;  // one slot per thread: exactly-once proof
  int index;
  int iters;
};

void churn_entry(void* arg) {
  auto* c = static_cast<ChurnCtx*>(arg);
  for (int i = 0; i < c->iters; ++i) {
    // A second dispatcher running this context concurrently would corrupt
    // the stack long before the lap count went wrong, but the count is the
    // readable assertion: every yield epoch happens exactly once.
    c->laps[c->index].fetch_add(1, std::memory_order_relaxed);
    Scheduler::current_scheduler()->yield();
  }
  exit_now();
}

void run_storm(uint32_t workers, int threads, int iters,
               bool expect_steals) {
  Pool pool;
  Scheduler sched(workers);
  std::vector<std::atomic<uint64_t>> laps(static_cast<size_t>(threads));
  for (auto& l : laps) l.store(0);
  std::vector<ChurnCtx> ctxs;
  ctxs.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i)
    ctxs.push_back(ChurnCtx{laps.data(), i, iters});
  for (int i = 0; i < threads; ++i)
    sched.create(pool.take(), kRegion, &churn_entry, &ctxs[static_cast<size_t>(i)],
                 static_cast<ThreadId>(i + 1), "storm");
  sched.stop();
  sched.run();
  for (int i = 0; i < threads; ++i)
    EXPECT_EQ(laps[static_cast<size_t>(i)].load(),
              static_cast<uint64_t>(iters))
        << "thread " << i << " lost or repeated a lap";
  if (expect_steals) {
    uint64_t steals = 0;
    for (const WorkerStats& s : sched.worker_stats()) steals += s.steals;
    EXPECT_GT(steals, 0u) << "storm never exercised the steal path";
  }
}

TEST(StealStorm, Workers1Parity) {
  // Single worker: no thieves exist; the deque carries the full FIFO.
  run_storm(1, 8, 2000, /*expect_steals=*/false);
}

TEST(StealStorm, Workers4OneElementDeques) {
  // workers + 1 threads over 4 workers: at any instant at most one deque
  // holds more than one element, so nearly every steal is the one-element
  // race against the owner's pop.
  run_storm(4, 5, 20'000, /*expect_steals=*/true);
}

TEST(StealStorm, Workers4ManyThreads) {
  // Heavier mix: enough threads that drain/refill, inbox pushes from
  // remote unblocks, and deque growth all occur under contention.
  run_storm(4, 64, 2000, /*expect_steals=*/true);
}

// --- handoff-mailbox storm -------------------------------------------------
// Ping-pong pairs through block()/unblock(front=true): every wakeup goes
// through the single-slot handoff mailbox, and concurrent unblocks toward
// the same worker displace each other into the inbox.

struct PingCtx {
  ThreadId a_id;
  std::atomic<int> rounds{0};
  int target_rounds;
};

void ping_a(void* arg) {
  auto* c = static_cast<PingCtx*>(arg);
  Scheduler* s = Scheduler::current_scheduler();
  for (int i = 0; i < c->target_rounds; ++i) {
    s->block();
    c->rounds.fetch_add(1, std::memory_order_relaxed);
  }
  exit_now();
}

void ping_b(void* arg) {
  auto* c = static_cast<PingCtx*>(arg);
  Scheduler* s = Scheduler::current_scheduler();
  Thread* a = s->find(c->a_id);
  if (a == nullptr) {
    ADD_FAILURE() << "partner " << c->a_id << " not registered";
    exit_now();
  }
  for (int i = 0; i < c->target_rounds; ++i) {
    // Wait for A to be parked for round i+1: rounds == i proves A consumed
    // exactly i wakeups, and the kBlocked it stores afterwards is the new
    // park (our own unblock overwrote the previous one with kReady, so a
    // stale read cannot satisfy both conditions).
    while (!(c->rounds.load(std::memory_order_relaxed) == i &&
             a->state == ThreadState::kBlocked)) {
      s->yield();
    }
    s->unblock(a, /*front=*/true);
  }
  exit_now();
}

void run_pingpong(uint32_t workers, int pairs, int rounds) {
  Pool pool;
  Scheduler sched(workers);
  std::vector<PingCtx> ctxs(static_cast<size_t>(pairs));
  for (int p = 0; p < pairs; ++p) {
    auto& c = ctxs[static_cast<size_t>(p)];
    c.a_id = static_cast<ThreadId>(2 * p + 1);
    c.target_rounds = rounds;
    sched.create(pool.take(), kRegion, &ping_a, &c, c.a_id, "ping-a");
    sched.create(pool.take(), kRegion, &ping_b, &c,
                 static_cast<ThreadId>(2 * p + 2), "ping-b");
  }
  sched.stop();
  sched.run();
  uint64_t handoffs = 0;
  for (const WorkerStats& s : sched.worker_stats()) handoffs += s.handoffs;
  for (int p = 0; p < pairs; ++p)
    EXPECT_EQ(ctxs[static_cast<size_t>(p)].rounds.load(), rounds)
        << "pair " << p << " dropped a wakeup";
  EXPECT_GE(handoffs, static_cast<uint64_t>(pairs) * rounds)
      << "front unblocks bypassed the handoff mailbox";
}

TEST(StealStorm, HandoffPingPongWorkers1) { run_pingpong(1, 2, 300); }

TEST(StealStorm, HandoffPingPongWorkers4) { run_pingpong(4, 8, 300); }

// --- gated freeze under the storm -------------------------------------------
// freeze() at workers > 1 runs under the pause gate: with every peer parked
// at its loop top, a victim found READY is in exactly one container, so the
// freeze must succeed every time — no lost race, however hard thieves fight
// over the deques.  A frozen victim is in no container: once the workers
// run again, nobody may dispatch it until it is unfrozen.

struct FreezeCtx {
  std::atomic<bool> done{false};
  std::atomic<uint64_t>* laps;
  int n_victims;
  int ready_seen = 0;
  int freezes = 0;
};

void victim_entry(void* arg) {
  auto* c = static_cast<FreezeCtx*>(arg);
  int self = static_cast<int>(Scheduler::self()->id) - 1;
  while (!c->done.load(std::memory_order_relaxed)) {
    c->laps[self].fetch_add(1, std::memory_order_relaxed);
    Scheduler::current_scheduler()->yield();
  }
  exit_now();
}

void freeze_controller(void* arg) {
  auto* c = static_cast<FreezeCtx*>(arg);
  Scheduler* s = Scheduler::current_scheduler();
  for (int round = 0; round < 200; ++round) {
    s->pause_workers();
    Thread* t = s->find(static_cast<ThreadId>(round % c->n_victims + 1));
    bool ready = t != nullptr && t->state == ThreadState::kReady;
    bool frozen = ready && s->freeze(t);
    s->resume_workers();
    if (!ready) continue;
    ++c->ready_seen;
    EXPECT_TRUE(frozen) << "freeze of a READY victim failed";
    if (!frozen) continue;
    ++c->freezes;
    // The workers run again; the frozen victim's lap counter must not move.
    int idx = static_cast<int>(t->id) - 1;
    uint64_t before = c->laps[idx].load(std::memory_order_relaxed);
    for (int spin = 0; spin < 20; ++spin) s->yield();
    EXPECT_EQ(c->laps[idx].load(std::memory_order_relaxed), before)
        << "a frozen thread kept running";
    s->unfreeze(t);
    s->yield();
  }
  c->done.store(true);
  exit_now();
}

TEST(StealStorm, GatedFreezeUnderStorm) {
  Pool pool;
  Scheduler sched(4);
  constexpr int kVictims = 8;
  std::vector<std::atomic<uint64_t>> laps(kVictims);
  for (auto& l : laps) l.store(0);
  FreezeCtx c;
  c.laps = laps.data();
  c.n_victims = kVictims;
  for (int i = 0; i < kVictims; ++i)
    sched.create(pool.take(), kRegion, &victim_entry, &c,
                 static_cast<ThreadId>(i + 1), "v");
  sched.create(pool.take(), kRegion, &freeze_controller, &c, 99, "ctl");
  sched.stop();
  sched.run();
  // Under the gate no victim can be mid-dispatch (each frozen one was
  // unfrozen before the next round), so every round finds its victim READY
  // and every freeze succeeds.
  EXPECT_EQ(c.ready_seen, 200);
  EXPECT_EQ(c.freezes, 200);
  for (int i = 0; i < kVictims; ++i)
    EXPECT_GT(laps[static_cast<size_t>(i)].load(), 0u);
}

}  // namespace
}  // namespace pm2::marcel
