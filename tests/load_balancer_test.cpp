// Load balancer: preemptive redistribution of oblivious worker threads.
#include "pm2/load_balancer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/time.hpp"
#include "pm2/api.hpp"
#include "pm2/app.hpp"
#include "pm2/runtime.hpp"
#include "temp_dir.hpp"

namespace pm2 {
namespace {

std::atomic<int> g_done{0};
std::atomic<uint32_t> g_finish_mask{0};

// CPU-ish worker that yields often and never asks to migrate.
void lb_worker(void* arg) {
  auto iters = static_cast<int>(reinterpret_cast<intptr_t>(arg));
  volatile long sink = 0;
  for (int i = 0; i < iters; ++i) {
    for (int k = 0; k < 2000; ++k) sink = sink + k;
    pm2_yield();
  }
  g_finish_mask |= 1u << pm2_self();
  ++g_done;
  pm2_signal(0);
}

TEST(LoadBalancer, SpreadsWorkAcrossNodes) {
  g_done = 0;
  g_finish_mask = 0;
  constexpr int kWorkers = 12;
  std::atomic<uint64_t> moved{0};

  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    LoadBalancerConfig lb;
    lb.period_us = 200;
    lb.imbalance_threshold = 2;
    lb.max_migrations_per_round = 2;
    LoadBalancer::start(rt, lb);
    if (rt.self() == 0) {
      // All work lands on node 0; the balancer must push some of it away.
      for (int i = 0; i < kWorkers; ++i) {
        pm2_thread_create(&lb_worker, reinterpret_cast<void*>(intptr_t{400}),
                          "worker");
      }
      pm2_wait_signals(kWorkers);
      moved = rt.migrations_out();
    }
    rt.barrier();
  });
  EXPECT_EQ(g_done.load(), kWorkers);
  EXPECT_GE(moved.load(), 1u) << "balancer never migrated anything";
  EXPECT_EQ(g_finish_mask.load(), 0b11u)
      << "workers should have finished on both nodes";
}

TEST(LoadBalancer, IdleClusterStaysQuiet) {
  std::atomic<uint64_t> moved{0};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    LoadBalancerConfig lb;
    lb.period_us = 100;
    LoadBalancer::start(rt, lb);
    // No application threads at all: nothing to migrate.
    for (int i = 0; i < 50; ++i) pm2_yield();
    rt.barrier();
    moved += rt.migrations_out();
  });
  EXPECT_EQ(moved.load(), 0u);
}

TEST(LoadBalancer, RespectsThreshold) {
  std::atomic<uint64_t> moved{0};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    LoadBalancerConfig lb;
    lb.period_us = 100;
    lb.imbalance_threshold = 100;  // effectively never
    LoadBalancer::start(rt, lb);
    if (rt.self() == 0) {
      for (int i = 0; i < 4; ++i)
        pm2_thread_create(&lb_worker, reinterpret_cast<void*>(intptr_t{50}),
                          "w");
      pm2_wait_signals(4);
      moved = rt.migrations_out();
    }
    rt.barrier();
  });
  EXPECT_EQ(moved.load(), 0u);
}

// Only node 0 balances, so node 1 never gossips and node 0's table entry for
// it moves only by what node 0 itself ships there.  Counting the shipped
// threads in that entry stops the drain at balance; reading node 1 as idle
// forever would move every spinner off node 0.
std::atomic<bool> g_spin_release{false};

void spinner(void*) {
  // Bounded: if the test body bails out before releasing us, fail red
  // instead of keeping the session alive forever.
  const uint64_t deadline = now_ns() + 20'000'000'000ull;
  while (!g_spin_release.load() && now_ns() < deadline) pm2_yield();
  EXPECT_TRUE(g_spin_release.load()) << "spinner was never released";
  pm2_signal(0);
}

TEST(LoadBalancer, OneSidedViewStopsAtBalance) {
  constexpr int kSpinners = 8;
  g_spin_release = false;
  std::atomic<uint64_t> moved{0};
  AppConfig cfg;
  cfg.nodes = 2;
  run_app(cfg, [&](Runtime& rt) {
    if (rt.self() == 0) {
      for (int i = 0; i < kSpinners; ++i)
        pm2_thread_create(&spinner, nullptr, "spin");
      LoadBalancerConfig lb;
      lb.period_us = 200;
      lb.max_migrations_per_round = kSpinners;
      LoadBalancer::start(rt, lb);
      pm2_sleep_us(100'000);
      moved = rt.migrations_out();
      g_spin_release = true;
      pm2_wait_signals(kSpinners);
    }
    rt.barrier();
  });
  EXPECT_GE(kSpinners - static_cast<int>(moved.load()), 3)
      << "node 0 drained its spinners to a peer it never heard from";
}

// A demoted thread is frozen with a PROT_NONE descriptor: the balancer's
// candidate walk must skip it without a single field read (it used to read
// `state` and fault), and must leave it demoted.
std::atomic<int> g_parked_started{0};
std::atomic<bool> g_parked_release{false};

void parked_worker(void*) {
  ++g_parked_started;
  // Bounded: if the test body bails out before unfreezing us, fail red
  // instead of keeping the session alive forever.
  const uint64_t deadline = now_ns() + 20'000'000'000ull;
  while (!g_parked_release.load() && now_ns() < deadline) pm2_yield();
  EXPECT_TRUE(g_parked_release.load()) << "parked worker was never released";
  pm2_signal(0);
}

TEST(LoadBalancer, SkipsDemotedThreads) {
  constexpr int kParked = 3;
  g_parked_started = 0;
  g_parked_release = false;
  test::TempDir dir("pm2-store");
  std::atomic<int> stayed_demoted{0};
  std::atomic<uint64_t> moved{0};
  AppConfig cfg;
  cfg.nodes = 2;
  cfg.rt.slot_store_dir = dir.path();
  run_app(cfg, [&](Runtime& rt) {
    marcel::ThreadId ids[kParked] = {};
    bool frozen[kParked] = {};
    if (rt.self() == 0) {
      for (auto& id : ids)
        id = pm2_thread_create(&parked_worker, nullptr, "parked");
      while (g_parked_started.load() < kParked) pm2_yield();
      for (int i = 0; i < kParked; ++i) {
        frozen[i] = rt.freeze_thread(ids[i]);
        EXPECT_TRUE(frozen[i] && rt.demote_thread(ids[i]));
      }
    }
    rt.barrier();
    // Node 0 carries kParked more live threads than node 1, so with no
    // threshold every round walks node 0's registry for candidates.
    LoadBalancerConfig lb;
    lb.period_us = 500;
    lb.imbalance_threshold = 0;
    LoadBalancer::start(rt, lb);
    pm2_sleep_us(50'000);
    rt.barrier();
    if (rt.self() == 0) {
      moved = rt.migrations_out();
      for (int i = 0; i < kParked; ++i) {
        if (rt.thread_demoted(ids[i])) ++stayed_demoted;
        if (frozen[i]) {
          EXPECT_TRUE(rt.unfreeze_thread(ids[i]));
        }
      }
      g_parked_release = true;
      pm2_wait_signals(kParked);
    }
  });
  EXPECT_EQ(stayed_demoted.load(), kParked);
  EXPECT_EQ(moved.load(), 0u);
}

}  // namespace
}  // namespace pm2
