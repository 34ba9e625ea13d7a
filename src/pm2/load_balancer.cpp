#include "pm2/load_balancer.hpp"

#include <algorithm>
#include <vector>

#include "common/time.hpp"
#include "marcel/scheduler.hpp"
#include "pm2/runtime.hpp"

namespace pm2 {

namespace {

void balancer_loop(Runtime& rt, LoadBalancerConfig cfg) {
  marcel::Scheduler& sched = rt.sched();
  while (!rt.halting()) {
    sched.sleep_us(cfg.period_us);
    // Halt may have arrived during the sleep: do not gossip to nodes that
    // are already draining (their processes may exit at any moment).
    if (rt.halting()) break;

    rt.broadcast_load();
    const auto& table = rt.load_table();
    uint64_t my = table[rt.self()];

    // Pick the least loaded node as the victim.  Skip peers the failure
    // detector has declared down: their load-table entry is stale (a dead
    // node gossips nothing, so it looks idle forever) and a migration
    // there would only burn its deadline before failing.
    uint32_t victim = rt.self();
    uint64_t victim_load = my;
    for (uint32_t n = 0; n < rt.n_nodes(); ++n) {
      if (n != rt.self() && rt.peer_down(n)) continue;
      if (table[n] < victim_load) {
        victim = n;
        victim_load = table[n];
      }
    }
    if (victim == rt.self() || my < victim_load + cfg.imbalance_threshold)
      continue;
    // Move at most half the gap: shipping more inverts the imbalance, and
    // the two nodes then bounce the same threads back and forth.
    const uint64_t budget = std::min<uint64_t>(cfg.max_migrations_per_round,
                                               (my - victim_load) / 2);
    if (budget == 0) continue;

    // Collect migratable candidates: READY, not pinned, not the balancer.
    // A demoted thread is frozen and its descriptor PROT_NONE: skip it
    // before any field read.
    std::vector<marcel::ThreadId> candidates;
    sched.for_each([&](marcel::Thread* t) {
      if (rt.demoted_info(t, nullptr, nullptr)) return;
      if (t->state == marcel::ThreadState::kReady && !t->is_pinned())
        candidates.push_back(t->id);
    });
    uint32_t shipped = 0;
    for (marcel::ThreadId id : candidates) {
      if (shipped >= budget) break;
      if (rt.migrate(id, victim)) ++shipped;
    }
    if (shipped > 0) {
      // Optimistically account for the transfer on both sides so the next
      // round does not re-ship before fresh gossip arrives.
      rt.add_peer_load(victim, shipped);
      rt.broadcast_load();
    }
  }
}

}  // namespace

void LoadBalancer::start(Runtime& rt, const LoadBalancerConfig& config) {
  // Pinned thread: participates in scheduling but never migrates; exits by
  // itself when the session halts.
  Runtime* rtp = &rt;
  LoadBalancerConfig cfg = config;
  rt.spawn_local([rtp, cfg] { balancer_loop(*rtp, cfg); }, "load-balancer");
}

uint64_t LoadBalancer::migrations_triggered(Runtime& rt) {
  return rt.migrations_out();
}

}  // namespace pm2
