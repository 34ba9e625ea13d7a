// kv — a sharded key-value service on the typed RPC API, driven open-loop.
//
// Layout: 2 in-process nodes over the socket fabric (real UNIX sockets),
// 2 scheduler workers each.  16 shards, each owned by one migratable PM2
// thread whose table and values live in its own iso-heap.  A "kv" service
// on each node hands a request to the local owner through a node-local
// mailbox; when the owner has left, it answers "moved to node N" and the
// driver re-issues there.  Shards are rebalanced the paper's way: the owner
// thread migrates with its data, nothing is copied by the application.
//
// Traffic (YCSB-B): zipfian keys (theta 0.99) over 100k keys, values of
// 64 B - 1 KiB, 90% reads / 10% updates, sent on a fixed schedule at a
// fixed offered rate well below capacity; latency counts from each
// request's due time.  A capacity phase then steps the offered rate up a
// fixed ladder (no shard moves) to find the highest rate that meets the p99
// limit without a growing backlog.
#include <cinttypes>
#include <cstring>
#include <deque>
#include <memory>

#include "bench.hpp"
#include "common/check.hpp"
#include "madeleine/typed.hpp"
#include "marcel/sync.hpp"
#include "pm2/api.hpp"
#include "pm2/runtime.hpp"
#include "kv_model.hpp"

namespace perfbench {
namespace {

namespace mad = pm2::mad;

constexpr uint32_t kNodes = 2;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kShards = 16;
constexpr uint64_t kKeys = 100'000;
constexpr double kTheta = 0.99;
constexpr double kReadShare = 0.90;
// Offered rate of the measured phase: under a tenth of capacity, and with
// requests 100 us apart, below the comm daemon's 200 us busy-poll window
// (a rate near that edge flips run to run between polling and parking).
constexpr double kSteadyRate = 10000;
constexpr double kMovesPerSecond = 10;         // shard moves in the steady phase
// Capacity-phase p99 limit: above the few-ms host scheduling stalls a
// shared 4-vCPU VM shows at any rate, so the ladder finds queueing.
constexpr double kP99LimitUs = 20000;
constexpr uint64_t kTimeoutNs = 2'000'000'000; // per request
constexpr int kCollectors = 64;
// op_p50_us / op_p99_us: median over 0.5 s windows (~5,000 requests) of
// each window's percentile.
constexpr uint64_t kWindowNs = 500'000'000;
// Driver pacing: gaps longer than kSleepMinNs are slept (pm2_sleep_us)
// until kSleepMarginNs before the due time; the rest is yielded away.
constexpr uint64_t kSleepMinNs = 150'000;
constexpr uint64_t kSleepMarginNs = 100'000;
// Capacity ladder: offered rates kLadderStart * kLadderFactor^k up to
// kLadderTop, kStepS seconds each, judged on kStepWindowNs windows.
constexpr double kLadderStart = 30000;
constexpr double kLadderFactor = 1.3;
constexpr double kLadderTop = 400000;
constexpr double kStepS = 0.5;
constexpr uint64_t kStepWindowNs = 100'000'000;
constexpr int kBisections = 3;
constexpr uint64_t kMaxInflight = 4096;

enum Kind : uint32_t { kRead = 0, kUpdate = 1, kMove = 2, kStop = 3, kSweep = 4 };
enum Status : uint8_t { kOk = 0, kMoved = 1 };

struct KvArgs {
  uint64_t op;
  uint64_t key;
  uint64_t issue_ns;
  uint32_t shard;
  uint32_t kind;
  uint32_t version;
  uint32_t dest;  // kMove: where the owner goes
};

struct ReplyHdr {
  uint8_t status;
  uint8_t pad[3];
  uint32_t node;      // kMoved: where to go next
  uint32_t version;   // kRead/kUpdate: version returned / stored
  uint32_t pad2;
  uint64_t handler_exit_ns;
};

// --- node-local shard state (one per node per shard) ------------------------

struct Request {
  KvArgs a;
  const std::vector<uint8_t>* value;
  pm2::marcel::Promise<std::vector<uint8_t>> done;
  uint64_t enq_ns;
};

struct ShardSlot {
  std::mutex mu;
  std::deque<Request*> q;
  pm2::marcel::Semaphore sem{0};
  // 0 absent (hint says where), 1 arriving (queue until the owner lands),
  // 2 present.
  int state = 0;
  uint32_t hint = 0;
};

struct NodeState {
  ShardSlot shard[kShards];
};

struct Globals {
  NodeState node[kNodes];
  std::atomic<uint32_t> loaded{0};
  std::atomic<uint64_t> loaded_ns{0};  // when the last shard finished loading
  uint64_t seed = 1;
  std::vector<uint32_t> perm;  // zipf rank -> key
  SharedSamples shard_move_us;
};
Globals* g = nullptr;

uint32_t shard_of(uint64_t key) {
  return static_cast<uint32_t>(mix64(key ^ 0xA5A5A5A5ull) % kShards);
}

std::vector<uint8_t> make_reply(uint8_t status, uint32_t node, uint32_t version,
                                const uint8_t* val, size_t len) {
  std::vector<uint8_t> out(sizeof(ReplyHdr) + len);
  ReplyHdr h{};
  h.status = status;
  h.node = node;
  h.version = version;
  std::memcpy(out.data(), &h, sizeof h);
  if (len != 0) std::memcpy(out.data() + sizeof h, val, len);
  return out;
}

// --- shard owner: table in its own iso-heap -----------------------------------

struct Entry {
  uint64_t key;
  uint32_t version;
  uint32_t len;
  uint8_t* val;
};

/// Open-addressing table in the owner's iso-heap, split into segments that
/// each fit one slot: a multi-slot block would run a global negotiation
/// per owner at set-up, which at 2 workers over the socket fabric corrupts
/// iso memory today (see perfbench/README.md, "Known runtime defect").
struct Table {
  static constexpr uint64_t kSegEntries = 1024;  // 24 KiB per segment
  static constexpr uint64_t kMaxSegs = 16;
  uint64_t cap;  // power of two, at most kSegEntries * kMaxSegs
  Entry* seg[kMaxSegs];

  Entry& at(uint64_t i) { return seg[i / kSegEntries][i % kSegEntries]; }
  Entry* find(uint64_t key) {
    for (uint64_t i = mix64(key) & (cap - 1);; i = (i + 1) & (cap - 1)) {
      Entry& e = at(i);
      if (e.val == nullptr || e.key == key) return &e;
    }
  }
};

void store_value(Entry* en, uint64_t key, uint32_t version, const uint8_t* src,
                 uint64_t op) {
  uint32_t len = value_len(g->seed, key, version);
  if (en->val != nullptr) {
    uint64_t t0 = now_ns();
    pm2::pm2_isofree(en->val);
    Tracer::get().span(op, t0, now_ns(), "iso.free", Layer::kIsomalloc);
  }
  uint64_t t0 = now_ns();
  en->val = static_cast<uint8_t*>(pm2::pm2_isomalloc(len));
  Tracer::get().span(op, t0, now_ns(), "iso.alloc", Layer::kIsomalloc);
  if (src != nullptr) {
    std::memcpy(en->val, src, len);
  } else {
    fill_value(g->seed, key, version, en->val);
  }
  en->key = key;
  en->version = version;
  en->len = len;
}

std::vector<uint8_t> serve(Table& t, const Request& r) {
  const uint32_t self = pm2::pm2_self();
  Entry* en = t.find(r.a.key);
  if (r.a.kind == kRead) {
    if (en->val == nullptr) return make_reply(kOk, self, 0, nullptr, 0);
    return make_reply(kOk, self, en->version, en->val, en->len);
  }
  // Update: last writer by version wins, so reordered updates converge.
  if (en->val == nullptr || r.a.version > en->version)
    store_value(en, r.a.key, r.a.version, r.value->data(), r.a.op);
  return make_reply(kOk, self, en->version, nullptr, 0);
}

// Sweep: verify every stored value's bytes here, return (key, version).
std::vector<uint8_t> sweep(Table& t) {
  std::vector<uint64_t> kv;
  for (uint64_t i = 0; i < t.cap; ++i) {
    const Entry& en = t.at(i);
    if (en.val == nullptr) continue;
    uint64_t key = 0;
    uint32_t ver = 0;
    bool ok = check_value(g->seed, en.val, en.len, &key, &ver) &&
              key == en.key && ver == en.version;
    kv.push_back(en.key);
    kv.push_back(ok ? en.version : UINT32_MAX);
  }
  return make_reply(kOk, pm2::pm2_self(), 0,
                    reinterpret_cast<const uint8_t*>(kv.data()),
                    kv.size() * sizeof(uint64_t));
}

/// Complete a mailbox request.  The promise is copied first: once it is
/// set, the waiting handler may return and free `r` (it lives on the
/// handler's stack) while set_value is still running.
void reply(Request* r, std::vector<uint8_t> v) {
  auto done = r->done;
  done.set_value(std::move(v));
}

void owner_main(void* arg) {
  const auto shard = static_cast<uint32_t>(reinterpret_cast<uintptr_t>(arg));
  // Preload: every key of this shard at version 1.
  uint64_t n = 0;
  for (uint64_t k = 0; k < kKeys; ++k) n += shard_of(k) == shard;
  Table t{};
  t.cap = 1;
  while (t.cap < 2 * n) t.cap <<= 1;
  PM2_CHECK(t.cap <= Table::kSegEntries * Table::kMaxSegs);
  for (uint64_t s = 0; s * Table::kSegEntries < t.cap; ++s)
    t.seg[s] = static_cast<Entry*>(
        pm2::pm2_isocalloc(Table::kSegEntries, sizeof(Entry)));
  for (uint64_t k = 0; k < kKeys; ++k)
    if (shard_of(k) == shard) store_value(t.find(k), k, 1, nullptr, 0);
  {
    ShardSlot& s = g->node[pm2::pm2_self()].shard[shard];
    std::lock_guard<std::mutex> lk(s.mu);
    s.state = 2;
  }
  // The last loader stamps the end of set-up (not the poller that notices).
  if (g->loaded.fetch_add(1) + 1 == kShards) g->loaded_ns = now_ns();

  while (true) {
    ShardSlot& s = g->node[pm2::pm2_self()].shard[shard];
    s.sem.acquire();
    Request* r = nullptr;
    {
      std::lock_guard<std::mutex> lk(s.mu);
      if (s.q.empty()) continue;  // stale count left from an earlier stay
      r = s.q.front();
      s.q.pop_front();
    }
    const uint64_t pickup = now_ns();
    Tracer::get().span(r->a.op, r->enq_ns, pickup, "marcel.mailbox_wake",
                       Layer::kMarcel, SpanKind::kWait);
    if (r->a.kind == kStop) {
      reply(r, make_reply(kOk, pm2::pm2_self(), 0, nullptr, 0));
      break;
    }
    if (r->a.kind == kSweep) {
      reply(r, sweep(t));
      continue;
    }
    if (r->a.kind != kMove) {
      reply(r, serve(t, *r));
      continue;
    }
    // Move: have the destination queue our requests, stop accepting here,
    // serve what is already queued, then migrate with the whole table.
    const uint32_t dest = r->a.dest;
    const uint64_t issued = r->a.issue_ns;
    pm2::call<int>(dest, "kv_expect", shard);
    std::deque<Request*> backlog;
    {
      std::lock_guard<std::mutex> lk(s.mu);
      s.state = 0;
      s.hint = dest;
      backlog.swap(s.q);
    }
    reply(r, make_reply(kOk, pm2::pm2_self(), 0, nullptr, 0));
    for (Request* b : backlog) {
      if (b->a.kind == kRead || b->a.kind == kUpdate) {
        reply(b, serve(t, *b));
      } else {
        // Control requests are re-routed by their sender.
        reply(b, make_reply(kMoved, dest, 0, nullptr, 0));
      }
    }
    const uint64_t t_mig = now_ns();
    pm2::pm2_migrate(pm2::marcel_self(), dest);
    const uint64_t landed = now_ns();
    Tracer::get().span(issued, t_mig, landed, "mig.shard_transit",
                       Layer::kMigration, SpanKind::kWait);
    {
      ShardSlot& d = g->node[pm2::pm2_self()].shard[shard];
      std::lock_guard<std::mutex> lk(d.mu);
      d.state = 2;
    }
    g->shard_move_us.add(static_cast<double>(landed - issued) / 1e3);
  }
  for (uint64_t i = 0; i < t.cap; ++i)
    if (t.at(i).val != nullptr) pm2::pm2_isofree(t.at(i).val);
  for (uint64_t s = 0; s * Table::kSegEntries < t.cap; ++s)
    pm2::pm2_isofree(t.seg[s]);
  pm2::pm2_signal(0);
}

void register_services(pm2::Runtime& rt) {
  const uint32_t self = rt.self();
  rt.service("kv_expect", [self](pm2::RpcContext&, uint32_t shard) -> int {
    ShardSlot& s = g->node[self].shard[shard];
    std::lock_guard<std::mutex> lk(s.mu);
    s.state = 1;
    return 0;
  });
  rt.service("kv", [self](pm2::RpcContext&, KvArgs a,
                          std::vector<uint8_t> value) -> std::vector<uint8_t> {
    const uint64_t entry = now_ns();
    Tracer::get().span(a.op, a.issue_ns, entry, "rpc.request_leg", Layer::kRpc,
                       SpanKind::kWait);
    ShardSlot& s = g->node[self].shard[a.shard];
    Request r{a, &value, {}, 0};
    {
      std::lock_guard<std::mutex> lk(s.mu);
      if (s.state == 0) {
        std::vector<uint8_t> out = make_reply(kMoved, s.hint, 0, nullptr, 0);
        const uint64_t exit = now_ns();
        reinterpret_cast<ReplyHdr*>(out.data())->handler_exit_ns = exit;
        Tracer::get().span(a.op, entry, exit, "rpc.handler", Layer::kRpc);
        return out;
      }
      r.enq_ns = now_ns();
      s.q.push_back(&r);
    }
    s.sem.release();
    auto fut = r.done.future();
    std::vector<uint8_t> out = fut.take();
    const uint64_t exit = now_ns();
    reinterpret_cast<ReplyHdr*>(out.data())->handler_exit_ns = exit;
    Tracer::get().span(a.op, entry, exit, "rpc.handler", Layer::kRpc);
    return out;
  });
}

// --- driver ----------------------------------------------------------------

struct Inflight {
  KvArgs a;
  uint64_t index;  // position in the phase's send schedule
  uint32_t lo;  // reads: last version acknowledged when issued
  uint32_t node;
  uint64_t first_issue_ns = 0;
  std::vector<uint8_t> value;  // updates
  pm2::marcel::Future<std::vector<uint8_t>> fut;
};

/// One measured phase (steady or one ladder step).
struct Phase {
  OpenLoop sched{0, 1};
  TimedSamples lat;  // by due time
  std::atomic<uint64_t> issued{0}, done{0}, failed{0}, redirects{0};
  uint64_t start_ns = 0, end_ns = 0;
  uint64_t last_done_ns = 0;
  bool overloaded = false;  // stopped at kMaxInflight outstanding requests
  uint64_t outstanding_at_end = 0;
  std::mutex mu;
};

class Driver {
 public:
  /// Op ids start at `first_op`, so spans of different sessions never
  /// share an id.
  Driver(pm2::Runtime& rt, KvModel& model, Result& res, uint64_t first_op)
      : rt_(rt), model_(model), res_(res), next_op_(first_op) {}

  void start_collectors() {
    for (int i = 0; i < kCollectors; ++i)
      rt_.spawn_local([this] { collect_loop(); }, "kv-collect");
  }
  void stop_collectors() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    for (int i = 0; i < kCollectors; ++i) sem_.release();
    while (live_.load() != 0) pm2::pm2_sleep_us(200);
  }

  /// Issue requests at `rate`/s for `seconds`, with shard moves when
  /// `moves`, and wait for every reply.
  void run_phase(Phase& ph, Rng& rng, const Zipf& zipf, double rate,
                 double seconds, bool moves, Samples* late_us) {
    phase_ = &ph;
    const auto n = static_cast<uint64_t>(rate * seconds);
    ph.start_ns = now_ns() + 1'000'000;
    ph.sched = OpenLoop{ph.start_ns, static_cast<uint64_t>(1e9 / rate)};
    const uint64_t end = ph.sched.due(n);
    const uint64_t move_seed = rng.next();
    if (moves) {
      moving_ = 1;
      rt_.spawn_local([this, &ph, end, move_seed] { move_loop(ph, end, move_seed); },
                      "kv-mover");
    }
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t due = ph.sched.due(i);
      uint64_t now = now_ns();
      // Sleep through most of a long gap, then yield up to the due time:
      // a request is never sent early, and one sent late is charged from
      // its due time.
      if (due > now + kSleepMinNs) {
        const uint64_t wake_at = due - kSleepMarginNs;
        pm2::pm2_sleep_us((wake_at - now) / 1000);
        const uint64_t woke = now_ns();
        Tracer::get().span(next_op_.load(), wake_at, std::max(wake_at, woke),
                           "marcel.timer_late", Layer::kMarcel,
                           SpanKind::kWait);
      }
      while ((now = now_ns()) < due) pm2::pm2_yield();
      if (late_us != nullptr)
        late_us->add(now > due ? static_cast<double>(now - due) / 1e3 : 0.0);
      // Overload: stop feeding a backlog that only grows (every queued
      // request holds a service thread and its stack slot on the server).
      if (ph.issued.load() - ph.done.load() - ph.failed.load() > kMaxInflight) {
        ph.overloaded = true;
        break;
      }
      issue_request(rng, zipf, i);
    }
    ph.end_ns = now_ns();
    ph.outstanding_at_end =
        ph.issued.load() - ph.done.load() - ph.failed.load();
    // Drain: every request completes (or fails) before the phase ends.
    while (ph.done.load() + ph.failed.load() < ph.issued.load())
      pm2::pm2_sleep_us(500);
    while (moving_.load() != 0) pm2::pm2_sleep_us(500);
  }

  void set_hint(uint32_t shard, uint32_t node) { hint_[shard] = node; }

  /// Blocking control request to a shard owner, following redirects.
  std::vector<uint8_t> control(uint32_t shard, uint32_t kind, uint32_t dest) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      KvArgs a{next_op_.fetch_add(1), 0, now_ns(), shard, kind, 0, dest};
      auto raw = pack_and_call(a, {}, hint_[shard]).take();
      mad::UnpackBuffer u(raw.data(), raw.size());
      auto out = mad::unpack_value<std::vector<uint8_t>>(u);
      ReplyHdr h;
      std::memcpy(&h, out.data(), sizeof h);
      if (h.status == kMoved) {
        hint_[shard] = h.node;
        continue;
      }
      return out;
    }
    PM2_CHECK(false) << "control request to shard " << shard << " bounced";
    return {};
  }

 private:
  pm2::marcel::Future<std::vector<uint8_t>> pack_and_call(
      const KvArgs& a, const std::vector<uint8_t>& value, uint32_t node) {
    const uint64_t t0 = now_ns();
    mad::PackBuffer pb;
    mad::pack_values(pb, a, value);
    const uint64_t t1 = now_ns();
    auto fut = rt_.call_async(node, "kv", std::move(pb), kTimeoutNs);
    const uint64_t t2 = now_ns();
    Tracer::get().span(a.op, t0, t1, "mad.pack", Layer::kMadeleine);
    Tracer::get().span(a.op, t1, t2, "rpc.issue", Layer::kRpc);
    return fut;
  }

  void issue_request(Rng& rng, const Zipf& zipf, uint64_t index) {
    auto* f = new Inflight();
    f->index = index;
    f->a.op = next_op_.fetch_add(1);
    f->a.key = g->perm[zipf.sample(rng)];
    f->a.shard = shard_of(f->a.key);
    f->a.kind = rng.unit() < kReadShare ? kRead : kUpdate;
    if (f->a.kind == kUpdate) {
      f->a.version = model_.issue_update(f->a.key);
      f->value.resize(value_len(g->seed, f->a.key, f->a.version));
      fill_value(g->seed, f->a.key, f->a.version, f->value.data());
    } else {
      f->lo = model_.read_floor(f->a.key);
    }
    f->node = hint_[f->a.shard];
    send(f);
    phase_->issued.fetch_add(1);
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(f);
    }
    sem_.release();
  }

  void send(Inflight* f) {
    f->a.issue_ns = now_ns();
    if (f->first_issue_ns == 0) f->first_issue_ns = f->a.issue_ns;
    f->fut = pack_and_call(f->a, f->value, f->node);
  }

  /// Shard moves on a seeded schedule until `end`: sleep (pm2_sleep_us)
  /// to each move time, then move a seeded shard to the other node.  The
  /// sleeps' overshoot is the marcel timer lateness the trace reports.
  void move_loop(Phase& ph, uint64_t end, uint64_t seed) {
    Rng rng(seed);
    uint64_t next = ph.start_ns;
    // Every shard moves once per cycle of kShards moves, in a seeded order:
    // the share of traffic a move stalls does not hang on which shards a
    // run happens to draw.
    uint32_t order[kShards];
    for (uint32_t i = 0; i < kShards; ++i) order[i] = i;
    for (uint32_t n = 0;; ++n) {
      if (n % kShards == 0)
        for (uint32_t i = kShards - 1; i > 0; --i)
          std::swap(order[i], order[rng.below(i + 1)]);
      next += static_cast<uint64_t>(1e9 / kMovesPerSecond * (0.5 + rng.unit()));
      if (next >= end) break;
      const uint64_t now = now_ns();
      if (next > now) {
        pm2::pm2_sleep_us((next - now) / 1000);
        Tracer::get().span(next_op_.load(), next, std::max(next, now_ns()),
                           "marcel.timer_late", Layer::kMarcel,
                           SpanKind::kWait);
      }
      const uint32_t shard = order[n % kShards];
      const uint32_t dest = (hint_[shard] + 1) % kNodes;
      control(shard, kMove, dest);
      hint_[shard] = dest;
    }
    moving_ = 0;
  }

  void collect_loop() {
    live_.fetch_add(1);
    while (true) {
      sem_.acquire();
      Inflight* f = nullptr;
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (queue_.empty()) {
          if (stopping_) break;
          continue;
        }
        f = queue_.front();
        queue_.pop_front();
      }
      complete(f);
    }
    live_.fetch_sub(1);
  }

  void complete(Inflight* f) {
    Phase& ph = *phase_;
    for (int attempt = 0;; ++attempt) {
      f->fut.wait();
      const uint64_t resumed = now_ns();
      if (f->fut.failed()) {
        // A failed update may or may not have landed: its version stays
        // allowed (it was issued) but never becomes required (acknowledged).
        {
          std::lock_guard<std::mutex> lk(ph.mu);
          if (ph.failed.load() < 3) res_.note("kv_failure", f->fut.error());
        }
        ph.failed.fetch_add(1);  // last touch of `ph`: the phase may end now
        break;
      }
      std::vector<uint8_t> raw = f->fut.take();
      const uint64_t u0 = now_ns();
      mad::UnpackBuffer u(raw.data(), raw.size());
      auto out = mad::unpack_value<std::vector<uint8_t>>(u);
      const uint64_t u1 = now_ns();
      ReplyHdr h;
      PM2_CHECK(out.size() >= sizeof h);
      std::memcpy(&h, out.data(), sizeof h);
      Tracer& tr = Tracer::get();
      tr.span(f->a.op, h.handler_exit_ns, resumed, "rpc.reply_leg",
              Layer::kRpc, SpanKind::kWait);
      tr.span(f->a.op, u0, u1, "mad.unpack", Layer::kMadeleine);
      if (h.status == kMoved && attempt < 16) {
        ph.redirects.fetch_add(1);
        hint_[f->a.shard] = h.node;
        f->node = h.node;
        send(f);
        continue;
      }
      PM2_CHECK(h.status == kOk) << "request bounced 16 times";
      const uint8_t* val = out.data() + sizeof h;
      const size_t len = out.size() - sizeof h;
      std::string err = f->a.kind == kRead
                            ? model_.check_read(f->a.key, f->lo, val, len)
                            : model_.ack_update(f->a.key, f->a.version,
                                                h.version);
      if (!err.empty()) {
        std::lock_guard<std::mutex> lk(ph.mu);
        res_.fail(err);
      }
      const uint64_t done = now_ns();
      const uint64_t due = ph.sched.due(f->index);
      tr.root(f->a.op, due, done, "kv.request");
      tr.span(f->a.op, due, std::max(due, f->first_issue_ns),
              "driver.late", Layer::kDriver, SpanKind::kWait);
      {
        std::lock_guard<std::mutex> lk(ph.mu);
        ph.lat.add(due, ph.sched.latency_us(f->index, done));
        ph.last_done_ns = std::max(ph.last_done_ns, done);
      }
      ph.done.fetch_add(1);
      break;
    }
    delete f;
  }

  pm2::Runtime& rt_;
  KvModel& model_;
  Result& res_;
  Phase* phase_ = nullptr;
  std::atomic<uint64_t> next_op_;
  std::atomic<uint32_t> hint_[kShards] = {};
  std::atomic<int> moving_{0};

  std::mutex mu_;
  std::deque<Inflight*> queue_;
  bool stopping_ = false;
  pm2::marcel::Semaphore sem_{0};
  std::atomic<int> live_{0};
};

pm2::Runtime* g_rt[kNodes];

Counters sample_counters() {
  Counters c;
  for (pm2::Runtime* rt : g_rt) add_runtime_counters(c, *rt);
  add_pool_counters(c);
  return c;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// One capacity step at `rate`, retried once (a single host stall must not
/// end the search).  Returns the achieved completion rate, or 0 when the
/// rate missed the p99 limit, left a growing backlog or lost requests.
double capacity_step(Driver& drv, Rng& rng, const Zipf& zipf, double rate,
                     Result& res) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    Phase ph;
    drv.run_phase(ph, rng, zipf, rate, kStepS, false, nullptr);
    res.attempted += ph.issued;
    res.failed += ph.failed;
    // Median of the step's 100 ms windows' p99: one stall of the host
    // does not fail a rate the system sustains.
    const double p99 = percentile(ph.lat.per_window(0.99, kStepWindowNs), 0.5);
    const double achieved =
        static_cast<double>(ph.done.load()) /
        (static_cast<double>(ph.last_done_ns - ph.start_ns) / 1e9);
    // No growing backlog: when the last request goes out, no more are
    // outstanding than the latency limit's worth of offered load.
    const bool backlog = static_cast<double>(ph.outstanding_at_end) >
                         rate * kP99LimitUs / 1e6;
    char line[160];
    std::snprintf(line, sizeof line,
                  "offered=%.0f achieved=%.0f p50_us=%.1f p99_us=%.1f "
                  "backlog=%d",
                  rate, achieved, ph.lat.all(0.5), p99, backlog ? 1 : 0);
    res.note("kv_ladder", line);
    if (p99 <= kP99LimitUs && !backlog && !ph.overloaded && ph.failed == 0)
      return achieved;
  }
  return 0;
}

/// One capacity search, no shard moves: climb the ladder until a rate
/// fails, then bisect (in log space) between the last passing and the
/// failing rate until `end`.  Returns the achieved rate of the highest
/// passing step.
double capacity_search(Driver& drv, Rng& rng, const Zipf& zipf, uint64_t end,
                       Result& res) {
  double best = 0, lo = 0, hi = 0;
  for (double rate = kLadderStart; rate <= kLadderTop && now_ns() < end;
       rate *= kLadderFactor) {
    const double a = capacity_step(drv, rng, zipf, rate, res);
    if (a == 0) {
      hi = rate;
      break;
    }
    best = a;
    lo = rate;
  }
  for (int i = 0; i < kBisections && lo > 0 && hi > 0 && now_ns() < end; ++i) {
    const double mid = std::sqrt(lo * hi);
    const double a = capacity_step(drv, rng, zipf, mid, res);
    if (a == 0) {
      hi = mid;
    } else {
      lo = mid;
      best = a;
    }
  }
  res.note("kv_capacity_offered", std::to_string(lo));
  return best;
}

/// The capacity phase: two searches, each with half of `seconds`; the
/// better one counts, so a host stall that fails a step in one search
/// does not decide the run.
double capacity(Driver& drv, Rng& rng, const Zipf& zipf, double seconds,
                Result& res) {
  const uint64_t start = now_ns();
  double best = 0;
  for (int search = 1; search <= 2; ++search) {
    const uint64_t end = start + static_cast<uint64_t>(seconds * search / 2 * 1e9);
    best = std::max(best, capacity_search(drv, rng, zipf, end, res));
  }
  return best;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

// Time plan, as shares of --seconds.  Every session warms up for
// kWarmShare and measures the steady rate for kSteadyShare (untraced runs)
// or runs kCalmShare untraced then kTracedShare traced; the last untraced
// session then runs the capacity phase for the rest.
constexpr double kCapacityShare = 0.45;
constexpr double kSteadyShare = (1 - kCapacityShare) / kSessions - kWarmShare;
constexpr double kCalmShare = (1.0 / kSessions - kWarmShare) / 3;
constexpr double kTracedShare = 2 * kCalmShare;

Result run_kv(const Options& opt) {
  Result res;
  Globals globals;
  g = &globals;
  g->seed = opt.seed;
  {
    Rng prng(opt.seed ^ 0x6b76ull);
    g->perm.resize(kKeys);
    for (uint64_t i = 0; i < kKeys; ++i) g->perm[i] = static_cast<uint32_t>(i);
    for (uint64_t i = kKeys - 1; i > 0; --i)
      std::swap(g->perm[i], g->perm[prng.below(i + 1)]);
  }
  const Zipf zipf(kKeys, kTheta);
  Samples setup_s, late_us;
  // Per-window percentiles pooled over every session.
  std::vector<double> p50s, p99s, calm_p50s, traced_p50s;
  Counters traced_counters;
  uint64_t traced_ops = 0, redirects = 0;
  double steady_rss = 0, ops_s = 0;

  for (int session = 0; session < kSessions; ++session) {
    const bool last = session + 1 == kSessions;
    for (auto& n : g->node)
      for (auto& s : n.shard) {
        s.q.clear();
        s.state = 0;
      }
    g->loaded = 0;
    SessionConfig cfg;
    cfg.nodes = kNodes;
    cfg.workers = kWorkers;
    cfg.socket_fabric = true;
    cfg.socket_dir = opt.run_dir + "/sock";
    const uint64_t t_begin = now_ns();
    run_session(
        cfg,
        [&](pm2::Runtime& rt) {
          const uint32_t self = rt.self();
          for (uint32_t s = 0; s < kShards; ++s)
            if (s % kNodes == self)
              pm2::pm2_thread_create(owner_main,
                                     reinterpret_cast<void*>(uintptr_t{s}),
                                     "kv-owner");
          if (self != 0) return;
          while (g->loaded_ns.load() < t_begin) pm2::pm2_sleep_us(200);
          setup_s.add(static_cast<double>(g->loaded_ns.load() - t_begin) / 1e9);

          KvModel model(kKeys, opt.seed);
          Driver drv(rt, model, res, (uint64_t{1} + session) << 40);
          for (uint32_t s = 0; s < kShards; ++s) drv.set_hint(s, s % kNodes);
          drv.start_collectors();
          Rng rng(mix64(opt.seed) + static_cast<uint64_t>(session));
          auto phase = [&](Phase& ph, double share, Samples* late) {
            drv.run_phase(ph, rng, zipf, kSteadyRate, opt.seconds * share, true,
                          late);
            res.attempted += ph.issued;
            res.failed += ph.failed;
          };
          // Warm-up: pools, caches and the first moves, not measured.
          Phase warm;
          phase(warm, kWarmShare, nullptr);
          if (!opt.trace) {
            Phase steady;
            phase(steady, kSteadyShare, &late_us);
            append(p50s, steady.lat.per_window(0.50, kWindowNs));
            append(p99s, steady.lat.per_window(0.99, kWindowNs));
            if (last) {
              // The capacity phase's overload backlog is not steady-state
              // memory: peak RSS is taken before it.
              steady_rss = peak_rss_mb();
              ops_s = capacity(drv, rng, zipf, opt.seconds * kCapacityShare,
                               res);
            }
          } else {
            // Untraced, then traced: the difference is the tracing
            // overhead on op_p50_us.
            Phase calm;
            phase(calm, kCalmShare, nullptr);
            append(calm_p50s, calm.lat.per_window(0.50, kWindowNs));
            const Counters c0 = sample_counters();
            Tracer::get().set_on(true);
            Phase traced;
            phase(traced, kTracedShare, &late_us);
            Tracer::get().set_on(false);
            traced_counters += sample_counters() - c0;
            traced_ops += traced.done.load();
            redirects += traced.redirects.load();
            append(traced_p50s, traced.lat.per_window(0.50, kWindowNs));
          }
          drv.stop_collectors();
          // Final sweep: every key's version and bytes against the model.
          for (uint32_t s = 0; s < kShards; ++s) {
            std::vector<uint8_t> out = drv.control(s, kSweep, 0);
            const size_t n = (out.size() - sizeof(ReplyHdr)) / 16;
            for (size_t i = 0; i < n; ++i) {
              uint64_t kv[2];
              std::memcpy(kv, out.data() + sizeof(ReplyHdr) + 16 * i, 16);
              std::string err = model.check_final(kv[0], kv[1]);
              if (!err.empty()) res.fail(err);
            }
            model.count_swept(n);
          }
          if (model.swept() != kKeys)
            res.fail("final sweep saw " + std::to_string(model.swept()) +
                     " keys, expected " + std::to_string(kKeys));
          for (uint32_t s = 0; s < kShards; ++s) drv.control(s, kStop, 0);
          pm2::pm2_wait_signals(kShards);
        },
        [&](pm2::Runtime& rt) {
          g_rt[rt.self()] = &rt;
          for (uint32_t s = 0; s < kShards; ++s) {
            ShardSlot& slot = g->node[rt.self()].shard[s];
            slot.state = s % kNodes == rt.self() ? 1 : 0;
            slot.hint = s % kNodes;
          }
          register_services(rt);
        });
  }
  res.e2e("setup_s", setup_s.p(0.5), "s");
  if (!opt.trace) {
    res.e2e("op_p50_us", percentile(p50s, 0.5), "us");
    res.e2e("op_p99_us", percentile(p99s, 0.5), "us");
    res.e2e("ops_s", ops_s, "op/s");
    res.e2e("peak_rss_mb", steady_rss, "MiB");
    res.note("kv_windows", std::to_string(p50s.size()));
    res.note("driver_late_us_p99", std::to_string(late_us.p(0.99)));
  } else {
    const auto ops = static_cast<double>(traced_ops);
    report_counters(res, traced_counters, ops);
    res.layer("pm2.rpc.redirect_ratio", ratio(static_cast<double>(redirects), ops),
              "ratio");
    res.layer("pm2.migration.shard_move_us_p50", g->shard_move_us.s.p(0.5),
              "us");
    res.layer("driver.late_us_p99", late_us.p(0.99), "us");
    finish_trace(res, opt, percentile(traced_p50s, 0.5),
                 percentile(calm_p50s, 0.5));
  }
  res.note("kv_shard_moves", std::to_string(g->shard_move_us.s.size()));
  res.note("layout", "2 nodes x 2 workers, socket fabric (UNIX sockets)");
  res.note("kv_offered_rate", std::to_string(kSteadyRate));
  res.note("kv_p99_limit_us", std::to_string(kP99LimitUs));
  g = nullptr;
  return res;
}

}  // namespace perfbench
