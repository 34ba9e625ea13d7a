#include "pm2/migration.hpp"

#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
#include "isomalloc/block.hpp"
#include "isomalloc/heap.hpp"
#include "madeleine/buffers.hpp"
#include "pm2/protocol.hpp"
#include "pm2/runtime.hpp"
#include "sys/sanitizer.hpp"

namespace pm2 {

namespace {

struct Extent {
  uint64_t offset;  // from the slot-run base
  uint64_t len;
};

/// Append an extent, merging with the previous one when contiguous.
void push_extent(std::vector<Extent>& v, uint64_t offset, uint64_t len) {
  if (len == 0) return;
  if (!v.empty() && v.back().offset + v.back().len == offset) {
    v.back().len += len;
    return;
  }
  v.push_back(Extent{offset, len});
}

/// Live extents of one slot run.  `base` is the run's first byte.
std::vector<Extent> live_extents(iso::SlotHeader* slot, size_t slot_size,
                                 const marcel::Thread* t) {
  std::vector<Extent> extents;
  auto base = reinterpret_cast<uintptr_t>(slot);
  if (slot->kind == iso::SlotKind::kStack) {
    // Slot header + padding + descriptor + stack canary…
    auto canary_end = reinterpret_cast<uintptr_t>(t->stack_base) + 8;
    push_extent(extents, 0, canary_end - base);
    // …then only the live part of the stack: [sp, stack_top).
    auto sp = reinterpret_cast<uintptr_t>(t->sp);
    auto top = reinterpret_cast<uintptr_t>(t->stack_top);
    PM2_CHECK(sp >= canary_end && sp <= top) << "saved sp outside stack";
    push_extent(extents, sp - base, top - sp);
  } else {
    push_extent(extents, 0, sizeof(iso::SlotHeader));
    iso::for_each_block(slot, slot_size, [&](iso::BlockHeader* b) {
      auto off = reinterpret_cast<uintptr_t>(b) - base;
      // Headers always travel (they carry the free-list and physical
      // chaining); payload bytes only for busy blocks.
      uint64_t len = b->free ? sizeof(iso::BlockHeader) : b->size;
      push_extent(extents, off, len);
    });
  }
  return extents;
}

std::vector<Extent> full_extent(iso::SlotHeader* slot, size_t slot_size) {
  return {Extent{0, uint64_t{slot->nslots} * slot_size}};
}

/// Shared payload walker: the wire format parsed in exactly one place.
/// `on_run` may return a scatter base (the committed run's first byte) to
/// have extents copied in, or nullptr to skip the bytes (metadata scans).
template <typename OnRun>
void walk_payload(mad::UnpackBuffer& unpack, uint64_t* desc_addr,
                  const OnRun& on_run) {
  auto desc = unpack.unpack<uint64_t>();
  if (desc_addr != nullptr) *desc_addr = desc;
  unpack.unpack<uint8_t>();  // mode: self-describing via extents
  auto n_runs = unpack.unpack<uint32_t>();
  for (uint32_t i = 0; i < n_runs; ++i) {
    auto first = unpack.unpack<uint64_t>();
    auto nslots = unpack.unpack<uint32_t>();
    unpack.unpack<uint32_t>();  // kind (informational)
    char* base = on_run(static_cast<size_t>(first), nslots);
    auto n_extents = unpack.unpack<uint32_t>();
    for (uint32_t e = 0; e < n_extents; ++e) {
      auto offset = unpack.unpack<uint64_t>();
      auto len = unpack.unpack<uint64_t>();
      if (base != nullptr) {
        unpack.unpack_bytes(base + offset, len);
      } else {
        unpack.skip(len);
      }
    }
  }
}

}  // namespace

mad::BufferChain pack_thread_chain(Runtime& rt, marcel::Thread* t,
                                   bool blocks_only) {
  PM2_CHECK(t->slot_list != nullptr) << "thread without slots";
  const size_t slot_size = rt.area().slot_size();

  // Count slot runs first.
  uint32_t n_runs = 0;
  iso::ThreadHeap::for_each_slot(t->slot_list,
                                 [&](iso::SlotHeader*) { ++n_runs; });

  mad::PackBuffer pack(1024);
  pack.pack<uint64_t>(reinterpret_cast<uint64_t>(t));
  pack.pack<uint8_t>(blocks_only ? 1 : 0);
  pack.pack<uint32_t>(n_runs);

  iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* slot) {
    auto base = reinterpret_cast<const char*>(slot);
    pack.pack<uint64_t>(rt.area().slot_of(slot));
    pack.pack<uint32_t>(slot->nslots);
    pack.pack<uint32_t>(static_cast<uint32_t>(slot->kind));
    std::vector<Extent> extents = blocks_only
                                      ? live_extents(slot, slot_size, t)
                                      : full_extent(slot, slot_size);
    pack.pack<uint32_t>(static_cast<uint32_t>(extents.size()));
    for (const Extent& e : extents) {
      pack.pack<uint64_t>(e.offset);
      pack.pack<uint64_t>(e.len);
      // A live stack extent carries redzone poison from the frozen
      // thread's frames; scrub it so the fabric may read the borrowed
      // bytes.  Shadow is node-local and never ships — the install side
      // starts the copy with clean shadow too, which is the only safe
      // reconstruction (new frames re-poison as they are pushed).
      sys::san_unpoison(base + e.offset, e.len);
      // Borrow: the extent segment points straight into iso-address slot
      // memory; the fabric gathers it from there to the wire.  The slots
      // stay committed until ship_thread's send() returns.
      pack.pack_bytes(base + e.offset, e.len, mad::PackMode::kBorrow);
    }
  });
  return pack.take_chain();
}

std::vector<uint8_t> pack_thread(Runtime& rt, marcel::Thread* t,
                                 bool blocks_only) {
  return pack_thread_chain(rt, t, blocks_only).take_flat();
}

size_t migration_payload_size(Runtime& rt, marcel::Thread* t,
                              bool blocks_only) {
  return pack_thread_chain(rt, t, blocks_only).size();
}

void ship_thread(Runtime& rt, marcel::Thread* t, uint32_t dest,
                 uint64_t ack_corr) {
  PM2_CHECK(dest != rt.self());
  // Demoted runs fault back through the store before any descriptor field
  // (including t->id below) is readable; the pack walk needs the bytes hot
  // anyway.  The thread's directory record — if a demotion or checkpoint
  // left one — no longer describes slots this node owns once the thread
  // ships, so a crash restart here must not resurrect it.
  rt.ensure_resident(t);
  PM2_TRACE << "shipping thread " << t->id << " to node " << dest;
  if (auto* store = rt.slot_store()) store->erase_thread(t->id);

  // Observer hook (pm2_set_pre_migration_func): the thread is frozen but
  // still entirely resident — the hook may inspect it, not unfreeze it.
  if (rt.pre_migration_hook()) rt.pre_migration_hook()(t);

  mad::BufferChain chain =
      pack_thread_chain(rt, t, rt.config().migrate_blocks_only);

  // Record the runs before the descriptor becomes unreachable.
  std::vector<std::pair<size_t, size_t>> runs;
  iso::ThreadHeap::for_each_slot(t->slot_list, [&](iso::SlotHeader* slot) {
    runs.emplace_back(rt.area().slot_of(slot), slot->nslots);
  });

  // keep_fiber: an in-process install (hub fabric, or socket nodes sharing
  // the process) adopts the byte-copied stack on its original TSan fiber.
  rt.sched().forget(t, /*keep_fiber=*/true);

  // Gather straight from the (still committed) slots to the wire.  By the
  // time fabric_send() returns the borrowed extents have been written out
  // (socket fabric), taken over (in-process hub), or flattened into an
  // owned outbox copy (deferred send from a non-daemon worker), so the
  // pages may go away.
  fabric::Message msg;
  msg.type = kMigrate;
  msg.dst = dest;
  msg.corr = ack_corr;  // != 0: destination acks after install
  msg.chain = std::move(chain);
  rt.fabric_send(std::move(msg));

  // "The memory area storing the resources is set free" (§2 step 1).  The
  // slots stay owned by the thread — no bitmap traffic — so the same
  // addresses are guaranteed free on every node, including this one if the
  // thread ever migrates back.  mig_cache_put keeps the pages committed
  // (bounded) so a returning thread skips the commit/page-fault cycle —
  // the paper's §6 slot-cache idea on the migration path.
  for (auto [first, count] : runs) rt.mig_cache_put(first, count);
  rt.trace_event(trace::Event::kMigrationOut, 0, dest);
}

std::vector<std::pair<size_t, uint32_t>> payload_slot_runs(
    const uint8_t* payload, size_t len) {
  mad::UnpackBuffer unpack(payload, len);
  std::vector<std::pair<size_t, uint32_t>> runs;
  walk_payload(unpack, nullptr, [&](size_t first, uint32_t nslots) -> char* {
    runs.emplace_back(first, nslots);
    return nullptr;
  });
  return runs;
}

std::vector<std::pair<size_t, uint32_t>> payload_slot_runs(
    const std::vector<uint8_t>& payload) {
  return payload_slot_runs(payload.data(), payload.size());
}

marcel::Thread* install_thread(Runtime& rt, const uint8_t* payload,
                               size_t len) {
  mad::UnpackBuffer unpack(payload, len);
  uint64_t desc_addr = 0;
  walk_payload(unpack, &desc_addr,
               [&](size_t first, uint32_t nslots) -> char* {
    // Iso-address guarantee: these slot indices are free here (they are
    // owned by the migrating thread system-wide).  If the run sits in the
    // migration slot cache (the thread bounced through this node before),
    // the pages are already committed; stale bytes in the extent gaps are
    // dead data by construction (below-sp stack, free-block payloads).
    if (!rt.mig_cache_take(first, nslots)) rt.area().commit(first, nslots);
    // Whatever poison this address range carried locally (a previous
    // tenant's frames, a cached run of this very thread's earlier visit)
    // is stale: the installed extent must be fully addressable before the
    // first resume.
    char* run_base = reinterpret_cast<char*>(rt.area().slot_addr(first));
    sys::san_unpoison(run_base, size_t{nslots} * rt.area().slot_size());
    // The walker scatters each extent straight into the freshly committed
    // slots — the receive buffer is the only staging between wire and
    // iso-address memory.
    return run_base;
  });
  PM2_CHECK(unpack.exhausted()) << "trailing bytes in migration payload";

  auto* t = reinterpret_cast<marcel::Thread*>(desc_addr);
  PM2_CHECK(t->magic == marcel::Thread::kMagic)
      << "migration payload did not reconstruct a valid descriptor";
  PM2_CHECK(t->canary_ok()) << "migrated stack arrived corrupt";
  // Lazy invocation-pool eviction: a service thread that migrated here is
  // a foreign slot run — it exits through the ordinary release path, the
  // install side never parks it in the pool.
  t->flags &= ~marcel::Thread::kFlagService;
  // The descriptor's parked fake-stack handle references the *source*
  // kernel thread's ASan allocator: the first switch onto this foreign
  // stack must hand ASan a null handle instead.
  t->san_fake_stack = nullptr;
  rt.sched().adopt(t);
  PM2_TRACE << "installed thread " << t->id;
  return t;
}

marcel::Thread* install_thread(Runtime& rt,
                               const std::vector<uint8_t>& payload) {
  return install_thread(rt, payload.data(), payload.size());
}

}  // namespace pm2
