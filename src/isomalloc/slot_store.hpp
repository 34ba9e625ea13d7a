// SlotStore: a buffer manager over iso-address slot runs.
//
// The iso-address discipline (paper §3.1) makes a thread's slot image
// *address-stable*: a run written out byte-for-byte can be read back at the
// same virtual addresses later — in this process, or in a restarted one —
// with every absolute pointer still valid.  That is exactly the property a
// database buffer manager needs to page data out without relocation, so the
// store treats slot runs like buffer pages with three residency states:
//
//   * hot          — committed anonymous RAM, as always;
//   * demoted      — run bytes written to a per-node backing file keyed by
//                    slot index, pages MADV_DONTNEED'd and re-protected
//                    PROT_NONE (Area::decommit_force), so a cold frozen
//                    thread stops pinning physical memory;
//   * faulted-back — re-committed and read back from the file at the same
//                    iso-address when the thread resumes, packs for
//                    migration, or is checkpointed.
//
// The store is the one owner of that state: demote() seals the thread's
// directory record and lists it in an in-memory demoted set keyed by its
// descriptor address (the descriptor is inside the PROT_NONE run, so the
// key must never need a dereference); fault_back() drops the entry only
// once the bytes are back in.
//
// The same backing file doubles as the persistence layer: a thread
// *directory* (MAP_SHARED header + records, so `kill -9` cannot lose it —
// the page cache survives the process) names the threads whose images live
// in the file.  A restarted node re-opens the file with `recover = true`,
// validates the binary-stamp/geometry header, and adopts the recorded
// threads (pm2::restore_node_from_store).
//
// Every data byte reaches the file through one write path, shared by node
// checkpoints (write_thread) and demotion (demote).  The store registers the
// whole area with a sys::DirtyTracker when it opens, so for a run the
// thread's sealed record already lists, the file differs from memory
// exactly on the pages the tracker reports written: one scan returns them
// and re-protects them, and only they are written.  Any other run — fresh
// thread, new run, migration arrival, slots released since — is protected
// and written whole.  fault_back() and read_run() protect a run right after
// filling it, so a faulted-back or restored thread costs nothing the next
// round.  Without kernel support the scan reports every page written and
// the same code writes full images.
//
// File layout (PM2STOR1):
//   [0, 4K)              StoreHeader — magic, version, binary stamp, area
//                        geometry, node, directory capacity, data offset.
//   [4K, data_off)       StoreDirEntry[dir_capacity] thread directory.
//   [data_off, ...)      sparse data region: slot index i lives at byte
//                        data_off + i * slot_size.  Only demoted or
//                        checkpointed slots occupy file blocks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "isomalloc/area.hpp"
#include "sys/dirty_tracker.hpp"
#include "sys/spinlock.hpp"
#include "sys/vm.hpp"

namespace pm2::iso {

/// One (first slot, slot count) run, as tracked by the directory.
using SlotRun = std::pair<size_t, uint32_t>;

struct SlotStoreConfig {
  /// Backing file path.  Empty disables the store.
  std::string path;
  /// Re-open an existing store and adopt its contents (crash restart).
  /// False truncates the file and writes a fresh header.
  bool recover = false;
  /// Thread-directory capacity.
  uint32_t dir_capacity = 4096;
};

struct StoreHeader {
  static constexpr uint64_t kMagic = 0x504D3253544F5231ull;  // "PM2STOR1"
  static constexpr uint32_t kVersion = 1;

  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t node = 0;
  uint64_t binary_stamp = 0;
  uint64_t area_base = 0;
  uint64_t area_size = 0;
  uint64_t slot_size = 0;
  uint32_t n_nodes = 0;
  uint32_t dir_capacity = 0;
  uint64_t data_off = 0;
};

struct StoreRun {
  uint32_t first = 0;
  uint32_t count = 0;
};

/// Fixed-size thread-directory record.  `state` is the crash-atomicity
/// latch: records are flipped to kWriting before any data write and sealed
/// kValid after, so a kill -9 mid-write leaves a record recovery skips
/// instead of a torn image it would adopt.
struct StoreDirEntry {
  static constexpr uint32_t kEmpty = 0;
  static constexpr uint32_t kWriting = 1;
  static constexpr uint32_t kValid = 2;
  static constexpr uint32_t kMaxRuns = 13;

  uint64_t id = 0;
  uint64_t desc_addr = 0;  // iso-address of the Thread descriptor
  uint32_t state = kEmpty;
  uint32_t n_runs = 0;
  StoreRun runs[kMaxRuns] = {};
};
static_assert(sizeof(StoreDirEntry) == 128, "directory entries are packed");

struct SlotStoreStats {
  uint64_t demotions = 0;    // threads demoted
  uint64_t fault_backs = 0;  // threads faulted back
  uint64_t bytes_out = 0;  // written by demote()
  uint64_t bytes_in = 0;   // read by fault_back()/read_run()
};

/// What one write_thread()/demote() wrote.
struct StoreWriteStats {
  uint64_t written = 0;      // slot bytes written to the file
  uint64_t skipped = 0;      // clean bytes the file already held
  bool incremental = false;  // some run was written as an exact delta
};

class SlotStore {
 public:
  /// Open (or create) the per-node backing file.  `binary_stamp` is the
  /// caller's code-identity hash (pm2::binary_stamp()); with
  /// `config.recover` the on-file header must match it and the area
  /// geometry exactly — a mismatched store is refused with a fatal check,
  /// never silently adopted.
  SlotStore(Area& area, const SlotStoreConfig& config, uint64_t binary_stamp,
            uint32_t node, uint32_t n_nodes);
  ~SlotStore();

  SlotStore(const SlotStore&) = delete;
  SlotStore& operator=(const SlotStore&) = delete;

  /// True when recover=true found and validated an existing store.
  bool recovered() const { return recovered_; }

  // --- writes -----------------------------------------------------------

  /// Persist thread `id`: record its runs (kWriting), write them, seal the
  /// record (kValid).  A run the thread's sealed record already lists gets
  /// only the pages written since it was last written or filled; any other
  /// run is written whole.  Returns false, writing nothing, when the
  /// directory refuses the record (full, or more than
  /// StoreDirEntry::kMaxRuns runs).
  bool write_thread(uint64_t id, uint64_t desc_addr,
                    const std::vector<SlotRun>& runs,
                    StoreWriteStats* stats = nullptr);

  // --- residency ---------------------------------------------------------

  /// Persist thread `id` as write_thread() does, list it as demoted under
  /// `desc_addr`, and release its runs' memory (pages dropped, protection
  /// PROT_NONE).  Returns false, with nothing written or released, when the
  /// directory refuses the record.  Written ranges are unpoisoned first:
  /// frozen stacks carry ASan redzone poison, and both the pwrite source
  /// check and the file bytes must see addressable memory.
  bool demote(uint64_t id, uint64_t desc_addr,
              const std::vector<SlotRun>& runs);

  /// If the thread whose descriptor is at `desc_addr` is demoted, re-commit
  /// its runs, read their bytes back at the same iso-addresses, protect
  /// them, and only then drop it from the demoted set — no caller can see
  /// it resident while its bytes are on their way back.  False when it was
  /// not demoted.
  bool fault_back(uint64_t desc_addr);

  /// Pointer-keyed lookup: never dereferences `desc_addr`.  Fills any
  /// non-null out params.  False when the thread is not demoted.
  bool demoted_info(uint64_t desc_addr, uint64_t* id,
                    std::vector<SlotRun>* runs) const;
  bool thread_demoted(uint64_t id) const;
  size_t demoted_count() const;
  /// Slot bytes of the demoted threads (a live gauge).
  size_t demoted_bytes() const;

  /// Read the run's bytes from the file into (already committed) memory,
  /// and protect it (crash restart).
  void read_run(size_t first, size_t count);

  /// The run's slots went back to the node: whatever a sealed record lists,
  /// their next write is whole (another store may protect them meanwhile).
  void note_released(size_t first, size_t count);

  // --- thread directory --------------------------------------------------

  /// Drop `id`'s record (thread exited, migrated away, or was restored).
  void erase_thread(uint64_t id);
  bool has_record(uint64_t id) const;

  struct RecordedThread {
    uint64_t id = 0;
    uint64_t desc_addr = 0;
    std::vector<SlotRun> runs;
  };
  /// All sealed (kValid) records — the crash-restart adoption list.
  std::vector<RecordedThread> recorded_threads() const;

  // --- misc --------------------------------------------------------------

  /// fdatasync the backing file (durability against machine crash; kill -9
  /// survival needs nothing — the page cache persists).
  void sync();

  SlotStoreStats stats() const;

 private:
  uint64_t file_off(size_t first) const;
  /// Begin (or restart) a record for `id`: state kWriting.  `delta[i]`
  /// tells whether runs[i] was listed in the previous sealed record and not
  /// released since.  False when the directory refuses the record.
  bool record_thread(uint64_t id, uint64_t desc_addr,
                     const std::vector<SlotRun>& runs,
                     std::vector<bool>& delta);
  /// Seal `id`'s record: state kValid.
  void seal_thread(uint64_t id);
  /// The one write path: delta runs get their tracked dirty pages, the
  /// others are protected and written whole.
  StoreWriteStats write_runs(const std::vector<SlotRun>& runs,
                             const std::vector<bool>& delta);
  StoreDirEntry* entry_of(uint64_t id);
  const StoreDirEntry* entry_of(uint64_t id) const;

  Area& area_;
  SlotStoreConfig config_;
  int fd_ = -1;
  sys::FileMapping meta_;     // header + directory
  StoreHeader* hdr_ = nullptr;
  StoreDirEntry* dir_ = nullptr;
  bool recovered_ = false;
  sys::DirtyTracker tracker_;
  // Directory scans/updates, released_ and the demoted set.  kLeaf:
  // registry and pool walks ask whether a thread is demoted under their own
  // locks, so this lock ranks below all of them and acquires nothing
  // itself.  fault_back() holds it across the read-back.
  mutable sys::SpinLock lock_{sys::LockRank::kLeaf};
  pm2::Bitmap released_;  // slots released since they were last written whole
  struct Demoted {
    uint64_t id = 0;
    std::vector<SlotRun> runs;
    size_t bytes = 0;
  };
  // Key: descriptor address.
  std::unordered_map<uint64_t, Demoted> demoted_ PM2_GUARDED_BY(lock_);
  size_t demoted_bytes_ PM2_GUARDED_BY(lock_) = 0;
  std::atomic<uint64_t> demotions_{0};
  std::atomic<uint64_t> fault_backs_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
};

}  // namespace pm2::iso
