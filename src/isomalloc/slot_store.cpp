#include "isomalloc/slot_store.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
#include "sys/backoff.hpp"
#include "sys/sanitizer.hpp"

namespace pm2::iso {

namespace {

void pwrite_all(int fd, const void* buf, size_t len, uint64_t off) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    ssize_t rc = sys::retry_eintr(
        [&] { return ::pwrite(fd, p, len, static_cast<off_t>(off)); });
    PM2_CHECK(rc > 0) << "slot store pwrite failed: " << std::strerror(errno);
    p += rc;
    off += static_cast<uint64_t>(rc);
    len -= static_cast<size_t>(rc);
  }
}

void pread_all(int fd, void* buf, size_t len, uint64_t off) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    ssize_t rc = sys::retry_eintr(
        [&] { return ::pread(fd, p, len, static_cast<off_t>(off)); });
    PM2_CHECK(rc > 0) << "slot store pread failed: "
                      << (rc == 0 ? "truncated store file"
                                  : std::strerror(errno));
    p += rc;
    off += static_cast<uint64_t>(rc);
    len -= static_cast<size_t>(rc);
  }
}

uint64_t round_up(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

}  // namespace

SlotStore::SlotStore(Area& area, const SlotStoreConfig& config,
                     uint64_t binary_stamp, uint32_t node, uint32_t n_nodes)
    : area_(area),
      config_(config),
      tracker_(area.base(), area.size()),
      released_(area.n_slots()) {
  PM2_CHECK(!config_.path.empty()) << "slot store needs a backing file path";
  const uint64_t dir_bytes =
      uint64_t{config_.dir_capacity} * sizeof(StoreDirEntry);
  const uint64_t meta_bytes = round_up(4096 + dir_bytes, sys::page_size());
  const uint64_t data_off = meta_bytes;

  int flags = O_RDWR | O_CLOEXEC | O_CREAT | (config_.recover ? 0 : O_TRUNC);
  fd_ = ::open(config_.path.c_str(), flags, 0644);
  PM2_CHECK(fd_ >= 0) << "slot store open(" << config_.path
                      << ") failed: " << std::strerror(errno);

  if (config_.recover) {
    // Adopting an existing store: the header must prove it was written by
    // this binary over this exact area geometry — iso-addresses are only
    // meaningful under both.
    StoreHeader on_file{};
    ssize_t rc = ::pread(fd_, &on_file, sizeof(on_file), 0);
    PM2_CHECK(rc == static_cast<ssize_t>(sizeof(on_file)))
        << "slot store recover: cannot read header of " << config_.path;
    PM2_CHECK(on_file.magic == StoreHeader::kMagic)
        << "not a PM2 slot store: " << config_.path;
    PM2_CHECK(on_file.version == StoreHeader::kVersion)
        << "slot store version mismatch";
    PM2_CHECK(on_file.binary_stamp == binary_stamp)
        << "slot store was written by a different binary";
    PM2_CHECK(on_file.area_base == area_.base() &&
              on_file.area_size == area_.size() &&
              on_file.slot_size == area_.slot_size())
        << "slot store iso-area geometry mismatch";
    PM2_CHECK(on_file.node == node && on_file.n_nodes == n_nodes)
        << "slot store belongs to a different node/session shape";
    PM2_CHECK(on_file.dir_capacity == config_.dir_capacity &&
              on_file.data_off == data_off)
        << "slot store directory layout mismatch";
    recovered_ = true;
  } else {
    PM2_CHECK(::ftruncate(fd_, static_cast<off_t>(meta_bytes)) == 0)
        << "slot store ftruncate failed: " << std::strerror(errno);
  }

  meta_ = sys::FileMapping(fd_, 0, meta_bytes);
  hdr_ = static_cast<StoreHeader*>(meta_.data());
  dir_ = reinterpret_cast<StoreDirEntry*>(static_cast<char*>(meta_.data()) +
                                          4096);
  if (!config_.recover) {
    std::memset(meta_.data(), 0, meta_bytes);
    hdr_->magic = StoreHeader::kMagic;
    hdr_->version = StoreHeader::kVersion;
    hdr_->node = node;
    hdr_->binary_stamp = binary_stamp;
    hdr_->area_base = area_.base();
    hdr_->area_size = area_.size();
    hdr_->slot_size = area_.slot_size();
    hdr_->n_nodes = n_nodes;
    hdr_->dir_capacity = config_.dir_capacity;
    hdr_->data_off = data_off;
  }
}

SlotStore::~SlotStore() {
  meta_.release();
  if (fd_ >= 0) ::close(fd_);
}

uint64_t SlotStore::file_off(size_t first) const {
  return hdr_->data_off + uint64_t{first} * area_.slot_size();
}

// --- writes -----------------------------------------------------------

bool SlotStore::write_thread(uint64_t id, uint64_t desc_addr,
                             const std::vector<SlotRun>& runs,
                             StoreWriteStats* stats) {
  std::vector<bool> delta;
  if (!record_thread(id, desc_addr, runs, delta)) return false;
  StoreWriteStats ws = write_runs(runs, delta);
  seal_thread(id);
  if (stats != nullptr) *stats = ws;
  return true;
}

StoreWriteStats SlotStore::write_runs(const std::vector<SlotRun>& runs,
                                      const std::vector<bool>& delta) {
  StoreWriteStats ws;
  std::vector<sys::PageRange> dirty;
  for (size_t i = 0; i < runs.size(); ++i) {
    auto [first, count] = runs[i];
    const auto base = reinterpret_cast<uintptr_t>(area_.slot_addr(first));
    const size_t len = count * area_.slot_size();
    ws.skipped += len;
    if (delta[i]) {
      tracker_.scan(base, len, dirty);
      ws.incremental |= tracker_.exact();
    } else {
      // Protect before writing: a write racing the pwrite below reads as
      // dirty next time instead of being lost.
      tracker_.protect(base, len);
      dirty.emplace_back(base, base + len);
      lock_.lock();
      released_.clear_range(first, count);
      lock_.unlock();
    }
  }
  // Adjacent runs and pages coalesce into one write each: the file mirrors
  // the area linearly.
  std::sort(dirty.begin(), dirty.end());
  uint64_t span_begin = UINT64_MAX, span_end = 0;
  for (size_t i = 0; i < dirty.size();) {
    auto [begin, end] = dirty[i];
    for (++i; i < dirty.size() && dirty[i].first <= end; ++i)
      end = std::max(end, dirty[i].second);
    void* src = reinterpret_cast<void*>(begin);
    // Frozen stacks carry redzone poison from their live frames; ASan
    // checks the pwrite source buffer.
    sys::san_unpoison(src, end - begin);
    const uint64_t off = hdr_->data_off + (begin - area_.base());
    pwrite_all(fd_, src, end - begin, off);
    span_begin = std::min(span_begin, off);
    span_end = off + (end - begin);
    ws.written += end - begin;
  }
  ws.skipped -= ws.written;
  // Start writeback right away: the next sync() then mostly waits for I/O
  // already in flight instead of submitting every page at once.
  if (span_end > 0) {
    ::sync_file_range(fd_, static_cast<off_t>(span_begin),
                      static_cast<off_t>(span_end - span_begin),
                      SYNC_FILE_RANGE_WRITE);
  }
  return ws;
}

// --- residency ---------------------------------------------------------

bool SlotStore::demote(uint64_t id, uint64_t desc_addr,
                       const std::vector<SlotRun>& runs) {
  if (runs.size() > StoreDirEntry::kMaxRuns) return false;
  StoreWriteStats ws;
  if (!write_thread(id, desc_addr, runs, &ws)) return false;
  size_t bytes = 0;
  for (auto [first, count] : runs) bytes += count * area_.slot_size();
  lock_.lock();
  demoted_.emplace(desc_addr, Demoted{id, runs, bytes});
  demoted_bytes_ += bytes;
  lock_.unlock();
  for (auto [first, count] : runs) area_.decommit_force(first, count);
  demotions_.fetch_add(1, std::memory_order_relaxed);
  bytes_out_.fetch_add(ws.written, std::memory_order_relaxed);
  return true;
}

bool SlotStore::fault_back(uint64_t desc_addr) {
  sys::SpinGuard g(lock_);
  auto it = demoted_.find(desc_addr);
  if (it == demoted_.end()) return false;
  for (auto [first, count] : it->second.runs) {
    area_.commit(first, count);  // mprotect RW + shadow unpoison
    read_run(first, count);
  }
  demoted_bytes_ -= it->second.bytes;
  demoted_.erase(it);
  fault_backs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool SlotStore::demoted_info(uint64_t desc_addr, uint64_t* id,
                             std::vector<SlotRun>* runs) const {
  sys::SpinGuard g(lock_);
  auto it = demoted_.find(desc_addr);
  if (it == demoted_.end()) return false;
  if (id != nullptr) *id = it->second.id;
  if (runs != nullptr) *runs = it->second.runs;
  return true;
}

bool SlotStore::thread_demoted(uint64_t id) const {
  sys::SpinGuard g(lock_);
  return std::any_of(demoted_.begin(), demoted_.end(),
                     [id](const auto& kv) { return kv.second.id == id; });
}

size_t SlotStore::demoted_count() const {
  sys::SpinGuard g(lock_);
  return demoted_.size();
}

size_t SlotStore::demoted_bytes() const {
  sys::SpinGuard g(lock_);
  return demoted_bytes_;
}

void SlotStore::read_run(size_t first, size_t count) {
  void* addr = area_.slot_addr(first);
  const size_t len = count * area_.slot_size();
  // Populating the run in one call is cheaper than taking a page fault per
  // page inside pread.  Best effort: pread faults in whatever is missing.
  ::madvise(addr, len, MADV_POPULATE_WRITE);
  pread_all(fd_, addr, len, file_off(first));
  // Memory now equals the file: nothing of the run is dirty.
  tracker_.protect(reinterpret_cast<uintptr_t>(addr), len);
  bytes_in_.fetch_add(len, std::memory_order_relaxed);
}

void SlotStore::note_released(size_t first, size_t count) {
  lock_.lock();
  released_.set_range(first, count);
  lock_.unlock();
}

// --- thread directory --------------------------------------------------

StoreDirEntry* SlotStore::entry_of(uint64_t id) {
  for (uint32_t i = 0; i < hdr_->dir_capacity; ++i) {
    if (dir_[i].state != StoreDirEntry::kEmpty && dir_[i].id == id) {
      return &dir_[i];
    }
  }
  return nullptr;
}

const StoreDirEntry* SlotStore::entry_of(uint64_t id) const {
  return const_cast<SlotStore*>(this)->entry_of(id);
}

bool SlotStore::record_thread(uint64_t id, uint64_t desc_addr,
                              const std::vector<SlotRun>& runs,
                              std::vector<bool>& delta) {
  if (runs.size() > StoreDirEntry::kMaxRuns) {
    PM2_WARN << "slot store: thread " << id << " spans " << runs.size()
             << " runs (directory limit " << StoreDirEntry::kMaxRuns
             << "); not persisted";
    return false;
  }
  lock_.lock();
  StoreDirEntry* e = entry_of(id);
  // The file mirrors a run exactly (up to tracked writes) while the sealed
  // record lists it and its slots stayed with the thread.
  delta.assign(runs.size(), false);
  if (e != nullptr && e->state == StoreDirEntry::kValid) {
    const StoreRun* listed_begin = e->runs;
    const StoreRun* listed_end = e->runs + e->n_runs;
    for (size_t i = 0; i < runs.size(); ++i) {
      auto [first, count] = runs[i];
      const bool listed =
          std::find_if(listed_begin, listed_end, [&](const StoreRun& r) {
            return r.first == first && r.count == count;
          }) != listed_end;
      delta[i] = listed && released_.none_set(first, count);
    }
  }
  if (e == nullptr) {
    for (uint32_t i = 0; i < hdr_->dir_capacity; ++i) {
      if (dir_[i].state == StoreDirEntry::kEmpty) {
        e = &dir_[i];
        break;
      }
    }
  }
  if (e == nullptr) {
    lock_.unlock();
    PM2_WARN << "slot store: thread directory full (capacity "
             << hdr_->dir_capacity << "); thread " << id << " not persisted";
    return false;
  }
  // kWriting first, then payload fields: a kill -9 between here and
  // seal_thread() leaves a record recovery ignores.  The flip goes through
  // an atomic ref + compiler fence so the payload stores below cannot be
  // hoisted above it — re-recording a kValid entry with a reordered run
  // list, killed in that window, would hand recovery new runs over old
  // data bytes.  (Crash ordering is same-CPU coherent, so a compiler
  // barrier is the whole requirement.)
  std::atomic_ref<uint32_t>(e->state).store(StoreDirEntry::kWriting,
                                            std::memory_order_release);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  e->id = id;
  e->desc_addr = desc_addr;
  e->n_runs = static_cast<uint32_t>(runs.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    e->runs[i].first = static_cast<uint32_t>(runs[i].first);
    e->runs[i].count = runs[i].second;
  }
  lock_.unlock();
  return true;
}

void SlotStore::seal_thread(uint64_t id) {
  lock_.lock();
  StoreDirEntry* e = entry_of(id);
  PM2_CHECK(e != nullptr) << "seal_thread without record_thread";
  // Release: every payload store (and the data pwrites, already ordered by
  // the syscall boundary) settles before the record turns adoptable.
  std::atomic_signal_fence(std::memory_order_seq_cst);
  std::atomic_ref<uint32_t>(e->state).store(StoreDirEntry::kValid,
                                            std::memory_order_release);
  lock_.unlock();
}

void SlotStore::erase_thread(uint64_t id) {
  lock_.lock();
  StoreDirEntry* e = entry_of(id);
  if (e != nullptr) {
    *e = StoreDirEntry{};
  }
  lock_.unlock();
}

bool SlotStore::has_record(uint64_t id) const {
  lock_.lock();
  bool found = entry_of(id) != nullptr;
  lock_.unlock();
  return found;
}

std::vector<SlotStore::RecordedThread> SlotStore::recorded_threads() const {
  std::vector<RecordedThread> out;
  lock_.lock();
  for (uint32_t i = 0; i < hdr_->dir_capacity; ++i) {
    const StoreDirEntry& e = dir_[i];
    if (e.state != StoreDirEntry::kValid) continue;
    RecordedThread rec;
    rec.id = e.id;
    rec.desc_addr = e.desc_addr;
    for (uint32_t r = 0; r < e.n_runs; ++r) {
      rec.runs.emplace_back(e.runs[r].first, e.runs[r].count);
    }
    out.push_back(std::move(rec));
  }
  lock_.unlock();
  return out;
}

void SlotStore::sync() {
  // One flush covers the directory too: its MAP_SHARED pages are dirty
  // page-cache pages of the same file.
  ::fdatasync(fd_);
}

SlotStoreStats SlotStore::stats() const {
  SlotStoreStats s;
  s.demotions = demotions_.load(std::memory_order_relaxed);
  s.fault_backs = fault_backs_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pm2::iso
