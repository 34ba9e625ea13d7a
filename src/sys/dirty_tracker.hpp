// Exact dirty-page tracking over a fixed address range: userfaultfd
// asynchronous write-protect plus the PAGEMAP_SCAN ioctl (Linux >= 6.7).
//
// The iso-address area is address-stable, so a file that mirrors it at
// fixed offsets only needs the pages written since they were last mirrored.
// The kernel keeps that set for us:
//
//   * one process-wide userfaultfd (UFFD_USER_MODE_ONLY, features
//     WP_ASYNC | WP_UNPOPULATED) has the range registered for write-protect;
//     WP_ASYNC resolves every write fault in the kernel (user or kernel
//     writer, ~1 µs on first write to a protected page), WP_UNPOPULATED lets
//     a protect also cover pages that are not populated yet;
//   * a page counts as written until it is protected again — a write, a
//     MADV_DONTNEED zap or a never-protected hole all read as written;
//   * one PAGEMAP_SCAN call with PM_SCAN_WP_MATCHING returns a range's
//     written pages and re-protects exactly those in the same step.
//
// The scan is range-local: protecting one range never touches another's
// state, so independent users of one address space (in-process nodes) do
// not disturb each other.  Where the probe fails (older kernel, seccomp),
// scan() reports the whole range as written — callers then write full
// images through the very same code path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pm2::sys {

/// True when this kernel offers asynchronous userfaultfd write-protect and
/// PAGEMAP_SCAN to this process.  Probed once per process with a live
/// write/scan self-test.
bool dirty_tracking_supported();

/// Page-aligned [begin, end) address range.
using PageRange = std::pair<uintptr_t, uintptr_t>;

/// RAII write tracking of one page-aligned address range.  Registrations of
/// the same range are reference counted, so several trackers may share one
/// reservation.  Non-copyable, non-movable.
class DirtyTracker {
 public:
  /// Register [base, base+len) for write-protect.  Never fails: without
  /// kernel support the tracker reports every page as written.
  DirtyTracker(uintptr_t base, size_t len);
  ~DirtyTracker();

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  /// True when scans are exact (the range is registered).
  bool exact() const { return registered_; }

  /// Append to `out` the ranges of [addr, addr+len) written since they were
  /// last protected, and protect them in the same step.  Without tracking,
  /// appends the whole range.
  void scan(uintptr_t addr, size_t len, std::vector<PageRange>& out) const;

  /// Protect every page of [addr, addr+len), populated or not: the next
  /// scan reports only pages written after this call.
  void protect(uintptr_t addr, size_t len) const;

 private:
  uintptr_t base_ = 0;
  size_t len_ = 0;
  bool registered_ = false;
};

}  // namespace pm2::sys
