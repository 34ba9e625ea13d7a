#include "sys/dirty_tracker.hpp"

#include <errno.h>
#include <fcntl.h>
#include <linux/userfaultfd.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <iterator>
#include <map>
#include <mutex>

#include "sys/backoff.hpp"
#include "sys/vm.hpp"

namespace pm2::sys {

namespace {

// Kernel ABI newer than the 6.1 uapi headers this builds against: the
// userfaultfd features and <linux/fs.h> PAGEMAP_SCAN interface of Linux 6.7.
constexpr uint64_t kUffdFeatureWpUnpopulated = uint64_t{1} << 13;
constexpr uint64_t kUffdFeatureWpAsync = uint64_t{1} << 15;

constexpr uint64_t kPageIsWritten = uint64_t{1} << 1;
constexpr uint64_t kPmScanWpMatching = uint64_t{1} << 0;
constexpr uint64_t kPmScanCheckWpAsync = uint64_t{1} << 1;

struct PageRegion {
  uint64_t start;
  uint64_t end;
  uint64_t categories;
};

struct PmScanArg {
  uint64_t size;
  uint64_t flags;
  uint64_t start;
  uint64_t end;
  uint64_t walk_end;
  uint64_t vec;
  uint64_t vec_len;
  uint64_t max_pages;
  uint64_t category_inverted;
  uint64_t category_mask;
  uint64_t category_anyof_mask;
  uint64_t return_mask;
};

constexpr unsigned long kPagemapScan = _IOWR('f', 16, PmScanArg);

/// The process's userfaultfd and pagemap descriptors, plus the registered
/// ranges (base -> length, references).
struct Uffd {
  std::mutex mu;
  pid_t pid = 0;  // process the descriptors belong to
  int uffd = -1;
  int pagemap = -1;
  std::map<uintptr_t, std::pair<size_t, int>> ranges;
};

Uffd& uffd_state() {
  static Uffd* state = new Uffd;  // never destroyed: trackers may outlive it
  return *state;
}

/// PAGEMAP_SCAN [start, end): append the written ranges to `out` and
/// protect them.  False on any kernel refusal (range not registered for
/// asynchronous write-protect, old kernel).
bool scan_written(int pagemap, uintptr_t start, uintptr_t end,
                  std::vector<PageRange>& out) {
  PageRegion vec[64];
  while (start < end) {
    PmScanArg arg{};
    arg.size = sizeof(arg);
    arg.flags = kPmScanWpMatching | kPmScanCheckWpAsync;
    arg.start = start;
    arg.end = end;
    arg.vec = reinterpret_cast<uint64_t>(vec);
    arg.vec_len = std::size(vec);
    arg.category_mask = kPageIsWritten;
    arg.return_mask = kPageIsWritten;
    const long n =
        retry_eintr([&] { return ::ioctl(pagemap, kPagemapScan, &arg); });
    if (n < 0 || arg.walk_end <= start) return false;
    for (long i = 0; i < n; ++i) out.emplace_back(vec[i].start, vec[i].end);
    start = arg.walk_end;  // a full vector stops the walk early
  }
  return true;
}

bool write_protect(int uffd, uintptr_t addr, size_t len) {
  uffdio_writeprotect wp{};
  wp.range.start = addr;
  wp.range.len = len;
  wp.mode = UFFDIO_WRITEPROTECT_MODE_WP;
  const int rc =
      retry_eintr([&] { return ::ioctl(uffd, UFFDIO_WRITEPROTECT, &wp); });
  return rc == 0;
}

/// Live self-test: protect two fresh pages, write the second, and expect
/// exactly it from the scan — then nothing from a second scan.
bool self_test(int uffd, int pagemap) {
  const size_t ps = page_size();
  void* mem = ::mmap(nullptr, 2 * ps, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return false;
  const auto p = reinterpret_cast<uintptr_t>(mem);
  uffdio_register reg{};
  reg.range.start = p;
  reg.range.len = 2 * ps;
  reg.mode = UFFDIO_REGISTER_MODE_WP;
  bool ok = ::ioctl(uffd, UFFDIO_REGISTER, &reg) == 0 &&
            write_protect(uffd, p, 2 * ps);
  if (ok) {
    *reinterpret_cast<volatile char*>(p + ps) = 1;
    std::vector<PageRange> first, second;
    ok = scan_written(pagemap, p, p + 2 * ps, first) &&
         scan_written(pagemap, p, p + 2 * ps, second) && first.size() == 1 &&
         first[0] == PageRange(p + ps, p + 2 * ps) && second.empty();
  }
  ::munmap(mem, 2 * ps);  // also drops the registration
  return ok;
}

/// Open this process's descriptors (under `s.mu`).  A forked child inherits
/// its parent's, which name the parent's address space: they are replaced,
/// and the ranges forgotten (a child's mappings start unregistered).
bool open_locked(Uffd& s) {
  const pid_t me = ::getpid();
  if (s.pid == me) return s.uffd >= 0;
  if (s.uffd >= 0) ::close(s.uffd);
  if (s.pagemap >= 0) ::close(s.pagemap);
  s.uffd = -1;
  s.pagemap = -1;
  s.ranges.clear();
  s.pid = me;
  const int uffd = static_cast<int>(
      ::syscall(SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK | UFFD_USER_MODE_ONLY));
  if (uffd < 0) return false;
  uffdio_api api{};
  api.api = UFFD_API;
  api.features = kUffdFeatureWpAsync | kUffdFeatureWpUnpopulated;
  const int pagemap = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (::ioctl(uffd, UFFDIO_API, &api) != 0 || pagemap < 0 ||
      !self_test(uffd, pagemap)) {
    ::close(uffd);
    if (pagemap >= 0) ::close(pagemap);
    return false;
  }
  s.uffd = uffd;
  s.pagemap = pagemap;
  return true;
}

/// This process's descriptors, or -1s when tracking is unavailable or the
/// registration was made by the parent of a fork.
std::pair<int, int> current_fds() {
  Uffd& s = uffd_state();
  std::lock_guard<std::mutex> g(s.mu);
  if (s.pid != ::getpid()) return {-1, -1};
  return {s.uffd, s.pagemap};
}

}  // namespace

bool dirty_tracking_supported() {
  Uffd& s = uffd_state();
  std::lock_guard<std::mutex> g(s.mu);
  return open_locked(s);
}

DirtyTracker::DirtyTracker(uintptr_t base, size_t len)
    : base_(base), len_(len) {
  Uffd& s = uffd_state();
  std::lock_guard<std::mutex> g(s.mu);
  if (!open_locked(s)) return;
  auto it = s.ranges.find(base);
  if (it != s.ranges.end()) {
    if (it->second.first != len) return;
    ++it->second.second;
    registered_ = true;
    return;
  }
  uffdio_register reg{};
  reg.range.start = base;
  reg.range.len = len;
  reg.mode = UFFDIO_REGISTER_MODE_WP;
  if (::ioctl(s.uffd, UFFDIO_REGISTER, &reg) != 0) return;
  s.ranges.emplace(base, std::make_pair(len, 1));
  registered_ = true;
}

DirtyTracker::~DirtyTracker() {
  if (!registered_) return;
  Uffd& s = uffd_state();
  std::lock_guard<std::mutex> g(s.mu);
  if (s.pid != ::getpid()) return;
  auto it = s.ranges.find(base_);
  if (it == s.ranges.end() || --it->second.second > 0) return;
  s.ranges.erase(it);
  uffdio_range range{};
  range.start = base_;
  range.len = len_;
  ::ioctl(s.uffd, UFFDIO_UNREGISTER, &range);
}

void DirtyTracker::scan(uintptr_t addr, size_t len,
                        std::vector<PageRange>& out) const {
  const size_t before = out.size();
  const int pagemap = registered_ ? current_fds().second : -1;
  if (pagemap >= 0 && scan_written(pagemap, addr, addr + len, out)) return;
  // Untracked or refused: every page counts as written.
  out.resize(before);
  out.emplace_back(addr, addr + len);
}

void DirtyTracker::protect(uintptr_t addr, size_t len) const {
  const int uffd = registered_ ? current_fds().first : -1;
  // A failed protect leaves pages reading as written: the next scan
  // rewrites them, so exactness never depends on this call succeeding.
  if (uffd >= 0) write_protect(uffd, addr, len);
}

}  // namespace pm2::sys
