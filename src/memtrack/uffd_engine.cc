#include "memtrack/uffd_engine.h"

#include <fcntl.h>
#include <linux/userfaultfd.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "common/arena.h"

namespace ickpt::memtrack {

namespace {

// Linux 6.7 ABI (linux/userfaultfd.h, linux/fs.h) that the installed
// uapi headers predate.  The names differ from the kernel's macros so a
// newer header cannot collide with them.
constexpr std::uint64_t kFeatureWpUnpopulated = 1ull << 13;
constexpr std::uint64_t kFeatureWpAsync = 1ull << 15;
constexpr std::uint64_t kFeatures =
    UFFD_FEATURE_PAGEFAULT_FLAG_WP | kFeatureWpUnpopulated | kFeatureWpAsync;

constexpr std::uint64_t kPageIsWritten = 1ull << 1;     // PAGE_IS_WRITTEN
constexpr std::uint64_t kScanWpMatching = 1ull << 0;    // PM_SCAN_WP_MATCHING
constexpr std::uint64_t kScanCheckWpAsync = 1ull << 1;  // PM_SCAN_CHECK_WPASYNC

struct PageRegion {  // struct page_region
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t categories;
};
static_assert(sizeof(PageRegion) == 24);

struct PmScanArg {  // struct pm_scan_arg
  std::uint64_t size;
  std::uint64_t flags;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t walk_end;
  std::uint64_t vec;
  std::uint64_t vec_len;
  std::uint64_t max_pages;
  std::uint64_t category_inverted;
  std::uint64_t category_mask;
  std::uint64_t category_anyof_mask;
  std::uint64_t return_mask;
};
static_assert(sizeof(PmScanArg) == 96);

constexpr unsigned long kPagemapScan = _IOWR('f', 16, PmScanArg);

/// Written ranges returned per PAGEMAP_SCAN call.
constexpr std::size_t kScanBatch = 256;

Status errno_error(const char* what) {
  return io_error(std::string(what) + ": " + std::strerror(errno));
}

int open_uffd() {
  long fd = ::syscall(SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) return -1;
  struct uffdio_api api = {};
  api.api = UFFD_API;
  api.features = kFeatures;
  if (::ioctl(static_cast<int>(fd), UFFDIO_API, &api) < 0 ||
      (api.features & kFeatures) != kFeatures) {
    ::close(static_cast<int>(fd));
    return -1;
  }
  return static_cast<int>(fd);
}

int open_pagemap() { return ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC); }

Status register_range(int uffd, const PageRange& range) {
  struct uffdio_register reg = {};
  reg.range.start = range.begin;
  reg.range.len = range.bytes();
  reg.mode = UFFDIO_REGISTER_MODE_WP;
  if (::ioctl(uffd, UFFDIO_REGISTER, &reg) != 0) {
    return errno_error("UFFDIO_REGISTER");
  }
  return Status::ok();
}

Status unregister_range(int uffd, const PageRange& range) {
  struct uffdio_range urange = {};
  urange.start = range.begin;
  urange.len = range.bytes();
  if (::ioctl(uffd, UFFDIO_UNREGISTER, &urange) != 0) {
    return errno_error("UFFDIO_UNREGISTER");
  }
  return Status::ok();
}

Status write_protect(int uffd, const PageRange& range, bool protect) {
  struct uffdio_writeprotect wp = {};
  wp.range.start = range.begin;
  wp.range.len = range.bytes();
  wp.mode = protect ? UFFDIO_WRITEPROTECT_MODE_WP : 0;
  if (::ioctl(uffd, UFFDIO_WRITEPROTECT, &wp) != 0) {
    return errno_error("UFFDIO_WRITEPROTECT");
  }
  return Status::ok();
}

/// Appends to `pages` the index of every page of `range` written since
/// it was last protected, in ascending order.  With `rearm` the same
/// walk write-protects those pages again, so a write racing the scan
/// lands either in this result or in the next interval.
Status scan_written(int pagemap_fd, const PageRange& range, bool rearm,
                    std::vector<std::uint32_t>& pages) {
  PageRegion vec[kScanBatch];
  PmScanArg arg = {};
  arg.size = sizeof arg;
  arg.flags = rearm ? (kScanWpMatching | kScanCheckWpAsync) : 0;
  arg.start = range.begin;
  arg.end = range.end;
  arg.vec = reinterpret_cast<std::uintptr_t>(vec);
  arg.vec_len = kScanBatch;
  arg.category_mask = kPageIsWritten;
  arg.return_mask = kPageIsWritten;
  for (;;) {
    long n = ::ioctl(pagemap_fd, kPagemapScan, &arg);
    if (n < 0) return errno_error("PAGEMAP_SCAN");
    for (long i = 0; i < n; ++i) {
      for (std::uint64_t a = vec[i].start; a < vec[i].end; a += page_size()) {
        pages.push_back(
            static_cast<std::uint32_t>((a - range.begin) >> page_shift()));
      }
    }
    if (arg.walk_end >= range.end) return Status::ok();
    if (arg.walk_end <= arg.start) {
      return io_error("PAGEMAP_SCAN made no progress");
    }
    arg.start = arg.walk_end;
  }
}

/// End-to-end check on one never-populated page: protect it, write it,
/// and require that a rearming scan reports exactly that page.
bool probe_uffd() {
  int uffd = open_uffd();
  if (uffd < 0) return false;
  int pagemap = open_pagemap();
  bool ok = false;
  if (pagemap >= 0) {
    PageArena page(page_size());
    const PageRange range = page.range();
    std::vector<std::uint32_t> written;
    if (register_range(uffd, range).is_ok() &&
        write_protect(uffd, range, true).is_ok()) {
      page.data()[0] = std::byte{1};
      ok = scan_written(pagemap, range, /*rearm=*/true, written).is_ok() &&
           written == std::vector<std::uint32_t>{0};
      (void)unregister_range(uffd, range);
    }
    ::close(pagemap);
  }
  ::close(uffd);
  return ok;
}

}  // namespace

bool uffd_supported() {
  static const bool supported = probe_uffd();
  return supported;
}

Result<std::unique_ptr<UffdEngine>> UffdEngine::create() {
  if (!uffd_supported()) {
    return unsupported(
        "userfaultfd async write-protect with PAGEMAP_SCAN unavailable "
        "(needs Linux >= 6.7)");
  }
  int uffd = open_uffd();
  if (uffd < 0) return errno_error("userfaultfd");
  int pagemap = open_pagemap();
  if (pagemap < 0) {
    Status st = errno_error("open /proc/self/pagemap");
    ::close(uffd);
    return st;
  }
  return std::unique_ptr<UffdEngine>(new UffdEngine(uffd, pagemap));
}

UffdEngine::UffdEngine(int uffd, int pagemap_fd)
    : uffd_(uffd), pagemap_fd_(pagemap_fd) {}

UffdEngine::~UffdEngine() {
  for (auto& [id, r] : regions_) {
    (void)write_protect(uffd_, r.range, /*protect=*/false);
    (void)unregister_range(uffd_, r.range);
  }
  ::close(pagemap_fd_);
  ::close(uffd_);
}

Result<RegionId> UffdEngine::attach(std::span<std::byte> mem,
                                    std::string name) {
  if (mem.empty()) return invalid_argument("attach: empty range");
  auto addr = reinterpret_cast<std::uintptr_t>(mem.data());
  if (addr % page_size() != 0 || mem.size() % page_size() != 0) {
    return invalid_argument("attach: range must be page-aligned ('" + name +
                            "')");
  }
  const PageRange range{addr, addr + mem.size()};
  ICKPT_RETURN_IF_ERROR(register_range(uffd_, range));

  std::lock_guard<std::mutex> lock(mu_);
  if (armed_) {
    Status st = write_protect(uffd_, range, true);
    if (!st.is_ok()) {
      (void)unregister_range(uffd_, range);
      return st;
    }
  }
  RegionId id = next_id_++;
  regions_.emplace(id, Region{std::move(name), range});
  return id;
}

Status UffdEngine::detach(RegionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = regions_.find(id);
  if (it == regions_.end()) return not_found("detach: unknown region id");
  ICKPT_RETURN_IF_ERROR(write_protect(uffd_, it->second.range, false));
  ICKPT_RETURN_IF_ERROR(unregister_range(uffd_, it->second.range));
  regions_.erase(it);
  return Status::ok();
}

Status UffdEngine::arm() {
  std::lock_guard<std::mutex> lock(mu_);
  auto scope = detail::arm_stage().begin();
  for (auto& [id, r] : regions_) {
    ICKPT_RETURN_IF_ERROR(write_protect(uffd_, r.range, true));
  }
  armed_ = true;
  ++arms_;
  return Status::ok();
}

Result<DirtySnapshot> UffdEngine::collect(bool rearm) {
  std::lock_guard<std::mutex> lock(mu_);
  auto scope = detail::collect_stage().begin();
  DirtySnapshot snap;
  snap.regions.reserve(regions_.size());
  for (auto& [id, r] : regions_) {
    RegionDirty rd;
    rd.id = id;
    rd.name = r.name;
    rd.range = r.range;
    ICKPT_RETURN_IF_ERROR(
        scan_written(pagemap_fd_, r.range, rearm, rd.dirty_pages));
    // Un-protect only after the scan: lifting the protection first
    // would make every page read as written.
    if (!rearm) ICKPT_RETURN_IF_ERROR(write_protect(uffd_, r.range, false));
    snap.regions.push_back(std::move(rd));
  }
  armed_ = rearm;
  ++collects_;
  if (rearm) ++arms_;
  return snap;
}

EngineCounters UffdEngine::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineCounters c;
  c.arms = arms_;
  c.collects = collects_;
  return c;
}

std::size_t UffdEngine::region_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return regions_.size();
}

std::size_t UffdEngine::tracked_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, r] : regions_) n += r.range.bytes();
  return n;
}

}  // namespace ickpt::memtrack
