#include "memtrack/uffd_engine.h"

#include <fcntl.h>
#include <linux/userfaultfd.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ickpt::memtrack {

namespace {

int open_uffd() {
  long fd = ::syscall(SYS_userfaultfd, O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) return -1;
  struct uffdio_api api = {};
  api.api = UFFD_API;
  api.features = UFFD_FEATURE_PAGEFAULT_FLAG_WP;
  if (::ioctl(static_cast<int>(fd), UFFDIO_API, &api) < 0 ||
      (api.features & UFFD_FEATURE_PAGEFAULT_FLAG_WP) == 0) {
    ::close(static_cast<int>(fd));
    return -1;
  }
  return static_cast<int>(fd);
}

/// Full end-to-end probe: register a page, write-protect it, write
/// from another thread... too heavy; registering + WP ioctl success is
/// a reliable indicator in practice.
bool probe_uffd() {
  int fd = open_uffd();
  if (fd < 0) return false;
  bool ok = false;
  void* p = ::mmap(nullptr, page_size(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    *static_cast<volatile char*>(p) = 1;  // make resident
    struct uffdio_register reg = {};
    reg.range.start = reinterpret_cast<unsigned long long>(p);
    reg.range.len = page_size();
    reg.mode = UFFDIO_REGISTER_MODE_WP;
    if (::ioctl(fd, UFFDIO_REGISTER, &reg) == 0) {
      struct uffdio_writeprotect wp = {};
      wp.range = reg.range;
      wp.mode = UFFDIO_WRITEPROTECT_MODE_WP;
      if (::ioctl(fd, UFFDIO_WRITEPROTECT, &wp) == 0) {
        wp.mode = 0;  // un-protect again
        ok = ::ioctl(fd, UFFDIO_WRITEPROTECT, &wp) == 0;
      }
      struct uffdio_range range = reg.range;
      ::ioctl(fd, UFFDIO_UNREGISTER, &range);
    }
    ::munmap(p, page_size());
  }
  ::close(fd);
  return ok;
}

}  // namespace

bool uffd_supported() {
  static const bool supported = probe_uffd();
  return supported;
}

Result<std::unique_ptr<UffdEngine>> UffdEngine::create() {
  if (!uffd_supported()) {
    return unsupported("userfaultfd write-protect unavailable");
  }
  int uffd = open_uffd();
  if (uffd < 0) {
    return io_error(std::string("userfaultfd: ") + std::strerror(errno));
  }
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    ::close(uffd);
    return io_error(std::string("pipe2: ") + std::strerror(errno));
  }
  return std::unique_ptr<UffdEngine>(
      new UffdEngine(uffd, pipefd[0], pipefd[1]));
}

UffdEngine::UffdEngine(int uffd, int stop_read_fd, int stop_write_fd)
    : uffd_(uffd), stop_read_fd_(stop_read_fd), stop_write_fd_(stop_write_fd) {
  poller_ = std::thread([this] { poller_loop(); });
}

UffdEngine::~UffdEngine() {
  // Unblock any faulting threads, then stop the poller.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, r] : regions_) {
      (void)write_protect(r.range, /*protect=*/false);
      struct uffdio_range range = {};
      range.start = r.range.begin;
      range.len = r.range.bytes();
      ::ioctl(uffd_, UFFDIO_UNREGISTER, &range);
    }
    regions_.clear();
  }
  char stop = 1;
  (void)!::write(stop_write_fd_, &stop, 1);
  poller_.join();
  ::close(stop_read_fd_);
  ::close(stop_write_fd_);
  ::close(uffd_);
}

Status UffdEngine::write_protect(const PageRange& range, bool protect) {
  struct uffdio_writeprotect wp = {};
  wp.range.start = range.begin;
  wp.range.len = range.bytes();
  wp.mode = protect ? UFFDIO_WRITEPROTECT_MODE_WP : 0;
  if (::ioctl(uffd_, UFFDIO_WRITEPROTECT, &wp) != 0) {
    return io_error(std::string("UFFDIO_WRITEPROTECT: ") +
                    std::strerror(errno));
  }
  return Status::ok();
}

UffdEngine::Region* UffdEngine::find_region_locked(std::uintptr_t addr) {
  for (auto& [id, r] : regions_) {
    if (r.range.contains(addr)) return &r;
  }
  return nullptr;
}

void UffdEngine::poller_loop() {
  for (;;) {
    struct pollfd fds[2] = {{uffd_, POLLIN, 0}, {stop_read_fd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents & POLLIN) return;  // shutdown
    if (!(fds[0].revents & POLLIN)) continue;

    struct uffd_msg msg;
    ssize_t n = ::read(uffd_, &msg, sizeof msg);
    if (n != static_cast<ssize_t>(sizeof msg)) continue;
    if (msg.event != UFFD_EVENT_PAGEFAULT) continue;

    const auto addr = static_cast<std::uintptr_t>(msg.arg.pagefault.address);
    const std::uintptr_t page_addr = addr & ~(page_size() - 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (Region* r = find_region_locked(addr)) {
        if (msg.arg.pagefault.flags & UFFD_PAGEFAULT_FLAG_WP) {
          r->bitmap->set((page_addr - r->range.begin) >> page_shift());
          faults_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    // Lift write-protection on the faulted page to release the writer
    // (even for unknown ranges: leaving a thread wedged is worse).
    struct uffdio_writeprotect wp = {};
    wp.range.start = page_addr;
    wp.range.len = page_size();
    wp.mode = 0;
    ::ioctl(uffd_, UFFDIO_WRITEPROTECT, &wp);
  }
}

Result<RegionId> UffdEngine::attach(std::span<std::byte> mem,
                                    std::string name) {
  if (mem.empty()) return invalid_argument("attach: empty range");
  auto addr = reinterpret_cast<std::uintptr_t>(mem.data());
  if (addr % page_size() != 0 || mem.size() % page_size() != 0) {
    return invalid_argument("attach: range must be page-aligned ('" + name +
                            "')");
  }
  struct uffdio_register reg = {};
  reg.range.start = addr;
  reg.range.len = mem.size();
  reg.mode = UFFDIO_REGISTER_MODE_WP;
  if (::ioctl(uffd_, UFFDIO_REGISTER, &reg) != 0) {
    return io_error(std::string("UFFDIO_REGISTER: ") + std::strerror(errno));
  }

  std::lock_guard<std::mutex> lock(mu_);
  RegionId id = next_id_++;
  PageRange range{addr, addr + mem.size()};
  Region region{id, std::move(name), range,
                std::make_unique<AtomicBitmap>(range.pages())};
  if (armed_) {
    Status st = write_protect(range, true);
    if (!st.is_ok()) {
      struct uffdio_range urange = reg.range;
      ::ioctl(uffd_, UFFDIO_UNREGISTER, &urange);
      return st;
    }
  }
  regions_.emplace(id, std::move(region));
  return id;
}

Status UffdEngine::detach(RegionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = regions_.find(id);
  if (it == regions_.end()) return not_found("detach: unknown region id");
  ICKPT_RETURN_IF_ERROR(write_protect(it->second.range, false));
  struct uffdio_range range = {};
  range.start = it->second.range.begin;
  range.len = it->second.range.bytes();
  if (::ioctl(uffd_, UFFDIO_UNREGISTER, &range) != 0) {
    return io_error(std::string("UFFDIO_UNREGISTER: ") +
                    std::strerror(errno));
  }
  regions_.erase(it);
  return Status::ok();
}

Status UffdEngine::arm() {
  std::lock_guard<std::mutex> lock(mu_);
  auto scope = detail::arm_stage().begin();
  for (auto& [id, r] : regions_) {
    r.bitmap->clear();
    ICKPT_RETURN_IF_ERROR(write_protect(r.range, true));
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
    // Same ordering rationale as the mprotect engine: re-protect
    // first, then drain, so a racing write lands in the next interval.
    ICKPT_RETURN_IF_ERROR(write_protect(r.range, rearm));
    RegionDirty rd;
    rd.id = id;
    rd.name = r.name;
    rd.range = r.range;
    r.bitmap->drain_set_bits(rd.dirty_pages, r.range.pages());
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
  c.faults_handled = faults_.load(std::memory_order_relaxed);
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
