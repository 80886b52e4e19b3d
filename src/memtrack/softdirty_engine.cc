#include "memtrack/softdirty_engine.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"

namespace ickpt::memtrack {

namespace {

obs::Counter& pagemap_scanned() {
  static obs::Counter& c =
      obs::registry().counter("memtrack.pagemap_pages_scanned");
  return c;
}

constexpr std::uint64_t kSoftDirtyBit = 1ull << 55;

/// One-shot runtime probe: map a page, clear refs, verify the write
/// sets the soft-dirty bit and that clearing resets it.
bool probe_soft_dirty() {
  int pagemap = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  int clear = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (pagemap < 0 || clear < 0) {
    if (pagemap >= 0) ::close(pagemap);
    if (clear >= 0) ::close(clear);
    return false;
  }
  bool ok = false;
  void* p = ::mmap(nullptr, page_size(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    *static_cast<volatile char*>(p) = 1;  // fault the page in first
    if (::write(clear, "4", 1) == 1) {
      *static_cast<volatile char*>(p) = 2;  // dirty it again
      std::uint64_t entry = 0;
      auto off = static_cast<off_t>(
          (reinterpret_cast<std::uintptr_t>(p) / page_size()) * 8);
      if (::pread(pagemap, &entry, sizeof entry, off) ==
              static_cast<ssize_t>(sizeof entry) &&
          (entry & kSoftDirtyBit) != 0) {
        // And verify clearing works.
        if (::write(clear, "4", 1) == 1 &&
            ::pread(pagemap, &entry, sizeof entry, off) ==
                static_cast<ssize_t>(sizeof entry) &&
            (entry & kSoftDirtyBit) == 0) {
          ok = true;
        }
      }
    }
    ::munmap(p, page_size());
  }
  ::close(pagemap);
  ::close(clear);
  return ok;
}

}  // namespace

bool soft_dirty_supported() {
  static const bool supported = probe_soft_dirty();
  return supported;
}

Result<std::unique_ptr<SoftDirtyEngine>> SoftDirtyEngine::create() {
  if (!soft_dirty_supported()) {
    return unsupported("kernel lacks usable soft-dirty support");
  }
  int pagemap = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (pagemap < 0) {
    return io_error(std::string("open pagemap: ") + std::strerror(errno));
  }
  int clear = ::open("/proc/self/clear_refs", O_WRONLY | O_CLOEXEC);
  if (clear < 0) {
    ::close(pagemap);
    return io_error(std::string("open clear_refs: ") + std::strerror(errno));
  }
  return std::unique_ptr<SoftDirtyEngine>(
      new SoftDirtyEngine(pagemap, clear));
}

SoftDirtyEngine::SoftDirtyEngine(int pagemap_fd, int clear_refs_fd)
    : pagemap_fd_(pagemap_fd), clear_refs_fd_(clear_refs_fd) {}

SoftDirtyEngine::~SoftDirtyEngine() {
  if (pagemap_fd_ >= 0) ::close(pagemap_fd_);
  if (clear_refs_fd_ >= 0) ::close(clear_refs_fd_);
}

Result<RegionId> SoftDirtyEngine::attach(std::span<std::byte> mem,
                                         std::string name) {
  if (mem.empty()) return invalid_argument("attach: empty range");
  auto addr = reinterpret_cast<std::uintptr_t>(mem.data());
  if (addr % page_size() != 0 || mem.size() % page_size() != 0) {
    return invalid_argument("attach: range must be page-aligned ('" + name +
                            "')");
  }
  std::lock_guard<std::mutex> lock(mu_);
  RegionId id = next_id_++;
  regions_.emplace(
      id, Region{id, std::move(name), PageRange{addr, addr + mem.size()}});
  return id;
}

Status SoftDirtyEngine::detach(RegionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (regions_.erase(id) == 0) return not_found("detach: unknown region id");
  return Status::ok();
}

Status SoftDirtyEngine::clear_refs() {
  if (::pwrite(clear_refs_fd_, "4", 1, 0) != 1) {
    // clear_refs ignores offsets but pwrite keeps the fd stateless.
    if (::write(clear_refs_fd_, "4", 1) != 1) {
      return io_error(std::string("clear_refs: ") + std::strerror(errno));
    }
  }
  return Status::ok();
}

Status SoftDirtyEngine::scan_region(const Region& r,
                                    std::vector<std::uint32_t>& out) {
  constexpr std::size_t kChunk = 2048;  // pagemap entries per read
  std::uint64_t buf[kChunk];
  const std::size_t npages = r.range.pages();
  const std::uint64_t first_pfn = r.range.begin / page_size();
  std::size_t done = 0;
  while (done < npages) {
    std::size_t n = std::min(kChunk, npages - done);
    auto off = static_cast<off_t>((first_pfn + done) * 8);
    ssize_t got = ::pread(pagemap_fd_, buf, n * 8, off);
    if (got < 0) {
      return io_error(std::string("pagemap read: ") + std::strerror(errno));
    }
    auto entries = static_cast<std::size_t>(got) / 8;
    if (entries == 0) break;
    for (std::size_t i = 0; i < entries; ++i) {
      if (buf[i] & kSoftDirtyBit) {
        out.push_back(static_cast<std::uint32_t>(done + i));
      }
    }
    done += entries;
    pages_scanned_ += entries;
    pagemap_scanned().inc(entries);
  }
  return Status::ok();
}

Status SoftDirtyEngine::arm() {
  std::lock_guard<std::mutex> lock(mu_);
  auto scope = detail::arm_stage().begin();
  ICKPT_RETURN_IF_ERROR(clear_refs());
  ++arms_;
  return Status::ok();
}

Result<DirtySnapshot> SoftDirtyEngine::collect(bool rearm) {
  std::lock_guard<std::mutex> lock(mu_);
  auto scope = detail::collect_stage().begin();
  DirtySnapshot snap;
  snap.regions.reserve(regions_.size());
  for (const auto& [id, r] : regions_) {
    RegionDirty rd;
    rd.id = id;
    rd.name = r.name;
    rd.range = r.range;
    ICKPT_RETURN_IF_ERROR(scan_region(r, rd.dirty_pages));
    snap.regions.push_back(std::move(rd));
  }
  ++collects_;
  if (rearm) {
    ICKPT_RETURN_IF_ERROR(clear_refs());
    ++arms_;
  }
  return snap;
}

EngineCounters SoftDirtyEngine::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineCounters c;
  c.arms = arms_;
  c.collects = collects_;
  c.pages_scanned = pages_scanned_;
  return c;
}

std::size_t SoftDirtyEngine::region_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return regions_.size();
}

std::size_t SoftDirtyEngine::tracked_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, r] : regions_) n += r.range.bytes();
  return n;
}

}  // namespace ickpt::memtrack
