// DirtyTracker implementation over userfaultfd asynchronous
// write-protection plus the PAGEMAP_SCAN ioctl — the modern,
// kernel-resolved counterpart of what the paper built with mprotect +
// SIGSEGV.
//
// arm() write-protects each region with one UFFDIO_WRITEPROTECT.  In
// async mode (UFFD_FEATURE_WP_ASYNC) the kernel resolves a write fault
// on a protected page by itself: it lifts the protection and the
// writer continues, with no signal handler and no user-space thread.
// UFFD_FEATURE_WP_UNPOPULATED extends the protection to pages that
// were never populated, so first writes to them are caught as well.
// collect() asks PAGEMAP_SCAN which pages lost their protection
// (PAGE_IS_WRITTEN); when rearming, the same call re-protects exactly
// those pages.
//
// Requires Linux >= 6.7; probe-guarded (see uffd_supported()).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "memtrack/tracker.h"

namespace ickpt::memtrack {

class UffdEngine final : public DirtyTracker {
 public:
  /// Fails with kUnsupported when the kernel lacks asynchronous
  /// userfaultfd write-protection or PAGEMAP_SCAN.
  static Result<std::unique_ptr<UffdEngine>> create();

  ~UffdEngine() override;

  UffdEngine(const UffdEngine&) = delete;
  UffdEngine& operator=(const UffdEngine&) = delete;

  EngineKind kind() const noexcept override { return EngineKind::kUffd; }

  Result<RegionId> attach(std::span<std::byte> mem, std::string name) override;
  Status detach(RegionId id) override;
  Status arm() override;
  Result<DirtySnapshot> collect(bool rearm) override;
  EngineCounters counters() const override;
  std::size_t region_count() const override;
  std::size_t tracked_bytes() const override;

 private:
  UffdEngine(int uffd, int pagemap_fd);

  struct Region {
    std::string name;
    PageRange range;
  };

  int uffd_ = -1;
  int pagemap_fd_ = -1;

  mutable std::mutex mu_;
  std::map<RegionId, Region> regions_;
  RegionId next_id_ = 1;
  bool armed_ = false;
  std::uint64_t arms_ = 0;
  std::uint64_t collects_ = 0;
};

}  // namespace ickpt::memtrack
