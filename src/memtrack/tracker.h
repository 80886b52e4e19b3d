// DirtyTracker: the common interface over the dirty-page tracking
// engines.
//
// This is the reproduction of the paper's instrumentation library
// (Section 4.2): regions of application memory are attached, an
// interval is armed (pages write-protected),
// the application runs, and collect() returns the Incremental Working
// Set — the set of pages written during the interval.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/page.h"
#include "common/status.h"
#include "obs/stage.h"

namespace ickpt::memtrack {

using RegionId = std::uint32_t;
inline constexpr RegionId kInvalidRegion = 0xffffffffu;

// The values are fixed because parameterized test names print them.
enum class EngineKind {
  /// mprotect + SIGSEGV write faults — the paper's mechanism.
  kMProtect = 0,
  /// userfaultfd async write-protection, resolved in the kernel and read
  /// back with PAGEMAP_SCAN (Linux >= 6.7).
  kUffd = 2,
  /// Application-annotated writes; deterministic, for tests and replay.
  kExplicit = 3,
};

std::string_view to_string(EngineKind kind) noexcept;

/// Dirty pages of one region at collection time.
struct RegionDirty {
  RegionId id = kInvalidRegion;
  std::string name;
  PageRange range;                        ///< region extent when collected
  std::vector<std::uint32_t> dirty_pages; ///< page indices within range

  std::size_t dirty_bytes() const noexcept {
    return dirty_pages.size() * page_size();
  }
};

/// One Incremental Working Set sample across all attached regions.
struct DirtySnapshot {
  std::vector<RegionDirty> regions;

  std::size_t dirty_pages() const noexcept {
    std::size_t n = 0;
    for (const auto& r : regions) n += r.dirty_pages.size();
    return n;
  }
  std::size_t dirty_bytes() const noexcept { return dirty_pages() * page_size(); }
  std::size_t tracked_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& r : regions) n += r.range.bytes();
    return n;
  }
};

/// Engine health/cost counters for the intrusiveness analysis (§6.5).
struct EngineCounters {
  /// SIGSEGV faults absorbed (mprotect; uffd faults never reach user
  /// space, so it stays 0 there).
  std::uint64_t faults_handled = 0;
  std::uint64_t arms = 0;      ///< intervals armed
  std::uint64_t collects = 0;  ///< snapshots taken
};

class DirtyTracker {
 public:
  virtual ~DirtyTracker() = default;

  virtual EngineKind kind() const noexcept = 0;

  /// Attach a page-aligned memory range for tracking.  `mem` must stay
  /// mapped until detach().  Newly attached regions are armed if and
  /// only if the tracker is currently armed.
  virtual Result<RegionId> attach(std::span<std::byte> mem,
                                  std::string name) = 0;

  /// Stop tracking a region and restore full access to its pages.
  virtual Status detach(RegionId id) = 0;

  /// Begin a tracking interval: clear dirty state and arm protection on
  /// every attached region.
  virtual Status arm() = 0;

  /// Collect the dirty set accumulated since arm().  When `rearm` is
  /// true the tracker atomically starts the next interval (the paper's
  /// alarm-handler behaviour: record, reset, re-protect).
  virtual Result<DirtySnapshot> collect(bool rearm) = 0;

  /// Explicit write notification.  Only the kExplicit engine uses it;
  /// hardware-backed engines ignore it, so proxy kernels can call it
  /// unconditionally.
  virtual void note_write(const void* /*addr*/, std::size_t /*len*/) {}

  virtual EngineCounters counters() const = 0;

  /// Number of currently attached regions.
  virtual std::size_t region_count() const = 0;

  /// Total tracked bytes across attached regions.
  virtual std::size_t tracked_bytes() const = 0;
};

/// Factory.  kUffd returns kUnsupported when the kernel lacks the
/// mechanism (probed at first use).
Result<std::unique_ptr<DirtyTracker>> make_tracker(EngineKind kind);

/// True if async userfaultfd write-protection and PAGEMAP_SCAN work
/// here (see uffd_engine.h).
bool uffd_supported();

namespace detail {

/// The stages every kernel-backed engine times arm() and collect() with.
inline obs::Stage& arm_stage() {
  static obs::Stage& s = obs::stage("memtrack.arm", obs::TraceCat::kMemtrack);
  return s;
}
inline obs::Stage& collect_stage() {
  static obs::Stage& s =
      obs::stage("memtrack.collect", obs::TraceCat::kMemtrack);
  return s;
}

}  // namespace detail

}  // namespace ickpt::memtrack
