// Building blocks of the end-to-end checkpoint ledger (e2e_ledger).
//
// Everything here sits *outside* the library: the ledger measures the
// checkpointer through its public interfaces only.
//
//   * SpanLog        — lossless span recorder.  Every finished span is
//                      appended to an unbounded list and folded into a
//                      per-name count/total/max rollup; nothing goes
//                      through a fixed-size ring, so nothing is dropped.
//   * TimedTracker   — DirtyTracker decorator: spans arm/collect/attach/
//                      detach and counts the dirty pages it hands out.
//   * UntrackedTracker — a DirtyTracker that tracks nothing, for the
//                      "same app without a tracker" baseline run.
//   * TimedBackend   — StorageBackend decorator: spans every create/
//                      write/close/open/read call and counts calls and
//                      bytes.
//   * digest/verify  — per-block CRC digest of live memory and its
//                      comparison against a restored state.
//   * interval math  — union/overlap of span intervals, used to turn
//                      spans into per-layer self times.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "checkpoint/restore.h"
#include "common/status.h"
#include "memtrack/tracker.h"
#include "region/address_space.h"
#include "storage/backend.h"

namespace ledger {

using namespace ickpt;

/// Monotonic nanoseconds (steady_clock).
std::uint64_t now_ns() noexcept;

// ------------------------------------------------------------------ spans

class SpanLog {
 public:
  using NameId = std::uint16_t;

  struct Span {
    NameId name = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  struct Rollup {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };

  /// RAII span.  The parent is the innermost open span on this thread,
  /// or the log's ambient parent when the thread has none (worker
  /// threads inside a library call).
  class Scope {
   public:
    Scope(SpanLog& log, NameId name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const noexcept { return span_.id; }

   private:
    SpanLog& log_;
    Span span_;
    std::uint64_t saved_current_ = 0;
  };

  /// Intern a span name (idempotent).
  NameId name(std::string_view name);

  /// Parent for spans begun on threads with no open span.
  void set_ambient_parent(std::uint64_t id) noexcept {
    ambient_.store(id, std::memory_order_relaxed);
  }

  std::uint64_t begun() const noexcept {
    return begun_.load(std::memory_order_relaxed);
  }
  std::uint64_t recorded() const;
  std::vector<Span> spans() const;
  std::map<std::string, Rollup> rollups() const;
  /// [start, end) of every finished span with this name.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals(
      std::string_view name) const;

  /// Write every span (name, id, parent, start/end relative to the first
  /// span) plus the rollups as one JSON document.
  Status write_json(const std::string& path) const;

 private:
  void finish(const Span& span);

  mutable std::mutex mu_;
  std::vector<std::string> names_;  // guarded by mu_
  std::vector<Span> spans_;         // guarded by mu_
  std::vector<Rollup> rollups_;     // guarded by mu_, indexed by NameId
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> begun_{0};
  std::atomic<std::uint64_t> ambient_{0};
};

// --------------------------------------------------------- interval math

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Sorted, disjoint union of `in`.
std::vector<Interval> merge(std::vector<Interval> in);
/// Total length of a merged interval list.
std::uint64_t measure(const std::vector<Interval>& merged);
/// Length of the intersection of two merged interval lists.
std::uint64_t overlap(const std::vector<Interval>& a,
                      const std::vector<Interval>& b);

// --------------------------------------------------------------- trackers

/// DirtyTracker decorator: forwards every call and spans the ones that
/// cost time (memtrack.arm / memtrack.collect / memtrack.attach /
/// memtrack.detach).  Counts the dirty pages collect() returns.
class TimedTracker final : public memtrack::DirtyTracker {
 public:
  TimedTracker(memtrack::DirtyTracker& inner, SpanLog& log);

  memtrack::EngineKind kind() const noexcept override { return inner_.kind(); }
  Result<memtrack::RegionId> attach(std::span<std::byte> mem,
                                    std::string name) override;
  Status detach(memtrack::RegionId id) override;
  Status arm() override;
  Result<memtrack::DirtySnapshot> collect(bool rearm) override;
  void note_write(const void* addr, std::size_t len) override {
    inner_.note_write(addr, len);
  }
  memtrack::EngineCounters counters() const override {
    return inner_.counters();
  }
  std::size_t region_count() const override { return inner_.region_count(); }
  std::size_t tracked_bytes() const override { return inner_.tracked_bytes(); }

  std::uint64_t collected_pages() const noexcept { return collected_pages_; }
  std::uint64_t errors() const noexcept { return errors_; }

 private:
  memtrack::DirtyTracker& inner_;
  SpanLog& log_;
  SpanLog::NameId n_arm_, n_collect_, n_attach_, n_detach_;
  std::uint64_t collected_pages_ = 0;
  std::uint64_t errors_ = 0;
};

/// A tracker that tracks nothing: attach hands out ids, collect returns
/// an empty snapshot.  Runs an app with no dirty-page tracking at all.
class UntrackedTracker final : public memtrack::DirtyTracker {
 public:
  memtrack::EngineKind kind() const noexcept override {
    return memtrack::EngineKind::kExplicit;
  }
  Result<memtrack::RegionId> attach(std::span<std::byte> mem,
                                    std::string name) override;
  Status detach(memtrack::RegionId id) override;
  Status arm() override { return Status::ok(); }
  Result<memtrack::DirtySnapshot> collect(bool) override {
    return memtrack::DirtySnapshot{};
  }
  memtrack::EngineCounters counters() const override { return {}; }
  std::size_t region_count() const override { return regions_.size(); }
  std::size_t tracked_bytes() const override;

 private:
  std::map<memtrack::RegionId, std::size_t> regions_;
  memtrack::RegionId next_ = 0;
};

// ---------------------------------------------------------------- storage

/// Call and byte counts of one TimedBackend.  Atomic: the server-side
/// instance is driven from the server thread, restore reads from decode
/// workers.
struct IoCounts {
  std::atomic<std::uint64_t> creates{0};
  std::atomic<std::uint64_t> objects{0};       ///< writers closed OK
  std::atomic<std::uint64_t> write_calls{0};
  std::atomic<std::uint64_t> bytes_written{0}; ///< payload of closed writers
  std::atomic<std::uint64_t> opens{0};
  std::atomic<std::uint64_t> read_calls{0};    ///< read + read_at + map_at
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> errors{0};        ///< calls that failed
};

/// StorageBackend decorator: forwards every call, spans
/// <prefix>.create/.write/.close/.open/.read and counts calls and bytes.
/// The decorated backend and the log must outlive the decorator and
/// every Writer/Reader it hands out.
class TimedBackend final : public storage::StorageBackend {
 public:
  TimedBackend(storage::StorageBackend& inner, SpanLog& log,
               std::string_view prefix);

  Result<std::unique_ptr<storage::Writer>> create(
      const std::string& key) override;
  Result<std::unique_ptr<storage::Reader>> open(
      const std::string& key) override;
  Status remove(const std::string& key) override;
  Result<std::vector<std::string>> list() override;
  bool exists(const std::string& key) override;
  std::uint64_t total_bytes_stored() const noexcept override {
    return inner_.total_bytes_stored();
  }

  const IoCounts& counts() const noexcept { return counts_; }

  struct Names {
    SpanLog::NameId create, write, close, open, read;
  };

 private:
  storage::StorageBackend& inner_;
  SpanLog& log_;
  Names names_;
  IoCounts counts_;
};

// ---------------------------------------------------------------- digests

struct BlockDigest {
  std::uint32_t id = 0;
  std::string name;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};
using MemoryDigest = std::vector<BlockDigest>;  ///< ascending by id

/// Digest of every live block of `space`.
MemoryDigest digest(region::AddressSpace& space);

/// Compare a restored state with a digest, block by block.  Returns one
/// line per mismatch (missing/extra block, size, name or content); an
/// empty result means the restore is byte-identical to the digest.
std::vector<std::string> verify(const MemoryDigest& expected,
                                const checkpoint::RestoredState& restored);

}  // namespace ledger
