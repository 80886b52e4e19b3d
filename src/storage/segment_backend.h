// Log-structured segment storage backend.
//
// One-file-per-object (FileBackend) dies at millions of small
// incrementals: every object costs an open, a rename, two syncs and a
// directory entry, and listing degenerates into a recursive scan.
// SegmentBackend packs objects into large append-only segment files
// instead — the design of stdchk's checkpoint store and the kivaloo
// lbs append-only block store:
//
//   * writes are strictly sequential appends into the active segment;
//     a commit is one record append plus (when durable) one fdatasync
//     on an already-open fd — no per-object open/rename/dir-sync;
//   * an in-memory index (key -> segment/offset/length) is rebuilt on
//     open, from a validated on-disk footer for sealed segments and by
//     a record scan (torn tail dropped) for unsealed ones;
//   * reads are served by pread straight out of the segment, so
//     Reader::read_at works exactly as with FileBackend;
//   * delete appends a tombstone; space comes back via compact(),
//     which rewrites the live objects of mostly-dead segments into the
//     active one and unlinks the husk — restartable and idempotent
//     (newest record wins on rebuild, so a crash mid-compaction leaves
//     harmless duplicates, never data loss).
//
// On-disk layout is documented in docs/FORMAT.md ("Segment store");
// the durability contract is DESIGN.md §12.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/backend.h"

namespace ickpt::storage {

struct SegmentBackendOptions {
  /// Roll to a fresh segment once the active one exceeds this many
  /// bytes (the rolled segment is sealed with a footer).  Large enough
  /// to amortize per-file cost, small enough that compaction rewrites
  /// stay cheap.
  std::uint64_t segment_bytes = 64ull << 20;

  /// fdatasync the segment after every committed record, so close()
  /// returning OK means the object survives a crash (same contract as
  /// FileBackendOptions::durable_publish).  Off = visibility without
  /// durability until the next sync()/seal; only for stores whose loss
  /// is acceptable.
  bool durable = true;

  /// compact() rewrites a sealed segment when its live fraction falls
  /// strictly below this threshold.
  double compact_live_fraction = 0.5;
};

/// Aggregate shape of the store, for tests, fsck and capacity math.
struct SegmentStoreStats {
  std::uint64_t segments = 0;        ///< segment files on disk
  std::uint64_t live_objects = 0;    ///< keys in the index
  std::uint64_t live_bytes = 0;      ///< payload bytes still referenced
  std::uint64_t disk_bytes = 0;      ///< total segment file bytes
  std::uint64_t torn_records = 0;    ///< records dropped by open() scans
};

class SegmentBackend : public StorageBackend {
 public:
  ~SegmentBackend() override = default;

  /// Open (or create) the store under `directory`.  Rebuilds the index
  /// from every `seg-*.seg` present; a torn tail on the last-written
  /// segment is ignored (the interrupted record never committed).
  static Result<std::unique_ptr<SegmentBackend>> open_store(
      const std::string& directory, const SegmentBackendOptions& options);

  /// Force the unsynced tail of the active segment to the device.
  /// A no-op when `durable` already syncs every commit.
  virtual Status sync() = 0;

  /// Segment GC: rewrite the live objects of every sealed segment
  /// whose live fraction is below options.compact_live_fraction into
  /// the active segment, then unlink it.  Safe to re-run at any time;
  /// a crash between the rewrite and the unlink is repaired by the
  /// next open (newer copies win) + compact (re-unlinks).
  virtual Status compact() = 0;

  virtual SegmentStoreStats stats() const = 0;
};

/// Factory matching make_file_backend's shape.
Result<std::unique_ptr<StorageBackend>> make_segment_backend(
    const std::string& directory);
Result<std::unique_ptr<StorageBackend>> make_segment_backend(
    const std::string& directory, const SegmentBackendOptions& options);

/// True when `directory` holds a segment store (used by fsck and the
/// CLI to auto-select the backend for an existing store).
bool segment_store_present(const std::string& directory);

}  // namespace ickpt::storage
