// Storage backends for checkpoint data.
//
// The paper sizes checkpointing against two sinks (Section 3): the
// interconnect (QsNet II, 900 MB/s) and secondary storage (SCSI,
// 320 MB/s).  The backends here provide real persistence (file), fast
// in-memory storage (for diskless-style checkpointing and tests), a
// byte-counting null sink, a bandwidth-throttling decorator that
// models the 2004 ceilings, and a fault-injecting decorator for
// failure testing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace ickpt::obs {
class Counter;
class Histogram;
class Stage;
}  // namespace ickpt::obs

namespace ickpt::storage {

/// Sequential writer for one object.  close() must be called for the
/// object to become visible; destroying an unclosed writer aborts it.
class Writer {
 public:
  virtual ~Writer() = default;
  virtual Status write(std::span<const std::byte> data) = 0;
  virtual Status close() = 0;
  virtual std::uint64_t bytes_written() const noexcept = 0;
};

/// Sequential reader for one object.  Backends that can serve byte
/// ranges also implement read_at(); each restore decode shard uses it
/// to read its byte range into a buffer of its own, without streaming
/// the whole object.  Restore has no other way to read page payloads.
class Reader {
 public:
  virtual ~Reader() = default;
  /// Reads up to out.size() bytes; returns the count (0 at EOF).
  virtual Result<std::size_t> read(std::span<std::byte> out) = 0;
  virtual std::uint64_t size() const noexcept = 0;

  /// True when read_at() is implemented.
  virtual bool supports_read_at() const noexcept { return false; }

  /// Reads up to out.size() bytes starting at `offset`; returns the
  /// count (0 when offset is at or past EOF).  May reposition the
  /// sequential cursor — callers must not interleave read() and
  /// read_at() on the same reader.
  virtual Result<std::size_t> read_at(std::uint64_t offset,
                                      std::span<std::byte> out) {
    (void)offset;
    (void)out;
    return unsupported("read_at not supported by this backend");
  }

  // Unused in src/; kept since e2e_ledger's TimedReader overrides both.
  virtual bool supports_map() const noexcept { return false; }
  virtual Result<std::span<const std::byte>> map_at(std::uint64_t offset,
                                                    std::size_t length) {
    (void)offset;
    (void)length;
    return unsupported("map_at not supported by this backend");
  }
};

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual Result<std::unique_ptr<Writer>> create(const std::string& key) = 0;
  virtual Result<std::unique_ptr<Reader>> open(const std::string& key) = 0;
  virtual Status remove(const std::string& key) = 0;
  virtual Result<std::vector<std::string>> list() = 0;
  virtual bool exists(const std::string& key) = 0;

  /// Cumulative payload bytes accepted by close()d writers.
  virtual std::uint64_t total_bytes_stored() const noexcept = 0;
};

struct FileBackendOptions {
  /// Make close() crash-durable: fdatasync the object bytes before the
  /// rename and fsync the parent directory after it, so a successfully
  /// returned close() survives power loss — never a visible-but-empty
  /// or lost object.  The rename alone orders visibility only within a
  /// running kernel.  Costs two device syncs per object (counted in
  /// storage.fsync_calls, timed by the ckpt.publish_sync stage); turn
  /// off only for stores whose loss is acceptable (bench scratch,
  /// caches).
  bool durable_publish = true;
};

/// Files under a directory; keys may contain '/' (subdirectories are
/// created on demand).  Writes go to a ".tmp" sibling and are renamed
/// on close so a crash never leaves a half-visible checkpoint.
Result<std::unique_ptr<StorageBackend>> make_file_backend(
    const std::string& directory);
Result<std::unique_ptr<StorageBackend>> make_file_backend(
    const std::string& directory, const FileBackendOptions& options);

/// In-memory objects (thread-safe).
std::unique_ptr<StorageBackend> make_memory_backend();

/// Discards all data, keeps byte counts (bandwidth quantification).
std::unique_ptr<StorageBackend> make_null_backend();

/// Decorator: models a fixed-bandwidth device.  Accumulates the
/// virtual seconds each write would take at `bytes_per_second`; when
/// `really_sleep` is set it also stalls the caller (for wall-clock
/// experiments).  The decorated backend must outlive the decorator.
class ThrottledBackend : public StorageBackend {
 public:
  ThrottledBackend(StorageBackend& inner, double bytes_per_second,
                   bool really_sleep = false);

  Result<std::unique_ptr<Writer>> create(const std::string& key) override;
  Result<std::unique_ptr<Reader>> open(const std::string& key) override;
  Status remove(const std::string& key) override;
  Result<std::vector<std::string>> list() override;
  bool exists(const std::string& key) override;
  std::uint64_t total_bytes_stored() const noexcept override;

  /// Total modelled transfer time so far, in seconds.
  double modeled_seconds() const noexcept;

 private:
  class ThrottledWriter;
  StorageBackend& inner_;
  double bytes_per_second_;
  bool really_sleep_;
  std::shared_ptr<std::atomic<std::uint64_t>> throttled_bytes_;
};

/// Decorator: publishes per-object write metrics to the process-wide
/// obs registry under `prefix` — "<prefix>.objects" / "<prefix>.bytes"
/// counters, a "<prefix>.write" stage (create() to a successful
/// close(), as seen by the writing thread; histogram
/// "<prefix>.write_ns") and a "<prefix>.object_bytes" size histogram.
/// Pure pass-through otherwise; the decorated backend must outlive the
/// decorator.
class MeteredBackend : public StorageBackend {
 public:
  explicit MeteredBackend(StorageBackend& inner,
                          const std::string& prefix = "storage");

  Result<std::unique_ptr<Writer>> create(const std::string& key) override;
  Result<std::unique_ptr<Reader>> open(const std::string& key) override;
  Status remove(const std::string& key) override;
  Result<std::vector<std::string>> list() override;
  bool exists(const std::string& key) override;
  std::uint64_t total_bytes_stored() const noexcept override;

 private:
  class MeteredWriter;
  StorageBackend& inner_;
  // Registry-owned metric objects; immortal, so writers may hold them.
  obs::Counter& objects_;
  obs::Counter& bytes_;
  obs::Stage& write_;
  obs::Histogram& object_bytes_;
};

/// Decorator: fails writes after `fail_after_bytes` total payload
/// bytes (kIoError), for failure-injection tests.
class FaultyBackend : public StorageBackend {
 public:
  FaultyBackend(StorageBackend& inner, std::uint64_t fail_after_bytes);

  Result<std::unique_ptr<Writer>> create(const std::string& key) override;
  Result<std::unique_ptr<Reader>> open(const std::string& key) override;
  Status remove(const std::string& key) override;
  Result<std::vector<std::string>> list() override;
  bool exists(const std::string& key) override;
  std::uint64_t total_bytes_stored() const noexcept override;

 private:
  class FaultyWriter;
  StorageBackend& inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> budget_;
};

}  // namespace ickpt::storage
