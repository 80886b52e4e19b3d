#include "storage/segment_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <vector>

#include "common/crc32.h"
#include "common/io_util.h"
#include "obs/metrics.h"
#include "obs/stage.h"

namespace ickpt::storage {

namespace fs = std::filesystem;

namespace {

using ioutil::pread_exact;

// ------------------------------------------------------------ on-disk
// Authoritative prose twin: docs/FORMAT.md, "Segment store layout".

#pragma pack(push, 1)

/// Precedes every record (object or tombstone).  header_crc covers the
/// first 24 bytes plus the key, so a torn or misaligned header is
/// rejected before its lengths are trusted.
struct RecordHeader {
  std::uint32_t magic = 0x47455349;  // "ISEG"
  std::uint8_t type = 0;             // 1 object, 2 tombstone
  std::uint8_t reserved[3] = {0, 0, 0};
  std::uint32_t key_len = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
  std::uint32_t header_crc = 0;
};
static_assert(sizeof(RecordHeader) == 28);

/// One footer entry per record, in record order (replay order matters:
/// later records supersede earlier ones).
struct FooterEntry {
  std::uint8_t type = 0;
  std::uint32_t key_len = 0;
  std::uint64_t payload_off = 0;  // absolute offset of payload in segment
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};
static_assert(sizeof(FooterEntry) == 25);

/// Fixed-size trailer at EOF of a sealed segment; locates and guards
/// the entries block so open() can index without scanning records.
struct FooterTrailer {
  std::uint32_t magic = 0x52544649;  // "IFTR"
  std::uint32_t entry_count = 0;
  std::uint64_t entries_bytes = 0;
  std::uint32_t entries_crc = 0;
  std::uint32_t end_magic = 0x444e4549;  // "IEND"
};
static_assert(sizeof(FooterTrailer) == 24);

#pragma pack(pop)

constexpr std::uint8_t kObject = 1;
constexpr std::uint8_t kTombstone = 2;
constexpr std::uint32_t kMaxKeyLen = 4096;

std::string segment_name(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%010llu.seg",
                static_cast<unsigned long long>(id));
  return buf;
}

/// seg-<10 digits>.seg -> id; nullopt for anything else.
bool parse_segment_name(const std::string& name, std::uint64_t* id) {
  if (name.size() != 18 || name.rfind("seg-", 0) != 0 ||
      name.compare(14, 4, ".seg") != 0) {
    return false;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 4; i < 14; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

std::uint32_t header_crc(const RecordHeader& h, std::string_view key) {
  Crc32 crc;
  crc.update(&h, offsetof(RecordHeader, header_crc));
  crc.update(key.data(), key.size());
  return crc.value();
}

struct SegmentMetrics {
  obs::Counter& fsync_calls;
  obs::Stage& publish_sync;  ///< the file backend's stage, by name
  obs::Counter& appends;
  obs::Counter& seals;
  obs::Counter& compactions;
  obs::Counter& torn_records;

  static SegmentMetrics& get() {
    auto& r = obs::registry();
    static SegmentMetrics m{
        r.counter("storage.fsync_calls"),
        obs::stage("ckpt.publish_sync", obs::TraceCat::kStorage),
        r.counter("storage.segment_appends"),
        r.counter("storage.segment_seals"),
        r.counter("storage.segment_compactions"),
        r.counter("storage.segment_torn_records")};
    return m;
  }
};

// ------------------------------------------------------------ in-memory

/// One segment file.  Immutable once it stops being the active
/// segment; readers share it via shared_ptr so compaction can unlink
/// the path while reads are in flight (the fd keeps the inode alive).
struct SegmentFile {
  std::uint64_t id = 0;
  fs::path path;
  int fd = -1;                    ///< O_RDWR (active) or O_RDONLY
  std::uint64_t record_bytes = 0; ///< bytes of record data (no footer)
  std::uint64_t live_bytes = 0;   ///< payload bytes the index points at
  bool sealed = false;

  ~SegmentFile() {
    if (fd >= 0) ::close(fd);
  }
};

using SegPtr = std::shared_ptr<SegmentFile>;

/// A record as known to the index / replay.
struct Rec {
  std::uint8_t type = 0;
  std::string key;
  std::uint64_t payload_off = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

struct IndexEntry {
  SegPtr seg;
  std::uint64_t payload_off = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

// -------------------------------------------------------------- reader

/// Reader over one committed object: read()/read_at() pread the
/// object's byte range out of the shared segment fd.
class SegmentReader final : public Reader {
 public:
  SegmentReader(SegPtr seg, std::uint64_t payload_off,
                std::uint64_t payload_len)
      : seg_(std::move(seg)), off_(payload_off), len_(payload_len) {}

  Result<std::size_t> read(std::span<std::byte> out) override {
    ICKPT_ASSIGN_OR_RETURN(got, read_at(pos_, out));
    pos_ += got;
    return got;
  }

  bool supports_read_at() const noexcept override { return true; }
  Result<std::size_t> read_at(std::uint64_t offset,
                              std::span<std::byte> out) override {
    if (offset >= len_) return std::size_t{0};
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(out.size(),
                                                         len_ - offset));
    ICKPT_RETURN_IF_ERROR(pread_exact(seg_->fd, out.data(), n, off_ + offset,
                                      seg_->path.native()));
    return n;
  }

  std::uint64_t size() const noexcept override { return len_; }

 private:
  SegPtr seg_;
  std::uint64_t off_, len_;
  std::uint64_t pos_ = 0;
};

// ------------------------------------------------------------- backend

class SegmentBackendImpl final : public SegmentBackend {
 public:
  SegmentBackendImpl(fs::path dir, SegmentBackendOptions options)
      : dir_(std::move(dir)), options_(options) {}

  ~SegmentBackendImpl() override {
    std::lock_guard<std::mutex> lock(mu_);
    (void)seal_active_locked();  // best effort: footer for fast reopen
  }

  Status init();

  Result<std::unique_ptr<Writer>> create(const std::string& key) override;

  Result<std::unique_ptr<Reader>> open(const std::string& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return not_found("no such object: " + key);
    return std::unique_ptr<Reader>(new SegmentReader(
        it->second.seg, it->second.payload_off, it->second.payload_len));
  }

  Status remove(const std::string& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return not_found("no such object: " + key);
    ICKPT_RETURN_IF_ERROR(append_locked(kTombstone, key, {}, 0));
    drop_entry_locked(it);
    return Status::ok();
  }

  Result<std::vector<std::string>> list() override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> keys;
    keys.reserve(index_.size());
    for (const auto& [k, e] : index_) keys.push_back(k);
    return keys;  // std::map iterates sorted
  }

  bool exists(const std::string& key) override {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.count(key) > 0;
  }

  std::uint64_t total_bytes_stored() const noexcept override {
    return total_.load(std::memory_order_relaxed);
  }

  Status sync() override {
    std::lock_guard<std::mutex> lock(mu_);
    return sync_active_locked();
  }

  Status compact() override;

  SegmentStoreStats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    SegmentStoreStats s;
    s.segments = segments_.size() + (active_ != nullptr ? 1 : 0);
    s.live_objects = index_.size();
    s.torn_records = torn_records_;
    for (const auto& [k, e] : index_) s.live_bytes += e.payload_len;
    auto add_disk = [&s](const SegPtr& seg) {
      std::error_code ec;
      const auto sz = fs::file_size(seg->path, ec);
      if (!ec) s.disk_bytes += sz;
    };
    for (const auto& [id, seg] : segments_) add_disk(seg);
    if (active_ != nullptr) add_disk(active_);
    return s;
  }

  /// Commit one buffered object (Writer::close path).
  Status commit(const std::string& key, std::span<const std::byte> payload) {
    if (key.empty() || key.size() > kMaxKeyLen) {
      return invalid_argument("bad key length: " + key);
    }
    const std::uint32_t crc = crc32(payload);
    std::lock_guard<std::mutex> lock(mu_);
    ICKPT_RETURN_IF_ERROR(append_locked(kObject, key, payload, crc));
    auto it = index_.find(key);
    if (it != index_.end()) drop_entry_locked(it);
    // append_locked may have rolled to a fresh segment, so derive the
    // offset from where the record actually landed.
    index_[key] = IndexEntry{active_, active_end_ - payload.size(),
                             payload.size(), crc};
    active_->live_bytes += payload.size();
    total_.fetch_add(payload.size(), std::memory_order_relaxed);
    return Status::ok();
  }

 private:
  class SegmentWriter;

  /// Remove `it` from the index and return the accounting to its
  /// segment.  Caller holds mu_.
  void drop_entry_locked(std::map<std::string, IndexEntry>::iterator it) {
    it->second.seg->live_bytes -= it->second.payload_len;
    index_.erase(it);
  }

  /// Append one record to the active segment (rolling/creating it as
  /// needed) and, when durable, sync it.  Caller holds mu_.
  Status append_locked(std::uint8_t type, const std::string& key,
                       std::span<const std::byte> payload,
                       std::uint32_t payload_crc) {
    if (active_ == nullptr || active_end_ >= options_.segment_bytes) {
      ICKPT_RETURN_IF_ERROR(seal_active_locked());
      ICKPT_RETURN_IF_ERROR(start_segment_locked());
    }
    RecordHeader h;
    h.type = type;
    h.key_len = static_cast<std::uint32_t>(key.size());
    h.payload_len = payload.size();
    h.payload_crc = payload_crc;
    h.header_crc = header_crc(h, key);

    // One contiguous append: header || key || payload.  Sequential
    // writes only — the whole point of the log structure.
    buf_.clear();
    buf_.reserve(sizeof h + key.size() +
                 (payload.size() < (1u << 20) ? payload.size() : 0));
    const auto* hb = reinterpret_cast<const std::byte*>(&h);
    buf_.insert(buf_.end(), hb, hb + sizeof h);
    const auto* kb = reinterpret_cast<const std::byte*>(key.data());
    buf_.insert(buf_.end(), kb, kb + key.size());
    auto st = ioutil::write_full(active_->fd, buf_);
    if (st.is_ok() && !payload.empty()) {
      st = ioutil::write_full(active_->fd, payload);
    }
    if (!st.is_ok()) {
      // The tail is now garbage; the next open()'s scan drops it.  Put
      // the cursor back so in-process retries overwrite it too.
      (void)::ftruncate(active_->fd, static_cast<off_t>(active_end_));
      (void)::lseek(active_->fd, static_cast<off_t>(active_end_), SEEK_SET);
      return st;
    }
    active_end_ += sizeof h + key.size() + payload.size();
    active_->record_bytes = active_end_;
    active_records_.push_back(Rec{type, key,
                                  active_end_ - payload.size(),
                                  payload.size(), payload_crc});
    unsynced_ = true;
    SegmentMetrics::get().appends.inc();
    if (options_.durable) ICKPT_RETURN_IF_ERROR(sync_active_locked());
    return Status::ok();
  }

  Status sync_active_locked() {
    if (!unsynced_ || active_ == nullptr) return Status::ok();
    auto& m = SegmentMetrics::get();
    auto scope = m.publish_sync.begin();
    m.fsync_calls.inc();
    if (::fdatasync(active_->fd) != 0) {
      return io_error("fdatasync failed: " + active_->path.string());
    }
    unsynced_ = false;
    return Status::ok();
  }

  Status start_segment_locked() {
    auto seg = std::make_shared<SegmentFile>();
    seg->id = next_id_++;
    seg->path = dir_ / segment_name(seg->id);
    seg->fd = ::open(seg->path.c_str(),
                     O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (seg->fd < 0) {
      return io_error("cannot create segment: " + seg->path.string() + ": " +
                      std::strerror(errno));
    }
    // The segment file's existence must itself survive a crash before
    // anything committed into it can be trusted durable.
    if (options_.durable) {
      int dfd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
      if (dfd >= 0) {
        SegmentMetrics::get().fsync_calls.inc();
        (void)::fsync(dfd);
        ::close(dfd);
      }
    }
    active_ = std::move(seg);
    active_end_ = 0;
    active_records_.clear();
    unsynced_ = false;
    return Status::ok();
  }

  /// Write the footer for the active segment and retire it to the
  /// read-only set.  Caller holds mu_.
  Status seal_active_locked() {
    if (active_ == nullptr) return Status::ok();
    // Entries block, in record order.
    buf_.clear();
    for (const Rec& r : active_records_) {
      FooterEntry e;
      e.type = r.type;
      e.key_len = static_cast<std::uint32_t>(r.key.size());
      e.payload_off = r.payload_off;
      e.payload_len = r.payload_len;
      e.payload_crc = r.payload_crc;
      const auto* eb = reinterpret_cast<const std::byte*>(&e);
      buf_.insert(buf_.end(), eb, eb + sizeof e);
      const auto* kb = reinterpret_cast<const std::byte*>(r.key.data());
      buf_.insert(buf_.end(), kb, kb + r.key.size());
    }
    FooterTrailer t;
    t.entry_count = static_cast<std::uint32_t>(active_records_.size());
    t.entries_bytes = buf_.size();
    t.entries_crc = crc32(buf_);
    const auto* tb = reinterpret_cast<const std::byte*>(&t);
    buf_.insert(buf_.end(), tb, tb + sizeof t);
    ICKPT_RETURN_IF_ERROR(ioutil::write_full(active_->fd, buf_));
    unsynced_ = true;
    ICKPT_RETURN_IF_ERROR(sync_active_locked());
    active_->sealed = true;
    SegmentMetrics::get().seals.inc();
    segments_[active_->id] = std::move(active_);
    active_ = nullptr;
    active_records_.clear();
    active_end_ = 0;
    return Status::ok();
  }

  /// Records of an on-disk segment, via footer when sealed, else by a
  /// validating scan.  `validate_payloads` re-CRCs every payload (used
  /// on open for unsealed segments, where the tail may be torn).
  Result<std::vector<Rec>> load_records(const SegPtr& seg,
                                        std::uint64_t file_size,
                                        bool* sealed_out);

  Status replay_segment_locked(const SegPtr& seg,
                               const std::vector<Rec>& recs) {
    for (const Rec& r : recs) {
      auto it = index_.find(r.key);
      if (it != index_.end()) drop_entry_locked(it);
      if (r.type == kObject) {
        index_[r.key] = IndexEntry{seg, r.payload_off, r.payload_len,
                                   r.payload_crc};
        seg->live_bytes += r.payload_len;
      }
    }
    return Status::ok();
  }

  fs::path dir_;
  SegmentBackendOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, IndexEntry> index_;
  std::map<std::uint64_t, SegPtr> segments_;  ///< sealed / read-only
  SegPtr active_;
  std::uint64_t active_end_ = 0;
  std::vector<Rec> active_records_;
  std::vector<std::byte> buf_;  ///< append/footer scratch (under mu_)
  std::uint64_t next_id_ = 0;
  std::uint64_t torn_records_ = 0;
  bool unsynced_ = false;
  std::atomic<std::uint64_t> total_{0};
};

/// Buffers the object, then commits it as one record on close().
/// Objects are bounded by checkpoint size, which the encode pipeline
/// already materializes in memory — same cost profile as MemoryWriter.
class SegmentBackendImpl::SegmentWriter final : public Writer {
 public:
  SegmentWriter(SegmentBackendImpl& backend, std::string key)
      : backend_(backend), key_(std::move(key)) {}

  Status write(std::span<const std::byte> data) override {
    if (closed_) return failed_precondition("write after close");
    buf_.insert(buf_.end(), data.begin(), data.end());
    return Status::ok();
  }

  Status close() override {
    if (closed_) return Status::ok();
    closed_ = true;
    bytes_ = buf_.size();
    auto st = backend_.commit(key_, buf_);
    buf_.clear();
    buf_.shrink_to_fit();
    return st;
  }

  std::uint64_t bytes_written() const noexcept override {
    return closed_ ? bytes_ : buf_.size();
  }

 private:
  SegmentBackendImpl& backend_;
  std::string key_;
  std::vector<std::byte> buf_;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

Result<std::unique_ptr<Writer>> SegmentBackendImpl::create(
    const std::string& key) {
  if (key.empty() || key.size() > kMaxKeyLen) {
    return invalid_argument("bad key length: " + key);
  }
  return std::unique_ptr<Writer>(new SegmentWriter(*this, key));
}

Result<std::vector<Rec>> SegmentBackendImpl::load_records(
    const SegPtr& seg, std::uint64_t file_size, bool* sealed_out) {
  std::vector<Rec> recs;
  *sealed_out = false;

  // Sealed fast path: trailer at EOF locates the entries block.
  if (file_size >= sizeof(FooterTrailer)) {
    FooterTrailer t;
    auto st = pread_exact(seg->fd, &t, sizeof t,
                          file_size - sizeof t, seg->path);
    if (st.is_ok() && t.magic == FooterTrailer{}.magic &&
        t.end_magic == FooterTrailer{}.end_magic &&
        t.entries_bytes <= file_size - sizeof t) {
      std::vector<std::byte> entries(t.entries_bytes);
      const std::uint64_t entries_off =
          file_size - sizeof t - t.entries_bytes;
      st = pread_exact(seg->fd, entries.data(), entries.size(), entries_off,
                       seg->path);
      if (st.is_ok() && crc32(entries) == t.entries_crc) {
        std::size_t off = 0;
        bool ok = true;
        for (std::uint32_t i = 0; i < t.entry_count && ok; ++i) {
          if (off + sizeof(FooterEntry) > entries.size()) {
            ok = false;
            break;
          }
          FooterEntry e;
          std::memcpy(&e, entries.data() + off, sizeof e);
          off += sizeof e;
          if (e.key_len > kMaxKeyLen || off + e.key_len > entries.size() ||
              e.payload_off + e.payload_len > entries_off) {
            ok = false;
            break;
          }
          Rec r;
          r.type = e.type;
          r.key.assign(reinterpret_cast<const char*>(entries.data()) + off,
                       e.key_len);
          off += e.key_len;
          r.payload_off = e.payload_off;
          r.payload_len = e.payload_len;
          r.payload_crc = e.payload_crc;
          recs.push_back(std::move(r));
        }
        if (ok && off == entries.size()) {
          seg->record_bytes = entries_off;
          *sealed_out = true;
          return recs;
        }
        recs.clear();  // corrupt footer: fall through to the scan
      }
    }
  }

  // Scan path: walk records from the front; the first structurally or
  // CRC-invalid record ends the valid prefix (an append the crash
  // interrupted never committed — "complete object or nothing").
  std::uint64_t off = 0;
  std::vector<std::byte> payload;
  while (off + sizeof(RecordHeader) <= file_size) {
    RecordHeader h;
    ICKPT_RETURN_IF_ERROR(pread_exact(seg->fd, &h, sizeof h, off, seg->path));
    if (h.magic != RecordHeader{}.magic ||
        (h.type != kObject && h.type != kTombstone) ||
        h.key_len == 0 || h.key_len > kMaxKeyLen) {
      break;
    }
    const std::uint64_t total = sizeof h + h.key_len + h.payload_len;
    if (off + total > file_size) break;
    std::string key(h.key_len, '\0');
    ICKPT_RETURN_IF_ERROR(
        pread_exact(seg->fd, key.data(), key.size(), off + sizeof h,
                    seg->path));
    if (header_crc(h, key) != h.header_crc) break;
    const std::uint64_t payload_off = off + sizeof h + h.key_len;
    if (h.payload_len > 0) {
      payload.resize(h.payload_len);
      ICKPT_RETURN_IF_ERROR(pread_exact(seg->fd, payload.data(),
                                        payload.size(), payload_off,
                                        seg->path));
      if (crc32(payload) != h.payload_crc) break;
    }
    recs.push_back(Rec{h.type, std::move(key), payload_off, h.payload_len,
                       h.payload_crc});
    off += total;
  }
  if (off < file_size) {
    ++torn_records_;
    SegmentMetrics::get().torn_records.inc();
  }
  seg->record_bytes = off;
  return recs;
}

Status SegmentBackendImpl::init() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return io_error("cannot create " + dir_.string() + ": " + ec.message());
  }

  std::map<std::uint64_t, fs::path> found;
  for (auto it = fs::directory_iterator(dir_, ec);
       !ec && it != fs::directory_iterator(); ++it) {
    std::uint64_t id = 0;
    if (it->is_regular_file() &&
        parse_segment_name(it->path().filename().string(), &id)) {
      found[id] = it->path();
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, path] : found) {
    auto seg = std::make_shared<SegmentFile>();
    seg->id = id;
    seg->path = path;
    seg->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (seg->fd < 0) {
      return io_error("cannot open segment: " + path.string() + ": " +
                      std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(seg->fd, &st) != 0) {
      return io_error("fstat failed: " + path.string());
    }
    bool sealed = false;
    ICKPT_ASSIGN_OR_RETURN(
        recs, load_records(seg, static_cast<std::uint64_t>(st.st_size),
                           &sealed));
    seg->sealed = sealed;
    ICKPT_RETURN_IF_ERROR(replay_segment_locked(seg, recs));
    next_id_ = std::max(next_id_, id + 1);
    segments_[id] = std::move(seg);
  }
  return Status::ok();
}

Status SegmentBackendImpl::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  SegmentMetrics::get().compactions.inc();

  // Candidates: read-only segments whose live fraction is below the
  // threshold.  Collected first — the rewrite loop mutates segments_.
  std::vector<SegPtr> victims;
  for (const auto& [id, seg] : segments_) {
    const double denom =
        static_cast<double>(std::max<std::uint64_t>(seg->record_bytes, 1));
    if (static_cast<double>(seg->live_bytes) / denom <
        options_.compact_live_fraction) {
      victims.push_back(seg);
    }
  }

  std::vector<std::byte> payload;
  for (const SegPtr& victim : victims) {
    const bool lowest_survivor =
        segments_.begin()->second->id == victim->id;
    bool dummy_sealed = false;
    std::error_code size_ec;
    const auto fsize = fs::file_size(victim->path, size_ec);
    if (size_ec) {
      return io_error("file_size failed: " + victim->path.string());
    }
    ICKPT_ASSIGN_OR_RETURN(recs,
                           load_records(victim, fsize, &dummy_sealed));
    for (const Rec& r : recs) {
      if (r.type == kObject) {
        auto it = index_.find(r.key);
        // Copy forward only the record the index still points at.
        if (it == index_.end() || it->second.seg != victim ||
            it->second.payload_off != r.payload_off) {
          continue;
        }
        payload.resize(r.payload_len);
        ICKPT_RETURN_IF_ERROR(pread_exact(victim->fd, payload.data(),
                                          payload.size(), r.payload_off,
                                          victim->path));
        ICKPT_RETURN_IF_ERROR(
            append_locked(kObject, r.key, payload, r.payload_crc));
        drop_entry_locked(index_.find(r.key));
        index_[r.key] =
            IndexEntry{active_, active_end_ - r.payload_len, r.payload_len,
                       r.payload_crc};
        active_->live_bytes += r.payload_len;
      } else if (!lowest_survivor && index_.count(r.key) == 0) {
        // A tombstone still shadowing an object in some older
        // surviving segment must move forward with us, or a rebuild
        // after the unlink would resurrect the key.  When this victim
        // is the oldest survivor there is nothing left to shadow.
        ICKPT_RETURN_IF_ERROR(append_locked(kTombstone, r.key, {}, 0));
      }
    }
    // Everything live has a newer copy on disk (synced when durable);
    // the husk can go.  Readers holding the SegPtr keep the inode.
    ICKPT_RETURN_IF_ERROR(sync_active_locked());
    segments_.erase(victim->id);
    std::error_code ec;
    fs::remove(victim->path, ec);
    if (ec) {
      return io_error("cannot unlink segment: " + victim->path.string() +
                      ": " + ec.message());
    }
  }
  return Status::ok();
}

}  // namespace

Result<std::unique_ptr<SegmentBackend>> SegmentBackend::open_store(
    const std::string& directory, const SegmentBackendOptions& options) {
  if (options.segment_bytes == 0) {
    return invalid_argument("segment_bytes must be > 0");
  }
  auto backend = std::make_unique<SegmentBackendImpl>(directory, options);
  ICKPT_RETURN_IF_ERROR(backend->init());
  return std::unique_ptr<SegmentBackend>(std::move(backend));
}

Result<std::unique_ptr<StorageBackend>> make_segment_backend(
    const std::string& directory) {
  return make_segment_backend(directory, SegmentBackendOptions{});
}

Result<std::unique_ptr<StorageBackend>> make_segment_backend(
    const std::string& directory, const SegmentBackendOptions& options) {
  ICKPT_ASSIGN_OR_RETURN(backend,
                         SegmentBackend::open_store(directory, options));
  return std::unique_ptr<StorageBackend>(std::move(backend));
}

bool segment_store_present(const std::string& directory) {
  std::error_code ec;
  for (auto it = fs::directory_iterator(directory, ec);
       !ec && it != fs::directory_iterator(); ++it) {
    std::uint64_t id = 0;
    if (it->is_regular_file() &&
        parse_segment_name(it->path().filename().string(), &id)) {
      return true;
    }
  }
  return false;
}

}  // namespace ickpt::storage
