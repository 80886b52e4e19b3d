#include "storage/backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "common/io_util.h"
#include "obs/metrics.h"
#include "obs/stage.h"

namespace ickpt::storage {

namespace fs = std::filesystem;

// ------------------------------------------------------------------- file

namespace {

/// Durable-publish observability, shared by every backend that syncs
/// (obs::stage returns the segment backend the same stage object):
/// fsync/fdatasync syscalls issued and one publish's wait on the device.
struct SyncMetrics {
  obs::Counter& fsync_calls;
  obs::Stage& publish_sync;

  static SyncMetrics& get() {
    static SyncMetrics m{
        obs::registry().counter("storage.fsync_calls"),
        obs::stage("ckpt.publish_sync", obs::TraceCat::kStorage)};
    return m;
  }
};

/// fdatasync `fd`, counting the call; kIoError on failure.
Status synced_fdatasync(int fd, const fs::path& what) {
  SyncMetrics::get().fsync_calls.inc();
  if (::fdatasync(fd) != 0) {
    return io_error("fdatasync failed: " + what.string() + ": " +
                    std::strerror(errno));
  }
  return Status::ok();
}

/// fsync the directory containing `child` so its rename/creation is
/// itself durable (a renamed file is lost on power loss until the
/// directory entry reaches the journal).
Status sync_parent_dir(const fs::path& child) {
  const fs::path dir = child.parent_path();
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return io_error("open dir for fsync failed: " + dir.string() + ": " +
                    std::strerror(errno));
  }
  SyncMetrics::get().fsync_calls.inc();
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return io_error("fsync dir failed: " + dir.string() + ": " +
                    std::strerror(errno));
  }
  return Status::ok();
}

/// Publish `tmp` as `final_path`: optionally fdatasync the written
/// bytes, rename, then fsync the parent directory.  The sync pair is
/// what makes the atomic-rename publish *crash*-atomic — without it a
/// power loss can surface the renamed object empty (data never hit the
/// device) or lose the rename entirely (directory entry never hit the
/// journal).  `fd` must still be open on the tmp file when durable.
Status publish_file(int fd, const fs::path& tmp, const fs::path& final_path,
                    bool durable) {
  auto scope = SyncMetrics::get().publish_sync.begin();
  const Status sync_st =
      durable ? synced_fdatasync(fd, tmp) : Status::ok();
  const int close_rc = ::close(fd);  // fd is consumed on every path
  ICKPT_RETURN_IF_ERROR(sync_st);
  if (close_rc != 0) {
    return io_error("close failed: " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) return io_error("rename failed: " + ec.message());
  if (durable) ICKPT_RETURN_IF_ERROR(sync_parent_dir(final_path));
  if (!durable) {
    scope.cancel();  // nothing was synced; keep the histogram honest
  }
  return Status::ok();
}

class FileWriter final : public Writer {
 public:
  FileWriter(fs::path tmp, fs::path final_path, bool durable,
             std::atomic<std::uint64_t>* total)
      : tmp_(std::move(tmp)),
        final_(std::move(final_path)),
        durable_(durable),
        total_(total) {
    fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
  }
  ~FileWriter() override {
    if (!closed_) {
      if (fd_ >= 0) ::close(fd_);
      std::error_code ec;
      fs::remove(tmp_, ec);  // abort: discard partial object
    }
  }
  Status write(std::span<const std::byte> data) override {
    if (closed_) return failed_precondition("write after close");
    if (fd_ < 0) return io_error("file open failed: " + tmp_.string());
    auto st = ioutil::write_full(fd_, data);
    if (!st.is_ok()) return io_error("file write failed: " + tmp_.string());
    bytes_ += data.size();
    return Status::ok();
  }
  Status close() override {
    if (closed_) return Status::ok();
    if (fd_ < 0) return io_error("file open failed: " + tmp_.string());
    auto st = publish_file(fd_, tmp_, final_, durable_);
    fd_ = -1;  // publish_file closed it (or it is unusable)
    ICKPT_RETURN_IF_ERROR(st);
    closed_ = true;
    total_->fetch_add(bytes_, std::memory_order_relaxed);
    return Status::ok();
  }
  std::uint64_t bytes_written() const noexcept override { return bytes_; }

 private:
  fs::path tmp_, final_;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
  bool durable_;
  bool closed_ = false;
  std::atomic<std::uint64_t>* total_;
};

/// Reader over one published object file: one O_RDONLY fd, sized once
/// by fstat and served by pread (read() keeps its own cursor).
class FileReader final : public Reader {
 public:
  FileReader(std::string path, int fd, std::uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}
  ~FileReader() override { ::close(fd_); }

  Result<std::size_t> read(std::span<std::byte> out) override {
    ICKPT_ASSIGN_OR_RETURN(got, read_at(pos_, out));
    pos_ += got;
    return got;
  }
  bool supports_read_at() const noexcept override { return true; }
  Result<std::size_t> read_at(std::uint64_t offset,
                              std::span<std::byte> out) override {
    if (offset >= size_) return std::size_t{0};
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(out.size(), size_ - offset));
    ICKPT_RETURN_IF_ERROR(
        ioutil::pread_exact(fd_, out.data(), n, offset, path_));
    return n;
  }
  std::uint64_t size() const noexcept override { return size_; }

 private:
  std::string path_;
  int fd_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
};

class FileBackend final : public StorageBackend {
 public:
  FileBackend(fs::path dir, FileBackendOptions options)
      : dir_(std::move(dir)), options_(options) {}

  Result<std::unique_ptr<Writer>> create(const std::string& key) override {
    fs::path final_path = dir_ / key;
    std::error_code ec;
    fs::create_directories(final_path.parent_path(), ec);
    fs::path tmp = final_path;
    tmp += ".tmp";
    return std::unique_ptr<Writer>(new FileWriter(
        tmp, final_path, options_.durable_publish, &total_));
  }

  Result<std::unique_ptr<Reader>> open(const std::string& key) override {
    const fs::path p = dir_ / key;
    const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (errno == ENOENT || errno == ENOTDIR) {
        return not_found("no such object: " + key);
      }
      return io_error("open failed: " + key + ": " + std::strerror(errno));
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      return io_error("fstat failed: " + key + ": " + std::strerror(err));
    }
    if (!S_ISREG(st.st_mode)) {
      ::close(fd);
      // Such as "rank0", the directory of the "rank0/..." objects.
      return not_found("no such object: " + key);
    }
    return std::unique_ptr<Reader>(new FileReader(
        p.native(), fd, static_cast<std::uint64_t>(st.st_size)));
  }

  Status remove(const std::string& key) override {
    std::error_code ec;
    if (!fs::remove(dir_ / key, ec)) {
      return not_found("no such object: " + key);
    }
    return Status::ok();
  }

  Result<std::vector<std::string>> list() override {
    std::vector<std::string> keys;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir_, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      // ".tmp" siblings are unpublished writes (possibly left behind
      // by a crash mid-publish) — never visible objects.
      if (it->is_regular_file() && it->path().extension() != ".tmp") {
        keys.push_back(fs::relative(it->path(), dir_).string());
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  bool exists(const std::string& key) override {
    std::error_code ec;
    return fs::exists(dir_ / key, ec);
  }

  std::uint64_t total_bytes_stored() const noexcept override {
    return total_.load(std::memory_order_relaxed);
  }

 private:
  fs::path dir_;
  FileBackendOptions options_;
  std::atomic<std::uint64_t> total_{0};
};

}  // namespace

Result<std::unique_ptr<StorageBackend>> make_file_backend(
    const std::string& directory) {
  return make_file_backend(directory, FileBackendOptions{});
}

Result<std::unique_ptr<StorageBackend>> make_file_backend(
    const std::string& directory, const FileBackendOptions& options) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) return io_error("cannot create " + directory + ": " + ec.message());
  return std::unique_ptr<StorageBackend>(new FileBackend(directory, options));
}

// ----------------------------------------------------------------- memory

namespace {

// Objects are immutable once closed; readers share the buffer instead
// of copying it, so many concurrent readers of one object (parallel
// restore shards) cost O(1) memory each.
struct MemoryStore {
  std::mutex mu;
  std::map<std::string, std::shared_ptr<const std::vector<std::byte>>> objects;
  std::atomic<std::uint64_t> total{0};
};

class MemoryWriter final : public Writer {
 public:
  MemoryWriter(std::shared_ptr<MemoryStore> store, std::string key)
      : store_(std::move(store)), key_(std::move(key)) {}
  Status write(std::span<const std::byte> data) override {
    if (closed_) return failed_precondition("write after close");
    buf_.insert(buf_.end(), data.begin(), data.end());
    return Status::ok();
  }
  Status close() override {
    if (closed_) return Status::ok();
    closed_ = true;
    bytes_ = buf_.size();
    store_->total.fetch_add(buf_.size(), std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(store_->mu);
    store_->objects[key_] =
        std::make_shared<const std::vector<std::byte>>(std::move(buf_));
    return Status::ok();
  }
  std::uint64_t bytes_written() const noexcept override {
    return closed_ ? bytes_ : buf_.size();
  }

 private:
  std::shared_ptr<MemoryStore> store_;
  std::string key_;
  std::vector<std::byte> buf_;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

class MemoryReader final : public Reader {
 public:
  explicit MemoryReader(std::shared_ptr<const std::vector<std::byte>> data)
      : data_(std::move(data)) {}
  Result<std::size_t> read(std::span<std::byte> out) override {
    std::size_t n = std::min(out.size(), data_->size() - pos_);
    std::memcpy(out.data(), data_->data() + pos_, n);
    pos_ += n;
    return n;
  }
  bool supports_read_at() const noexcept override { return true; }
  Result<std::size_t> read_at(std::uint64_t offset,
                              std::span<std::byte> out) override {
    if (offset >= data_->size()) return std::size_t{0};
    std::size_t n = std::min<std::uint64_t>(out.size(),
                                            data_->size() - offset);
    std::memcpy(out.data(), data_->data() + offset, n);
    return n;
  }
  std::uint64_t size() const noexcept override { return data_->size(); }

 private:
  std::shared_ptr<const std::vector<std::byte>> data_;
  std::size_t pos_ = 0;
};

class MemoryBackend final : public StorageBackend {
 public:
  MemoryBackend() : store_(std::make_shared<MemoryStore>()) {}

  Result<std::unique_ptr<Writer>> create(const std::string& key) override {
    return std::unique_ptr<Writer>(new MemoryWriter(store_, key));
  }
  Result<std::unique_ptr<Reader>> open(const std::string& key) override {
    std::lock_guard<std::mutex> lock(store_->mu);
    auto it = store_->objects.find(key);
    if (it == store_->objects.end()) {
      return not_found("no such object: " + key);
    }
    return std::unique_ptr<Reader>(new MemoryReader(it->second));
  }
  Status remove(const std::string& key) override {
    std::lock_guard<std::mutex> lock(store_->mu);
    if (store_->objects.erase(key) == 0) {
      return not_found("no such object: " + key);
    }
    return Status::ok();
  }
  Result<std::vector<std::string>> list() override {
    std::lock_guard<std::mutex> lock(store_->mu);
    std::vector<std::string> keys;
    keys.reserve(store_->objects.size());
    for (const auto& [k, data] : store_->objects) keys.push_back(k);
    return keys;
  }
  bool exists(const std::string& key) override {
    std::lock_guard<std::mutex> lock(store_->mu);
    return store_->objects.count(key) > 0;
  }
  std::uint64_t total_bytes_stored() const noexcept override {
    return store_->total.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<MemoryStore> store_;
};

// ------------------------------------------------------------------- null

class NullWriter final : public Writer {
 public:
  explicit NullWriter(std::atomic<std::uint64_t>* total) : total_(total) {}
  Status write(std::span<const std::byte> data) override {
    bytes_ += data.size();
    return Status::ok();
  }
  Status close() override {
    if (!closed_) {
      closed_ = true;
      total_->fetch_add(bytes_, std::memory_order_relaxed);
    }
    return Status::ok();
  }
  std::uint64_t bytes_written() const noexcept override { return bytes_; }

 private:
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
  std::atomic<std::uint64_t>* total_;
};

class NullBackend final : public StorageBackend {
 public:
  Result<std::unique_ptr<Writer>> create(const std::string&) override {
    return std::unique_ptr<Writer>(new NullWriter(&total_));
  }
  Result<std::unique_ptr<Reader>> open(const std::string& key) override {
    return not_found("null backend stores nothing: " + key);
  }
  Status remove(const std::string&) override { return Status::ok(); }
  Result<std::vector<std::string>> list() override {
    return std::vector<std::string>{};
  }
  bool exists(const std::string&) override { return false; }
  std::uint64_t total_bytes_stored() const noexcept override {
    return total_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> total_{0};
};

}  // namespace

std::unique_ptr<StorageBackend> make_memory_backend() {
  return std::make_unique<MemoryBackend>();
}

std::unique_ptr<StorageBackend> make_null_backend() {
  return std::make_unique<NullBackend>();
}

// -------------------------------------------------------------- throttled

class ThrottledBackend::ThrottledWriter final : public Writer {
 public:
  ThrottledWriter(std::unique_ptr<Writer> inner, double bytes_per_second,
                  bool really_sleep,
                  std::shared_ptr<std::atomic<std::uint64_t>> counter)
      : inner_(std::move(inner)),
        bps_(bytes_per_second),
        sleep_(really_sleep),
        counter_(std::move(counter)) {}

  Status write(std::span<const std::byte> data) override {
    ICKPT_RETURN_IF_ERROR(inner_->write(data));
    counter_->fetch_add(data.size(), std::memory_order_relaxed);
    if (sleep_ && bps_ > 0) {
      auto stall = std::chrono::duration<double>(
          static_cast<double>(data.size()) / bps_);
      std::this_thread::sleep_for(stall);
    }
    return Status::ok();
  }
  Status close() override { return inner_->close(); }
  std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }

 private:
  std::unique_ptr<Writer> inner_;
  double bps_;
  bool sleep_;
  std::shared_ptr<std::atomic<std::uint64_t>> counter_;
};

ThrottledBackend::ThrottledBackend(StorageBackend& inner,
                                   double bytes_per_second, bool really_sleep)
    : inner_(inner),
      bytes_per_second_(bytes_per_second),
      really_sleep_(really_sleep),
      throttled_bytes_(std::make_shared<std::atomic<std::uint64_t>>(0)) {}

Result<std::unique_ptr<Writer>> ThrottledBackend::create(
    const std::string& key) {
  auto w = inner_.create(key);
  if (!w.is_ok()) return w.status();
  return std::unique_ptr<Writer>(
      new ThrottledWriter(std::move(w.value()), bytes_per_second_,
                          really_sleep_, throttled_bytes_));
}

Result<std::unique_ptr<Reader>> ThrottledBackend::open(
    const std::string& key) {
  return inner_.open(key);
}
Status ThrottledBackend::remove(const std::string& key) {
  return inner_.remove(key);
}
Result<std::vector<std::string>> ThrottledBackend::list() {
  return inner_.list();
}
bool ThrottledBackend::exists(const std::string& key) {
  return inner_.exists(key);
}
std::uint64_t ThrottledBackend::total_bytes_stored() const noexcept {
  return inner_.total_bytes_stored();
}
double ThrottledBackend::modeled_seconds() const noexcept {
  if (bytes_per_second_ <= 0) return 0;
  return static_cast<double>(
             throttled_bytes_->load(std::memory_order_relaxed)) /
         bytes_per_second_;
}

// ---------------------------------------------------------------- metered

class MeteredBackend::MeteredWriter final : public Writer {
 public:
  MeteredWriter(std::unique_ptr<Writer> inner, obs::Counter& objects,
                obs::Counter& bytes, const obs::Stage& write,
                obs::Histogram& object_bytes)
      : inner_(std::move(inner)),
        objects_(objects),
        bytes_(bytes),
        object_bytes_(object_bytes),
        scope_(write.begin()) {}

  // An unclosed or failed writer records no latency.
  ~MeteredWriter() override { scope_.cancel(); }

  Status write(std::span<const std::byte> data) override {
    return inner_->write(data);
  }

  Status close() override {
    ICKPT_RETURN_IF_ERROR(inner_->close());
    const std::uint64_t n = inner_->bytes_written();
    objects_.inc();
    bytes_.inc(n);
    scope_.end(n);
    if (obs::enabled()) object_bytes_.record(n);
    return Status::ok();
  }

  std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }

 private:
  std::unique_ptr<Writer> inner_;
  obs::Counter& objects_;
  obs::Counter& bytes_;
  obs::Histogram& object_bytes_;
  obs::Stage::Scope scope_;
};

MeteredBackend::MeteredBackend(StorageBackend& inner,
                               const std::string& prefix)
    : inner_(inner),
      objects_(obs::registry().counter(prefix + ".objects")),
      bytes_(obs::registry().counter(prefix + ".bytes")),
      write_(obs::stage(prefix + ".write", obs::TraceCat::kStorage)),
      object_bytes_(obs::registry().histogram(prefix + ".object_bytes",
                                              obs::Unit::kBytes)) {}

Result<std::unique_ptr<Writer>> MeteredBackend::create(
    const std::string& key) {
  auto w = inner_.create(key);
  if (!w.is_ok()) return w.status();
  return std::unique_ptr<Writer>(new MeteredWriter(
      std::move(w.value()), objects_, bytes_, write_, object_bytes_));
}
Result<std::unique_ptr<Reader>> MeteredBackend::open(const std::string& key) {
  return inner_.open(key);
}
Status MeteredBackend::remove(const std::string& key) {
  return inner_.remove(key);
}
Result<std::vector<std::string>> MeteredBackend::list() {
  return inner_.list();
}
bool MeteredBackend::exists(const std::string& key) {
  return inner_.exists(key);
}
std::uint64_t MeteredBackend::total_bytes_stored() const noexcept {
  return inner_.total_bytes_stored();
}

// ----------------------------------------------------------------- faulty

class FaultyBackend::FaultyWriter final : public Writer {
 public:
  FaultyWriter(std::unique_ptr<Writer> inner,
               std::shared_ptr<std::atomic<std::uint64_t>> budget)
      : inner_(std::move(inner)), budget_(std::move(budget)) {}

  Status write(std::span<const std::byte> data) override {
    std::uint64_t before =
        budget_->load(std::memory_order_relaxed);
    if (before < data.size()) {
      budget_->store(0, std::memory_order_relaxed);
      return io_error("injected storage fault (budget exhausted)");
    }
    budget_->fetch_sub(data.size(), std::memory_order_relaxed);
    return inner_->write(data);
  }
  Status close() override { return inner_->close(); }
  std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }

 private:
  std::unique_ptr<Writer> inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> budget_;
};

FaultyBackend::FaultyBackend(StorageBackend& inner,
                             std::uint64_t fail_after_bytes)
    : inner_(inner),
      budget_(std::make_shared<std::atomic<std::uint64_t>>(
          fail_after_bytes)) {}

Result<std::unique_ptr<Writer>> FaultyBackend::create(const std::string& key) {
  auto w = inner_.create(key);
  if (!w.is_ok()) return w.status();
  return std::unique_ptr<Writer>(
      new FaultyWriter(std::move(w.value()), budget_));
}
Result<std::unique_ptr<Reader>> FaultyBackend::open(const std::string& key) {
  return inner_.open(key);
}
Status FaultyBackend::remove(const std::string& key) {
  return inner_.remove(key);
}
Result<std::vector<std::string>> FaultyBackend::list() {
  return inner_.list();
}
bool FaultyBackend::exists(const std::string& key) {
  return inner_.exists(key);
}
std::uint64_t FaultyBackend::total_bytes_stored() const noexcept {
  return inner_.total_bytes_stored();
}

}  // namespace ickpt::storage
