#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/crc32.h"

namespace ledger {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ------------------------------------------------------------------ spans

namespace {
thread_local std::uint64_t tl_current_span = 0;
}  // namespace

SpanLog::Scope::Scope(SpanLog& log, NameId name) : log_(log) {
  span_.name = name;
  span_.id = log_.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = tl_current_span != 0
                     ? tl_current_span
                     : log_.ambient_.load(std::memory_order_relaxed);
  saved_current_ = tl_current_span;
  tl_current_span = span_.id;
  log_.begun_.fetch_add(1, std::memory_order_relaxed);
  span_.start_ns = now_ns();
}

SpanLog::Scope::~Scope() {
  span_.end_ns = now_ns();
  tl_current_span = saved_current_;
  log_.finish(span_);
}

SpanLog::NameId SpanLog::name(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<NameId>(i);
  }
  names_.emplace_back(name);
  rollups_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

void SpanLog::finish(const Span& span) {
  const std::uint64_t dur = span.end_ns - span.start_ns;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  Rollup& r = rollups_.at(span.name);
  ++r.count;
  r.total_ns += dur;
  r.max_ns = std::max(r.max_ns, dur);
}

std::uint64_t SpanLog::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanLog::Rollup> SpanLog::rollups() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Rollup> out;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (rollups_[i].count > 0) out[names_[i]] = rollups_[i];
  }
  return out;
}

std::vector<Interval> SpanLog::intervals(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Interval> out;
  auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return out;
  const auto id = static_cast<NameId>(it - names_.begin());
  for (const Span& s : spans_) {
    if (s.name == id) out.emplace_back(s.start_ns, s.end_ns);
  }
  return out;
}

Status SpanLog::write_json(const std::string& path) const {
  std::vector<Span> spans;
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
    names = names_;
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::ofstream out(path, std::ios::trunc);
  if (!out) return io_error("cannot write " + path);
  out << "{\"rollups\":{";
  bool first = true;
  for (const auto& [name, r] : rollups()) {
    out << (first ? "" : ",") << '"' << name << "\":{\"count\":" << r.count
        << ",\"total_ns\":" << r.total_ns << ",\"max_ns\":" << r.max_ns << '}';
    first = false;
  }
  out << "},\"spans\":[";
  first = true;
  for (const Span& s : spans) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << names.at(s.name)
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << (s.start_ns - t0)
        << ",\"end_ns\":" << (s.end_ns - t0) << '}';
    first = false;
  }
  out << "\n]}\n";
  out.close();
  if (!out) return io_error("short write to " + path);
  return Status::ok();
}

// --------------------------------------------------------- interval math

std::vector<Interval> merge(std::vector<Interval> in) {
  std::sort(in.begin(), in.end());
  std::vector<Interval> out;
  for (const Interval& iv : in) {
    if (iv.second <= iv.first) continue;
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

std::uint64_t measure(const std::vector<Interval>& merged) {
  std::uint64_t total = 0;
  for (const Interval& iv : merged) total += iv.second - iv.first;
  return total;
}

std::uint64_t overlap(const std::vector<Interval>& a,
                      const std::vector<Interval>& b) {
  std::uint64_t total = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const std::uint64_t lo = std::max(a[i].first, b[j].first);
    const std::uint64_t hi = std::min(a[i].second, b[j].second);
    if (lo < hi) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

// --------------------------------------------------------------- trackers

TimedTracker::TimedTracker(memtrack::DirtyTracker& inner, SpanLog& log)
    : inner_(inner),
      log_(log),
      n_arm_(log.name("memtrack.arm")),
      n_collect_(log.name("memtrack.collect")),
      n_attach_(log.name("memtrack.attach")),
      n_detach_(log.name("memtrack.detach")) {}

Result<memtrack::RegionId> TimedTracker::attach(std::span<std::byte> mem,
                                                std::string name) {
  SpanLog::Scope span(log_, n_attach_);
  auto r = inner_.attach(mem, std::move(name));
  if (!r.is_ok()) ++errors_;
  return r;
}

Status TimedTracker::detach(memtrack::RegionId id) {
  SpanLog::Scope span(log_, n_detach_);
  Status s = inner_.detach(id);
  if (!s.is_ok()) ++errors_;
  return s;
}

Status TimedTracker::arm() {
  SpanLog::Scope span(log_, n_arm_);
  Status s = inner_.arm();
  if (!s.is_ok()) ++errors_;
  return s;
}

Result<memtrack::DirtySnapshot> TimedTracker::collect(bool rearm) {
  SpanLog::Scope span(log_, n_collect_);
  auto r = inner_.collect(rearm);
  if (r.is_ok()) {
    collected_pages_ += r->dirty_pages();
  } else {
    ++errors_;
  }
  return r;
}

Result<memtrack::RegionId> UntrackedTracker::attach(std::span<std::byte> mem,
                                                    std::string) {
  const memtrack::RegionId id = next_++;
  regions_[id] = mem.size();
  return id;
}

Status UntrackedTracker::detach(memtrack::RegionId id) {
  if (regions_.erase(id) == 0) return not_found("unknown region");
  return Status::ok();
}

std::size_t UntrackedTracker::tracked_bytes() const {
  std::size_t n = 0;
  for (const auto& [id, bytes] : regions_) n += bytes;
  return n;
}

// ---------------------------------------------------------------- storage

namespace {

class TimedWriter final : public storage::Writer {
 public:
  TimedWriter(std::unique_ptr<storage::Writer> inner, SpanLog& log,
              const TimedBackend::Names& names, IoCounts& counts)
      : inner_(std::move(inner)), log_(log), names_(names), counts_(counts) {}

  Status write(std::span<const std::byte> data) override {
    SpanLog::Scope span(log_, names_.write);
    counts_.write_calls.fetch_add(1, std::memory_order_relaxed);
    Status s = inner_->write(data);
    if (s.is_ok()) {
      pending_ += data.size();
    } else {
      counts_.errors.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }

  Status close() override {
    SpanLog::Scope span(log_, names_.close);
    Status s = inner_->close();
    if (s.is_ok()) {
      counts_.objects.fetch_add(1, std::memory_order_relaxed);
      counts_.bytes_written.fetch_add(pending_, std::memory_order_relaxed);
    } else {
      counts_.errors.fetch_add(1, std::memory_order_relaxed);
    }
    pending_ = 0;
    return s;
  }

  std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }

 private:
  std::unique_ptr<storage::Writer> inner_;
  SpanLog& log_;
  const TimedBackend::Names& names_;
  IoCounts& counts_;
  std::uint64_t pending_ = 0;
};

class TimedReader final : public storage::Reader {
 public:
  TimedReader(std::unique_ptr<storage::Reader> inner, SpanLog& log,
              const TimedBackend::Names& names, IoCounts& counts)
      : inner_(std::move(inner)), log_(log), names_(names), counts_(counts) {}

  Result<std::size_t> read(std::span<std::byte> out) override {
    SpanLog::Scope span(log_, names_.read);
    return count(inner_->read(out));
  }
  std::uint64_t size() const noexcept override { return inner_->size(); }
  bool supports_read_at() const noexcept override {
    return inner_->supports_read_at();
  }
  Result<std::size_t> read_at(std::uint64_t offset,
                              std::span<std::byte> out) override {
    SpanLog::Scope span(log_, names_.read);
    return count(inner_->read_at(offset, out));
  }
  bool supports_map() const noexcept override { return inner_->supports_map(); }
  Result<std::span<const std::byte>> map_at(std::uint64_t offset,
                                            std::size_t length) override {
    SpanLog::Scope span(log_, names_.read);
    auto r = inner_->map_at(offset, length);
    counts_.read_calls.fetch_add(1, std::memory_order_relaxed);
    if (r.is_ok()) {
      counts_.bytes_read.fetch_add(r->size(), std::memory_order_relaxed);
    } else {
      counts_.errors.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
  }

 private:
  Result<std::size_t> count(Result<std::size_t> r) {
    counts_.read_calls.fetch_add(1, std::memory_order_relaxed);
    if (r.is_ok()) {
      counts_.bytes_read.fetch_add(*r, std::memory_order_relaxed);
    } else {
      counts_.errors.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
  }

  std::unique_ptr<storage::Reader> inner_;
  SpanLog& log_;
  const TimedBackend::Names& names_;
  IoCounts& counts_;
};

}  // namespace

TimedBackend::TimedBackend(storage::StorageBackend& inner, SpanLog& log,
                           std::string_view prefix)
    : inner_(inner), log_(log) {
  const std::string p(prefix);
  names_.create = log.name(p + ".create");
  names_.write = log.name(p + ".write");
  names_.close = log.name(p + ".close");
  names_.open = log.name(p + ".open");
  names_.read = log.name(p + ".read");
}

Result<std::unique_ptr<storage::Writer>> TimedBackend::create(
    const std::string& key) {
  SpanLog::Scope span(log_, names_.create);
  counts_.creates.fetch_add(1, std::memory_order_relaxed);
  auto w = inner_.create(key);
  if (!w.is_ok()) {
    counts_.errors.fetch_add(1, std::memory_order_relaxed);
    return w.status();
  }
  return std::unique_ptr<storage::Writer>(
      new TimedWriter(std::move(w.value()), log_, names_, counts_));
}

Result<std::unique_ptr<storage::Reader>> TimedBackend::open(
    const std::string& key) {
  SpanLog::Scope span(log_, names_.open);
  counts_.opens.fetch_add(1, std::memory_order_relaxed);
  auto r = inner_.open(key);
  if (!r.is_ok()) {
    counts_.errors.fetch_add(1, std::memory_order_relaxed);
    return r.status();
  }
  return std::unique_ptr<storage::Reader>(
      new TimedReader(std::move(r.value()), log_, names_, counts_));
}

Status TimedBackend::remove(const std::string& key) { return inner_.remove(key); }

Result<std::vector<std::string>> TimedBackend::list() { return inner_.list(); }

bool TimedBackend::exists(const std::string& key) { return inner_.exists(key); }

// ---------------------------------------------------------------- digests

MemoryDigest digest(region::AddressSpace& space) {
  MemoryDigest out;
  for (const region::BlockInfo& info : space.blocks()) {
    auto mem = space.block_span(info.id);
    BlockDigest d;
    d.id = info.id;
    d.name = info.name;
    if (mem.is_ok()) {
      d.bytes = mem->size();
      d.crc = crc32(std::span<const std::byte>(mem->data(), mem->size()));
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<std::string> verify(const MemoryDigest& expected,
                                const checkpoint::RestoredState& restored) {
  std::vector<std::string> problems;
  auto block = [](std::uint32_t id) { return "block " + std::to_string(id); };
  for (const BlockDigest& d : expected) {
    auto it = restored.blocks.find(d.id);
    if (it == restored.blocks.end()) {
      problems.push_back(block(d.id) + " missing from restore");
      continue;
    }
    const checkpoint::RestoredBlock& b = it->second;
    if (b.name != d.name) {
      problems.push_back(block(d.id) + " name '" + b.name + "' != '" +
                         d.name + "'");
    }
    if (b.data.size() != d.bytes) {
      problems.push_back(block(d.id) + " size " +
                         std::to_string(b.data.size()) +
                         " != " + std::to_string(d.bytes));
      continue;
    }
    if (crc32(b.data) != d.crc) {
      problems.push_back(block(d.id) + " content differs from live memory");
    }
  }
  for (const auto& [id, b] : restored.blocks) {
    const bool known =
        std::any_of(expected.begin(), expected.end(),
                    [id = id](const BlockDigest& d) { return d.id == id; });
    if (!known) problems.push_back(block(id) + " restored but not live");
  }
  return problems;
}

}  // namespace ledger
