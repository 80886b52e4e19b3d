#include "obs/trace.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "obs/metrics.h"

namespace ickpt::obs {

namespace {

// ------------------------------------------------------- name interning
//
// A fixed table of immortal entries with an atomically published
// count: registration locks, the decode path (and the emit path, which
// only carries the id) never does.

constexpr std::size_t kMaxTraceNames = 512;

struct NameEntry {
  std::string name;
  TraceCat cat = TraceCat::kOther;
};

NameEntry* g_names[kMaxTraceNames];
std::atomic<std::size_t> g_name_count{0};
std::mutex g_name_mu;

/// Kernel thread id, cached per thread.  The cache is a trivially-
/// initialized TLS word, so reading it from a signal handler is safe;
/// the one-time gettid syscall is async-signal-safe too.
std::uint32_t self_tid() noexcept {
  thread_local std::uint32_t tid = 0;
  if (tid == 0) {
    tid = static_cast<std::uint32_t>(::syscall(SYS_gettid));
  }
  return tid;
}

std::uint64_t pack_meta(std::uint32_t tid, std::uint16_t name_id,
                        TracePhase phase) noexcept {
  return (std::uint64_t{tid} << 32) | (std::uint64_t{name_id} << 16) |
         (std::uint64_t{static_cast<std::uint8_t>(phase)} << 8);
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 8;
  while (p < v) p <<= 1;
  return p;
}

// -------------------------------------------------------- tick timestamps
//
// The emit path stores a raw ticks() read; conversion to nanoseconds
// happens at *read* time (and, for stage durations, once per scope
// end) through an affine map calibrated against the monotonic clock.
// This keeps the hot path free of clock_gettime entirely (a vDSO clock
// read costs more than the rest of the emit put together) and drops
// the per-fault tracing tax under the intrusiveness budget of §6.5.

std::atomic<std::uint64_t> g_cal_ticks0{0};
std::atomic<std::uint64_t> g_cal_ns0{0};
std::atomic<std::uint64_t> g_cal_scale_bits{0};  ///< double ns/tick; 0=unset

/// Nanoseconds per tick, or 0 before calibrate_ticks().  Until the
/// baseline reaches 1 ms the slope is re-measured (one clock read) on
/// every call; from then on it is cached.  Async-signal-safe.
double ns_per_tick() noexcept {
  const std::uint64_t bits = g_cal_scale_bits.load(std::memory_order_relaxed);
  if (bits != 0) return std::bit_cast<double>(bits);
  const std::uint64_t t0 = g_cal_ticks0.load(std::memory_order_acquire);
  const std::uint64_t n0 = g_cal_ns0.load(std::memory_order_acquire);
  const std::uint64_t t1 = ticks();
  const std::uint64_t n1 = now_ns();
  if (t0 == 0 || n0 == 0 || t1 <= t0 || n1 <= n0) return 0;
  const double scale =
      static_cast<double>(n1 - n0) / static_cast<double>(t1 - t0);
  if (n1 - n0 > 1'000'000) {  // >= 1 ms baseline: cache the slope
    g_cal_scale_bits.store(std::bit_cast<std::uint64_t>(scale),
                           std::memory_order_relaxed);
  }
  return scale;
}

}  // namespace

void calibrate_ticks() noexcept {
  std::uint64_t expected = 0;
  const std::uint64_t t = ticks();
  if (g_cal_ticks0.compare_exchange_strong(expected, t,
                                           std::memory_order_acq_rel)) {
    g_cal_ns0.store(now_ns(), std::memory_order_release);
  }
}

std::uint64_t ticks_elapsed_ns(std::uint64_t t0, std::uint64_t t1) noexcept {
  if (t1 <= t0) return 0;
  const double scale = ns_per_tick();
  if (scale == 0) return t1 - t0;  // never calibrated: raw ticks
  return static_cast<std::uint64_t>(static_cast<double>(t1 - t0) * scale);
}

namespace {

/// Map a raw tick value to monotonic nanoseconds.  Async-signal-safe.
std::uint64_t ticks_to_ns(std::uint64_t t) noexcept {
  const std::uint64_t t0 = g_cal_ticks0.load(std::memory_order_acquire);
  if (t0 == 0) return t;  // never calibrated: raw ticks beat nothing
  return g_cal_ns0.load(std::memory_order_acquire) + ticks_elapsed_ns(t0, t);
}

}  // namespace

std::string_view to_string(TraceCat cat) noexcept {
  switch (cat) {
    case TraceCat::kOther: return "other";
    case TraceCat::kMemtrack: return "memtrack";
    case TraceCat::kCkpt: return "ckpt";
    case TraceCat::kStorage: return "storage";
    case TraceCat::kRestore: return "restore";
    case TraceCat::kFsck: return "fsck";
    case TraceCat::kStudy: return "study";
    case TraceCat::kBench: return "bench";
    case TraceCat::kNet: return "net";
  }
  return "other";
}

std::uint16_t trace_name(std::string_view name, TraceCat cat) {
  std::lock_guard<std::mutex> lock(g_name_mu);
  const std::size_t n = g_name_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (g_names[i]->name == name) {
      return static_cast<std::uint16_t>(i + 1);
    }
  }
  if (n >= kMaxTraceNames) return 0;
  auto* e = new NameEntry();  // immortal, like registry metrics
  e->name = std::string(name);
  e->cat = cat;
  g_names[n] = e;
  g_name_count.store(n + 1, std::memory_order_release);
  return static_cast<std::uint16_t>(n + 1);
}

std::string_view trace_name_string(std::uint16_t id) noexcept {
  const std::size_t n = g_name_count.load(std::memory_order_acquire);
  if (id == 0 || id > n) return "?";
  return g_names[id - 1]->name;
}

TraceCat trace_name_cat(std::uint16_t id) noexcept {
  const std::size_t n = g_name_count.load(std::memory_order_acquire);
  if (id == 0 || id > n) return TraceCat::kOther;
  return g_names[id - 1]->cat;
}

// -------------------------------------------------------------- TraceRing

TraceRing::TraceRing(std::size_t capacity) {
  const std::size_t cap = round_up_pow2(std::max<std::size_t>(capacity, 8));
  slots_ = new Slot[cap];
  mask_ = cap - 1;
}

TraceRing::~TraceRing() { delete[] slots_; }

void TraceRing::emit(std::uint64_t ts, std::uint16_t name_id,
                     TracePhase phase, std::uint64_t arg0,
                     std::uint64_t arg1) noexcept {
  const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[seq & mask_];
  // Invalidate, fill, publish.  A reader that overlaps any of this
  // sees pub change (or 0) and skips the slot.
  s.pub.store(0, std::memory_order_release);
  s.ts.store(ts, std::memory_order_relaxed);
  s.meta.store(pack_meta(self_tid(), name_id, phase),
               std::memory_order_relaxed);
  s.arg0.store(arg0, std::memory_order_relaxed);
  s.arg1.store(arg1, std::memory_order_relaxed);
  s.pub.store(seq + 1, std::memory_order_release);
}

std::size_t TraceRing::read_recent(TraceEvent* out,
                                   std::size_t max) const noexcept {
  if (out == nullptr || max == 0) return 0;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t held = std::min<std::uint64_t>(head, capacity());
  const std::uint64_t want = std::min<std::uint64_t>(held, max);
  std::size_t n = 0;
  for (std::uint64_t seq = head - want; seq < head; ++seq) {
    const Slot& s = slots_[seq & mask_];
    const std::uint64_t pub = s.pub.load(std::memory_order_acquire);
    if (pub == 0) continue;  // being rewritten right now
    TraceEvent e;
    e.seq = pub - 1;
    e.ts_ns = ticks_to_ns(s.ts.load(std::memory_order_relaxed));
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    e.arg0 = s.arg0.load(std::memory_order_relaxed);
    e.arg1 = s.arg1.load(std::memory_order_relaxed);
    if (s.pub.load(std::memory_order_acquire) != pub) continue;  // torn
    e.tid = static_cast<std::uint32_t>(meta >> 32);
    e.name_id = static_cast<std::uint16_t>(meta >> 16);
    const auto ph = static_cast<std::uint8_t>(meta >> 8);
    e.phase = ph <= 2 ? static_cast<TracePhase>(ph) : TracePhase::kInstant;
    out[n++] = e;
  }
  // Slots may hold a newer event than the claim range implies (a
  // concurrent emitter lapped us); keep chronological order anyway.
  std::sort(out, out + n,
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return n;
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  std::vector<TraceEvent> events(capacity());
  events.resize(read_recent(events.data(), events.size()));
  return events;
}

// ------------------------------------------------------ process tracing

namespace detail {
std::atomic<bool> g_tracing{false};
}  // namespace detail

namespace {
std::atomic<TraceRing*> g_ring{nullptr};
std::mutex g_ring_mu;
}  // namespace

void start_tracing(std::size_t capacity) {
  {
    std::lock_guard<std::mutex> lock(g_ring_mu);
    if (g_ring.load(std::memory_order_acquire) == nullptr) {
      // Immortal: the fault handler may hold a pointer past shutdown.
      g_ring.store(new TraceRing(capacity), std::memory_order_release);
    }
  }
  calibrate_ticks();
  detail::g_tracing.store(true, std::memory_order_release);
}

void stop_tracing() noexcept {
  detail::g_tracing.store(false, std::memory_order_release);
}

TraceRing* trace_ring() noexcept {
  return g_ring.load(std::memory_order_acquire);
}

// --------------------------------------------------------------- exports

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(128 + events.size() * 144);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[64];
  const long long pid = static_cast<long long>(::getpid());
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += trace_name_string(e.name_id);
    out += "\",\"cat\":\"";
    out += to_string(trace_name_cat(e.name_id));
    out += "\",\"ph\":\"";
    switch (e.phase) {
      case TracePhase::kBegin: out += 'B'; break;
      case TracePhase::kEnd: out += 'E'; break;
      case TracePhase::kInstant: out += 'i'; break;
    }
    out += "\",\"ts\":";
    // Microseconds with ns precision, as the trace-event format wants.
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(e.ts_ns / 1000),
                  static_cast<unsigned long long>(e.ts_ns % 1000));
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"pid\":%lld,\"tid\":%llu", pid,
                  static_cast<unsigned long long>(e.tid));
    out += buf;
    if (e.phase == TracePhase::kInstant) out += ",\"s\":\"t\"";
    std::snprintf(buf, sizeof buf,
                  ",\"args\":{\"arg0\":%llu,\"arg1\":%llu}}",
                  static_cast<unsigned long long>(e.arg0),
                  static_cast<unsigned long long>(e.arg1));
    out += buf;
  }
  out += "]}";
  return out;
}

Status write_chrome_trace(const std::string& path) {
  TraceRing* ring = trace_ring();
  std::vector<TraceEvent> events;
  if (ring != nullptr) events = ring->snapshot();
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return io_error("cannot open trace file " + path);
  const std::string json = chrome_trace_json(events);
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  f.close();
  if (!f) return io_error("failed writing trace file " + path);
  return Status::ok();
}

}  // namespace ickpt::obs
