// Span tracing: a lock-free, fixed-capacity ring of trace events that
// records the *time structure* of a checkpoint or restore — per-shard
// encode spans, fault-handler instants, backend writes — where the
// metrics registry only keeps aggregates.
//
// Model: begin/end span pairs plus instant events, each carrying a
// tick-clock timestamp, the emitting thread id, an interned name id
// and two u64 arguments.  Events land in a ring that overwrites the
// oldest entry when full, so tracing never blocks, never allocates on
// the hot path and always holds the most recent history (which is
// exactly what the crash flight recorder wants).  Spans come from
// obs::Stage scopes (obs/stage.h).
//
// Signal-safety contract (extends obs/metrics.h §9):
//   * trace_name() interns a name: takes a mutex, allocates.  Normal
//     threads only, typically once at startup next to the metric
//     handles.
//   * ticks(), emit() and trace_instant perform only relaxed/release
//     atomic stores into pre-allocated slots plus one cycle-counter
//     read (rdtsc/cntvct; converted to nanoseconds at read time).  No
//     locks, no allocation, no syscalls after the first per-thread tid
//     fetch — safe from the SIGSEGV fault handler.
//   * TraceRing::read_recent() copies events without allocating, so a
//     fatal-signal handler can drain the ring.
//   * When tracing is off (the default), every emit site costs one
//     relaxed load and branch; start_tracing() flips it on process-wide.
//
// Export: chrome_trace_json() renders events in the Chrome trace-event
// format ("B"/"E"/"i" phases), loadable in chrome://tracing and
// Perfetto (ui.perfetto.dev).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace ickpt::obs {

/// Event category, fixed at name-interning time; exported as the
/// Chrome "cat" field so Perfetto can filter per subsystem.
enum class TraceCat : std::uint8_t {
  kOther = 0,
  kMemtrack,
  kCkpt,
  kStorage,
  kRestore,
  kFsck,
  kStudy,
  kBench,
  kNet,
};

std::string_view to_string(TraceCat cat) noexcept;

enum class TracePhase : std::uint8_t {
  kBegin = 0,
  kEnd = 1,
  kInstant = 2,
};

/// Intern a trace-point name; returns a process-stable id (> 0) for
/// the emit path.  Re-interning the same name returns the same id.
/// Returns 0 when the name table is full (emits with id 0 are kept
/// but decode as "?").  Mutex + allocation: normal threads only.
std::uint16_t trace_name(std::string_view name,
                         TraceCat cat = TraceCat::kOther);

/// Decode an interned id ("?" for 0 / unknown).
std::string_view trace_name_string(std::uint16_t id) noexcept;
TraceCat trace_name_cat(std::uint16_t id) noexcept;

/// The tick clock every trace timestamp and stage duration is read
/// from: one raw cycle-counter read (rdtsc / cntvct_el0; monotonic
/// nanoseconds on other targets).  Async-signal-safe.
inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  std::uint64_t v;
  asm volatile("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return now_ns();
#endif
}

/// Pin the origin that maps ticks to the monotonic clock (first call
/// wins).  obs::stage() and start_tracing() call it.
void calibrate_ticks() noexcept;

/// Nanoseconds between two ticks() readings.  Async-signal-safe.
std::uint64_t ticks_elapsed_ns(std::uint64_t t0, std::uint64_t t1) noexcept;

/// A decoded event, as copied out of the ring.
struct TraceEvent {
  std::uint64_t seq = 0;    ///< global claim order (chronological)
  std::uint64_t ts_ns = 0;  ///< monotonic ns (ticks() at emit,
                            ///< calibrated to now_ns() at read time)
  std::uint32_t tid = 0;    ///< kernel thread id
  std::uint16_t name_id = 0;
  TracePhase phase = TracePhase::kInstant;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

/// Lock-free MPMC ring of trace events.  Writers claim slots with one
/// fetch_add and publish with a release store; readers detect torn
/// slots via the publication word and skip them.  A writer that stalls
/// for a full ring revolution can in principle leave one garbled (but
/// type-safe) event — the classic tradeoff for a wait-free emit path.
class TraceRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 15;  ///< 32768

  /// Capacity is rounded up to a power of two, minimum 8.
  explicit TraceRing(std::size_t capacity = kDefaultCapacity);
  ~TraceRing();

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Record one event stamped `ts` (a ticks() reading).
  /// Async-signal-safe, wait-free, never fails.
  void emit(std::uint64_t ts, std::uint16_t name_id, TracePhase phase,
            std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) noexcept;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Total events ever emitted (including overwritten ones).
  std::uint64_t emitted() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

  /// Events lost to wraparound so far.
  std::uint64_t dropped() const noexcept {
    const std::uint64_t n = emitted();
    return n > capacity() ? n - capacity() : 0;
  }

  /// Copy up to `max` of the most recent events into `out`, oldest
  /// first.  No allocation, no locks: safe from a fatal-signal
  /// handler.  Returns the number of events written.
  std::size_t read_recent(TraceEvent* out, std::size_t max) const noexcept;

  /// All currently-held events, oldest first (allocates; normal
  /// threads only).
  std::vector<TraceEvent> snapshot() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> pub{0};  ///< claim seq + 1; 0 = empty
    std::atomic<std::uint64_t> ts{0};
    std::atomic<std::uint64_t> meta{0};  ///< tid(32) | name(16) | phase(8)
    std::atomic<std::uint64_t> arg0{0};
    std::atomic<std::uint64_t> arg1{0};
  };

  Slot* slots_ = nullptr;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

namespace detail {
extern std::atomic<bool> g_tracing;
}  // namespace detail

/// True while process-wide tracing is on.  Relaxed load + branch: this
/// is the whole cost of a disabled trace point.
inline bool tracing() noexcept {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Turn tracing on, allocating the process ring on first use (the ring
/// is immortal once allocated, like registry metrics — the capacity of
/// the first call wins).  Normal threads only.
void start_tracing(std::size_t capacity = TraceRing::kDefaultCapacity);
void stop_tracing() noexcept;

/// The process ring, or nullptr before the first start_tracing().
TraceRing* trace_ring() noexcept;

/// Emit an instant into the process ring if tracing is on.
/// Async-signal-safe.
inline void trace_instant(std::uint16_t name_id, std::uint64_t arg0 = 0,
                          std::uint64_t arg1 = 0) noexcept {
  TraceRing* ring = tracing() ? trace_ring() : nullptr;
  if (ring != nullptr) {
    ring->emit(ticks(), name_id, TracePhase::kInstant, arg0, arg1);
  }
}

/// Render events as a Chrome trace-event JSON document (an object with
/// a "traceEvents" array; timestamps in microseconds), loadable in
/// chrome://tracing and Perfetto.
std::string chrome_trace_json(const std::vector<TraceEvent>& events);

/// Snapshot the process ring and write it as Chrome trace JSON.
Status write_chrome_trace(const std::string& path);

}  // namespace ickpt::obs
