// One pipeline stage, timed once.  obs::stage(name, cat) registers the
// histogram "<name>_ns" and the span "<name>" together and returns the
// name's one immortal Stage.  A Scope (begin() .. end()) reads ticks()
// once per edge: the difference goes to the histogram, and the same
// two readings stamp the span's B and E events.  cancel() closes the
// span and records nothing.  With metrics and tracing both off, begin()
// reads no clock and each edge costs one branch.  begin/end/cancel are
// lock- and allocation-free; obs::stage() locks and allocates, so call
// it once per site (a function-local static) on a normal thread.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ickpt::obs {

class Stage {
 public:
  class Scope;

  /// Start one run of the stage; arg0/arg1 ride on the B event.
  [[nodiscard]] Scope begin(std::uint64_t arg0 = 0,
                            std::uint64_t arg1 = 0) const noexcept;

  const std::string& name() const noexcept { return name_; }
  Histogram& histogram() const noexcept { return hist_; }

 private:
  friend Stage& stage(std::string_view name, TraceCat cat);
  Stage(std::string_view name, TraceCat cat);

  std::string name_;
  Histogram& hist_;
  std::uint16_t span_id_;
};

/// The stage called `name`, created on first use.
Stage& stage(std::string_view name, TraceCat cat = TraceCat::kOther);

/// Every registered stage, in registration order.
std::vector<const Stage*> stages();

/// One timed run of a Stage; ends (recording) when destroyed.  Movable,
/// so it may outlive a block (a connection holds its request's scope).
class Stage::Scope {
 public:
  Scope() noexcept = default;  ///< inert: end()/cancel() do nothing
  Scope(Scope&& other) noexcept { *this = std::move(other); }
  /// Cancels whatever this scope was timing, then takes over `other`.
  Scope& operator=(Scope&& other) noexcept {
    cancel();
    hist_ = std::exchange(other.hist_, nullptr);
    span_id_ = std::exchange(other.span_id_, 0);
    t0_ = other.t0_;
    return *this;
  }
  ~Scope() { end(); }

  /// Record the duration and close the span (arg0/arg1 ride on the E
  /// event).  Idempotent.
  void end(std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) noexcept {
    if ((hist_ != nullptr) | (span_id_ != 0)) finish(true, arg0, arg1);
  }

  /// Close the span without recording a duration.  Idempotent.
  void cancel() noexcept {
    if ((hist_ != nullptr) | (span_id_ != 0)) finish(false, 0, 0);
  }

 private:
  friend class Stage;
  void finish(bool record, std::uint64_t arg0, std::uint64_t arg1) noexcept;

  Histogram* hist_ = nullptr;  ///< set when metrics were on at begin
  std::uint16_t span_id_ = 0;  ///< set when tracing was on at begin
  std::uint64_t t0_ = 0;       ///< ticks() at begin
};

inline Stage::Scope Stage::begin(std::uint64_t arg0,
                                 std::uint64_t arg1) const noexcept {
  Scope s;
  const bool metrics = enabled();
  const bool traced = tracing();
  if (metrics | traced) {
    s.t0_ = ticks();
    if (metrics) s.hist_ = &hist_;
    TraceRing* ring = traced ? trace_ring() : nullptr;
    if (ring != nullptr) {
      s.span_id_ = span_id_;
      ring->emit(s.t0_, span_id_, TracePhase::kBegin, arg0, arg1);
    }
  }
  return s;
}

}  // namespace ickpt::obs
