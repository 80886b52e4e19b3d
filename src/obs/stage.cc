#include "obs/stage.h"

#include <mutex>

namespace ickpt::obs {

namespace {

std::mutex g_stage_mu;
std::vector<Stage*>& all_stages() {
  static auto* v = new std::vector<Stage*>();  // immortal, like metrics
  return *v;
}

}  // namespace

Stage::Stage(std::string_view name, TraceCat cat)
    : name_(name),
      hist_(registry().histogram(name_ + "_ns")),
      span_id_(trace_name(name_, cat)) {}

Stage& stage(std::string_view name, TraceCat cat) {
  calibrate_ticks();
  std::lock_guard<std::mutex> lock(g_stage_mu);
  for (Stage* s : all_stages()) {
    if (s->name() == name) return *s;
  }
  return *all_stages().emplace_back(new Stage(name, cat));
}

std::vector<const Stage*> stages() {
  std::lock_guard<std::mutex> lock(g_stage_mu);
  return std::vector<const Stage*>(all_stages().begin(), all_stages().end());
}

void Stage::Scope::finish(bool record, std::uint64_t arg0,
                          std::uint64_t arg1) noexcept {
  const bool timed = record && hist_ != nullptr;
  if (timed || span_id_ != 0) {
    const std::uint64_t t1 = ticks();
    if (timed) hist_->record(ticks_elapsed_ns(t0_, t1));
    // The E goes to the ring even if tracing stopped mid-scope, so a
    // recorded B is never left open.
    TraceRing* ring = trace_ring();
    if (span_id_ != 0 && ring != nullptr) {
      ring->emit(t1, span_id_, TracePhase::kEnd, arg0, arg1);
    }
  }
  hist_ = nullptr;
  span_id_ = 0;
}

}  // namespace ickpt::obs
