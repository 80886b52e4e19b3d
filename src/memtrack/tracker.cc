#include "memtrack/tracker.h"

#include "memtrack/explicit_engine.h"
#include "memtrack/mprotect_engine.h"
#include "memtrack/uffd_engine.h"

namespace ickpt::memtrack {

std::string_view to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kMProtect: return "mprotect";
    case EngineKind::kUffd: return "uffd";
    case EngineKind::kExplicit: return "explicit";
  }
  return "?";
}

Result<std::unique_ptr<DirtyTracker>> make_tracker(EngineKind kind) {
  switch (kind) {
    case EngineKind::kMProtect:
      return std::unique_ptr<DirtyTracker>(new MProtectEngine());
    case EngineKind::kUffd: {
      auto engine = UffdEngine::create();
      if (!engine.is_ok()) return engine.status();
      return std::unique_ptr<DirtyTracker>(std::move(engine.value()));
    }
    case EngineKind::kExplicit:
      return std::unique_ptr<DirtyTracker>(new ExplicitEngine());
  }
  return invalid_argument("unknown engine kind");
}

}  // namespace ickpt::memtrack
