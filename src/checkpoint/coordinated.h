// Coordinated multi-rank checkpointing.
//
// The paper observes (Section 6.2) that the bulk-synchronous structure
// of scientific codes gives natural global checkpoint points: at phase
// boundaries no messages are in flight, so a barrier-aligned local
// checkpoint on every rank is a consistent global state — no
// Chandy-Lamport marker machinery needed.  A two-phase commit marker
// makes the global checkpoint atomic: a crash between local writes
// and the commit leaves the previous committed sequence intact.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "checkpoint/checkpointer.h"
#include "minimpi/comm.h"

namespace ickpt::checkpoint {

/// Sequence named by a commit-marker key "commit/<digits>" (any
/// zero-pad width); nullopt for any other key.
std::optional<std::uint64_t> parse_commit_key(std::string_view key);

class CoordinatedCheckpointer {
 public:
  /// Collective: every rank calls with its own checkpointer and dirty
  /// snapshot.  Ranks barrier, write local checkpoints, agree on
  /// success via allreduce, and rank 0 writes the commit marker.
  /// Returns the committed sequence, or kInternal if any rank failed
  /// (in which case no marker is written and the previous commit
  /// stands).
  static Result<std::uint64_t> checkpoint(
      mpi::Comm& comm, Checkpointer& local,
      const memtrack::DirtySnapshot& snapshot, double virtual_time,
      storage::StorageBackend& storage);

  /// The newest committed global sequence (kNotFound if none).
  static Result<std::uint64_t> last_committed(
      storage::StorageBackend& storage);
};

}  // namespace ickpt::checkpoint
