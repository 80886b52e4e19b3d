#include "checkpoint/coordinated.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace ickpt::checkpoint {

namespace {
constexpr std::string_view kCommitPrefix = "commit/";

std::string commit_key(std::uint64_t sequence) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "commit/%012llu",
                static_cast<unsigned long long>(sequence));
  return buf;
}
}  // namespace

std::optional<std::uint64_t> parse_commit_key(std::string_view key) {
  if (!key.starts_with(kCommitPrefix)) return std::nullopt;
  key.remove_prefix(kCommitPrefix.size());
  const char* end = key.data() + key.size();
  std::uint64_t sequence = 0;
  auto [p, ec] = std::from_chars(key.data(), end, sequence);
  if (ec != std::errc() || p != end) return std::nullopt;
  return sequence;
}

Result<std::uint64_t> CoordinatedCheckpointer::checkpoint(
    mpi::Comm& comm, Checkpointer& local,
    const memtrack::DirtySnapshot& snapshot, double virtual_time,
    storage::StorageBackend& storage) {
  // Phase boundary: the caller invokes this between bursts, so the
  // barrier drains any stragglers and no messages are in flight.
  comm.barrier();

  auto meta = local.checkpoint_incremental(snapshot, virtual_time);
  double ok_local = meta.is_ok() ? 1.0 : 0.0;
  double ok_all = comm.allreduce_sum(ok_local);
  const bool committed = ok_all >= static_cast<double>(comm.size());

  std::uint64_t sequence = meta.is_ok() ? meta->sequence : 0;
  if (!committed) {
    // No marker: the previous committed checkpoint remains the
    // recovery point.  (Orphaned local files are garbage-collected by
    // the next truncate_before_last_full.)
    return internal_error("coordinated checkpoint failed on some rank");
  }

  if (comm.rank() == 0) {
    auto writer = storage.create(commit_key(sequence));
    if (!writer.is_ok()) return writer.status();
    std::uint64_t payload[2] = {sequence,
                                static_cast<std::uint64_t>(comm.size())};
    ICKPT_RETURN_IF_ERROR((*writer)->write(
        {reinterpret_cast<const std::byte*>(payload), sizeof payload}));
    ICKPT_RETURN_IF_ERROR((*writer)->close());
  }
  comm.barrier();  // everyone sees the marker before proceeding
  return sequence;
}

Result<std::uint64_t> CoordinatedCheckpointer::last_committed(
    storage::StorageBackend& storage) {
  auto keys = storage.list();
  if (!keys.is_ok()) return keys.status();
  std::uint64_t best = 0;
  bool found = false;
  for (const auto& k : *keys) {
    if (auto seq = parse_commit_key(k)) {
      best = std::max(best, *seq);
      found = true;
    }
  }
  if (!found) return not_found("no committed checkpoint");
  return best;
}

}  // namespace ickpt::checkpoint
