#include "checkpoint/inspect.h"

#include <algorithm>
#include <optional>

#include "checkpoint/coordinated.h"
#include "checkpoint/format.h"
#include "checkpoint/restore.h"
#include "obs/stage.h"

namespace ickpt::checkpoint {

namespace {

/// One chain element: header fields from peek_header, then a full
/// structural, decode and CRC check through read_checkpoint_file.
Result<ChainElement> inspect_object(storage::StorageBackend& storage,
                                    const std::string& key) {
  ChainElement e;
  auto header = peek_header(storage, key, &e.file_bytes);
  if (!header.is_ok()) return header.status();
  auto state = read_checkpoint_file(storage, key);
  if (!state.is_ok()) return state.status();

  e.sequence = header->sequence;
  e.parent_sequence = header->parent_sequence;
  e.full = header->kind == static_cast<std::uint16_t>(Kind::kFull);
  e.block_count = header->block_count;
  e.virtual_time = header->virtual_time;
  e.key = key;
  return e;
}

/// Sequence of an object for repair placement: the header if readable
/// (any zero-pad may appear in keys), the key otherwise.
std::optional<std::uint64_t> placement_sequence(
    storage::StorageBackend& storage, const std::string& key) {
  if (auto header = peek_header(storage, key); header.is_ok()) {
    return header->sequence;
  }
  auto parsed = parse_checkpoint_key(key);
  return parsed ? parsed->sequence : std::nullopt;
}

/// Move an object's bytes under "quarantine/<key>" and remove the
/// original.  Preserves evidence while getting damage out of the way
/// of restore and inspect (neither looks under "quarantine/").
Status quarantine(storage::StorageBackend& storage, const std::string& key,
                  std::string* quarantine_key) {
  *quarantine_key = "quarantine/" + key;
  auto reader = storage.open(key);
  if (!reader.is_ok()) return reader.status();
  auto writer = storage.create(*quarantine_key);
  if (!writer.is_ok()) return writer.status();
  std::vector<std::byte> buf(64 * 1024);
  for (;;) {
    auto got = (*reader)->read(buf);
    if (!got.is_ok()) return got.status();
    if (*got == 0) break;
    ICKPT_RETURN_IF_ERROR((*writer)->write({buf.data(), *got}));
  }
  ICKPT_RETURN_IF_ERROR((*writer)->close());
  return storage.remove(key);
}

}  // namespace

bool StoreReport::healthy() const noexcept {
  if (!problems.empty()) return false;
  for (const auto& [rank, chain] : chains) {
    if (!chain.healthy()) return false;
  }
  return true;
}

Result<ChainReport> inspect_chain(storage::StorageBackend& storage,
                                  std::uint32_t rank) {
  static obs::Stage& inspect =
      obs::stage("fsck.inspect", obs::TraceCat::kFsck);
  auto scope = inspect.begin(rank);
  auto keys = storage.list();
  if (!keys.is_ok()) return keys.status();

  ChainReport report;
  report.rank = rank;
  const std::string prefix = "rank" + std::to_string(rank) + "/";
  for (const auto& key : *keys) {
    if (key.rfind(prefix, 0) != 0) continue;
    auto element = inspect_object(storage, key);
    if (!element.is_ok()) {
      report.problems.push_back(key + ": " +
                                element.status().to_string());
      continue;
    }
    report.total_bytes += element->file_bytes;
    report.elements.push_back(std::move(element.value()));
  }
  std::sort(report.elements.begin(), report.elements.end(),
            [](const ChainElement& a, const ChainElement& b) {
              return a.sequence < b.sequence;
            });

  if (report.elements.empty()) {
    report.problems.push_back("no readable checkpoints for rank " +
                              std::to_string(rank));
    return report;
  }

  // Invariants: a full element must exist; sequences strictly
  // increase; each non-root's parent is the previous element.
  bool seen_full = false;
  for (std::size_t i = 0; i < report.elements.size(); ++i) {
    const ChainElement& e = report.elements[i];
    if (e.full) seen_full = true;
    if (i > 0) {
      const ChainElement& prev = report.elements[i - 1];
      if (e.sequence == prev.sequence) {
        report.problems.push_back("duplicate sequence " +
                                  std::to_string(e.sequence));
      }
      if (!e.full && e.parent_sequence != prev.sequence) {
        report.problems.push_back(
            "broken parent link at sequence " +
            std::to_string(e.sequence) + " (parent " +
            std::to_string(e.parent_sequence) + ", expected " +
            std::to_string(prev.sequence) + ")");
      }
    } else if (!e.full && e.parent_sequence != e.sequence) {
      report.problems.push_back(
          "chain starts with an incremental whose parent " +
          std::to_string(e.parent_sequence) + " is missing");
    }
  }
  if (!seen_full) {
    report.problems.push_back("chain has no full checkpoint");
  }

  // Recoverability check: actually run the restorer.
  auto state = restore_chain(storage, rank);
  if (state.is_ok()) {
    report.recoverable = true;
    report.recoverable_upto = state->sequence;
  } else {
    report.problems.push_back("restore failed: " +
                              state.status().to_string());
  }
  return report;
}

Result<StoreReport> inspect_store(storage::StorageBackend& storage) {
  auto keys = storage.list();
  if (!keys.is_ok()) return keys.status();

  StoreReport report;
  std::vector<std::uint32_t> ranks;
  for (const auto& key : *keys) {
    if (auto parsed = parse_checkpoint_key(key)) {
      if (std::find(ranks.begin(), ranks.end(), parsed->rank) ==
          ranks.end()) {
        ranks.push_back(parsed->rank);
      }
    } else if (key.rfind("commit/", 0) == 0) {
      if (auto seq = parse_commit_key(key)) {
        report.commit_markers.push_back(*seq);
      } else {
        report.problems.push_back("unparseable commit marker: " + key);
      }
    }
  }
  std::sort(report.commit_markers.begin(), report.commit_markers.end());
  std::sort(ranks.begin(), ranks.end());

  for (std::uint32_t rank : ranks) {
    auto chain = inspect_chain(storage, rank);
    if (!chain.is_ok()) return chain.status();
    report.chains.emplace(rank, std::move(chain.value()));
  }

  // Every committed sequence must be restorable *at that sequence* on
  // every rank (restoring an older state silently loses the work the
  // marker promised was durable).
  for (std::uint64_t seq : report.commit_markers) {
    for (const auto& [rank, chain] : report.chains) {
      auto state = restore_chain(storage, rank, seq);
      bool covered = state.is_ok() && state->sequence == seq;
      if (!covered) {
        report.problems.push_back(
            "committed sequence " + std::to_string(seq) +
            " is not restorable on rank " + std::to_string(rank));
      }
    }
  }
  return report;
}

Result<RepairReport> repair_store(storage::StorageBackend& storage) {
  static obs::Stage& repair = obs::stage("fsck.repair", obs::TraceCat::kFsck);
  auto scope = repair.begin();
  auto keys = storage.list();
  if (!keys.is_ok()) return keys.status();

  RepairReport report;
  std::map<std::uint32_t, std::vector<std::string>> by_rank;
  for (const auto& key : *keys) {
    if (auto parsed = parse_checkpoint_key(key)) {
      by_rank[parsed->rank].push_back(key);
    }
  }

  auto drop = [&](const std::string& key,
                  const std::string& reason) -> Status {
    std::string qkey;
    ICKPT_RETURN_IF_ERROR(quarantine(storage, key, &qkey));
    report.dropped.push_back({key, qkey, reason});
    return Status::ok();
  };

  for (auto& [rank, rank_keys] : by_rank) {
    // Establish the newest restorable prefix for this rank.
    RestoreOptions options;
    options.allow_truncated_tail = true;
    options.decode_threads = 1;  // repair is not the hot path
    auto state = restore_chain(storage, rank, options);
    if (!state.is_ok()) {
      // Nothing restorable: keep all the evidence, let a human look.
      report.problems.push_back("rank " + std::to_string(rank) +
                                " has no restorable prefix: " +
                                state.status().to_string());
      continue;
    }
    const std::uint64_t upto = state->sequence;
    report.recovered_upto[rank] = upto;

    for (const auto& key : rank_keys) {
      const auto seq = placement_sequence(storage, key);
      if (!seq) {
        ICKPT_RETURN_IF_ERROR(
            drop(key, "orphan: unreadable header and unparseable key"));
        continue;
      }
      if (*seq > upto) {
        ICKPT_RETURN_IF_ERROR(
            drop(key, "beyond recovered sequence " + std::to_string(upto)));
        continue;
      }
      // At or below the recovered sequence but individually corrupt
      // (pre-seed garbage the planner never reads): restoring at
      // `upto` succeeded without it, so quarantining is safe.
      auto element = inspect_object(storage, key);
      if (!element.is_ok()) {
        ICKPT_RETURN_IF_ERROR(drop(key, element.status().to_string()));
      }
    }
  }

  // A commit marker promises its sequence is restorable everywhere;
  // after truncation such a promise may no longer hold.
  for (const auto& key : *keys) {
    if (key.rfind("commit/", 0) != 0) continue;
    const auto seq = parse_commit_key(key);
    if (!seq) {
      ICKPT_RETURN_IF_ERROR(drop(key, "unparseable commit marker"));
      continue;
    }
    bool stale = false;
    for (const auto& [rank, upto] : report.recovered_upto) {
      if (*seq > upto) {
        stale = true;
        break;
      }
    }
    if (stale) {
      ICKPT_RETURN_IF_ERROR(
          drop(key, "commit marker beyond recovered sequence"));
    }
  }
  return report;
}

}  // namespace ickpt::checkpoint
