// One pass of an e2e_ledger workload: set up the store and the app,
// run the app under a tracking engine with a synchronous incremental
// checkpoint at every virtual-second boundary, then restore the chain
// and verify it against digests of live memory.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "memtrack/tracker.h"

namespace ledger {

class SpanLog;

enum class StoreKind {
  kFile,           ///< durable FileBackend (one file per object)
  kSegment,        ///< durable SegmentBackend
  kRemoteSegment,  ///< RemoteBackend -> in-process net::Server -> segments
};

struct Workload {
  std::string name;
  std::string app;
  double scale = 1.0;             ///< AppConfig::footprint_scale
  ickpt::memtrack::EngineKind engine = ickpt::memtrack::EngineKind::kMProtect;
  StoreKind store = StoreKind::kSegment;
  int threads = 1;                ///< encode threads = restore decode threads
  std::uint64_t full_every = 0;   ///< CheckpointerOptions::full_every
  double run_vs = 100;            ///< virtual seconds of the tracked run
  int restore_points = 0;         ///< restores before the final one
};

/// The benchmark's workloads, by name; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Counts that repeat exactly for a given workload and seed.
struct Counts {
  std::uint64_t checkpoints = 0;
  std::uint64_t dirty_pages = 0;
  std::uint64_t payload_pages = 0;
  std::uint64_t zero_pages = 0;
  std::uint64_t rle_pages = 0;
  std::uint64_t bytes_written = 0;  ///< stored object bytes
  std::uint64_t pages_decoded = 0;  ///< restore.pages_decoded
  bool operator==(const Counts&) const = default;
};

struct PassResult {
  double setup_s = 0;
  double run_s = 0;      ///< tracked run up to the last acknowledged commit
  double restore_s = 0;  ///< sum of restore_chain wall times
  double cpu_s = 0;      ///< process CPU during the run
  std::vector<double> stall_ms;  ///< one per checkpoint_incremental call
  std::uint64_t payload_bytes = 0;
  std::uint64_t footprint_bytes = 0;
  Counts counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Per-layer metrics (name -> value); filled by traced passes only.
  std::map<std::string, double> layers;
};

/// Run one tracked pass.  `dir` is the (emptied) store directory.  When
/// `log` is non-null the pass is traced: tracker and storage are wrapped
/// in timing decorators and `layers` is filled from the spans.
PassResult run_pass(const Workload& w, std::uint64_t seed,
                    const std::string& dir, SpanLog* log);

/// Delete a store directory, then sync its filesystem so the deletion
/// is settled before anything is timed: with online discard (mount -o
/// discard) freed blocks are trimmed at the next journal commit, which
/// would otherwise stall the next pass's fdatasync calls.
void remove_store(const std::string& dir);

/// Wall seconds of the same app and virtual length with no tracker, no
/// sampler and no checkpoints.  Negative on failure.
double run_untracked(const Workload& w, std::uint64_t seed);

}  // namespace ledger
