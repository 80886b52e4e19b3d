// Randomized end-to-end checkpoint/restore fuzzing: random block
// geometries, random write/map/unmap sequences, random restore points.
// The invariant: restoring the chain at any checkpointed sequence
// reproduces the exact memory state that existed at that checkpoint.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>

#include "checkpoint/checkpointer.h"
#include "checkpoint/restore.h"
#include "common/rng.h"
#include "memtrack/explicit_engine.h"
#include "region/address_space.h"
#include "storage/backend.h"
#include "storage/segment_backend.h"

namespace ickpt::checkpoint {
namespace {

using memtrack::ExplicitEngine;
using region::AddressSpace;
using region::AreaKind;
using region::BlockId;

/// A ground-truth shadow of the address space: block id -> contents.
using Shadow = std::map<std::uint32_t, std::vector<std::byte>>;

Shadow snapshot_space(AddressSpace& space) {
  Shadow shadow;
  for (const auto& info : space.blocks()) {
    auto span = space.block_span(info.id);
    EXPECT_TRUE(span.is_ok());
    shadow[info.id] =
        std::vector<std::byte>(span->begin(), span->end());
  }
  return shadow;
}

void expect_state_matches(const RestoredState& state, const Shadow& truth,
                          std::uint64_t seq) {
  ASSERT_EQ(state.blocks.size(), truth.size()) << "at sequence " << seq;
  for (const auto& [id, expected] : truth) {
    auto it = state.blocks.find(id);
    ASSERT_NE(it, state.blocks.end())
        << "block " << id << " missing at sequence " << seq;
    ASSERT_EQ(it->second.data.size(), expected.size());
    EXPECT_EQ(std::memcmp(it->second.data.data(), expected.data(),
                          expected.size()),
              0)
        << "block " << id << " differs at sequence " << seq;
  }
}

class CheckpointFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointFuzzTest, EverySequenceRestoresExactly) {
  Rng rng(GetParam());
  ExplicitEngine engine;
  AddressSpace space(engine, "fuzz");
  auto storage = storage::make_memory_backend();
  CheckpointerOptions opts;
  opts.full_every = 1 + rng.next_index(8);
  opts.compress = rng.next_bool(0.5);
  auto ckpt = Checkpointer::create(space, storage.get(), opts).value();

  // Start with 1-4 blocks of random sizes.
  std::vector<BlockId> live;
  int initial = 1 + static_cast<int>(rng.next_index(4));
  for (int b = 0; b < initial; ++b) {
    auto ref = space.map((1 + rng.next_index(12)) * page_size(),
                         rng.next_bool(0.5) ? AreaKind::kHeap
                                            : AreaKind::kMmap,
                         "blk" + std::to_string(b));
    ASSERT_TRUE(ref.is_ok());
    live.push_back(ref->id);
  }
  ASSERT_TRUE(engine.arm().is_ok());

  // Interleave writes, maps, unmaps and checkpoints; remember the
  // ground truth and the virtual time at every checkpoint.
  std::map<std::uint64_t, Shadow> truth_at;
  std::map<std::uint64_t, double> time_at;
  const int steps = 24;
  for (int step = 0; step < steps; ++step) {
    double action = rng.next_double();
    if (action < 0.55 && !live.empty()) {
      // Write a random page range of a random live block.
      BlockId id = live[rng.next_index(live.size())];
      auto span = space.block_span(id);
      ASSERT_TRUE(span.is_ok());
      std::size_t pages = span->size() / page_size();
      std::size_t first = rng.next_index(pages);
      std::size_t count = 1 + rng.next_index(pages - first);
      auto* base = span->data() + first * page_size();
      for (std::size_t i = 0; i < count * page_size(); i += 8) {
        std::uint64_t v = rng.next_u64();
        std::memcpy(base + i, &v, 8);
      }
      engine.note_write(base, count * page_size());
    } else if (action < 0.70) {
      // Map a new block (exercises zero-fill of fresh blocks).
      auto ref = space.map((1 + rng.next_index(8)) * page_size(),
                           AreaKind::kMmap,
                           "dyn" + std::to_string(step));
      ASSERT_TRUE(ref.is_ok());
      live.push_back(ref->id);
      // Sometimes write its first page immediately.
      if (rng.next_bool(0.6)) {
        std::uint64_t v = rng.next_u64();
        std::memcpy(ref->mem.data(), &v, 8);
        engine.note_write(ref->mem.data(), 8);
      }
    } else if (action < 0.80 && live.size() > 1) {
      // Unmap (memory exclusion mid-interval).
      std::size_t idx = rng.next_index(live.size());
      ASSERT_TRUE(space.unmap(live[idx]).is_ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      // Checkpoint and record the ground truth.
      auto snap = engine.collect(/*rearm=*/true);
      ASSERT_TRUE(snap.is_ok());
      auto meta = ckpt->checkpoint_incremental(*snap,
                                              static_cast<double>(step));
      ASSERT_TRUE(meta.is_ok()) << meta.status().to_string();
      truth_at[meta->sequence] = snapshot_space(space);
      time_at[meta->sequence] = static_cast<double>(step);
    }
  }
  // Final checkpoint so the last state is always covered.
  auto snap = engine.collect(true);
  ASSERT_TRUE(snap.is_ok());
  auto meta = ckpt->checkpoint_incremental(*snap, steps);
  ASSERT_TRUE(meta.is_ok());
  truth_at[meta->sequence] = snapshot_space(space);
  time_at[meta->sequence] = steps;

  // Every recorded sequence must restore to its exact ground truth and
  // virtual time, with inline and pooled decode.
  for (const auto& [seq, truth] : truth_at) {
    for (int threads : {1, 4}) {
      RestoreOptions ropts;
      ropts.upto = seq;
      ropts.decode_threads = threads;
      auto state = restore_chain(*storage, 0, ropts);
      ASSERT_TRUE(state.is_ok()) << "seq " << seq << " (threads " << threads
                                 << "): " << state.status().to_string();
      EXPECT_EQ(state->sequence, seq);
      expect_state_matches(*state, truth, seq);
      EXPECT_EQ(state->virtual_time, time_at.at(seq));
    }
  }
}

/// The same invariant against a store on a real filesystem, where each
/// decode shard preads its byte range from the object's file (one file
/// per object) or from its segment (the store sparse-commits restores
/// from).
void check_on_disk_chain(bool segment) {
  const std::string dir = ::testing::TempDir() + "/ickpt_fuzz_disk_test";
  std::filesystem::remove_all(dir);

  Rng rng(99);
  ExplicitEngine engine;
  AddressSpace space(engine, "fuzzdisk");
  auto storage = segment ? storage::make_segment_backend(dir)
                         : storage::make_file_backend(dir);
  ASSERT_TRUE(storage.is_ok());
  CheckpointerOptions opts;
  opts.full_every = 3;
  opts.compress = true;
  auto ckpt = Checkpointer::create(space, storage->get(), opts).value();

  auto ref = space.map(16 * page_size(), AreaKind::kHeap, "blk");
  ASSERT_TRUE(ref.is_ok());
  ASSERT_TRUE(engine.arm().is_ok());

  std::map<std::uint64_t, Shadow> truth_at;
  for (int step = 0; step < 8; ++step) {
    auto span = space.block_span(ref->id);
    ASSERT_TRUE(span.is_ok());
    std::size_t first = rng.next_index(16);
    auto* base = span->data() + first * page_size();
    for (std::size_t i = 0; i < page_size(); i += 8) {
      std::uint64_t v = rng.next_u64();
      std::memcpy(base + i, &v, 8);
    }
    engine.note_write(base, page_size());
    auto snap = engine.collect(true);
    ASSERT_TRUE(snap.is_ok());
    auto meta = ckpt->checkpoint_incremental(*snap, step);
    ASSERT_TRUE(meta.is_ok());
    truth_at[meta->sequence] = snapshot_space(space);
  }

  for (const auto& [seq, truth] : truth_at) {
    RestoreOptions ropts;
    ropts.upto = seq;
    auto state = restore_chain(**storage, 0, ropts);
    ASSERT_TRUE(state.is_ok())
        << "seq " << seq << ": " << state.status().to_string();
    expect_state_matches(*state, truth, seq);
  }
  ckpt.reset();
  storage->reset();
  std::filesystem::remove_all(dir);
}

TEST(CheckpointFuzzTest, FileBackedChainRestoresEverySequence) {
  check_on_disk_chain(/*segment=*/false);
}

TEST(CheckpointFuzzTest, SegmentBackedChainRestoresEverySequence) {
  check_on_disk_chain(/*segment=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ickpt::checkpoint
