// The plan-then-decode restore pipeline: byte identity with the state
// each checkpoint wrote, upto filtering, gap and corruption handling
// (strict and truncated-tail), memory exclusion across long chains,
// decode-once accounting, single-object reads, numeric sequence
// ordering at the key-pad boundary, and store repair.
#include "checkpoint/restore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "checkpoint/checkpointer.h"
#include "checkpoint/format.h"
#include "checkpoint/inspect.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "memtrack/explicit_engine.h"
#include "obs/metrics.h"
#include "region/address_space.h"
#include "storage/backend.h"
#include "tests/chunked_backend_fake.h"

namespace ickpt::checkpoint {
namespace {

using memtrack::ExplicitEngine;
using region::AddressSpace;
using region::AreaKind;

void fill_pattern(std::span<std::byte> mem, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < mem.size(); i += 8) {
    std::uint64_t v = rng.next_u64();
    std::memcpy(mem.data() + i, &v, std::min<std::size_t>(8, mem.size() - i));
  }
}

void expect_states_identical(const RestoredState& a, const RestoredState& b) {
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_DOUBLE_EQ(a.virtual_time, b.virtual_time);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  auto ia = a.blocks.begin();
  auto ib = b.blocks.begin();
  for (; ia != a.blocks.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.name, ib->second.name);
    EXPECT_EQ(ia->second.kind, ib->second.kind);
    ASSERT_EQ(ia->second.data.size(), ib->second.data.size())
        << "block " << ia->first;
    EXPECT_EQ(std::memcmp(ia->second.data.data(), ib->second.data.data(),
                          ia->second.data.size()),
              0)
        << "content mismatch in block " << ia->first;
  }
}

class RestoreChainTest : public ::testing::Test {
 protected:
  RestoreChainTest()
      : storage_(storage::make_memory_backend()),
        space_(engine_, "rank0"),
        ckpt_(Checkpointer::create(space_, storage_.get()).value()) {}

  /// Map a block, fill it, and return its span.
  std::span<std::byte> add_block(std::size_t pages, const char* name,
                                 std::uint64_t seed) {
    auto b = space_.map(pages * page_size(), AreaKind::kHeap, name);
    EXPECT_TRUE(b.is_ok());
    fill_pattern(b->mem, seed);
    ids_.push_back(b->id);
    return b->mem;
  }

  /// Dirty `page` of `mem` with fresh content and tell the tracker.
  void touch(std::span<std::byte> mem, std::size_t page,
             std::uint64_t seed) {
    auto p = mem.subspan(page * page_size(), page_size());
    fill_pattern(p, seed);
    engine_.note_write(p.data(), p.size());
  }

  /// Record what restore must reproduce at `seq`: every live block of
  /// space_, byte for byte, as the checkpoint at `seq` saw it.
  void record(std::uint64_t seq, double vt) {
    RestoredState& state = written_[seq];
    state.sequence = seq;
    state.virtual_time = vt;
    for (const auto& info : space_.blocks()) {
      auto mem = space_.block_span(info.id);
      ASSERT_TRUE(mem.is_ok());
      RestoredBlock& b = state.blocks[info.id];
      b.id = info.id;
      b.name = info.name;
      b.kind = info.kind;
      b.data.assign(mem->begin(), mem->begin() + info.bytes);
    }
  }

  void full(double vt) {
    auto meta = ckpt_->checkpoint_full(vt);
    ASSERT_TRUE(meta.is_ok());
    record(meta->sequence, vt);
  }

  void incremental(double vt) {
    auto snap = engine_.collect(true);
    ASSERT_TRUE(snap.is_ok());
    auto meta = ckpt_->checkpoint_incremental(*snap, vt);
    ASSERT_TRUE(meta.is_ok());
    record(meta->sequence, vt);
  }

  std::vector<std::byte> read_object(const std::string& key) {
    auto reader = storage_->open(key);
    EXPECT_TRUE(reader.is_ok());
    std::vector<std::byte> data((*reader)->size());
    std::size_t off = 0;
    while (off < data.size()) {
      auto got = (*reader)->read({data.data() + off, data.size() - off});
      EXPECT_TRUE(got.is_ok());
      if (*got == 0) break;
      off += *got;
    }
    return data;
  }

  void write_object(const std::string& key,
                    std::span<const std::byte> data) {
    auto w = storage_->create(key);
    ASSERT_TRUE(w.is_ok());
    ASSERT_TRUE((*w)->write(data).is_ok());
    ASSERT_TRUE((*w)->close().is_ok());
  }

  /// Flip one byte inside the last page payload (just ahead of the
  /// trailer), which a restore that needs this object must detect.
  void corrupt_payload(const std::string& key) {
    auto data = read_object(key);
    ASSERT_GT(data.size(), sizeof(FileTrailer) + 16);
    data[data.size() - sizeof(FileTrailer) - 8] ^= std::byte{0xFF};
    write_object(key, data);
  }

  /// Destroy the object's header so not even its sequence is readable.
  void corrupt_header(const std::string& key) {
    auto data = read_object(key);
    std::memset(data.data(), 0x5A, std::min<std::size_t>(16, data.size()));
    write_object(key, data);
  }

  /// Standard chain: 1 full + `increments` incrementals over block "a"
  /// (8 pages), each touching two pages.  Chain sequences are
  /// 0..increments.
  std::span<std::byte> build_chain(int increments) {
    auto a = add_block(8, "a", 1);
    full(0.0);
    EXPECT_TRUE(engine_.arm().is_ok());
    for (int i = 1; i <= increments; ++i) {
      touch(a, static_cast<std::size_t>(i) % 8, 100 + i);
      touch(a, static_cast<std::size_t>(i * 3 + 1) % 8, 200 + i);
      incremental(static_cast<double>(i));
    }
    return a;
  }

  ExplicitEngine engine_;
  std::unique_ptr<storage::StorageBackend> storage_;
  AddressSpace space_;
  std::unique_ptr<Checkpointer> ckpt_;
  std::vector<region::BlockId> ids_;
  std::map<std::uint64_t, RestoredState> written_;  ///< by sequence
};

TEST_F(RestoreChainTest, ParallelMatchesWrittenStateAcrossEventfulChain) {
  // An eventful chain: several blocks, a mid-chain unmap (memory
  // exclusion) and a mid-chain map (zero-filled birth + later dirty).
  auto a = add_block(8, "a", 1);
  auto b = add_block(3, "b", 2);
  full(0.0);
  ASSERT_TRUE(engine_.arm().is_ok());

  touch(a, 2, 11);
  touch(b, 1, 12);
  incremental(1.0);

  ASSERT_TRUE(space_.unmap(ids_[1]).is_ok());  // drop "b"
  touch(a, 5, 13);
  incremental(2.0);

  auto c = add_block(4, "c", 3);
  for (std::size_t p = 0; p < 4; ++p) touch(c, p, 20 + p);
  touch(a, 0, 14);
  incremental(3.0);

  touch(c, 2, 30);
  incremental(4.0);

  EXPECT_EQ(written_.at(4).blocks.count(ids_[1]), 0u);  // "b" unmapped
  for (int threads : {1, 2, 4}) {
    RestoreOptions opts;
    opts.decode_threads = threads;
    auto planned = restore_chain(*storage_, 0, opts);
    ASSERT_TRUE(planned.is_ok()) << planned.status().to_string();
    expect_states_identical(written_.at(4), *planned);
  }
}

TEST_F(RestoreChainTest, MemoryExclusionAcrossThreeIncrementals) {
  auto a = add_block(4, "a", 1);
  add_block(2, "b", 2);
  add_block(2, "c", 3);
  full(0.0);
  ASSERT_TRUE(engine_.arm().is_ok());

  ASSERT_TRUE(space_.unmap(ids_[1]).is_ok());
  touch(a, 0, 10);
  incremental(1.0);

  ASSERT_TRUE(space_.unmap(ids_[2]).is_ok());
  touch(a, 1, 11);
  incremental(2.0);

  touch(a, 2, 12);
  incremental(3.0);

  auto planned = restore_chain(*storage_, 0);
  ASSERT_TRUE(planned.is_ok());
  EXPECT_EQ(planned->blocks.size(), 1u);
  EXPECT_EQ(planned->blocks.count(ids_[0]), 1u);
  EXPECT_EQ(std::memcmp(planned->blocks[ids_[0]].data.data(), a.data(),
                        a.size()),
            0);

  expect_states_identical(written_.at(3), *planned);
}

TEST_F(RestoreChainTest, UptoRestoresEveryIntermediateState) {
  build_chain(5);
  for (std::uint64_t upto = 0; upto <= 5; ++upto) {
    auto planned = restore_chain(*storage_, 0, upto);
    ASSERT_TRUE(planned.is_ok()) << "upto " << upto;
    EXPECT_EQ(planned->sequence, upto);
    expect_states_identical(written_.at(upto), *planned);
  }
}

// Regression (the old restorer fully parsed objects newer than `upto`
// before discarding them, so damage there failed unrelated restores):
// a corrupt object NEWER than the requested sequence must not matter.
TEST_F(RestoreChainTest, CorruptPayloadNewerThanUptoIsIgnored) {
  build_chain(4);
  corrupt_payload(checkpoint_key(0, 4));
  auto state = restore_chain(*storage_, 0, /*upto=*/2);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 2u);
  // ... while a restore that needs the object still fails.
  auto full = restore_chain(*storage_, 0);
  EXPECT_FALSE(full.is_ok());
  EXPECT_EQ(full.status().code(), ErrorCode::kCorruption);
}

TEST_F(RestoreChainTest, ObliteratedHeaderNewerThanUptoIsIgnored) {
  build_chain(4);
  corrupt_header(checkpoint_key(0, 4));  // sequence only via the key
  auto state = restore_chain(*storage_, 0, /*upto=*/2);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 2u);
}

TEST_F(RestoreChainTest, GapIsDetectedStrictly) {
  build_chain(4);
  ASSERT_TRUE(storage_->remove(checkpoint_key(0, 2)).is_ok());
  auto state = restore_chain(*storage_, 0);
  ASSERT_FALSE(state.is_ok());
  EXPECT_EQ(state.status().code(), ErrorCode::kCorruption);
  EXPECT_NE(state.status().message().find("chain gap"), std::string::npos);
}

TEST_F(RestoreChainTest, GapRecoversToPrefixWithTruncatedTail) {
  auto a = build_chain(4);
  (void)a;
  ASSERT_TRUE(storage_->remove(checkpoint_key(0, 2)).is_ok());
  RestoreOptions opts;
  opts.allow_truncated_tail = true;
  auto state = restore_chain(*storage_, 0, opts);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 1u);
  expect_states_identical(written_.at(1), *state);
}

TEST_F(RestoreChainTest, CorruptTailStrictVsTruncated) {
  build_chain(4);
  corrupt_payload(checkpoint_key(0, 4));

  auto strict = restore_chain(*storage_, 0);
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), ErrorCode::kCorruption);

  RestoreOptions opts;
  opts.allow_truncated_tail = true;
  auto state = restore_chain(*storage_, 0, opts);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 3u);
  expect_states_identical(written_.at(3), *state);
}

TEST_F(RestoreChainTest, CorruptMidChainTruncatesToPrefix) {
  build_chain(5);
  corrupt_payload(checkpoint_key(0, 2));

  auto strict = restore_chain(*storage_, 0);
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), ErrorCode::kCorruption);

  RestoreOptions opts;
  opts.allow_truncated_tail = true;
  auto state = restore_chain(*storage_, 0, opts);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 1u);  // everything after 2 is unusable too
  expect_states_identical(written_.at(1), *state);
}

TEST_F(RestoreChainTest, ObliteratedTailObjectStillRecovers) {
  build_chain(3);
  corrupt_header(checkpoint_key(0, 3));
  RestoreOptions opts;
  opts.allow_truncated_tail = true;
  auto state = restore_chain(*storage_, 0, opts);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 2u);
}

TEST_F(RestoreChainTest, DecodesEachSurvivingPageExactlyOnce) {
  build_chain(6);  // 8-page block, 6 incrementals x 2 pages
  auto& reg = obs::registry();
  auto& decoded = reg.counter("restore.pages_decoded");
  auto& skipped = reg.counter("restore.pages_skipped");
  const std::uint64_t d0 = decoded.value();
  const std::uint64_t s0 = skipped.value();

  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok());

  // The final footprint is one 8-page block: exactly 8 page decodes no
  // matter how often the chain rewrote them; every superseded write is
  // skipped (CRC-checked but never decoded).
  EXPECT_EQ(decoded.value() - d0, 8u);
  EXPECT_EQ(skipped.value() - s0, 8u + 6u * 2u - 8u);
}

TEST_F(RestoreChainTest, SequentialChunkedBackendRestores) {
  build_chain(4);
  auto reference = restore_chain(*storage_, 0);
  ASSERT_TRUE(reference.is_ok());

  // A 37-byte-per-read, sequential-only view of the same store must
  // produce identical bytes through the scanner and shard fallbacks.
  storage::ChunkedBackend chunked(*storage_, 37);
  for (int threads : {1, 4}) {
    RestoreOptions opts;
    opts.decode_threads = threads;
    auto state = restore_chain(chunked, 0, opts);
    ASSERT_TRUE(state.is_ok()) << state.status().to_string();
    expect_states_identical(*reference, *state);
  }
}

/// Recompute the trailer CRC after editing an object's bytes, so only
/// the structural or decode checks can catch the edit.
void reseal(std::vector<std::byte>& data) {
  FileTrailer t;
  std::memcpy(&t, data.data() + data.size() - sizeof t, sizeof t);
  t.crc32 = crc32({data.data(), data.size() - sizeof t});
  std::memcpy(data.data() + data.size() - sizeof t, &t, sizeof t);
}

/// The first BlockHeader of an object.
BlockHeader first_block(const std::vector<std::byte>& data) {
  BlockHeader bh;
  std::memcpy(&bh, data.data() + sizeof(FileHeader), sizeof bh);
  return bh;
}

// --- Single-object reads (fsck's per-object check) ------------------

TEST_F(RestoreChainTest, ReadCheckpointFileReturnsOneIncrementalAlone) {
  auto a = add_block(8, "a", 1);
  full(0.0);
  ASSERT_TRUE(engine_.arm().is_ok());
  touch(a, 2, 11);
  touch(a, 5, 12);
  incremental(1.5);

  auto& reg = obs::registry();
  auto& decoded = reg.counter("restore.pages_decoded");
  auto& skipped = reg.counter("restore.pages_skipped");
  auto& bytes_read = reg.counter("restore.bytes_read");
  const std::uint64_t d0 = decoded.value();
  const std::uint64_t s0 = skipped.value();
  const std::uint64_t b0 = bytes_read.value();
  // Nor any restore stage: plan, decode, per-shard decode, stitch.
  std::vector<obs::Histogram*> stage_hists;
  std::vector<std::uint64_t> stage_counts0;
  for (const char* name : {"restore.plan_ns", "restore.decode_ns",
                           "restore.decode_shard_ns", "restore.stitch_ns"}) {
    stage_hists.push_back(&reg.histogram(name));
    stage_counts0.push_back(stage_hists.back()->count());
  }

  // Random access, and a 37-byte-per-read sequential view that drives
  // the scanner and shard fallbacks.
  storage::ChunkedBackend chunked(*storage_, 37);
  for (storage::StorageBackend* backend :
       {storage_.get(), static_cast<storage::StorageBackend*>(&chunked)}) {
    auto state = read_checkpoint_file(*backend, checkpoint_key(0, 1));
    ASSERT_TRUE(state.is_ok()) << state.status().to_string();
    EXPECT_EQ(state->sequence, 1u);
    EXPECT_DOUBLE_EQ(state->virtual_time, 1.5);
    ASSERT_EQ(state->blocks.size(), 1u);
    const RestoredBlock& b = state->blocks.at(ids_[0]);
    EXPECT_EQ(b.name, "a");
    ASSERT_EQ(b.data.size(), a.size());
    const std::size_t ps = page_size();
    for (std::size_t p = 0; p < 8; ++p) {
      const std::byte* got = b.data.data() + p * ps;
      if (p == 2 || p == 5) {
        EXPECT_EQ(std::memcmp(got, a.data() + p * ps, ps), 0) << "page " << p;
      } else {
        EXPECT_TRUE(std::all_of(got, got + ps,
                                [](std::byte x) { return x == std::byte{0}; }))
            << "page " << p << " should be zero: not in this object";
      }
    }
  }
  // fsck's per-object reads are not restores.
  EXPECT_EQ(decoded.value(), d0);
  EXPECT_EQ(skipped.value(), s0);
  EXPECT_EQ(bytes_read.value(), b0);
  for (std::size_t i = 0; i < stage_hists.size(); ++i) {
    EXPECT_EQ(stage_hists[i]->count(), stage_counts0[i]) << i;
  }
}

TEST_F(RestoreChainTest, UndecodablePageBeforeSeedFailsOnlyFsck) {
  auto a = build_chain(2);
  full(3.0);  // the seed: objects 0..2 are never read by restore
  touch(a, 4, 40);
  incremental(4.0);

  // A page of object 1 gets an unknown encoding; the CRC still holds.
  const std::string key = checkpoint_key(0, 1);
  auto data = read_object(key);
  const BlockHeader bh = first_block(data);
  ASSERT_GT(bh.run_count, 0u);
  const std::size_t rec_offset =
      sizeof(FileHeader) + sizeof bh + bh.name_len + sizeof(RunHeader);
  PageRecord rec;
  std::memcpy(&rec, data.data() + rec_offset, sizeof rec);
  rec.encoding = 0xEE;
  std::memcpy(data.data() + rec_offset, &rec, sizeof rec);
  reseal(data);
  write_object(key, data);

  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  expect_states_identical(written_.at(4), *state);

  EXPECT_EQ(read_checkpoint_file(*storage_, key).status().code(),
            ErrorCode::kCorruption);
  auto report = inspect_chain(*storage_, 0);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->recoverable);
  EXPECT_TRUE(std::any_of(report->problems.begin(), report->problems.end(),
                          [&](const std::string& p) {
                            return p.rfind(key + ": ", 0) == 0;
                          }))
      << "fsck did not report " << key;
}

TEST_F(RestoreChainTest, BlockListedTwiceWithDifferentSizesIsCorruption) {
  add_block(3, "small", 1);
  add_block(8, "big", 2);
  full(0.0);

  // Relabel the first (small) manifest entry with the big block's id:
  // one id, two sizes.  Were the small buffer used for the big entry's
  // pages, they would land past its end.
  const std::string key = checkpoint_key(0, 0);
  auto data = read_object(key);
  BlockHeader bh = first_block(data);
  ASSERT_EQ(bh.block_id, ids_[0]);
  ASSERT_EQ(bh.bytes, 3 * page_size());
  bh.block_id = ids_[1];
  std::memcpy(data.data() + sizeof(FileHeader), &bh, sizeof bh);
  reseal(data);
  write_object(key, data);

  EXPECT_EQ(read_checkpoint_file(*storage_, key).status().code(),
            ErrorCode::kCorruption);
  EXPECT_EQ(restore_chain(*storage_, 0).status().code(),
            ErrorCode::kCorruption);
}

// --- Sequence ordering at the key zero-pad boundary -----------------

/// Rewrite header sequence/parent and re-seal the trailer CRC.
void patch_sequences(std::vector<std::byte>& data, std::uint64_t seq,
                     std::uint64_t parent) {
  FileHeader h;
  std::memcpy(&h, data.data(), sizeof h);
  h.sequence = seq;
  h.parent_sequence = parent;
  std::memcpy(data.data(), &h, sizeof h);
  reseal(data);
}

TEST_F(RestoreChainTest, RestoresChainsPastTheOldPadBoundary) {
  // Chains written by the old 12-digit-pad writer mis-sort
  // lexicographically at sequence >= 10^12 ("1000000000000" sorts
  // before "999999999999").  Rebuild this fixture's chain there and
  // require numeric ordering to restore it.
  const std::uint64_t kBase = 999999999999ull;  // 10^12 - 1
  auto a = build_chain(2);
  (void)a;
  char buf[64];
  for (std::uint64_t s = 0; s <= 2; ++s) {
    auto data = read_object(checkpoint_key(0, s));
    patch_sequences(data, kBase + s, s == 0 ? kBase : kBase + s - 1);
    std::snprintf(buf, sizeof buf, "rank0/ckpt-%012llu",
                  static_cast<unsigned long long>(kBase + s));
    write_object(buf, data);
    ASSERT_TRUE(storage_->remove(checkpoint_key(0, s)).is_ok());
  }

  auto planned = restore_chain(*storage_, 0);
  ASSERT_TRUE(planned.is_ok()) << planned.status().to_string();
  RestoredState expected = written_.at(2);
  expected.sequence = kBase + 2;
  expect_states_identical(expected, *planned);

  // And fsck agrees the store is healthy despite the mixed ordering.
  auto report = inspect_chain(*storage_, 0);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->healthy()) << report->problems.front();
  EXPECT_EQ(report->recoverable_upto, kBase + 2);
}

TEST(CheckpointKeyTest, KeysSortLexicographicallyAcrossPadBoundary) {
  // Regression: with the 12-digit pad these compared the wrong way.
  EXPECT_LT(checkpoint_key(0, 999999999999ull),
            checkpoint_key(0, 1000000000000ull));
  EXPECT_LT(checkpoint_key(0, 0), checkpoint_key(0, UINT64_MAX));
}

TEST(CheckpointKeyTest, ParseInvertsCheckpointKeyAtAnyPad) {
  for (std::uint64_t s : {std::uint64_t{0}, std::uint64_t{42},
                          std::uint64_t{999999999999}, UINT64_MAX}) {
    auto key = parse_checkpoint_key(checkpoint_key(7, s));
    ASSERT_TRUE(key);
    EXPECT_EQ(key->rank, 7u);
    EXPECT_EQ(key->sequence, s);
  }
  EXPECT_EQ(parse_checkpoint_key("rank3/ckpt-000000000012")->sequence, 12u);
  // In a rank's namespace but not a checkpoint: rank only.
  for (const char* k : {"rank0/not-a-checkpoint", "rank0/ckpt-1x",
                        "rank0/ckpt-"}) {
    auto key = parse_checkpoint_key(k);
    ASSERT_TRUE(key) << k;
    EXPECT_EQ(key->rank, 0u);
    EXPECT_FALSE(key->sequence) << k;
  }
  for (const char* k : {"rank/ckpt-1", "rankx/ckpt-1", "rank0",
                        "quarantine/rank0/ckpt-1", "commit/1"}) {
    EXPECT_FALSE(parse_checkpoint_key(k)) << k;
  }
}

// --- Repair ---------------------------------------------------------

TEST_F(RestoreChainTest, RepairQuarantinesCorruptTail) {
  build_chain(4);
  corrupt_payload(checkpoint_key(0, 3));  // kills 3 and orphans 4

  auto rep = repair_store(*storage_);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  EXPECT_TRUE(rep->clean());
  ASSERT_EQ(rep->recovered_upto.count(0u), 1u);
  EXPECT_EQ(rep->recovered_upto[0], 2u);
  EXPECT_EQ(rep->dropped.size(), 2u);

  // The bytes moved, not vanished.
  for (const auto& d : rep->dropped) {
    EXPECT_FALSE(storage_->exists(d.key));
    EXPECT_TRUE(storage_->exists(d.quarantine_key));
  }

  // After repair: strict restore works and fsck is clean.
  auto state = restore_chain(*storage_, 0);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_EQ(state->sequence, 2u);
  auto report = inspect_store(*storage_);
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report->healthy());

  // Idempotent: a second pass drops nothing.
  auto again = repair_store(*storage_);
  ASSERT_TRUE(again.is_ok());
  EXPECT_TRUE(again->dropped.empty());
}

TEST_F(RestoreChainTest, RepairQuarantinesUnplaceableOrphan) {
  build_chain(2);
  const std::byte junk[4] = {std::byte{'J'}, std::byte{'U'},
                             std::byte{'N'}, std::byte{'K'}};
  write_object("rank0/not-a-checkpoint", junk);

  auto rep = repair_store(*storage_);
  ASSERT_TRUE(rep.is_ok()) << rep.status().to_string();
  ASSERT_EQ(rep->dropped.size(), 1u);
  EXPECT_EQ(rep->dropped[0].key, "rank0/not-a-checkpoint");
  EXPECT_FALSE(storage_->exists("rank0/not-a-checkpoint"));
  EXPECT_EQ(rep->recovered_upto[0], 2u);
}

TEST_F(RestoreChainTest, RepairLeavesHealthyStoreAlone) {
  build_chain(3);
  auto rep = repair_store(*storage_);
  ASSERT_TRUE(rep.is_ok());
  EXPECT_TRUE(rep->dropped.empty());
  EXPECT_TRUE(rep->clean());
  EXPECT_EQ(rep->recovered_upto[0], 3u);
}

}  // namespace
}  // namespace ickpt::checkpoint
