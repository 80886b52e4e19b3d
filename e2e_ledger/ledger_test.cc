// Tests of the ledger's own parts: the timing decorators forward every
// call and count what the store really accepted, the span log loses
// nothing, verification catches a single flipped byte, and a pass is
// deterministic for a given seed.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <thread>

#include "checkpoint/checkpointer.h"
#include "checkpoint/restore.h"
#include "common/page.h"
#include "ledger.h"
#include "memtrack/tracker.h"
#include "region/address_space.h"
#include "storage/backend.h"
#include "workload.h"

namespace ledger {
namespace {

std::vector<std::byte> bytes(std::string_view s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string scratch_dir(const std::string& name) {
  auto dir = std::filesystem::current_path() / ("ledger_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(IntervalTest, MergeMeasureOverlap) {
  auto a = merge({{10, 20}, {15, 30}, {40, 50}, {5, 5}});
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], Interval(10, 30));
  EXPECT_EQ(measure(a), 30u);
  auto b = merge({{0, 12}, {25, 45}});
  EXPECT_EQ(overlap(a, b), 2u + 5u + 5u);
  EXPECT_EQ(overlap(a, {}), 0u);
}

TEST(SpanLogTest, KeepsEverySpanAcrossThreads) {
  SpanLog log;
  const auto outer = log.name("outer");
  const auto inner = log.name("inner");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;  // 100k spans: far past any ring size
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread / 2; ++i) {
        SpanLog::Scope o(log, outer);
        SpanLog::Scope in(log, inner);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log.begun(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(log.recorded(), log.begun());
  auto roll = log.rollups();
  EXPECT_EQ(roll["outer"].count, kThreads * kPerThread / 2u);
  EXPECT_EQ(roll["inner"].count, kThreads * kPerThread / 2u);
  // Every inner span names its enclosing outer span as parent.
  std::map<std::uint64_t, SpanLog::Span> by_id;
  for (const auto& s : log.spans()) by_id[s.id] = s;
  for (const auto& [id, s] : by_id) {
    if (s.name != inner) continue;
    ASSERT_EQ(by_id.count(s.parent), 1u);
    EXPECT_EQ(by_id[s.parent].name, outer);
    EXPECT_LE(by_id[s.parent].start_ns, s.start_ns);
    EXPECT_GE(by_id[s.parent].end_ns, s.end_ns);
  }
}

TEST(TimedBackendTest, ForwardsEveryCallAndCountsBytes) {
  SpanLog log;
  auto inner = storage::make_memory_backend();
  TimedBackend timed(*inner, log, "storage");

  auto w = timed.create("a");
  ASSERT_TRUE(w.is_ok());
  ASSERT_TRUE((*w)->write(bytes("hello ")).is_ok());
  ASSERT_TRUE((*w)->write(bytes("world")).is_ok());
  EXPECT_EQ((*w)->bytes_written(), 11u);
  ASSERT_TRUE((*w)->close().is_ok());
  {
    auto unclosed = timed.create("aborted");
    ASSERT_TRUE(unclosed.is_ok());
    ASSERT_TRUE((*unclosed)->write(bytes("xyz")).is_ok());
  }  // destroyed unclosed: never stored, never counted as written

  EXPECT_TRUE(timed.exists("a"));
  EXPECT_EQ(timed.exists("aborted"), inner->exists("aborted"));
  auto names = timed.list();
  ASSERT_TRUE(names.is_ok());
  EXPECT_EQ(*names, *inner->list());

  auto r = timed.open("a");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ((*r)->size(), 11u);
  std::vector<std::byte> buf(11);
  ASSERT_EQ(*(*r)->read(buf), 11u);
  EXPECT_EQ(buf, bytes("hello world"));
  ASSERT_EQ((*r)->supports_read_at(), true);
  std::vector<std::byte> part(5);
  ASSERT_EQ(*(*r)->read_at(6, part), 5u);
  EXPECT_EQ(part, bytes("world"));
  if ((*r)->supports_map()) {
    auto view = (*r)->map_at(0, 5);
    ASSERT_TRUE(view.is_ok());
    EXPECT_EQ(std::memcmp(view->data(), "hello", 5), 0);
  }
  EXPECT_FALSE(timed.open("missing").is_ok());

  ASSERT_TRUE(timed.remove("a").is_ok());
  EXPECT_FALSE(inner->exists("a"));

  const IoCounts& c = timed.counts();
  EXPECT_EQ(c.creates.load(), 2u);
  EXPECT_EQ(c.objects.load(), 1u);
  EXPECT_EQ(c.write_calls.load(), 3u);
  EXPECT_EQ(c.bytes_written.load(), inner->total_bytes_stored());
  EXPECT_EQ(timed.total_bytes_stored(), inner->total_bytes_stored());
  EXPECT_EQ(c.opens.load(), 2u);
  EXPECT_EQ(c.errors.load(), 1u);  // the failed open
  EXPECT_GE(c.read_calls.load(), 2u);
  auto roll = log.rollups();
  EXPECT_EQ(roll["storage.create"].count, 2u);
  EXPECT_EQ(roll["storage.write"].count, 3u);
  EXPECT_EQ(roll["storage.close"].count, 1u);
  EXPECT_EQ(roll["storage.open"].count, 2u);
  EXPECT_EQ(roll["storage.read"].count, c.read_calls.load());
}

/// A small chain written through the timing decorators over a real
/// file store; the decorators' byte total must equal what the store
/// reports, and the restore must verify against live memory until one
/// restored byte is flipped.
TEST(VerifyTest, ChainThroughDecoratorsVerifiesAndCatchesOneFlippedByte) {
  SpanLog log;
  auto engine = memtrack::make_tracker(memtrack::EngineKind::kExplicit);
  ASSERT_TRUE(engine.is_ok());
  TimedTracker tracker(**engine, log);
  auto store = storage::make_file_backend(scratch_dir("verify"));
  ASSERT_TRUE(store.is_ok());
  TimedBackend timed(**store, log, "storage");

  region::AddressSpace space(tracker, "rank0");
  auto a = space.map(8 * page_size(), region::AreaKind::kHeap, "a");
  auto b = space.map(3 * page_size(), region::AreaKind::kMmap, "b");
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  auto ckpt = checkpoint::Checkpointer::create(space, &timed);
  ASSERT_TRUE(ckpt.is_ok());
  ASSERT_TRUE(tracker.arm().is_ok());
  for (int step = 0; step < 5; ++step) {
    for (std::size_t i = 0; i < a->mem.size(); i += 97) {
      a->mem[i] = static_cast<std::byte>(step * 31 + static_cast<int>(i));
      tracker.note_write(&a->mem[i], 1);
    }
    b->mem[static_cast<std::size_t>(step) * 100] = std::byte{0x5a};
    tracker.note_write(&b->mem[static_cast<std::size_t>(step) * 100], 1);
    auto snap = tracker.collect(/*rearm=*/true);
    ASSERT_TRUE(snap.is_ok());
    ASSERT_TRUE((*ckpt)->checkpoint_incremental(*snap, step).is_ok());
  }
  EXPECT_GT(tracker.collected_pages(), 0u);
  EXPECT_EQ(timed.counts().objects.load(), 5u);
  EXPECT_EQ(timed.counts().bytes_written.load(), timed.total_bytes_stored());
  EXPECT_EQ(timed.counts().bytes_written.load(),
            (*store)->total_bytes_stored());

  const MemoryDigest want = digest(space);
  auto state = checkpoint::restore_chain(timed, 0);
  ASSERT_TRUE(state.is_ok()) << state.status().to_string();
  EXPECT_TRUE(verify(want, *state).empty());
  EXPECT_GT(timed.counts().bytes_read.load(), 0u);

  // Mutation check: one flipped byte must fail verification.
  auto mutated = *state;
  mutated.blocks.begin()->second.data[page_size() + 7] ^= std::byte{1};
  auto problems = verify(want, mutated);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("content differs"), std::string::npos);

  // A dropped block and a resized block are reported too.
  auto missing = *state;
  missing.blocks.erase(missing.blocks.begin());
  EXPECT_FALSE(verify(want, missing).empty());
  auto resized = *state;
  resized.blocks.rbegin()->second.data.resize(page_size());
  EXPECT_FALSE(verify(want, resized).empty());
}

TEST(TimedTrackerTest, ForwardsToEngine) {
  SpanLog log;
  auto engine = memtrack::make_tracker(memtrack::EngineKind::kExplicit);
  ASSERT_TRUE(engine.is_ok());
  TimedTracker tracker(**engine, log);
  EXPECT_EQ(tracker.kind(), memtrack::EngineKind::kExplicit);
  region::AddressSpace space(tracker, "rank0");
  auto blk = space.map(4 * page_size(), region::AreaKind::kHeap, "x");
  ASSERT_TRUE(blk.is_ok());
  EXPECT_EQ(tracker.region_count(), (*engine)->region_count());
  EXPECT_EQ(tracker.tracked_bytes(), 4 * page_size());
  ASSERT_TRUE(tracker.arm().is_ok());
  blk->mem[2 * page_size()] = std::byte{1};
  tracker.note_write(&blk->mem[2 * page_size()], 1);
  auto snap = tracker.collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), 1u);
  EXPECT_EQ(tracker.collected_pages(), 1u);
  EXPECT_EQ(tracker.counters().collects, (*engine)->counters().collects);
  ASSERT_TRUE(space.unmap(blk->id).is_ok());
  EXPECT_EQ(tracker.region_count(), 0u);
  auto roll = log.rollups();
  EXPECT_EQ(roll["memtrack.attach"].count, 1u);
  EXPECT_EQ(roll["memtrack.detach"].count, 1u);
  EXPECT_EQ(roll["memtrack.arm"].count, 1u);
  EXPECT_EQ(roll["memtrack.collect"].count, 1u);
}

/// Small versions of the benchmark's workloads: a pass runs clean, a
/// second pass with the same seed repeats every count, and a traced
/// pass reports every layer without dropping a span.
Workload tiny(StoreKind store, const std::string& app) {
  Workload w;
  w.name = "tiny";
  w.app = app;
  w.scale = 1.0 / 64;
  w.engine = memtrack::EngineKind::kMProtect;
  w.store = store;
  w.threads = 2;
  w.run_vs = 12;
  w.restore_points = 2;
  return w;
}

TEST(PassTest, SameSeedSameCountsAndCleanRestores) {
  for (StoreKind store : {StoreKind::kSegment, StoreKind::kFile}) {
    const Workload w = tiny(store, "sage-50");
    const std::string dir = scratch_dir("pass");
    PassResult first = run_pass(w, 7, dir, nullptr);
    PassResult second = run_pass(w, 7, dir, nullptr);
    ASSERT_EQ(first.failed, 0u) << first.errors.front();
    ASSERT_EQ(second.failed, 0u) << second.errors.front();
    EXPECT_GE(first.counts.checkpoints, 12u);
    EXPECT_EQ(first.counts, second.counts);
    EXPECT_EQ(first.stall_ms.size(), first.counts.checkpoints);
    PassResult other = run_pass(w, 8, dir, nullptr);
    EXPECT_EQ(other.failed, 0u);
  }
}

TEST(PassTest, TracedRemotePassReportsEveryLayer) {
  const Workload w = tiny(StoreKind::kRemoteSegment, "jacobi3d");
  SpanLog log;
  PassResult p = run_pass(w, 3, scratch_dir("remote"), &log);
  ASSERT_EQ(p.failed, 0u) << p.errors.front();
  EXPECT_EQ(log.begun(), log.recorded());
  for (const char* name :
       {"apps.self_s", "memtrack.collect_s", "checkpoint.self_s",
        "storage.close_s", "storage.read_s", "restore.self_s", "net.put_s",
        "net.get_s", "net.bytes_in", "net.bytes_out"}) {
    ASSERT_EQ(p.layers.count(name), 1u) << name;
    EXPECT_GT(p.layers.at(name), 0) << name;
  }
  EXPECT_EQ(p.layers.at("net.protocol_errors"), 0);
  EXPECT_EQ(p.layers.at("storage.bytes_written"),
            static_cast<double>(p.counts.bytes_written));
  EXPECT_GE(p.layers.at("trace.unattributed_s"), 0);
}

}  // namespace
}  // namespace ledger
