// Behavioural tests specific to the userfaultfd write-protect engine.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/arena.h"
#include "memtrack/uffd_engine.h"

namespace ickpt::memtrack {
namespace {

class UffdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!uffd_supported()) {
      GTEST_SKIP() << "userfaultfd write-protect unsupported";
    }
    auto engine = UffdEngine::create();
    ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
    engine_ = std::move(engine.value());
  }

  std::unique_ptr<UffdEngine> engine_;
};

TEST_F(UffdTest, TracksSingleWrite) {
  PageArena arena(8 * page_size());
  arena.prefault();
  auto id = engine_->attach(arena.span(), "u");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(engine_->arm().is_ok());
  arena.data()[3 * page_size()] = std::byte{1};
  auto snap = engine_->collect(false);
  ASSERT_TRUE(snap.is_ok());
  ASSERT_EQ(snap->regions.size(), 1u);
  ASSERT_EQ(snap->regions[0].dirty_pages.size(), 1u);
  EXPECT_EQ(snap->regions[0].dirty_pages[0], 3u);
  // Async mode: the kernel resolves the fault; none reaches user space.
  EXPECT_EQ(engine_->counters().faults_handled, 0u);
}

TEST_F(UffdTest, RepeatedWritesFaultOnce) {
  PageArena arena(2 * page_size());
  arena.prefault();
  ASSERT_TRUE(engine_->attach(arena.span(), "u").is_ok());
  ASSERT_TRUE(engine_->arm().is_ok());
  for (int i = 0; i < 64; ++i) arena.data()[i] = std::byte{2};
  auto snap = engine_->collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), 1u);
}

TEST_F(UffdTest, RearmCyclesCleanly) {
  PageArena arena(4 * page_size());
  arena.prefault();
  ASSERT_TRUE(engine_->attach(arena.span(), "u").is_ok());
  ASSERT_TRUE(engine_->arm().is_ok());
  for (int interval = 0; interval < 5; ++interval) {
    std::size_t page = static_cast<std::size_t>(interval) % 4;
    arena.data()[page * page_size()] = std::byte{1};
    auto snap = engine_->collect(/*rearm=*/true);
    ASSERT_TRUE(snap.is_ok());
    ASSERT_EQ(snap->dirty_pages(), 1u) << "interval " << interval;
    EXPECT_EQ(snap->regions[0].dirty_pages[0], page);
  }
}

TEST_F(UffdTest, MultiThreadedWriters) {
  constexpr std::size_t kPages = 32;
  PageArena arena(kPages * page_size());
  arena.prefault();
  ASSERT_TRUE(engine_->attach(arena.span(), "mt").is_ok());
  ASSERT_TRUE(engine_->arm().is_ok());
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&arena, t] {
      for (std::size_t p = static_cast<std::size_t>(t); p < kPages; p += 4) {
        arena.data()[p * page_size()] = std::byte{1};
      }
    });
  }
  for (auto& w : writers) w.join();
  auto snap = engine_->collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), kPages);
}

TEST_F(UffdTest, DetachReleasesRegion) {
  PageArena arena(2 * page_size());
  arena.prefault();
  auto id = engine_->attach(arena.span(), "d");
  ASSERT_TRUE(id.is_ok());
  ASSERT_TRUE(engine_->arm().is_ok());
  ASSERT_TRUE(engine_->detach(*id).is_ok());
  arena.data()[0] = std::byte{1};  // must not hang or fault-track
  EXPECT_EQ(engine_->region_count(), 0u);
  EXPECT_EQ(engine_->detach(*id).code(), ErrorCode::kNotFound);
}

TEST_F(UffdTest, UnalignedAttachRejected) {
  PageArena arena(2 * page_size());
  EXPECT_FALSE(engine_->attach(arena.span().subspan(8), "bad").is_ok());
}

TEST_F(UffdTest, WritesWhileUnarmedAreFree) {
  PageArena arena(2 * page_size());
  arena.prefault();
  ASSERT_TRUE(engine_->attach(arena.span(), "u").is_ok());
  arena.data()[0] = std::byte{1};  // not armed: no fault
  EXPECT_EQ(engine_->counters().faults_handled, 0u);
  ASSERT_TRUE(engine_->arm().is_ok());
  auto snap = engine_->collect(false);
  ASSERT_TRUE(snap.is_ok());
  EXPECT_EQ(snap->dirty_pages(), 0u);
}

}  // namespace
}  // namespace ickpt::memtrack
