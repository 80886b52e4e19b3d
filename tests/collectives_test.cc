#include "minimpi/collectives.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>

namespace ickpt::mpi {
namespace {

std::vector<std::byte> rank_payload(int rank, std::size_t chunk) {
  std::vector<std::byte> out(chunk);
  for (std::size_t i = 0; i < chunk; ++i) {
    out[i] = static_cast<std::byte>(
        (static_cast<std::size_t>(rank) * 131 + i) & 0xff);
  }
  return out;
}

TEST(GatherTest, RootCollectsInRankOrder) {
  constexpr std::size_t kChunk = 64;
  for (int root : {0, 2}) {
    Runtime::run(4, [root](Comm& comm) {
      auto mine = rank_payload(comm.rank(), kChunk);
      std::vector<std::byte> out(4 * kChunk);
      ASSERT_TRUE(gather(comm, root, mine, out).is_ok());
      if (comm.rank() == root) {
        for (int r = 0; r < 4; ++r) {
          auto expected = rank_payload(r, kChunk);
          EXPECT_EQ(std::memcmp(out.data() +
                                    static_cast<std::size_t>(r) * kChunk,
                                expected.data(), kChunk),
                    0)
              << "rank " << r << " piece, root " << root;
        }
      }
    });
  }
}

TEST(GatherTest, SmallOutputRejectedAtRoot) {
  Runtime::run(2, [](Comm& comm) {
    std::vector<std::byte> mine(16);
    std::vector<std::byte> out(16);  // needs 32
    if (comm.rank() == 0) {
      EXPECT_EQ(gather(comm, 0, mine, out).code(),
                ErrorCode::kInvalidArgument);
      // Drain the peer's send so the world ends cleanly.
      std::vector<std::byte> big(32);
      (void)comm.recv(kAnySource, kAnyTag, big);
    } else {
      ASSERT_TRUE(gather(comm, 0, mine, out).is_ok());
    }
  });
}

TEST(ScatterTest, PiecesArriveInOrder) {
  constexpr std::size_t kChunk = 32;
  Runtime::run(3, [](Comm& comm) {
    std::vector<std::byte> all;
    if (comm.rank() == 1) {
      for (int r = 0; r < 3; ++r) {
        auto piece = rank_payload(r, kChunk);
        all.insert(all.end(), piece.begin(), piece.end());
      }
    }
    std::vector<std::byte> mine(kChunk);
    ASSERT_TRUE(scatter(comm, 1, all, mine).is_ok());
    auto expected = rank_payload(comm.rank(), kChunk);
    EXPECT_EQ(std::memcmp(mine.data(), expected.data(), kChunk), 0);
  });
}

TEST(AllgatherTest, EveryRankSeesEverything) {
  constexpr std::size_t kChunk = 48;
  Runtime::run(4, [](Comm& comm) {
    auto mine = rank_payload(comm.rank(), kChunk);
    std::vector<std::byte> out(4 * kChunk);
    ASSERT_TRUE(allgather(comm, mine, out).is_ok());
    for (int r = 0; r < 4; ++r) {
      auto expected = rank_payload(r, kChunk);
      ASSERT_EQ(std::memcmp(out.data() +
                                static_cast<std::size_t>(r) * kChunk,
                            expected.data(), kChunk),
                0)
          << "rank " << comm.rank() << " piece " << r;
    }
  });
}

TEST(AlltoallTest, TransposePattern) {
  // Piece (sender s -> receiver r) carries the byte value 16*s + r.
  constexpr std::size_t kChunk = 8;
  Runtime::run(4, [](Comm& comm) {
    std::vector<std::byte> send(4 * kChunk);
    for (int r = 0; r < 4; ++r) {
      std::memset(send.data() + static_cast<std::size_t>(r) * kChunk,
                  16 * comm.rank() + r, kChunk);
    }
    std::vector<std::byte> out(4 * kChunk);
    ASSERT_TRUE(alltoall(comm, send, out, kChunk).is_ok());
    for (int s = 0; s < 4; ++s) {
      auto expected = static_cast<std::byte>(16 * s + comm.rank());
      for (std::size_t i = 0; i < kChunk; ++i) {
        ASSERT_EQ(out[static_cast<std::size_t>(s) * kChunk + i], expected)
            << "from rank " << s;
      }
    }
  });
}

TEST(AlltoallTest, ChunkWhoseTotalWrapsIsRejected) {
  // 2 * kChunk wraps to 0 in size_t: a multiplied bound check accepts
  // it and then copies far past both buffers.
  constexpr std::size_t kChunk = SIZE_MAX / 2 + 1;
  Runtime::run(2, [](Comm& comm) {
    std::vector<std::byte> send(16);
    std::vector<std::byte> out(16);
    EXPECT_EQ(alltoall(comm, send, out, kChunk).code(),
              ErrorCode::kInvalidArgument);
  });
}

TEST(AlltoallTest, RepeatedRoundsStayConsistent) {
  constexpr std::size_t kChunk = 16;
  Runtime::run(3, [](Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      std::vector<std::byte> send(3 * kChunk,
                                  static_cast<std::byte>(comm.rank() + round));
      std::vector<std::byte> out(3 * kChunk);
      ASSERT_TRUE(alltoall(comm, send, out, kChunk).is_ok());
      for (int s = 0; s < 3; ++s) {
        ASSERT_EQ(out[static_cast<std::size_t>(s) * kChunk],
                  static_cast<std::byte>(s + round))
            << "round " << round;
      }
    }
  });
}

TEST(VecReduceTest, SumsElementwise) {
  Runtime::run(4, [](Comm& comm) {
    std::vector<double> v = {1.0 * comm.rank(), 10.0, -2.5};
    ASSERT_TRUE(allreduce_sum_vec(comm, v).is_ok());
    EXPECT_DOUBLE_EQ(v[0], 0 + 1 + 2 + 3);
    EXPECT_DOUBLE_EQ(v[1], 40.0);
    EXPECT_DOUBLE_EQ(v[2], -10.0);
  });
}

TEST(VecReduceTest, SingleRankIdentity) {
  Runtime::run(1, [](Comm& comm) {
    std::vector<double> v = {3.25};
    ASSERT_TRUE(allreduce_sum_vec(comm, v).is_ok());
    EXPECT_DOUBLE_EQ(v[0], 3.25);
  });
}

TEST(CollectiveMixTest, InterleavedWithP2P) {
  // Collectives must not steal application messages (tag isolation).
  Runtime::run(2, [](Comm& comm) {
    std::vector<std::byte> app_msg(4, std::byte{0x77});
    comm.send(1 - comm.rank(), /*tag=*/5, app_msg);

    std::vector<std::byte> mine(8, static_cast<std::byte>(comm.rank()));
    std::vector<std::byte> out(16);
    ASSERT_TRUE(allgather(comm, mine, out).is_ok());

    std::byte buf[8];
    auto info = comm.recv(1 - comm.rank(), 5, buf);
    ASSERT_TRUE(info.is_ok());
    EXPECT_EQ(buf[0], std::byte{0x77});
  });
}

}  // namespace
}  // namespace ickpt::mpi
