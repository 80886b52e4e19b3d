#include "minimpi/collectives.h"

#include <cstring>

namespace ickpt::mpi {

namespace {
// Reserved internal tag space (application tags are >= 0; bcast in
// comm.cc uses -1000).  Each collective call gets a distinct tag via
// the per-rank collective sequence counter — without it, back-to-back
// any-source collectives (allgather/alltoall) could steal messages
// from a neighbouring round, since a fast rank's round-k+1 sends can
// arrive before a slow rank's round-k sends.
enum class Op : int {
  kGather = 0,
  kScatter = 1,
  kAllgather = 2,
  kAlltoall = 3,
  kVecReduce = 4,
};
constexpr int kOps = 8;

int collective_tag(Comm& comm, Op op) {
  return -(3000 + comm.next_collective_seq() * kOps +
           static_cast<int>(op));
}
}  // namespace

Status gather(Comm& comm, int root, std::span<const std::byte> chunk,
              std::span<std::byte> out) {
  const auto nprocs = static_cast<std::size_t>(comm.size());
  const int tag = collective_tag(comm, Op::kGather);
  if (comm.rank() == root) {
    if (out.size() / nprocs < chunk.size()) {
      return invalid_argument("gather: output buffer too small");
    }
    std::memcpy(out.data() +
                    static_cast<std::size_t>(root) * chunk.size(),
                chunk.data(), chunk.size());
    for (int r = 0; r < comm.size(); ++r) {
      if (r == root) continue;
      auto piece = out.subspan(
          static_cast<std::size_t>(r) * chunk.size(), chunk.size());
      auto info = comm.recv(r, tag, piece);
      if (!info.is_ok()) return info.status();
      if (info->bytes != chunk.size()) {
        return corruption("gather: chunk size mismatch");
      }
    }
  } else {
    comm.send(root, tag, chunk);
  }
  return Status::ok();
}

Status scatter(Comm& comm, int root, std::span<const std::byte> data,
               std::span<std::byte> out) {
  const auto nprocs = static_cast<std::size_t>(comm.size());
  const std::size_t chunk = out.size();
  const int tag = collective_tag(comm, Op::kScatter);
  if (comm.rank() == root) {
    if (data.size() / nprocs < chunk) {
      return invalid_argument("scatter: input buffer too small");
    }
    for (int r = 0; r < comm.size(); ++r) {
      auto piece =
          data.subspan(static_cast<std::size_t>(r) * chunk, chunk);
      if (r == root) {
        std::memcpy(out.data(), piece.data(), piece.size());
      } else {
        comm.send(r, tag, piece);
      }
    }
  } else {
    auto info = comm.recv(root, tag, out);
    if (!info.is_ok()) return info.status();
    if (info->bytes != chunk) {
      return corruption("scatter: chunk size mismatch");
    }
  }
  return Status::ok();
}

Status allgather(Comm& comm, std::span<const std::byte> chunk,
                 std::span<std::byte> out) {
  const auto nprocs = static_cast<std::size_t>(comm.size());
  const int tag = collective_tag(comm, Op::kAllgather);
  if (out.size() / nprocs < chunk.size()) {
    return invalid_argument("allgather: output buffer too small");
  }
  // Buffered sends: everyone posts to everyone, then drains.
  for (int r = 0; r < comm.size(); ++r) {
    if (r == comm.rank()) continue;
    comm.send(r, tag, chunk);
  }
  std::memcpy(out.data() +
                  static_cast<std::size_t>(comm.rank()) * chunk.size(),
              chunk.data(), chunk.size());
  for (int i = 1; i < comm.size(); ++i) {
    // Accept from any source; place by the reported source rank.
    std::vector<std::byte> tmp(chunk.size());
    auto info = comm.recv(kAnySource, tag, tmp);
    if (!info.is_ok()) return info.status();
    if (info->bytes != chunk.size()) {
      return corruption("allgather: chunk size mismatch");
    }
    std::memcpy(out.data() +
                    static_cast<std::size_t>(info->source) * chunk.size(),
                tmp.data(), chunk.size());
  }
  return Status::ok();
}

Status alltoall(Comm& comm, std::span<const std::byte> send,
                std::span<std::byte> out, std::size_t chunk) {
  const auto nprocs = static_cast<std::size_t>(comm.size());
  const int tag = collective_tag(comm, Op::kAlltoall);
  if (send.size() / nprocs < chunk) {
    return invalid_argument("alltoall: send buffer too small");
  }
  if (out.size() / nprocs < chunk) {
    return invalid_argument("alltoall: output buffer too small");
  }
  for (int r = 0; r < comm.size(); ++r) {
    auto piece = send.subspan(static_cast<std::size_t>(r) * chunk, chunk);
    if (r == comm.rank()) {
      std::memcpy(out.data() + static_cast<std::size_t>(r) * chunk,
                  piece.data(), piece.size());
    } else {
      comm.send(r, tag, piece);
    }
  }
  for (int i = 1; i < comm.size(); ++i) {
    std::vector<std::byte> tmp(chunk);
    auto info = comm.recv(kAnySource, tag, tmp);
    if (!info.is_ok()) return info.status();
    if (info->bytes != chunk) {
      return corruption("alltoall: chunk size mismatch");
    }
    std::memcpy(out.data() +
                    static_cast<std::size_t>(info->source) * chunk,
                tmp.data(), chunk);
  }
  return Status::ok();
}

Status allreduce_sum_vec(Comm& comm, std::span<double> values) {
  // Gather-to-0, reduce, broadcast: adequate for the rank counts the
  // paper studies (<= 64) and trivially correct.
  const auto nprocs = static_cast<std::size_t>(comm.size());
  const int tag = collective_tag(comm, Op::kVecReduce);
  const std::size_t bytes = values.size() * sizeof(double);
  auto as_bytes = std::span<std::byte>(
      reinterpret_cast<std::byte*>(values.data()), bytes);
  if (comm.rank() == 0) {
    std::vector<double> incoming(values.size());
    auto in_bytes = std::span<std::byte>(
        reinterpret_cast<std::byte*>(incoming.data()), bytes);
    for (int r = 1; r < comm.size(); ++r) {
      auto info = comm.recv(kAnySource, tag, in_bytes);
      if (!info.is_ok()) return info.status();
      if (info->bytes != bytes) {
        return corruption("allreduce_sum_vec: length mismatch");
      }
      for (std::size_t i = 0; i < values.size(); ++i) {
        values[i] += incoming[i];
      }
    }
  } else {
    comm.send(0, tag, as_bytes);
  }
  comm.bcast(0, as_bytes);
  (void)nprocs;
  return Status::ok();
}

}  // namespace ickpt::mpi
