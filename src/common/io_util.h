// Short-read / short-write loops, factored out of the storage and
// inspect code so every module (including the network stack) handles
// EINTR and partial transfers the same way.
//
// Two layers:
//   * fd-level read_full/write_full/pread_exact — retry EINTR, loop
//     over short counts.  read_full stops early only at EOF; write_full
//     either moves every byte or returns the errno as kIoError;
//     pread_exact reads a planned range, so EOF first is kCorruption.
//   * a generic read_full over any "read(span) -> Result<size_t>"
//     callable (storage::Reader::read has exactly that shape), for
//     code that must read an exact number of bytes from a streaming
//     source that may legally return short counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"

namespace ickpt::ioutil {

/// Read exactly out.size() bytes from `fd` unless EOF arrives first.
/// Retries EINTR and short reads.  Returns the byte count: out.size()
/// normally, less only when EOF truncated the read.
Result<std::size_t> read_full(int fd, std::span<std::byte> out);

/// Read exactly `n` bytes of `fd` at `offset` into `buf`, retrying
/// EINTR and short reads; the file position is untouched.  A file that
/// ends first is kCorruption, a failed pread kIoError; `what` (the
/// path) names the file in both messages.
Status pread_exact(int fd, void* buf, std::size_t n, std::uint64_t offset,
                   const std::string& what);

/// Write all of `data` to `fd`, retrying EINTR and short writes.
Status write_full(int fd, std::span<const std::byte> data);

/// write_full for socket fds: uses send(2) with MSG_NOSIGNAL, so a
/// peer that closed the connection surfaces as a kIoError (EPIPE)
/// instead of delivering SIGPIPE and killing the process.  Use this
/// for every socket write; keep write_full for regular files, where
/// send() is not applicable.
Status send_full(int fd, std::span<const std::byte> data);

/// Read exactly out.size() bytes from a streaming source.  `rd` is any
/// callable with the storage::Reader::read contract: fill up to the
/// span, return the count, 0 at EOF.  Returns the total read —
/// out.size() normally, less only at EOF.
template <typename ReadFn>
Result<std::size_t> read_full(ReadFn&& rd, std::span<std::byte> out) {
  std::size_t got_total = 0;
  while (got_total < out.size()) {
    auto got = rd(out.subspan(got_total));
    if (!got.is_ok()) return got.status();
    if (*got == 0) break;  // EOF
    got_total += *got;
  }
  return got_total;
}

}  // namespace ickpt::ioutil
