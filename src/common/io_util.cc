#include "common/io_util.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace ickpt::ioutil {

Result<std::size_t> read_full(int fd, std::span<std::byte> out) {
  std::size_t got_total = 0;
  while (got_total < out.size()) {
    const ssize_t got =
        ::read(fd, out.data() + got_total, out.size() - got_total);
    if (got < 0) {
      if (errno == EINTR) continue;
      return io_error(std::string("read failed: ") + std::strerror(errno));
    }
    if (got == 0) break;  // EOF
    got_total += static_cast<std::size_t>(got);
  }
  return got_total;
}

Status pread_exact(int fd, void* buf, std::size_t n, std::uint64_t offset,
                   const std::string& what) {
  auto* p = static_cast<std::byte*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got =
        ::pread(fd, p + done, n - done, static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return io_error("pread failed: " + what + ": " + std::strerror(errno));
    }
    if (got == 0) return corruption("short read in " + what);
    done += static_cast<std::size_t>(got);
  }
  return Status::ok();
}

Status write_full(int fd, std::span<const std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t got = ::write(fd, data.data() + done, data.size() - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      return io_error(std::string("write failed: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(got);
  }
  return Status::ok();
}

Status send_full(int fd, std::span<const std::byte> data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t got =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (got < 0) {
      if (errno == EINTR) continue;
      return io_error(std::string("send failed: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(got);
  }
  return Status::ok();
}

}  // namespace ickpt::ioutil
