#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "storage/serde.h"
#include "trace/trace.h"

namespace sq::net {

namespace {

Status Errno(const char* op) {
  return Status::Unavailable(std::string("net: ") + op + ": " +
                             std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl");
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  // Best-effort: latency tuning, not correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<sockaddr_in> ResolveV4(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("net: not an IPv4 address: " + host);
  }
  return addr;
}

/// Waits until `fd` is ready for `events` or the deadline passes.
Status WaitReady(int fd, short events, int64_t deadline_nanos) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline_nanos > 0) {
      const int64_t remaining = deadline_nanos - trace::NowNanos();
      if (remaining <= 0) return Status::Timeout("net: deadline exceeded");
      timeout_ms = static_cast<int>((remaining + 999999) / 1000000);
    }
    pollfd pfd{fd, events, 0};
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n > 0) return Status::OK();
    if (n == 0) return Status::Timeout("net: deadline exceeded");
    if (errno == EINTR) continue;
    return Errno("poll");
  }
}

Status SendAll(int fd, const char* data, size_t len, int64_t deadline_nanos,
               int64_t* bytes_out) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n =
        ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      if (bytes_out != nullptr) *bytes_out += n;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SQ_RETURN_IF_ERROR(WaitReady(fd, POLLOUT, deadline_nanos));
      continue;
    }
    return Errno("send");
  }
  return Status::OK();
}

Status RecvExact(int fd, char* data, size_t len, int64_t deadline_nanos,
                 int64_t* bytes_in) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      if (bytes_in != nullptr) *bytes_in += n;
      continue;
    }
    if (n == 0) return Status::Unavailable("net: peer closed connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      SQ_RETURN_IF_ERROR(WaitReady(fd, POLLIN, deadline_nanos));
      continue;
    }
    return Errno("recv");
  }
  return Status::OK();
}

}  // namespace

Result<int> ListenTcp(const std::string& host, int port) {
  SQ_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveV4(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  // Best effort: without REUSEADDR the bind below just fails, which is the
  // error path we already report.
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("bind");
    CloseFd(fd);
    return s;
  }
  if (::listen(fd, 128) < 0) {
    Status s = Errno("listen");
    CloseFd(fd);
    return s;
  }
  return fd;
}

Result<int> LocalPort(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Result<int> AcceptConn(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      Status s = SetNonBlocking(fd);
      if (!s.ok()) {
        CloseFd(fd);
        return s;
      }
      SetNoDelay(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

Result<int> DialTcp(const std::string& host, int port,
                    int64_t deadline_nanos) {
  SQ_ASSIGN_OR_RETURN(sockaddr_in addr, ResolveV4(host, port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Status s = SetNonBlocking(fd);
  if (s.ok() &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno == EINPROGRESS) {
      s = WaitReady(fd, POLLOUT, deadline_nanos);
      if (s.ok()) {
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
          s = Errno("getsockopt");
        } else if (err != 0) {
          s = Status::Unavailable(std::string("net: connect: ") +
                                  std::strerror(err));
        }
      }
    } else {
      s = Errno("connect");
    }
  }
  if (!s.ok()) {
    CloseFd(fd);
    return s;
  }
  SetNoDelay(fd);
  return fd;
}

void CloseFd(int fd) {
  if (fd < 0) return;
  // Retrying close on EINTR is unsafe on Linux (the fd is already gone);
  // one call is correct.
  (void)::close(fd);
}

void ShutdownFd(int fd) {
  if (fd < 0) return;
  // Best effort: ENOTCONN from an already-reset peer is fine here.
  (void)::shutdown(fd, SHUT_RDWR);
}

Status SendFrame(int fd, const Frame& frame, int64_t deadline_nanos,
                 int64_t* bytes_out) {
  // The receiver rejects an oversized frame as corrupt and drops the
  // connection; refusing it here, before a byte is written, keeps the
  // connection usable and the error typed.
  if (frame.body.size() > kMaxBodyBytes) {
    return Status::InvalidArgument(
        "net: frame body of " + std::to_string(frame.body.size()) +
        " bytes exceeds the " + std::to_string(kMaxBodyBytes) +
        "-byte limit");
  }
  std::string encoded;
  EncodeFrame(frame, &encoded);
  return SendAll(fd, encoded.data(), encoded.size(), deadline_nanos,
                 bytes_out);
}

Result<Frame> RecvFrame(int fd, int64_t deadline_nanos, int64_t* bytes_in,
                        int64_t* first_byte_nanos) {
  char header[kFrameHeaderBytes];
  SQ_RETURN_IF_ERROR(
      RecvExact(fd, header, sizeof(header), deadline_nanos, bytes_in));
  // The header has arrived: from here on the connection is actively carrying
  // a frame, so this is where an RPC-serve span should start (the idle wait
  // for the next request is not part of any RPC).
  if (first_byte_nanos != nullptr) *first_byte_nanos = trace::NowNanos();
  storage::Reader r(std::string_view(header, sizeof(header)));
  uint32_t len = 0;
  uint32_t masked_crc = 0;
  if (!r.ReadU32(&len) || !r.ReadU32(&masked_crc)) {
    return Status::ParseError("wire: truncated frame header");
  }
  if (len == 0) return Status::InvalidArgument("wire: zero-length frame");
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("wire: oversized frame (" +
                                   std::to_string(len) + " bytes)");
  }
  std::string buf(header, sizeof(header));
  buf.resize(sizeof(header) + len);
  SQ_RETURN_IF_ERROR(RecvExact(fd, buf.data() + sizeof(header), len,
                               deadline_nanos, bytes_in));
  return DecodeFrame(buf);
}

}  // namespace sq::net
