#ifndef SQUERY_NET_SOCKET_H_
#define SQUERY_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "net/wire.h"

namespace sq::net {

/// Thin POSIX TCP layer under the wire protocol. All blocking operations
/// take an absolute steady-clock deadline (`trace::NowNanos` timeline);
/// `deadline_nanos <= 0` means "no deadline". Every failure is a typed
/// Status — kTimeout for an expired deadline, kUnavailable for refused /
/// reset / closed connections — so callers can tell a slow peer from a dead
/// one without parsing errno strings.

/// Binds and listens on `host:port` (port 0 = ephemeral). Returns the
/// listening fd.
Result<int> ListenTcp(const std::string& host, int port);

/// The locally bound port of a listening fd (resolves ephemeral ports).
Result<int> LocalPort(int listen_fd);

/// Accepts one connection (blocking). The returned fd is non-blocking with
/// TCP_NODELAY set. Fails with kUnavailable once the listener is shut down.
Result<int> AcceptConn(int listen_fd);

/// Connects to `host:port`, honouring the deadline during the handshake.
/// The returned fd is non-blocking with TCP_NODELAY set.
Result<int> DialTcp(const std::string& host, int port, int64_t deadline_nanos);

/// Closes the fd (EINTR-safe, null-op on negative fds).
void CloseFd(int fd);

/// Shuts down both directions, waking any thread blocked on the fd.
void ShutdownFd(int fd);

/// Writes one encoded frame. A frame over kMaxFrameBytes is refused with
/// kInvalidArgument before any byte is written. `bytes_out`, if non-null, is
/// incremented by the bytes written.
Status SendFrame(int fd, const Frame& frame, int64_t deadline_nanos,
                 int64_t* bytes_out = nullptr);

/// Reads and decodes one frame. Length-prefix violations (zero / oversized)
/// and payload corruption surface as the DecodeFrame errors; a cleanly
/// closed peer is kUnavailable. `bytes_in`, if non-null, is incremented by
/// the bytes read. `first_byte_nanos`, if non-null, receives the steady-clock
/// time the frame header finished arriving — the start of the receive/decode
/// work, excluding the idle wait for the peer to send anything.
Result<Frame> RecvFrame(int fd, int64_t deadline_nanos,
                        int64_t* bytes_in = nullptr,
                        int64_t* first_byte_nanos = nullptr);

}  // namespace sq::net

#endif  // SQUERY_NET_SOCKET_H_
