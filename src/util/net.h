#ifndef QIKEY_UTIL_NET_H_
#define QIKEY_UTIL_NET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace qikey {

/// A parsed `<host>:<port>` listen/connect address. IPv4 only: `host`
/// is a dotted quad (`127.0.0.1`, `0.0.0.0`); `port` 0 means "let the
/// kernel pick" (the bound port is reported back by `OpenListenSocket`).
struct HostPort {
  std::string host;
  uint16_t port = 0;
};

/// Strict `<host>:<port>` parse: the host must be a dotted-quad IPv4
/// address and the port a decimal integer in [0, 65535] with no junk.
Result<HostPort> ParseHostPort(std::string_view spec);

/// \brief Owns one file descriptor; closes it on destruction.
///
/// The serve layer's sockets/eventfds are all held through this so an
/// early error return never leaks a descriptor.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Closes the held descriptor (if any).
  void Reset();
  /// Releases ownership without closing.
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Sets O_NONBLOCK on `fd`.
Status SetNonBlocking(int fd);

/// Creates a non-blocking TCP listen socket bound to `addr`
/// (SO_REUSEADDR set, listening). On success `*bound_port` carries the
/// actual port — meaningful when `addr.port` was 0.
Result<OwnedFd> OpenListenSocket(const HostPort& addr, uint16_t* bound_port);

/// Accepts one pending connection on non-blocking listen socket
/// `listen_fd` as a non-blocking, close-on-exec socket with TCP_NODELAY
/// set, so a response goes out when it is written instead of waiting
/// behind Nagle for the client's (possibly delayed) ACK. An invalid fd
/// means nothing was accepted and `errno` says why (EAGAIN: none
/// pending).
OwnedFd AcceptConnection(int listen_fd);

/// Connects a BLOCKING TCP socket to `addr` (client side: tests,
/// benches, ops tooling — the server itself is non-blocking).
/// `recv_timeout_ms` > 0 sets SO_RCVTIMEO so a silent server cannot
/// hang the caller forever.
Result<OwnedFd> OpenClientSocket(const HostPort& addr, int recv_timeout_ms);

/// \brief Minimal blocking line-oriented client over a connected
/// socket: the counterpart of the server's newline-delimited protocol,
/// used by the loopback tests and the latency bench.
class BlockingLineClient {
 public:
  /// Takes ownership of a connected socket fd.
  explicit BlockingLineClient(OwnedFd fd) : fd_(std::move(fd)) {}

  int fd() const { return fd_.get(); }

  /// Sends all of `data` (handles short writes). IOError on failure.
  Status SendAll(std::string_view data);

  /// Sends `line` plus the terminating newline.
  Status SendLine(std::string_view line);

  /// Receives the next newline-terminated line (newline stripped).
  /// IOError on EOF/timeout/error; bytes of a partial final line are
  /// reported in the error message.
  Result<std::string> RecvLine();

  /// Half-closes the write side (the server sees EOF but can still
  /// flush responses to us).
  void ShutdownWrite();

 private:
  OwnedFd fd_;
  std::string buffer_;  ///< bytes received beyond the last returned line
};

}  // namespace qikey

#endif  // QIKEY_UTIL_NET_H_
