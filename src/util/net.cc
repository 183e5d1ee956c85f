#include "util/net.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace qikey {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Builds the sockaddr for `addr`; InvalidArgument on a bad host.
Result<sockaddr_in> MakeSockaddr(const HostPort& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + addr.host);
  }
  return sa;
}

}  // namespace

Result<HostPort> ParseHostPort(std::string_view spec) {
  size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return Status::InvalidArgument("want <host>:<port>, got '" +
                                   std::string(spec) + "'");
  }
  HostPort out;
  out.host = std::string(spec.substr(0, colon));
  std::string_view port = spec.substr(colon + 1);
  uint32_t value = 0;
  for (char c : port) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("port must be a decimal integer, got '" +
                                     std::string(port) + "'");
    }
    value = value * 10 + static_cast<uint32_t>(c - '0');
    if (value > 65535) {
      return Status::InvalidArgument("port out of range [0, 65535]: '" +
                                     std::string(port) + "'");
    }
  }
  out.port = static_cast<uint16_t>(value);
  // Validate the host eagerly so `qikey serve --listen banana:1` is a
  // usage error, not a bind failure at runtime.
  in_addr probe;
  if (inet_pton(AF_INET, out.host.c_str(), &probe) != 1) {
    return Status::InvalidArgument("host must be a dotted-quad IPv4 "
                                   "address, got '" + out.host + "'");
  }
  return out;
}

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(Errno("fcntl(O_NONBLOCK)"));
  }
  return Status::OK();
}

Result<OwnedFd> OpenListenSocket(const HostPort& addr,
                                 uint16_t* bound_port) {
  Result<sockaddr_in> sa = MakeSockaddr(addr);
  if (!sa.ok()) return sa.status();
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IOError(Errno("socket"));
  int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one)) < 0) {
    return Status::IOError(Errno("setsockopt(SO_REUSEADDR)"));
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&*sa),
             sizeof(*sa)) < 0) {
    return Status::IOError(
        Errno("bind " + addr.host + ":" + std::to_string(addr.port)));
  }
  if (::listen(fd.get(), SOMAXCONN) < 0) {
    return Status::IOError(Errno("listen"));
  }
  QIKEY_RETURN_NOT_OK(SetNonBlocking(fd.get()));
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual),
                      &len) < 0) {
      return Status::IOError(Errno("getsockname"));
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

OwnedFd AcceptConnection(int listen_fd) {
  OwnedFd fd(::accept4(listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC));
  if (fd.valid()) {
    int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

Result<OwnedFd> OpenClientSocket(const HostPort& addr,
                                 int recv_timeout_ms) {
  Result<sockaddr_in> sa = MakeSockaddr(addr);
  if (!sa.ok()) return sa.status();
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::IOError(Errno("socket"));
  if (recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = recv_timeout_ms / 1000;
    tv.tv_usec = (recv_timeout_ms % 1000) * 1000;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                     sizeof(tv)) < 0) {
      return Status::IOError(Errno("setsockopt(SO_RCVTIMEO)"));
    }
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&*sa),
                sizeof(*sa)) < 0) {
    return Status::IOError(
        Errno("connect " + addr.host + ":" + std::to_string(addr.port)));
  }
  return fd;
}

Status BlockingLineClient::SendAll(std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_.get(), data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status BlockingLineClient::SendLine(std::string_view line) {
  std::string framed(line);
  framed += '\n';
  return SendAll(framed);
}

Result<std::string> BlockingLineClient::RecvLine() {
  while (true) {
    size_t eol = buffer_.find('\n');
    if (eol != std::string::npos) {
      std::string line = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("recv"));
    }
    if (n == 0) {
      return Status::IOError("connection closed mid-line (" +
                             std::to_string(buffer_.size()) +
                             " unterminated byte(s) buffered)");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

void BlockingLineClient::ShutdownWrite() {
  ::shutdown(fd_.get(), SHUT_WR);
}

}  // namespace qikey
