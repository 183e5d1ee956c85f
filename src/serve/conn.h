#ifndef QIKEY_SERVE_CONN_H_
#define QIKEY_SERVE_CONN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/net.h"

namespace qikey {

/// \brief Splits a TCP byte stream into protocol lines under a hard
/// per-line size cap.
///
/// Pure buffer logic (no sockets), so the framing rules — CRLF
/// tolerance, the oversized-line trip wire, partial-line carry-over —
/// are unit-testable without a connection.
///
/// Lines are views, not copies: the caller owns the read buffer. Each
/// read goes into that buffer right after a copy of the carried
/// unterminated line (`CopyCarry`), and `Split` frames the whole run.
/// Only the carried partial line is ever copied, once per read.
class LineSplitter {
 public:
  explicit LineSplitter(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Copies the carried unterminated line to `dest`, which must have
  /// room for `buffered_bytes()`, and returns its length. The caller
  /// receives new bytes directly after it and hands the whole run to
  /// `Split`. The carry is kept until `Split` replaces it, so a read
  /// that brings no bytes needs no `Split`.
  size_t CopyCarry(char* dest) const;

  /// Frames `bytes`: the carried line as placed by `CopyCarry`,
  /// followed by newly received bytes. Appends every complete line
  /// (newline stripped, trailing CR stripped) to `out` as a view into
  /// `bytes`, and carries the unterminated tail. Returns false —
  /// permanently — once a line exceeds `max_line_bytes` before its
  /// newline arrives: framing is lost and the connection must be
  /// closed after an `err parse` response (the lines completed before
  /// it are still appended). Bounded: carries at most `max_line_bytes`.
  bool Split(std::string_view bytes, std::vector<std::string_view>* out);

  /// Bytes of the current unterminated line.
  size_t buffered_bytes() const { return carry_.size(); }
  bool overflowed() const { return overflowed_; }

 private:
  size_t max_line_bytes_;
  std::string carry_;
  bool overflowed_ = false;
};

/// \brief One client connection of a serve shard: owned socket, line
/// framing, and the outgoing write buffer.
///
/// Touched only by the thread of the shard that owns it; no request or
/// response ever crosses threads, so there is no lock a GUARDED_BY
/// could name. The connection itself changes threads once, at accept,
/// through the owning shard's annotated inbox.
struct ServeConn {
  ServeConn(OwnedFd socket, uint64_t conn_id, size_t max_line_bytes)
      : fd(std::move(socket)), id(conn_id), splitter(max_line_bytes) {}

  OwnedFd fd;
  /// Monotonic across the server's lifetime (never a reused fd number);
  /// labels trace output.
  uint64_t id = 0;

  LineSplitter splitter;

  /// Encoded response bytes not yet accepted by the socket.
  std::string write_buf;
  /// Prefix of `write_buf` already written (compacted on flush).
  size_t write_pos = 0;

  /// Shard-loop timestamp of the last byte received (ms, steady
  /// clock); drives idle/slow-loris reaping.
  int64_t last_activity_ms = 0;
  /// Set when the connection must close once `write_buf` drains
  /// (oversized line, overload-close policy, drain).
  bool close_after_flush = false;
  /// Set when the peer half-closed (EOF read); the responses already
  /// queued flush, then the connection closes.
  bool peer_eof = false;
  /// The epoll events the socket is registered for (re-armed only on
  /// change).
  uint32_t epoll_interest = 0;

  /// Read/write buffer bytes last folded into the server's aggregate
  /// buffer gauges (owner-shard bookkeeping; see SyncConnGauges).
  size_t obs_read_bytes = 0;
  size_t obs_write_bytes = 0;

  size_t unsent_bytes() const { return write_buf.size() - write_pos; }
  bool idle() const { return unsent_bytes() == 0; }

  /// Appends `line` + '\n' to the write buffer.
  void QueueResponse(std::string_view line) {
    write_buf.append(line);
    write_buf.push_back('\n');
  }

  /// Drops the already-written prefix so the buffer cannot grow
  /// without bound across partial writes.
  void CompactWriteBuffer() {
    if (write_pos > 0) {
      write_buf.erase(0, write_pos);
      write_pos = 0;
    }
  }
};

}  // namespace qikey

#endif  // QIKEY_SERVE_CONN_H_
