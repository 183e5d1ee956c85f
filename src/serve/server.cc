#include "serve/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "serve/conn.h"
#include "serve/protocol.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace qikey {

namespace {

/// epoll user-data ids for the two non-connection descriptors;
/// connection ids start above these and are never reused.
constexpr uint64_t kWakeId = 0;
constexpr uint64_t kListenId = 1;
constexpr uint64_t kFirstConnId = 2;

constexpr int kEpollBatch = 64;
constexpr int kEpollTickMs = 50;  ///< timeout/reap granularity
constexpr size_t kReadChunk = 16384;  ///< most bytes one `recv` asks for

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The server's reply to a client's `QIKEY/<n>` version assertion.
std::string HelloAck(ProtocolVersion version) {
  return "ok v" + std::to_string(static_cast<uint32_t>(version));
}

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

/// Per-stage timings of one trace-sampled request (steady ns).
struct TraceRecord {
  uint64_t request_id = 0;
  int64_t admit_ns = 0;        ///< the read that framed the line ended
  int64_t parse_start_ns = 0;  ///< the shard started parsing this line
  int64_t parse_ns = 0;        ///< time parsing this line
  int64_t execute_ns = 0;      ///< engine batch execution (shared by batch)
  int64_t done_ns = 0;         ///< the batch's responses were encoded
};

}  // namespace

/// One event loop: an epoll set, the connections it owns, the engine that
/// answers them, and the inbox through which shard 0 hands it newly
/// accepted connections. Everything but the inbox, `open_conns_` and the
/// engine's metrics is touched by the shard's own thread only.
class ServeServer::Shard {
 public:
  Shard(ServeServer* server, bool acceptor,
        const QueryEngineOptions& engine_options)
      : server_(server),
        acceptor_(acceptor),
        engine_(server->store_, engine_options) {}

  const QueryEngine& engine() const { return engine_; }

  Status Init() {
    epoll_fd_ = OwnedFd(::epoll_create1(EPOLL_CLOEXEC));
    if (!epoll_fd_.valid()) return Errno("epoll_create1");
    wake_fd_ = OwnedFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (!wake_fd_.valid()) return Errno("eventfd");
    QIKEY_RETURN_NOT_OK(Watch(wake_fd_.get(), kWakeId));
    if (acceptor_) return Watch(server_->listen_fd_.get(), kListenId);
    return Status::OK();
  }

  void Start() { thread_ = std::thread([this] { Run(); }); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Any thread: interrupts the shard's `epoll_wait`.
  void Wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(wake_fd_.get(), &one, sizeof(one));
  }

 private:
  Status Watch(int fd, uint64_t id) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = id;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &event) < 0) {
      return Errno("epoll_ctl");
    }
    return Status::OK();
  }

  void Run();
  /// Acceptor only: accepts every pending connection and gives each to
  /// the shard with the fewest open connections.
  void AcceptNewConnections();
  /// Acceptor thread: queues an accepted connection for this shard.
  void Post(OwnedFd fd, uint64_t id);
  void AdoptInbox();
  void AddConn(OwnedFd fd, uint64_t id);
  /// Whether the shard still reads requests from `conn`.
  bool Reading(const ServeConn& conn) const {
    return !draining_ && !conn.close_after_flush && !conn.peer_eof &&
           !conn.splitter.overflowed();
  }
  void HandleReadable(ServeConn* conn);
  /// Makes `read_buf_` hold at least `bytes`, re-pointing the line views
  /// already framed into it.
  void GrowReadBuffer(size_t bytes);
  /// Parses, executes and encodes `lines` into the connection's write
  /// buffer, in order; appends a record per trace-sampled line to
  /// `traces_`.
  void Answer(ServeConn* conn, std::span<const std::string_view> lines);
  void EmitTrace(uint64_t conn_id, const TraceRecord& trace,
                 int64_t flush_done_ns);
  /// After any I/O on `conn`: flush, then close it if it is done, or
  /// re-arm its epoll interest.
  void Settle(ServeConn* conn);
  /// Writes what the socket accepts; false if the connection was closed.
  bool FlushWrites(ServeConn* conn);
  void UpdateEpollInterest(ServeConn* conn);
  void SyncConnGauges(ServeConn* conn);
  void CloseConn(uint64_t conn_id);
  void CloseAll();
  void ReapIdleConns(int64_t now_ms);
  void BeginDrain(int64_t now_ms);
  bool Drained();

  ServeServer* const server_;
  const bool acceptor_;  ///< owns the listening socket
  OwnedFd epoll_fd_;
  OwnedFd wake_fd_;  ///< eventfd: inbox non-empty / shutdown requested
  /// Open connections, including ones still in the inbox: raised by the
  /// acceptor when it picks this shard, lowered by the shard on close.
  std::atomic<size_t> open_conns_{0};

  // Shard-thread only.
  std::unordered_map<uint64_t, std::unique_ptr<ServeConn>> conns_;
  QueryEngine engine_;

  // Request-path scratch, reused by every read and batch of every
  // connection of this shard: once grown to the largest batch seen,
  // the path recv -> frame -> parse -> encode allocates nothing.
  /// One readable event's bytes: each read lands after a copy of the
  /// connection's carried partial line, so every line is a view here.
  std::vector<char> read_buf_;
  std::vector<std::string_view> lines_;  ///< lines of one readable event
  /// Parsed engine requests; recycled so each set's words are reused.
  std::vector<QueryRequest> requests_;
  std::vector<int> slot_;  ///< per line: index into requests_, or -1
  /// Per line answered inline (hello, `stats`, parse error): its line.
  std::vector<std::string> immediate_;
  std::vector<TraceRecord> traces_;
  bool draining_ = false;
  int64_t drain_deadline_ms_ = 0;

  // Inbox capability: the acceptor-to-shard connection hand-off.
  Mutex inbox_mu_;
  std::vector<std::pair<uint64_t, OwnedFd>> inbox_ GUARDED_BY(inbox_mu_);

  std::thread thread_;  ///< last: runs over every member above
};

ServeServer::ServeServer(const SnapshotStore* store, Schema schema,
                         const QueryEngineOptions& engine_options,
                         const ServerOptions& options)
    : store_(store),
      schema_(std::move(schema)),
      engine_options_(engine_options),
      options_(options),
      next_conn_id_(kFirstConnId) {}

ServeServer::~ServeServer() {
  Shutdown();
  Join();
}

Status ServeServer::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  if (options_.max_line_bytes == 0 || options_.max_pending_per_conn == 0) {
    return Status::InvalidArgument(
        "max_line_bytes and max_pending_per_conn must be positive");
  }
  Result<OwnedFd> listen_fd = OpenListenSocket(options_.listen, &port_);
  if (!listen_fd.ok()) return listen_fd.status();
  listen_fd_ = std::move(*listen_fd);

  // One shard per CPU the process may run on.
  size_t count = UsableCpuCount();
  for (size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        this, /*acceptor=*/i == 0,
        SplitQueryEngineOptions(engine_options_, count, i)));
    QIKEY_RETURN_NOT_OK(shards_.back()->Init());
  }

  // Registry wiring happens strictly before any server thread exists,
  // so shards rendering the `stats` verb see a fully built registry
  // without synchronization beyond thread creation.
  RegisterMetrics();

  accepting_.store(true, std::memory_order_release);
  live_shards_.store(count, std::memory_order_release);
  for (const auto& shard : shards_) shard->Start();
  return Status::OK();
}

void ServeServer::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (shutdown_requested_.exchange(true)) return;
  // Best-effort wake; every shard also polls the flag each tick.
  for (const auto& shard : shards_) shard->Wake();
}

void ServeServer::Join() {
  for (const auto& shard : shards_) shard->Join();
}

ServerStats ServeServer::stats() const {
  ServerStats stats;
  stats.connections_accepted = connections_accepted_.value();
  stats.connections_closed = connections_closed_.value();
  stats.lines_received = lines_received_.value();
  stats.responses_sent = responses_sent_.value();
  stats.overload_responses = overload_responses_.value();
  stats.parse_errors = parse_errors_.value();
  stats.idle_reaped = idle_reaped_.value();
  stats.batches_executed = batches_executed_.value();
  return stats;
}

void ServeServer::RegisterMetrics() {
  registry_ = options_.metrics;
  if (registry_ == nullptr) {
    own_registry_ = std::make_unique<MetricsRegistry>();
    registry_ = own_registry_.get();
  }
  registry_->RegisterCounter("server.connections_accepted",
                             &connections_accepted_);
  registry_->RegisterCounter("server.connections_closed",
                             &connections_closed_);
  registry_->RegisterCounter("server.lines_received", &lines_received_);
  registry_->RegisterCounter("server.lines_admitted", &lines_admitted_);
  registry_->RegisterCounter("server.responses_sent", &responses_sent_);
  registry_->RegisterCounter("server.overload_responses",
                             &overload_responses_);
  registry_->RegisterCounter("server.parse_errors", &parse_errors_);
  registry_->RegisterCounter("server.idle_reaped", &idle_reaped_);
  registry_->RegisterCounter("server.batches_executed", &batches_executed_);
  registry_->RegisterCounter("server.traces_emitted", &traces_emitted_);
  registry_->RegisterGauge("server.connections", &connections_);
  registry_->RegisterGauge("server.admission_queue_depth",
                           &admission_queue_depth_);
  registry_->RegisterGauge("server.read_buffer_bytes", &read_buffer_bytes_);
  registry_->RegisterGauge("server.write_buffer_bytes", &write_buffer_bytes_);
  registry_->RegisterHistogram("server.request_ns", &request_ns_);
  std::vector<const QueryEngine*> engines;
  for (const auto& shard : shards_) engines.push_back(&shard->engine());
  QueryEngine::RegisterMetrics(engines, registry_);
}

// ---------------------------------------------------------------------------
// Shard loop
// ---------------------------------------------------------------------------

void ServeServer::Shard::Run() {
  epoll_event events[kEpollBatch];
  while (true) {
    int n = ::epoll_wait(epoll_fd_.get(), events, kEpollBatch, kEpollTickMs);
    if (n < 0 && errno != EINTR) break;  // epoll itself failed; bail out
    int64_t now_ms = NowMs();

    if (server_->shutdown_requested_.load(std::memory_order_acquire) &&
        !draining_) {
      BeginDrain(now_ms);
    }

    for (int i = 0; i < std::max(n, 0); ++i) {
      uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        uint64_t drained;
        while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
        AdoptInbox();
      } else if (id == kListenId) {
        AcceptNewConnections();
      } else {
        // The connection may have been closed by an earlier event in
        // this same batch — look it up fresh.
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        ServeConn* conn = it->second.get();
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          CloseConn(id);
          continue;
        }
        if (events[i].events & EPOLLIN) {
          conn->last_activity_ms = now_ms;
          HandleReadable(conn);
        } else {
          Settle(conn);  // EPOLLOUT: the socket takes more bytes
        }
      }
    }

    ReapIdleConns(now_ms);
    if (draining_) {
      // Drain timeout: force-close whatever is left (stalled readers).
      if (now_ms >= drain_deadline_ms_) CloseAll();
      if (Drained()) break;
    }
  }
  server_->live_shards_.fetch_sub(1, std::memory_order_acq_rel);
}

void ServeServer::Shard::AcceptNewConnections() {
  ServeServer& s = *server_;
  while (true) {
    OwnedFd fd = AcceptConnection(s.listen_fd_.get());
    if (!fd.valid()) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient failure (EMFILE, ...): next tick
    }
    Shard* target = this;
    size_t fewest = SIZE_MAX, open = 0;
    for (const auto& shard : s.shards_) {
      size_t count = shard->open_conns_.load(std::memory_order_relaxed);
      open += count;
      if (count < fewest) {
        target = shard.get();
        fewest = count;
      }
    }
    if (open >= s.options_.max_connections) {
      // Best effort: tell the client why before dropping it. The
      // socket buffer of a fresh connection always has room for one
      // line, so a short write just means the client never sees it.
      std::string line =
          EncodeErrorLine(ServeErrorCode::kOverload,
                          "connection limit reached") +
          "\n";
      [[maybe_unused]] ssize_t n =
          ::send(fd.get(), line.data(), line.size(), MSG_NOSIGNAL);
      s.overload_responses_.Increment();
      continue;  // OwnedFd closes it
    }
    target->open_conns_.fetch_add(1, std::memory_order_relaxed);
    uint64_t id = s.next_conn_id_++;
    if (target == this) {
      AddConn(std::move(fd), id);
    } else {
      target->Post(std::move(fd), id);
    }
  }
}

void ServeServer::Shard::Post(OwnedFd fd, uint64_t id) {
  {
    MutexLock lock(inbox_mu_);
    inbox_.emplace_back(id, std::move(fd));
  }
  Wake();
}

void ServeServer::Shard::AdoptInbox() {
  std::vector<std::pair<uint64_t, OwnedFd>> arrived;
  {
    MutexLock lock(inbox_mu_);
    arrived.swap(inbox_);
  }
  for (auto& [id, fd] : arrived) AddConn(std::move(fd), id);
}

void ServeServer::Shard::AddConn(OwnedFd fd, uint64_t id) {
  auto conn = std::make_unique<ServeConn>(std::move(fd), id,
                                          server_->options_.max_line_bytes);
  conn->last_activity_ms = NowMs();
  conn->QueueResponse(FormatHelloLine(kProtocolCurrent));
  conn->epoll_interest = EPOLLIN | EPOLLOUT;
  epoll_event event{};
  event.events = conn->epoll_interest;
  event.data.u64 = id;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd.get(), &event) <
      0) {
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
    return;  // conn (and fd) dropped
  }
  ServeConn* raw = conn.get();
  conns_.emplace(id, std::move(conn));
  server_->connections_accepted_.Increment();
  server_->connections_.Add(1);
  Settle(raw);
}

void ServeServer::Shard::HandleReadable(ServeConn* conn) {
  if (!Reading(*conn)) {
    Settle(conn);
    return;
  }
  ServeServer& s = *server_;
  const size_t cap = s.options_.max_pending_per_conn;
  lines_.clear();
  size_t used = 0;
  bool framing_lost = false;
  while (lines_.size() < cap) {
    size_t carried = conn->splitter.buffered_bytes();
    if (read_buf_.size() < used + carried + kReadChunk) {
      GrowReadBuffer(used + carried + kReadChunk);
    }
    char* start = read_buf_.data() + used;
    conn->splitter.CopyCarry(start);
    ssize_t n = ::recv(conn->fd.get(), start + carried, kReadChunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn->id);
      return;
    }
    if (n == 0) {
      conn->peer_eof = true;
      break;
    }
    size_t framed = carried + static_cast<size_t>(n);
    if (!conn->splitter.Split(std::string_view(start, framed), &lines_)) {
      framing_lost = true;
      break;
    }
    used += framed;
    // A short read drained the socket; skip the recv that would say
    // EAGAIN. Bytes arriving meanwhile re-arm the level-triggered poll.
    if (static_cast<size_t>(n) < kReadChunk) break;
  }

  // The first `cap` lines execute; the rest of this read is shed. Both
  // are answered now, in arrival order.
  size_t received = lines_.size();
  size_t admitted = std::min(received, cap);
  size_t shed = received - admitted;
  if (shed > 0 && s.options_.close_on_overload) {
    shed = 1;  // one explanation, then the connection closes
    conn->close_after_flush = true;
  }
  s.lines_received_.Increment(received);
  s.lines_admitted_.Increment(admitted);
  traces_.clear();
  if (admitted > 0) {
    Answer(conn, std::span<const std::string_view>(lines_.data(), admitted));
  }
  for (size_t i = 0; i < shed; ++i) {
    AppendErrorLine(ServeErrorCode::kOverload, "connection request queue full",
                    &conn->write_buf);
    conn->write_buf.push_back('\n');
  }
  s.overload_responses_.Increment(shed);
  s.responses_sent_.Increment(shed);
  if (framing_lost) {
    conn->QueueResponse(EncodeErrorLine(
        ServeErrorCode::kParse,
        "request line exceeds " + std::to_string(s.options_.max_line_bytes) +
            " bytes"));
    conn->close_after_flush = true;
    s.parse_errors_.Increment();
    s.responses_sent_.Increment();
  }

  uint64_t id = conn->id;
  Settle(conn);
  if (!traces_.empty()) {
    int64_t flush_done_ns = NowNs();
    for (const TraceRecord& trace : traces_) {
      EmitTrace(id, trace, flush_done_ns);
    }
  }
}

void ServeServer::Shard::GrowReadBuffer(size_t bytes) {
  std::vector<char> grown(std::max(bytes, 2 * read_buf_.size()));
  std::copy(read_buf_.begin(), read_buf_.end(), grown.begin());
  for (std::string_view& line : lines_) {
    line = std::string_view(grown.data() + (line.data() - read_buf_.data()),
                            line.size());
  }
  read_buf_.swap(grown);
}

void ServeServer::Shard::Answer(ServeConn* conn,
                                std::span<const std::string_view> lines) {
  ServeServer& s = *server_;
  const Schema& schema = s.schema_;
  std::string& out = conn->write_buf;
  const size_t n = lines.size();
  const int64_t admit_ns = NowNs();
  const uint64_t first_id =
      s.next_request_id_.fetch_add(n, std::memory_order_relaxed);
  const uint64_t sample = s.options_.trace_sample;
  s.admission_queue_depth_.Add(static_cast<int64_t>(n));

  // Parse every line; hello assertions, the `stats` admin verb, and
  // parse failures are answered inline, everything else joins one
  // engine batch. A line's `immediate_` entry is written exactly when
  // its `slot_` stays -1, so stale entries from earlier batches are
  // never read.
  slot_.assign(n, -1);
  if (immediate_.size() < n) immediate_.resize(n);
  size_t num_requests = 0;
  size_t parse_errors = 0;
  for (size_t i = 0; i < n; ++i) {
    std::string_view line = lines[i];
    bool traced = sample > 0 && (first_id + i + 1) % sample == 0;
    int64_t parse_start = traced ? NowNs() : 0;
    if (line == kStatsVerb) {
      // Rendered by the server, not the engine: one consistent
      // snapshot of every registered family as a single `ok` line.
      immediate_[i] = "ok " + s.registry_->RenderJson();
    } else if (IsHelloLine(line)) {
      Result<ProtocolVersion> version = ParseHelloLine(line);
      immediate_[i] = version.ok()
                          ? HelloAck(*version)
                          : EncodeErrorLine(ServeErrorCode::kValidation,
                                            version.status().message());
    } else {
      if (num_requests == requests_.size()) requests_.emplace_back();
      Status parsed =
          ParseQueryRequestInto(line, schema, &requests_[num_requests]);
      if (!parsed.ok()) {
        immediate_[i] =
            EncodeErrorLine(ServeErrorCode::kParse, parsed.message());
        ++parse_errors;
      } else {
        slot_[i] = static_cast<int>(num_requests++);
      }
    }
    if (traced) {
      TraceRecord trace;
      trace.request_id = first_id + i;
      trace.admit_ns = admit_ns;
      trace.parse_start_ns = parse_start;
      trace.parse_ns = NowNs() - parse_start;
      traces_.push_back(trace);
    }
  }

  std::vector<QueryResponse> responses;
  int64_t execute_ns = 0;
  if (num_requests > 0) {
    // One pinned snapshot per batch: a concurrent Publish never mixes
    // epochs inside it (QueryEngine semantics).
    int64_t execute_start = traces_.empty() ? 0 : NowNs();
    responses = engine_.ExecuteBatch(
        std::span<const QueryRequest>(requests_.data(), num_requests));
    if (!traces_.empty()) execute_ns = NowNs() - execute_start;
  }

  for (size_t i = 0; i < n; ++i) {
    if (slot_[i] >= 0) {
      AppendResponseLine(requests_[slot_[i]], responses[slot_[i]], schema,
                         &out);
    } else {
      out += immediate_[i];
    }
    out += '\n';
  }

  // Admission -> queued latency, recorded BEFORE the response bytes can
  // reach the client: a lockstep client therefore always observes its
  // own request already counted, which is what makes `stats` output
  // reproducible across identical request sequences.
  int64_t done_ns = NowNs();
  s.request_ns_.RecordN(done_ns - admit_ns, n);
  for (TraceRecord& trace : traces_) {
    // Batch-shared: the engine executes the whole batch at once, so a
    // sampled line is attributed the batch's execute wall time.
    bool executed = slot_[trace.request_id - first_id] >= 0;
    trace.execute_ns = executed ? execute_ns : 0;
    trace.done_ns = done_ns;
  }
  s.parse_errors_.Increment(parse_errors);
  s.batches_executed_.Increment();
  s.responses_sent_.Increment(n);
  s.admission_queue_depth_.Add(-static_cast<int64_t>(n));
}

void ServeServer::Shard::EmitTrace(uint64_t conn_id, const TraceRecord& trace,
                                   int64_t flush_done_ns) {
  std::string line;
  line.reserve(192);
  line += "{\"type\":\"trace\",\"request_id\":";
  line += std::to_string(trace.request_id);
  line += ",\"conn\":";
  line += std::to_string(conn_id);
  line += ",\"parse_ns\":";
  line += std::to_string(trace.parse_ns);
  line += ",\"queue_ns\":";
  line += std::to_string(trace.parse_start_ns - trace.admit_ns);
  line += ",\"execute_ns\":";
  line += std::to_string(trace.execute_ns);
  line += ",\"flush_ns\":";
  line += std::to_string(flush_done_ns - trace.done_ns);
  line += ",\"total_ns\":";
  line += std::to_string(flush_done_ns - trace.admit_ns);
  line += '}';
  server_->traces_emitted_.Increment();
  if (server_->options_.trace_sink) {
    server_->options_.trace_sink(line);
  } else {
    WriteRawLine(line);
  }
}

void ServeServer::Shard::Settle(ServeConn* conn) {
  if (!FlushWrites(conn)) return;
  SyncConnGauges(conn);
  if ((conn->peer_eof || conn->close_after_flush || draining_) &&
      conn->idle()) {
    CloseConn(conn->id);
    return;
  }
  UpdateEpollInterest(conn);
}

bool ServeServer::Shard::FlushWrites(ServeConn* conn) {
  while (conn->unsent_bytes() > 0) {
    ssize_t n = ::send(conn->fd.get(), conn->write_buf.data() + conn->write_pos,
                       conn->unsent_bytes(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(conn->id);
      return false;
    }
    conn->write_pos += static_cast<size_t>(n);
  }
  conn->CompactWriteBuffer();
  // A client that stopped reading its responses does not get to pin
  // arbitrary memory: past the cap the connection is dropped.
  if (conn->unsent_bytes() > server_->options_.max_write_buffer_bytes) {
    CloseConn(conn->id);
    return false;
  }
  return true;
}

void ServeServer::Shard::UpdateEpollInterest(ServeConn* conn) {
  uint32_t interest = 0;
  if (Reading(*conn)) interest |= EPOLLIN;
  if (conn->unsent_bytes() > 0) interest |= EPOLLOUT;
  if (interest == conn->epoll_interest) return;
  conn->epoll_interest = interest;
  epoll_event event{};
  event.events = interest;
  event.data.u64 = conn->id;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &event);
}

void ServeServer::Shard::SyncConnGauges(ServeConn* conn) {
  size_t read_bytes = conn->splitter.buffered_bytes();
  size_t write_bytes = conn->unsent_bytes();
  server_->read_buffer_bytes_.Add(static_cast<int64_t>(read_bytes) -
                                  static_cast<int64_t>(conn->obs_read_bytes));
  server_->write_buffer_bytes_.Add(
      static_cast<int64_t>(write_bytes) -
      static_cast<int64_t>(conn->obs_write_bytes));
  conn->obs_read_bytes = read_bytes;
  conn->obs_write_bytes = write_bytes;
}

void ServeServer::Shard::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // Back out this connection's contribution to the aggregate buffer
  // gauges (whatever was last folded in).
  ServeConn& conn = *it->second;
  server_->read_buffer_bytes_.Add(-static_cast<int64_t>(conn.obs_read_bytes));
  server_->write_buffer_bytes_.Add(
      -static_cast<int64_t>(conn.obs_write_bytes));
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn.fd.get(), nullptr);
  conns_.erase(it);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  server_->connections_closed_.Increment();
  server_->connections_.Add(-1);
}

void ServeServer::Shard::CloseAll() {
  // Collect ids first — CloseConn mutates the map.
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConn(id);
}

void ServeServer::Shard::ReapIdleConns(int64_t now_ms) {
  int timeout_ms = server_->options_.idle_timeout_ms;
  if (timeout_ms <= 0) return;
  // No inbound bytes for the timeout: a half-sent request line (slow
  // loris) is exactly this state, so the cap on silent connections is
  // also the slow-loris bound. Stalled readers age out the same way.
  std::vector<uint64_t> expired;
  for (const auto& [id, conn] : conns_) {
    if (now_ms - conn->last_activity_ms > timeout_ms) expired.push_back(id);
  }
  if (expired.empty()) return;
  for (uint64_t id : expired) CloseConn(id);
  server_->idle_reaped_.Increment(expired.size());
}

void ServeServer::Shard::BeginDrain(int64_t now_ms) {
  draining_ = true;
  drain_deadline_ms_ = now_ms + std::max(server_->options_.drain_timeout_ms, 0);
  if (acceptor_) {
    // Stop accepting: deregister and close the listen socket so new
    // connections are refused by the kernel, not queued behind a drain,
    // then let the other shards see that their inboxes are final.
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, server_->listen_fd_.get(),
                nullptr);
    server_->listen_fd_.Reset();
    server_->accepting_.store(false, std::memory_order_release);
    for (const auto& shard : server_->shards_) shard->Wake();
  }
  // Stop reading; every response already queued still flushes. Idle
  // connections close now.
  std::vector<ServeConn*> open;
  open.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) open.push_back(conn.get());
  for (ServeConn* conn : open) Settle(conn);
}

bool ServeServer::Shard::Drained() {
  if (!conns_.empty() || server_->accepting_.load(std::memory_order_acquire)) {
    return false;
  }
  MutexLock lock(inbox_mu_);
  return inbox_.empty();
}

}  // namespace qikey
