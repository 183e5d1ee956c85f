#ifndef QIKEY_SERVE_SERVER_H_
#define QIKEY_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/schema.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "util/net.h"
#include "util/status.h"

namespace qikey {

/// Tuning knobs for `ServeServer`. The defaults keep every buffer
/// bounded; a flooded or stalled client costs O(caps) memory, never
/// O(traffic).
struct ServerOptions {
  /// Listen address; port 0 binds an ephemeral port (see `port()`).
  HostPort listen{"127.0.0.1", 0};

  /// Accepted connections beyond this are greeted with
  /// `err overload ...` and closed immediately.
  size_t max_connections = 1024;
  /// Longest request line (bytes, excluding the newline). A longer
  /// line gets `err parse ...` and the connection is closed (framing
  /// is lost past this point).
  size_t max_line_bytes = 4096;

  /// Admission control: most request lines of one connection executed
  /// per read. A shard stops reading a connection once this many lines
  /// are framed; the lines past the cap that arrived in the same read
  /// are answered `err overload ...` instead of executed, and the rest
  /// wait in the kernel's socket buffer (TCP backpressure).
  size_t max_pending_per_conn = 256;
  /// When true, a connection that trips the per-connection cap is also
  /// closed after the overload response flushes (flood containment);
  /// default keeps it open so well-behaved bursts just shed load.
  bool close_on_overload = false;

  /// Unsent response bytes a stalled client may accumulate before the
  /// connection is closed (a shard never buffers beyond this).
  size_t max_write_buffer_bytes = 1 << 20;

  /// A connection with no inbound bytes for this long is closed — this
  /// is also what defeats slow-loris partial lines. <= 0 disables
  /// reaping.
  int idle_timeout_ms = 60 * 1000;
  /// On drain: how long to wait for write buffers to flush before
  /// force-closing.
  int drain_timeout_ms = 5000;

  /// Registry the server (and its engines) register their metrics with
  /// at `Start()` — this is what the `stats` wire verb renders. Null
  /// means the server creates and owns a private registry, so `stats`
  /// works with zero wiring; pass one to share it with other exposure
  /// paths (periodic dumps, SIGUSR1). Must outlive the server.
  MetricsRegistry* metrics = nullptr;

  /// Trace every Nth admitted request line (server-wide) with
  /// per-stage timings (queue / parse / execute / flush); 0 disables
  /// tracing. Each sampled request produces one JSON line through
  /// `trace_sink`.
  uint64_t trace_sample = 0;
  /// Destination for trace lines (line has no trailing newline). Called
  /// on the shard thread that answered the request, so concurrently
  /// from different shards. Null means stderr via `WriteRawLine`.
  std::function<void(const std::string&)> trace_sink;
};

/// Monotonic counters, readable while serving (`ServeServer::stats`).
/// A point-in-time copy assembled from the server's registry-backed
/// `Counter`s — kept as a plain struct so existing callers and tests
/// read the same shape they always did.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t lines_received = 0;
  uint64_t responses_sent = 0;     ///< response lines queued to clients
  uint64_t overload_responses = 0; ///< `err overload` lines (admission)
  uint64_t parse_errors = 0;       ///< `err parse` lines
  uint64_t idle_reaped = 0;        ///< connections closed by the reaper
  uint64_t batches_executed = 0;
};

/// \brief The `qikey serve` front end: non-blocking epoll shard loops
/// speaking the newline-delimited `QIKEY/1` protocol (see
/// `serve/protocol.h`), each with its own `QueryEngine`.
///
/// ## Threading model
///
/// One shard per CPU in the process's affinity mask, each a thread with
/// its own epoll set that owns its connections end to end and runs every
/// step of a request inline: `recv` → frame lines → admit or shed →
/// parse → `QueryEngine::ExecuteBatch` → encode → `send`, through an
/// engine whose verdict cache holds the shard's share of the capacity.
/// Shard 0 also owns the one listening socket and hands each accepted
/// connection to the shard with the fewest open connections (ties to
/// the lowest index) through that shard's inbox. That hand-off is the
/// only thing that crosses threads; no request does.
///
/// ## Backpressure
///
/// Every buffer is bounded (`ServerOptions`): lines past the
/// per-connection admission cap are answered `err overload` instead of
/// executed, and a client that stops reading its responses is closed
/// once `max_write_buffer_bytes` of replies pile up. Memory per
/// connection is O(caps) regardless of how fast the client floods.
///
/// Every request line gets exactly one response line, and responses
/// arrive in request order — `err overload` sheds included. A read's
/// lines are answered in the order they arrived before the connection
/// is read again, so no response can overtake another.
///
/// ## Snapshots
///
/// The server holds no snapshot itself — it serves whatever its
/// `SnapshotStore` currently publishes.
/// Publishing a new snapshot while serving is safe and instant:
/// batches already executing finish on their pinned epoch, the next
/// batch sees the new one (`SnapshotStore` semantics). The schema must
/// stay fixed across publishes (request parsing is schema-bound).
///
/// ## Lifecycle
///
///   ServeServer server(&store, schema, engine_options, options);
///   server.Start();              // binds; shard loops running
///   ... server.port() ...
///   server.Shutdown();           // begin graceful drain (thread-safe)
///   server.Join();               // wait until drained and stopped
///
/// Graceful drain: stop accepting, stop reading, flush the responses
/// to every line already read (up to `drain_timeout_ms`), close. The
/// CLI translates SIGTERM into exactly this sequence.
class ServeServer {
 public:
  /// `store` must outlive the server. `schema` is the request-parsing
  /// schema — the served snapshot's. `engine_options.cache_capacity` is
  /// the total over all shards' verdict caches.
  ServeServer(const SnapshotStore* store, Schema schema,
              const QueryEngineOptions& engine_options,
              const ServerOptions& options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds and starts the shard loops. InvalidArgument / IOError on a
  /// bad address or bind failure (nothing started).
  Status Start();

  /// The bound port (after `Start`); resolves `listen.port == 0`.
  uint16_t port() const { return port_; }

  /// Initiates graceful drain. Safe from any thread, idempotent, and
  /// non-blocking — pair with `Join()` to wait for completion.
  void Shutdown();

  /// Waits for every shard to stop (after `Shutdown`, or returns
  /// immediately if never started).
  void Join();

  /// True from `Start` until the drain completes.
  bool running() const {
    return live_shards_.load(std::memory_order_acquire) > 0;
  }

  ServerStats stats() const;

  /// The registry backing the `stats` verb: `options.metrics` when
  /// provided, the server's own otherwise. Valid after `Start()`.
  const MetricsRegistry* metrics() const { return registry_; }

 private:
  /// One event loop and the connections it owns (server.cc).
  class Shard;

  /// Registers the server's own metric families (`server.*`) with
  /// `registry_` and attaches the engines'. Called once from `Start()`
  /// before any thread exists.
  void RegisterMetrics();

  const SnapshotStore* store_;
  const Schema schema_;
  const QueryEngineOptions engine_options_;
  ServerOptions options_;

  /// Touched by shard 0's thread only once the shards run.
  OwnedFd listen_fd_;
  uint16_t port_ = 0;
  uint64_t next_conn_id_ = 0;  ///< shard 0's thread only

  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> started_{false};
  std::atomic<bool> shutdown_requested_{false};
  /// Cleared by shard 0 once the listener is closed: after that no
  /// connection is handed to any shard's inbox.
  std::atomic<bool> accepting_{false};
  std::atomic<size_t> live_shards_{0};
  /// Admitted lines so far: server-wide request ids and trace sampling.
  std::atomic<uint64_t> next_request_id_{0};

  // Observability. Counters/gauges are internally thread-safe; the
  // registry is set up in Start() before any server thread runs.
  MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<MetricsRegistry> own_registry_;
  Counter connections_accepted_;
  Counter connections_closed_;
  Counter lines_received_;
  Counter lines_admitted_;
  Counter responses_sent_;
  Counter overload_responses_;
  Counter parse_errors_;
  Counter idle_reaped_;
  Counter batches_executed_;
  Counter traces_emitted_;
  Gauge connections_;            ///< currently open connections
  Gauge admission_queue_depth_;  ///< admitted lines being answered
  Gauge read_buffer_bytes_;      ///< partial request bytes, all conns
  Gauge write_buffer_bytes_;     ///< unsent response bytes, all conns
  LatencyHistogram request_ns_;  ///< admission -> response queued
};

}  // namespace qikey

#endif  // QIKEY_SERVE_SERVER_H_
