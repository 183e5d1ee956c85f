// Loopback integration tests for the qikey serve network layer: the
// QIKEY/1 wire protocol, the epoll shard loops, admission control, idle
// reaping, snapshot hot-swap, and graceful drain — all over real
// sockets against a real QueryEngine, with server responses required
// to be BIT-IDENTICAL to the shared encoder run directly.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/generators/tabular.h"
#include "protocol_oracle.h"
#include "engine/pipeline.h"
#include "serve/conn.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "data/wire_codec.h"
#include "snapfile/snapfile.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/shutdown.h"

namespace qikey {
namespace {

// --------------------------------------------------------------------
// Protocol module (satellite: versioning + old request files parse)
// --------------------------------------------------------------------

TEST(ProtocolTest, HelloRoundTrip) {
  EXPECT_TRUE(IsHelloLine("QIKEY/1"));
  EXPECT_TRUE(IsHelloLine("QIKEY/9"));
  EXPECT_FALSE(IsHelloLine("is-key a,b"));
  EXPECT_FALSE(IsHelloLine("QIKEY/"));
  EXPECT_FALSE(IsHelloLine(""));

  auto v1 = ParseHelloLine(kHelloV1);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(*v1, ProtocolVersion::kV1);
  EXPECT_EQ(FormatHelloLine(*v1), "QIKEY/1 ready");

  // A version this build does not speak is a validation error, not a
  // parse error (the line is well-formed protocol).
  auto v9 = ParseHelloLine("QIKEY/9");
  EXPECT_FALSE(v9.ok());
}

TEST(ProtocolTest, UnversionedRequestFileStillParsesAsV1) {
  Schema schema({"a", "b", "c"});
  const char* body = "# comment\nis-key a,b\n\nmin-key\n";
  auto bare = ParseQueryRequests(body, schema);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  ASSERT_EQ(bare->size(), 2u);

  // The same body with an explicit v1 hello header parses identically:
  // the header selects the version, it is not a request.
  auto versioned = ParseQueryRequests(std::string("QIKEY/1\n") + body, schema);
  ASSERT_TRUE(versioned.ok()) << versioned.status().ToString();
  ASSERT_EQ(versioned->size(), 2u);
  EXPECT_EQ((*bare)[0].kind, (*versioned)[0].kind);
  EXPECT_EQ((*bare)[0].attrs, (*versioned)[0].attrs);

  // An unsupported version header rejects the whole file.
  EXPECT_FALSE(ParseQueryRequests(std::string("QIKEY/2\n") + body, schema).ok());
}

TEST(ProtocolTest, AnonymityKMustBeDigitsOnly) {
  Schema schema({"zip", "dob"});
  // strtoull-style whitespace skipping must not leak into the grammar:
  // every byte of k is a digit, on the wire and in request files.
  for (const char* line : {"anonymity zip \v2", "anonymity zip \f2",
                           "anonymity zip \r2", "anonymity zip \n2",
                           "anonymity zip 2\v", "anonymity zip +2",
                           "anonymity zip 18446744073709551616"}) {
    auto request = ParseQueryRequest(line, schema);
    EXPECT_FALSE(request.ok()) << "accepted: " << line;
    EXPECT_FALSE(ParseQueryRequests(line, schema).ok()) << line;
  }
  auto largest = ParseQueryRequest("anonymity zip 18446744073709551615", schema);
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest->k, 18446744073709551615ull);
  auto padded = ParseQueryRequest("anonymity zip 007", schema);
  ASSERT_TRUE(padded.ok()) << padded.status().ToString();
  EXPECT_EQ(padded->k, 7u);
}

TEST(ProtocolTest, MatchesReferenceParserAtEverySeparatorPlacement) {
  // The tokenizer scans eight bytes at a time: put separator runs at
  // every offset of lines of every verb and compare with the reference.
  Schema schema({"zip", "horiz_dist_hydrology", "a", "elevation_meters"});
  const std::vector<std::string> lines = {
      "is-key zip,horiz_dist_hydrology,a,elevation_meters",
      "separation horiz_dist_hydrology",
      "afd zip,a -> elevation_meters",
      "anonymity elevation_meters,zip 12",
      "min-key",
  };
  for (const std::string& base : lines) {
    for (size_t pos = 0; pos <= base.size(); ++pos) {
      for (const char* run : {" ", "\t", " \t  \t", "         "}) {
        std::string line = base;
        line.insert(pos, run);
        auto got = ParseQueryRequest(line, schema);
        auto want = protocol_oracle::ParseQueryRequest(line, schema);
        ASSERT_EQ(got.ok(), want.ok()) << "'" << line << "'";
        if (!got.ok()) {
          EXPECT_EQ(got.status(), want.status()) << "'" << line << "'";
          continue;
        }
        EXPECT_EQ(got->kind, want->kind) << "'" << line << "'";
        EXPECT_EQ(got->attrs, want->attrs) << "'" << line << "'";
        EXPECT_EQ(got->rhs, want->rhs) << "'" << line << "'";
        EXPECT_EQ(got->k, want->k) << "'" << line << "'";
      }
    }
  }
}

TEST(ProtocolTest, ParseIntoRecyclesTheRequest) {
  Schema schema({"zip", "dob", "name"});
  QueryRequest request;
  ASSERT_TRUE(
      ParseQueryRequestInto("afd zip,dob -> name", schema, &request).ok());
  EXPECT_EQ(request.rhs, 2u);
  ASSERT_TRUE(ParseQueryRequestInto("anonymity dob 9", schema, &request).ok());
  EXPECT_EQ(request.k, 9u);
  // Reused for an is-key line: the old set and fields are gone.
  ASSERT_TRUE(ParseQueryRequestInto("is-key name", schema, &request).ok());
  auto fresh = ParseQueryRequest("is-key name", schema);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(request.kind, fresh->kind);
  EXPECT_EQ(request.attrs, fresh->attrs);
  EXPECT_EQ(request.rhs, fresh->rhs);
  EXPECT_EQ(request.k, fresh->k);
}

TEST(ProtocolTest, ErrorCodeNamesAndStatusMapping) {
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kParse), "parse");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kValidation), "validation");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kOverload), "overload");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kSnapshotUnavailable),
               "unavailable");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kInternal), "internal");

  EXPECT_EQ(ServeErrorCodeFromStatus(Status::InvalidArgument("x")),
            ServeErrorCode::kValidation);
  EXPECT_EQ(ServeErrorCodeFromStatus(Status::NotFound("x")),
            ServeErrorCode::kSnapshotUnavailable);
  EXPECT_EQ(ServeErrorCodeFromStatus(Status::IOError("x")),
            ServeErrorCode::kInternal);
}

TEST(ProtocolTest, ErrorLineFlattensNewlines) {
  std::string line = EncodeErrorLine(ServeErrorCode::kOverload, "a\nb\rc");
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find('\r'), std::string::npos);
  EXPECT_EQ(line.rfind("err overload ", 0), 0u) << line;
}

// --------------------------------------------------------------------
// LineSplitter (framing under the per-line cap)
// --------------------------------------------------------------------

/// Feeds `chunk` the way a server shard does: the carried partial line
/// is copied to the front of a fresh read buffer, the new bytes follow
/// it, and the whole run is split. Lines are copied out of the views
/// before the buffer dies.
bool Feed(LineSplitter* splitter, std::string_view chunk,
          std::vector<std::string>* lines) {
  std::string buf(splitter->buffered_bytes(), '\0');
  EXPECT_EQ(splitter->CopyCarry(buf.data()), buf.size());
  buf.append(chunk);
  std::vector<std::string_view> views;
  bool ok = splitter->Split(buf, &views);
  for (std::string_view view : views) {
    EXPECT_GE(view.data(), buf.data());  // a view into the read buffer
    EXPECT_LE(view.data() + view.size(), buf.data() + buf.size());
    lines->emplace_back(view);
  }
  return ok;
}

TEST(LineSplitterTest, SplitsAndCarriesPartials) {
  LineSplitter splitter(64);
  std::vector<std::string> lines;
  EXPECT_TRUE(Feed(&splitter, "ab", &lines));
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(splitter.buffered_bytes(), 2u);
  EXPECT_TRUE(Feed(&splitter, "c\r\nsecond\nthi", &lines));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "abc");  // CR stripped, partial joined
  EXPECT_EQ(lines[1], "second");
  EXPECT_TRUE(Feed(&splitter, "rd\n", &lines));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2], "third");
}

TEST(LineSplitterTest, OverflowIsPermanent) {
  LineSplitter splitter(8);
  std::vector<std::string> lines;
  EXPECT_FALSE(Feed(&splitter, "waaaaay too long for the cap\n", &lines));
  EXPECT_TRUE(splitter.overflowed());
  EXPECT_TRUE(lines.empty());
  // Even a well-framed follow-up is refused: framing is lost for good.
  EXPECT_FALSE(Feed(&splitter, "ok\n", &lines));
}

TEST(LineSplitterTest, EverySplitPointGivesTheSameLines) {
  const std::string stream = "is-key a,b\r\n\nmin-key\r\r\n  x  \nlast\npart";
  std::vector<std::string> want;
  LineSplitter whole(64);
  ASSERT_TRUE(Feed(&whole, stream, &want));
  EXPECT_EQ(want, (std::vector<std::string>{"is-key a,b", "", "min-key\r",
                                            "  x  ", "last"}));
  EXPECT_EQ(whole.buffered_bytes(), 4u);  // "part"
  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    LineSplitter splitter(64);
    std::vector<std::string> got;
    ASSERT_TRUE(Feed(&splitter, std::string_view(stream).substr(0, cut), &got));
    ASSERT_TRUE(Feed(&splitter, std::string_view(stream).substr(cut), &got));
    EXPECT_EQ(got, want) << "split at " << cut;
    EXPECT_EQ(splitter.buffered_bytes(), 4u) << "split at " << cut;
  }
}

TEST(LineSplitterTest, CrAndNewlineInSeparateReads) {
  LineSplitter splitter(64);
  std::vector<std::string> lines;
  EXPECT_TRUE(Feed(&splitter, "stats\r", &lines));
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(splitter.buffered_bytes(), 6u);
  EXPECT_TRUE(Feed(&splitter, "\nmin-key\r", &lines));
  EXPECT_TRUE(Feed(&splitter, "\n", &lines));
  EXPECT_EQ(lines, (std::vector<std::string>{"stats", "min-key"}));
  EXPECT_EQ(splitter.buffered_bytes(), 0u);
}

TEST(LineSplitterTest, OverflowBoundaryIsExactlyTheCap) {
  // A line of exactly max_line_bytes is fine, terminated or carried;
  // the trailing CR counts toward the cap (it is stripped later).
  for (bool split : {false, true}) {
    LineSplitter splitter(8);
    std::vector<std::string> lines;
    EXPECT_TRUE(Feed(&splitter, "12345678", &lines));
    EXPECT_EQ(splitter.buffered_bytes(), 8u);
    if (split) {
      EXPECT_TRUE(Feed(&splitter, "\n", &lines));
    } else {
      EXPECT_TRUE(Feed(&splitter, "\n1234567\r\n", &lines));
    }
    EXPECT_FALSE(splitter.overflowed());
    EXPECT_EQ(lines.front(), "12345678");
  }
  // One byte more trips it, whether the newline came or not.
  LineSplitter terminated(8);
  std::vector<std::string> lines;
  EXPECT_FALSE(Feed(&terminated, "ok\n123456789\n", &lines));
  EXPECT_TRUE(terminated.overflowed());
  EXPECT_EQ(lines, std::vector<std::string>{"ok"});  // framed before it
  LineSplitter carried(8);
  EXPECT_TRUE(Feed(&carried, "1234", &lines));
  EXPECT_FALSE(Feed(&carried, "56789", &lines));
  EXPECT_TRUE(carried.overflowed());
  EXPECT_EQ(carried.buffered_bytes(), 0u);
  LineSplitter with_cr(8);
  EXPECT_FALSE(Feed(&with_cr, "12345678\r\n", &lines));
}

// --------------------------------------------------------------------
// Accept path
// --------------------------------------------------------------------

TEST(NetTest, AcceptedSocketHasNoDelay) {
  uint16_t port = 0;
  auto listener = OpenListenSocket({"127.0.0.1", 0}, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto client = OpenClientSocket({"127.0.0.1", port}, 5000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // connect() returned, so the connection waits in the backlog.
  OwnedFd accepted = AcceptConnection(listener->get());
  ASSERT_TRUE(accepted.valid()) << std::strerror(errno);
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  int rc = ::getsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                        &len);
  ASSERT_EQ(rc, 0) << std::strerror(errno);
  EXPECT_NE(nodelay, 0);
}

// --------------------------------------------------------------------
// Loopback server fixture
// --------------------------------------------------------------------

/// A table whose first column is a row id (an exact key by
/// construction) over low-cardinality columns.
Dataset MakeKeyedData(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<ValueCode> id(rows);
  for (size_t i = 0; i < rows; ++i) id[i] = static_cast<ValueCode>(i);
  std::vector<Column> columns;
  columns.emplace_back(std::move(id));
  for (uint32_t card : {5u, 7u, 3u, 11u, 2u}) {
    std::vector<ValueCode> codes(rows);
    for (size_t i = 0; i < rows; ++i) {
      codes[i] = static_cast<ValueCode>(rng.Uniform(card));
    }
    columns.emplace_back(std::move(codes), card);
  }
  return Dataset(
      Schema({"id", "c1", "c2", "c3", "c4", "c5"}), std::move(columns));
}

/// Store + running server over one published pipeline snapshot; tears
/// everything down in order.
struct TestServer {
  explicit TestServer(ServerOptions options = {}, bool publish = true,
                      size_t rows = 96,
                      const QueryEngineOptions& engine_options = {}) {
    data = std::make_unique<Dataset>(MakeKeyedData(rows, /*seed=*/7));
    if (publish) {
      PipelineOptions popts;
      popts.eps = 0.01;
      Rng rng(11);
      auto result = DiscoveryPipeline(popts).Run(*data, &rng);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      auto snapshot = SnapshotFromPipelineResult(*result, popts.eps);
      EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      auto epoch = store.Publish(std::move(*snapshot));
      EXPECT_TRUE(epoch.ok()) << epoch.status().ToString();
    }
    options.listen = {"127.0.0.1", 0};
    server = std::make_unique<ServeServer>(&store, data->schema(),
                                           engine_options, options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  ~TestServer() {
    server->Shutdown();
    server->Join();
  }

  BlockingLineClient Connect(bool eat_greeting = true,
                             int recv_timeout_ms = 5000) {
    auto fd = OpenClientSocket({"127.0.0.1", server->port()},
                               recv_timeout_ms);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    BlockingLineClient client(std::move(*fd));
    if (eat_greeting) {
      auto greeting = client.RecvLine();
      EXPECT_TRUE(greeting.ok()) << greeting.status().ToString();
      if (greeting.ok()) {
        EXPECT_EQ(*greeting, "QIKEY/1 ready");
      }
    }
    return client;
  }

  std::unique_ptr<Dataset> data;
  SnapshotStore store;
  std::unique_ptr<ServeServer> server;
};

/// Renders a request back into its wire line using schema names.
std::string RequestLine(const QueryRequest& request, const Schema& schema) {
  auto names = [&](const AttributeSet& set) {
    std::string out;
    for (AttributeIndex a : set.ToIndices()) {
      if (!out.empty()) out += ',';
      out += schema.name(a);
    }
    return out;
  };
  switch (request.kind) {
    case QueryKind::kIsKey:
      return "is-key " + names(request.attrs);
    case QueryKind::kSeparation:
      return "separation " + names(request.attrs);
    case QueryKind::kMinKey:
      return "min-key";
    case QueryKind::kAfd:
      return "afd " + names(request.attrs) + " -> " +
             schema.name(request.rhs);
    case QueryKind::kAnonymity:
      return "anonymity " + names(request.attrs) + " " +
             std::to_string(request.k);
  }
  return "";
}

/// A deterministic mixed-kind wire workload (every line parses).
std::vector<std::string> MakeWireWorkload(const Schema& schema, size_t count,
                                          uint64_t seed) {
  Rng rng(seed);
  size_t m = schema.num_attributes();
  std::vector<std::string> lines;
  for (size_t i = 0; i < count; ++i) {
    QueryRequest request;
    switch (rng.Uniform(5)) {
      case 0:
        request.kind = QueryKind::kIsKey;
        request.attrs = AttributeSet::Random(m, 0.4, &rng);
        break;
      case 1:
        request.kind = QueryKind::kSeparation;
        request.attrs = AttributeSet::Random(m, 0.4, &rng);
        break;
      case 2:
        request.kind = QueryKind::kMinKey;
        request.attrs = AttributeSet(m);
        break;
      case 3: {
        request.kind = QueryKind::kAfd;
        AttributeIndex rhs = static_cast<AttributeIndex>(
            rng.Uniform(static_cast<uint32_t>(m)));
        request.attrs = AttributeSet::Random(m, 0.3, &rng);
        request.attrs.Remove(rhs);
        request.rhs = rhs;
        // The grammar needs a non-empty lhs.
        if (request.attrs.ToIndices().empty()) {
          request.attrs.Add(rhs == 0 ? 1 : 0);
        }
        break;
      }
      default:
        request.kind = QueryKind::kAnonymity;
        request.attrs = AttributeSet::Random(m, 0.3, &rng);
        request.k = 2 + rng.Uniform(3);
        break;
    }
    if (request.kind != QueryKind::kMinKey &&
        request.attrs.ToIndices().empty()) {
      request.attrs.Add(0);
    }
    lines.push_back(RequestLine(request, schema));
  }
  return lines;
}

/// What the server MUST answer for `lines`: parse with the shared
/// parser, execute directly on a cache-less engine over `store`, encode
/// with the shared encoder. Any divergence on the socket is a codec
/// fork.
std::vector<std::string> ExpectedResponses(
    const SnapshotStore& store, const Schema& schema,
    const std::vector<std::string>& lines) {
  std::vector<QueryRequest> requests;
  for (const std::string& line : lines) {
    auto request = ParseQueryRequest(line, schema);
    EXPECT_TRUE(request.ok()) << line << ": " << request.status().ToString();
    requests.push_back(std::move(*request));
  }
  QueryEngineOptions cache_off;
  cache_off.cache_capacity = 0;
  QueryEngine engine(&store, cache_off);
  std::vector<QueryResponse> responses = engine.ExecuteBatch(requests);
  std::vector<std::string> expected;
  for (size_t i = 0; i < requests.size(); ++i) {
    expected.push_back(EncodeResponseLine(requests[i], responses[i], schema));
  }
  return expected;
}

// --------------------------------------------------------------------
// Bit-identical serving
// --------------------------------------------------------------------

TEST(ServeNetTest, PipelinedClientGetsBitIdenticalResponses) {
  TestServer ts;
  const Schema& schema = ts.data->schema();
  std::vector<std::string> lines = MakeWireWorkload(schema, 60, 21);
  std::vector<std::string> expected =
      ExpectedResponses(ts.store, schema, lines);

  BlockingLineClient client = ts.Connect();
  std::string blob;
  for (const std::string& line : lines) blob += line + "\n";
  ASSERT_TRUE(client.SendAll(blob).ok());  // one burst: full pipelining
  for (size_t i = 0; i < lines.size(); ++i) {
    auto got = client.RecvLine();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expected[i]) << "line " << i << ": " << lines[i];
  }
}

TEST(ServeNetTest, MoreClientsThanShardsEachBitIdentical) {
  TestServer ts;
  const Schema& schema = ts.data->schema();

  // More connections than any CI runner has CPUs, so every shard owns
  // several and the least-loaded hand-off wraps around.
  constexpr size_t kClients = 9;
  constexpr size_t kLines = 40;
  std::vector<std::vector<std::string>> all_lines, all_expected;
  for (size_t c = 0; c < kClients; ++c) {
    all_lines.push_back(MakeWireWorkload(schema, kLines, 100 + c));
    all_expected.push_back(
        ExpectedResponses(ts.store, schema, all_lines.back()));
  }

  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      BlockingLineClient client = ts.Connect();
      for (size_t i = 0; i < kLines; ++i) {
        // Request/response lockstep: interleaves batches across
        // clients and shards as hard as the box allows.
        if (!client.SendLine(all_lines[c][i]).ok()) {
          failures[c] = "send failed at line " + std::to_string(i);
          return;
        }
        auto got = client.RecvLine();
        if (!got.ok() || *got != all_expected[c][i]) {
          failures[c] = "line " + std::to_string(i) + ": got '" +
                        (got.ok() ? *got : got.status().ToString()) +
                        "' want '" + all_expected[c][i] + "'";
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }

  // Every line sent on any shard is counted, `stats` itself included.
  BlockingLineClient client = ts.Connect();
  ASSERT_TRUE(client.SendLine("stats").ok());
  auto got = client.RecvLine();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::string total = std::to_string(kClients * kLines + 1);
  std::string want = "\"server.lines_received\":" + total + ",";
  EXPECT_NE(got->find(want), std::string::npos) << *got;
}

// --------------------------------------------------------------------
// Protocol errors on the wire
// --------------------------------------------------------------------

TEST(ServeNetTest, MalformedLineAnswersErrAndKeepsConnectionOpen) {
  TestServer ts;
  BlockingLineClient client = ts.Connect();
  ASSERT_TRUE(client.SendLine("gibberish query").ok());
  auto err = client.RecvLine();
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->rfind("err parse ", 0), 0u) << *err;

  // The connection survives a parse error: framing was never lost.
  ASSERT_TRUE(client.SendLine("min-key").ok());
  auto ok = client.RecvLine();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->rfind("ok ", 0), 0u) << *ok;
}

TEST(ServeNetTest, UnsupportedHelloIsValidationErrorButConnectionSurvives) {
  TestServer ts;
  BlockingLineClient client = ts.Connect();
  ASSERT_TRUE(client.SendLine("QIKEY/2").ok());
  auto err = client.RecvLine();
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->rfind("err validation ", 0), 0u) << *err;

  ASSERT_TRUE(client.SendLine("QIKEY/1").ok());
  auto ok = client.RecvLine();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "ok v1");
}

TEST(ServeNetTest, OversizedLineGetsErrParseThenClose) {
  ServerOptions options;
  options.max_line_bytes = 64;
  TestServer ts(options);
  BlockingLineClient client = ts.Connect();
  ASSERT_TRUE(
      client.SendLine("is-key " + std::string(200, 'x')).ok());
  auto err = client.RecvLine();
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->rfind("err parse ", 0), 0u) << *err;
  // Framing is lost, so the server closes: next read is EOF.
  EXPECT_FALSE(client.RecvLine().ok());
}

TEST(ServeNetTest, NoSnapshotAnswersErrUnavailable) {
  TestServer ts({}, /*publish=*/false);
  BlockingLineClient client = ts.Connect();
  ASSERT_TRUE(client.SendLine("min-key").ok());
  auto err = client.RecvLine();
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->rfind("err unavailable ", 0), 0u) << *err;
}

// --------------------------------------------------------------------
// Backpressure
// --------------------------------------------------------------------

TEST(ServeNetTest, FloodIsShedInOrderWithErrOverloadNeverUnbounded) {
  ServerOptions options;
  options.max_pending_per_conn = 2;
  TestServer ts(options);
  const Schema& schema = ts.data->schema();

  // Distinct requests, so an answer in the wrong slot cannot pass.
  constexpr size_t kFlood = 64;
  std::vector<std::string> lines = MakeWireWorkload(schema, kFlood, 77);
  std::vector<std::string> expected =
      ExpectedResponses(ts.store, schema, lines);
  BlockingLineClient client = ts.Connect();
  std::string blob;
  for (const std::string& line : lines) blob += line + "\n";
  ASSERT_TRUE(client.SendAll(blob).ok());

  // Exactly one response per request line, in request order: admitted
  // lines answer exactly as the engine does, shed lines answer
  // `err overload` in their own slot (see server.h).
  size_t ok = 0, overload = 0;
  for (size_t i = 0; i < kFlood; ++i) {
    auto got = client.RecvLine();
    ASSERT_TRUE(got.ok()) << "response " << i << ": "
                          << got.status().ToString();
    if (got->rfind("err overload ", 0) == 0) {
      ++overload;
    } else {
      EXPECT_EQ(*got, expected[i]) << "line " << i << ": " << lines[i];
      ++ok;
    }
  }
  EXPECT_GE(ok, 1u);        // the connection made progress
  EXPECT_GE(overload, 1u);  // and the flood was shed, not buffered
  EXPECT_GE(ts.server->stats().overload_responses, overload);
}

// --------------------------------------------------------------------
// Snapshot hot-swap
// --------------------------------------------------------------------

TEST(ServeNetTest, HotSwapServesNewSnapshotWithoutDroppingConnection) {
  TestServer ts;
  BlockingLineClient client = ts.Connect();

  ASSERT_TRUE(client.SendLine("min-key").ok());
  auto before = client.RecvLine();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rfind("ok ", 0), 0u);

  // Publish a snapshot whose min-key answer is visibly different (two
  // tracked minimal keys instead of one).
  ServeSnapshot next = *ts.store.Current();
  std::vector<AttributeSet> keys = *next.keys;
  AttributeSet extra(ts.data->schema().num_attributes());
  extra.Add(1);
  extra.Add(2);
  keys.push_back(extra);
  next.keys =
      std::make_shared<const std::vector<AttributeSet>>(std::move(keys));
  ASSERT_TRUE(ts.store.Publish(std::move(next)).ok());

  // Same connection, next request: the new epoch answers.
  ASSERT_TRUE(client.SendLine("min-key").ok());
  auto after = client.RecvLine();
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*after, *before);
  EXPECT_EQ(after->rfind("ok ", 0), 0u);
  EXPECT_EQ(after->substr(after->size() - 2), " 2") << *after;
}

TEST(ServeNetTest, HotSwapFromSnapshotFileMidConnection) {
  TestServer ts;
  BlockingLineClient client = ts.Connect();

  ASSERT_TRUE(client.SendLine("min-key").ok());
  auto before = client.RecvLine();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rfind("ok ", 0), 0u);

  // Freeze a visibly different snapshot (an extra tracked minimal key)
  // into a QSNP1 artifact, load it back through the mmap reader, and
  // publish the loaded snapshot — the serve --snapshot-file SIGHUP
  // path, minus the signal.
  ServeSnapshot next = *ts.store.Current();
  std::vector<AttributeSet> keys = *next.keys;
  AttributeSet extra(ts.data->schema().num_attributes());
  extra.Add(1);
  extra.Add(2);
  keys.push_back(extra);
  next.keys =
      std::make_shared<const std::vector<AttributeSet>>(std::move(keys));
  const std::string path = "/tmp/qikey_serve_net_hotswap.qsnp";
  ASSERT_TRUE(snapfile::WriteSnapshotFile(next, path).ok());
  auto loaded = snapfile::ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(ts.store.Publish(std::move(*loaded)).ok());

  // Same connection, next request: answered from the mmap-backed
  // snapshot without a reconnect.
  ASSERT_TRUE(client.SendLine("min-key").ok());
  auto after = client.RecvLine();
  ASSERT_TRUE(after.ok());
  EXPECT_NE(*after, *before);
  EXPECT_EQ(after->rfind("ok ", 0), 0u);
  EXPECT_EQ(after->substr(after->size() - 2), " 2") << *after;
  std::remove(path.c_str());
}

/// Bitset discovery over `data`, frozen into a serving snapshot.
ServeSnapshot BitsetSnapshot(const Dataset& data, uint64_t sample_rows) {
  PipelineOptions popts;
  popts.eps = 0.01;
  popts.backend = FilterBackend::kBitset;
  popts.sample_size = sample_rows;
  Rng rng(11);
  auto result = DiscoveryPipeline(popts).Run(data, &rng);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  auto snapshot = SnapshotFromPipelineResult(*result, popts.eps);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return std::move(*snapshot);
}

/// Lockstep round trips; the answers in order.
std::vector<std::string> Roundtrips(BlockingLineClient* client,
                                    const std::vector<std::string>& lines) {
  std::vector<std::string> answers;
  for (const std::string& line : lines) {
    EXPECT_TRUE(client->SendLine(line).ok());
    auto got = client->RecvLine();
    if (!got.ok()) {
      ADD_FAILURE() << line << ": " << got.status().ToString();
      break;
    }
    answers.push_back(std::move(*got));
  }
  return answers;
}

TEST(ServeNetTest, SnapshotFileReplacedUnderLiveMappingKeepsServing) {
  // Reproducer: `qikey snapshot save` over the file a live `serve
  // --snapshot-file` has mapped. Rewriting it in place (truncate, then
  // write a smaller image) pulls the mapped pages out from under the
  // server, and the next uncached query that touches them dies with
  // SIGBUS. An atomic replacement leaves the mapped inode intact: the
  // server keeps answering from it until SIGHUP re-reads the path.
  TestServer ts(ServerOptions{}, /*publish=*/false);
  const Schema& schema = ts.data->schema();
  // A ~0.5 MB image whose evidence sits behind a 20000-row sample, and
  // a few-KB replacement over the same schema.
  Dataset big_data = MakeKeyedData(20000, 23);
  ServeSnapshot big = BitsetSnapshot(big_data, 20000);
  ServeSnapshot small = BitsetSnapshot(*ts.data, 0);

  std::vector<std::string> lines = MakeWireWorkload(schema, 200, 29);
  auto expected_from = [&](ServeSnapshot snapshot) {
    SnapshotStore store;
    EXPECT_TRUE(store.Publish(std::move(snapshot)).ok());
    return ExpectedResponses(store, schema, lines);
  };
  const std::vector<std::string> want_big = expected_from(big);
  const std::vector<std::string> want_small = expected_from(small);
  ASSERT_NE(want_big, want_small);

  const std::string path = "/tmp/qikey_serve_net_replace_" +
                           std::to_string(::getpid()) + ".qsnp";
  ASSERT_TRUE(snapfile::WriteSnapshotFile(big, path).ok());
  auto mapped = snapfile::ReadSnapshotFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto first = ts.store.Publish(std::move(*mapped));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);

  BlockingLineClient client = ts.Connect();
  ASSERT_TRUE(client.SendLine("min-key").ok());
  auto before = client.RecvLine();
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // Overwrite the live file the way `qikey snapshot save` does.
  auto big_image = snapfile::SerializeSnapshot(big);
  auto small_image = snapfile::SerializeSnapshot(small);
  ASSERT_TRUE(big_image.ok() && small_image.ok());
  ASSERT_GT(big_image->size(), 20 * small_image->size());
  ASSERT_TRUE(WriteFileBytes(*small_image, path).ok());

  // Not-yet-cached queries still answer from the mapped image.
  EXPECT_EQ(Roundtrips(&client, lines), want_big);

  // SIGHUP: the reload flag `qikey serve` polls, then its reload step
  // (re-map the path, publish).
  shutdown_flags::InstallSignalFlags();
  ASSERT_EQ(std::raise(SIGHUP), 0);
  ASSERT_TRUE(shutdown_flags::ReloadRequested());
  shutdown_flags::ClearReload();
  auto reloaded = snapfile::ReadSnapshotFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  auto second = ts.store.Publish(std::move(*reloaded));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 2u);

  // Same connection: the new epoch answers.
  EXPECT_EQ(Roundtrips(&client, lines), want_small);
  ASSERT_TRUE(client.SendLine("stats").ok());
  auto stats = client.RecvLine();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"snapshot.epoch\":2"), std::string::npos)
      << *stats;
  for (int sig : {SIGTERM, SIGINT, SIGHUP, SIGUSR1}) {
    std::signal(sig, SIG_DFL);
  }
  std::remove(path.c_str());
}

// --------------------------------------------------------------------
// Lifecycle: graceful drain, EOF, idle reaping
// --------------------------------------------------------------------

TEST(ServeNetTest, GracefulDrainAnswersEverythingAdmittedThenCloses) {
  TestServer ts;
  const Schema& schema = ts.data->schema();
  std::vector<std::string> lines = MakeWireWorkload(schema, 24, 33);
  std::vector<std::string> expected =
      ExpectedResponses(ts.store, schema, lines);

  BlockingLineClient client = ts.Connect();
  std::string blob;
  for (const std::string& line : lines) blob += line + "\n";
  ASSERT_TRUE(client.SendAll(blob).ok());

  // Wait until every line is admitted, then drain mid-flight.
  while (ts.server->stats().lines_received < lines.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ts.server->Shutdown();

  for (size_t i = 0; i < lines.size(); ++i) {
    auto got = client.RecvLine();
    ASSERT_TRUE(got.ok()) << "response " << i << " lost in drain: "
                          << got.status().ToString();
    EXPECT_EQ(*got, expected[i]) << "line " << i;
  }
  EXPECT_FALSE(client.RecvLine().ok());  // then EOF
  ts.server->Join();
  EXPECT_FALSE(ts.server->running());
}

TEST(ServeNetTest, HalfCloseFlushesAllResponsesThenEof) {
  TestServer ts;
  BlockingLineClient client = ts.Connect();
  ASSERT_TRUE(client.SendAll("min-key\nmin-key\nmin-key\n").ok());
  client.ShutdownWrite();
  for (int i = 0; i < 3; ++i) {
    auto got = client.RecvLine();
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(got->rfind("ok ", 0), 0u);
  }
  EXPECT_FALSE(client.RecvLine().ok());
}

TEST(ServeNetTest, SlowLorisIsReapedByIdleTimeout) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  TestServer ts(options);
  BlockingLineClient client = ts.Connect();
  // A partial line, never terminated: the classic slow loris.
  ASSERT_TRUE(client.SendAll("is-key c1,c").ok());
  // The server must close us, not wait forever.
  EXPECT_FALSE(client.RecvLine().ok());
  // The fd closes a moment before the shard bumps the counter — poll.
  for (int i = 0; i < 500 && ts.server->stats().idle_reaped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(ts.server->stats().idle_reaped, 1u);
}

TEST(ServeNetTest, ConnectionLimitGreetsOverloadAndCloses) {
  ServerOptions options;
  options.max_connections = 1;
  TestServer ts(options);
  BlockingLineClient first = ts.Connect();
  // Second connection: greeted with err overload, then EOF.
  BlockingLineClient second = ts.Connect(/*eat_greeting=*/false);
  auto greeting = second.RecvLine();
  ASSERT_TRUE(greeting.ok());
  EXPECT_EQ(greeting->rfind("err overload ", 0), 0u) << *greeting;
  EXPECT_FALSE(second.RecvLine().ok());
  // The first connection is unaffected.
  ASSERT_TRUE(first.SendLine("min-key").ok());
  EXPECT_TRUE(first.RecvLine().ok());
}

// --------------------------------------------------------------------
// LoadSnapshot facade (satellite: one entry point for all sources)
// --------------------------------------------------------------------

TEST(LoadSnapshotTest, PipelineRunAndMonitorSources) {
  std::string path = ::testing::TempDir() + "/qikey_serve_net_src.csv";
  {
    std::ofstream out(path);
    out << "a,b\n";
    for (int i = 0; i < 32; ++i) {
      out << i << "," << (i % 3) << "\n";
    }
  }
  SnapshotSource source;
  source.kind = SnapshotSource::Kind::kPipelineRun;
  source.csv_path = path;
  source.pipeline.eps = 0.01;
  auto from_run = LoadSnapshot(source);
  ASSERT_TRUE(from_run.ok()) << from_run.status().ToString();
  EXPECT_EQ(from_run->schema().num_attributes(), 2u);
  EXPECT_EQ(from_run->source_rows, 32u);

  source.kind = SnapshotSource::Kind::kMonitor;
  source.window = 16;
  auto from_monitor = LoadSnapshot(source);
  ASSERT_TRUE(from_monitor.ok()) << from_monitor.status().ToString();
  EXPECT_EQ(from_monitor->schema().num_attributes(), 2u);
  EXPECT_EQ(from_monitor->source_rows, 16u);  // the sliding window

  std::remove(path.c_str());
}

TEST(LoadSnapshotTest, ErrorsComeBackAsStatuses) {
  SnapshotSource source;
  source.kind = SnapshotSource::Kind::kPipelineRun;
  source.csv_path = "/nonexistent/qikey.csv";
  source.pipeline.eps = 0.01;
  EXPECT_FALSE(LoadSnapshot(source).ok());

  source.kind = SnapshotSource::Kind::kShardArtifacts;
  source.artifact_paths.clear();
  EXPECT_FALSE(LoadSnapshot(source).ok());

  source.artifact_paths = {"/nonexistent/shard.qka"};
  EXPECT_FALSE(LoadSnapshot(source).ok());
}

// --------------------------------------------------------------------
// Observability: the stats verb, bit-stable snapshots, request traces
// --------------------------------------------------------------------

/// Zeroes every time-valued number in a rendered metrics JSON line:
/// the sum/p50/p99/p999/max of histograms whose name ends in `_ns`
/// and the value of `_ns`-named gauges. Counts and all non-timing
/// metrics are left untouched, so two normalized snapshots are equal
/// exactly when the servers did the same (counted) work.
std::string NormalizeTimings(std::string json) {
  std::vector<std::pair<size_t, size_t>> spans;  // digit runs to zero
  size_t pos = 0;
  while ((pos = json.find("_ns\":", pos)) != std::string::npos) {
    size_t v = pos + 5;
    pos = v;
    if (v >= json.size()) break;
    if (json[v] == '{') {
      size_t close = json.find('}', v);
      for (const char* key :
           {"\"sum\":", "\"p50\":", "\"p99\":", "\"p999\":", "\"max\":"}) {
        size_t k = json.find(key, v);
        if (k == std::string::npos || k > close) continue;
        size_t d = k + std::strlen(key);
        size_t e = d;
        while (e < json.size() &&
               std::isdigit(static_cast<unsigned char>(json[e]))) {
          ++e;
        }
        spans.emplace_back(d, e - d);
      }
    } else {
      size_t e = v;
      if (json[e] == '-') ++e;
      while (e < json.size() &&
             std::isdigit(static_cast<unsigned char>(json[e]))) {
        ++e;
      }
      spans.emplace_back(v, e - v);
    }
  }
  std::sort(spans.begin(), spans.end());
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (it->second == 0) continue;
    json[it->first] = '0';
    json.erase(it->first + 1, it->second - 1);
  }
  return json;
}

TEST(ServeNetTest, StatsVerbReturnsJsonCoveringAllFamilies) {
  TestServer ts;
  BlockingLineClient client = ts.Connect();
  ASSERT_TRUE(client.SendLine("is-key c1,c2").ok());
  ASSERT_TRUE(client.RecvLine().ok());
  ASSERT_TRUE(client.SendLine("min-key").ok());
  ASSERT_TRUE(client.RecvLine().ok());

  ASSERT_TRUE(client.SendLine("stats").ok());
  auto got = client.RecvLine();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->rfind("ok {", 0), 0u) << *got;
  std::string json = got->substr(3);
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);

  // Every required metric family is present in the one snapshot:
  // connections, admission, request latency, cache, snapshot epoch,
  // engine passes.
  for (const char* family :
       {"\"server.connections\":", "\"server.connections_accepted\":",
        "\"server.admission_queue_depth\":", "\"server.lines_admitted\":",
        "\"server.request_ns\":", "\"cache.hits\":", "\"cache.misses\":",
        "\"snapshot.epoch\":", "\"engine.pass.validate_ns\":",
        "\"engine.pass.execute_ns\":", "\"engine.batch_size\":"}) {
    EXPECT_NE(json.find(family), std::string::npos) << family;
  }
  // The counted state at render time is exact under lockstep: three
  // lines were received and admitted (two queries + stats itself), and
  // both query responses were flushed before stats was sent.
  EXPECT_NE(json.find("\"server.lines_received\":3"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"server.lines_admitted\":3"), std::string::npos);
  EXPECT_NE(json.find("\"server.connections\":1"), std::string::npos);
  EXPECT_NE(json.find("\"snapshot.epoch\":1"), std::string::npos);

  // The same snapshot is visible through the embedding API.
  ASSERT_NE(ts.server->metrics(), nullptr);
  std::string direct = ts.server->metrics()->RenderJson();
  EXPECT_EQ(NormalizeTimings(direct).substr(0, 12), json.substr(0, 12));
}

TEST(ServeNetTest, StatsSnapshotIsBitStableAcrossIdenticalRuns) {
  // Two fresh servers, the same lockstep request sequence: after
  // normalizing wall-clock timings, the stats JSON must be
  // byte-identical — every counter, gauge, histogram count, and the
  // key order itself is deterministic.
  auto run = [](const std::vector<std::string>& lines) {
    TestServer ts;
    BlockingLineClient client = ts.Connect();
    for (const std::string& line : lines) {
      EXPECT_TRUE(client.SendLine(line).ok());
      auto got = client.RecvLine();
      EXPECT_TRUE(got.ok()) << got.status().ToString();
    }
    EXPECT_TRUE(client.SendLine("stats").ok());
    auto got = client.RecvLine();
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    return got.ok() ? got->substr(3) : std::string();
  };

  std::vector<std::string> lines =
      MakeWireWorkload(MakeKeyedData(4, 7).schema(), 24, 55);
  lines.push_back("not a verb");  // parse errors are counted state too
  lines.push_back("QIKEY/1");
  std::string first = NormalizeTimings(run(lines));
  std::string second = NormalizeTimings(run(lines));
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

/// The integer value rendered for `name` in a `stats` JSON line.
int64_t StatsValue(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << name << " missing from " << json;
  return at == std::string::npos ? -1 : std::stoll(json.substr(at + key.size()));
}

TEST(ServeNetTest, StatsSumCacheCountsOverEveryShardEngine) {
  // Each shard loop owns an engine with its share of the --cache total.
  // `stats` must still read as one server: every is-key request is one
  // lookup (hit or miss) on the engine of the loop that answered it,
  // and the loops together never hold more than the total.
  QueryEngineOptions engine_options;
  engine_options.cache_capacity = 5;
  TestServer ts(ServerOptions{}, /*publish=*/true, /*rows=*/96,
                engine_options);
  const std::vector<std::string> sets = {"c1",    "c2",    "c1,c2", "c3",
                                         "c1,c3", "c2,c3", "c4",    "c1,c4",
                                         "c5",    "c2,c5", "id",    "c3,c4,c5"};
  constexpr size_t kClients = 3;
  std::vector<BlockingLineClient> clients;
  for (size_t c = 0; c < kClients; ++c) clients.push_back(ts.Connect());
  int64_t sent = 0;
  for (size_t round = 0; round < 3; ++round) {
    for (size_t c = 0; c < kClients; ++c) {
      for (size_t i = c; i < sets.size(); ++i) {
        // Each set twice in a row: the repeat hits on any loop whose
        // share holds at least one entry.
        for (int repeat = 0; repeat < 2; ++repeat) {
          ASSERT_TRUE(clients[c].SendLine("is-key " + sets[i]).ok());
          auto got = clients[c].RecvLine();
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got->rfind("ok ", 0), 0u) << *got;
          ++sent;
        }
      }
      ASSERT_TRUE(clients[c].SendLine("min-key").ok());  // not a lookup
      ASSERT_TRUE(clients[c].RecvLine().ok());
    }
  }
  ASSERT_TRUE(clients[1].SendLine("stats").ok());
  auto stats = clients[1].RecvLine();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const int64_t hits = StatsValue(*stats, "cache.hits");
  EXPECT_EQ(hits + StatsValue(*stats, "cache.misses"), sent) << *stats;
  EXPECT_GE(hits, sent / 2) << *stats;
  EXPECT_LE(StatsValue(*stats, "cache.size"), 5) << *stats;
  EXPECT_GT(StatsValue(*stats, "cache.size"), 0) << *stats;
}

TEST(ServeNetTest, TraceSampleEmitsPerStageTimings) {
  ServerOptions options;
  options.trace_sample = 1;  // trace every request
  std::mutex mu;
  std::vector<std::string> traces;
  options.trace_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    traces.push_back(line);
  };
  TestServer ts(options);
  // One connection per request: they land on different shards, whose
  // request ids must still be unique server-wide.
  std::vector<BlockingLineClient> clients;
  for (const char* line : {"min-key", "is-key c1,c2", "separation c1"}) {
    clients.push_back(ts.Connect());
    ASSERT_TRUE(clients.back().SendLine(line).ok());
    ASSERT_TRUE(clients.back().RecvLine().ok());
  }
  // Traces are emitted by the shard after the response flush; the
  // last one may land a beat after our read returns.
  for (int i = 0; i < 500; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (traces.size() >= 3) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(traces.size(), 3u);
  for (const std::string& trace : traces) {
    EXPECT_EQ(trace.rfind("{\"type\":\"trace\"", 0), 0u) << trace;
    for (const char* field :
         {"\"request_id\":", "\"conn\":", "\"parse_ns\":", "\"queue_ns\":",
          "\"execute_ns\":", "\"flush_ns\":", "\"total_ns\":"}) {
      EXPECT_NE(trace.find(field), std::string::npos)
          << field << " missing in " << trace;
    }
    EXPECT_EQ(trace.find('\n'), std::string::npos);
  }
  // Request ids 0, 1, 2 — one each, whichever shard traced them.
  std::vector<std::string> ids;
  for (const std::string& trace : traces) {
    size_t at = trace.find("\"request_id\":") + 13;
    ids.push_back(trace.substr(at, trace.find(',', at) - at));
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"0", "1", "2"}));
  EXPECT_GE(ts.server->stats().lines_received, 3u);
}

TEST(ServeNetTest, TraceSampleEveryNthPicksOneInN) {
  ServerOptions options;
  options.trace_sample = 3;
  std::mutex mu;
  std::vector<std::string> traces;
  options.trace_sink = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    traces.push_back(line);
  };
  TestServer ts(options);
  BlockingLineClient client = ts.Connect();
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(client.SendLine("min-key").ok());
    ASSERT_TRUE(client.RecvLine().ok());
  }
  for (int i = 0; i < 500; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (traces.size() >= 3) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(traces.size(), 3u);  // 9 requests at 1-in-3
}

// Engine-level error-code population (satellite: ServeErrorCode in
// QueryResponse, not just on the wire).
TEST(ServeErrorCodeTest, EngineTagsValidationAndUnavailable) {
  SnapshotStore store;
  QueryEngine engine(&store, {});
  QueryRequest request;
  request.kind = QueryKind::kMinKey;
  QueryResponse response = engine.Execute(request);
  EXPECT_EQ(response.error_code, ServeErrorCode::kSnapshotUnavailable);

  Dataset data = MakeKeyedData(16, 3);
  PipelineOptions popts;
  popts.eps = 0.01;
  Rng rng(5);
  auto result = DiscoveryPipeline(popts).Run(data, &rng);
  ASSERT_TRUE(result.ok());
  auto snapshot = SnapshotFromPipelineResult(*result, popts.eps);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(store.Publish(std::move(*snapshot)).ok());

  QueryRequest bad;
  bad.kind = QueryKind::kAnonymity;
  bad.attrs = AttributeSet(data.schema().num_attributes());
  bad.attrs.Add(0);
  bad.k = 0;  // k must be >= 1
  response = engine.Execute(bad);
  EXPECT_EQ(response.error_code, ServeErrorCode::kValidation);

  QueryRequest good;
  good.kind = QueryKind::kMinKey;
  response = engine.Execute(good);
  EXPECT_EQ(response.error_code, ServeErrorCode::kNone);
  EXPECT_TRUE(response.status.ok());
}

}  // namespace
}  // namespace qikey
