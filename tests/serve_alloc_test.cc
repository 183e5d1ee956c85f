// Allocation budget of the served is-key path. This binary replaces the
// global `operator new` with a counting one (hence its own executable),
// starts an in-process `ServeServer`, and pipelines is-key requests in
// batches of 64 over loopback once the verdict cache is full and every
// per-shard scratch buffer has reached its working size. The client
// side of the measured window talks raw send/recv into presized
// buffers, so every counted allocation is the server's.
//
// What remains per request is the one copy of each missed set into the
// filter batch, plus a handful of vectors per batch.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "engine/pipeline.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QIKEY_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define QIKEY_SANITIZED_ALLOCATOR 1
#endif
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

#ifndef QIKEY_SANITIZED_ALLOCATOR
// Counting replacements of the throwing forms; the nothrow and aligned
// library forms route through (or pair with) these.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace qikey {
namespace {

constexpr size_t kBatch = 64;
constexpr size_t kAttributes = 12;

/// Attribute names longer than the 15-byte small-string buffer, as in
/// real schemas (`horiz_dist_hydrology`), so a parser that copied names
/// into std::strings would allocate for each.
Schema LongNameSchema() {
  std::vector<std::string> names;
  for (size_t i = 0; i < kAttributes; ++i) {
    std::string name = "long_attribute_name_";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return Schema(std::move(names));
}

/// Low-cardinality columns: most 3-6 attribute sets are not keys, so
/// verdicts mix accept and reject.
Dataset MakeTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<Column> columns;
  for (size_t a = 0; a < kAttributes; ++a) {
    uint32_t card = 2 + static_cast<uint32_t>(a % 5) * 3;
    std::vector<ValueCode> codes(rows);
    for (size_t i = 0; i < rows; ++i) {
      codes[i] = static_cast<ValueCode>(rng.Uniform(card));
    }
    columns.emplace_back(std::move(codes), card);
  }
  return Dataset(LongNameSchema(), std::move(columns));
}

/// `count` is-key lines over random 3-6 attribute sets (~2,400 distinct
/// sets, far more than the cache holds).
std::vector<std::string> IsKeyLines(const Schema& schema, size_t count,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> lines;
  for (size_t i = 0; i < count; ++i) {
    AttributeSet set =
        AttributeSet::RandomOfSize(kAttributes, 3 + rng.Uniform(4), &rng);
    std::string line = "is-key ";
    bool first = true;
    for (AttributeIndex a : set.ToIndices()) {
      if (!first) line += ',';
      first = false;
      line += schema.name(a);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

/// Sends `lines[begin, begin + kBatch)` in one burst and appends the
/// `kBatch` response lines to `received`, using only raw syscalls and
/// `received`'s reserved capacity.
bool RoundTripBatch(int fd, const std::string& wire,
                    const std::vector<size_t>& line_end, size_t begin,
                    std::string* received) {
  size_t from = begin == 0 ? 0 : line_end[begin - 1];
  size_t to = line_end[begin + kBatch - 1];
  while (from < to) {
    ssize_t n = ::send(fd, wire.data() + from, to - from, MSG_NOSIGNAL);
    if (n <= 0) return false;
    from += static_cast<size_t>(n);
  }
  size_t newlines = 0;
  char buf[8192];
  while (newlines < kBatch) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    for (ssize_t i = 0; i < n; ++i) newlines += buf[i] == '\n';
    if (received->size() + static_cast<size_t>(n) > received->capacity()) {
      return false;  // would allocate: the expected size was wrong
    }
    received->append(buf, static_cast<size_t>(n));
  }
  return newlines == kBatch;
}

TEST(ServeAllocTest, PipelinedIsKeyStaysUnderTwoAllocationsPerRequest) {
  Dataset data = MakeTable(3000, /*seed=*/5);
  PipelineOptions popts;
  popts.eps = 0.01;
  popts.backend = FilterBackend::kBitset;
  Rng rng(9);
  auto result = DiscoveryPipeline(popts).Run(data, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto snapshot = SnapshotFromPipelineResult(*result, popts.eps);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  SnapshotStore store;
  ASSERT_TRUE(store.Publish(std::move(*snapshot)).ok());

  QueryEngineOptions eopts;
  eopts.cache_capacity = 512;
  ServerOptions sopts;
  sopts.listen = {"127.0.0.1", 0};
  ServeServer server(&store, data.schema(), eopts, sopts);
  ASSERT_TRUE(server.Start().ok());
  // The one connection lands on the first shard loop, whose engine
  // holds the largest share of the capacity.
  const size_t loops = UsableCpuCount();
  const int64_t first_share = static_cast<int64_t>(
      SplitQueryEngineOptions(eopts, loops, 0).cache_capacity);


  const Schema& schema = data.schema();
  constexpr size_t kWarmup = 64 * kBatch;
  constexpr size_t kMeasured = 800 * kBatch;  // 51,200 requests
  std::vector<std::string> lines =
      IsKeyLines(schema, kWarmup + kMeasured, /*seed=*/17);

  // The bytes the server must send: the shared encoder over a separate
  // cache-less engine (the cache can change latency, never answers).
  QueryEngineOptions oracle_opts;
  oracle_opts.cache_capacity = 0;
  QueryEngine oracle(&store, oracle_opts);
  std::vector<QueryRequest> requests;
  for (const std::string& line : lines) {
    auto request = ParseQueryRequest(line, schema);
    ASSERT_TRUE(request.ok()) << line;
    requests.push_back(std::move(*request));
  }
  std::vector<QueryResponse> responses = oracle.ExecuteBatch(requests);
  std::string expected;
  std::string wire;
  std::vector<size_t> line_end;
  for (size_t i = 0; i < lines.size(); ++i) {
    expected += EncodeResponseLine(requests[i], responses[i], schema);
    expected += '\n';
    wire += lines[i];
    wire += '\n';
    line_end.push_back(wire.size());
  }

  auto fd = OpenClientSocket({"127.0.0.1", server.port()}, 10000);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  BlockingLineClient client(std::move(*fd));
  auto greeting = client.RecvLine();
  ASSERT_TRUE(greeting.ok()) << greeting.status().ToString();

  std::string received;
  received.reserve(expected.size());
  for (size_t begin = 0; begin < kWarmup; begin += kBatch) {
    ASSERT_TRUE(RoundTripBatch(client.fd(), wire, line_end, begin, &received));
  }
  ASSERT_EQ(server.metrics()->SnapshotAll().gauges["cache.size"], first_share)
      << "cache not full";

  const uint64_t before = g_allocations.load();
  for (size_t begin = kWarmup; begin < kWarmup + kMeasured; begin += kBatch) {
    ASSERT_TRUE(RoundTripBatch(client.fd(), wire, line_end, begin, &received));
  }
  [[maybe_unused]] const uint64_t allocations = g_allocations.load() - before;

  ASSERT_EQ(received.size(), expected.size());
  EXPECT_TRUE(received == expected) << "server bytes differ from the encoder";
  server.Shutdown();
  server.Join();

#ifdef QIKEY_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "allocation count not measured under a sanitizer allocator";
#else
  const double per_request =
      static_cast<double>(allocations) / static_cast<double>(kMeasured);
  RecordProperty("allocations_per_request", std::to_string(per_request));
  std::printf("allocations per is-key request: %.3f (%llu over %zu)\n",
              per_request, static_cast<unsigned long long>(allocations),
              kMeasured);
  EXPECT_GT(server.metrics()->SnapshotAll().counters["cache.misses"],
            kMeasured / 2)
      << "workload mostly hits";
  EXPECT_LT(per_request, 2.0);
#endif
}

}  // namespace
}  // namespace qikey
