// QSNP1 snapshot artifacts (src/snapfile/): a serve snapshot frozen
// into one mmap-able file must load back as a snapshot that answers
// BIT-IDENTICALLY on the wire — across every filter backend and seed —
// and a corrupted file must come back as a Status, never a crash or a
// wild read.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/bitset_filter.h"
#include "core/tuple_sample_filter.h"
#include "data/csv_loader.h"
#include "data/generators/tabular.h"
#include "data/wire_codec.h"
#include "engine/pipeline.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/request.h"
#include "serve/snapshot.h"
#include "snapfile/format.h"
#include "snapfile/snapfile.h"
#include "util/rng.h"

namespace qikey {
namespace {

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

/// One discovery run frozen into an (unpublished) serve snapshot.
ServeSnapshot BuildPipelineSnapshot(const Dataset& data,
                                    FilterBackend backend, double eps,
                                    uint64_t seed) {
  PipelineOptions options;
  options.eps = eps;
  options.backend = backend;
  Rng rng(seed);
  auto result = DiscoveryPipeline(options).Run(data, &rng);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  auto snapshot = SnapshotFromPipelineResult(*result, eps);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return std::move(*snapshot);
}

/// A deterministic mixed-kind workload over `schema`.
std::vector<QueryRequest> MakeWorkload(const Schema& schema, size_t count,
                                       uint64_t seed) {
  Rng rng(seed);
  size_t m = schema.num_attributes();
  std::vector<QueryRequest> requests;
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
        break;
      }
      default:
        request.kind = QueryKind::kAnonymity;
        request.attrs = AttributeSet::Random(m, 0.3, &rng);
        request.k = 2 + rng.Uniform(3);
        break;
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

/// Publishes `snapshot` into a fresh store and answers `requests`
/// through a QueryEngine, encoding every response with the shared wire
/// encoder. Fresh store => epoch 1 on both sides of a comparison.
std::vector<std::string> WireAnswers(
    ServeSnapshot snapshot, const std::vector<QueryRequest>& requests) {
  const Schema schema = snapshot.schema();
  SnapshotStore store;
  auto epoch = store.Publish(std::move(snapshot));
  EXPECT_TRUE(epoch.ok()) << epoch.status().ToString();
  QueryEngineOptions options;
  options.cache_capacity = 0;  // raw answers, no cache interference
  QueryEngine engine(&store, options);
  std::vector<QueryResponse> responses = engine.ExecuteBatch(requests);
  std::vector<std::string> lines;
  for (size_t i = 0; i < requests.size(); ++i) {
    lines.push_back(EncodeResponseLine(requests[i], responses[i], schema));
  }
  return lines;
}

/// Recomputes the header checksum after a deliberate header/table patch
/// so a test reaches the validation rule behind the checksum.
void RestampHeaderChecksum(std::string* image) {
  uint32_t section_count = 0;
  std::memcpy(&section_count, image->data() + 12, sizeof(section_count));
  size_t table_at = snapfile::kHeaderBytes;
  size_t table_bytes = section_count * snapfile::kSectionEntryBytes;
  uint64_t checksum = Fnv1a64(image->data(), 56);
  checksum = Fnv1a64(image->data() + table_at, table_bytes, checksum);
  std::memcpy(image->data() + 56, &checksum, sizeof(checksum));
}

void PatchU64(std::string* image, size_t at, uint64_t value) {
  std::memcpy(image->data() + at, &value, sizeof(value));
}

uint64_t ReadU64(const std::string& image, size_t at) {
  uint64_t value = 0;
  std::memcpy(&value, image.data() + at, sizeof(value));
  return value;
}

// ------------------------------------------------------------ byte codec

TEST(ByteReaderTest, ZeroLengthReadIntoNullDestination) {
  // Empty vectors hand the reader a null destination; a zero-length
  // read must not reach memcpy (UB), from a non-empty or empty payload.
  ByteReader reader("ab");
  EXPECT_TRUE(reader.Raw(nullptr, 0));
  EXPECT_EQ(reader.pos(), 0u);
  ByteReader empty{std::string_view()};
  EXPECT_TRUE(empty.Raw(nullptr, 0));
  EXPECT_TRUE(empty.AtEnd());
}

// ---------------------------------------------------------- round trip

TEST(SnapfileTest, RoundTripBitIdenticalAcrossBackendsAndSeeds) {
  for (FilterBackend backend :
       {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
    for (uint64_t seed : {3u, 17u}) {
      Dataset data = MakeKeyedData(120, seed);
      ServeSnapshot built =
          BuildPipelineSnapshot(data, backend, 0.01, seed);
      auto image = snapfile::SerializeSnapshot(built);
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      std::vector<QueryRequest> workload =
          MakeWorkload(built.schema(), 60, seed + 100);
      std::vector<std::string> want =
          WireAnswers(std::move(built), workload);
      auto loaded = snapfile::SnapshotFromOwnedBytes(*image);
      ASSERT_TRUE(loaded.ok())
          << static_cast<int>(backend) << ": " << loaded.status().ToString();
      std::vector<std::string> got = WireAnswers(std::move(*loaded), workload);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << "backend " << static_cast<int>(backend) << " seed " << seed
            << " line " << i;
      }
    }
  }
}

TEST(SnapfileTest, FileRoundTripServesIdentically) {
  const std::string path = "/tmp/qikey_snapfile_roundtrip.qsnp";
  Dataset data = MakeKeyedData(150, 5);
  for (FilterBackend backend :
       {FilterBackend::kTupleSample, FilterBackend::kBitset}) {
    ServeSnapshot built = BuildPipelineSnapshot(data, backend, 0.01, 9);
    std::vector<QueryRequest> workload =
        MakeWorkload(built.schema(), 40, 77);
    ASSERT_TRUE(snapfile::WriteSnapshotFile(built, path).ok());
    std::vector<std::string> want =
        WireAnswers(std::move(built), workload);
    auto loaded = snapfile::ReadSnapshotFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(WireAnswers(std::move(*loaded), workload), want);
  }
  std::remove(path.c_str());
}

TEST(SnapfileTest, LoadedSnapshotOutlivesTheSourceBytes) {
  Dataset data = MakeKeyedData(80, 2);
  ServeSnapshot built =
      BuildPipelineSnapshot(data, FilterBackend::kBitset, 0.01, 2);
  auto image = snapfile::SerializeSnapshot(built);
  ASSERT_TRUE(image.ok());
  auto loaded = snapfile::SnapshotFromOwnedBytes(*image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The load copied into its own aligned buffer: clobbering (and
  // freeing) the input image must not change a single answer.
  std::vector<QueryRequest> workload = MakeWorkload(built.schema(), 30, 8);
  std::vector<std::string> want = WireAnswers(*loaded, workload);
  std::fill(image->begin(), image->end(), '\xff');
  image->clear();
  image->shrink_to_fit();
  // Copies of the components keep the backing buffer alive on their
  // own; dropping the originals must not invalidate them.
  ServeSnapshot copy = *loaded;
  *loaded = ServeSnapshot{};
  EXPECT_EQ(WireAnswers(std::move(copy), workload), want);
}

// --------------------------------------------- tuple sample ownership

TEST(SnapfileTest, TupleFilterSharingTheSampleRoundTripsShared) {
  Dataset data = MakeKeyedData(90, 4);
  ServeSnapshot built =
      BuildPipelineSnapshot(data, FilterBackend::kTupleSample, 0.01, 4);
  const auto* tuple =
      dynamic_cast<const TupleSampleFilter*>(built.filter.get());
  ASSERT_NE(tuple, nullptr);
  ASSERT_EQ(tuple->shared_sample().get(), built.sample.get())
      << "pipeline tuple snapshots share the greedy sample";

  const std::string path = "/tmp/qikey_snapfile_shared.qsnp";
  ASSERT_TRUE(snapfile::WriteSnapshotFile(built, path).ok());
  auto info = snapfile::InspectSnapshotFile(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->header.flags & snapfile::kFlagFilterSharesSample,
            snapfile::kFlagFilterSharesSample);

  auto loaded = snapfile::ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto* loaded_tuple =
      dynamic_cast<const TupleSampleFilter*>(loaded->filter.get());
  ASSERT_NE(loaded_tuple, nullptr);
  // Sharing survives the file: one table, viewed zero-copy by both.
  EXPECT_EQ(loaded_tuple->shared_sample().get(), loaded->sample.get());
  EXPECT_EQ(loaded_tuple->provenance(), tuple->provenance());
  std::remove(path.c_str());
}

TEST(SnapfileTest, TupleFilterWithPrivateSampleRoundTrips) {
  // A filter whose sample diverges from the snapshot's evaluation
  // sample (the monitor-freeze shape): carried as a nested blob.
  Dataset data = MakeKeyedData(100, 6);
  Rng rng(6);
  TupleSampleFilterOptions options;
  options.eps = 0.01;
  options.sample_size = 24;
  auto filter = TupleSampleFilter::Build(data, options, &rng);
  ASSERT_TRUE(filter.ok());

  ServeSnapshot built;
  built.eps = 0.01;
  built.source_rows = data.num_rows();
  built.sample = std::make_shared<const Dataset>(MakeKeyedData(100, 6));
  built.filter =
      std::make_shared<const TupleSampleFilter>(std::move(*filter));
  built.keys = std::make_shared<const std::vector<AttributeSet>>();

  const std::string path = "/tmp/qikey_snapfile_private.qsnp";
  ASSERT_TRUE(snapfile::WriteSnapshotFile(built, path).ok());
  auto info = snapfile::InspectSnapshotFile(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->header.flags & snapfile::kFlagFilterSharesSample, 0u);
  bool has_blob = false;
  for (const auto& section : info->sections) {
    if (section.id ==
        static_cast<uint32_t>(snapfile::SectionId::kFilterSampleBlob)) {
      has_blob = true;
    }
  }
  EXPECT_TRUE(has_blob);

  auto loaded = snapfile::ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::vector<QueryRequest> workload = MakeWorkload(built.schema(), 30, 99);
  EXPECT_EQ(WireAnswers(std::move(*loaded), workload),
            WireAnswers(std::move(built), workload));
  std::remove(path.c_str());
}

TEST(SnapfileTest, EmptyKeyListRoundTrips) {
  Dataset data = MakeKeyedData(60, 3);
  ServeSnapshot built =
      BuildPipelineSnapshot(data, FilterBackend::kTupleSample, 0.01, 3);
  built.keys = std::make_shared<const std::vector<AttributeSet>>();
  auto image = snapfile::SerializeSnapshot(built);
  ASSERT_TRUE(image.ok());
  auto loaded = snapfile::SnapshotFromOwnedBytes(*image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->keys->empty());
}

TEST(SnapfileTest, SerializeRejectsIncompleteSnapshots) {
  auto image = snapfile::SerializeSnapshot(ServeSnapshot{});
  EXPECT_FALSE(image.ok());
}

// ----------------------------------------------------------- inspect

TEST(SnapfileTest, InspectRendersSortedKeyJson) {
  Dataset data = MakeKeyedData(70, 8);
  ServeSnapshot built =
      BuildPipelineSnapshot(data, FilterBackend::kBitset, 0.01, 8);
  const std::string path = "/tmp/qikey_snapfile_inspect.qsnp";
  ASSERT_TRUE(snapfile::WriteSnapshotFile(built, path).ok());
  auto info = snapfile::InspectSnapshotFile(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->header.version, snapfile::kFormatVersion);
  EXPECT_EQ(info->header.backend, 2);
  EXPECT_EQ(info->header.source_rows, 70u);
  EXPECT_EQ(info->header.section_count, info->sections.size());

  // The served evidence is the minimal-mask antichain: fewer pairs
  // than the sample drew, which is the declared count.
  const auto* bitset =
      dynamic_cast<const BitsetSeparationFilter*>(built.filter.get());
  ASSERT_NE(bitset, nullptr);
  EXPECT_EQ(info->evidence_pairs, bitset->evidence().num_pairs());
  EXPECT_EQ(info->source_pairs, info->header.declared_sample_size);
  EXPECT_LT(info->evidence_pairs, info->source_pairs);

  std::string json = snapfile::RenderSnapshotInfoJson(*info);
  EXPECT_EQ(json.rfind("{\"backend\":\"bitset\"", 0), 0u) << json;
  for (const std::string& field :
       {std::string("\"declared_sample_size\":"), std::string("\"eps\":"),
        std::string("\"file_bytes\":"), std::string("\"header_checksum\":\"0x"),
        std::string("\"sections\":["), std::string("\"source_rows\":70"),
        std::string("\"version\":1"), std::string("\"name\":\"meta\""),
        std::string("\"name\":\"evidence_words\""),
        ",\"evidence_pairs\":" + std::to_string(info->evidence_pairs) +
            ",\"file_bytes\":",
        "],\"source_pairs\":" + std::to_string(info->source_pairs) +
            ",\"source_rows\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << "\n" << json;
  }
  EXPECT_FALSE(snapfile::InspectSnapshotFile("/nonexistent.qsnp").ok());
  std::remove(path.c_str());
}

// ------------------------------------------------- legacy mx images

/// A QSNP1 image saved by `qikey snapshot save tests/golden/people.csv
/// --backend mx --seed 1 --eps 0.01` while the mx-pair backend existed:
/// header backend byte 1 and a raw pair-code section.
std::string LegacyMxImagePath() {
  return std::string(QIKEY_GOLDEN_DIR) + "/people_mx.qsnp";
}

std::vector<std::string> ReadLines(const std::string& path) {
  auto text = ReadFileBytes(path);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  std::vector<std::string> lines;
  size_t at = 0;
  while (text.ok() && at < text->size()) {
    size_t end = text->find('\n', at);
    if (end == std::string::npos) end = text->size();
    lines.push_back(text->substr(at, end - at));
    at = end + 1;
  }
  return lines;
}

TEST(SnapfileLegacyTest, MxPairImageServesTheRecordedWireAnswers) {
  // The answers were recorded (`qikey query --wire --backend mx`, same
  // CSV, seed and eps) while the mx-pair backend still served them.
  // The image now loads as a bitset filter over its stored pair table
  // and must answer byte-identically — as must the bitset image it
  // re-saves as.
  const std::string dir = QIKEY_GOLDEN_DIR;
  const std::vector<std::string> want =
      ReadLines(dir + "/people_mx_answers.txt");
  auto legacy = snapfile::ReadSnapshotFile(LegacyMxImagePath());
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_NE(dynamic_cast<const BitsetSeparationFilter*>(legacy->filter.get()),
            nullptr);
  EXPECT_EQ(legacy->filter->sample_size(), 400u);
  auto requests = LoadQueryRequestFile(dir + "/people_mx_requests.txt",
                                       legacy->schema());
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  auto resaved_image = snapfile::SerializeSnapshot(*legacy);
  ASSERT_TRUE(resaved_image.ok()) << resaved_image.status().ToString();
  EXPECT_EQ(WireAnswers(*legacy, *requests), want);
  auto resaved = snapfile::SnapshotFromOwnedBytes(*resaved_image);
  ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
  EXPECT_EQ(WireAnswers(std::move(*resaved), *requests), want);
}

TEST(SnapfileLegacyTest, InspectStillReportsTheMxHeaderByte) {
  auto info = snapfile::InspectSnapshotFile(LegacyMxImagePath());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->header.backend, 1);
  std::string json = snapfile::RenderSnapshotInfoJson(*info);
  EXPECT_EQ(json.rfind("{\"backend\":\"mx\"", 0), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"pair_codes\""), std::string::npos)
      << json;
  // Evidence counts are a bitset-image field.
  EXPECT_EQ(json.find("evidence_pairs"), std::string::npos) << json;
  EXPECT_EQ(json.find("source_pairs"), std::string::npos) << json;
}

// ------------------------------------------------ served antichain

// An oracle for the served is-key path that does not go through a
// served snapshot: qbench's expected answers come from `qikey query`,
// which answers from the same reduced snapshot it checks.
TEST(SnapfileAntichainTest, ServedFilterAnswersAsTheDiscoveryFilter) {
  Rng data_rng(17);
  TabularSpec spec = CovtypeLikeSpec();
  spec.num_rows = 12000;
  const Dataset data = MakeTabular(spec, &data_rng);
  const size_t m = data.num_attributes();
  ASSERT_GE(m, 40u);
  PipelineOptions options;
  options.eps = 0.001;
  options.backend = FilterBackend::kBitset;
  Rng rng(1);
  auto result = DiscoveryPipeline(options).Run(data, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto served = SnapshotFromPipelineResult(*result, options.eps);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const auto* full =
      dynamic_cast<const BitsetSeparationFilter*>(result->filter.get());
  const auto* minimal =
      dynamic_cast<const BitsetSeparationFilter*>(served->filter.get());
  ASSERT_NE(full, nullptr);
  ASSERT_NE(minimal, nullptr);
  EXPECT_EQ(minimal->sample_size(), full->sample_size());
  EXPECT_LT(minimal->evidence().num_pairs(), full->evidence().num_pairs());

  // 10,000 random 2- to 8-attribute sets, both verdicts represented.
  Rng qrng(5);
  std::vector<AttributeSet> sets;
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 10000; ++i) {
    sets.push_back(AttributeSet::RandomOfSize(m, 2 + qrng.Uniform(7), &qrng));
    QueryRequest request;
    request.kind = QueryKind::kIsKey;
    request.attrs = sets.back();
    requests.push_back(std::move(request));
  }
  const std::vector<FilterVerdict> want = full->QueryBatch(sets);
  EXPECT_EQ(minimal->QueryBatch(sets), want);
  EXPECT_GT(std::count(want.begin(), want.end(), FilterVerdict::kAccept), 0);
  EXPECT_GT(std::count(want.begin(), want.end(), FilterVerdict::kReject), 0);

  // The largest sets each sampled mask rejects: its complement. The
  // served filter must reject every one through a minimal mask inside
  // it, so a dropped minimal mask shows here.
  const PackedEvidence& evidence = full->evidence();
  const std::span<const uint64_t> words = evidence.raw_words();
  std::vector<AttributeSet> complements;
  for (size_t p = 0; p < evidence.num_pairs(); ++p) {
    AttributeSet complement(m);
    for (size_t j = 0; j < m; ++j) {
      if (((words[(p / 64) * m + j] >> (p % 64)) & 1) == 0) {
        complement.Add(static_cast<AttributeIndex>(j));
      }
    }
    complements.push_back(std::move(complement));
  }
  EXPECT_EQ(minimal->QueryBatch(complements),
            std::vector<FilterVerdict>(complements.size(),
                                       FilterVerdict::kReject));

  // An image as saved before served snapshots were reduced: the full
  // evidence under the same declared pair count. It still loads and
  // answers byte for byte as the reduced image does.
  auto unreduced = BitsetSeparationFilter::FromPackedEvidence(
      full->evidence(), full->sample_size());
  ASSERT_TRUE(unreduced.ok()) << unreduced.status().ToString();
  ServeSnapshot legacy = *served;
  legacy.filter =
      std::make_shared<const BitsetSeparationFilter>(std::move(*unreduced));
  const std::string legacy_path = "/tmp/qikey_snapfile_full_evidence.qsnp";
  const std::string served_path = "/tmp/qikey_snapfile_antichain.qsnp";
  ASSERT_TRUE(snapfile::WriteSnapshotFile(legacy, legacy_path).ok());
  ASSERT_TRUE(snapfile::WriteSnapshotFile(*served, served_path).ok());
  auto legacy_info = snapfile::InspectSnapshotFile(legacy_path);
  ASSERT_TRUE(legacy_info.ok()) << legacy_info.status().ToString();
  EXPECT_EQ(legacy_info->evidence_pairs, full->evidence().num_pairs());
  auto legacy_loaded = snapfile::ReadSnapshotFile(legacy_path);
  auto served_loaded = snapfile::ReadSnapshotFile(served_path);
  ASSERT_TRUE(legacy_loaded.ok()) << legacy_loaded.status().ToString();
  ASSERT_TRUE(served_loaded.ok()) << served_loaded.status().ToString();
  EXPECT_EQ(legacy_loaded->filter->QueryBatch(sets), want);
  EXPECT_EQ(served_loaded->filter->QueryBatch(sets), want);
  EXPECT_EQ(WireAnswers(std::move(*legacy_loaded), requests),
            WireAnswers(std::move(*served_loaded), requests));
  std::remove(legacy_path.c_str());
  std::remove(served_path.c_str());
}

// --------------------------------------------------------- corruption

/// The base image every corruption case below mutates.
std::string ValidImage(FilterBackend backend = FilterBackend::kBitset) {
  Dataset data = MakeKeyedData(64, 12);
  ServeSnapshot built = BuildPipelineSnapshot(data, backend, 0.01, 12);
  auto image = snapfile::SerializeSnapshot(built);
  EXPECT_TRUE(image.ok());
  return *image;
}

TEST(SnapfileTest, RejectsTruncationAtEveryPrefix) {
  std::string image = ValidImage();
  // Every header-sized prefix, then coarse steps through the body.
  for (size_t n = 0; n <= 2 * snapfile::kHeaderBytes; ++n) {
    EXPECT_FALSE(
        snapfile::SnapshotFromOwnedBytes({image.data(), n}).ok()) << n;
  }
  for (size_t n = 2 * snapfile::kHeaderBytes; n < image.size(); n += 37) {
    EXPECT_FALSE(
        snapfile::SnapshotFromOwnedBytes({image.data(), n}).ok()) << n;
  }
}

TEST(SnapfileTest, RejectsBadMagicAndVersionAcceptsRecordedEpoch) {
  std::string image = ValidImage();
  std::string bad = image;
  bad[0] = 'X';
  EXPECT_FALSE(snapfile::SnapshotFromOwnedBytes(bad).ok());

  bad = image;
  bad[8] = 9;  // version
  RestampHeaderChecksum(&bad);
  auto status = snapfile::SnapshotFromOwnedBytes(bad).status();
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.ToString();

  // Byte 52 is the recorded store epoch (formerly reserved-must-be-
  // zero): a nonzero value is data, not corruption, and rides back on
  // the restored snapshot.
  bad = image;
  bad[52] = 7;
  RestampHeaderChecksum(&bad);
  auto restored = snapfile::SnapshotFromOwnedBytes(bad);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->epoch, 7u);

  bad = image;
  bad[48] = 7;  // unknown backend
  RestampHeaderChecksum(&bad);
  EXPECT_FALSE(snapfile::SnapshotFromOwnedBytes(bad).ok());
}

TEST(SnapfileTest, RejectsHeaderAndSectionChecksumMismatch) {
  std::string image = ValidImage();
  std::string bad = image;
  bad[16] ^= 0x40;  // eps bits; checksum not restamped
  auto status = snapfile::SnapshotFromOwnedBytes(bad).status();
  EXPECT_NE(status.message().find("checksum"), std::string::npos)
      << status.ToString();

  // One flipped byte inside each section must trip that section's
  // checksum (padding bytes between sections are not covered, so walk
  // the table rather than flipping blindly).
  uint32_t section_count = 0;
  std::memcpy(&section_count, image.data() + 12, sizeof(section_count));
  for (uint32_t i = 0; i < section_count; ++i) {
    size_t entry = snapfile::kHeaderBytes + i * snapfile::kSectionEntryBytes;
    uint64_t offset = ReadU64(image, entry + 8);
    uint64_t bytes = ReadU64(image, entry + 16);
    if (bytes == 0) continue;
    bad = image;
    bad[offset + bytes / 2] ^= 0x01;
    status = snapfile::SnapshotFromOwnedBytes(bad).status();
    EXPECT_FALSE(status.ok()) << "section " << i;
    EXPECT_NE(status.message().find("checksum"), std::string::npos)
        << "section " << i << ": " << status.ToString();
  }
}

TEST(SnapfileTest, RejectsMisalignedOverlappingAndOutOfBoundsSections) {
  std::string image = ValidImage();
  size_t entry0 = snapfile::kHeaderBytes;
  size_t entry1 = entry0 + snapfile::kSectionEntryBytes;

  // Misaligned offset (stays inside the file, but off the 64 grid).
  std::string bad = image;
  PatchU64(&bad, entry0 + 8, ReadU64(bad, entry0 + 8) + 8);
  RestampHeaderChecksum(&bad);
  auto status = snapfile::SnapshotFromOwnedBytes(bad).status();
  EXPECT_NE(status.message().find("align"), std::string::npos)
      << status.ToString();

  // Two sections at the same offset.
  bad = image;
  PatchU64(&bad, entry1 + 8, ReadU64(bad, entry0 + 8));
  PatchU64(&bad, entry1 + 16, ReadU64(bad, entry0 + 16));
  PatchU64(&bad, entry1 + 24, ReadU64(bad, entry0 + 24));
  RestampHeaderChecksum(&bad);
  EXPECT_FALSE(snapfile::SnapshotFromOwnedBytes(bad).ok());

  // Section length running past the end of the file — including the
  // offset+bytes overflow shape.
  for (uint64_t length : {uint64_t{1} << 40, ~uint64_t{0} - 32}) {
    bad = image;
    PatchU64(&bad, entry0 + 16, length);
    RestampHeaderChecksum(&bad);
    EXPECT_FALSE(snapfile::SnapshotFromOwnedBytes(bad).ok());
  }

  // file_bytes disagreeing with the actual size.
  bad = image;
  PatchU64(&bad, 40, image.size() + 64);
  RestampHeaderChecksum(&bad);
  EXPECT_FALSE(snapfile::SnapshotFromOwnedBytes(bad).ok());
}

TEST(SnapfileTest, RejectsDuplicateDictionaryEntry) {
  // A dictionary-encoded sample column whose two values differ in their
  // last byte; rewriting one into the other (with valid checksums) must
  // surface as a clean error from the dictionary rebuild, not a crash or
  // a silently merged code.
  std::string csv = "id,tag\n";
  for (int i = 0; i < 64; ++i) {
    csv += std::to_string(i) + (i % 2 == 0 ? ",tagvalA\n" : ",tagvalB\n");
  }
  auto data = LoadCsvDatasetFromString(csv);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ServeSnapshot built =
      BuildPipelineSnapshot(*data, FilterBackend::kBitset, 0.01, 3);
  auto image = snapfile::SerializeSnapshot(built);
  ASSERT_TRUE(image.ok());
  std::string bad = *image;
  size_t at = bad.find("tagvalB");
  ASSERT_NE(at, std::string::npos);
  bad[at + 6] = 'A';
  uint32_t section_count = 0;
  std::memcpy(&section_count, bad.data() + 12, sizeof(section_count));
  for (uint32_t i = 0; i < section_count; ++i) {
    size_t entry = snapfile::kHeaderBytes + i * snapfile::kSectionEntryBytes;
    uint64_t offset = ReadU64(bad, entry + 8);
    uint64_t bytes = ReadU64(bad, entry + 16);
    if (at >= offset && at < offset + bytes) {
      PatchU64(&bad, entry + 24, Fnv1a64(bad.data() + offset, bytes));
    }
  }
  RestampHeaderChecksum(&bad);
  auto status = snapfile::SnapshotFromOwnedBytes(bad).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("duplicate"), std::string::npos)
      << status.ToString();
}

TEST(SnapfileTest, SurvivesRandomByteFlipsOnEveryBackend) {
  auto legacy = ReadFileBytes(LegacyMxImagePath());
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  for (const std::string& image :
       {ValidImage(FilterBackend::kTupleSample),
        ValidImage(FilterBackend::kBitset), *legacy}) {
    Rng rng(31);
    for (int t = 0; t < 300; ++t) {
      std::string mutated = image;
      size_t at = static_cast<size_t>(rng.Uniform(mutated.size()));
      mutated[at] = static_cast<char>(rng.Uniform(256));
      auto loaded = snapfile::SnapshotFromOwnedBytes(mutated);
      if (loaded.ok()) {
        // Flips in inter-section padding load fine; the snapshot must
        // then actually work.
        AttributeSet all(loaded->schema().num_attributes());
        for (size_t j = 0; j < loaded->schema().num_attributes(); ++j) {
          all.Add(static_cast<AttributeIndex>(j));
        }
        (void)loaded->filter->Query(all);
      }
    }
  }
}

TEST(SnapfileTest, PublishRestoredSnapshotResumesEpochAndCountsPublishes) {
  Dataset data = MakeKeyedData(64, 9);
  ServeSnapshot built =
      BuildPipelineSnapshot(data, FilterBackend::kBitset, 0.01, 5);
  // Advance a store past epoch 1, then save its current snapshot so
  // the file records a nonzero epoch.
  SnapshotStore first;
  ASSERT_TRUE(first.Publish(built).ok());
  auto saved_epoch = first.Publish(built);
  ASSERT_TRUE(saved_epoch.ok()) << saved_epoch.status().ToString();
  ASSERT_EQ(*saved_epoch, 2u);
  auto image = snapfile::SerializeSnapshot(*first.Current());
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  auto restored = snapfile::SnapshotFromOwnedBytes(*image);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->epoch, 2u);

  // A fresh store resumes the file's epoch sequence but counts only
  // its own publishes — the regression was reporting `epoch` as the
  // publish count, claiming work a previous incarnation did.
  SnapshotStore store;
  auto resumed = store.Publish(std::move(*restored));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(*resumed, 2u);
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(store.publishes(), 1u);

  auto next = store.Publish(built);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, 3u);
  EXPECT_EQ(store.publishes(), 2u);
}

TEST(SnapfileTest, ReadSnapshotFileRejectsMissingAndEmptyFiles) {
  EXPECT_FALSE(snapfile::ReadSnapshotFile("/nonexistent.qsnp").ok());
  const std::string path = "/tmp/qikey_snapfile_empty.qsnp";
  std::fclose(std::fopen(path.c_str(), "wb"));
  EXPECT_FALSE(snapfile::ReadSnapshotFile(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qikey
