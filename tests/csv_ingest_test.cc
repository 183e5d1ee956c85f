// Differential tests of the CSV ingest against the reference
// materialize-then-encode path in csv_oracle.h: every loader, at every
// chunk count of the chunked loader, must yield a bit-identical dataset
// (names, codes, cardinalities, dictionary order) or the identical
// error.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/key_enumeration.h"
#include "csv_oracle.h"
#include "csv_test_inputs.h"
#include "data/csv_loader.h"
#include "data/csv_loader_internal.h"
#include "data/generators/tabular.h"
#include "engine/pipeline.h"
#include "shard/shard_builder.h"
#include "shard/sharded_loader.h"
#include "util/csv.h"
#include "util/mapped_file.h"
#include "util/rng.h"

namespace qikey {
namespace {

std::string WriteTemp(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + "qikey_csv_ingest_" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

std::string DescribeTable(const Result<CsvTable>& table) {
  if (!table.ok()) return "error: " + table.status().ToString();
  std::ostringstream out;
  auto row = [&](const std::vector<std::string>& fields) {
    for (const std::string& f : fields) out << f.size() << ":" << f << "|";
    out << "\n";
  };
  row(table->header);
  for (const auto& r : table->rows) row(r);
  return out.str();
}

/// Chunk counts forced on the chunked loader: one chunk, a few, a
/// count that leaves uneven chunks, and more chunks than most inputs
/// have records.
constexpr size_t kChunkCounts[] = {1, 2, 3, 4, 7, 64};

/// The chunked loader at every forced chunk count describes `text` as
/// `expected`.
void ExpectEveryChunkCountGives(const std::string& text,
                                const CsvOptions& options,
                                const std::string& expected) {
  for (size_t chunks : kChunkCounts) {
    EXPECT_EQ(csv_oracle::Describe(
                  internal::LoadCsvDatasetInChunks(text, options, chunks)),
              expected)
        << chunks << " chunks";
  }
}

/// Every in-memory and file load path agrees with the oracle on `text`.
void ExpectMatchesOracle(const std::string& text,
                         const CsvOptions& options = {}) {
  SCOPED_TRACE(::testing::Message() << "input: [" << text.substr(0, 200)
                                    << "] delimiter '" << options.delimiter
                                    << "' header " << options.has_header);
  std::string expected = csv_oracle::Describe(csv_oracle::Load(text, options));
  EXPECT_EQ(csv_oracle::Describe(LoadCsvDatasetFromString(text, options)),
            expected);
  ExpectEveryChunkCountGives(text, options, expected);
  EXPECT_EQ(csv_oracle::Describe(LoadCsvDataset(WriteTemp("case.csv", text),
                                                options)),
            expected);
  EXPECT_EQ(DescribeTable(ParseCsv(text, options)),
            DescribeTable(csv_oracle::Parse(text, options)));
}

/// The fields `ForEachCsvRecordInRange` reports over every range of a
/// `shards`-way plan, in file order.
std::vector<std::vector<std::string>> RangeRows(const std::string& path,
                                                size_t shards,
                                                const CsvOptions& options) {
  std::vector<std::vector<std::string>> rows;
  Result<FileText> text = FileText::Open(path);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  if (!text.ok()) return rows;
  Result<CsvShardPlan> plan = PlanCsvShards(text->view(), shards, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return rows;
  CsvFieldSplitter splitter(options);
  for (const ShardRange& range : plan->ranges) {
    Status st = ForEachCsvRecordInRange(
        text->view(), range, options, [&](std::string_view record) {
          std::span<const std::string_view> fields = splitter.Split(record);
          rows.emplace_back(fields.begin(), fields.end());
          return Status::OK();
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return rows;
}

/// The tuple sample the streaming shard builder draws from `path` under a
/// target of `rows` — at least the row count, so it keeps every record
/// in file order — described as `csv_oracle::Describe` describes a load.
std::string StreamedSample(const std::string& path, uint64_t rows) {
  ShardedBuildOptions options;
  options.tuple_sample_size = rows;
  Result<ShardFilterArtifact> artifact = StreamCsvShardArtifact(path, options);
  if (!artifact.ok()) return "error: " + artifact.status().ToString();
  return csv_oracle::Fingerprint(artifact->tuple_sample);
}

// ------------------------------------------------------------- quoting

TEST(CsvIngestTest, QuotedDelimitersNewlinesAndDoubledQuotes) {
  ExpectMatchesOracle(
      "name,notes,code\n"
      "alice,\"line one\nline two\",7\n"
      "bob,\"comma, inside\",8\n"
      "dave,\"quoted \"\"word\"\"\",10\n"
      "\"\",\"\"\"\",\"\"\"\"\"\"\n"
      "ab\"cd\",\"x\"y, \"padded\" \n"
      "\"multi\n\nblank\",\"\n\",end\n");
}

TEST(CsvIngestTest, CrlfLineEndings) {
  ExpectMatchesOracle("a,b\r\n1,2\r\n\"x\r\ny\",3\r\n\r\n4,\"5\"\r\n6,7\r");
  CsvOptions untrimmed;
  untrimmed.trim_whitespace = false;
  ExpectMatchesOracle("a,b\r\n1 ,2\r\n\"q\"\r\r\n 3,\t4\r\n", untrimmed);
}

TEST(CsvIngestTest, UnterminatedQuoteRunsToEndOfInput) {
  ExpectMatchesOracle("a,b\n1,\"open\n2,3\n");
  ExpectMatchesOracle("a\n\"open\n\n");
}

// ------------------------------------------------------ blank records

TEST(CsvIngestTest, BlankAndWhitespaceOnlyRecordsAreSkipped) {
  ExpectMatchesOracle("h1,h2\n\n   \n\t\r\n1,2\n \n3,4\n\n");
}

TEST(CsvIngestTest, FieldCountErrorCountsBlankRecords) {
  const std::string text = "h1,h2\n\n  \n1,2\n\n3\n";
  ExpectMatchesOracle(text);
  Result<Dataset> loaded = LoadCsvDatasetFromString(text);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loaded.status().message(), "CSV record 6 has 1 fields, expected 2");
}

// ------------------------------------------------ header and file edges

TEST(CsvIngestTest, HeaderlessHeaderOnlyAndEmptyInputs) {
  CsvOptions headerless;
  headerless.has_header = false;
  for (const CsvOptions& options : {CsvOptions{}, headerless}) {
    ExpectMatchesOracle("1,2\n3,4\n", options);
    ExpectMatchesOracle("a,b,c\n", options);
    ExpectMatchesOracle("a,b,c", options);
    ExpectMatchesOracle("", options);
    ExpectMatchesOracle("\n\n  \n", options);
    ExpectMatchesOracle("a,b\n1,2\n3,4", options);
    ExpectMatchesOracle("a,b\n1,2\n3", options);
  }
}

TEST(CsvIngestTest, SpaceAndTabDelimitersWithTrimming) {
  CsvOptions space;
  space.delimiter = ' ';
  ExpectMatchesOracle("a b c\n1 2 3\n\"x y\" z w\n", space);
  ExpectMatchesOracle("a b\n1  2\n", space);  // an empty middle field
  ExpectMatchesOracle("a b\n   \n1 2\n", space);  // spaces are not blank
  CsvOptions tab;
  tab.delimiter = '\t';
  ExpectMatchesOracle("x\ty\n 1\t2 \n\t\n\"a\tb\"\t c\n", tab);
  tab.trim_whitespace = false;
  ExpectMatchesOracle("x\ty\n 1\t2 \n", tab);
}

TEST(CsvIngestTest, RandomInputsMatchOracle) {
  // Short texts over the bytes that matter to the format, under each
  // option family the fuzz target uses plus the whitespace delimiters.
  const std::string alphabet = "ab,;\"\n\r \t";
  CsvOptions semicolon;
  semicolon.delimiter = ';';
  semicolon.has_header = false;
  CsvOptions space;
  space.delimiter = ' ';
  CsvOptions untrimmed;
  untrimmed.trim_whitespace = false;
  Rng rng(2024);
  for (int trial = 0; trial < 1500; ++trial) {
    std::string text;
    size_t length = rng.Uniform(40);
    for (size_t i = 0; i < length; ++i) {
      text.push_back(alphabet[rng.Uniform(alphabet.size())]);
    }
    for (const CsvOptions& options :
         {CsvOptions{}, semicolon, space, untrimmed}) {
      std::string expected =
          csv_oracle::Describe(csv_oracle::Load(text, options));
      ASSERT_EQ(csv_oracle::Describe(LoadCsvDatasetFromString(text, options)),
                expected)
          << "input: [" << text << "]";
      for (size_t chunks : kChunkCounts) {
        ASSERT_EQ(csv_oracle::Describe(internal::LoadCsvDatasetInChunks(
                      text, options, chunks)),
                  expected)
            << "input: [" << text << "] " << chunks << " chunks";
      }
    }
  }
}

// --------------------------------------------------------- chunk edges
//
// ExpectMatchesOracle runs every case at every chunk count. These inputs
// make every data record special, so each chunk edge lands next to one
// whatever the chunk count.

TEST(CsvIngestTest, QuotedNewlinesAndCrlfAtEveryChunkEdge) {
  std::ostringstream text;
  text << "id,note,code\r\n";
  for (int i = 0; i < 24; ++i) {
    text << i << ",";
    if (i % 2 == 0) {
      text << "\"line\r\n" << i % 5 << "\"";
    } else {
      text << "plain" << i % 3;
    }
    text << "," << i % 4 << "\r\n";
  }
  ExpectMatchesOracle(text.str());
}

TEST(CsvIngestTest, BlankRecordsAtEveryChunkEdge) {
  std::ostringstream text;
  text << "a,b\n";
  for (int i = 0; i < 20; ++i) {
    text << "\n  \n\t\r\n" << i % 3 << "," << i << "\n";
  }
  text << "\n \n";
  ExpectMatchesOracle(text.str());
  CsvOptions headerless;
  headerless.has_header = false;
  ExpectMatchesOracle(text.str(), headerless);
}

TEST(CsvIngestTest, ValueFirstSeenInTheLastChunk) {
  // Column `w` meets its values in the opposite order after the first
  // half, so later chunks need a real remap; `v` meets "late" only in
  // the final record.
  std::ostringstream text;
  text << "v,w\n";
  for (int i = 0; i < 30; ++i) {
    bool flip = i >= 15;
    text << (i % 2 == 0 ? "x" : "y") << ","
         << ((i % 2 == 0) != flip ? "p" : "q") << "\n";
  }
  text << "late,q\n";
  ExpectMatchesOracle(text.str());
  for (size_t chunks : kChunkCounts) {
    Result<Dataset> loaded =
        internal::LoadCsvDatasetInChunks(text.str(), CsvOptions{}, chunks);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const Column& v = loaded->column(0);
    ASSERT_EQ(v.dictionary()->size(), 3u);
    EXPECT_EQ(v.dictionary()->Value(2), "late");
    EXPECT_EQ(v.code(30), 2u) << chunks << " chunks";
  }
}

TEST(CsvIngestTest, ArityErrorIsTheFirstInFileOrderAtEveryChunkCount) {
  std::ostringstream rows;
  for (int i = 0; i < 20; ++i) rows << i << "," << i % 7 << "\n";
  // In the last chunk, after blank records: header + 20 rows + 2 blanks.
  const std::string last = "h1,h2\n" + rows.str() + "\n \n1,2,3\n";
  ExpectMatchesOracle(last);
  // Two bad records in different chunks: the earlier one is named.
  const std::string two =
      "h1,h2\n" + rows.str() + "\nonly\n" + rows.str() + "1,2,3\n";
  ExpectMatchesOracle(two);
  for (size_t chunks : kChunkCounts) {
    Result<Dataset> loaded =
        internal::LoadCsvDatasetInChunks(last, CsvOptions{}, chunks);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().message(),
              "CSV record 24 has 3 fields, expected 2")
        << chunks << " chunks";
    loaded = internal::LoadCsvDatasetInChunks(two, CsvOptions{}, chunks);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().message(),
              "CSV record 23 has 1 fields, expected 2")
        << chunks << " chunks";
  }
}

TEST(CsvIngestTest, LargeTableLoadsAndDiscoversAlikeAtEveryChunkCount) {
  // Big enough that the default chunk count uses several threads.
  TabularSpec spec = AdultLikeSpec();
  spec.num_rows = 100000;
  Rng rng(5);
  std::string path = ::testing::TempDir() + "qikey_csv_ingest_large.csv";
  ASSERT_TRUE(SaveCsvDataset(MakeTabular(spec, &rng), path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  Result<Dataset> serial =
      internal::LoadCsvDatasetInChunks(text.str(), CsvOptions{}, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->num_rows(), 100000u);
  const std::string expected = csv_oracle::Fingerprint(*serial);
  PipelineOptions options;
  options.eps = 0.001;
  DiscoveryPipeline pipeline(options);
  for (const Result<Dataset>& loaded :
       {LoadCsvDataset(path),
        internal::LoadCsvDatasetInChunks(text.str(), CsvOptions{}, 4)}) {
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(csv_oracle::Fingerprint(*loaded), expected);
    for (uint64_t seed : {1, 2, 3}) {
      Rng serial_rng(seed);
      Rng loaded_rng(seed);
      Result<PipelineResult> want = pipeline.Run(*serial, &serial_rng);
      Result<PipelineResult> got = pipeline.Run(*loaded, &loaded_rng);
      ASSERT_TRUE(want.ok() && got.ok());
      EXPECT_EQ(got->key, want->key) << "seed " << seed;
      EXPECT_EQ(got->verdict, want->verdict) << "seed " << seed;
      EXPECT_EQ(got->witness, want->witness) << "seed " << seed;
      ASSERT_EQ(got->steps.size(), want->steps.size()) << "seed " << seed;
      for (size_t i = 0; i < want->steps.size(); ++i) {
        EXPECT_EQ(got->steps[i].chosen, want->steps[i].chosen);
        EXPECT_EQ(got->steps[i].gain, want->steps[i].gain);
        EXPECT_EQ(got->steps[i].blocks_after, want->steps[i].blocks_after);
      }
    }
  }
}

// ------------------------------------------------------- file kinds

/// `bytes` bytes of CSV whose last record ends at the end of the file,
/// with no terminator: a reader that looks one byte past its view faults
/// when `bytes` is a multiple of the page size. A quoted tail holds a
/// quoted newline, so the last record is walked byte by byte.
std::string TextOfSize(size_t bytes, bool quoted_tail) {
  std::ostringstream out;
  out << "id,value\n";
  for (int i = 0; static_cast<size_t>(out.tellp()) + 64 < bytes; ++i) {
    out << "r" << i % 50 << ",v" << i % 7 << "\n";
  }
  const std::string_view last = quoted_tail ? "tail,\"q\n" : "tail,";
  const std::string_view close = quoted_tail ? "\"" : "";
  const size_t filler = bytes - static_cast<size_t>(out.tellp()) -
                        last.size() - close.size();
  out << last << std::string(filler, 'x') << close;
  return out.str();
}

/// Every reader that takes a path agrees with the in-memory oracle on a
/// file holding `text`.
void ExpectFileReadersMatchOracle(const std::string& text) {
  SCOPED_TRACE(::testing::Message() << text.size() << " bytes: ["
                                    << text.substr(0, 40) << "]");
  const std::string path = WriteTemp("shape.csv", text);
  EXPECT_EQ(csv_oracle::Describe(LoadCsvDataset(path)),
            csv_oracle::Describe(csv_oracle::Load(text, CsvOptions{})));
  Result<CsvTable> table = csv_oracle::Parse(text, CsvOptions{});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(DescribeTable(ReadCsvFile(path)), DescribeTable(table));
  Result<FileText> file = FileText::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  Result<CsvShardPlan> plan = PlanCsvShards(file->view(), 2);
  if (table->header.empty()) {
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
    return;
  }
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->attribute_names, table->header);
  EXPECT_EQ(plan->total_rows, table->rows.size());
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}}) {
    EXPECT_EQ(RangeRows(path, shards, CsvOptions{}), table->rows)
        << shards << " shards";
  }
}

TEST(CsvIngestTest, FileReadersMatchOracleOnEveryFileShape) {
  ExpectFileReadersMatchOracle("");                     // empty file
  ExpectFileReadersMatchOracle("a,b,c\n");              // header only
  ExpectFileReadersMatchOracle("a,b\n1,2\n3,4");         // no final newline
  ExpectFileReadersMatchOracle("a,b\r\n1,2\r\n3,4\r\n");  // CRLF
  ExpectFileReadersMatchOracle("a,b\n\"x\ny\",2\n3,\"4\n\"\n");  // quoted newlines
  for (size_t bytes : {size_t{4095}, size_t{4096}, size_t{4097}}) {
    for (bool quoted_tail : {false, true}) {
      std::string text = TextOfSize(bytes, quoted_tail);
      ASSERT_EQ(text.size(), bytes);
      ExpectFileReadersMatchOracle(text);
    }
  }
}

TEST(CsvIngestTest, LoadingADirectoryIsAnIoError) {
  std::string dir = ::testing::TempDir() + "qikey_csv_ingest_dir";
  std::filesystem::create_directories(dir);
  auto expect_directory_error = [&](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kIOError);
    EXPECT_NE(status.message().find("is a directory"), std::string::npos)
        << status.ToString();
  };
  expect_directory_error(LoadCsvDataset(dir).status());
  expect_directory_error(ReadCsvFile(dir).status());
  expect_directory_error(FileText::Open(dir).status());
  expect_directory_error(
      BuildShardArtifactsFromCsv(dir, ShardedBuildOptions{}).status());
  // The sliding-buffer readers, which also accept pipes.
  expect_directory_error(ReadCsvAttributeNames(dir).status());
  expect_directory_error(
      StreamCsvShardArtifact(dir, ShardedBuildOptions{}).status());
}

TEST(CsvIngestTest, FifoInputIsStreamed) {
  // A FIFO has no size to map; the readers must fall back to streaming.
  const std::string text = "a,b\n1,2\n3,4\n";
  auto through_fifo = [&](const auto& read) {
    std::string path = ::testing::TempDir() + "qikey_csv_ingest_fifo";
    std::filesystem::remove(path);
    EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0);
    std::thread writer([&] {
      std::ofstream out(path, std::ios::binary);
      out << text;
    });
    auto result = read(path);
    writer.join();
    std::filesystem::remove(path);
    return result;
  };
  EXPECT_EQ(csv_oracle::Describe(through_fifo([](const std::string& path) {
              return LoadCsvDataset(path);
            })),
            csv_oracle::Describe(csv_oracle::Load(text, CsvOptions{})));
  EXPECT_EQ(DescribeTable(through_fifo([](const std::string& path) {
              return ReadCsvFile(path);
            })),
            DescribeTable(csv_oracle::Parse(text, CsvOptions{})));
  // The sharded build plans and walks its ranges over one read of the
  // FIFO: a second open would block forever, waiting for a writer.
  ShardedBuildOptions build;
  build.num_shards = 2;
  Result<std::vector<ShardFilterArtifact>> artifacts =
      through_fifo([&](const std::string& path) {
        return BuildShardArtifactsFromCsv(path, build);
      });
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  uint64_t rows = 0;
  for (const ShardFilterArtifact& artifact : *artifacts) {
    rows += artifact.rows_seen;
  }
  EXPECT_EQ(rows, 2u);
  // The streaming build reads the FIFO once through its sliding buffer.
  ShardedBuildOptions streamed;
  streamed.tuple_sample_size = 2;
  Result<ShardFilterArtifact> artifact =
      through_fifo([&](const std::string& path) {
        return StreamCsvShardArtifact(path, streamed);
      });
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(csv_oracle::Fingerprint(artifact->tuple_sample),
            csv_oracle::Describe(csv_oracle::Load(text, CsvOptions{})));
}

TEST(CsvIngestTest, NothingBorrowsFromTheFileAfterTheReaderReturns) {
  // The readers map the file and unmap it before they return. Overwrite
  // the file in place, then rename another file over it: a value still
  // pointing into the mapping would read the new bytes or fault on an
  // unmapped page (which AddressSanitizer reports).
  const std::string text = ShardedCsvText();
  const std::string path = WriteTemp("lifetime.csv", text);
  Result<Dataset> loaded = LoadCsvDataset(path);
  Result<CsvTable> parsed = ReadCsvFile(path);
  Result<CsvShardPlan> plan = Status::Internal("not planned");
  {
    Result<FileText> text = FileText::Open(path);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    plan = PlanCsvShards(text->view(), 3);
  }
  ASSERT_TRUE(loaded.ok() && parsed.ok() && plan.ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << std::string(text.size(), 'z');
  }
  std::filesystem::rename(WriteTemp("lifetime_other.csv", "p,q\n1,2\n"),
                          path);
  // Fingerprints read every dictionary value and attribute name.
  EXPECT_EQ(csv_oracle::Describe(loaded),
            csv_oracle::Describe(csv_oracle::Load(text, CsvOptions{})));
  Result<CsvTable> expected = csv_oracle::Parse(text, CsvOptions{});
  EXPECT_EQ(DescribeTable(parsed), DescribeTable(expected));
  EXPECT_EQ(plan->attribute_names, expected->header);
}

// ---------------------------------------------- records past the buffer

TEST(CsvIngestTest, RecordsLongerThanTheReadBuffer) {
  // The streaming walker reads 256 KiB at a time; these records are
  // longer.
  std::string plain(300 * 1024, 'x');
  std::string quoted = "\"" + std::string(150 * 1024, 'y') + ",\n\"\"" +
                       std::string(150 * 1024, 'z') + "\"";
  std::string text = "id,blob,tail\n1," + plain + ",a\n\n2," + quoted +
                     ",b\r\n3,short,c\n4," + plain + "w,d\n5,e,f\n";
  ExpectMatchesOracle(text);

  std::string path = WriteTemp("long.csv", text);
  Result<CsvTable> expected = csv_oracle::Parse(text, CsvOptions{});
  ASSERT_TRUE(expected.ok());
  for (size_t shards : {size_t{1}, size_t{2}}) {
    EXPECT_EQ(RangeRows(path, shards, CsvOptions{}), expected->rows);
  }
  EXPECT_EQ(StreamedSample(path, expected->rows.size()),
            csv_oracle::Describe(csv_oracle::Load(text, CsvOptions{})));
  Result<std::vector<std::string>> names = ReadCsvAttributeNames(path);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, expected->header);
}

// -------------------------------------------------- sharded byte ranges

TEST(CsvIngestTest, RangeFieldsEqualSplitCsvLineFields) {
  const std::string text = ShardedCsvText();
  ExpectMatchesOracle(text);
  std::string path = WriteTemp("ranges.csv", text);
  Result<CsvTable> expected = csv_oracle::Parse(text, CsvOptions{});
  ASSERT_TRUE(expected.ok());
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
    EXPECT_EQ(RangeRows(path, shards, CsvOptions{}), expected->rows)
        << shards << " shards";
  }
  EXPECT_EQ(StreamedSample(path, expected->rows.size()),
            csv_oracle::Describe(csv_oracle::Load(text, CsvOptions{})));
}

TEST(CsvIngestTest, RunShardedCsvKeyAndFrontierArePinned) {
  // Recorded with the materialize-then-encode ingest; the streaming
  // ingest must not move them.
  std::string path = WriteTemp("pinned.csv", ShardedCsvText());
  struct Case {
    FilterBackend backend;
    std::vector<std::string> frontier;
  };
  for (const Case& c :
       {Case{FilterBackend::kTupleSample,
             {"{0, 3}", "{1, 3}", "{2, 3}", "{0, 1, 2}"}},
        Case{FilterBackend::kBitset, {"{0, 2}", "{0, 3}", "{2, 3}"}}}) {
    PipelineOptions options;
    options.eps = 0.01;
    options.backend = c.backend;
    ShardedRunOptions sharded;
    sharded.num_shards = 4;
    Result<PipelineResult> run =
        DiscoveryPipeline(options).RunSharded(path, sharded, 11);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->rows, 2400u);
    EXPECT_EQ(run->key.ToString(), "{0, 3}");
    EXPECT_EQ(run->verdict, FilterVerdict::kAccept);
    ASSERT_EQ(run->steps.size(), 2u);
    EXPECT_EQ(run->steps[0].chosen, 3u);
    EXPECT_EQ(run->steps[1].chosen, 0u);
    KeyEnumerationOptions enumerate;
    enumerate.max_size = 4;
    Result<std::vector<AttributeSet>> frontier =
        EnumerateMinimalAcceptedSets(*run->filter, 4, enumerate);
    ASSERT_TRUE(frontier.ok());
    std::vector<std::string> names;
    for (const AttributeSet& key : *frontier) names.push_back(key.ToString());
    EXPECT_EQ(names, c.frontier);
  }
}

// ------------------------------------------------------ golden corpus

TEST(CsvIngestTest, GoldenCsvsMatchOracle) {
  for (const char* name :
       {"people", "orders", "dupes", "quoted", "wide", "binary"}) {
    std::string path = std::string(QIKEY_GOLDEN_DIR) + "/" + name + ".csv";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    std::ostringstream text;
    text << in.rdbuf();
    std::string expected =
        csv_oracle::Describe(csv_oracle::Load(text.str(), CsvOptions{}));
    EXPECT_EQ(csv_oracle::Describe(LoadCsvDataset(path)), expected) << name;
    EXPECT_EQ(expected.rfind("error", 0), std::string::npos) << name;
    SCOPED_TRACE(name);
    ExpectEveryChunkCountGives(text.str(), CsvOptions{}, expected);
  }
}

}  // namespace
}  // namespace qikey
