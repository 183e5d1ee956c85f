// Differential tests of the streaming CSV ingest against the reference
// materialize-then-encode path in csv_oracle.h: every loader must yield
// a bit-identical dataset (names, codes, cardinalities, dictionary
// order) or the identical error.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/key_enumeration.h"
#include "csv_oracle.h"
#include "data/csv_loader.h"
#include "engine/pipeline.h"
#include "shard/sharded_loader.h"
#include "util/csv.h"
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

/// Every in-memory and file load path agrees with the oracle on `text`.
void ExpectMatchesOracle(const std::string& text,
                         const CsvOptions& options = {}) {
  SCOPED_TRACE(::testing::Message() << "input: [" << text.substr(0, 200)
                                    << "] delimiter '" << options.delimiter
                                    << "' header " << options.has_header);
  std::string expected = csv_oracle::Describe(csv_oracle::Load(text, options));
  EXPECT_EQ(csv_oracle::Describe(LoadCsvDatasetFromString(text, options)),
            expected);
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
  Result<CsvShardPlan> plan = PlanCsvShards(path, shards, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return rows;
  for (const ShardRange& range : plan->ranges) {
    Status st = ForEachCsvRecordInRange(
        path, range, options, [&](std::span<const std::string_view> fields) {
          rows.emplace_back(fields.begin(), fields.end());
          return Status::OK();
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return rows;
}

/// The rows `ShardedLoader` encodes, decoded back through its shared
/// dictionaries.
std::vector<std::vector<std::string>> LoaderRows(const std::string& path,
                                                 size_t shard_rows) {
  ShardedLoaderOptions options;
  options.shard_rows = shard_rows;
  ShardedLoader loader(options);
  std::vector<std::vector<std::string>> rows;
  auto stats = loader.Load(path, [&](ShardInput chunk) {
    for (RowIndex r = 0; r < chunk.rows.num_rows(); ++r) {
      std::vector<std::string> row;
      for (AttributeIndex j = 0; j < chunk.rows.num_attributes(); ++j) {
        const Column& col = chunk.rows.column(j);
        row.push_back(col.dictionary()->Value(col.code(r)));
      }
      rows.push_back(std::move(row));
    }
    return Status::OK();
  });
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return rows;
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
      ASSERT_EQ(csv_oracle::Describe(LoadCsvDatasetFromString(text, options)),
                csv_oracle::Describe(csv_oracle::Load(text, options)))
          << "input: [" << text << "]";
    }
  }
}

// ---------------------------------------------- records past the buffer

TEST(CsvIngestTest, RecordsLongerThanTheReadBuffer) {
  // The sharded walker reads 256 KiB at a time; these records are longer.
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
  EXPECT_EQ(LoaderRows(path, 2), expected->rows);
  Result<std::vector<std::string>> names = ReadCsvAttributeNames(path);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, expected->header);
}

// -------------------------------------------------- sharded byte ranges

std::string ShardedCsvText() {
  // Quoted commas and newlines, doubled quotes, mixed CRLF/LF and blank
  // records, with a two-attribute key.
  std::ostringstream text;
  text << "id,city,notes,code\r\n";
  for (int i = 0; i < 2400; ++i) {
    if (i % 97 == 0) text << "\n";
    text << "r" << i % 41 << ",";
    if (i % 3 == 0) {
      text << "\"city, " << i % 7 << "\"";
    } else {
      text << "town" << i % 11;
    }
    text << ",";
    if (i % 5 == 0) {
      text << "\"line\n" << i % 4 << " \"\"q\"\"\"";
    } else {
      text << i % 9;
    }
    text << "," << i * 7919 % 61 << (i % 2 == 0 ? "\r\n" : "\n");
  }
  return text.str();
}

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
  EXPECT_EQ(LoaderRows(path, 100), expected->rows);
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
  }
}

}  // namespace
}  // namespace qikey
