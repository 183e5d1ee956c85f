// Fuzz target: the quote-aware CSV machinery — `CsvRecordScanner` byte
// feeding, full `ParseCsv`, the chunked dataset loader and the streaming
// shard build — must never crash on arbitrary bytes, and
// `LoadCsvDatasetFromString` must agree with the reference
// materialize-then-encode ingest (tests/csv_oracle.h) at its own chunk
// count and at forced ones: the same dataset fingerprint or the same
// error. The streaming shard build (its sliding read plus
// `ShardArtifactBuilder`), run from memory under a tuple target that
// keeps every record, must keep the oracle's rows, or fail where the
// oracle fails or loads fewer than two rows.

#include <sstream>
#include <string>
#include <string_view>

#include "csv_oracle.h"
#include "data/csv_loader.h"
#include "data/csv_loader_internal.h"
#include "fuzz_target.h"
#include "shard/shard_builder.h"
#include "util/csv.h"
#include "util/logging.h"

namespace {

void CheckLoaderMatchesOracle(std::string_view text,
                              const qikey::CsvOptions& options) {
  std::string expected =
      qikey::csv_oracle::Describe(qikey::csv_oracle::Load(text, options));
  std::string actual = qikey::csv_oracle::Describe(
      qikey::LoadCsvDatasetFromString(text, options));
  QIKEY_CHECK(actual == expected)
      << "CSV ingest disagrees with the oracle\nloader: " << actual
      << "\noracle: " << expected;
  for (size_t chunks : {size_t{2}, size_t{5}}) {
    actual = qikey::csv_oracle::Describe(
        qikey::internal::LoadCsvDatasetInChunks(text, options, chunks));
    QIKEY_CHECK(actual == expected)
        << "CSV ingest in " << chunks
        << " chunks disagrees with the oracle\nloader: " << actual
        << "\noracle: " << expected;
  }
  qikey::Result<qikey::Dataset> oracle = qikey::csv_oracle::Load(text, options);
  qikey::ShardedBuildOptions build;
  build.csv = options;
  build.tuple_sample_size = text.size() + 2;  // more than the records
  std::istringstream in{std::string(text)};
  qikey::Result<qikey::ShardFilterArtifact> artifact =
      qikey::internal::StreamCsvShardArtifact(in, build, nullptr);
  if (oracle.ok() && oracle->num_rows() >= 2) {
    QIKEY_CHECK(artifact.ok()) << "streaming shard build failed where the "
                                  "oracle loads: "
                               << artifact.status().ToString();
    actual = qikey::csv_oracle::Fingerprint(artifact->tuple_sample);
    QIKEY_CHECK(actual == expected)
        << "streaming shard build disagrees with the oracle\nbuild: "
        << actual << "\noracle: " << expected;
  } else {
    QIKEY_CHECK(!artifact.ok())
        << "streaming shard build succeeded where the oracle "
        << (oracle.ok() ? "loads fewer than two rows" : "fails");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  qikey::CsvOptions options;
  // Feed every byte through the incremental scanner.
  qikey::CsvRecordScanner scanner(options);
  size_t records = 0;
  for (char c : text) {
    if (scanner.Feed(c)) ++records;
    (void)scanner.record_blank();
    (void)scanner.in_quotes();
  }
  // Full parse; on success, round-trip the table through WriteCsv.
  qikey::Result<qikey::CsvTable> table = qikey::ParseCsv(text, options);
  if (table.ok()) {
    (void)qikey::WriteCsv(*table, options);
  }
  CheckLoaderMatchesOracle(text, options);
  // Alternate delimiters exercise the option paths.
  qikey::CsvOptions semicolon;
  semicolon.delimiter = ';';
  semicolon.has_header = false;
  (void)qikey::ParseCsv(text, semicolon);
  CheckLoaderMatchesOracle(text, semicolon);
  return 0;
}

std::vector<std::string> FuzzSeedInputs() {
  return {
      "a,b,c\n1,2,3\n4,5,6\n",
      "name,quote\n\"smith, john\",\"to be,\nor not\"\n\"poe\",\"the "
      "\"\"raven\"\"\"\n",
      "x;y;z\n1;2;3\n",
      "one\n\n\ntwo\n",
      "\"unterminated,quote\nnext,line\n",
      ",,,\n,,,\n",
      "h1,h2\r\n \t\r\n1,\"a\r\nb\"\r\n2,c",
  };
}
