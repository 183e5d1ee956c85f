#ifndef QIKEY_TESTS_CSV_ORACLE_H_
#define QIKEY_TESTS_CSV_ORACLE_H_

// Test-only reference CSV ingest: the materialize-then-encode path the
// streaming loader replaced. Records are found one byte at a time with
// `CsvRecordScanner`, every field is decoded a character at a time into
// an owned string, the whole table is built, and only then is it
// encoded row by row through `DatasetBuilder`. Slow and obviously
// faithful to the format's rules, which is what an oracle should be.

#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/dataset_builder.h"
#include "data/schema.h"
#include "util/csv.h"
#include "util/status.h"

namespace qikey::csv_oracle {

inline std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) --e;
  return s.substr(b, e - b);
}

/// One record's fields: quotes open only on an empty field, doubled
/// quotes are literal, unquoted fields are trimmed when asked.
inline std::vector<std::string> SplitLine(std::string_view line,
                                          const CsvOptions& options) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  bool was_quoted = false;
  auto flush = [&]() {
    if (options.trim_whitespace && !was_quoted) {
      fields.emplace_back(Trim(current));
    } else {
      fields.push_back(current);
    }
    current.clear();
    was_quoted = false;
  };
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c != options.quote) {
        current.push_back(c);
      } else if (i + 1 < line.size() && line[i + 1] == options.quote) {
        current.push_back(options.quote);
        ++i;
      } else {
        in_quotes = false;
      }
    } else if (c == options.quote && current.empty()) {
      in_quotes = true;
      was_quoted = true;
    } else if (c == options.delimiter) {
      flush();
    } else {
      current.push_back(c);
    }
  }
  flush();
  return fields;
}

inline Result<CsvTable> Parse(std::string_view text,
                              const CsvOptions& options) {
  CsvTable table;
  size_t expected_fields = 0;
  bool header_pending = options.has_header;
  size_t record_no = 0;
  Status error = Status::OK();
  auto handle = [&](std::string_view record, bool blank) {
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    ++record_no;
    if (blank) return true;
    std::vector<std::string> fields = SplitLine(record, options);
    if (header_pending) {
      table.header = std::move(fields);
      expected_fields = table.header.size();
      header_pending = false;
      return true;
    }
    if (expected_fields == 0) expected_fields = fields.size();
    if (fields.size() != expected_fields) {
      std::ostringstream msg;
      msg << "CSV record " << record_no << " has " << fields.size()
          << " fields, expected " << expected_fields;
      error = Status::InvalidArgument(msg.str());
      return false;
    }
    table.rows.push_back(std::move(fields));
    return true;
  };
  CsvRecordScanner scanner(options);
  size_t start = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    bool blank = scanner.record_blank();
    if (scanner.Feed(text[i])) {
      if (!handle(text.substr(start, i - start), blank)) return error;
      start = i + 1;
    }
  }
  if (start < text.size() &&
      !handle(text.substr(start), scanner.record_blank())) {
    return error;
  }
  return table;
}

/// `Parse`, then the table encoded row by row.
inline Result<Dataset> Load(std::string_view text, const CsvOptions& options) {
  Result<CsvTable> parsed = Parse(text, options);
  if (!parsed.ok()) return parsed.status();
  CsvTable& table = *parsed;
  std::vector<std::string> names = table.header;
  if (names.empty()) {
    names = Schema::Anonymous(table.rows.empty() ? 0 : table.rows[0].size())
                .names();
  }
  DatasetBuilder builder(std::move(names));
  for (const auto& row : table.rows) {
    std::vector<std::string_view> views(row.begin(), row.end());
    QIKEY_RETURN_NOT_OK(builder.AddRow(views));
  }
  return std::move(builder).Finish();
}

/// Everything a loader decides, spelled out: attribute names, each
/// column's cardinality, dictionary values in code order, and codes.
inline std::string Fingerprint(const Dataset& data) {
  std::ostringstream out;
  out << data.num_rows() << " rows\n";
  for (AttributeIndex j = 0; j < data.num_attributes(); ++j) {
    const Column& col = data.column(j);
    out << "[" << data.schema().name(j) << "] cardinality "
        << col.cardinality() << " dict";
    if (col.dictionary() != nullptr) {
      for (ValueCode c = 0; c < col.dictionary()->size(); ++c) {
        std::string_view v = col.dictionary()->Value(c);
        out << " " << v.size() << ":" << v;
      }
    }
    out << "\ncodes";
    for (ValueCode code : col.codes()) out << " " << code;
    out << "\n";
  }
  return out.str();
}

/// The dataset's fingerprint, or the status code and message.
inline std::string Describe(const Result<Dataset>& result) {
  return result.ok() ? Fingerprint(*result)
                     : "error: " + result.status().ToString();
}

}  // namespace qikey::csv_oracle

#endif  // QIKEY_TESTS_CSV_ORACLE_H_
