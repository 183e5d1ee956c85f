#include "util/csv.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/mapped_file.h"

namespace qikey {

namespace {

/// `CsvRecordScanner::record_blank` for a quote-free record: only spaces,
/// tabs and carriage returns, none of them the delimiter.
bool IsBlankRecord(std::string_view record, char delimiter) {
  for (char c : record) {
    if (c == delimiter || (c != ' ' && c != '\t' && c != '\r')) return false;
  }
  return true;
}

bool NeedsQuoting(std::string_view field, const CsvOptions& options) {
  for (char c : field) {
    if (c == options.delimiter || c == options.quote || c == '\n' || c == '\r') {
      return true;
    }
  }
  // Whitespace at either edge would be eaten by trim_whitespace on the
  // way back in; quote it so values round-trip.
  if (!field.empty() &&
      (field.front() == ' ' || field.front() == '\t' || field.back() == ' ' ||
       field.back() == '\t')) {
    return true;
  }
  return false;
}

}  // namespace

bool CsvRecordScanner::Feed(char c) {
  if (in_quotes_) {
    if (quote_pending_) {
      quote_pending_ = false;
      if (c == quote_) return false;  // doubled quote, literal; stay quoted
      in_quotes_ = false;             // the pending quote closed the field
      // Fall through: c belongs to the unquoted remainder of the field.
    } else {
      if (c == quote_) {
        quote_pending_ = true;
      } else {
        field_empty_ = false;
      }
      return false;
    }
  }
  if (c == quote_) {
    record_blank_ = false;
    if (field_empty_) {
      in_quotes_ = true;
    } else {
      field_empty_ = false;
    }
    return false;
  }
  if (c == '\n') {
    ResetRecord();
    return true;
  }
  if (c == delimiter_) {
    record_blank_ = false;
    field_empty_ = true;
    return false;
  }
  field_empty_ = false;
  if (c != ' ' && c != '\t' && c != '\r') record_blank_ = false;
  return false;
}

void CsvRecordScanner::ResetRecord() {
  in_quotes_ = false;
  quote_pending_ = false;
  field_empty_ = true;
  record_blank_ = true;
}

std::span<const std::string_view> CsvFieldSplitter::Split(
    std::string_view record) {
  fields_.clear();
  if (record.find(options_.quote) != std::string_view::npos) {
    DecodeQuoted(record);
    return fields_;
  }
  // A plain byte loop: fields are typically a few bytes, too short for a
  // memchr call per field to pay off.
  const char* begin = record.data();
  const char* end = begin + record.size();
  for (const char* p = begin;; ++p) {
    if (p == end || *p == options_.delimiter) {
      std::string_view field(begin, static_cast<size_t>(p - begin));
      fields_.push_back(options_.trim_whitespace ? TrimCsvField(field) : field);
      if (p == end) break;
      begin = p + 1;
    }
  }
  return fields_;
}

void CsvFieldSplitter::DecodeQuoted(std::string_view record) {
  // Decoding only ever drops bytes, so a scratch buffer as long as the
  // record never reallocates while the views below are taken.
  if (scratch_.size() < record.size()) scratch_.resize(record.size());
  char* out = scratch_.data();
  size_t n = 0;            // decoded bytes so far
  size_t field_begin = 0;  // where the current field's bytes start
  bool in_quotes = false;
  bool was_quoted = false;
  auto flush = [&]() {
    std::string_view field(out + field_begin, n - field_begin);
    fields_.push_back(
        options_.trim_whitespace && !was_quoted ? TrimCsvField(field) : field);
    field_begin = n;
    was_quoted = false;
  };
  size_t i = 0;
  while (i < record.size()) {
    char c = record[i];
    if (in_quotes) {
      if (c == options_.quote) {
        if (i + 1 < record.size() && record[i + 1] == options_.quote) {
          out[n++] = options_.quote;  // doubled quote -> literal
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      out[n++] = c;
      ++i;
      continue;
    }
    if (c == options_.quote && n == field_begin) {
      in_quotes = true;
      was_quoted = true;
      ++i;
      continue;
    }
    if (c == options_.delimiter) {
      flush();
      ++i;
      continue;
    }
    out[n++] = c;
    ++i;
  }
  flush();
}

std::vector<std::string> SplitCsvLine(std::string_view line,
                                      const CsvOptions& options) {
  CsvFieldSplitter splitter(options);
  std::span<const std::string_view> fields = splitter.Split(line);
  return std::vector<std::string>(fields.begin(), fields.end());
}

size_t NextCsvRecord(std::string_view text, bool at_end,
                     const CsvOptions& options, CsvRecord* record) {
  size_t newline = text.find('\n');
  if (newline == std::string_view::npos && !at_end) return 0;
  size_t length = newline == std::string_view::npos ? text.size() : newline;
  size_t used = newline == std::string_view::npos ? length : length + 1;
  bool blank = false;  // any quote makes a record non-blank
  if (text.substr(0, length).find(options.quote) == std::string_view::npos) {
    blank = IsBlankRecord(text.substr(0, length), options.delimiter);
  } else {
    // A quote may hide newlines: walk the record byte by byte.
    CsvRecordScanner scanner(options);
    size_t i = 0;
    while (i < text.size() && !scanner.Feed(text[i])) ++i;
    if (i == text.size() && !at_end) return 0;
    length = i;
    used = i < text.size() ? i + 1 : i;
  }
  std::string_view body = text.substr(0, length);
  if (!body.empty() && body.back() == '\r') body.remove_suffix(1);
  record->text = body;
  record->blank = blank;
  return used;
}

size_t CountByte(std::string_view text, char byte) {
  // Byte-wide counters over blocks of at most 255 bytes: the compiler
  // turns the inner loop into byte-lane compares and adds, where
  // `std::count`'s word-wide counter keeps it scalar (2x slower on
  // covtype records).
  size_t total = 0;
  while (!text.empty()) {
    const size_t block = std::min<size_t>(text.size(), 255);
    uint8_t count = 0;
    for (size_t i = 0; i < block; ++i) count += text[i] == byte;
    total += count;
    text.remove_prefix(block);
  }
  return total;
}

size_t CountCsvFields(std::string_view record, const CsvOptions& options,
                      CsvFieldSplitter* splitter) {
  if (record.find(options.quote) != std::string_view::npos) {
    return splitter->Split(record).size();
  }
  return 1 + CountByte(record, options.delimiter);
}

size_t CsvRecordNumber(std::string_view text, const char* record,
                       const CsvOptions& options) {
  size_t record_no = 0;
  CsvRecord located;
  while (size_t used =
             NextCsvRecord(text, /*at_end=*/true, options, &located)) {
    text.remove_prefix(used);
    ++record_no;
    if (located.text.data() == record) break;
  }
  return record_no;
}

Status CsvWidthError(uint64_t record_number, size_t fields, size_t expected) {
  std::ostringstream msg;
  msg << "CSV record " << record_number << " has " << fields
      << " fields, expected " << expected;
  return Status::InvalidArgument(msg.str());
}

Result<CsvTable> ParseCsv(std::string_view text, const CsvOptions& options) {
  CsvTable table;
  CsvFieldSplitter splitter(options);
  bool header_pending = options.has_header;
  size_t expected_fields = 0;  // fixed by the header or first data row
  size_t record_no = 0;
  CsvRecord record;
  while (size_t used = NextCsvRecord(text, /*at_end=*/true, options, &record)) {
    text.remove_prefix(used);
    ++record_no;
    if (record.blank) continue;
    std::span<const std::string_view> fields = splitter.Split(record.text);
    if (expected_fields == 0) {
      expected_fields = fields.size();
    } else if (fields.size() != expected_fields) {
      return CsvWidthError(record_no, fields.size(), expected_fields);
    }
    std::vector<std::string> row(fields.begin(), fields.end());
    if (header_pending) {
      table.header = std::move(row);
      header_pending = false;
    } else {
      table.rows.push_back(std::move(row));
    }
  }
  return table;
}

Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvOptions& options) {
  Result<FileText> text = FileText::Open(path);
  if (!text.ok()) return text.status();
  return ParseCsv(text->view(), options);
}

std::string WriteCsv(const CsvTable& table, const CsvOptions& options) {
  std::string out;
  auto write_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(options.delimiter);
      // A lone empty field must be quoted or the record reads back as a
      // blank line and is skipped.
      if (NeedsQuoting(row[i], options) || (row.size() == 1 && row[i].empty())) {
        out.push_back(options.quote);
        for (char c : row[i]) {
          if (c == options.quote) out.push_back(options.quote);
          out.push_back(c);
        }
        out.push_back(options.quote);
      } else {
        out += row[i];
      }
    }
    out.push_back('\n');
  };
  if (!table.header.empty()) write_row(table.header);
  for (const auto& row : table.rows) write_row(row);
  return out;
}

}  // namespace qikey
