#ifndef QIKEY_UTIL_CSV_H_
#define QIKEY_UTIL_CSV_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace qikey {

/// Options controlling CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  char quote = '"';
  /// Whether the first non-empty line is a header row.
  bool has_header = true;
  /// Whether surrounding whitespace of unquoted fields is trimmed.
  bool trim_whitespace = true;
};

/// \brief Splits one CSV record into fields, honoring quotes.
///
/// Handles RFC-4180 style quoting including embedded delimiters,
/// doubled quotes, and (when the caller hands it a whole record, as
/// `ParseCsv` does) newlines inside quoted fields. Copies every field;
/// the ingest paths use `CsvFieldSplitter`, which does not.
std::vector<std::string> SplitCsvLine(std::string_view line,
                                      const CsvOptions& options = {});

/// \brief Zero-copy field splitter with `SplitCsvLine`'s semantics.
///
/// A quote-free record (the common case) is split in place: the views
/// point into the record itself. A record containing a quote is decoded
/// into an internal scratch buffer that is reused across calls, so a
/// splitter allocates only until its buffers reach the longest record.
class CsvFieldSplitter {
 public:
  explicit CsvFieldSplitter(const CsvOptions& options) : options_(options) {}

  /// The fields of `record`, valid until the next `Split` (and, for a
  /// quote-free record, while `record`'s bytes live).
  std::span<const std::string_view> Split(std::string_view record);

 private:
  void DecodeQuoted(std::string_view record);

  CsvOptions options_;
  std::string scratch_;
  std::vector<std::string_view> fields_;
};

/// \brief Incremental quote-aware record-boundary detector.
///
/// Feed bytes one at a time; `Feed` returns true exactly when the byte
/// is a record terminator (a newline at quote depth zero). Mirrors
/// `SplitCsvLine`'s quoting rules (quotes open only on an empty field,
/// doubled quotes are literal), so newlines inside quoted fields do not
/// end a record. `NextCsvRecord` falls back to it for records that
/// contain a quote.
class CsvRecordScanner {
 public:
  explicit CsvRecordScanner(const CsvOptions& options)
      : delimiter_(options.delimiter), quote_(options.quote) {}

  /// Consumes one byte; true iff it terminates the current record.
  bool Feed(char c);

  /// True while the record seen so far is only whitespace (such records
  /// are skipped by `ParseCsv`; any quote makes a record non-blank).
  bool record_blank() const { return record_blank_; }

  /// True if the scanner is inside a quoted field (a record spanning a
  /// buffer boundary).
  bool in_quotes() const { return in_quotes_; }

  /// Resets per-record state (called automatically after a terminator).
  void ResetRecord();

 private:
  char delimiter_;
  char quote_;
  bool in_quotes_ = false;
  bool quote_pending_ = false;  // saw a quote inside quotes; close or literal?
  bool field_empty_ = true;     // quotes may only open on an empty field
  bool record_blank_ = true;
};

/// One record located by `NextCsvRecord`.
struct CsvRecord {
  /// The record without its '\n' terminator and without one trailing
  /// '\r', so CRLF input reads like LF input.
  std::string_view text;
  /// Only whitespace; every loader skips such records (they still count
  /// in the record numbers of error messages).
  bool blank = false;
};

/// \brief Locates the record at the front of `text` without copying it.
///
/// Returns the bytes the record spans, terminator included. A quote-free
/// record ends at the first '\n' (found with `memchr`); a record holding
/// a quote is walked by a `CsvRecordScanner`, so quoted newlines stay
/// inside it. Returns 0 when `text` ends before the record does — the
/// caller supplies more input — unless `at_end`, in which case the rest
/// of `text` is the final record. Returns 0 for empty `text`.
size_t NextCsvRecord(std::string_view text, bool at_end,
                     const CsvOptions& options, CsvRecord* record);

/// The field with the spaces, tabs and carriage returns that
/// `trim_whitespace` strips from unquoted fields removed at both ends.
inline std::string_view TrimCsvField(std::string_view field) {
  size_t b = 0;
  size_t e = field.size();
  auto space = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  while (b < e && space(field[b])) ++b;
  while (e > b && space(field[e - 1])) --e;
  return field.substr(b, e - b);
}

/// Occurrences of `byte` in `text`.
size_t CountByte(std::string_view text, char byte);

/// Fields in `record` (a record's text, as `NextCsvRecord` yields it).
/// A quote-free record is not split: it has one field more than it has
/// delimiters. One holding the quote character is split by `splitter`.
size_t CountCsvFields(std::string_view record, const CsvOptions& options,
                      CsvFieldSplitter* splitter);

/// Parsed CSV content: optional header plus rows of string fields.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// \brief Parses CSV text into an owning table. Blank records are
/// skipped; a row whose field count differs from the header (or the
/// first data row) produces an InvalidArgument error naming the record
/// (blank records counted).
Result<CsvTable> ParseCsv(std::string_view text, const CsvOptions& options = {});

/// \brief Reads and parses a CSV file from disk (through `FileText`:
/// mapped, not copied).
Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvOptions& options = {});

/// \brief Serializes rows to CSV text (quoting fields when needed).
std::string WriteCsv(const CsvTable& table, const CsvOptions& options = {});

}  // namespace qikey

#endif  // QIKEY_UTIL_CSV_H_
