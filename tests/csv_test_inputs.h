#ifndef QIKEY_TESTS_CSV_TEST_INPUTS_H_
#define QIKEY_TESTS_CSV_TEST_INPUTS_H_

// CSV texts shared by the ingest and shard tests.

#include <sstream>
#include <string>

namespace qikey {

/// 2400 data rows over four attributes with quoted commas and newlines,
/// doubled quotes, mixed CRLF/LF and blank records, and a
/// two-attribute key.
inline std::string ShardedCsvText() {
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

}  // namespace qikey

#endif  // QIKEY_TESTS_CSV_TEST_INPUTS_H_
