// Fuzz target: the QIKEY/1 request path — `ParseQueryRequest`,
// `ParseHelloLine`, the request-file parser and `LineSplitter` — must
// never crash on arbitrary bytes, and:
//
//   - the parser agrees with the reference parser (tests/protocol_oracle.h)
//     on every line: the same ok/err, the same error message, the same
//     request;
//   - parse -> encode the attribute list -> parse is a fixed point;
//   - splitting a byte stream in random chunkings yields the same lines
//     (and the same overflow verdict) as splitting it in one piece.

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "data/schema.h"
#include "fuzz_target.h"
#include "protocol_oracle.h"
#include "serve/conn.h"
#include "serve/protocol.h"
#include "util/logging.h"
#include "util/rng.h"

namespace {

const qikey::Schema& FuzzSchema() {
  // Names past the 15-byte small-string limit, one-letter names, and a
  // duplicate (the first occurrence must win).
  static const qikey::Schema schema({"zip", "dob", "name",
                                     "horiz_dist_hydrology", "a", "dob",
                                     "elevation_meters_above_sea", "x1"});
  return schema;
}

void CheckParserMatchesOracle(std::string_view line) {
  const qikey::Schema& schema = FuzzSchema();
  qikey::Result<qikey::QueryRequest> got =
      qikey::ParseQueryRequest(line, schema);
  qikey::Result<qikey::QueryRequest> want =
      qikey::protocol_oracle::ParseQueryRequest(line, schema);
  QIKEY_CHECK(got.ok() == want.ok())
      << "parser and oracle disagree on ok for '" << line << "': "
      << got.status().ToString() << " vs " << want.status().ToString();
  if (!got.ok()) {
    QIKEY_CHECK(got.status() == want.status())
        << "error differs for '" << line << "': " << got.status().ToString()
        << " vs " << want.status().ToString();
    return;
  }
  QIKEY_CHECK(got->kind == want->kind && got->attrs == want->attrs &&
              got->rhs == want->rhs && got->k == want->k)
      << "request differs for '" << line << "'";
  if (got->kind == qikey::QueryKind::kMinKey) return;

  // Round trip through the wire encoder's attribute list (the min-key
  // payload is `ok <list> <count>`).
  qikey::QueryRequest min_key;
  min_key.kind = qikey::QueryKind::kMinKey;
  qikey::QueryResponse response;
  response.has_key = true;
  response.key = got->attrs;
  std::string encoded = qikey::EncodeResponseLine(min_key, response, schema);
  QIKEY_CHECK(encoded.rfind("ok ", 0) == 0 && encoded.size() > 5) << encoded;
  std::string list = encoded.substr(3, encoded.rfind(' ') - 3);
  qikey::Result<qikey::QueryRequest> again =
      qikey::ParseQueryRequest("is-key " + list, schema);
  QIKEY_CHECK(again.ok() && again->attrs == got->attrs)
      << "attribute list '" << list << "' does not round-trip";
}

std::vector<std::string> SplitAll(qikey::LineSplitter* splitter,
                                  std::string_view stream,
                                  const std::vector<size_t>& cuts,
                                  bool* overflowed) {
  std::vector<std::string> lines;
  size_t begin = 0;
  for (size_t i = 0; i <= cuts.size(); ++i) {
    size_t end = i < cuts.size() ? cuts[i] : stream.size();
    std::string buf(splitter->buffered_bytes(), '\0');
    splitter->CopyCarry(buf.data());
    buf.append(stream.substr(begin, end - begin));
    std::vector<std::string_view> views;
    bool ok = splitter->Split(buf, &views);
    for (std::string_view view : views) lines.emplace_back(view);
    begin = end;
    if (!ok) break;
  }
  *overflowed = splitter->overflowed();
  return lines;
}

void CheckChunkingIsInvisible(std::string_view stream) {
  // A small cap so the overflow trip wire fires on fuzz-sized inputs.
  constexpr size_t kMaxLine = 24;
  qikey::LineSplitter one_shot(kMaxLine);
  bool want_overflow = false;
  std::vector<std::string> want = SplitAll(&one_shot, stream, {}, &want_overflow);
  qikey::Rng rng(std::hash<std::string_view>{}(stream));
  for (int round = 0; round < 3; ++round) {
    std::vector<size_t> cuts;
    for (size_t pos = 0; pos < stream.size();) {
      pos += 1 + rng.Uniform(round == 0 ? 2 : 12);
      if (pos < stream.size()) cuts.push_back(pos);
    }
    qikey::LineSplitter chunked(kMaxLine);
    bool overflow = false;
    std::vector<std::string> got = SplitAll(&chunked, stream, cuts, &overflow);
    QIKEY_CHECK(got == want && overflow == want_overflow)
        << "chunked framing differs from one-shot framing";
    QIKEY_CHECK(chunked.buffered_bytes() == one_shot.buffered_bytes());
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  (void)qikey::ParseHelloLine(text);
  (void)qikey::ParseQueryRequests(text, FuzzSchema());
  // The whole input as one line, then each of its lines.
  CheckParserMatchesOracle(text);
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    CheckParserMatchesOracle(line);
    (void)qikey::ParseHelloLine(line);
    pos = eol + 1;
  }
  CheckChunkingIsInvisible(text);
  return 0;
}

std::vector<std::string> FuzzSeedInputs() {
  return {
      "is-key zip,dob",
      "is-key horiz_dist_hydrology,elevation_meters_above_sea,a\n",
      "separation name,x1\r\nmin-key\r\n",
      "afd zip,dob -> name\n",
      "anonymity zip,horiz_dist_hydrology 3\n",
      "anonymity a 007\nanonymity a \v2\n",
      "QIKEY/1\nis-key dob,dob,zip\n\nstats\n",
      "is-key zip,,dob\nis-key nope\nbogus verb\n",
      "  is-key\t a \t\nmin-key extra\n",
      "afd a -> a\nafd a => b\nanonymity a 0\n",
  };
}
