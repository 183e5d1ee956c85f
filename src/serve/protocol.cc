#include "serve/protocol.h"

#include <bit>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>

namespace qikey {

namespace {

/// The leading tokens of a request line (runs of bytes other than
/// space/tab, the grammar's separator) and how many tokens it has in
/// all. No verb takes more than `kMax`, so a longer line is an arity
/// error whatever its later tokens are.
struct Tokens {
  static constexpr size_t kMax = 4;
  std::string_view at[kMax];
  size_t count = 0;
};

bool IsSeparator(char c) { return c == ' ' || c == '\t'; }

/// Position of the first space or tab at or after `i`, or `line.size()`.
/// Tests eight bytes per step (a byte equals the separator iff it XORs
/// to zero; the lowest flagged byte is always a true match), because an
/// attribute list is most of a request line.
size_t NextSeparator(std::string_view line, size_t i) {
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kHighs = 0x8080808080808080ULL;
  for (; i + 8 <= line.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, line.data() + i, 8);
    uint64_t space = word ^ (kOnes * ' ');
    uint64_t tab = word ^ (kOnes * '\t');
    uint64_t zero =
        ((space - kOnes) & ~space) | ((tab - kOnes) & ~tab);
    if ((zero & kHighs) != 0) {
      return i + static_cast<size_t>(std::countr_zero(zero & kHighs)) / 8;
    }
  }
  while (i < line.size() && !IsSeparator(line[i])) ++i;
  return i;
}

Tokens Tokenize(std::string_view line) {
  Tokens tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsSeparator(line[i])) ++i;
    size_t begin = i;
    i = NextSeparator(line, i);
    if (i > begin) {
      if (tokens.count < Tokens::kMax) {
        tokens.at[tokens.count] = line.substr(begin, i - begin);
      }
      ++tokens.count;
    }
  }
  return tokens;
}

/// Resolves "a,b,c" strictly into `*out` (reset in place): every name
/// must be non-empty and in the schema (so `a,,b` and typos fail
/// instead of shrinking the set).
Status ResolveAttrList(std::string_view spec, const Schema& schema,
                       AttributeSet* out) {
  out->Reset(schema.num_attributes());
  size_t pos = 0;
  while (true) {
    size_t comma = spec.find(',', pos);
    std::string_view name = spec.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    if (name.empty()) {
      return Status::InvalidArgument("empty attribute name in '" +
                                     std::string(spec) + "'");
    }
    int idx = schema.Find(name);
    if (idx < 0) {
      return Status::InvalidArgument("unknown attribute: " +
                                     std::string(name));
    }
    out->Add(static_cast<AttributeIndex>(idx));
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return Status::OK();
}

/// Strict non-negative integer: the whole token must be ASCII digits
/// (no sign, no whitespace of any kind) and fit in 64 bits.
bool ParseStrictUint(std::string_view token, uint64_t* out) {
  if (token.empty()) return false;
  uint64_t v = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

void AppendUint(uint64_t v, std::string* out) {
  char buf[24];
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, end);
}

/// Comma-joined attribute names ("zip,dob"), the wire form of a set
/// (no braces or spaces — one token on the response line).
void AppendWireAttrList(const AttributeSet& attrs, const Schema& schema,
                        std::string* out) {
  bool first = true;
  std::span<const uint64_t> words = attrs.words();
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      if (!first) out->push_back(',');
      first = false;
      out->append(schema.name(static_cast<AttributeIndex>(
          w * 64 + static_cast<size_t>(std::countr_zero(bits)))));
    }
  }
}

/// Shortest round-trippable float rendering used by every v1 payload.
void AppendWireDouble(double v, std::string* out) {
  char buf[40];
  int n = std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf, static_cast<size_t>(n));
}

}  // namespace

bool IsHelloLine(std::string_view line) {
  constexpr std::string_view kPrefix = "QIKEY/";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  std::string_view digits = line.substr(kPrefix.size());
  if (digits.empty()) return false;
  for (char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

Result<ProtocolVersion> ParseHelloLine(std::string_view line) {
  if (!IsHelloLine(line)) {
    return Status::InvalidArgument("malformed protocol hello '" +
                                   std::string(line) +
                                   "' (want QIKEY/<version>)");
  }
  uint64_t version = 0;
  if (!ParseStrictUint(line.substr(6), &version) ||
      version != static_cast<uint64_t>(ProtocolVersion::kV1)) {
    return Status::InvalidArgument(
        "unsupported protocol version '" + std::string(line) +
        "' (this build speaks QIKEY/1)");
  }
  return ProtocolVersion::kV1;
}

std::string FormatHelloLine(ProtocolVersion version) {
  return "QIKEY/" + std::to_string(static_cast<uint32_t>(version)) +
         " ready";
}

const char* ServeErrorCodeName(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kNone:
      return "none";
    case ServeErrorCode::kParse:
      return "parse";
    case ServeErrorCode::kValidation:
      return "validation";
    case ServeErrorCode::kOverload:
      return "overload";
    case ServeErrorCode::kSnapshotUnavailable:
      return "unavailable";
    case ServeErrorCode::kInternal:
      return "internal";
  }
  return "internal";
}

ServeErrorCode ServeErrorCodeFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return ServeErrorCode::kNone;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return ServeErrorCode::kValidation;
    case StatusCode::kNotFound:
      return ServeErrorCode::kSnapshotUnavailable;
    default:
      return ServeErrorCode::kInternal;
  }
}

Status ParseQueryRequestInto(std::string_view line, const Schema& schema,
                             QueryRequest* request) {
  Tokens tokens = Tokenize(line);
  if (tokens.count == 0) {
    return Status::InvalidArgument("empty request");
  }
  std::string_view verb = tokens.at[0];
  request->rhs = 0;
  request->k = 2;
  if (verb == "min-key") {
    if (tokens.count != 1) {
      return Status::InvalidArgument("min-key takes no arguments");
    }
    request->kind = QueryKind::kMinKey;
    request->attrs.Reset(schema.num_attributes());
    return Status::OK();
  }
  if (verb == "is-key" || verb == "separation") {
    if (tokens.count != 2) {
      return Status::InvalidArgument(std::string(verb) +
                                     " wants exactly one attribute list");
    }
    QIKEY_RETURN_NOT_OK(ResolveAttrList(tokens.at[1], schema, &request->attrs));
    request->kind =
        verb == "is-key" ? QueryKind::kIsKey : QueryKind::kSeparation;
    return Status::OK();
  }
  if (verb == "afd") {
    if (tokens.count != 4 || tokens.at[2] != "->") {
      return Status::InvalidArgument("afd wants: afd <lhs,...> -> <rhs>");
    }
    QIKEY_RETURN_NOT_OK(ResolveAttrList(tokens.at[1], schema, &request->attrs));
    int rhs = schema.Find(tokens.at[3]);
    if (rhs < 0) {
      return Status::InvalidArgument("unknown attribute: " +
                                     std::string(tokens.at[3]));
    }
    request->kind = QueryKind::kAfd;
    request->rhs = static_cast<AttributeIndex>(rhs);
    return Status::OK();
  }
  if (verb == "anonymity") {
    if (tokens.count != 2 && tokens.count != 3) {
      return Status::InvalidArgument(
          "anonymity wants: anonymity <attrs,...> [k]");
    }
    QIKEY_RETURN_NOT_OK(ResolveAttrList(tokens.at[1], schema, &request->attrs));
    request->kind = QueryKind::kAnonymity;
    if (tokens.count == 3) {
      uint64_t k = 0;
      if (!ParseStrictUint(tokens.at[2], &k) || k == 0) {
        return Status::InvalidArgument("anonymity k must be a positive "
                                       "integer, got '" +
                                       std::string(tokens.at[2]) + "'");
      }
      request->k = k;
    }
    return Status::OK();
  }
  return Status::InvalidArgument(
      "unknown request verb '" + std::string(verb) +
      "' (want is-key|separation|min-key|afd|anonymity)");
}

Result<QueryRequest> ParseQueryRequest(std::string_view line,
                                       const Schema& schema) {
  QueryRequest request;
  QIKEY_RETURN_NOT_OK(ParseQueryRequestInto(line, schema, &request));
  return request;
}

Result<std::vector<QueryRequest>> ParseQueryRequests(std::string_view text,
                                                     const Schema& schema) {
  std::vector<QueryRequest> requests;
  bool saw_request_or_hello = false;
  size_t line_number = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    // Skip blanks and comments; everything else must parse.
    size_t first = line.find_first_not_of(" \t");
    if (first != std::string_view::npos && line[first] != '#') {
      size_t last = line.find_last_not_of(" \t");
      std::string_view body = line.substr(first, last - first + 1);
      // A leading QIKEY/<n> line is the file's version header, not a
      // request. Files without one are the pre-versioning format and
      // parse as v1 unchanged; v1 is also the only wire format, so the
      // header changes nothing but gets validated.
      if (!saw_request_or_hello && IsHelloLine(body)) {
        Result<ProtocolVersion> version = ParseHelloLine(body);
        if (!version.ok()) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) + ": " +
              version.status().message());
        }
        saw_request_or_hello = true;
      } else {
        saw_request_or_hello = true;
        Result<QueryRequest> request = ParseQueryRequest(line, schema);
        if (!request.ok()) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) + ": " +
              request.status().message());
        }
        requests.push_back(std::move(*request));
      }
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return requests;
}

Result<std::vector<QueryRequest>> LoadQueryRequestFile(
    const std::string& path, const Schema& schema) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  std::string text;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::IOError("cannot read " + path);
  return ParseQueryRequests(text, schema);
}

void AppendResponseLine(const QueryRequest& request,
                        const QueryResponse& response, const Schema& schema,
                        std::string* out) {
  if (!response.status.ok()) {
    ServeErrorCode code = response.error_code != ServeErrorCode::kNone
                              ? response.error_code
                              : ServeErrorCodeFromStatus(response.status);
    AppendErrorLine(code, response.status.message(), out);
    return;
  }
  out->append("ok ");
  switch (request.kind) {
    case QueryKind::kIsKey:
      out->append(response.verdict == FilterVerdict::kAccept ? "accept"
                                                             : "reject");
      break;
    case QueryKind::kSeparation: {
      const char* cls =
          response.separation_class == SeparationClass::kKey ? "key"
          : response.separation_class == SeparationClass::kBad ? "bad"
                                                               : "gray";
      AppendWireDouble(response.separation_ratio, out);
      out->push_back(' ');
      out->append(cls);
      break;
    }
    case QueryKind::kMinKey:
      if (response.has_key) {
        AppendWireAttrList(response.key, schema, out);
      } else {
        out->append("none");
      }
      out->push_back(' ');
      AppendUint(response.num_minimal_keys, out);
      break;
    case QueryKind::kAfd:
      AppendWireDouble(response.afd.g2, out);
      out->push_back(' ');
      AppendWireDouble(response.afd.conditional, out);
      out->push_back(' ');
      AppendUint(response.afd.violating, out);
      break;
    case QueryKind::kAnonymity:
      AppendUint(response.anonymity_level, out);
      out->push_back(' ');
      AppendWireDouble(response.below_k_fraction, out);
      break;
  }
}

std::string EncodeResponseLine(const QueryRequest& request,
                               const QueryResponse& response,
                               const Schema& schema) {
  std::string out;
  AppendResponseLine(request, response, schema, &out);
  return out;
}

void AppendErrorLine(ServeErrorCode code, std::string_view message,
                     std::string* out) {
  out->append("err ");
  out->append(ServeErrorCodeName(code == ServeErrorCode::kNone
                                     ? ServeErrorCode::kInternal
                                     : code));
  if (!message.empty()) {
    out->push_back(' ');
    for (char c : message) {
      out->push_back((c == '\n' || c == '\r') ? ' ' : c);
    }
  }
}

std::string EncodeErrorLine(ServeErrorCode code, std::string_view message) {
  std::string out;
  AppendErrorLine(code, message, &out);
  return out;
}

}  // namespace qikey
