#ifndef QIKEY_TESTS_PROTOCOL_ORACLE_H_
#define QIKEY_TESTS_PROTOCOL_ORACLE_H_

// Test-only reference request parser: the vector-of-tokens parser the
// allocation-free one replaced. Tokens are materialized into a vector,
// every attribute name is copied into a std::string and looked up by a
// linear scan of the schema, and each attribute list is resolved into a
// fresh set. Slow and obviously faithful to the grammar; the only
// change from the original is the strict integer rule (every byte of
// `k` must be a digit, no leading whitespace skipped), which the real
// parser also enforces.

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/attribute_set.h"
#include "data/schema.h"
#include "serve/request.h"
#include "util/status.h"

namespace qikey::protocol_oracle {

inline std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t begin = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > begin) tokens.push_back(line.substr(begin, i - begin));
  }
  return tokens;
}

/// First schema index named `name`, or -1.
inline int LinearFind(const Schema& schema, const std::string& name) {
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (schema.names()[i] == name) return static_cast<int>(i);
  }
  return -1;
}

inline Result<AttributeSet> ResolveAttrList(std::string_view spec,
                                            const Schema& schema) {
  AttributeSet out(schema.num_attributes());
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
    int idx = LinearFind(schema, std::string(name));
    if (idx < 0) {
      return Status::InvalidArgument("unknown attribute: " +
                                     std::string(name));
    }
    out.Add(static_cast<AttributeIndex>(idx));
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return out;
}

inline bool ParseStrictUint(std::string_view token, uint64_t* out) {
  if (token.empty()) return false;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
  }
  std::string buf(token);
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

inline Result<QueryRequest> ParseQueryRequest(std::string_view line,
                                              const Schema& schema) {
  std::vector<std::string_view> tokens = SplitTokens(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty request");
  }
  std::string_view verb = tokens[0];
  QueryRequest request;
  if (verb == "min-key") {
    if (tokens.size() != 1) {
      return Status::InvalidArgument("min-key takes no arguments");
    }
    request.kind = QueryKind::kMinKey;
    request.attrs = AttributeSet(schema.num_attributes());
    return request;
  }
  if (verb == "is-key" || verb == "separation") {
    if (tokens.size() != 2) {
      return Status::InvalidArgument(std::string(verb) +
                                     " wants exactly one attribute list");
    }
    Result<AttributeSet> attrs = ResolveAttrList(tokens[1], schema);
    if (!attrs.ok()) return attrs.status();
    request.kind =
        verb == "is-key" ? QueryKind::kIsKey : QueryKind::kSeparation;
    request.attrs = std::move(*attrs);
    return request;
  }
  if (verb == "afd") {
    if (tokens.size() != 4 || tokens[2] != "->") {
      return Status::InvalidArgument("afd wants: afd <lhs,...> -> <rhs>");
    }
    Result<AttributeSet> lhs = ResolveAttrList(tokens[1], schema);
    if (!lhs.ok()) return lhs.status();
    int rhs = LinearFind(schema, std::string(tokens[3]));
    if (rhs < 0) {
      return Status::InvalidArgument("unknown attribute: " +
                                     std::string(tokens[3]));
    }
    request.kind = QueryKind::kAfd;
    request.attrs = std::move(*lhs);
    request.rhs = static_cast<AttributeIndex>(rhs);
    return request;
  }
  if (verb == "anonymity") {
    if (tokens.size() != 2 && tokens.size() != 3) {
      return Status::InvalidArgument(
          "anonymity wants: anonymity <attrs,...> [k]");
    }
    Result<AttributeSet> attrs = ResolveAttrList(tokens[1], schema);
    if (!attrs.ok()) return attrs.status();
    request.kind = QueryKind::kAnonymity;
    request.attrs = std::move(*attrs);
    if (tokens.size() == 3) {
      uint64_t k = 0;
      if (!ParseStrictUint(tokens[2], &k) || k == 0) {
        return Status::InvalidArgument("anonymity k must be a positive "
                                       "integer, got '" +
                                       std::string(tokens[2]) + "'");
      }
      request.k = k;
    }
    return request;
  }
  return Status::InvalidArgument(
      "unknown request verb '" + std::string(verb) +
      "' (want is-key|separation|min-key|afd|anonymity)");
}

}  // namespace qikey::protocol_oracle

#endif  // QIKEY_TESTS_PROTOCOL_ORACLE_H_
