#ifndef QIKEY_SERVE_PROTOCOL_H_
#define QIKEY_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/schema.h"
#include "serve/request.h"
#include "util/status.h"

namespace qikey {

/// \brief The versioned serve-layer wire API, v1 (`QIKEY/1`).
///
/// This header is the ONE definition of the wire protocol: the request
/// parser and the response encoder here are shared by the batch
/// executor (`qikey query --requests`), the network server
/// (`qikey serve`), and the tests — there is no second copy to drift.
///
/// ## Framing
///
/// Newline-delimited text over TCP. On connect the server greets with a
/// hello line, then every client line is one request and produces
/// exactly one response line, in order:
///
///   server: QIKEY/1 ready
///   client: is-key zip,dob
///   server: ok accept
///   client: afd zip,dob -> name
///   server: ok 0.00123 0.0456 42
///   client: nonsense
///   server: err parse unknown request verb 'nonsense' ...
///
/// A client may send `QIKEY/1` as a line at any time to assert the
/// version; the server answers `ok v1` (an unsupported `QIKEY/<n>`
/// gets `err validation ...`).
///
/// ## Admin verbs
///
///   stats
///
/// Answered by the server itself (never the query engine) with one
/// `ok <json>` line: the server's full metrics snapshot as a single
/// line of JSON (`MetricsSnapshot::RenderJson` — sorted keys, integer
/// values), e.g.
///
///   client: stats
///   server: ok {"counters":{...},"gauges":{...},"histograms":{...}}
///
/// `stats` goes through normal admission (it is a request line like
/// any other, counted and shed the same way), so its cost under
/// overload is bounded. The batch executor (`qikey query --stats`)
/// reports through the same JSON schema.
///
/// ## Requests (grammar, tokens separated by spaces/tabs)
///
///   is-key     <attr>[,<attr>...]
///   separation <attr>[,<attr>...]
///   min-key
///   afd        <attr>[,<attr>...] -> <attr>
///   anonymity  <attr>[,<attr>...] [k]
///
/// Parsing is strict: unknown verbs, unknown or empty attribute names,
/// malformed integers, and trailing junk are errors — nothing is
/// silently coerced.
///
/// ## Responses (tagged lines)
///
///   ok <payload>            — per-kind payload, see EncodeResponseLine
///   err <code> <message>    — code from ServeErrorCode wire names
///
/// Payload encodings (v1; floats use "%.9g"):
///   is-key      ok accept | ok reject
///   separation  ok <ratio> key|gray|bad
///   min-key     ok none 0 | ok <attr>[,<attr>...] <num_minimal>
///   afd         ok <g2> <conditional> <violating>
///   anonymity   ok <level> <below_k_fraction>
///
/// ## Request files
///
/// One request per line; blank lines and `#` comments skipped. A file
/// may begin with a `QIKEY/<n>` hello line naming its protocol
/// version; files without one are treated as v1 (the pre-versioning
/// format), so old request files keep parsing unchanged.
enum class ProtocolVersion : uint32_t {
  kV1 = 1,
};

/// The newest version this build speaks.
inline constexpr ProtocolVersion kProtocolCurrent = ProtocolVersion::kV1;

/// The v1 hello / version-assertion line.
inline constexpr std::string_view kHelloV1 = "QIKEY/1";

/// The admin verb returning the server's metrics snapshot.
inline constexpr std::string_view kStatsVerb = "stats";

/// True if `line` looks like a protocol hello (`QIKEY/<digits>`),
/// whether or not the version is one we support.
bool IsHelloLine(std::string_view line);

/// Parses `QIKEY/<n>`. InvalidArgument for malformed hellos or
/// versions this build does not speak.
Result<ProtocolVersion> ParseHelloLine(std::string_view line);

/// The server's greeting for `version`, without the newline
/// ("QIKEY/1 ready").
std::string FormatHelloLine(ProtocolVersion version);

/// Stable wire name of an error code ("parse", "validation",
/// "overload", "unavailable", "internal"). `kNone` has no wire name
/// (ok lines carry no code) and renders as "none" for diagnostics.
const char* ServeErrorCodeName(ServeErrorCode code);

/// Maps a non-OK `Status` from the serve boundary to its taxonomy
/// bucket: InvalidArgument/OutOfRange -> validation, NotFound ->
/// unavailable, everything else -> internal. (Parse and overload
/// errors are tagged at their source, not inferred from a status.)
ServeErrorCode ServeErrorCodeFromStatus(const Status& status);

/// \brief Parses one request line into `*request`. Strict — see the
/// grammar above. The failed status's taxonomy bucket is `kParse` for
/// grammar errors and unknown attributes alike (the line, not the
/// snapshot, is wrong).
///
/// This is the one request parser. It builds no temporaries on the
/// success path: tokens and attribute names are views into `line`, and
/// `request->attrs` is reset in place, so a caller that recycles its
/// `QueryRequest`s (the server's per-shard batch) parses without heap
/// allocation. On failure `*request` holds no meaningful request.
Status ParseQueryRequestInto(std::string_view line, const Schema& schema,
                             QueryRequest* request);

/// `ParseQueryRequestInto` into a fresh request.
Result<QueryRequest> ParseQueryRequest(std::string_view line,
                                       const Schema& schema);

/// Parses a whole request file body: one request per line, blank lines
/// and `#` comments skipped. A leading `QIKEY/<n>` hello line selects
/// the protocol version (and is not a request); absent, the body is
/// treated as v1. Errors name the offending 1-based line.
Result<std::vector<QueryRequest>> ParseQueryRequests(std::string_view text,
                                                     const Schema& schema);

/// Reads `path` and parses it with `ParseQueryRequests`.
Result<std::vector<QueryRequest>> LoadQueryRequestFile(
    const std::string& path, const Schema& schema);

/// \brief Appends one response's v1 wire line (no trailing newline) to
/// `*out`: `ok <payload>` on success, `err <code> <message>` otherwise.
/// Deterministic: two equal responses encode to the same bytes, so
/// server output can be diffed against the batch executor. `cache_hit`
/// and `epoch` are latency/bookkeeping metadata and are deliberately
/// NOT part of the wire payload. The server appends straight into a
/// connection's write buffer.
void AppendResponseLine(const QueryRequest& request,
                        const QueryResponse& response, const Schema& schema,
                        std::string* out);

/// `AppendResponseLine` into a fresh string.
std::string EncodeResponseLine(const QueryRequest& request,
                               const QueryResponse& response,
                               const Schema& schema);

/// Appends an `err <code> <message>` line (no trailing newline) for
/// failures that never produced a response — admission-control sheds,
/// oversized lines, unsupported versions. Newlines in `message` are
/// flattened to spaces (the message must not break framing).
void AppendErrorLine(ServeErrorCode code, std::string_view message,
                     std::string* out);

/// `AppendErrorLine` into a fresh string.
std::string EncodeErrorLine(ServeErrorCode code, std::string_view message);

}  // namespace qikey

#endif  // QIKEY_SERVE_PROTOCOL_H_
