#ifndef QIKEY_UTIL_LOGGING_H_
#define QIKEY_UTIL_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

namespace qikey {

/// Severity levels for the library logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// \brief Minimal stream-style logger.
///
/// Usage: `QIKEY_LOG(INFO) << "built filter with " << r << " samples";`
/// Messages below the global threshold (default: kInfo) are dropped.
/// kFatal aborts the process after emitting the message.
///
/// The full line (prefix + message + newline) is buffered and emitted
/// with a single `write(2)` to stderr, so concurrent log lines from
/// the serve shards and pool tasks never interleave mid-line.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

  /// Sets the global minimum severity that is emitted.
  static void SetThreshold(LogLevel level);
  static LogLevel threshold();

  /// Switches log emission to JSON lines:
  ///   {"ts_ms":...,"level":"INFO","src":"file.cc:42","msg":"..."}
  /// (one object per line, message JSON-escaped). Default: plain text.
  static void SetJsonLines(bool enabled);
  static bool json_lines();

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

/// Writes `line` plus a trailing newline to stderr as one `write(2)`
/// (retrying on partial writes / EINTR), so it cannot interleave with
/// concurrent log or trace lines. Used for metrics dumps and request
/// traces, which are already fully formatted JSON.
void WriteRawLine(std::string_view line);

/// Internal: expands to a LogMessage for the given severity name.
#define QIKEY_LOG(severity)                                               \
  ::qikey::LogMessage(::qikey::LogLevel::k##severity, __FILE__, __LINE__) \
      .stream()

/// Checks a condition in all build modes; logs and aborts on failure.
#define QIKEY_CHECK(cond)                                      \
  if (!(cond)) QIKEY_LOG(Fatal) << "Check failed: " #cond " "

#define QIKEY_CHECK_OK(expr)                                        \
  do {                                                              \
    ::qikey::Status _st = (expr);                                   \
    if (!_st.ok()) QIKEY_LOG(Fatal) << "Status not OK: " << _st.ToString(); \
  } while (false)

#ifndef NDEBUG
#define QIKEY_DCHECK(cond) QIKEY_CHECK(cond)
#else
#define QIKEY_DCHECK(cond) \
  if (false) QIKEY_LOG(Fatal)
#endif

}  // namespace qikey

#endif  // QIKEY_UTIL_LOGGING_H_
