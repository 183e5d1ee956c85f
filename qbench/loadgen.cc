#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ctime>
#include <thread>

#include "util.h"

namespace qbench {

namespace {

/// How long a phase waits for its last answers after its last send.
constexpr int64_t kDrainNs = 2'000'000'000;
/// Saturation throughput is the median of per-window rates.
constexpr int64_t kSaturationWindowNs = 250'000'000;

int OpenConnection(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Waits up to `timeout_ns` for `fd` to become readable (and writable,
/// when `want_write`). Returns poll's revents (0 on timeout).
short WaitFd(int fd, bool want_write, int64_t timeout_ns) {
  pollfd p{fd, static_cast<short>(POLLIN | (want_write ? POLLOUT : 0)), 0};
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  int rc = ppoll(&p, 1, &ts, nullptr);
  return rc > 0 ? p.revents : 0;
}

/// Reads what is available on `fd` into `buffer`; false on EOF/error.
/// Re-arms quick ACKs after every read, so the client's delayed ACKs
/// never hold back the server's next (Nagle-buffered) answers.
bool ReadAvailable(int fd, std::string* buffer) {
  char chunk[65536];
  ssize_t n = recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  if (n > 0) {
    buffer->append(chunk, static_cast<size_t>(n));
    return true;
  }
  return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
}

/// Pops one complete line off the front of `buffer`.
bool PopLine(std::string* buffer, std::string* line) {
  size_t nl = buffer->find('\n');
  if (nl == std::string::npos) return false;
  line->assign(*buffer, 0, nl);
  buffer->erase(0, nl + 1);
  return true;
}

/// Blocks (up to 5 s) for one line.
bool RecvLine(int fd, std::string* buffer, std::string* line) {
  int64_t deadline = NowNs() + 5'000'000'000;
  while (!PopLine(buffer, line)) {
    int64_t left = deadline - NowNs();
    if (left <= 0) return false;
    if (WaitFd(fd, false, left) & (POLLIN | POLLHUP | POLLERR)) {
      if (!ReadAvailable(fd, buffer)) return false;
    }
  }
  return true;
}

/// Per-connection share of one phase.
struct ConnPhase {
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::vector<std::string> expected;
  std::vector<std::string> got;
  int64_t first_answer_ns = 0;
  int64_t last_answer_ns = 0;
  bool broken = false;
};

}  // namespace

LoadClient::LoadClient(uint16_t port, int server_pid, size_t conns,
                       const std::vector<std::string>* lines,
                       const std::vector<std::string>* expected)
    : port_(port),
      server_pid_(server_pid),
      fds_(conns, -1),
      pending_input_(conns),
      lines_(lines),
      expected_(expected) {}

LoadClient::~LoadClient() {
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
}

bool LoadClient::Reconnect(size_t conn) {
  if (fds_[conn] >= 0) close(fds_[conn]);
  pending_input_[conn].clear();
  fds_[conn] = OpenConnection(port_);
  if (fds_[conn] < 0) return false;
  std::string greeting;
  return RecvLine(fds_[conn], &pending_input_[conn], &greeting) &&
         greeting.rfind("QIKEY/", 0) == 0;
}

bool LoadClient::Connect() {
  for (size_t c = 0; c < fds_.size(); ++c) {
    if (!Reconnect(c)) return false;
  }
  return true;
}

PhaseResult LoadClient::RunPhase(double rate, double seconds,
                                 uint64_t* cursor) {
  const size_t conns = fds_.size();
  const size_t per_conn = std::max<size_t>(
      1, static_cast<size_t>(std::llround(seconds * rate / conns)));
  const double interval_ns = 1e9 * static_cast<double>(conns) / rate;
  const uint64_t base = *cursor;
  *cursor += per_conn * conns;

  std::vector<ConnPhase> parts(conns);
  int64_t cpu_before = ProcessRunNs(server_pid_);
  const int64_t start = NowNs() + 20'000'000;

  auto run_conn = [&](size_t c) {
    ConnPhase& part = parts[c];
    int fd = fds_[c];
    std::string& in = pending_input_[c];
    std::string out;
    const double offset_ns = interval_ns * static_cast<double>(c) /
                             static_cast<double>(conns);
    auto sched = [&](size_t i) {
      return start + static_cast<int64_t>(offset_ns + interval_ns * i);
    };
    part.latency_us.reserve(per_conn);
    part.late_us.reserve(per_conn);
    part.expected.reserve(per_conn);
    part.got.reserve(per_conn);
    size_t next = 0;
    size_t answered = 0;
    const int64_t deadline = sched(per_conn - 1) + kDrainNs;
    std::string line;
    while (answered < per_conn) {
      int64_t now = NowNs();
      if (now > deadline) break;
      while (next < per_conn && sched(next) <= now) {
        size_t index = (base + next * conns + c) % lines_->size();
        out += (*lines_)[index];
        out += '\n';
        part.expected.push_back((*expected_)[index]);
        part.late_us.push_back((now - sched(next)) / 1e3);
        ++next;
      }
      if (!out.empty()) {
        ssize_t n = send(fd, out.data(), out.size(),
                         MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n > 0) {
          out.erase(0, static_cast<size_t>(n));
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          part.broken = true;
          break;
        }
      }
      int64_t wait = next < per_conn ? sched(next) - NowNs()
                                     : deadline - NowNs();
      short events = WaitFd(fd, !out.empty(), std::max<int64_t>(wait, 0));
      if (events & (POLLIN | POLLHUP | POLLERR)) {
        if (!ReadAvailable(fd, &in)) {
          part.broken = true;
          break;
        }
        int64_t got_ns = NowNs();
        while (answered < next && PopLine(&in, &line)) {
          part.latency_us.push_back((got_ns - sched(answered)) / 1e3);
          part.got.push_back(line);
          if (part.got.size() == 1) part.first_answer_ns = got_ns;
          part.last_answer_ns = got_ns;
          ++answered;
        }
      }
    }
    // Unsent requests are failures too: the diff counts them missing.
    for (; next < per_conn; ++next) {
      part.expected.push_back((*expected_)[(base + next * conns + c) %
                                           lines_->size()]);
    }
  };

  std::vector<std::thread> threads;
  for (size_t c = 1; c < conns; ++c) threads.emplace_back(run_conn, c);
  run_conn(0);
  for (std::thread& t : threads) t.join();
  int64_t cpu_after = ProcessRunNs(server_pid_);

  PhaseResult result;
  std::vector<double> late;
  int64_t first_answer = INT64_MAX;
  int64_t last_answer = 0;
  for (size_t c = 0; c < conns; ++c) {
    ConnPhase& part = parts[c];
    WireDiff d = DiffWire(part.expected, part.got);
    result.diff.matched += d.matched;
    result.diff.shed += d.shed;
    result.diff.mismatched += d.mismatched;
    result.diff.missing += d.missing;
    result.diff.extra += d.extra;
    result.latency_us.insert(result.latency_us.end(), part.latency_us.begin(),
                             part.latency_us.end());
    late.insert(late.end(), part.late_us.begin(), part.late_us.end());
    if (!part.got.empty()) {
      first_answer = std::min(first_answer, part.first_answer_ns);
      last_answer = std::max(last_answer, part.last_answer_ns);
    }
    // A connection that lost answers is out of step: start it afresh.
    if (part.broken || d.missing > 0) Reconnect(c);
  }
  std::sort(result.latency_us.begin(), result.latency_us.end());
  std::sort(late.begin(), late.end());

  LadderStep& step = result.step;
  step.offered_per_s = rate;
  step.attempted = per_conn * conns;
  step.failed = result.diff.failed();
  // The service rate: answers over the time between the first and the
  // last one. A constant latency cancels out; a growing backlog
  // stretches the interval and lowers the rate.
  const size_t answered = result.latency_us.size();
  if (answered > 1 && last_answer > first_answer) {
    step.achieved_per_s = static_cast<double>(answered - 1) * 1e9 /
                          static_cast<double>(last_answer - first_answer);
  }
  result.tail_q = TailPercentile(result.latency_us.size());
  step.tail_us = Percentile(result.latency_us, result.tail_q);
  step.late_p99_us = Percentile(late, 99.0);
  if (cpu_before >= 0 && cpu_after >= cpu_before) {
    result.server_cpu_us = (cpu_after - cpu_before) / 1e3;
  }
  return result;
}

double LoadClient::Saturate(size_t window, double seconds, uint64_t* cursor,
                            WireDiff* diff) {
  const size_t conns = fds_.size();
  const uint64_t base = *cursor;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::vector<int64_t>> answer_ns(conns);
  std::vector<WireDiff> diffs(conns);
  std::vector<size_t> sent_count(conns, 0);

  auto run_conn = [&](size_t c) {
    int fd = fds_[c];
    std::string& in = pending_input_[c];
    std::vector<std::string> expected, got;
    std::string out, line;
    size_t sent = 0;
    auto index = [&](size_t i) {
      return (base + i * conns + c) % lines_->size();
    };
    bool broken = false;
    while (!broken) {
      const int64_t now = NowNs();
      const bool sending = now < end;
      if (!sending && got.size() == sent) break;
      if (now > end + kDrainNs) break;
      while (sending && sent - got.size() < window) {
        out += (*lines_)[index(sent)];
        out += '\n';
        expected.push_back((*expected_)[index(sent)]);
        ++sent;
      }
      while (!out.empty()) {
        ssize_t n = send(fd, out.data(), out.size(), MSG_NOSIGNAL);
        if (n <= 0 && errno != EINTR) {
          broken = true;
          break;
        }
        if (n > 0) out.erase(0, static_cast<size_t>(n));
      }
      if (WaitFd(fd, false, 10'000'000) & (POLLIN | POLLHUP | POLLERR)) {
        if (!ReadAvailable(fd, &in)) break;
        const int64_t got_ns = NowNs();
        while (got.size() < sent && PopLine(&in, &line)) {
          got.push_back(line);
          answer_ns[c].push_back(got_ns);
        }
      }
    }
    diffs[c] = DiffWire(expected, got);
    sent_count[c] = sent;
    if (diffs[c].missing > 0) Reconnect(c);
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < conns; ++c) threads.emplace_back(run_conn, c);
  run_conn(0);
  for (std::thread& t : threads) t.join();

  std::vector<int64_t> all_ns;
  size_t max_sent = 0;
  *diff = WireDiff{};
  for (size_t c = 0; c < conns; ++c) {
    all_ns.insert(all_ns.end(), answer_ns[c].begin(), answer_ns[c].end());
    max_sent = std::max(max_sent, sent_count[c]);
    diff->matched += diffs[c].matched;
    diff->shed += diffs[c].shed;
    diff->mismatched += diffs[c].mismatched;
    diff->missing += diffs[c].missing;
    diff->extra += diffs[c].extra;
  }
  *cursor += max_sent * conns;
  // The first window is left out: the pipelines are still filling.
  return WindowedRate(all_ns, start + kSaturationWindowNs, end,
                      kSaturationWindowNs);
}

std::vector<double> LoadClient::Lockstep(size_t count, uint64_t* cursor,
                                         WireDiff* diff) {
  std::vector<double> rtt_us;
  std::vector<std::string> expected, got;
  int fd = fds_[0];
  std::string& in = pending_input_[0];
  std::string line;
  for (size_t i = 0; i < count; ++i) {
    size_t index = (*cursor)++ % lines_->size();
    std::string request = (*lines_)[index] + "\n";
    int64_t t0 = NowNs();
    if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(request.size()) ||
        !RecvLine(fd, &in, &line)) {
      break;
    }
    rtt_us.push_back((NowNs() - t0) / 1e3);
    expected.push_back((*expected_)[index]);
    got.push_back(line);
  }
  expected.resize(count, "");
  *diff = DiffWire(expected, got);
  return rtt_us;
}

}  // namespace qbench
