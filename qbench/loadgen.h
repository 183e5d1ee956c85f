// Open-loop QIKEY/1 load generator: each connection sends its share of
// a fixed schedule regardless of how fast answers come back, so a slow
// server accumulates queueing delay instead of slowing the load.
// Latency is timed from each request's scheduled send time.
#ifndef QBENCH_LOADGEN_H_
#define QBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "logic.h"

namespace qbench {

/// What one phase of constant offered rate measured.
struct PhaseResult {
  LadderStep step;
  std::vector<double> latency_us;  ///< answered requests, ascending
  WireDiff diff;                   ///< every answer vs its expected line
  double server_cpu_us = 0;        ///< server CPU spent during the phase
  double tail_q = 50;              ///< percentile used for `step.tail_us`
};

class LoadClient {
 public:
  /// `lines[i]` is a request and `expected[i]` its exact answer.
  LoadClient(uint16_t port, int server_pid, size_t conns,
             const std::vector<std::string>* lines,
             const std::vector<std::string>* expected);
  ~LoadClient();

  /// Opens the connections and reads each greeting. False on failure.
  bool Connect();

  /// Offers `rate` requests/s for `seconds`, then waits (bounded) for
  /// the answers. Requests are taken cyclically from `lines`, starting
  /// at `*cursor`, which advances past the requests sent.
  PhaseResult RunPhase(double rate, double seconds, uint64_t* cursor);

  /// Closed loop: every connection keeps `window` requests outstanding
  /// for `seconds`. Returns the saturation throughput, the median over
  /// 250 ms windows of answers per second; `*diff` checks every answer.
  double Saturate(size_t window, double seconds, uint64_t* cursor,
                  WireDiff* diff);

  /// One request at a time: the round-trip time of each, in
  /// microseconds. Answers are checked like a phase's.
  std::vector<double> Lockstep(size_t count, uint64_t* cursor,
                               WireDiff* diff);

 private:
  bool Reconnect(size_t conn);

  uint16_t port_;
  int server_pid_;
  std::vector<int> fds_;
  std::vector<std::string> pending_input_;
  const std::vector<std::string>* lines_;
  const std::vector<std::string>* expected_;
};

}  // namespace qbench

#endif  // QBENCH_LOADGEN_H_
