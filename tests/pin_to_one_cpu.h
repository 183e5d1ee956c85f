#ifndef QIKEY_TESTS_PIN_TO_ONE_CPU_H_
#define QIKEY_TESTS_PIN_TO_ONE_CPU_H_

// Affinity guard shared by tests that check a work-sized worker count
// falls to one when the process may run on one CPU only.

#include <sched.h>

namespace qikey {

/// Pins the calling thread to one CPU of its mask; restores the mask
/// when destroyed.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    ok_ = ::sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    if (!ok_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    ok_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToOneCpu() {
    if (ok_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

}  // namespace qikey

#endif  // QIKEY_TESTS_PIN_TO_ONE_CPU_H_
