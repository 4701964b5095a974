// Keeps every CPU of a virtual machine from halting while the benchmark
// measures. On a VM, a halted vCPU woken by a packet or a futex waits for
// the host to schedule it again; that wait shows as steal time and as
// millisecond latency spikes whose size depends on the host's other load.
// One SCHED_IDLE spinner per CPU (the in-process equivalent of booting with
// idle=poll) keeps the vCPUs running: it yields to any other runnable
// thread at once, and per-process CPU accounting of the stack is unchanged.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

namespace livebench {

class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

}  // namespace livebench
