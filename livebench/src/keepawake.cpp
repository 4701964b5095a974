#include "keepawake.hpp"

#include <pthread.h>
#include <sched.h>

namespace livebench {

KeepAwake::KeepAwake() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    spinners_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true);
  for (auto& t : spinners_) t.join();
}

}  // namespace livebench
