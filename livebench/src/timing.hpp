// Monotonic nanosecond clock shared by the generator, the spans and the
// phase bookkeeping (CLOCK_MONOTONIC, the same base clock_nanosleep uses).
#pragma once

#include <time.h>

#include <cstdint>

namespace livebench {

inline std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

}  // namespace livebench
