// Test parameter naming the QoS server's execution model. The server has one
// model — a shared FIFO (the socket's kernel receive queue) drained by N
// run-to-completion workers. The suites parameterized on it used to run once
// per threading mode; the single value keeps their
// "Modes/<Suite>.<Test>/SharedQueue" ids, so results stay comparable across
// the change that removed the other mode.
#pragma once

#include <gtest/gtest.h>

namespace janus::testing {

enum class ServerModel { kSharedQueue };

inline auto AllServerModels() {
  return ::testing::Values(ServerModel::kSharedQueue);
}

inline const char* server_model_name(ServerModel) { return "SharedQueue"; }

}  // namespace janus::testing
