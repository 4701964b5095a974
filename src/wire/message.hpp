// The Janus key-value request/response messages (paper §II: "a QoS request
// comes with a QoS key... the QoS response is a boolean"). We add a request
// id for UDP retry matching, a cost field (multi-credit operations), and a
// status so a router's default reply is distinguishable from a real decision.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace janus::wire {

enum class RequestType : std::uint8_t {
  kCheck = 0,  // consume `cost` credits if available (the paper's operation)
  kProbe = 1,  // read-only: would a kCheck succeed? consumes nothing
  kSync = 2,   // admin: force re-read of the rule from the database
};

enum class ResponseStatus : std::uint8_t {
  kOk = 0,            // decision made by a QoS server
  kDefaultReply = 1,  // router exhausted retries; default policy applied
  kMalformed = 2,     // peer could not parse the request
  kOverloaded = 3,    // server FIFO full; request dropped
  kStaleEpoch = 4,    // cluster: request carried an old shard-map epoch; the
                      // server NACKs without deciding and the router re-routes
                      // against a refreshed map (DESIGN.md §11)
};

struct QosRequest {
  std::uint64_t request_id = 0;
  RequestType type = RequestType::kCheck;
  std::uint32_t cost = 1;
  std::string key;
  /// Optional end-to-end trace id (from the client's X-Janus-Trace header).
  /// Propagated router -> server inside the UDP frame (codec v2); both ends
  /// emit debug spans carrying it. Empty = untraced (codec v1 frame).
  std::string trace_id;
  /// Cluster shard-map epoch the sender routed against. 0 = not clustered
  /// (codec v1/v2 frame, byte-identical to the pre-cluster protocol). A
  /// non-zero epoch produces a v3 frame; a server whose live epoch differs
  /// replies kStaleEpoch instead of deciding.
  std::uint64_t epoch = 0;

  bool operator==(const QosRequest&) const = default;
};

/// Zero-copy view of a decoded request: `key` and `trace_id` point into the
/// datagram buffer handed to decode_request_view() and are valid only while
/// that buffer is. The server's decision path decodes into this — admission
/// checks take string_view keys, so the only owning copy ever made is the
/// table's first-touch entry key (DESIGN.md §9).
struct QosRequestView {
  std::uint64_t request_id = 0;
  RequestType type = RequestType::kCheck;
  std::uint32_t cost = 1;
  std::string_view key;
  std::string_view trace_id;
  std::uint64_t epoch = 0;

  /// Materialize an owning QosRequest (non-hot paths, tests).
  QosRequest to_request() const {
    return QosRequest{.request_id = request_id,
                      .type = type,
                      .cost = cost,
                      .key = std::string(key),
                      .trace_id = std::string(trace_id),
                      .epoch = epoch};
  }
};

struct QosResponse {
  std::uint64_t request_id = 0;
  ResponseStatus status = ResponseStatus::kOk;
  bool allowed = false;
  /// Remaining credit after the decision, in milli-credits (floor; -1 when
  /// unknown, e.g. default replies). Lets clients implement backoff.
  std::int64_t remaining_millicredits = -1;
  /// Cluster shard-map epoch the responder is live on. 0 = not clustered
  /// (v1 frame). Carried on kStaleEpoch NACKs so the router learns how far
  /// behind its map is without a control-plane round trip.
  std::uint64_t epoch = 0;

  bool operator==(const QosResponse&) const = default;
};

}  // namespace janus::wire
