#include "wire/codec.hpp"

#include <algorithm>

namespace janus::wire {

namespace {

// The appenders below grow `out` — on the server decision path the caller
// reuses one scratch vector per reply batch, so growth amortizes to zero
// (tests/perf/test_hotpath_allocs.cpp holds the warm path to 0 allocations).
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  // purity-ok: amortized growth into a reused reply scratch buffer
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  // purity-ok: amortized growth into a reused reply scratch buffer
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    // purity-ok: amortized growth into a reused reply scratch buffer
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    // purity-ok: amortized growth into a reused reply scratch buffer
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

// Every malformed-datagram rejection in the zero-copy decoder funnels
// through here, so the purity waiver for the error-string allocation lives
// on exactly one line.
Result<QosRequestView> reject(const char* why) {
  // purity-ok: malformed-datagram reject — error string is the cold path
  return Error(why);
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  bool u8(std::uint8_t& out) {
    if (pos_ + 1 > data_.size()) return false;
    out = data_[pos_++];
    return true;
  }
  bool u16(std::uint16_t& out) {
    if (pos_ + 2 > data_.size()) return false;
    out = static_cast<std::uint16_t>(data_[pos_] |
                                     (std::uint16_t{data_[pos_ + 1]} << 8));
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t& out) {
    if (pos_ + 4 > data_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) out |= std::uint32_t{data_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& out) {
    if (pos_ + 8 > data_.size()) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) out |= std::uint64_t{data_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return true;
  }
  bool bytes(std::size_t n, std::string& out) {
    if (pos_ + n > data_.size()) return false;
    out.assign(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  bool bytes_view(std::size_t n, std::string_view& out) {
    if (pos_ + n > data_.size()) return false;
    out = std::string_view(reinterpret_cast<const char*>(data_.data() + pos_),
                           n);
    pos_ += n;
    return true;
  }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace

void encode_to(const QosRequest& req, std::vector<std::uint8_t>& out) {
  const bool traced = !req.trace_id.empty();
  const bool clustered = req.epoch != 0;
  out.clear();
  // purity-ok: amortized growth into the router's reused request buffer
  out.reserve(kRequestHeaderSize + req.key.size() +
              ((traced || clustered) ? 2 + req.trace_id.size() : 0) +
              (clustered ? 8 : 0));
  put_u16(out, kRequestMagic);
  // purity-ok: amortized growth into the reserved request buffer
  out.push_back(clustered ? kClusterProtocolVersion
                          : (traced ? kTracedProtocolVersion
                                    : kProtocolVersion));
  // purity-ok: amortized growth into the reserved request buffer
  out.push_back(static_cast<std::uint8_t>(req.type));
  put_u64(out, req.request_id);
  put_u32(out, req.cost);
  put_u16(out, static_cast<std::uint16_t>(req.key.size()));
  // purity-ok: amortized growth into the reserved request buffer
  out.insert(out.end(), req.key.begin(), req.key.end());
  if (traced || clustered) {
    put_u16(out, static_cast<std::uint16_t>(
                     std::min(req.trace_id.size(), kMaxTraceLength)));
    // purity-ok: amortized growth into the reserved request buffer
    out.insert(out.end(), req.trace_id.begin(),
               req.trace_id.begin() +
                   static_cast<std::ptrdiff_t>(
                       std::min(req.trace_id.size(), kMaxTraceLength)));
  }
  if (clustered) put_u64(out, req.epoch);
}

void encode_to(const QosResponse& resp, std::vector<std::uint8_t>& out) {
  const bool clustered = resp.epoch != 0;
  out.clear();
  // purity-ok: amortized growth into a reused reply scratch buffer
  out.reserve(kResponseSize + (clustered ? 8 : 0));
  put_u16(out, kResponseMagic);
  // purity-ok: amortized growth into a reused reply scratch buffer
  out.push_back(clustered ? kClusterProtocolVersion : kProtocolVersion);
  // purity-ok: amortized growth into a reused reply scratch buffer
  out.push_back(static_cast<std::uint8_t>(resp.status));
  put_u64(out, resp.request_id);
  // purity-ok: amortized growth into a reused reply scratch buffer
  out.push_back(resp.allowed ? 1 : 0);
  put_u64(out, static_cast<std::uint64_t>(resp.remaining_millicredits));
  if (clustered) put_u64(out, resp.epoch);
}

std::vector<std::uint8_t> encode(const QosRequest& req) {
  std::vector<std::uint8_t> out;
  encode_to(req, out);
  return out;
}

std::vector<std::uint8_t> encode(const QosResponse& resp) {
  std::vector<std::uint8_t> out;
  encode_to(resp, out);
  return out;
}

Result<QosRequestView> decode_request_view(
    std::span<const std::uint8_t> data) {
  Reader r(data);
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  std::uint16_t key_len = 0;
  QosRequestView req;
  if (!r.u16(magic) || magic != kRequestMagic) {
    return reject("request: bad magic");
  }
  if (!r.u8(version) || version < kProtocolVersion ||
      version > kClusterProtocolVersion) {
    return reject("request: unsupported version");
  }
  if (!r.u8(type) || type > static_cast<std::uint8_t>(RequestType::kSync)) {
    return reject("request: bad type");
  }
  req.type = static_cast<RequestType>(type);
  if (!r.u64(req.request_id)) return reject("request: truncated id");
  if (!r.u32(req.cost)) return reject("request: truncated cost");
  if (req.cost == 0) return reject("request: zero cost");
  if (!r.u16(key_len)) return reject("request: truncated key length");
  if (key_len > kMaxKeyLength) return reject("request: key too long");
  if (!r.bytes_view(key_len, req.key)) return reject("request: truncated key");
  if (version >= kTracedProtocolVersion) {
    std::uint16_t trace_len = 0;
    if (!r.u16(trace_len)) return reject("request: truncated trace length");
    if (trace_len > kMaxTraceLength) return reject("request: trace too long");
    if (!r.bytes_view(trace_len, req.trace_id)) {
      return reject("request: truncated trace");
    }
  }
  if (version >= kClusterProtocolVersion) {
    if (!r.u64(req.epoch)) return reject("request: truncated epoch");
    if (req.epoch == 0) return reject("request: zero epoch in cluster frame");
  }
  if (!r.at_end()) return reject("request: trailing bytes");
  if (req.key.empty()) return reject("request: empty key");
  return req;
}

Result<QosRequest> decode_request(std::span<const std::uint8_t> data) {
  auto view = decode_request_view(data);
  if (!view.ok()) return Error(view.error().message);
  return view.value().to_request();
}

Result<QosResponse> decode_response(std::span<const std::uint8_t> data) {
  Reader r(data);
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint8_t status = 0;
  std::uint8_t allowed = 0;
  std::uint64_t credits = 0;
  QosResponse resp;
  if (!r.u16(magic) || magic != kResponseMagic) {
    return Error("response: bad magic");
  }
  if (!r.u8(version) ||
      (version != kProtocolVersion && version != kClusterProtocolVersion)) {
    return Error("response: unsupported version");
  }
  if (!r.u8(status) ||
      status > static_cast<std::uint8_t>(ResponseStatus::kStaleEpoch)) {
    return Error("response: bad status");
  }
  resp.status = static_cast<ResponseStatus>(status);
  if (!r.u64(resp.request_id)) return Error("response: truncated id");
  if (!r.u8(allowed) || allowed > 1) return Error("response: bad allowed flag");
  resp.allowed = allowed == 1;
  if (!r.u64(credits)) return Error("response: truncated credits");
  resp.remaining_millicredits = static_cast<std::int64_t>(credits);
  if (version >= kClusterProtocolVersion) {
    if (!r.u64(resp.epoch)) return Error("response: truncated epoch");
    if (resp.epoch == 0) return Error("response: zero epoch in cluster frame");
  }
  if (!r.at_end()) return Error("response: trailing bytes");
  return resp;
}

}  // namespace janus::wire
