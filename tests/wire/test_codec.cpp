#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace janus::wire {
namespace {

QosRequest sample_request() {
  QosRequest req;
  req.request_id = 0xDEADBEEF12345678ull;
  req.type = RequestType::kCheck;
  req.cost = 3;
  req.key = "tenant-42/photos";
  return req;
}

TEST(RequestCodecTest, RoundTrip) {
  const QosRequest req = sample_request();
  auto bytes = encode(req);
  auto decoded = decode_request(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value(), req);
}

TEST(RequestCodecTest, RoundTripAllTypes) {
  for (RequestType type :
       {RequestType::kCheck, RequestType::kProbe, RequestType::kSync}) {
    QosRequest req = sample_request();
    req.type = type;
    auto decoded = decode_request(encode(req));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().type, type);
  }
}

TEST(RequestCodecTest, RoundTripBinaryKey) {
  QosRequest req = sample_request();
  req.key = std::string("\x00\xFF\x7F nul and high", 16);
  auto decoded = decode_request(encode(req));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().key, req.key);
}

TEST(RequestCodecTest, HeaderSizeMatchesConstant) {
  QosRequest req = sample_request();
  EXPECT_EQ(encode(req).size(), kRequestHeaderSize + req.key.size());
}

TEST(RequestCodecTest, RejectsBadMagic) {
  auto bytes = encode(sample_request());
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(decode_request(bytes).ok());
}

TEST(RequestCodecTest, RejectsBadVersion) {
  auto bytes = encode(sample_request());
  bytes[2] = 99;
  EXPECT_FALSE(decode_request(bytes).ok());
}

TEST(RequestCodecTest, RejectsBadType) {
  auto bytes = encode(sample_request());
  bytes[3] = 200;
  EXPECT_FALSE(decode_request(bytes).ok());
}

TEST(RequestCodecTest, RejectsEmptyKey) {
  QosRequest req = sample_request();
  req.key.clear();
  auto bytes = encode(req);
  EXPECT_FALSE(decode_request(bytes).ok());
}

TEST(RequestCodecTest, RejectsZeroCost) {
  QosRequest req = sample_request();
  auto bytes = encode(req);
  // cost bytes live at offset 12..15 (after magic, version, type, id).
  bytes[12] = bytes[13] = bytes[14] = bytes[15] = 0;
  EXPECT_FALSE(decode_request(bytes).ok());
}

TEST(RequestCodecTest, RejectsTrailingBytes) {
  auto bytes = encode(sample_request());
  bytes.push_back(0);
  EXPECT_FALSE(decode_request(bytes).ok());
}

TEST(RequestCodecTest, RejectsTruncationAtEveryLength) {
  auto bytes = encode(sample_request());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto r = decode_request(std::span(bytes.data(), len));
    EXPECT_FALSE(r.ok()) << "decoded a truncated request of length " << len;
  }
}

TEST(RequestCodecTest, RejectsKeyLengthLyingBeyondBuffer) {
  QosRequest req = sample_request();
  auto bytes = encode(req);
  // Inflate the declared key length (offset 16..17) beyond the buffer.
  bytes[16] = 0xFF;
  bytes[17] = 0x0F;
  EXPECT_FALSE(decode_request(bytes).ok());
}

TEST(RequestCodecTest, RandomBytesNeverCrash) {
  janus::Rng rng(77);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    (void)decode_request(junk);  // must not crash; result may be anything
  }
}

TEST(TraceCodecTest, RoundTripTraceId) {
  QosRequest req = sample_request();
  req.trace_id = "trace-7f3a";
  auto bytes = encode(req);
  EXPECT_EQ(bytes[2], kTracedProtocolVersion);
  auto decoded = decode_request(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value(), req);
  EXPECT_EQ(decoded.value().trace_id, "trace-7f3a");
}

TEST(TraceCodecTest, UntracedFrameIsByteIdenticalToV1) {
  // An empty trace id must not change the wire format at all: old peers
  // keep parsing traffic from new routers.
  QosRequest req = sample_request();
  ASSERT_TRUE(req.trace_id.empty());
  auto bytes = encode(req);
  EXPECT_EQ(bytes[2], kProtocolVersion);
  EXPECT_EQ(bytes.size(), kRequestHeaderSize + req.key.size());
}

TEST(TraceCodecTest, EncodeClampsOverlongTrace) {
  QosRequest req = sample_request();
  req.trace_id.assign(kMaxTraceLength + 50, 't');
  auto decoded = decode_request(encode(req));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value().trace_id.size(), kMaxTraceLength);
}

TEST(TraceCodecTest, RejectsDeclaredTraceBeyondLimit) {
  QosRequest req = sample_request();
  req.trace_id = "t";
  auto bytes = encode(req);
  // The trace length field sits right after the key bytes.
  const std::size_t len_off = kRequestHeaderSize + req.key.size();
  bytes[len_off] = 0xFF;
  bytes[len_off + 1] = 0xFF;
  EXPECT_FALSE(decode_request(bytes).ok());
}

TEST(TraceCodecTest, RejectsTruncatedTraceAtEveryLength) {
  QosRequest req = sample_request();
  req.trace_id = "trace-7f3a";
  auto bytes = encode(req);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto r = decode_request(std::span(bytes.data(), len));
    EXPECT_FALSE(r.ok()) << "decoded a truncated traced request of len " << len;
  }
}

TEST(TraceCodecTest, RejectsV2FrameWithoutTraceField) {
  // Version 2 promises the trace field; a v1-shaped body must not parse.
  QosRequest req = sample_request();
  auto bytes = encode(req);
  bytes[2] = kTracedProtocolVersion;
  EXPECT_FALSE(decode_request(bytes).ok());
}

TEST(TraceCodecTest, RoundTripEmptyTraceFieldInV2) {
  // A v2 frame with trace_len = 0 is legal (explicitly untraced).
  QosRequest req = sample_request();
  auto bytes = encode(req);
  bytes[2] = kTracedProtocolVersion;
  bytes.push_back(0);
  bytes.push_back(0);
  auto decoded = decode_request(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_TRUE(decoded.value().trace_id.empty());
}

QosResponse sample_response() {
  QosResponse resp;
  resp.request_id = 0x1122334455667788ull;
  resp.status = ResponseStatus::kOk;
  resp.allowed = true;
  resp.remaining_millicredits = 123456;
  return resp;
}

TEST(ResponseCodecTest, RoundTrip) {
  const QosResponse resp = sample_response();
  auto decoded = decode_response(encode(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value(), resp);
}

TEST(ResponseCodecTest, RoundTripAllStatuses) {
  for (ResponseStatus status :
       {ResponseStatus::kOk, ResponseStatus::kDefaultReply,
        ResponseStatus::kMalformed, ResponseStatus::kOverloaded}) {
    QosResponse resp = sample_response();
    resp.status = status;
    auto decoded = decode_response(encode(resp));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().status, status);
  }
}

TEST(ResponseCodecTest, RoundTripNegativeCredits) {
  QosResponse resp = sample_response();
  resp.remaining_millicredits = -1;
  auto decoded = decode_response(encode(resp));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().remaining_millicredits, -1);
}

TEST(ResponseCodecTest, FixedSize) {
  EXPECT_EQ(encode(sample_response()).size(), kResponseSize);
}

TEST(ResponseCodecTest, RejectsTruncationAtEveryLength) {
  auto bytes = encode(sample_response());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode_response(std::span(bytes.data(), len)).ok());
  }
}

TEST(ResponseCodecTest, RejectsRequestMagicAsResponse) {
  auto bytes = encode(sample_request());
  EXPECT_FALSE(decode_response(bytes).ok());
}

TEST(ResponseCodecTest, RejectsBadAllowedFlag) {
  auto bytes = encode(sample_response());
  bytes[12] = 2;  // allowed flag offset: 2+1+1+8
  EXPECT_FALSE(decode_response(bytes).ok());
}

TEST(CodecTest, EncodeToReusesBuffer) {
  std::vector<std::uint8_t> buf;
  encode_to(sample_request(), buf);
  const std::size_t first_size = buf.size();
  encode_to(sample_request(), buf);
  EXPECT_EQ(buf.size(), first_size);  // cleared, not appended
  auto decoded = decode_request(buf);
  EXPECT_TRUE(decoded.ok());
}

TEST(CodecTest, MaxKeyLengthEnforced) {
  QosRequest req = sample_request();
  req.key.assign(kMaxKeyLength + 1, 'k');
  auto bytes = encode(req);
  EXPECT_FALSE(decode_request(bytes).ok());
  req.key.assign(kMaxKeyLength, 'k');
  EXPECT_TRUE(decode_request(encode(req)).ok());
}


// -- Zero-copy view decode ---------------------------------------------------

TEST(RequestViewCodecTest, ViewPointsIntoDatagramBuffer) {
  QosRequest req = sample_request();
  req.trace_id = "trace-xyz";
  const auto bytes = encode(req);
  auto view = decode_request_view(bytes);
  ASSERT_TRUE(view.ok()) << view.error().message;
  // Same values as the owning decode...
  EXPECT_EQ(view.value().request_id, req.request_id);
  EXPECT_EQ(view.value().type, req.type);
  EXPECT_EQ(view.value().cost, req.cost);
  EXPECT_EQ(view.value().key, req.key);
  EXPECT_EQ(view.value().trace_id, req.trace_id);
  // ...but the string_views alias the frame, not fresh heap storage.
  const char* frame_begin = reinterpret_cast<const char*>(bytes.data());
  const char* frame_end = frame_begin + bytes.size();
  EXPECT_GE(view.value().key.data(), frame_begin);
  EXPECT_LT(view.value().key.data(), frame_end);
  EXPECT_GE(view.value().trace_id.data(), frame_begin);
  EXPECT_LE(view.value().trace_id.data() + view.value().trace_id.size(),
            frame_end);
}

TEST(RequestViewCodecTest, ToOwnedRoundTripsThroughView) {
  QosRequest req = sample_request();
  req.trace_id = "t-1";
  auto view = decode_request_view(encode(req));
  ASSERT_TRUE(view.ok());
  // to_request() copies out of a buffer that is about to die.
  QosRequest owned = view.value().to_request();
  EXPECT_EQ(owned, req);
}

TEST(RequestViewCodecTest, ViewAndOwningDecodeRejectIdentically) {
  // Every truncation point must fail the same way on both decoders.
  QosRequest req = sample_request();
  req.trace_id = "trace";
  const auto bytes = encode(req);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_EQ(decode_request(prefix).ok(), decode_request_view(prefix).ok())
        << "len=" << len;
    EXPECT_FALSE(decode_request_view(prefix).ok()) << "len=" << len;
  }
  EXPECT_TRUE(decode_request_view(bytes).ok());
}

}  // namespace
}  // namespace janus::wire
