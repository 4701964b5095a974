#include "inproc.hpp"

#include <algorithm>

#include "common/clock.hpp"
#include "timing.hpp"
#include "wire/codec.hpp"

namespace livebench {
namespace {

/// Enough calls per loop to swamp clock overhead; spread over `keys`.
constexpr std::size_t kCalls = 200'000;

template <typename Fn>
double per_call_ns(std::size_t calls, Fn&& fn) {
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < calls; ++i) fn(i);
  return static_cast<double>(now_ns() - start) /
         static_cast<double>(std::max<std::size_t>(calls, 1));
}

janus::core::AdmissionConfig server_like_config() {
  janus::core::AdmissionConfig cfg;
  // janusd's default: a key missing from the database is denied.
  cfg.default_rule = janus::core::limited_access_default(0.0, 0.0);
  return cfg;
}

}  // namespace

InProcStack::InProcStack(const std::vector<RuleLine>& corpus) {
  const std::int64_t start = now_ns();
  for (const RuleLine& r : corpus) {
    (void)store_.put({.key = r.key,
                      .refill_per_sec = r.rate,
                      .capacity = r.capacity,
                      .credit = r.capacity});
  }
  load_s_ = seconds_since(start);
  admission_ = std::make_unique<janus::core::AdmissionController>(
      janus::SteadyClock::instance(), source_, server_like_config());
}

bool InProcStack::check(const std::string& key) {
  return admission_->check(key).allowed;
}

double InProcStack::encode_ns(const std::vector<std::string>& keys) {
  std::vector<janus::wire::QosRequest> reqs;
  for (const auto& k : keys) {
    reqs.emplace_back();
    reqs.back().request_id = 1;
    reqs.back().key = k;
  }
  std::vector<std::uint8_t> buf;
  std::size_t bytes = 0;
  const double ns = per_call_ns(kCalls, [&](std::size_t i) {
    janus::wire::encode_to(reqs[i % reqs.size()], buf);
    bytes += buf.size();
  });
  if (bytes == 0) throw std::runtime_error("encode produced no bytes");
  return ns;
}

double InProcStack::decode_ns(const std::vector<std::string>& keys) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& k : keys) {
    janus::wire::QosRequest req;
    req.request_id = 1;
    req.key = k;
    frames.push_back(janus::wire::encode(req));
  }
  std::size_t ok = 0;
  const double ns = per_call_ns(kCalls, [&](std::size_t i) {
    ok += janus::wire::decode_request_view(frames[i % frames.size()]).ok();
  });
  if (ok != kCalls) throw std::runtime_error("decode rejected a valid frame");
  return ns;
}

double InProcStack::check_warm_ns(const std::vector<std::string>& keys) {
  janus::core::AdmissionController ac(janus::SteadyClock::instance(),
                                      source_, server_like_config());
  for (const auto& k : keys) (void)ac.check(k);  // make every key resident
  std::size_t allowed = 0;
  const double ns = per_call_ns(kCalls, [&](std::size_t i) {
    allowed += ac.check(keys[i % keys.size()]).allowed;
  });
  (void)allowed;
  return ns;
}

double InProcStack::check_cold_ns(const std::vector<std::string>& keys) {
  // A fresh controller per call would time construction; instead every key
  // in `keys` is distinct, so each check is a first touch.
  janus::core::AdmissionController ac(janus::SteadyClock::instance(),
                                      source_, server_like_config());
  std::size_t allowed = 0;
  const double ns = per_call_ns(keys.size(), [&](std::size_t i) {
    allowed += ac.check(keys[i]).allowed;
  });
  (void)allowed;
  return ns;
}

double InProcStack::db_get_ns(const std::vector<std::string>& keys) {
  std::size_t found = 0;
  const double ns = per_call_ns(kCalls, [&](std::size_t i) {
    found += store_.get(keys[i % keys.size()]).has_value();
  });
  (void)found;
  return ns;
}

double InProcStack::db_checkpoint_ns(const std::vector<std::string>& keys) {
  return per_call_ns(kCalls, [&](std::size_t i) {
    (void)store_.checkpoint_credit(keys[i % keys.size()],
                                   static_cast<double>(i % 7));
  });
}

}  // namespace livebench
