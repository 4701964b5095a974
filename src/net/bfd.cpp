#include "net/bfd.hpp"

#include <algorithm>

#include "common/flight_recorder.hpp"
#include "common/logging.hpp"
#include "testing/fault_injector.hpp"

namespace janus::net {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

/// The harness's partition switch: while cluster.bfd.drop is armed, probe
/// packets vanish on receive — exactly what a one-way or full partition
/// looks like to the session.
bool probe_dropped() {
  return testing::FaultInjector::instance().should_fire(
      testing::FaultPoint::kClusterBfdDrop);
}

void record_transition(BfdState from, BfdState to) {
  if (FlightRecorder::enabled()) {
    // arg packs from(bits 8-15) | to(bits 0-7): renderers show the edge.
    const std::uint64_t arg =
        (std::uint64_t{static_cast<std::uint8_t>(from)} << 8) |
        std::uint64_t{static_cast<std::uint8_t>(to)};
    FlightRecorder::record(TraceEventType::kStageExit,
                           TraceStage::kClusterBfd, 0, arg, 0);
  }
}

}  // namespace

std::string_view bfd_state_name(BfdState s) {
  switch (s) {
    case BfdState::kDown:
      return "down";
    case BfdState::kInit:
      return "init";
    case BfdState::kUp:
      return "up";
  }
  return "?";
}

std::vector<std::uint8_t> encode_bfd(const BfdPacket& pkt) {
  std::vector<std::uint8_t> out;
  out.reserve(kBfdPacketSize);
  put_u16(out, kBfdMagic);
  out.push_back(kBfdVersion);
  out.push_back(static_cast<std::uint8_t>(pkt.state));
  put_u32(out, pkt.my_disc);
  put_u32(out, pkt.your_disc);
  put_u32(out, pkt.tx_interval_us);
  out.push_back(pkt.detect_mult);
  return out;
}

Result<BfdPacket> decode_bfd(std::span<const std::uint8_t> data) {
  if (data.size() != kBfdPacketSize) return Error("bfd: bad packet size");
  if (get_u16(data.data()) != kBfdMagic) return Error("bfd: bad magic");
  if (data[2] != kBfdVersion) return Error("bfd: unsupported version");
  if (data[3] > static_cast<std::uint8_t>(BfdState::kUp)) {
    return Error("bfd: bad state");
  }
  BfdPacket pkt;
  pkt.state = static_cast<BfdState>(data[3]);
  pkt.my_disc = get_u32(data.data() + 4);
  pkt.your_disc = get_u32(data.data() + 8);
  pkt.tx_interval_us = get_u32(data.data() + 12);
  pkt.detect_mult = data[16];
  return pkt;
}

BfdState BfdStateMachine::on_packet(BfdState remote, TimePoint now) {
  last_rx_ = now;
  switch (state_) {
    case BfdState::kDown:
      if (remote == BfdState::kDown) state_ = BfdState::kInit;
      else if (remote == BfdState::kInit) state_ = BfdState::kUp;
      // remote Up while local Down is ignored: the peer has not yet seen
      // our Down and must restart its handshake (RFC 5880 §6.8.6).
      break;
    case BfdState::kInit:
      if (remote == BfdState::kInit || remote == BfdState::kUp) {
        state_ = BfdState::kUp;
      }
      break;
    case BfdState::kUp:
      if (remote == BfdState::kDown) state_ = BfdState::kDown;
      break;
  }
  return state_;
}

BfdState BfdStateMachine::on_tick(TimePoint now) {
  if (state_ != BfdState::kDown && now - last_rx_ > detection_time()) {
    state_ = BfdState::kDown;
  }
  return state_;
}

std::optional<TimePoint> BfdStateMachine::next_deadline() const {
  if (state_ == BfdState::kDown) return std::nullopt;
  return last_rx_ + detection_time() + Duration(1);
}

Result<std::unique_ptr<BfdSession>> BfdSession::start(Options options,
                                                      Clock& clock) {
  if (options.timers.detect_multiplier == 0) {
    return Error("bfd: detect multiplier must be >= 1");
  }
  auto socket = UdpSocket::create();
  if (!socket.ok()) return Error(socket.error().message);
  return std::unique_ptr<BfdSession>(
      new BfdSession(std::move(options), clock, std::move(socket).take()));
}

BfdSession::BfdSession(Options options, Clock& clock, UdpSocket socket)
    : options_(std::move(options)),
      clock_(clock),
      socket_(std::move(socket)),
      machine_(options_.timers, clock.now()),
      thread_([this] { loop(); }) {}

BfdSession::~BfdSession() { stop(); }

void BfdSession::stop() {
  // stopping_ may already be set by request_stop(); the join must still
  // happen exactly once (join_guard_), or the destructor would tear down a
  // joinable thread.
  stopping_.store(true, std::memory_order_relaxed);
  bool expected = false;
  if (!join_guard_.compare_exchange_strong(expected, true)) return;
  if (thread_.joinable()) thread_.join();
}

void BfdSession::transition_locked(BfdState next) {
  const auto prev = static_cast<BfdState>(
      state_.exchange(static_cast<std::uint8_t>(next),
                      std::memory_order_acq_rel));
  if (prev == next) return;
  state_changes_.fetch_add(1, std::memory_order_relaxed);
  record_transition(prev, next);
  JLOG_INFO("bfd: session to %s %s -> %s",
            options_.peer.to_string().c_str(),
            std::string(bfd_state_name(prev)).c_str(),
            std::string(bfd_state_name(next)).c_str());
}

void BfdSession::loop() {
  const auto tx_us = static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          options_.timers.tx_interval)
          .count());
  TimePoint next_tx = clock_.now();
  while (!stopping_.load(std::memory_order_relaxed)) {
    BfdState before, after;
    {
      MutexLock lock(mu_);
      before = machine_.state();
      BfdPacket probe{.state = before,
                      .my_disc = options_.local_disc,
                      .your_disc = 0,
                      .tx_interval_us = tx_us,
                      .detect_mult = options_.timers.detect_multiplier};
      auto frame = encode_bfd(probe);
      if (auto st = socket_.send_to(options_.peer, frame); st.ok()) {
        probes_sent_.fetch_add(1, std::memory_order_relaxed);
      }
    }

    // Listen for replies until the next transmit slot. Short recv timeout
    // keeps stop() latency bounded regardless of the timer config.
    next_tx += options_.timers.tx_interval;
    while (!stopping_.load(std::memory_order_relaxed)) {
      const TimePoint now = clock_.now();
      if (now >= next_tx) break;
      const Duration wait =
          std::min(next_tx - now, Duration(std::chrono::milliseconds(10)));
      auto dg = socket_.recv(wait);
      if (dg.ok() && dg.value()) {
        if (probe_dropped()) continue;
        auto pkt = decode_bfd((*dg.value()).data);
        if (!pkt.ok()) continue;
        probes_received_.fetch_add(1, std::memory_order_relaxed);
        MutexLock lock(mu_);
        machine_.on_packet(pkt.value().state, clock_.now());
      }
    }

    BfdState prev_published;
    {
      MutexLock lock(mu_);
      machine_.on_tick(clock_.now());
      after = machine_.state();
      prev_published = state();
      transition_locked(after);
    }
    // Callback outside mu_: handlers may re-enter state() or take
    // coordinator locks (rank 54 < 56) on another thread's stack.
    if (prev_published != after && options_.on_change) {
      options_.on_change(prev_published, after);
    }
  }
}

Result<std::unique_ptr<BfdResponder>> BfdResponder::start(Options options,
                                                          Clock& clock) {
  auto socket = UdpSocket::bind(options.listen);
  if (!socket.ok()) return Error(socket.error().message);
  auto addr = socket.value().local_addr();
  if (!addr.ok()) return Error(addr.error().message);
  return std::unique_ptr<BfdResponder>(new BfdResponder(
      std::move(options), clock, std::move(socket).take(), addr.value()));
}

BfdResponder::BfdResponder(Options options, Clock& clock, UdpSocket socket,
                           SockAddr addr)
    : options_(std::move(options)),
      clock_(clock),
      socket_(std::move(socket)),
      addr_(std::move(addr)),
      machine_(options_.timers, clock.now()),
      thread_([this] { loop(); }) {}

BfdResponder::~BfdResponder() { stop(); }

void BfdResponder::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  socket_.shutdown_read();  // wakes the loop out of its receive wait
  if (thread_.joinable()) thread_.join();
}

void BfdResponder::loop() {
  const auto tx_us = static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          options_.timers.tx_interval)
          .count());
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Sleep until a probe arrives or the session's detection deadline
    // passes — whichever is first. Down has no deadline: block until a
    // probe (or stop()) arrives.
    Duration wait{-1};
    {
      MutexLock lock(mu_);
      if (const auto deadline = machine_.next_deadline()) {
        wait = std::max(Duration{0}, *deadline - clock_.now());
      }
    }
    auto dg = socket_.recv(wait);
    BfdState published;
    {
      MutexLock lock(mu_);
      if (dg.ok() && dg.value() && !probe_dropped()) {
        auto pkt = decode_bfd((*dg.value()).data);
        if (pkt.ok()) {
          probes_received_.fetch_add(1, std::memory_order_relaxed);
          machine_.on_packet(pkt.value().state, clock_.now());
          BfdPacket reply{.state = machine_.state(),
                          .my_disc = options_.local_disc,
                          .your_disc = pkt.value().my_disc,
                          .tx_interval_us = tx_us,
                          .detect_mult = options_.timers.detect_multiplier};
          auto frame = encode_bfd(reply);
          (void)socket_.send_to((*dg.value()).from, frame);
        }
      }
      machine_.on_tick(clock_.now());
      published = machine_.state();
    }
    const auto prev = static_cast<BfdState>(state_.exchange(
        static_cast<std::uint8_t>(published), std::memory_order_acq_rel));
    if (prev != published) record_transition(prev, published);
  }
}

}  // namespace janus::net
