// BFD-style fast liveness detection (DESIGN.md §11.4). The paper's §III-D
// failover rides DNS TTLs (seconds at best); cluster mode instead runs a
// simplified RFC 5880 three-state session — Down / Init / Up — between the
// coordinator and each QoS server, so a dead server is detected in
// detect_multiplier x tx_interval (tens to hundreds of milliseconds) and
// the standby can be promoted before clients notice more than a retry.
//
// Split in the ops-openbfdd idiom:
//   * BfdStateMachine — pure, clock-injected transition logic. No sockets,
//     no threads; every transition is table-testable and replayable.
//   * BfdSession     — active side. Transmits probes every tx_interval over
//     UDP, feeds received packets and ticks into the machine, and invokes a
//     state-change callback (never while holding the session lock).
//   * BfdResponder   — passive side embedded in the QoS server process.
//     Echoes its own session state back to the prober.
//
// Probe packet (little endian, 17 bytes):
//   u16 magic 0x4A42 ("JB")  u8 version  u8 state  u32 my_disc
//   u32 your_disc  u32 tx_interval_us  u8 detect_mult
//
// The chaos fault point cluster.bfd.drop discards probe packets on receive
// (both sides), which is indistinguishable from a network partition and is
// how the cluster test harness forces detect-timeout transitions.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "common/sync.hpp"
#include "net/socket.hpp"

namespace janus::net {

enum class BfdState : std::uint8_t {
  kDown = 0,
  kInit = 1,  // we hear the peer, peer does not yet hear us
  kUp = 2,    // bidirectional: both sides hear each other
};

std::string_view bfd_state_name(BfdState s);

struct BfdPacket {
  BfdState state = BfdState::kDown;
  std::uint32_t my_disc = 0;    // sender's session discriminator
  std::uint32_t your_disc = 0;  // echo of the peer's discriminator (0 = unknown)
  std::uint32_t tx_interval_us = 0;
  std::uint8_t detect_mult = 0;

  bool operator==(const BfdPacket&) const = default;
};

inline constexpr std::uint16_t kBfdMagic = 0x4A42;  // "JB"
inline constexpr std::uint8_t kBfdVersion = 1;
inline constexpr std::size_t kBfdPacketSize = 2 + 1 + 1 + 4 + 4 + 4 + 1;

std::vector<std::uint8_t> encode_bfd(const BfdPacket& pkt);
Result<BfdPacket> decode_bfd(std::span<const std::uint8_t> data);

struct BfdTimers {
  Duration tx_interval = std::chrono::milliseconds(50);
  /// Session drops to Down after detect_multiplier missed intervals with no
  /// packet from the peer (RFC 5880 §6.8.4 detection time).
  std::uint8_t detect_multiplier = 3;
};

/// Pure three-state machine. Deterministic: state depends only on the
/// sequence of on_packet/on_tick calls and their timestamps, so seeded
/// FaultInjector loss patterns replay bit-identically (tests/cluster).
class BfdStateMachine {
 public:
  BfdStateMachine(BfdTimers timers, TimePoint now)
      : timers_(timers), last_rx_(now) {}

  BfdState state() const { return state_; }
  Duration detection_time() const {
    return timers_.tx_interval * timers_.detect_multiplier;
  }

  /// Feed the peer's advertised state from a received probe. Transitions
  /// (simplified RFC 5880 §6.8.6; no AdminDown, no Echo):
  ///   Down + recv Down -> Init      Down + recv Init -> Up
  ///   Down + recv Up   -> Down (ignored until the peer restarts handshake)
  ///   Init + recv Init -> Up        Init + recv Up   -> Up
  ///   Init + recv Down -> Init      Up   + recv Down -> Down
  /// Returns the state after the transition.
  BfdState on_packet(BfdState remote, TimePoint now);

  /// Evaluate the detection timer. Any state but Down decays to Down when
  /// no packet has arrived within detection_time().
  BfdState on_tick(TimePoint now);

  /// The first instant at which on_tick would change the state: just past
  /// last packet + detection_time(). nullopt in Down, which only a packet
  /// can leave.
  std::optional<TimePoint> next_deadline() const;

 private:
  BfdTimers timers_;
  BfdState state_ = BfdState::kDown;
  TimePoint last_rx_;
};

/// Active prober. Owns a UDP socket and a thread; probes `peer` every
/// tx_interval and reports session transitions through `on_change`
/// (invoked from the session thread with no lock held — callbacks may call
/// back into the session or take coordinator locks freely).
class BfdSession {
 public:
  using ChangeCallback =
      std::function<void(BfdState from, BfdState to)>;

  struct Options {
    SockAddr peer;
    BfdTimers timers;
    std::uint32_t local_disc = 1;
    ChangeCallback on_change;  // may be empty
  };

  static Result<std::unique_ptr<BfdSession>> start(Options options,
                                                   Clock& clock);
  ~BfdSession();

  void stop();
  /// Ask the loop to exit without joining it — the only stop that is legal
  /// from inside the session's own on_change callback (stop() would join
  /// the calling thread). The caller must still destroy the session from
  /// another thread once the loop has wound down.
  void request_stop() { stopping_.store(true, std::memory_order_relaxed); }
  /// True when called from this session's loop thread (i.e. from within
  /// the on_change callback).
  bool on_session_thread() const {
    return std::this_thread::get_id() == thread_.get_id();
  }

  BfdState state() const {
    return static_cast<BfdState>(state_.load(std::memory_order_acquire));
  }
  std::uint64_t probes_sent() const {
    return probes_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t probes_received() const {
    return probes_received_.load(std::memory_order_relaxed);
  }
  std::uint64_t state_changes() const {
    return state_changes_.load(std::memory_order_relaxed);
  }

 private:
  BfdSession(Options options, Clock& clock, UdpSocket socket);
  // Takes mu_ per iteration and releases it before the on_change callback
  // fires — handlers may take coordinator locks (rank 54 < 56) safely.
  void loop() JANUS_EXCLUDES(mu_);
  void transition_locked(BfdState next) JANUS_REQUIRES(mu_);

  Options options_;
  Clock& clock_;
  UdpSocket socket_;
  mutable Mutex mu_{LockRank::kBfdSession, "net.bfd_session"};
  BfdStateMachine machine_ JANUS_GUARDED_BY(mu_);
  std::atomic<std::uint8_t> state_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> join_guard_{false};
  std::atomic<std::uint64_t> probes_sent_{0};
  std::atomic<std::uint64_t> probes_received_{0};
  std::atomic<std::uint64_t> state_changes_{0};
  std::thread thread_;
};

/// Passive side: answers every valid probe with the responder's own session
/// state (mirror machine driven by the same transition table). Embedded in
/// janusd server processes (--bfd-listen).
class BfdResponder {
 public:
  struct Options {
    SockAddr listen;  // port 0 = ephemeral
    BfdTimers timers;
    std::uint32_t local_disc = 2;
  };

  static Result<std::unique_ptr<BfdResponder>> start(Options options,
                                                     Clock& clock);
  ~BfdResponder();

  void stop();

  const SockAddr& local_addr() const { return addr_; }
  BfdState state() const {
    return static_cast<BfdState>(state_.load(std::memory_order_acquire));
  }
  std::uint64_t probes_received() const {
    return probes_received_.load(std::memory_order_relaxed);
  }

 private:
  BfdResponder(Options options, Clock& clock, UdpSocket socket,
               SockAddr addr);
  void loop() JANUS_EXCLUDES(mu_);

  Options options_;
  Clock& clock_;
  UdpSocket socket_;
  SockAddr addr_;
  mutable Mutex mu_{LockRank::kBfdSession, "net.bfd_responder"};
  BfdStateMachine machine_ JANUS_GUARDED_BY(mu_);
  std::atomic<std::uint8_t> state_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> probes_received_{0};
  std::thread thread_;
};

}  // namespace janus::net
