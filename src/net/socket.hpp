// RAII socket primitives for the real-transport driver: UDP endpoints with
// poll-based receive timeouts (the router's 100 µs retry timer needs
// sub-millisecond waits) and blocking TCP streams for the HTTP front end.
// A negative timeout blocks in the receive/accept syscall itself, with no
// poll() in front: a thread parked there wakes only for work, and the
// shutdown_* calls below wake it for stop().
// IPv4 only — Janus nodes address each other by resolved A records.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"

// Batched datagram syscalls: recvmmsg/sendmmsg move a whole batch per kernel
// crossing and exist on Linux (glibc/musl). Elsewhere the batch API below
// transparently falls back to a recvfrom/sendto loop — same semantics, one
// syscall per datagram. Tests force the fallback on a socket with
// set_data_path(DataPath::kFallback) so both paths run everywhere.
#if defined(__linux__)
#define JANUS_HAVE_MMSG 1
#else
#define JANUS_HAVE_MMSG 0
#endif

namespace janus::net {

/// An IPv4 endpoint ("127.0.0.1", 8080).
struct SockAddr {
  std::string ip = "127.0.0.1";
  std::uint16_t port = 0;

  bool operator==(const SockAddr&) const = default;
  std::string to_string() const { return ip + ":" + std::to_string(port); }

  Result<sockaddr_in> to_native() const;
  static SockAddr from_native(const sockaddr_in& sa);
  /// Parse "ip:port" (the inverse of to_string). Rejects missing colon and
  /// out-of-range ports; does not validate the dotted quad (to_native does).
  static Result<SockAddr> parse(std::string_view text);
};

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Connectionless UDP endpoint (both the router's client side and the QoS
/// server's listener side).
class UdpSocket {
 public:
  /// Bind to ip:port; port 0 picks an ephemeral port.
  static Result<UdpSocket> bind(const SockAddr& addr);

  /// Unbound sender (the kernel assigns a source port on first send).
  static Result<UdpSocket> create();

  Status send_to(const SockAddr& dest, std::span<const std::uint8_t> data);

  struct Datagram {
    std::vector<std::uint8_t> data;
    SockAddr from;
  };

  /// Wait up to `timeout` for one datagram; nullopt on timeout or once
  /// shutdown_read() has been called. timeout < 0 blocks indefinitely.
  /// Receives into a reusable uninitialised buffer and copies out only the
  /// datagram's bytes.
  Result<std::optional<Datagram>> recv(Duration timeout);

  /// Wake every thread blocked receiving on this socket and make later
  /// receives return at once when nothing is queued (shutdown(SHUT_RD)).
  /// Datagrams already queued can still be read. The stop signal for
  /// threads that block in recv/recv_many with a negative timeout.
  void shutdown_read();

  /// Datagrams the kernel dropped because this socket's receive queue was
  /// full (SO_MEMINFO drops; 0 where unsupported). Monotonic.
  std::uint64_t rx_dropped() const;
  /// Payload bytes of the next queued datagram (FIONREAD); 0 = queue empty.
  std::size_t rx_next_bytes() const;

  /// Hard cap on datagrams per batched syscall (mmsghdr arrays live on the
  /// stack in socket.cpp); RecvBatch capacities clamp to it.
  static constexpr std::size_t kMaxBatch = 64;
  /// Per-slot receive buffer for batched receives. The largest Janus wire
  /// frame (header + 4 KiB key + trace) is ~4.3 KiB; anything longer than a
  /// slot is dropped as truncated.
  static constexpr std::size_t kRecvSlotBytes = 8192;

  /// Reusable scratch for recv_many: slot buffers and address storage are
  /// allocated once here and reused across calls, so a steady-state
  /// worker performs no per-wakeup heap allocation inside the socket layer.
  /// Results are views into this batch's arena, valid until the next
  /// recv_many call on this batch.
  class RecvBatch {
   public:
    explicit RecvBatch(std::size_t capacity,
                       std::size_t slot_bytes = kRecvSlotBytes);

    std::size_t capacity() const { return capacity_; }
    /// Datagrams received by the last recv_many call.
    std::size_t size() const { return count_; }
    std::span<const std::uint8_t> data(std::size_t i) const;
    const SockAddr& from(std::size_t i) const { return froms_[i]; }

    /// Per-slot payload capacity this batch was built with.
    std::size_t slot_bytes() const { return slot_bytes_; }

   private:
    friend class UdpSocket;
    std::size_t capacity_;
    std::size_t slot_bytes_;
    std::size_t count_ = 0;
    // capacity_ * slot_bytes_, left uninitialised: only the slots the
    // kernel writes ever become resident.
    std::unique_ptr<std::uint8_t[]> arena_;
    std::vector<sockaddr_in> addrs_;     // kernel-filled source addresses
    std::vector<std::uint32_t> lens_;    // per-result datagram length
    std::vector<const std::uint8_t*> ptrs_;  // result index -> payload start
    std::vector<SockAddr> froms_;        // converted source addresses
  };

  /// One outbound datagram for send_many; `data` must stay alive for the
  /// duration of the call (it is not copied).
  struct OutDatagram {
    SockAddr to;
    std::span<const std::uint8_t> data;
  };

  /// Batched-I/O provider for recv_many/send_many (DESIGN.md §13).
  ///
  ///   kAuto     — mmsg where available, else the recvfrom/sendto fallback.
  ///               The default.
  ///   kFallback — force the recvfrom/sendto loops.
  ///   kMmsg     — force recvmmsg/sendmmsg (the fallback where the platform
  ///               has none).
  enum class DataPath { kAuto = 0, kFallback, kMmsg };

  /// Select this socket's provider. Not thread-safe with concurrent
  /// recv/send on the same socket: switch before the I/O threads start.
  void set_data_path(DataPath path) { data_path_ = path; }
  DataPath data_path() const { return data_path_; }
  /// The provider recv_many/send_many actually use (kAuto and kMmsg
  /// resolved to kMmsg or kFallback).
  DataPath resolved_data_path() const;

  static const char* data_path_name(DataPath path);
  static std::optional<DataPath> data_path_from_name(std::string_view name);

  /// Wait up to `timeout` for readability, then drain up to
  /// batch.capacity() datagrams in one recvmmsg (or a non-blocking recvfrom
  /// loop where unavailable/disabled). Returns the number received into
  /// `batch`; 0 = timeout. timeout < 0 blocks in recvmmsg(MSG_WAITFORONE)
  /// itself, never in poll(): the kernel's receive wait is exclusive, so N
  /// threads blocked on one socket are woken one per datagram, where poll()
  /// would wake them all. Such a call returns 0 once shutdown_read() has
  /// been called and the queue is empty. Fault semantics are per-datagram:
  /// each received datagram consults net.udp.drop_rx independently, exactly
  /// as the single-datagram recv() does.
  Result<std::size_t> recv_many(RecvBatch& batch, Duration timeout);

  /// Send a batch of datagrams with one sendmmsg (or a sendto loop).
  /// Per-datagram fault semantics: net.udp.delay_us and net.udp.drop_tx
  /// fire independently for every datagram in the batch.
  Status send_many(std::span<const OutDatagram> batch);

  /// Local address after bind (resolves ephemeral ports).
  Result<SockAddr> local_addr() const;

  int fd() const { return fd_.get(); }

 private:
  explicit UdpSocket(Fd fd) : fd_(std::move(fd)) {}
  Fd fd_;
  DataPath data_path_ = DataPath::kAuto;
};

/// Blocking TCP connection with poll-based timeouts.
class TcpStream {
 public:
  static Result<TcpStream> connect(const SockAddr& addr, Duration timeout);

  explicit TcpStream(Fd fd) : fd_(std::move(fd)) {}

  /// Write all bytes; fails on error or peer close.
  Status write_all(std::span<const std::uint8_t> data);
  Status write_all(std::string_view data);

  /// Read up to buf.size() bytes. 0 = clean peer close; nullopt = timeout.
  Result<std::optional<std::size_t>> read_some(std::span<std::uint8_t> buf,
                                               Duration timeout);

  Result<SockAddr> peer_addr() const;
  int fd() const { return fd_.get(); }
  void shutdown_write();

 private:
  Fd fd_;
};

class TcpListener {
 public:
  /// Listen on ip:port (port 0 = ephemeral); backlog 128.
  static Result<TcpListener> listen(const SockAddr& addr);

  /// Wait up to `timeout` for a connection; nullopt on timeout.
  /// timeout < 0 blocks in accept() itself until a connection arrives or
  /// shutdown() is called (then it returns an error).
  Result<std::optional<TcpStream>> accept(Duration timeout);

  /// Stop listening and wake every thread blocked in accept().
  void shutdown();

  Result<SockAddr> local_addr() const;
  int fd() const { return fd_.get(); }

 private:
  explicit TcpListener(Fd fd) : fd_(std::move(fd)) {}
  Fd fd_;
};

}  // namespace janus::net
