#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>
#if defined(__linux__)
#include <linux/sock_diag.h>  // SK_MEMINFO_DROPS
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "testing/fault_injector.hpp"

namespace janus::net {

namespace {

std::string errno_msg(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// poll() one fd for readability. Returns: 1 ready, 0 timeout, -1 error.
/// timeout < 0 blocks indefinitely. Sub-millisecond timeouts round up to
/// 1 ms (poll granularity) — matching how a PHP client's socket timeout
/// actually behaves.
int wait_readable(int fd, Duration timeout) {
  pollfd pfd{fd, POLLIN, 0};
  int ms;
  if (timeout.count() < 0) {
    ms = -1;
  } else {
    auto t = timeout.count();
    ms = static_cast<int>((t + 999'999) / 1'000'000);
  }
  for (;;) {
    int rc = ::poll(&pfd, 1, ms);
    if (rc >= 0) return rc > 0 ? 1 : 0;
    if (errno != EINTR) return -1;
  }
}

}  // namespace

Result<sockaddr_in> SockAddr::to_native() const {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &sa.sin_addr) != 1) {
    return Error("bad IPv4 address: " + ip);
  }
  return sa;
}

SockAddr SockAddr::from_native(const sockaddr_in& sa) {
  char buf[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof(buf));
  return SockAddr{buf, ntohs(sa.sin_port)};
}

Result<SockAddr> SockAddr::parse(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0) {
    return Error("expected ip:port, got " + std::string(text));
  }
  std::uint32_t port = 0;
  const std::string_view digits = text.substr(colon + 1);
  if (digits.empty() || digits.size() > 5) {
    return Error("bad port in " + std::string(text));
  }
  for (char c : digits) {
    if (c < '0' || c > '9') return Error("bad port in " + std::string(text));
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (port > 65535) return Error("bad port in " + std::string(text));
  return SockAddr{std::string(text.substr(0, colon)),
                  static_cast<std::uint16_t>(port)};
}

Fd::~Fd() { reset(); }

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<UdpSocket> UdpSocket::bind(const SockAddr& addr) {
  Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) return Error(errno_msg("udp socket"));
  auto native = addr.to_native();
  if (!native.ok()) return Error(native.error().message);
  auto sa = native.value();
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return Error(errno_msg("udp bind"));
  }
  return UdpSocket(std::move(fd));
}

Result<UdpSocket> UdpSocket::create() {
  Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) return Error(errno_msg("udp socket"));
  return UdpSocket(std::move(fd));
}

Status UdpSocket::send_to(const SockAddr& dest,
                          std::span<const std::uint8_t> data) {
  auto& faults = testing::FaultInjector::instance();
  if (faults.should_fire(testing::FaultPoint::kNetUdpDelayUs)) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        faults.param(testing::FaultPoint::kNetUdpDelayUs)));
  }
  if (faults.should_fire(testing::FaultPoint::kNetUdpDropTx)) {
    // The datagram vanishes in flight: the sender sees success (UDP gives
    // no delivery signal), the peer sees nothing.
    return Status::success();
  }
  auto native = dest.to_native();
  if (!native.ok()) return Error(native.error().message);
  auto sa = native.value();
  ssize_t sent = ::sendto(fd_.get(), data.data(), data.size(), 0,
                          reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (sent < 0) return Error(errno_msg("udp sendto"));
  if (static_cast<std::size_t>(sent) != data.size()) {
    return Error("udp sendto: short write");
  }
  return Status::success();
}

Result<std::optional<UdpSocket::Datagram>> UdpSocket::recv(Duration timeout) {
  if (timeout.count() >= 0) {
    int ready = wait_readable(fd_.get(), timeout);
    if (ready < 0) return Error(errno_msg("udp poll"));
    if (ready == 0) return std::optional<Datagram>{};
  }

  // One scratch buffer per thread, never zeroed: 64 KiB holds the largest
  // IPv4 UDP payload (65,507 bytes), and only the datagram is copied out.
  constexpr std::size_t kScratchBytes = 64 * 1024;
  thread_local std::unique_ptr<std::uint8_t[]> scratch;
  if (!scratch) {
    scratch = std::make_unique_for_overwrite<std::uint8_t[]>(kScratchBytes);
  }
  sockaddr_in sa{};
  socklen_t salen = sizeof(sa);
  ssize_t n;
  do {
    n = ::recvfrom(fd_.get(), scratch.get(), kScratchBytes, 0,
                   reinterpret_cast<sockaddr*>(&sa), &salen);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return Error(errno_msg("udp recvfrom"));
  // No source address: the read side was shut down, not a datagram.
  if (salen == 0) return std::optional<Datagram>{};
  if (testing::FaultInjector::instance().should_fire(
          testing::FaultPoint::kNetUdpDropRx)) {
    // Drop after the kernel handed it over, as if it never arrived; the
    // caller observes an ordinary timeout.
    return std::optional<Datagram>{};
  }
  Datagram dg;
  dg.data.assign(scratch.get(), scratch.get() + n);
  dg.from = SockAddr::from_native(sa);
  return std::optional<Datagram>{std::move(dg)};
}

void UdpSocket::shutdown_read() {
  // An unbound-peer UDP socket reports ENOTCONN, yet the kernel still marks
  // the read side shut and wakes every waiter — which is all this is for.
  (void)::shutdown(fd_.get(), SHUT_RD);
}

std::uint64_t UdpSocket::rx_dropped() const {
#if defined(__linux__) && defined(SO_MEMINFO)
  std::uint32_t meminfo[SK_MEMINFO_VARS] = {};
  socklen_t len = sizeof(meminfo);
  if (::getsockopt(fd_.get(), SOL_SOCKET, SO_MEMINFO, meminfo, &len) == 0 &&
      len > SK_MEMINFO_DROPS * sizeof(std::uint32_t)) {
    return meminfo[SK_MEMINFO_DROPS];
  }
#endif
  return 0;
}

std::size_t UdpSocket::rx_next_bytes() const {
  int bytes = 0;
  if (::ioctl(fd_.get(), FIONREAD, &bytes) != 0 || bytes < 0) return 0;
  return static_cast<std::size_t>(bytes);
}

const char* UdpSocket::data_path_name(DataPath path) {
  switch (path) {
    case DataPath::kAuto: return "auto";
    case DataPath::kFallback: return "fallback";
    case DataPath::kMmsg: return "mmsg";
  }
  return "unknown";
}

std::optional<UdpSocket::DataPath> UdpSocket::data_path_from_name(
    std::string_view name) {
  if (name == "auto") return DataPath::kAuto;
  if (name == "fallback") return DataPath::kFallback;
  if (name == "mmsg") return DataPath::kMmsg;
  return std::nullopt;
}

UdpSocket::DataPath UdpSocket::resolved_data_path() const {
#if JANUS_HAVE_MMSG
  return data_path_ == DataPath::kFallback ? DataPath::kFallback
                                           : DataPath::kMmsg;
#else
  return DataPath::kFallback;
#endif
}

UdpSocket::RecvBatch::RecvBatch(std::size_t capacity, std::size_t slot_bytes)
    : capacity_(std::min(std::max<std::size_t>(1, capacity), kMaxBatch)),
      slot_bytes_(slot_bytes) {
  arena_ =
      std::make_unique_for_overwrite<std::uint8_t[]>(capacity_ * slot_bytes_);
  addrs_.resize(capacity_);
  lens_.resize(capacity_);
  ptrs_.resize(capacity_);
  froms_.resize(capacity_);
}

std::span<const std::uint8_t> UdpSocket::RecvBatch::data(std::size_t i) const {
  return {ptrs_[i], lens_[i]};
}

Result<std::size_t> UdpSocket::recv_many(RecvBatch& batch, Duration timeout) {
  batch.count_ = 0;
  const bool use_mmsg = resolved_data_path() == DataPath::kMmsg;
  (void)use_mmsg;
  // Blocking callers wait inside the receive syscall (an exclusive wait);
  // everyone else polls first and then drains without waiting.
  const bool block = timeout.count() < 0;
  if (!block) {
    int ready = wait_readable(fd_.get(), timeout);
    if (ready < 0) return Error(errno_msg("udp poll"));  // purity-ok: error path
    if (ready == 0) return std::size_t{0};
  }

  // Raw receive into the arena slots: one recvmmsg, or a recvfrom loop on
  // the fallback path. `raw` counts kernel-delivered results before fault
  // filtering; `lost` marks results to skip: truncated datagrams, and the
  // empty, address-less result a blocking receive returns after
  // shutdown_read().
  std::size_t raw = 0;
  std::size_t raw_lens[kMaxBatch];
  bool lost[kMaxBatch];

#if JANUS_HAVE_MMSG
  if (use_mmsg) {
    ::mmsghdr hdrs[kMaxBatch];
    ::iovec iovs[kMaxBatch];
    std::memset(hdrs, 0, sizeof(::mmsghdr) * batch.capacity_);
    for (std::size_t i = 0; i < batch.capacity_; ++i) {
      iovs[i] = {batch.arena_.get() + i * batch.slot_bytes_,
                 batch.slot_bytes_};
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
      hdrs[i].msg_hdr.msg_name = &batch.addrs_[i];
      hdrs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
    // A signal landing mid-drain makes recvmmsg report EINTR only when
    // nothing was received yet (a partial batch returns its count), so the
    // correct reaction is to retry — surfacing an error here used to tear
    // down callers on a harmless SIGPROF/SIGCHLD. net.udp.eintr injects
    // that signal deterministically.
    int n;
    for (;;) {
      if (testing::FaultInjector::instance().should_fire(
              testing::FaultPoint::kNetUdpEintr)) {
        n = -1;
        errno = EINTR;
      } else {
        n = ::recvmmsg(fd_.get(), hdrs,
                       static_cast<unsigned int>(batch.capacity_),
                       block ? MSG_WAITFORONE : MSG_DONTWAIT, nullptr);
      }
      if (n >= 0) break;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return std::size_t{0};
      return Error(errno_msg("udp recvmmsg"));  // purity-ok: error path
    }
    raw = static_cast<std::size_t>(n);
    for (std::size_t i = 0; i < raw; ++i) {
      raw_lens[i] = hdrs[i].msg_len;
      lost[i] = (hdrs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0 ||
                hdrs[i].msg_hdr.msg_namelen == 0;
    }
  } else
#endif
  {
    // Fallback: identical semantics, one syscall per datagram. The first
    // datagram is guaranteed present (poll said readable) or waited for
    // (blocking callers); the rest drain non-blocking until EAGAIN or the
    // batch is full. EINTR mid-drain keeps the datagrams already received
    // and retries the interrupted syscall.
    while (raw < batch.capacity_) {
      const int wait_flag = block && raw == 0 ? 0 : MSG_DONTWAIT;
      sockaddr_in& sa = batch.addrs_[raw];
      socklen_t salen = sizeof(sa);
      ssize_t n;
      if (testing::FaultInjector::instance().should_fire(
              testing::FaultPoint::kNetUdpEintr)) {
        n = -1;
        errno = EINTR;
      } else {
        n = ::recvfrom(fd_.get(),
                       batch.arena_.get() + raw * batch.slot_bytes_,
                       batch.slot_bytes_, wait_flag | MSG_TRUNC,
                       reinterpret_cast<sockaddr*>(&sa), &salen);
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return Error(errno_msg("udp recvfrom"));  // purity-ok: error path
      }
      if (salen == 0) break;  // read side shut down: nothing more to read
      raw_lens[raw] = static_cast<std::size_t>(n);
      lost[raw] = static_cast<std::size_t>(n) > batch.slot_bytes_;
      ++raw;
    }
  }

  // Fault filtering + address conversion, per datagram — a batch of N
  // consults net.udp.drop_rx exactly N times, so seeded chaos schedules
  // see the same per-datagram decision stream as the single recv() path.
  auto& faults = testing::FaultInjector::instance();
  for (std::size_t i = 0; i < raw; ++i) {
    if (lost[i]) continue;  // truncated: drop, as if lost
    if (faults.should_fire(testing::FaultPoint::kNetUdpDropRx)) continue;
    const std::size_t out = batch.count_++;
    batch.ptrs_[out] = batch.arena_.get() + i * batch.slot_bytes_;
    batch.lens_[out] = static_cast<std::uint32_t>(raw_lens[i]);
    batch.froms_[out] = SockAddr::from_native(batch.addrs_[i]);
  }
  return batch.count_;
}

Status UdpSocket::send_many(std::span<const OutDatagram> batch) {
  auto& faults = testing::FaultInjector::instance();
  const bool use_mmsg = resolved_data_path() == DataPath::kMmsg;
  (void)use_mmsg;

  // Per-datagram fault pass, exactly mirroring send_to(): each datagram
  // consults delay_us then drop_tx independently of its batch-mates.
  std::size_t keep[kMaxBatch];
  sockaddr_in natives[kMaxBatch];
  std::size_t pos = 0;
  while (pos < batch.size()) {
    const std::size_t chunk = std::min(batch.size() - pos, kMaxBatch);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < chunk; ++i) {
      const OutDatagram& dg = batch[pos + i];
      if (faults.should_fire(testing::FaultPoint::kNetUdpDelayUs)) {
        // purity-ok: fault-injection delay, chaos builds only
        std::this_thread::sleep_for(std::chrono::microseconds(
            faults.param(testing::FaultPoint::kNetUdpDelayUs)));
      }
      if (faults.should_fire(testing::FaultPoint::kNetUdpDropTx)) {
        continue;  // vanishes in flight; sender still sees success
      }
      auto native = dg.to.to_native();  // purity-ok: error-path alloc inside
      if (!native.ok()) return Error(native.error().message);  // purity-ok: error path
      natives[kept] = native.value();
      keep[kept] = pos + i;
      ++kept;
    }

#if JANUS_HAVE_MMSG
    if (use_mmsg) {
      ::mmsghdr hdrs[kMaxBatch];
      ::iovec iovs[kMaxBatch];
      std::memset(hdrs, 0, sizeof(::mmsghdr) * kept);
      for (std::size_t i = 0; i < kept; ++i) {
        const OutDatagram& dg = batch[keep[i]];
        iovs[i] = {const_cast<std::uint8_t*>(dg.data.data()), dg.data.size()};
        hdrs[i].msg_hdr.msg_iov = &iovs[i];
        hdrs[i].msg_hdr.msg_iovlen = 1;
        hdrs[i].msg_hdr.msg_name = &natives[i];
        hdrs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      }
      std::size_t sent = 0;
      while (sent < kept) {
        // UDP sendmmsg queues into socket buffers and returns — it does not
        // wait for the network, so holding a shard lock across it is bounded.
        // purity-ok: non-waiting datagram enqueue
        int n = ::sendmmsg(fd_.get(), hdrs + sent,
                           static_cast<unsigned int>(kept - sent), 0);
        if (n < 0) {
          if (errno == EINTR) continue;
          return Error(errno_msg("udp sendmmsg"));  // purity-ok: error path
        }
        sent += static_cast<std::size_t>(n);
      }
    } else
#endif
    {
      for (std::size_t i = 0; i < kept; ++i) {
        const OutDatagram& dg = batch[keep[i]];
        ssize_t n = ::sendto(fd_.get(), dg.data.data(), dg.data.size(), 0,
                             reinterpret_cast<sockaddr*>(&natives[i]),
                             sizeof(sockaddr_in));
        if (n < 0) return Error(errno_msg("udp sendto"));  // purity-ok: error path
        if (static_cast<std::size_t>(n) != dg.data.size()) {
          return Error("udp sendto: short write");  // purity-ok: error path
        }
      }
    }
    pos += chunk;
  }
  return Status::success();
}

Result<SockAddr> UdpSocket::local_addr() const {
  sockaddr_in sa{};
  socklen_t salen = sizeof(sa);
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&sa), &salen) != 0) {
    return Error(errno_msg("getsockname"));
  }
  return SockAddr::from_native(sa);
}

Result<TcpStream> TcpStream::connect(const SockAddr& addr, Duration timeout) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Error(errno_msg("tcp socket"));
  auto native = addr.to_native();
  if (!native.ok()) return Error(native.error().message);
  auto sa = native.value();

  // Non-blocking connect with poll so a dead backend fails fast.
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc != 0 && errno != EINPROGRESS) return Error(errno_msg("tcp connect"));
  if (rc != 0) {
    pollfd pfd{fd.get(), POLLOUT, 0};
    int ms = static_cast<int>((timeout.count() + 999'999) / 1'000'000);
    int pr = ::poll(&pfd, 1, ms > 0 ? ms : 1);
    if (pr <= 0) return Error("tcp connect: timeout");
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      return Error(std::string("tcp connect: ") + std::strerror(err));
    }
  }
  ::fcntl(fd.get(), F_SETFL, flags);  // back to blocking

  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(std::move(fd));
}

Status TcpStream::write_all(std::span<const std::uint8_t> data) {
  if (testing::FaultInjector::instance().should_fire(
          testing::FaultPoint::kNetTcpReset)) {
    return Error("tcp send: connection reset by peer (injected)");
  }
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd_.get(), data.data() + off, data.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Error(errno_msg("tcp send"));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::success();
}

Status TcpStream::write_all(std::string_view data) {
  return write_all(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Result<std::optional<std::size_t>> TcpStream::read_some(
    std::span<std::uint8_t> buf, Duration timeout) {
  auto& faults = testing::FaultInjector::instance();
  if (faults.should_fire(testing::FaultPoint::kNetTcpReset)) {
    return Error("tcp recv: connection reset by peer (injected)");
  }
  std::size_t cap = buf.size();
  if (faults.should_fire(testing::FaultPoint::kNetTcpShortRead)) {
    const std::int64_t limit =
        faults.param(testing::FaultPoint::kNetTcpShortRead);
    cap = std::min(cap, static_cast<std::size_t>(limit > 0 ? limit : 1));
  }
  int ready = wait_readable(fd_.get(), timeout);
  if (ready < 0) return Error(errno_msg("tcp poll"));
  if (ready == 0) return std::optional<std::size_t>{};
  ssize_t n = ::recv(fd_.get(), buf.data(), cap, 0);
  if (n < 0) return Error(errno_msg("tcp recv"));
  return std::optional<std::size_t>{static_cast<std::size_t>(n)};
}

Result<SockAddr> TcpStream::peer_addr() const {
  sockaddr_in sa{};
  socklen_t salen = sizeof(sa);
  if (::getpeername(fd_.get(), reinterpret_cast<sockaddr*>(&sa), &salen) != 0) {
    return Error(errno_msg("getpeername"));
  }
  return SockAddr::from_native(sa);
}

void TcpStream::shutdown_write() { ::shutdown(fd_.get(), SHUT_WR); }

Result<TcpListener> TcpListener::listen(const SockAddr& addr) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Error(errno_msg("tcp socket"));
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  auto native = addr.to_native();
  if (!native.ok()) return Error(native.error().message);
  auto sa = native.value();
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return Error(errno_msg("tcp bind"));
  }
  if (::listen(fd.get(), 128) != 0) return Error(errno_msg("tcp listen"));
  return TcpListener(std::move(fd));
}

Result<std::optional<TcpStream>> TcpListener::accept(Duration timeout) {
  if (timeout.count() >= 0) {
    int ready = wait_readable(fd_.get(), timeout);
    if (ready < 0) return Error(errno_msg("accept poll"));
    if (ready == 0) return std::optional<TcpStream>{};
  }
  int cfd;
  do {
    cfd = ::accept(fd_.get(), nullptr, nullptr);
  } while (cfd < 0 && errno == EINTR);
  if (cfd < 0) return Error(errno_msg("accept"));
  int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::optional<TcpStream>{TcpStream(Fd(cfd))};
}

void TcpListener::shutdown() {
  // On Linux this closes the listen queue and fails every blocked accept()
  // with EINVAL.
  (void)::shutdown(fd_.get(), SHUT_RDWR);
}

Result<SockAddr> TcpListener::local_addr() const {
  sockaddr_in sa{};
  socklen_t salen = sizeof(sa);
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&sa), &salen) != 0) {
    return Error(errno_msg("getsockname"));
  }
  return SockAddr::from_native(sa);
}

}  // namespace janus::net
