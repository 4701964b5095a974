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
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/sync.hpp"
#include "net/uring.hpp"
#include "testing/fault_injector.hpp"

namespace janus::net {

namespace detail {

#if JANUS_HAVE_URING
/// Per-socket io_uring provider state (DESIGN.md §13). Two rings so send
/// completions never interleave with the multishot receive stream:
///
///   recv_ring — single-consumer, unguarded: exactly one thread (the
///               listener / fused worker) calls recv_many on a socket, the
///               same ownership rule the SPSC job queues already rely on.
///   send_ring — guarded by submit_mu (LockRank::kUringSubmit): workers
///               flush reply batches concurrently in shared-queue mode.
struct UringState {
  uring::Ring recv_ring;
  uring::Ring send_ring;
  Mutex submit_mu{LockRank::kUringSubmit, "net.uring_submit"};
  // Armed multishot recvmsg template. The kernel copies it at submission,
  // but it must stay stable while an arm SQE is in flight.
  msghdr recv_hdr{};
  bool recv_armed = false;
  // Buffer ids delivered to the app by the last recv_many; recycled to the
  // kernel at the start of the next call (results are views into the
  // slots, so they stay valid exactly until then).
  std::vector<unsigned> owned_bids;
  // Stats (relaxed: polled by the admin/metrics thread while hot threads
  // increment).
  std::atomic<std::uint64_t> recv_batches{0};
  std::atomic<std::uint64_t> recv_datagrams{0};
  std::atomic<std::uint64_t> send_batches{0};
  std::atomic<std::uint64_t> send_datagrams{0};
  std::atomic<std::uint64_t> rearms{0};
  std::atomic<std::uint64_t> buf_recycles{0};
  std::atomic<std::uint64_t> send_errors{0};
};
#else
struct UringState {};
#endif

}  // namespace detail

namespace {

std::string errno_msg(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

#if JANUS_HAVE_URING
// Receive buffer geometry: each registered slot holds the recvmsg metadata
// header (io_uring_recvmsg_out + the armed name buffer) in front of up to
// kRecvSlotBytes of payload, so truncation semantics match the mmsg path
// exactly. 256 slots let multishot keep landing datagrams while the app
// still owns a full kMaxBatch of views from the previous batch.
constexpr unsigned kUringRecvSlots = 256;
constexpr std::uint32_t kUringSlotHeaderBytes =
    sizeof(io_uring_recvmsg_out) + sizeof(sockaddr_in);
constexpr std::uint32_t kUringSlotBytes =
    static_cast<std::uint32_t>(UdpSocket::kRecvSlotBytes) +
    kUringSlotHeaderBytes;
constexpr unsigned kUringRecvSq = 64;    // rearm + buffer-provide SQEs
constexpr unsigned kUringRecvCq = 1024;  // >= slots + provide completions
constexpr unsigned kUringSendSq = 64;    // one chunk of send_many
constexpr unsigned kUringSendCq = 128;
#endif

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

UdpSocket::UdpSocket(Fd fd) : fd_(std::move(fd)) {}
UdpSocket::~UdpSocket() = default;
UdpSocket::UdpSocket(UdpSocket&& other) noexcept = default;
UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept = default;

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
#if JANUS_HAVE_URING
  if (resolved_data_path() == DataPath::kUring) {
    // The armed multishot recvmsg consumes every datagram on the socket, so
    // a recvfrom here would starve. Borrow the batched path; this is the
    // cold convenience API, so the per-call batch (and the copy out of the
    // registered slot) costs the same order as the 64 KiB buffer below.
    RecvBatch one(1);
    auto got = recv_many(one, timeout);
    if (!got.ok()) return Error(got.error().message);
    if (got.value() == 0) return std::optional<Datagram>{};
    Datagram dg;
    auto view = one.data(0);
    dg.data.assign(view.begin(), view.end());
    dg.from = one.from(0);
    return std::optional<Datagram>{std::move(dg)};
  }
#endif
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

std::atomic<bool> UdpSocket::batch_syscalls_enabled_{true};

void UdpSocket::set_batch_syscalls_enabled(bool enabled) {
  batch_syscalls_enabled_.store(enabled, std::memory_order_relaxed);
}

bool UdpSocket::batch_syscalls_enabled() {
#if JANUS_HAVE_MMSG
  return batch_syscalls_enabled_.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

bool UdpSocket::uring_supported() {
#if JANUS_HAVE_URING
  return uring::kernel_supports_uring();
#else
  return false;
#endif
}

const char* UdpSocket::data_path_name(DataPath path) {
  switch (path) {
    case DataPath::kAuto: return "auto";
    case DataPath::kFallback: return "fallback";
    case DataPath::kMmsg: return "mmsg";
    case DataPath::kUring: return "uring";
  }
  return "unknown";
}

std::optional<UdpSocket::DataPath> UdpSocket::data_path_from_name(
    std::string_view name) {
  if (name == "auto") return DataPath::kAuto;
  if (name == "fallback") return DataPath::kFallback;
  if (name == "mmsg") return DataPath::kMmsg;
  if (name == "uring") return DataPath::kUring;
  return std::nullopt;
}

bool UdpSocket::set_data_path(DataPath path) {
  if (path == data_path_ && (path != DataPath::kUring || uring_ != nullptr)) {
    return true;
  }
  if (path == DataPath::kUring) {
#if JANUS_HAVE_URING
    const uring::Support support = uring::probed_support();
    if (support == uring::Support::kNone) return false;
    auto st = std::make_unique<detail::UringState>();
    const uring::BufMode mode = support == uring::Support::kBufRing
                                    ? uring::BufMode::kBufRing
                                    : uring::BufMode::kLegacy;
    if (!st->recv_ring.init(kUringRecvSq, kUringRecvCq, nullptr) ||
        !st->recv_ring.init_buf_ring(kUringRecvSlots, kUringSlotBytes, mode,
                                     nullptr) ||
        !st->send_ring.init(kUringSendSq, kUringSendCq, nullptr)) {
      return false;
    }
    st->owned_bids.reserve(kUringRecvSlots);
    st->recv_hdr = msghdr{};
    st->recv_hdr.msg_namelen = sizeof(sockaddr_in);
    uring_ = std::move(st);
#else
    return false;
#endif
  } else {
    // Dropping the rings cancels any armed multishot receive; datagrams the
    // kernel already landed in registered slots are lost, which is why the
    // provider must be switched before the I/O threads start.
    uring_.reset();
  }
  data_path_ = path;
  return true;
}

UdpSocket::DataPath UdpSocket::resolved_data_path() const {
  switch (data_path_) {
    case DataPath::kUring:
      if (uring_ != nullptr) return DataPath::kUring;
      break;  // degraded: fall through to the auto rules
    case DataPath::kMmsg:
#if JANUS_HAVE_MMSG
      return DataPath::kMmsg;
#else
      return DataPath::kFallback;
#endif
    case DataPath::kFallback:
      return DataPath::kFallback;
    case DataPath::kAuto:
      break;
  }
  return batch_syscalls_enabled() ? DataPath::kMmsg : DataPath::kFallback;
}

UdpSocket::UringStats UdpSocket::uring_stats() const {
  UringStats out;
#if JANUS_HAVE_URING
  if (uring_ != nullptr) {
    const detail::UringState& st = *uring_;
    out.recv_batches = st.recv_batches.load(std::memory_order_relaxed);
    out.recv_datagrams = st.recv_datagrams.load(std::memory_order_relaxed);
    out.send_batches = st.send_batches.load(std::memory_order_relaxed);
    out.send_datagrams = st.send_datagrams.load(std::memory_order_relaxed);
    out.rearms = st.rearms.load(std::memory_order_relaxed);
    out.buf_recycles = st.buf_recycles.load(std::memory_order_relaxed);
    out.send_errors = st.send_errors.load(std::memory_order_relaxed);
  }
#endif
  return out;
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

void UdpSocket::RecvBatch::ensure_slot_bytes(std::size_t min_slot_bytes) {
  if (slot_bytes_ >= min_slot_bytes) return;
  // A re-layout invalidates every view from the previous call; providers
  // only revalidate between batches, when no results are outstanding.
  assert(count_ == 0 && "RecvBatch resized while holding results");
  count_ = 0;
  slot_bytes_ = min_slot_bytes;
  // purity-ok: one-time geometry revalidation; steady state never re-grows
  arena_ =
      std::make_unique_for_overwrite<std::uint8_t[]>(capacity_ * slot_bytes_);
}

Result<std::size_t> UdpSocket::recv_many(RecvBatch& batch, Duration timeout) {
  batch.count_ = 0;
#if JANUS_HAVE_URING
  if (resolved_data_path() == DataPath::kUring) {
    return recv_many_uring(batch, timeout);
  }
#endif
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

#if JANUS_HAVE_URING

void UdpSocket::arm_uring_recv() {
  detail::UringState& st = *uring_;
  io_uring_sqe* sqe = st.recv_ring.next_sqe();
  if (sqe == nullptr) return;  // SQ momentarily full: retried next call
  sqe->opcode = IORING_OP_RECVMSG;
  sqe->fd = fd_.get();
  sqe->addr = reinterpret_cast<std::uint64_t>(&st.recv_hdr);
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = uring::kRecvBufGroup;
  st.recv_armed = true;
  st.rearms.fetch_add(1, std::memory_order_relaxed);
}

Result<std::size_t> UdpSocket::recv_many_uring(RecvBatch& batch,
                                               Duration timeout) {
  detail::UringState& st = *uring_;
  uring::Ring& ring = st.recv_ring;
  auto& faults = testing::FaultInjector::instance();

  // The uring provider delivers zero-copy views of up to kRecvSlotBytes; a
  // batch built with smaller slots is revalidated so its advertised
  // geometry matches what data(i) can actually return.
  batch.ensure_slot_bytes(kRecvSlotBytes);

  // Views from the previous batch die here: hand their slots back to the
  // kernel (a tail store in buf-ring mode, provide SQEs that ride the next
  // enter() otherwise).
  if (!st.owned_bids.empty()) {
    for (unsigned bid : st.owned_bids) ring.buf_recycle(bid);
    st.buf_recycles.fetch_add(st.owned_bids.size(),
                              std::memory_order_relaxed);
    st.owned_bids.clear();
    ring.buf_publish();
  }
  if (!st.recv_armed) arm_uring_recv();

  // Drain completions the multishot already landed; stop at capacity and
  // leave the rest for the next call (their slots stay kernel-owned).
  auto drain = [&]() -> Status {
    while (batch.count_ < batch.capacity_ && ring.cq_ready() > 0) {
      const io_uring_cqe* cqe = ring.cq_at(0);
      const std::int32_t res = cqe->res;
      const std::uint32_t flags = cqe->flags;
      const std::uint64_t user_data = cqe->user_data;
      ring.cq_advance(1);
      if (user_data == uring::kProvideUserData) continue;
      if ((flags & IORING_CQE_F_MORE) == 0) st.recv_armed = false;
      if (res < 0) {
        // Multishot termination. ENOBUFS (app owns every slot) and EINTR
        // re-arm on the next pass; anything else is a real socket error.
        if (res == -ENOBUFS || res == -EINTR) continue;
        errno = -res;
        return Error(errno_msg("udp uring recvmsg"));  // purity-ok: error path
      }
      if ((flags & IORING_CQE_F_BUFFER) == 0) continue;
      const unsigned bid = flags >> IORING_CQE_BUFFER_SHIFT;
      // purity-ok: reserved to ring capacity at setup, never reallocates
      st.owned_bids.push_back(bid);
      unsigned char* slot = ring.buf_slot(bid);
      const auto* out = reinterpret_cast<const io_uring_recvmsg_out*>(slot);
      if ((out->flags & MSG_TRUNC) != 0) continue;  // drop, as if lost
      if (faults.should_fire(testing::FaultPoint::kNetUdpDropRx)) continue;
      const std::uint8_t* payload = slot + kUringSlotHeaderBytes;
      const std::size_t idx = batch.count_++;
      batch.ptrs_[idx] = payload;
      batch.lens_[idx] = out->payloadlen;
      if (out->namelen >= sizeof(sockaddr_in)) {
        sockaddr_in sa;
        std::memcpy(&sa, slot + sizeof(io_uring_recvmsg_out), sizeof(sa));
        batch.froms_[idx] = SockAddr::from_native(sa);
      } else {
        batch.froms_[idx] = SockAddr{};
      }
      st.recv_datagrams.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::success();
  };

  Status s = drain();
  if (!s.ok()) return Error(s.error().message);  // purity-ok: error path

  // Nothing ready: flush pending SQEs (arm + provides) and wait once, like
  // the poll() in the classic path. EINTR — real or injected via
  // net.udp.eintr — retries the wait; datagrams already drained would have
  // returned above without waiting at all.
  if (batch.count_ == 0) {
    const long long ns = timeout.count() < 0 ? -1 : timeout.count();
    for (;;) {
      if (!st.recv_armed) arm_uring_recv();
      const unsigned min_complete = timeout.count() == 0 ? 0u : 1u;
      int rc;
      if (faults.should_fire(testing::FaultPoint::kNetUdpEintr)) {
        rc = -EINTR;
      } else {
        rc = ring.enter(min_complete, ns);
      }
      if (rc == -EINTR) continue;
      if (rc < 0 && rc != -ETIME) {
        errno = -rc;
        return Error(errno_msg("udp uring enter"));  // purity-ok: error path
      }
      break;
    }
    s = drain();
    if (!s.ok()) return Error(s.error().message);  // purity-ok: error path
  } else if (ring.sq_pending() > 0) {
    (void)ring.enter(0, -1);  // flush provides/arm without waiting
  }

  st.recv_batches.fetch_add(1, std::memory_order_relaxed);
  return batch.count_;
}

Status UdpSocket::send_many_uring(std::span<const OutDatagram> batch) {
  detail::UringState& st = *uring_;
  auto& faults = testing::FaultInjector::instance();
  MutexLock lock(st.submit_mu);
  uring::Ring& ring = st.send_ring;

  std::size_t keep[kMaxBatch];
  sockaddr_in natives[kMaxBatch];
  ::msghdr hdrs[kMaxBatch];
  ::iovec iovs[kMaxBatch];
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

    // One sendmsg SQE per datagram, one enter() for the whole chunk; the
    // submit-and-wait keeps OutDatagram's "alive for the duration of the
    // call" contract — UDP sendmsg completes once the datagram is queued,
    // so the wait does not stretch to network round trips.
    for (std::size_t i = 0; i < kept; ++i) {
      const OutDatagram& dg = batch[keep[i]];
      iovs[i] = {const_cast<std::uint8_t*>(dg.data.data()), dg.data.size()};
      hdrs[i] = msghdr{};
      hdrs[i].msg_name = &natives[i];
      hdrs[i].msg_namelen = sizeof(sockaddr_in);
      hdrs[i].msg_iov = &iovs[i];
      hdrs[i].msg_iovlen = 1;
      io_uring_sqe* sqe = ring.next_sqe();
      // SQ is sized to kMaxBatch and drained before unlock, so this cannot
      // run dry mid-chunk.
      sqe->opcode = IORING_OP_SENDMSG;
      sqe->fd = fd_.get();
      sqe->addr = reinterpret_cast<std::uint64_t>(&hdrs[i]);
      sqe->user_data = i;
    }
    std::size_t reaped = 0;
    int first_err = 0;
    while (reaped < kept) {
      int rc = ring.enter(static_cast<unsigned>(kept - reaped), -1);
      if (rc < 0 && rc != -EINTR) {
        errno = -rc;
        return Error(errno_msg("udp uring enter"));  // purity-ok: error path
      }
      while (ring.cq_ready() > 0) {
        const io_uring_cqe* cqe = ring.cq_at(0);
        if (cqe->res < 0 && first_err == 0) first_err = -cqe->res;
        ring.cq_advance(1);
        ++reaped;
      }
    }
    if (first_err != 0) {
      st.send_errors.fetch_add(1, std::memory_order_relaxed);
      errno = first_err;
      return Error(errno_msg("udp uring sendmsg"));  // purity-ok: error path
    }
    st.send_datagrams.fetch_add(kept, std::memory_order_relaxed);
    pos += chunk;
  }
  st.send_batches.fetch_add(1, std::memory_order_relaxed);
  return Status::success();
}

#else  // !JANUS_HAVE_URING

void UdpSocket::arm_uring_recv() {}

Result<std::size_t> UdpSocket::recv_many_uring(RecvBatch&, Duration) {
  // purity-ok: non-Linux stub, unreachable (resolved path never kUring)
  return Error("uring data path unavailable on this platform");
}

Status UdpSocket::send_many_uring(std::span<const OutDatagram>) {
  // purity-ok: non-Linux stub, unreachable (resolved path never kUring)
  return Error("uring data path unavailable on this platform");
}

#endif  // JANUS_HAVE_URING

Status UdpSocket::send_many(std::span<const OutDatagram> batch) {
#if JANUS_HAVE_URING
  if (resolved_data_path() == DataPath::kUring) {
    return send_many_uring(batch);
  }
#endif
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
