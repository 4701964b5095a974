#include "net/socket.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "testing/fault_injector.hpp"

namespace janus::net {
namespace {

std::span<const std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(SockAddrTest, ToStringFormatsIpPort) {
  SockAddr addr{"127.0.0.1", 8080};
  EXPECT_EQ(addr.to_string(), "127.0.0.1:8080");
}

TEST(SockAddrTest, NativeRoundTrip) {
  SockAddr addr{"10.1.2.3", 1234};
  auto native = addr.to_native();
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(SockAddr::from_native(native.value()), addr);
}

TEST(SockAddrTest, RejectsBadAddress) {
  EXPECT_FALSE((SockAddr{"not-an-ip", 1}).to_native().ok());
  EXPECT_FALSE((SockAddr{"256.0.0.1", 1}).to_native().ok());
}

TEST(UdpSocketTest, BindEphemeralAssignsPort) {
  auto sock = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(sock.ok());
  auto addr = sock.value().local_addr();
  ASSERT_TRUE(addr.ok());
  EXPECT_GT(addr.value().port, 0);
}

TEST(UdpSocketTest, SendAndReceiveDatagram) {
  auto server = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  auto server_addr = server.value().local_addr().value();

  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().send_to(server_addr, bytes("ping")).ok());

  auto dg = server.value().recv(millis(500));
  ASSERT_TRUE(dg.ok());
  ASSERT_TRUE(dg.value().has_value());
  EXPECT_EQ(std::string(dg.value()->data.begin(), dg.value()->data.end()),
            "ping");

  // Reply to the observed source address.
  ASSERT_TRUE(server.value().send_to(dg.value()->from, bytes("pong")).ok());
  auto reply = client.value().recv(millis(500));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply.value().has_value());
  EXPECT_EQ(std::string(reply.value()->data.begin(), reply.value()->data.end()),
            "pong");
}

TEST(UdpSocketTest, MaxSizeDatagramThenShortOneArriveIntact) {
  // recv() reuses one uninitialised 64 KiB buffer per thread: the largest
  // IPv4 UDP payload must fit whole, and a short datagram after it must not
  // carry any of its bytes.
  auto server = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  auto addr = server.value().local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  std::vector<std::uint8_t> big(65507);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  ASSERT_TRUE(client.value().send_to(addr, big).ok());
  ASSERT_TRUE(client.value().send_to(addr, bytes("tail")).ok());

  auto first = server.value().recv(millis(500));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().has_value());
  EXPECT_EQ(first.value()->data, big);
  auto second = server.value().recv(Duration{-1});
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second.value().has_value());
  EXPECT_EQ(std::string(second.value()->data.begin(),
                        second.value()->data.end()),
            "tail");
}

TEST(UdpSocketTest, ShutdownReadWakesABlockedRecv) {
  auto server = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  Result<std::optional<UdpSocket::Datagram>> got =
      std::optional<UdpSocket::Datagram>{UdpSocket::Datagram{}};
  std::thread waiter([&] { got = server.value().recv(Duration{-1}); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.value().shutdown_read();
  waiter.join();
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().has_value());
}

TEST(UdpSocketTest, ReceiveQueueOverflowIsCountedAsRxDropped) {
  auto server = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  auto addr = server.value().local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(server.value().rx_dropped(), 0u);
  EXPECT_EQ(server.value().rx_next_bytes(), 0u);
  // Nobody reads: the default receive buffer holds a few hundred small
  // datagrams, so 20k must overflow it.
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(client.value().send_to(addr, bytes("flood")).ok());
  }
  EXPECT_GT(server.value().rx_dropped(), 0u);
  EXPECT_EQ(server.value().rx_next_bytes(), 5u);
}

TEST(UdpSocketTest, RecvTimesOutCleanly) {
  auto sock = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(sock.ok());
  const auto start = std::chrono::steady_clock::now();
  auto dg = sock.value().recv(millis(20));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(dg.ok());
  EXPECT_FALSE(dg.value().has_value());
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(UdpSocketTest, DatagramBoundariesPreserved) {
  auto server = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  auto addr = server.value().local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().send_to(addr, bytes("one")).ok());
  ASSERT_TRUE(client.value().send_to(addr, bytes("twotwo")).ok());
  auto first = server.value().recv(millis(500));
  auto second = server.value().recv(millis(500));
  ASSERT_TRUE(first.ok() && first.value().has_value());
  ASSERT_TRUE(second.ok() && second.value().has_value());
  EXPECT_EQ(first.value()->data.size(), 3u);
  EXPECT_EQ(second.value()->data.size(), 6u);
}

std::multiset<std::string> recv_all(UdpSocket& sock, std::size_t expect) {
  UdpSocket::RecvBatch batch(8);
  std::multiset<std::string> got;
  // Datagrams from separate sendto calls may land across wakeups; keep
  // draining until everything expected arrived (or the window closes).
  for (int spins = 0; got.size() < expect && spins < 50; ++spins) {
    auto n = sock.recv_many(batch, millis(100));
    if (!n.ok()) break;
    for (std::size_t i = 0; i < n.value(); ++i) {
      auto d = batch.data(i);
      got.emplace(reinterpret_cast<const char*>(d.data()), d.size());
    }
  }
  return got;
}

// ---------------------------------------------------------------------------
// Provider-parameterized batch suite: every batched-I/O behavior below runs
// once per data-path provider (fallback loop, recvmmsg/sendmmsg).
// ---------------------------------------------------------------------------
class UdpSocketProviderTest
    : public ::testing::TestWithParam<UdpSocket::DataPath> {
 protected:
  /// Bound socket running this instance's provider.
  UdpSocket make_server() {
    auto sock = UdpSocket::bind({"127.0.0.1", 0});
    EXPECT_TRUE(sock.ok());
    UdpSocket server = std::move(sock).take();
    server.set_data_path(GetParam());
    EXPECT_EQ(server.resolved_data_path(), GetParam());
    return server;
  }

  /// Unbound sender running this instance's provider (exercises send_many).
  UdpSocket make_client() {
    auto sock = UdpSocket::create();
    EXPECT_TRUE(sock.ok());
    UdpSocket client = std::move(sock).take();
    client.set_data_path(GetParam());
    return client;
  }
};

TEST_P(UdpSocketProviderTest, RecvManyDrainsMultipleDatagrams) {
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  const std::multiset<std::string> sent = {"a", "bb", "ccc", "dddd", "eeeee"};
  for (const auto& p : sent) {
    ASSERT_TRUE(client.value().send_to(addr, bytes(p)).ok());
  }
  // Loopback delivery completes inside send_to, so all five datagrams are
  // queued before this single recv_many — one call must drain the lot
  // (the "batch >= 2 under load" acceptance shape, deterministically).
  UdpSocket::RecvBatch batch(8);
  auto n = server.recv_many(batch, millis(500));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), sent.size());
  std::multiset<std::string> got;
  for (std::size_t i = 0; i < n.value(); ++i) {
    auto d = batch.data(i);
    got.emplace(reinterpret_cast<const char*>(d.data()), d.size());
  }
  EXPECT_EQ(got, sent);
}

TEST_P(UdpSocketProviderTest, SendManyDeliversEveryDatagram) {
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  UdpSocket client = make_client();

  const std::multiset<std::string> payloads = {"one", "two", "three", "four"};
  std::vector<std::string> frames(payloads.begin(), payloads.end());
  std::vector<UdpSocket::OutDatagram> burst;
  for (const auto& f : frames) burst.push_back({addr, bytes(f)});
  ASSERT_TRUE(client.send_many(burst).ok());

  EXPECT_EQ(recv_all(server, payloads.size()), payloads);
}

TEST_P(UdpSocketProviderTest, RecvManyTimesOutWithZero) {
  UdpSocket server = make_server();
  UdpSocket::RecvBatch batch(4);
  auto n = server.recv_many(batch, millis(20));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);
}

TEST_P(UdpSocketProviderTest, BlockingRecvManyWaitsForWorkThenShutdown) {
  // timeout < 0 blocks in the receive syscall itself. Datagrams queued
  // before shutdown_read() are still delivered; after that a blocked (or
  // later) call returns 0 at once.
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  UdpSocket::RecvBatch batch(4);

  std::thread late_sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    (void)client.value().send_to(addr, bytes("late"));
  });
  auto n = server.recv_many(batch, Duration{-1});
  late_sender.join();
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(batch.data(0).data()),
                        batch.data(0).size()),
            "late");

  ASSERT_TRUE(client.value().send_to(addr, bytes("queued")).ok());
  server.shutdown_read();
  n = server.recv_many(batch, Duration{-1});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u) << "a datagram queued before shutdown was lost";

  Result<std::size_t> woken = std::size_t{99};
  std::thread waiter([&] { woken = server.recv_many(batch, Duration{-1}); });
  waiter.join();
  ASSERT_TRUE(woken.ok());
  EXPECT_EQ(woken.value(), 0u);
}

TEST_P(UdpSocketProviderTest, SingleRecvRoutesThroughProvider) {
  // recv() must keep working whatever provider the socket runs.
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().send_to(addr, bytes("solo")).ok());
  auto dg = server.recv(millis(500));
  ASSERT_TRUE(dg.ok());
  ASSERT_TRUE(dg.value().has_value());
  EXPECT_EQ(std::string(dg.value()->data.begin(), dg.value()->data.end()),
            "solo");
}

TEST_P(UdpSocketProviderTest, EintrMidBatchReturnsDrainedDatagrams) {
  // Regression (PR 9): a signal interrupting the batched receive used to
  // surface as an Error even when datagrams had already been drained. The
  // injected EINTR fires before data is touched; recv_many must retry and
  // deliver every queued datagram without reporting an error.
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  const std::multiset<std::string> sent = {"sig", "nal", "safe"};
  for (const auto& p : sent) {
    ASSERT_TRUE(client.value().send_to(addr, bytes(p)).ok());
  }

  auto& inj = testing::FaultInjector::instance();
  inj.seed(42);
  {
    testing::ScopedFault eintr(testing::FaultPoint::kNetUdpEintr,
                               {.probability = 1.0, .max_fires = 2});
    UdpSocket::RecvBatch batch(8);
    std::multiset<std::string> got;
    for (int spins = 0; got.size() < sent.size() && spins < 50; ++spins) {
      auto n = server.recv_many(batch, millis(200));
      ASSERT_TRUE(n.ok()) << "EINTR mid-batch must not surface as an error";
      for (std::size_t i = 0; i < n.value(); ++i) {
        auto d = batch.data(i);
        got.emplace(reinterpret_cast<const char*>(d.data()), d.size());
      }
    }
    EXPECT_EQ(got, sent);
    EXPECT_EQ(inj.fires(testing::FaultPoint::kNetUdpEintr), 2u)
        << "fault was armed but the provider never consulted it";
  }
}

TEST_P(UdpSocketProviderTest, SmallSlotBatchIsRevalidatedOrTruncates) {
  // A batch built with tiny slots keeps the caller's slot size: every
  // provider drops a datagram longer than a slot as truncated.
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  const std::string big(128, 'x');
  ASSERT_TRUE(client.value().send_to(addr, bytes(big)).ok());

  UdpSocket::RecvBatch batch(4, 16);
  ASSERT_EQ(batch.slot_bytes(), 16u);
  auto n = server.recv_many(batch, millis(300));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(batch.slot_bytes(), 16u);
  EXPECT_EQ(n.value(), 0u);  // truncated datagram dropped
}

INSTANTIATE_TEST_SUITE_P(
    DataPaths, UdpSocketProviderTest,
    ::testing::Values(UdpSocket::DataPath::kFallback,
                      UdpSocket::DataPath::kMmsg),
    [](const ::testing::TestParamInfo<UdpSocket::DataPath>& info) {
      return UdpSocket::data_path_name(info.param);
    });

TEST(UdpSocketBatchTest, FallbackPathMatchesBatchSyscalls) {
  // The same exchange on sockets forced onto the fallback provider: the
  // per-datagram recvfrom/sendto loops must deliver identical results.
  auto server = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  server.value().set_data_path(UdpSocket::DataPath::kFallback);
  auto addr = server.value().local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  client.value().set_data_path(UdpSocket::DataPath::kFallback);

  const std::multiset<std::string> payloads = {"w", "xx", "yyy"};
  std::vector<std::string> frames(payloads.begin(), payloads.end());
  std::vector<UdpSocket::OutDatagram> burst;
  for (const auto& f : frames) burst.push_back({addr, bytes(f)});
  ASSERT_TRUE(client.value().send_many(burst).ok());

  EXPECT_EQ(recv_all(server.value(), payloads.size()), payloads);
}

TEST(UdpSocketBatchTest, RecvBatchCapacityIsClamped) {
  UdpSocket::RecvBatch tiny(0);
  EXPECT_EQ(tiny.capacity(), 1u);
  UdpSocket::RecvBatch huge(10'000);
  EXPECT_EQ(huge.capacity(), UdpSocket::kMaxBatch);
}

TEST(UdpSocketBatchTest, SendManyEmptyBatchIsNoop) {
  auto sock = UdpSocket::create();
  ASSERT_TRUE(sock.ok());
  EXPECT_TRUE(sock.value().send_many({}).ok());
}

TEST(TcpTest, ListenConnectExchange) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  auto addr = listener.value().local_addr().value();

  std::thread server([&] {
    auto conn = listener.value().accept(seconds(5));
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.value().has_value());
    TcpStream stream = std::move(*conn.value());
    std::uint8_t buf[64];
    auto n = stream.read_some(buf, seconds(5));
    ASSERT_TRUE(n.ok());
    ASSERT_TRUE(n.value().has_value());
    EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), *n.value()), "hello");
    ASSERT_TRUE(stream.write_all("world").ok());
  });

  auto client = TcpStream::connect(addr, seconds(5));
  ASSERT_TRUE(client.ok());
  TcpStream stream = std::move(client).take();
  ASSERT_TRUE(stream.write_all("hello").ok());
  std::uint8_t buf[64];
  auto n = stream.read_some(buf, seconds(5));
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(n.value().has_value());
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), *n.value()), "world");
  server.join();
}

TEST(TcpTest, AcceptTimesOut) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  auto conn = listener.value().accept(millis(20));
  ASSERT_TRUE(conn.ok());
  EXPECT_FALSE(conn.value().has_value());
}

TEST(TcpTest, ShutdownWakesABlockedAccept) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  Result<std::optional<TcpStream>> got = std::optional<TcpStream>{};
  std::thread waiter([&] { got = listener.value().accept(Duration{-1}); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.value().shutdown();
  waiter.join();
  EXPECT_FALSE(got.ok()) << "accept() after shutdown must fail, not block";
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Bind + close to find a port that is (very likely) not listening.
  std::uint16_t port;
  {
    auto temp = TcpListener::listen({"127.0.0.1", 0});
    ASSERT_TRUE(temp.ok());
    port = temp.value().local_addr().value().port;
  }
  auto client = TcpStream::connect({"127.0.0.1", port}, millis(200));
  EXPECT_FALSE(client.ok());
}

TEST(TcpTest, ReadDetectsPeerClose) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  auto addr = listener.value().local_addr().value();
  std::thread server([&] {
    auto conn = listener.value().accept(seconds(5));
    ASSERT_TRUE(conn.ok() && conn.value().has_value());
    // Close immediately.
  });
  auto client = TcpStream::connect(addr, seconds(5));
  ASSERT_TRUE(client.ok());
  server.join();
  std::uint8_t buf[16];
  auto n = client.value().read_some(buf, seconds(5));
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(n.value().has_value());
  EXPECT_EQ(*n.value(), 0u);  // clean EOF
}

}  // namespace
}  // namespace janus::net
