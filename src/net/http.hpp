// Minimal HTTP/1.1 implementation: enough for the Janus request router's
// front end (GET /qos?...), the gateway load balancer's L7 forwarding, and
// the ab-style workload client. Supports keep-alive and Content-Length
// bodies; no chunked encoding (Janus never emits it).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "common/result.hpp"
#include "net/socket.hpp"

namespace janus::net {

struct HttpHeader {
  std::string name;
  std::string value;
};

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::vector<HttpHeader> headers;
  std::string body;

  std::optional<std::string_view> header(std::string_view name) const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::vector<HttpHeader> headers;
  std::string body;

  std::optional<std::string_view> header(std::string_view name) const;

  static HttpResponse text(int status, std::string body);
};

/// Incremental parser over a byte stream shared by both message directions.
/// Feed bytes; poll for completed messages.
class HttpParser {
 public:
  enum class Kind { kRequest, kResponse };

  explicit HttpParser(Kind kind) : kind_(kind) {}

  void feed(std::string_view bytes) { buffer_ += bytes; }

  /// True when no partial message is buffered (safe point to park the
  /// connection).
  bool buffer_empty() const { return buffer_.empty(); }

  /// Try to extract one complete message. nullopt = need more bytes.
  /// Error = malformed stream (connection should be closed).
  Result<std::optional<HttpRequest>> next_request();
  Result<std::optional<HttpResponse>> next_response();

 private:
  struct Head {
    std::string start_line;
    std::vector<HttpHeader> headers;
    std::size_t content_length = 0;
    std::size_t consumed = 0;
  };
  Result<std::optional<Head>> parse_head();

  Kind kind_;
  std::string buffer_;
};

std::string serialize(const HttpRequest& req);
std::string serialize(const HttpResponse& resp);

/// Blocking HTTP/1.1 server: accept thread + handler pool, keep-alive.
/// Concurrency (DESIGN.md §8): accepted connections flow to workers through
/// a BlockingQueue (`common.queue` rank); the handler runs unlocked, so it
/// may take any application lock. The accept thread blocks in accept();
/// shutdown is an atomic flag + listener shutdown + queue close.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds and starts serving immediately.
  static Result<std::unique_ptr<HttpServer>> start(const SockAddr& addr,
                                                   Handler handler,
                                                   std::size_t worker_threads = 4);

  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  SockAddr addr() const { return addr_; }
  void stop();

 private:
  HttpServer(TcpListener listener, SockAddr addr, Handler handler,
             std::size_t worker_threads);
  struct Connection {
    TcpStream stream;
    HttpParser parser{HttpParser::Kind::kRequest};
  };

  void accept_loop();
  void serve_connection(Connection conn);

  TcpListener listener_;
  SockAddr addr_;
  Handler handler_;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
  BlockingQueue<Connection> pending_;
  std::thread accept_thread_;
};

/// One keep-alive client connection; reconnects transparently.
class HttpClient {
 public:
  explicit HttpClient(SockAddr server, Duration timeout = millis(1000))
      : server_(std::move(server)), timeout_(timeout) {}

  /// Send a request, wait for the response. Retries once on a stale
  /// keep-alive connection.
  Result<HttpResponse> request(const HttpRequest& req);

  Result<HttpResponse> get(const std::string& target);

  const SockAddr& server() const { return server_; }

 private:
  Result<HttpResponse> round_trip(const HttpRequest& req);

  SockAddr server_;
  Duration timeout_;
  std::optional<TcpStream> conn_;
  HttpParser parser_{HttpParser::Kind::kResponse};
};

}  // namespace janus::net
