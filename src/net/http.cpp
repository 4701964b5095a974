#include "net/http.hpp"

#include "common/logging.hpp"
#include "common/string_util.hpp"

namespace janus::net {

namespace {

std::optional<std::string_view> find_header(
    const std::vector<HttpHeader>& headers, std::string_view name) {
  for (const auto& h : headers) {
    if (iequals(h.name, name)) return std::string_view(h.value);
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string_view> HttpRequest::header(
    std::string_view name) const {
  return find_header(headers, name);
}

std::optional<std::string_view> HttpResponse::header(
    std::string_view name) const {
  return find_header(headers, name);
}

HttpResponse HttpResponse::text(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.reason = status == 200   ? "OK"
                : status == 400 ? "Bad Request"
                : status == 403 ? "Forbidden"
                : status == 404 ? "Not Found"
                : status == 503 ? "Service Unavailable"
                                : "Status";
  resp.body = std::move(body);
  return resp;
}

Result<std::optional<HttpParser::Head>> HttpParser::parse_head() {
  const std::size_t end = buffer_.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (buffer_.size() > 64 * 1024) return Error("http: header too large");
    return std::optional<Head>{};
  }

  Head head;
  head.consumed = end + 4;
  std::string_view block(buffer_.data(), end);
  auto lines = split(block, '\n');
  if (lines.empty()) return Error("http: empty head");

  head.start_line = std::string(trim(lines[0]));
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = trim(lines[i]);
    if (line.empty()) continue;
    std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return Error("http: bad header line");
    HttpHeader h{std::string(trim(line.substr(0, colon))),
                 std::string(trim(line.substr(colon + 1)))};
    if (iequals(h.name, "Content-Length")) {
      auto len = parse_u64(trim(line.substr(colon + 1)));
      if (!len || *len > 16 * 1024 * 1024) return Error("http: bad length");
      head.content_length = static_cast<std::size_t>(*len);
    }
    head.headers.push_back(std::move(h));
  }
  return std::optional<Head>{std::move(head)};
}

Result<std::optional<HttpRequest>> HttpParser::next_request() {
  auto head = parse_head();
  if (!head.ok()) return Error(head.error().message);
  if (!head.value()) return std::optional<HttpRequest>{};
  Head& h = *head.value();
  if (buffer_.size() < h.consumed + h.content_length) {
    return std::optional<HttpRequest>{};  // body not complete yet
  }

  auto parts = split(h.start_line, ' ');
  if (parts.size() != 3) return Error("http: bad request line");
  if (!starts_with(parts[2], "HTTP/1.")) return Error("http: bad version");

  HttpRequest req;
  req.method = std::string(parts[0]);
  req.target = std::string(parts[1]);
  req.headers = std::move(h.headers);
  req.body = buffer_.substr(h.consumed, h.content_length);
  buffer_.erase(0, h.consumed + h.content_length);
  return std::optional<HttpRequest>{std::move(req)};
}

Result<std::optional<HttpResponse>> HttpParser::next_response() {
  auto head = parse_head();
  if (!head.ok()) return Error(head.error().message);
  if (!head.value()) return std::optional<HttpResponse>{};
  Head& h = *head.value();
  if (buffer_.size() < h.consumed + h.content_length) {
    return std::optional<HttpResponse>{};
  }

  auto parts = split_n(h.start_line, ' ', 3);
  if (parts.size() < 2 || !starts_with(parts[0], "HTTP/1.")) {
    return Error("http: bad status line");
  }
  auto code = parse_i64(parts[1]);
  if (!code || *code < 100 || *code > 599) return Error("http: bad status");

  HttpResponse resp;
  resp.status = static_cast<int>(*code);
  resp.reason = parts.size() == 3 ? std::string(parts[2]) : "";
  resp.headers = std::move(h.headers);
  resp.body = buffer_.substr(h.consumed, h.content_length);
  buffer_.erase(0, h.consumed + h.content_length);
  return std::optional<HttpResponse>{std::move(resp)};
}

std::string serialize(const HttpRequest& req) {
  std::string out = req.method + " " + req.target + " HTTP/1.1\r\n";
  bool has_length = false;
  for (const auto& h : req.headers) {
    out += h.name + ": " + h.value + "\r\n";
    if (iequals(h.name, "Content-Length")) has_length = true;
  }
  if (!req.body.empty() && !has_length) {
    out += "Content-Length: " + std::to_string(req.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += req.body;
  return out;
}

std::string serialize(const HttpResponse& resp) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    resp.reason + "\r\n";
  bool has_length = false;
  for (const auto& h : resp.headers) {
    out += h.name + ": " + h.value + "\r\n";
    if (iequals(h.name, "Content-Length")) has_length = true;
  }
  if (!has_length) {
    out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += resp.body;
  return out;
}

Result<std::unique_ptr<HttpServer>> HttpServer::start(const SockAddr& addr,
                                                      Handler handler,
                                                      std::size_t worker_threads) {
  auto listener = TcpListener::listen(addr);
  if (!listener.ok()) return Error(listener.error().message);
  auto local = listener.value().local_addr();
  if (!local.ok()) return Error(local.error().message);
  return std::unique_ptr<HttpServer>(
      new HttpServer(std::move(listener).take(), local.value(),
                     std::move(handler), worker_threads));
}

HttpServer::HttpServer(TcpListener listener, SockAddr addr, Handler handler,
                       std::size_t worker_threads)
    : listener_(std::move(listener)),
      addr_(std::move(addr)),
      handler_(std::move(handler)) {
  for (std::size_t i = 0; i < worker_threads; ++i) {
    workers_.emplace_back([this] {
      while (auto conn = pending_.pop()) {
        serve_connection(std::move(*conn));
      }
    });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  listener_.shutdown();  // fails the accept thread's blocked accept()
  pending_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void HttpServer::accept_loop() {
  while (true) {
    auto stream = listener_.accept(Duration{-1});
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (!stream.ok()) {
      JLOG_WARN("http accept failed: %s", stream.error().message.c_str());
      continue;
    }
    pending_.try_push(Connection{std::move(*stream.value())});
  }
}

void HttpServer::serve_connection(Connection conn) {
  // Workers multiplex: an idle keep-alive connection is parked back onto the
  // queue (at a message boundary) so a bounded pool can serve an unbounded
  // number of persistent connections without starvation.
  std::uint8_t buf[16 * 1024];
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto req = conn.parser.next_request();
    if (!req.ok()) {
      (void)conn.stream.write_all(
          serialize(HttpResponse::text(400, "bad request")));
      return;
    }
    if (req.value()) {
      HttpRequest& r = *req.value();
      const bool close = [&] {
        auto header = r.header("Connection");
        return header && iequals(*header, "close");
      }();
      HttpResponse resp = handler_(r);
      if (!conn.stream.write_all(serialize(resp)).ok()) return;
      if (close) return;
      continue;
    }
    auto n = conn.stream.read_some(buf, millis(20));
    if (!n.ok()) return;          // connection error
    if (!n.value()) {
      // Idle: park the connection if it is at a message boundary so other
      // pending connections get a worker; otherwise keep waiting for the
      // rest of the partial message.
      if (conn.parser.buffer_empty() && pending_.size() > 0) {
        pending_.try_push(std::move(conn));
        return;
      }
      continue;  // also re-checks stopping_
    }
    if (*n.value() == 0) return;  // peer closed
    conn.parser.feed(
        std::string_view(reinterpret_cast<char*>(buf), *n.value()));
  }
}

Result<HttpResponse> HttpClient::round_trip(const HttpRequest& req) {
  if (!conn_) {
    auto stream = TcpStream::connect(server_, timeout_);
    if (!stream.ok()) return Error(stream.error().message);
    conn_.emplace(std::move(stream).take());
    parser_ = HttpParser(HttpParser::Kind::kResponse);
  }
  if (auto s = conn_->write_all(serialize(req)); !s.ok()) {
    conn_.reset();
    return Error(s.error().message);
  }
  std::uint8_t buf[16 * 1024];
  for (;;) {
    auto resp = parser_.next_response();
    if (!resp.ok()) {
      conn_.reset();
      return Error(resp.error().message);
    }
    if (resp.value()) return std::move(*resp.value());
    auto n = conn_->read_some(buf, timeout_);
    if (!n.ok()) {
      conn_.reset();
      return Error(n.error().message);
    }
    if (!n.value()) {
      conn_.reset();
      return Error("http: response timeout");
    }
    if (*n.value() == 0) {
      conn_.reset();
      return Error("http: connection closed mid-response");
    }
    parser_.feed(std::string_view(reinterpret_cast<char*>(buf), *n.value()));
  }
}

Result<HttpResponse> HttpClient::request(const HttpRequest& req) {
  const bool had_conn = conn_.has_value();
  auto resp = round_trip(req);
  if (!resp.ok() && had_conn) {
    // Stale keep-alive connection (server restarted / idle timeout): retry
    // once on a fresh connection.
    return round_trip(req);
  }
  return resp;
}

Result<HttpResponse> HttpClient::get(const std::string& target) {
  HttpRequest req;
  req.method = "GET";
  req.target = target;
  return request(req);
}

}  // namespace janus::net
