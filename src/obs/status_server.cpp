#include "obs/status_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"

namespace abg::obs {

namespace {

struct Route {
  std::string content_type;
  std::function<std::string()> body_fn;
};

struct RichRoute {
  std::string method;
  std::string prefix;
  std::function<HttpResponse(const HttpRequest&)> handler;
};

const char* reason_phrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Response";
  }
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // client went away; nothing to do
    off += static_cast<std::size_t>(n);
  }
}

std::string render_response(const HttpResponse& r) {
  std::string out =
      "HTTP/1.1 " + std::to_string(r.code) + " " + reason_phrase(r.code) + "\r\n";
  out += "Content-Type: " + r.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
  for (const auto& [name, value] : r.headers) out += name + ": " + value + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += r.body;
  return out;
}

// Read until `want` bytes are buffered past the current size, within the
// per-phase deadline. Connections are served serially on one thread, so a
// client that trickles bytes must not hold up other pollers (or stop()).
bool read_until(int fd, std::string& buf, std::size_t cap,
                const std::function<bool(const std::string&)>& done,
                std::chrono::steady_clock::time_point deadline) {
  using clock = std::chrono::steady_clock;
  char tmp[2048];
  while (!done(buf)) {
    if (buf.size() >= cap) return false;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - clock::now());
    if (left.count() <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, static_cast<int>(left.count()));
    if (pr <= 0) return false;
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
    if (n <= 0) return false;
    buf.append(tmp, static_cast<std::size_t>(n));
  }
  return true;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

// Parse the header block (request line + headers) out of `head`, which ends
// at the first \r\n\r\n. False on malformed requests.
bool parse_head(const std::string& head, HttpRequest* req) {
  const std::size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) return false;
  const std::string line = head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  req->method = line.substr(0, sp1);
  req->path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (const auto q = req->path.find('?'); q != std::string::npos) {
    req->query = req->path.substr(q + 1);
    req->path.resize(q);
  }
  std::size_t pos = line_end + 2;
  while (pos < head.size()) {
    const std::size_t end = head.find("\r\n", pos);
    if (end == std::string::npos || end == pos) break;  // blank line = done
    const std::string hline = head.substr(pos, end - pos);
    const std::size_t colon = hline.find(':');
    if (colon != std::string::npos) {
      std::string value = hline.substr(colon + 1);
      const std::size_t first = value.find_first_not_of(" \t");
      value = first == std::string::npos ? std::string() : value.substr(first);
      req->headers[lower(hline.substr(0, colon))] = value;
    }
    pos = end + 2;
  }
  return true;
}

bool prefix_matches(const std::string& prefix, const std::string& path) {
  if (path == prefix) return true;
  return path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
         path[prefix.size()] == '/';
}

}  // namespace

const std::string& HttpRequest::header(const std::string& lowercase_name) const {
  static const std::string kEmpty;
  const auto it = headers.find(lowercase_name);
  return it == headers.end() ? kEmpty : it->second;
}

std::string HttpRequest::query_param(const std::string& key) const {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp) {
      if (query.compare(pos, eq - pos, key) == 0) {
        return query.substr(eq + 1, amp - eq - 1);
      }
    } else if (query.compare(pos, amp - pos, key) == 0) {
      return std::string();  // bare flag, present but valueless
    }
    pos = amp + 1;
  }
  return std::string();
}

HttpResponse HttpResponse::text(int code, std::string body) {
  return HttpResponse{code, "text/plain", std::move(body), {}};
}

HttpResponse HttpResponse::json(int code, std::string body) {
  return HttpResponse{code, "application/json", std::move(body), {}};
}

HttpResponse error_response(int http_code, std::string_view code, std::string_view message,
                            double retry_after_s) {
  JsonWriter w;
  w.begin_object();
  w.key("error");
  w.begin_object();
  w.key("code");
  w.value(code);
  w.key("message");
  w.value(message);
  if (retry_after_s >= 0.0) {
    w.key("retry_after_s");
    w.value(retry_after_s);
  }
  w.end_object();
  w.end_object();
  HttpResponse resp = HttpResponse::json(http_code, w.take() + "\n");
  if (retry_after_s >= 0.0) {
    resp.headers.emplace_back(
        "Retry-After", std::to_string(static_cast<long long>(std::ceil(retry_after_s))));
  }
  return resp;
}

struct StatusServer::Impl {
  int listen_fd = -1;
  int wake_pipe[2] = {-1, -1};  // self-pipe: stop() writes, server thread polls
  std::thread thread;
  std::map<std::string, Route> routes;       // legacy GET exact-path providers
  std::vector<RichRoute> rich_routes;        // method-aware prefix handlers
  std::size_t max_body_bytes = 1 << 20;

  HttpResponse dispatch(const HttpRequest& req) {
    // Longest matching prefix among rich routes with this method wins; the
    // legacy exact-path GET table participates with prefix length == path
    // length, so it beats any shorter prefix route.
    const RichRoute* best = nullptr;
    std::set<std::string> allowed;  // methods the matched path supports
    for (const auto& r : rich_routes) {
      if (!prefix_matches(r.prefix, req.path)) continue;
      allowed.insert(r.method);
      if (r.method != req.method) continue;
      if (best == nullptr || r.prefix.size() > best->prefix.size()) best = &r;
    }
    const auto legacy = routes.find(req.path);
    if (legacy != routes.end()) allowed.insert("GET");
    if (legacy != routes.end() && req.method == "GET" &&
        (best == nullptr || best->prefix.size() < req.path.size())) {
      return HttpResponse{200, legacy->second.content_type, legacy->second.body_fn(), {}};
    }
    if (best != nullptr) return best->handler(req);
    if (!allowed.empty()) {
      // Known path, unsupported method: 405 naming what would work (ISSUE 8
      // hardening; a generic 404 here hides the route from the caller).
      std::string allow;
      for (const auto& m : allowed) allow += (allow.empty() ? "" : ", ") + m;
      HttpResponse resp = error_response(405, "method_not_allowed",
                                         req.method + " is not supported on " + req.path +
                                             " (Allow: " + allow + ")");
      resp.headers.emplace_back("Allow", allow);
      return resp;
    }
    return error_response(404, "not_found", "no route for " + req.path);
  }

  void serve_connection(int fd) {
    using clock = std::chrono::steady_clock;
    // Head: 8 KiB / 2 s budget from accept.
    std::string buf;
    const bool have_head = read_until(
        fd, buf, 8192,
        [](const std::string& b) { return b.find("\r\n\r\n") != std::string::npos; },
        clock::now() + std::chrono::seconds(2));
    if (!have_head) {
      ::close(fd);
      return;
    }
    const std::size_t head_end = buf.find("\r\n\r\n") + 4;
    HttpRequest req;
    if (!parse_head(buf.substr(0, head_end), &req)) {
      ::close(fd);
      return;
    }

    // Versioned surface (ISSUE 9): /v1/<path> is the canonical spelling of
    // every route; handlers are registered (and dispatched) on the legacy
    // unversioned path, so the prefix is stripped here. Unversioned requests
    // keep working but answer with a Deprecation header plus a Link to their
    // /v1 successor.
    const bool versioned =
        req.path == "/v1" || (req.path.size() > 3 && req.path.compare(0, 4, "/v1/") == 0);
    const std::string unversioned_path = req.path;
    if (versioned) {
      req.path = req.path.size() > 3 ? req.path.substr(3) : std::string("/");
    }

    HttpResponse resp;
    bool parsed_body = true;
    if (!req.header("transfer-encoding").empty()) {
      resp = error_response(501, "not_implemented", "chunked request bodies are not supported");
      parsed_body = false;
    } else {
      std::size_t content_length = 0;
      const std::string& cl = req.header("content-length");
      if (!cl.empty()) {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(cl.c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
          resp = error_response(400, "bad_request", "malformed Content-Length header");
          parsed_body = false;
        } else {
          content_length = static_cast<std::size_t>(v);
        }
      }
      if (parsed_body && content_length > max_body_bytes) {
        // Shed before reading: the declared body alone breaches the bound.
        resp = error_response(413, "payload_too_large",
                              "request body exceeds " + std::to_string(max_body_bytes) +
                                  " bytes");
        parsed_body = false;
      } else if (parsed_body) {
        // Body: own 5 s budget; cap guards a client lying low with a small
        // Content-Length then trickling more.
        std::string body = buf.substr(head_end);
        if (body.size() < content_length &&
            !read_until(
                fd, body, content_length,
                [content_length](const std::string& b) { return b.size() >= content_length; },
                clock::now() + std::chrono::seconds(5))) {
          ::close(fd);
          return;
        }
        body.resize(std::min(body.size(), content_length));
        req.body = std::move(body);
        resp = dispatch(req);
      }
    }
    if (!versioned) {
      // Deprecation (RFC 9745) + the successor link, on every unversioned
      // response — transport errors included, so clients migrating off the
      // legacy spelling hear about it no matter what they hit. The counter
      // shows who still does.
      static auto& c_deprecated = counter("http.deprecated_requests");
      c_deprecated.add();
      resp.headers.emplace_back("Deprecation", "true");
      resp.headers.emplace_back("Link", "</v1" + unversioned_path + ">; rel=\"successor-version\"");
    }
    write_all(fd, render_response(resp));
    ::close(fd);
  }

  void run() {
    for (;;) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {wake_pipe[0], POLLIN, 0}};
      const int pr = ::poll(fds, 2, -1);
      if (pr < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if ((fds[1].revents & POLLIN) != 0) return;  // stop() signalled
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      serve_connection(fd);
    }
  }
};

StatusServer::StatusServer() : impl_(new Impl) {
  impl_->routes["/healthz"] = Route{"text/plain", [] { return std::string("ok\n"); }};
  impl_->routes["/metrics"] = Route{"text/plain; version=0.0.4",
                                    [] { return prometheus_text(); }};
}

StatusServer::~StatusServer() {
  stop();
  delete impl_;
}

void StatusServer::handle(std::string path, std::string content_type,
                          std::function<std::string()> body_fn) {
  impl_->routes[std::move(path)] = Route{std::move(content_type), std::move(body_fn)};
}

void StatusServer::route(std::string method, std::string path_prefix,
                         std::function<HttpResponse(const HttpRequest&)> handler) {
  impl_->rich_routes.push_back(
      RichRoute{std::move(method), std::move(path_prefix), std::move(handler)});
}

bool StatusServer::start(std::uint16_t port, std::string* err) {
  auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = what + ": " + std::strerror(errno);
    if (impl_->listen_fd >= 0) {
      ::close(impl_->listen_fd);
      impl_->listen_fd = -1;
    }
    for (int& fd : impl_->wake_pipe) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
    return false;
  };
  if (running_) {
    if (err != nullptr) *err = "already running";
    return false;
  }
  impl_->max_body_bytes = max_body_bytes_;

  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local-only by design
  addr.sin_port = htons(port);
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return fail("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(impl_->listen_fd, 16) != 0) return fail("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  if (::pipe(impl_->wake_pipe) != 0) return fail("pipe");

  impl_->thread = std::thread([this] { impl_->run(); });
  running_ = true;
  return true;
}

void StatusServer::stop() {
  if (!running_) return;
  const char b = 0;
  [[maybe_unused]] const ssize_t n = ::write(impl_->wake_pipe[1], &b, 1);
  impl_->thread.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  for (int& fd : impl_->wake_pipe) {
    ::close(fd);
    fd = -1;
  }
  running_ = false;
}

}  // namespace abg::obs
