#include "serve/server.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "json/json.h"

namespace lumos::serve {

namespace {

/// send() with partial-write and EINTR handling; MSG_NOSIGNAL so a peer
/// that hung up yields an error instead of SIGPIPE.
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string hash_hex(std::uint64_t hash) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string predict_reply(std::int64_t id, const Engine::Outcome& outcome) {
  const api::Prediction& p = outcome.prediction;
  const analysis::Breakdown& b = p.breakdown;
  return json::write(json::Value(json::Object{
      {"id", id},
      {"ok", true},
      {"makespan_ns", p.sim.makespan_ns},
      {"makespan_ms", p.makespan_ms()},
      {"executed", static_cast<std::int64_t>(p.sim.executed)},
      {"kernels_eliminated",
       static_cast<std::int64_t>(p.kernels_eliminated)},
      {"fusion_saved_ns", p.fusion_saved_ns},
      {"breakdown", json::Object{{"exposed_compute_ns", b.exposed_compute_ns},
                                 {"overlapped_ns", b.overlapped_ns},
                                 {"exposed_comm_ns", b.exposed_comm_ns},
                                 {"other_ns", b.other_ns}}},
      {"baseline_cached", outcome.baseline_was_cached},
      {"coalesced", outcome.coalesced},
      {"content_hash", hash_hex(outcome.content_hash)}}));
}

std::string stats_reply(std::int64_t id, const Engine::Stats& s,
                        std::size_t timeouts) {
  return json::write(json::Value(json::Object{
      {"id", id},
      {"ok", true},
      {"requests", static_cast<std::int64_t>(s.requests)},
      {"hits", static_cast<std::int64_t>(s.hits)},
      {"misses", static_cast<std::int64_t>(s.misses)},
      {"evictions", static_cast<std::int64_t>(s.evictions)},
      {"coalesced", static_cast<std::int64_t>(s.coalesced)},
      {"cached_baselines", static_cast<std::int64_t>(s.cached_baselines)},
      {"cached_bytes", static_cast<std::int64_t>(s.cached_bytes)},
      {"timeouts", static_cast<std::int64_t>(timeouts)}}));
}

/// Arms SO_RCVTIMEO + SO_SNDTIMEO on a connection. Best-effort: a failing
/// setsockopt leaves the fd blocking, which only restores today's
/// no-deadline behavior for that connection.
void arm_deadline(int fd, std::int64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), engine_(options_.engine) {}

Result<std::unique_ptr<Server>> Server::start(ServerOptions options) {
  if (options.socket_path.empty()) {
    return invalid_argument_error("serve: empty socket path");
  }
  sockaddr_un addr{};
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    return invalid_argument_error("serve: socket path too long: " +
                                  options.socket_path);
  }
  if (options.workers == 0) options.workers = 1;

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return io_error(std::string("serve: socket(): ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  ::unlink(options.socket_path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    return io_error("serve: bind(" + options.socket_path +
                    "): " + std::strerror(err));
  }
  if (::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(options.socket_path.c_str());
    return io_error(std::string("serve: listen(): ") + std::strerror(err));
  }

  std::unique_ptr<Server> server(
      new Server(std::move(options)));  // lumos-lint: allow(H004) private ctor
  server->listen_fd_ = fd;
  server->acceptor_ = std::thread([s = server.get()] { s->accept_loop(); });
  server->workers_.reserve(server->options_.workers);
  for (std::size_t i = 0; i < server->options_.workers; ++i) {
    server->workers_.emplace_back([s = server.get()] { s->worker_loop(); });
  }
  return server;
}

Server::~Server() { shutdown(); }

void Server::signal_stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Unblocks the accept loop (Linux: accept on a shut-down listener
  // returns EINVAL) and any worker blocked in recv() on an idle
  // connection.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    // SHUT_RD only: unblocks recv() (returns 0) but lets a worker finish
    // sending the reply in flight — the shutdown request's own ack rides
    // one of these connections.
    MutexLock lock(mu_);
    for (int fd : active_) ::shutdown(fd, SHUT_RD);
  }
  queue_cv_.notify_all();
  stopped_cv_.notify_all();
}

void Server::wait() {
  MutexLock lock(mu_);
  while (!stopping_) stopped_cv_.wait(mu_);
}

void Server::shutdown() {
  signal_stop();
  {
    MutexLock lock(mu_);
    if (joined_) return;
    joined_ = true;
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  std::deque<int> orphans;
  {
    MutexLock lock(mu_);
    orphans.swap(pending_);
  }
  for (int fd : orphans) ::close(fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or broken): stop accepting
    }
    bool busy = false;
    {
      MutexLock lock(mu_);
      if (stopping_) {
        ::close(fd);
        break;
      }
      if (pending_.size() >= options_.max_pending) {
        busy = true;  // admission control: refuse instead of queueing
      } else {
        pending_.push_back(fd);
      }
    }
    if (busy) {
      send_all(fd, error_reply(0, failed_precondition_error(
                                      "server busy: connection queue full")) +
                       "\n");
      ::close(fd);
    } else {
      queue_cv_.notify_one();
    }
  }
}

void Server::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      MutexLock lock(mu_);
      while (!stopping_ && pending_.empty()) queue_cv_.wait(mu_);
      if (pending_.empty()) return;  // stopping and drained
      fd = pending_.front();
      pending_.pop_front();
    }
    serve_connection(fd);
    ::close(fd);
  }
}

void Server::serve_connection(int fd) {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    active_.push_back(fd);
  }
  if (options_.request_timeout_ms > 0) {
    arm_deadline(fd, options_.request_timeout_ms);
  }
  serve_connection_loop(fd);
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i] == fd) {
      active_[i] = active_.back();
      active_.pop_back();
      break;
    }
  }
}

void Server::serve_connection_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string reply = handle_line(line);
      reply += '\n';
      if (!send_all(fd, reply)) return;
      {
        // After a shutdown (from this request or elsewhere) finish the
        // reply in flight, then drop the connection so workers drain.
        MutexLock lock(mu_);
        if (stopping_) return;
      }
    }
    if (buffer.size() > kMaxRequestLineBytes) {
      // The rest of an oversized line cannot be answered in order, so the
      // connection ends with the refusal.
      send_all(fd, error_reply(0, invalid_argument_error(
                                      "request line longer than " +
                                      std::to_string(kMaxRequestLineBytes) +
                                      " bytes")) +
                       "\n");
      return;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO expired: the peer connected but stalled mid-request
      // (hung client / slow loris). Count it before telling the peer why
      // (a client that reads the reply must observe the bumped counter),
      // then free the worker. The send is best effort — SO_SNDTIMEO
      // bounds it too.
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      send_all(fd, error_reply(0, deadline_exceeded_error(
                                      "request timed out after " +
                                      std::to_string(
                                          options_.request_timeout_ms) +
                                      "ms")) +
                       "\n");
      return;
    }
    if (n <= 0) return;  // EOF or error: the peer is done
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Server::handle_line(const std::string& line) {
  Request request;
  if (Status status = decode_request(line, request); !status.is_ok()) {
    return error_reply(request.id, status);
  }
  switch (request.method) {
    case Method::kPing:
      return pong_reply(request.id);
    case Method::kStats:
      return stats_reply(request.id, engine_.stats(),
                         timeouts_.load(std::memory_order_relaxed));
    case Method::kShutdown:
      signal_stop();
      return json::write(json::Value(json::Object{
          {"id", request.id}, {"ok", true}, {"shutdown", true}}));
    case Method::kPredict:
      break;
  }
  Result<Engine::Outcome> outcome = engine_.predict(request);
  if (!outcome.is_ok()) return error_reply(request.id, outcome.status());
  return predict_reply(request.id, *outcome);
}

Result<std::string> request_over_socket(const std::string& socket_path,
                                        const std::string& line) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return invalid_argument_error("serve: socket path too long: " +
                                  socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return io_error(std::string("serve: socket(): ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    return io_error("serve: connect(" + socket_path +
                    "): " + std::strerror(err));
  }
  if (!send_all(fd, line + "\n")) {
    const int err = errno;
    ::close(fd);
    return io_error(std::string("serve: send(): ") + std::strerror(err));
  }
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return io_error("serve: connection closed before a full reply");
    }
    reply.append(chunk, static_cast<std::size_t>(n));
    if (const std::size_t newline = reply.find('\n');
        newline != std::string::npos) {
      ::close(fd);
      reply.resize(newline);
      return reply;
    }
  }
}

}  // namespace lumos::serve
