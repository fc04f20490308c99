// serve::Server: the long-lived lumos_serve daemon — a Unix-domain-socket
// front end over serve::Engine.
//
//   - One accept loop; accepted connections queue for a fixed worker pool.
//   - Admission control: when the pending-connection queue is full, the
//     connection is answered immediately with a busy error and closed
//     instead of growing an unbounded backlog.
//   - Each worker owns one connection until EOF, answering one NDJSON
//     request per line (serve/protocol.h), in order. A line longer than
//     kMaxRequestLineBytes is refused and its connection closed.
//   - A request that fails is answered with its Status and the connection
//     lives on — per-request isolation, a deadlocked what-if cannot wedge
//     the daemon.
//   - The "shutdown" method (or shutdown()) stops the accept loop, drains
//     the workers and removes the socket file.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/status.h"
#include "serve/engine.h"
#include "support/mutex.h"
#include "support/thread_annotations.h"

namespace lumos::serve {

/// Longest request line a connection may send. A connection whose pending
/// line passes it without a '\n' gets a kInvalidArgument reply and is
/// closed, so no client grows a worker's buffer without bound. Requests
/// are well under 1 KiB.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

struct ServerOptions {
  std::string socket_path;      ///< AF_UNIX path; stale files are replaced
  std::size_t workers = 2;      ///< request-handling threads
  std::size_t max_pending = 16; ///< queued connections before "busy" replies
  /// Per-connection read/write deadline, in milliseconds (SO_RCVTIMEO /
  /// SO_SNDTIMEO). A peer that connects and then stalls mid-request — a
  /// hung client, a slow-loris drip — would otherwise pin its worker in
  /// recv() forever. On expiry the worker sends a structured
  /// kDeadlineExceeded reply, counts it in timeouts(), and closes the
  /// connection. 0 (the default) keeps the blocking behavior.
  std::int64_t request_timeout_ms = 0;
  Engine::Options engine;
};

class Server {
 public:
  /// Binds and listens on options.socket_path and starts the accept loop
  /// and worker pool. kIoError when the socket cannot be created or bound.
  static Result<std::unique_ptr<Server>> start(ServerOptions options);

  ~Server();  // shutdown() + join
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Blocks until the server shuts down (shutdown() or a "shutdown"
  /// request).
  void wait() LUMOS_EXCLUDES(mu_);

  /// Stops accepting, drains workers, closes queued connections and
  /// unlinks the socket file. Idempotent; safe from any thread except a
  /// worker's own (workers signal instead — the shutdown request path).
  void shutdown() LUMOS_EXCLUDES(mu_);

  Engine& engine() { return engine_; }
  const std::string& socket_path() const { return options_.socket_path; }
  /// Connections dropped for missing the request_timeout_ms deadline.
  std::size_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }

 private:
  explicit Server(ServerOptions options);

  void accept_loop() LUMOS_EXCLUDES(mu_);
  void worker_loop() LUMOS_EXCLUDES(mu_);
  /// Serves one connection until EOF; returns when the peer closes or the
  /// server stops. Registers the fd in active_ so signal_stop() can
  /// unblock a worker parked in recv().
  void serve_connection(int fd) LUMOS_EXCLUDES(mu_);
  void serve_connection_loop(int fd) LUMOS_EXCLUDES(mu_);
  /// Handles one decoded line; returns the reply. Sets stopping_ for
  /// shutdown requests.
  std::string handle_line(const std::string& line) LUMOS_EXCLUDES(mu_);
  void signal_stop() LUMOS_EXCLUDES(mu_);

  ServerOptions options_;
  Engine engine_;
  /// Written once in start() before any thread exists, reset in shutdown()
  /// after every thread is joined — never touched concurrently, so not
  /// guarded (the accept loop reads it lock-free by design).
  int listen_fd_ = -1;

  Mutex mu_;
  CondVar queue_cv_;    ///< workers wait for connections
  CondVar stopped_cv_;  ///< wait() waits for stopping_
  /// accepted, unassigned connections
  std::deque<int> pending_ LUMOS_GUARDED_BY(mu_);
  /// connections workers are serving
  std::vector<int> active_ LUMOS_GUARDED_BY(mu_);
  bool stopping_ LUMOS_GUARDED_BY(mu_) = false;
  bool joined_ LUMOS_GUARDED_BY(mu_) = false;
  /// Deadline-expired connections; atomic (not GUARDED_BY) because workers
  /// bump it outside mu_ on the timeout path.
  std::atomic<std::size_t> timeouts_{0};

  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

/// Client helper: connect to `socket_path`, send `line` (newline appended)
/// and return the single reply line. kIoError on connect/IO failure or a
/// connection closed before a full reply.
Result<std::string> request_over_socket(const std::string& socket_path,
                                        const std::string& line);

}  // namespace lumos::serve
