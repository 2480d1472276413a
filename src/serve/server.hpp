// Socket front-end of the addm_serve daemon: accepts local connections and
// serves each on a worker pool backed by one shared ExploreService.
//
// One connection loop serves both wire modes.  The first byte a client
// sends picks the connection's codec (binary framing or JSON lines,
// serve/protocol.hpp); the loop takes Requests off the socket through that
// codec, runs each through one dispatch() that yields a Reply, and writes
// the codec's encoding of it.  Nothing above the codec knows which mode a
// connection speaks.
//
// Lifecycle contract (the part CI leans on):
//  * start() binds and listens — Unix-domain socket by default, with
//    stale-socket recovery (a leftover path that refuses connections is
//    unlinked and rebound), or TCP on 127.0.0.1 (port 0 = ephemeral,
//    bound_port() reports the choice).
//  * run() owns the accept loop until request_stop() — which is
//    async-signal-safe (one write to a self-pipe), so SIGINT/SIGTERM
//    handlers may call it directly — or until --max-requests /
//    --idle-timeout trips.  Shutdown drains: the listener closes, idle
//    connections are woken with shutdown(SHUT_RD), in-flight requests run
//    to completion and their replies are written, pending cache state is
//    flushed, and run() returns 0.
//  * Hostile input never takes the daemon down: malformed frames and JSON
//    get error replies in the connection's mode (then a close where the
//    stream has no trustworthy boundary left), client disconnects mid-stream
//    abort only that connection, and writes use MSG_NOSIGNAL plus a send
//    timeout so a stuck peer cannot wedge a worker forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace addm::serve {

struct ServerOptions {
  /// Unix-domain socket path; used when non-empty (the default transport).
  std::string unix_path;
  /// TCP loopback port when unix_path is empty; 0 = ephemeral.
  int tcp_port = 0;
  /// Concurrent connection workers (each serves one connection at a time).
  std::size_t request_threads = 2;
  /// Stop after this many requests have been served (0 = unlimited).
  std::uint64_t max_requests = 0;
  /// Stop after this many seconds with no connections and no requests
  /// in flight (0 = never).
  double idle_timeout_seconds = 0.0;
  /// Suppress the stderr lifecycle log lines.
  bool quiet = false;
};

class Server {
 public:
  Server(ExploreService& service, ServerOptions opt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens.  Returns false with `error` set on failure
  /// (address in use by a live daemon, permission, bad path).
  bool start(std::string& error);

  /// Port actually bound (TCP mode; -1 for Unix sockets).
  int bound_port() const { return bound_port_; }

  /// Accept/dispatch loop; blocks until a stop condition, then drains and
  /// returns the process exit code (0 on a clean drain).
  int run();

  /// Initiates shutdown.  Async-signal-safe.
  void request_stop();

 private:
  void handle_connection(int fd);
  /// The one connection loop: takes requests off the socket through the
  /// connection's codec, dispatches each and writes its encoded reply.
  void serve_connection(int fd, WireMode mode);
  /// Runs one request against the service.  Clears `keep` when the
  /// connection must close after this reply: admin shutdown, or
  /// max_requests reached (both also start the drain).
  Reply dispatch(const Request& req, bool& keep);
  void note_activity();
  void close_listener();

  ExploreService& service_;
  ServerOptions opt_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  int bound_port_ = -1;
  bool unlink_on_close_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> last_activity_ms_{0};
  std::atomic<std::size_t> active_conns_{0};
  /// Live connection fds, for the drain's SHUT_RD wakeup.
  std::mutex conns_mu_;
  std::vector<int> conn_fds_;
};

}  // namespace addm::serve
