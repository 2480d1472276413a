// Client side of the addm_serve protocol: one blocking connection, one
// request/reply exchange per call.  Used by tools/addm_client, pipebench
// and the in-process server tests.
//
// Two transports (Unix-domain path or TCP loopback) × two wire modes
// (binary framing, default; JSON lines via set_json_mode).  Every call goes
// through one exchange(): the connection's codec (serve/protocol.hpp)
// encodes the Request and decodes the Reply, so the result is identical in
// either mode.
#pragma once

#include <string>
#include <string_view>
#include <utility>

#include "serve/protocol.hpp"

namespace addm::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ServeClient(ServeClient&& other) noexcept { *this = std::move(other); }
  ServeClient& operator=(ServeClient&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      json_mode_ = other.json_mode_;
      rbuf_ = std::move(other.rbuf_);
      other.fd_ = -1;
    }
    return *this;
  }

  /// Closes the connection (destructor does this too).
  void close();

  /// Connects over a Unix-domain socket / TCP loopback.  Returns false
  /// with `error` on failure; the client is then unusable.
  bool connect_unix(const std::string& path, std::string& error);
  bool connect_tcp(const std::string& host, int port, std::string& error);

  /// Switches this connection to the JSON-lines fallback mode.  Must be
  /// called before the first request (the server locks the mode onto the
  /// first byte it sees).
  void set_json_mode(bool on) { json_mode_ = on; }

  /// Result of one request: the server's Reply.  On ok, `body` is the full
  /// report (explore), the command output (admin) or the banner (ping); on
  /// !ok, `error` carries the server's error.  Transport failures are
  /// reported separately through the bool return + `transport_error`.
  using Result = Reply;

  /// Sends one request and reads its whole reply.  Returns false only on a
  /// transport/protocol failure (closed connection, malformed or
  /// unexpected reply).
  bool exchange(const Request& req, Result& out, std::string& transport_error);

  /// Runs one explore request to completion.
  bool explore(const ExploreRequest& req, Result& out,
               std::string& transport_error);

  /// Runs one admin command ("stats", "compact", "prune E B", "flush",
  /// "shutdown").
  bool admin(std::string_view command, Result& out,
             std::string& transport_error);

  /// Liveness probe; fills `banner` with the server banner.
  bool ping(std::string& banner, std::string& transport_error);

 private:
  bool send_all(std::string_view data, std::string& error);
  /// Appends the next bytes from the socket to rbuf_.
  bool recv_more(std::string& error);

  int fd_ = -1;
  bool json_mode_ = false;
  std::string rbuf_;
};

}  // namespace addm::serve
