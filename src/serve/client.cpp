#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace addm::serve {

namespace {

// Opens a stream socket connected to `addr`; -1 with `error` on failure.
int connect_stream(int family, const void* addr, socklen_t len,
                   const std::string& where, std::string& error) {
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(fd, static_cast<const sockaddr*>(addr), len) == 0) return fd;
  error = "connect " + where + ": " + std::strerror(errno);
  ::close(fd);
  return -1;
}

}  // namespace

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ServeClient::connect_unix(const std::string& path, std::string& error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    error = "socket path too long: " + path;
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  fd_ = connect_stream(AF_UNIX, &addr, sizeof addr, path, error);
  return fd_ >= 0;
}

bool ServeClient::connect_tcp(const std::string& host, int port,
                              std::string& error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    error = "bad IPv4 address: " + host;
    return false;
  }
  fd_ = connect_stream(AF_INET, &addr, sizeof addr,
                       host + ":" + std::to_string(port), error);
  return fd_ >= 0;
}

bool ServeClient::send_all(std::string_view data, std::string& error) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool ServeClient::recv_more(std::string& error) {
  char tmp[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
    if (n > 0) {
      rbuf_.append(tmp, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) {
      error = "server closed the connection mid-reply";
      return false;
    }
    if (errno == EINTR) continue;
    error = std::string("recv: ") + std::strerror(errno);
    return false;
  }
}

bool ServeClient::exchange(const Request& req, Result& out,
                           std::string& transport_error) {
  out = Result{};
  if (fd_ < 0) {
    transport_error = "not connected";
    return false;
  }
  const WireMode mode = json_mode_ ? WireMode::kJson : WireMode::kBinary;
  if (!send_all(encode_request(mode, req), transport_error)) return false;
  for (;;) {
    switch (take_reply(mode, rbuf_, req.kind, out, transport_error)) {
      case TakeStatus::kDone:
        return true;
      case TakeStatus::kNeedMore:
        if (!recv_more(transport_error)) return false;
        break;
      default:
        return false;
    }
  }
}

bool ServeClient::explore(const ExploreRequest& req, Result& out,
                          std::string& transport_error) {
  return exchange({RequestKind::kExplore, req, {}}, out, transport_error);
}

bool ServeClient::admin(std::string_view command, Result& out,
                        std::string& transport_error) {
  return exchange({RequestKind::kAdmin, {}, std::string(command)}, out,
                  transport_error);
}

bool ServeClient::ping(std::string& banner, std::string& transport_error) {
  Result r;
  if (!exchange({}, r, transport_error)) return false;
  if (!r.ok) {
    transport_error = "ping failed: " + r.error.code;
    return false;
  }
  banner = std::move(r.body);
  return true;
}

}  // namespace addm::serve
