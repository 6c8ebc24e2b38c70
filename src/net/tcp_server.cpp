#include "net/tcp_server.hpp"

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "util/failpoint.hpp"

namespace marioh::net {

namespace {

api::Status Errno(const std::string& what) {
  return api::Status::Internal(what + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// One-shot best-effort write for sockets about to be closed (the
/// connection-reject path): retries EINTR and short writes, gives up on
/// anything else — the peer is being turned away, so losing the error
/// line is acceptable. MSG_NOSIGNAL so a peer that already closed can
/// never SIGPIPE the embedding process.
void BestEffortSend(int fd, std::string_view bytes) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + offset, bytes.size() - offset,
                       MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // EAGAIN on a non-blocking reject or a dead peer: drop it
  }
}

}  // namespace

TcpServer::TcpServer(EventLoop* loop, api::DatasetCache* cache,
                     api::Service* service, TcpServerOptions options)
    : loop_(loop), cache_(cache), service_(service), options_(options) {}

TcpServer::~TcpServer() {
  // First: the Service outlives the server, and its shutdown cancels
  // still finish jobs. set_on_finish blocks out an in-flight observer
  // call, so after this line no worker posts a resolve naming `this`.
  service_->set_on_finish(nullptr);
  // Blocks out any in-flight Collect() before the counters the hook
  // reads are torn down.
  if (metrics_hook_ != 0) {
    obs::MetricRegistry::Global().RemoveCollectionHook(metrics_hook_);
  }
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (int fd : fds) CloseConnection(fd);
  if (listen_fd_ >= 0) {
    loop_->Remove(listen_fd_);
    ::close(listen_fd_);
  }
}

api::Status TcpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  SetNonBlocking(listen_fd_);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0) {
    return Errno("bind 127.0.0.1:" + std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) return Errno("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &len) == 0) {
    port_ = ::ntohs(addr.sin_port);
  }

  MARIOH_RETURN_IF_ERROR(loop_->Add(
      listen_fd_, EventLoop::kRead, [this](uint32_t) { OnAcceptable(); }));
  // Every terminal transition wakes the loop, which then answers exactly
  // the waits parked on that job. The observer runs on a worker under
  // the Service's mutex, so it only enqueues.
  service_->set_on_finish([this](api::JobId id) {
    loop_->Post([this, id] { ResolveWaits(id); });
  });
  // Publish connection counters through the registry: the metrics
  // endpoint and --metrics-json read the same series.
  metrics_hook_ = obs::MetricRegistry::Global().AddCollectionHook([this] {
    obs::MetricRegistry& r = obs::MetricRegistry::Global();
    NetStatsSnapshot s = stats();
    r.GetGauge("marioh_connections_active")
        ->Set(static_cast<double>(s.connections_active));
    r.GetCounter("marioh_connections_total")->Set(s.connections_total);
    r.GetCounter("marioh_connections_rejected_total")
        ->Set(s.connections_rejected);
    r.GetCounter("marioh_lines_served_total")->Set(s.lines_served);
  });
  return api::Status::Ok();
}

NetStatsSnapshot TcpServer::stats() const {
  NetStatsSnapshot snapshot;
  snapshot.connections_active =
      connections_active_.load(std::memory_order_relaxed);
  snapshot.connections_total =
      connections_total_.load(std::memory_order_relaxed);
  snapshot.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  snapshot.lines_served = lines_served_.load(std::memory_order_relaxed);
  return snapshot;
}

void TcpServer::OnAcceptable() {
  // Drain the accept queue completely — with the level-triggered loop one
  // accept per wakeup would also work, but this keeps accept latency flat
  // under bursts.
  for (;;) {
    if (util::FailPoints::active() &&
        util::FailPoints::Eval("net.accept") == util::FailAction::kError) {
      // Simulated transient accept failure: behave exactly like EAGAIN.
      // The level-triggered loop re-delivers readability while the
      // backlog is non-empty, so pending peers are only delayed.
      return;
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / transient error: wait for next event
    SetNonBlocking(fd);
    if (options_.max_connections > 0 &&
        connections_.size() >= options_.max_connections) {
      // Over the cap: one error line (best effort) and out.
      std::string reject = LineProtocol::FormatError(
          api::Status::ResourceExhausted(
              "server at connection limit (" +
              std::to_string(options_.max_connections) + ")"));
      BestEffortSend(fd, reject);
      ::close(fd);
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    uint64_t id = ++next_connection_id_;
    auto conn = std::make_unique<Connection>(cache_, service_);
    conn->fd = fd;
    conn->id = id;
    conn->protocol.set_default_client("conn-" + std::to_string(id));
    conn->protocol.set_allow_failpoint_admin(options_.allow_failpoint_admin);
    api::Status added = loop_->Add(
        fd, EventLoop::kRead,
        [this, fd](uint32_t events) { OnConnectionEvent(fd, events); });
    if (!added.ok()) {
      ::close(fd);
      continue;
    }
    Connection& ref = *conn;
    connections_[fd] = std::move(conn);
    connections_total_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    QueueOutput(ref, "ok marioh_served client=conn-" + std::to_string(id) +
                         "\n");
  }
}

void TcpServer::OnConnectionEvent(int fd, uint32_t events) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (events & EventLoop::kError) {
    CloseConnection(fd);
    return;
  }
  if (events & EventLoop::kWrite) {
    if (!FlushOutput(conn)) return;
  }
  if (events & EventLoop::kRead) HandleReadable(conn);
}

void TcpServer::HandleReadable(Connection& conn) {
  const int fd = conn.fd;
  for (;;) {
    if (util::FailPoints::active() &&
        util::FailPoints::Eval("net.read") == util::FailAction::kError) {
      // Simulated EAGAIN: stop draining now; buffered kernel bytes keep
      // the level-triggered read event pending, so progress resumes on
      // the next loop iteration.
      break;
    }
    char buffer[4096];
    ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n > 0) {
      if (conn.discarding) {
        // Still inside an oversized line: drop bytes up to and including
        // its newline, then resume normal framing.
        const char* newline =
            static_cast<const char*>(std::memchr(buffer, '\n', n));
        if (newline == nullptr) continue;
        size_t keep_from = (newline - buffer) + 1;
        conn.discarding = false;
        conn.input.append(buffer + keep_from, n - keep_from);
      } else {
        conn.input.append(buffer, n);
      }
      continue;
    }
    if (n == 0) {  // peer closed; anything unframed is dropped
      CloseConnection(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(fd);
    return;
  }
  ConsumeLines(conn);
}

bool TcpServer::ConsumeLines(Connection& conn) {
  const int fd = conn.fd;
  while (!conn.pending_wait.has_value() && !conn.closing) {
    size_t newline = conn.input.find('\n');
    if (newline != std::string::npos && options_.max_line_bytes > 0 &&
        newline > options_.max_line_bytes) {
      // The whole oversized line is already buffered: drop it in one go
      // and answer, same as the streaming-discard path below.
      conn.input.erase(0, newline + 1);
      if (!QueueOutput(
              conn, LineProtocol::FormatError(api::Status::InvalidArgument(
                        "request line exceeds " +
                        std::to_string(options_.max_line_bytes) +
                        " bytes")))) {
        return false;
      }
      continue;
    }
    if (newline == std::string::npos) {
      if (options_.max_line_bytes > 0 &&
          conn.input.size() > options_.max_line_bytes) {
        // The frame can't ever complete within bounds: flush the partial
        // bytes, answer once, and skip the rest of the line as it
        // arrives. The connection stays usable.
        conn.input.clear();
        conn.discarding = true;
        if (!QueueOutput(
                conn, LineProtocol::FormatError(api::Status::InvalidArgument(
                          "request line exceeds " +
                          std::to_string(options_.max_line_bytes) +
                          " bytes")))) {
          return false;
        }
      }
      break;
    }
    std::string line = conn.input.substr(0, newline);
    conn.input.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    LineProtocol::Result result = conn.protocol.Handle(line);
    lines_served_.fetch_add(1, std::memory_order_relaxed);
    if (result.wait_for.has_value()) {
      conn.pending_wait = result.wait_for;
      break;
    }
    if (!result.response.empty()) {
      if (!QueueOutput(conn, result.response)) return false;
    }
    if (result.quit) {
      conn.closing = true;
      if (conn.output.empty()) {
        CloseConnection(fd);
        return false;
      }
      break;
    }
  }
  UpdateInterest(conn);
  return true;
}

bool TcpServer::QueueOutput(Connection& conn, std::string_view bytes) {
  conn.output.append(bytes);
  if (!FlushOutput(conn)) return false;
  if (options_.max_output_bytes > 0 &&
      conn.output.size() > options_.max_output_bytes) {
    // Slow reader: it is not draining responses as fast as it sends
    // requests. Buffering further would let one client hold arbitrary
    // server memory, so the connection is dropped instead.
    CloseConnection(conn.fd);
    return false;
  }
  return true;
}

bool TcpServer::FlushOutput(Connection& conn) {
  const int fd = conn.fd;
  while (!conn.output.empty()) {
    size_t len = conn.output.size();
    if (util::FailPoints::active()) {
      // Fault surface "net.write": error = simulated EAGAIN (stop
      // flushing; write interest drains the rest later), short =
      // 1-byte write (forces the partial-write resume path every call).
      util::FailAction action = util::FailPoints::Eval("net.write");
      if (action == util::FailAction::kError) break;
      if (action == util::FailAction::kShort) len = 1;
    }
    // MSG_NOSIGNAL: a peer that closed mid-response must surface as an
    // EPIPE error (handled below), never as a process-killing SIGPIPE —
    // embedders that haven't installed SIG_IGN are protected too.
    ssize_t n = ::send(fd, conn.output.data(), len, MSG_NOSIGNAL);
    if (n > 0) {
      conn.output.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(fd);
    return false;
  }
  if (conn.output.empty() && conn.closing) {
    CloseConnection(fd);
    return false;
  }
  UpdateInterest(conn);
  return true;
}

void TcpServer::UpdateInterest(Connection& conn) {
  uint32_t interest = 0;
  // A parked wait (or a draining quit) pauses reads; TCP flow control
  // then pushes back on a sender that keeps pipelining.
  if (!conn.pending_wait.has_value() && !conn.closing) {
    interest |= EventLoop::kRead;
  }
  if (!conn.output.empty()) interest |= EventLoop::kWrite;
  loop_->Modify(conn.fd, interest);
}

void TcpServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  loop_->Remove(fd);
  ::close(fd);
  connections_.erase(it);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

void TcpServer::ResolveWaits(api::JobId id) {
  // No lost wakeup: LineProtocol's terminal check and the park both run
  // on this thread, inside one callback. A job that turns terminal after
  // the check posts this resolve only then, and posted closures run
  // after the callback returns, so the resolve always finds the park.
  // Collect fds first: queueing a response can close a connection (slow
  // reader), which mutates the map.
  std::vector<int> waiting;
  for (const auto& [fd, conn] : connections_) {
    if (conn->pending_wait == id) waiting.push_back(fd);
  }
  for (int fd : waiting) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    conn.pending_wait.reset();
    // A job retired between its finish and this resolve (TTL, or a
    // `forget` from another connection) answers kNotFound.
    api::StatusOr<api::JobSnapshot> job = service_->Poll(id);
    std::string response = job.ok()
                               ? conn.protocol.FormatJob(*job)
                               : LineProtocol::FormatError(job.status());
    if (!QueueOutput(conn, response)) continue;
    // The client may have pipelined requests behind the wait; serve them
    // now that the connection is live again.
    ConsumeLines(conn);
  }
}

}  // namespace marioh::net
