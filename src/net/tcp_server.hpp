/// \file tcp_server.hpp
/// \brief Multiplexed TCP front end for the serving stack: one
/// `net::EventLoop` thread accepts connections and speaks
/// `net::LineProtocol` to each, submitting work into the shared
/// `api::Service` worker pool. Every connection is its own fair-share
/// client lane (`conn-<id>`), so N sockets schedule like N users.
///
/// Resource governance, all enforced here or one layer down:
///  - connection cap: accepts past `max_connections` get one
///    `error RESOURCE_EXHAUSTED` line and an immediate close;
///  - framing bound: a request line longer than `max_line_bytes` is
///    discarded (to the next newline) and answered with an error — it
///    never buffers unboundedly and never kills the loop;
///  - write backpressure: responses buffer up to `max_output_bytes`
///    per connection and drain on write readiness; a reader too slow to
///    keep its buffer under the cap is disconnected;
///  - deferred waits: `wait <id>` parks the connection (read interest
///    paused, so TCP flow control pushes back on the sender) and no loop
///    thread ever blocks on a job. The server installs the Service's
///    completion observer, which posts the finished job's id to the
///    loop (`EventLoop::Post`); the loop then answers exactly the waits
///    parked on that job, as soon as it finishes.
///
/// The loop has no timer: it wakes only for a ready fd, a post or
/// Stop. Job TTL retirement is the Service maintenance thread's job, so
/// an idle server retires expired jobs without any loop wakeup.
///
/// Threading: everything except `stats()` and the completion observer
/// (which only posts) runs on the loop thread. `Start()` must be called
/// before the loop runs; the destructor must run after `EventLoop::Run`
/// has returned (or on the loop thread) and before the Service dies.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "api/dataset_cache.hpp"
#include "api/service.hpp"
#include "api/status.hpp"
#include "net/event_loop.hpp"
#include "net/line_protocol.hpp"

namespace marioh::net {

struct TcpServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back from `port()` after Start).
  uint16_t port = 0;
  /// Hard cap on concurrently served connections; extra accepts are
  /// rejected with RESOURCE_EXHAUSTED. 0 means unlimited.
  size_t max_connections = 64;
  /// Longest accepted request line (bytes, excluding the newline).
  size_t max_line_bytes = 64 * 1024;
  /// Per-connection output-buffer cap; exceeding it means the reader is
  /// too slow and the connection is dropped.
  size_t max_output_bytes = 1 << 20;
  /// Expose the `failpoints` admin verb to connected clients (see
  /// LineProtocol::set_allow_failpoint_admin). Off by default — fault
  /// injection over the wire is a chaos-testing opt-in, not a stock
  /// serving feature.
  bool allow_failpoint_admin = false;
};

/// Connection counters, readable from any thread (the loop publishes,
/// tests and the metrics hook read).
struct NetStatsSnapshot {
  uint64_t connections_active = 0;
  uint64_t connections_total = 0;
  uint64_t connections_rejected = 0;
  uint64_t lines_served = 0;
};

class TcpServer {
 public:
  /// All pointers must outlive the server. The server owns the
  /// Service's completion observer (see class comment); the destructor
  /// clears it.
  TcpServer(EventLoop* loop, api::DatasetCache* cache,
            api::Service* service, TcpServerOptions options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds 127.0.0.1:<port>, listens, and registers with the loop.
  /// After an OK return, `port()` is the bound port — set before any
  /// loop thread starts, so reading it later is race-free.
  api::Status Start();

  uint16_t port() const { return port_; }

  NetStatsSnapshot stats() const;

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    LineProtocol protocol;
    std::string input;   ///< bytes read, not yet consumed as lines
    std::string output;  ///< bytes queued, not yet written
    /// Set while a `wait` is parked; read interest is off until the job
    /// turns terminal.
    std::optional<api::JobId> pending_wait;
    /// A too-long line is being skipped until its newline arrives.
    bool discarding = false;
    /// `quit` answered: close as soon as the output drains.
    bool closing = false;

    Connection(api::DatasetCache* cache, api::Service* service)
        : protocol(cache, service) {}
  };

  void OnAcceptable();
  void OnConnectionEvent(int fd, uint32_t events);
  void HandleReadable(Connection& conn);
  /// Consumes buffered complete lines until empty, a deferred wait, or
  /// close. Returns false if the connection was closed.
  bool ConsumeLines(Connection& conn);
  /// Queues a response and flushes; enforces the output cap. Returns
  /// false if the connection was closed (slow reader / write error).
  bool QueueOutput(Connection& conn, std::string_view bytes);
  bool FlushOutput(Connection& conn);
  void UpdateInterest(Connection& conn);
  void CloseConnection(int fd);
  /// Answers every wait parked on `id`, which just turned terminal. Runs
  /// on the loop thread, posted by the Service's completion observer.
  void ResolveWaits(api::JobId id);

  EventLoop* loop_;
  api::DatasetCache* cache_;
  api::Service* service_;
  TcpServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t next_connection_id_ = 0;
  std::map<int, std::unique_ptr<Connection>> connections_;
  std::atomic<uint64_t> connections_active_{0};
  std::atomic<uint64_t> connections_total_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> lines_served_{0};
  /// Registry collection hook publishing the counters above as
  /// `marioh_connections_*` / `marioh_lines_served_total`; registered in
  /// Start(), removed first thing in the destructor.
  uint64_t metrics_hook_ = 0;
};

}  // namespace marioh::net
