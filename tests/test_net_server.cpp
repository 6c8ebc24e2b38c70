// Tests for the src/net/ serving layer: a real TcpServer on a loopback
// socket, driven by real TCP clients. The acceptance criterion is the
// same determinism contract the service layer proves, one layer up: N
// concurrent TCP clients sharing one dataset handle must produce
// bit-identical reconstructions to the same runs executed sequentially
// through Session. On top of that: admission control answers
// RESOURCE_EXHAUSTED at the configured caps, slow readers are
// disconnected by write-side backpressure, and malformed or oversized
// frames never kill the event loop. Parked `wait`s are answered by the
// Service's completion observer posting to the loop (there is no tick
// sweep), so every wait-based test here exercises that posted path.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/dataset_cache.hpp"
#include "api/service.hpp"
#include "api/session.hpp"
#include "eval/harness.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_server.hpp"
#include "util/failpoint.hpp"

namespace marioh::net {
namespace {

using api::DatasetCache;
using api::JobId;
using api::JobSnapshot;
using api::Service;
using api::ServiceOptions;
using api::StatusOr;

eval::PreparedDataset SmallDataset() {
  return eval::PrepareDataset("crime", /*multiplicity_reduced=*/true,
                              /*seed=*/1);
}

std::shared_ptr<DatasetCache> CacheWithCrime(
    const eval::PreparedDataset& data) {
  auto cache = std::make_shared<DatasetCache>();
  EXPECT_TRUE(cache->Insert("crime.train", data.source, data.g_source).ok());
  EXPECT_TRUE(cache->Insert("crime.target", nullptr, data.g_target).ok());
  EXPECT_TRUE(cache->Insert("crime.truth", data.target, nullptr).ok());
  return cache;
}

/// A live server on an ephemeral loopback port: cache + service + event
/// loop on its own thread. Everything a test needs to speak real TCP.
class ServerFixture {
 public:
  ServerFixture(const eval::PreparedDataset& data, ServiceOptions sopts,
                TcpServerOptions nopts)
      : cache_(CacheWithCrime(data)),
        service_(std::make_unique<Service>(cache_, sopts)) {
    server_ = std::make_unique<TcpServer>(&loop_, cache_.get(),
                                          service_.get(), nopts);
    api::Status started = server_->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    loop_thread_ = std::thread([this] { loop_.Run(); });
  }

  ~ServerFixture() {
    loop_.Stop();
    loop_thread_.join();
    server_.reset();  // after Run returned, per the threading contract
  }

  uint16_t port() const { return server_->port(); }
  DatasetCache& cache() { return *cache_; }
  EventLoop& loop() { return loop_; }
  Service& service() { return *service_; }
  const TcpServer& server() const { return *server_; }
  std::thread& loop_thread() { return loop_thread_; }

 private:
  std::shared_ptr<DatasetCache> cache_;
  std::unique_ptr<Service> service_;
  EventLoop loop_;
  std::unique_ptr<TcpServer> server_;
  std::thread loop_thread_;
};

/// A blocking line-oriented TCP client; reads time out after 120 s so a
/// lost response fails the test instead of hanging it.
class Client {
 public:
  /// `rcvbuf_bytes` shrinks SO_RCVBUF before connecting (0 keeps the
  /// default) — a tiny receive window bounds how much an unread response
  /// stream the kernel can absorb, which the backpressure test relies on.
  explicit Client(uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval timeout{120, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof rcvbuf_bytes);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
    addr.sin_port = ::htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  ~Client() { Close(); }

  bool connected() const { return fd_ >= 0; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Sends raw bytes; returns false once the server has hung up.
  bool SendRaw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Send(const std::string& line) { return SendRaw(line + "\n"); }

  /// Next '\n'-terminated line without the newline; "" on EOF/timeout.
  std::string ReadLine() {
    for (;;) {
      size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// One request, one response line.
  std::string Roundtrip(const std::string& line) {
    if (!Send(line)) return "";
    return ReadLine();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Parses "ok job N ..." into N; 0 on anything else.
JobId ParseJobId(const std::string& response) {
  if (response.rfind("ok job ", 0) != 0) return 0;
  return static_cast<JobId>(std::stoull(response.substr(7)));
}

bool WaitUntilRunning(Service& service, JobId id) {
  for (;;) {
    StatusOr<JobSnapshot> job = service.Poll(id);
    if (!job.ok()) return false;
    if (job->state == api::JobState::kRunning) return true;
    if (job->terminal()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// The acceptance-criteria test: 8 concurrent TCP clients, each its own
// connection (and therefore its own fair-share lane), each submitting a
// seeded MARIOH job over the shared crime handles and blocking in the
// protocol's `wait`. Every reconstruction must be bit-identical to the
// same seed's run through a sequential Session.
TEST(NetServer, ConcurrentClientsMatchSequentialSessionsBitForBit) {
  constexpr int kClients = 8;
  eval::PreparedDataset data = SmallDataset();

  std::vector<Hypergraph> reference;
  for (int s = 1; s <= kClients; ++s) {
    api::SessionOptions options;
    options.method = "MARIOH";
    options.seed = static_cast<uint64_t>(s);
    api::Session session;
    ASSERT_TRUE(session.Configure(options).ok());
    ASSERT_TRUE(session.Train(data.train()).ok());
    ASSERT_TRUE(session.Reconstruct(data.target_input()).ok());
    StatusOr<Hypergraph> taken = session.TakeReconstruction();
    ASSERT_TRUE(taken.ok());
    reference.push_back(std::move(taken).value());
  }

  ServerFixture fixture(data, ServiceOptions{}, TcpServerOptions{});
  std::vector<JobId> ids(kClients, 0);
  std::vector<std::string> waits(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&fixture, &ids, &waits, i] {
      Client client(fixture.port());
      if (!client.connected()) return;
      client.ReadLine();  // greeting
      std::string submitted = client.Roundtrip(
          "submit method=MARIOH train=crime.train target=crime.target "
          "truth=crime.truth seed=" +
          std::to_string(i + 1));
      JobId id = ParseJobId(submitted);
      if (id == 0) return;
      ids[static_cast<size_t>(i)] = id;
      waits[static_cast<size_t>(i)] =
          client.Roundtrip("wait " + std::to_string(id));
      client.Roundtrip("quit");
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_NE(ids[static_cast<size_t>(i)], 0u) << "client " << i;
    EXPECT_NE(waits[static_cast<size_t>(i)].find("state=DONE"),
              std::string::npos)
        << "client " << i << ": " << waits[static_cast<size_t>(i)];
    // Bit-identity is checked on the service-side snapshot — the full
    // edge multiset, not the protocol's summary counts.
    StatusOr<JobSnapshot> job =
        fixture.service().Poll(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(job.ok());
    ASSERT_NE(job->reconstruction, nullptr);
    EXPECT_EQ(job->reconstruction->edges(),
              reference[static_cast<size_t>(i)].edges())
        << "client seed " << i + 1;
  }

  NetStatsSnapshot net = fixture.server().stats();
  EXPECT_EQ(net.connections_total, static_cast<uint64_t>(kClients));
  EXPECT_EQ(net.connections_rejected, 0u);
}

// Saturating the admission caps over TCP answers RESOURCE_EXHAUSTED —
// and the rejected submits never contaminate the accepted counters.
TEST(NetServer, AdmissionControlRejectsWithResourceExhausted) {
  eval::PreparedDataset data = SmallDataset();
  ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.max_queued_jobs = 1;
  ServerFixture fixture(data, sopts, TcpServerOptions{});
  Client client(fixture.port());
  ASSERT_TRUE(client.connected());
  client.ReadLine();

  // The blocker occupies the only worker; once it runs, the queue is
  // empty and has room for exactly one more job.
  JobId blocker = ParseJobId(client.Roundtrip(
      "submit method=MARIOH train=crime.train target=crime.target"));
  ASSERT_NE(blocker, 0u);
  ASSERT_TRUE(WaitUntilRunning(fixture.service(), blocker));

  std::string queued = client.Roundtrip(
      "submit method=MaxClique target=crime.target");
  EXPECT_EQ(queued.rfind("ok job ", 0), 0u) << queued;
  std::string rejected = client.Roundtrip(
      "submit method=MaxClique target=crime.target");
  EXPECT_EQ(rejected.rfind("error RESOURCE_EXHAUSTED", 0), 0u) << rejected;

  // The reject is an error response, not a dead connection: the same
  // socket keeps serving.
  EXPECT_NE(client.Roundtrip("wait " + std::to_string(blocker))
                .find("state=DONE"),
            std::string::npos);

  api::ServiceStats stats = fixture.service().stats();
  EXPECT_EQ(stats.submits_rejected, 1u);
  EXPECT_EQ(stats.accepted, 2u);
  // The terminal/gauge counters still partition accepted exactly.
  EXPECT_EQ(stats.accepted, stats.done + stats.failed + stats.cancelled +
                                stats.deadline_exceeded + stats.queued +
                                stats.running);
}

// Accepts past max_connections get one RESOURCE_EXHAUSTED line and an
// immediate close; the resident connections are untouched.
TEST(NetServer, ConnectionCapRejectsExtraClients) {
  eval::PreparedDataset data = SmallDataset();
  TcpServerOptions nopts;
  nopts.max_connections = 2;
  ServerFixture fixture(data, ServiceOptions{}, nopts);

  Client first(fixture.port());
  Client second(fixture.port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  EXPECT_EQ(first.ReadLine().rfind("ok marioh_served", 0), 0u);
  EXPECT_EQ(second.ReadLine().rfind("ok marioh_served", 0), 0u);

  Client third(fixture.port());
  ASSERT_TRUE(third.connected());
  EXPECT_EQ(third.ReadLine().rfind("error RESOURCE_EXHAUSTED", 0), 0u);
  EXPECT_EQ(third.ReadLine(), "");  // server hung up

  // The survivors still serve; a freed slot readmits.
  EXPECT_EQ(first.Roundtrip("methods").rfind("ok methods", 0), 0u);
  first.Roundtrip("quit");
  first.Close();
  for (int i = 0; i < 500; ++i) {
    if (fixture.server().stats().connections_active < 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Client fourth(fixture.port());
  ASSERT_TRUE(fourth.connected());
  EXPECT_EQ(fourth.ReadLine().rfind("ok marioh_served", 0), 0u);

  EXPECT_GE(fixture.server().stats().connections_rejected, 1u);
}

// Write-side backpressure: a client that pipelines requests without ever
// reading responses fills its bounded output buffer and is disconnected
// instead of holding arbitrary server memory.
TEST(NetServer, SlowReaderIsDisconnectedByBackpressure) {
  eval::PreparedDataset data = SmallDataset();
  TcpServerOptions nopts;
  nopts.max_output_bytes = 16 * 1024;
  ServerFixture fixture(data, ServiceOptions{}, nopts);

  // A deliberately tiny receive buffer: the kernel can only absorb a few
  // tens of KB of unread responses before the server's own buffer has to
  // hold the rest.
  Client slow(fixture.port(), /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(slow.connected());
  // Never read: each `metrics json` response (a few KB) stacks up. Once the
  // socket buffers are full, the server-side buffer crosses the 16 KiB
  // cap and the connection is dropped mid-stream — visible here as a
  // failed send (RST) or the active-connection gauge hitting zero.
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += "metrics json\n";
  bool disconnected = false;
  for (int round = 0; round < 20 && !disconnected; ++round) {
    if (!slow.SendRaw(burst)) {
      disconnected = true;
      break;
    }
    for (int i = 0; i < 500 && !disconnected; ++i) {
      disconnected = fixture.server().stats().connections_active == 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(disconnected);

  // The loop survived its slow reader: a well-behaved client still gets
  // service.
  Client polite(fixture.port());
  ASSERT_TRUE(polite.connected());
  EXPECT_EQ(polite.ReadLine().rfind("ok marioh_served", 0), 0u);
  EXPECT_EQ(polite.Roundtrip("datasets").rfind("ok datasets", 0), 0u);
}

// Framing abuse — unknown verbs, binary junk, and a line far beyond
// max_line_bytes — produces error responses, never a dead loop. The
// oversized line is answered once and skipped; the connection then keeps
// serving normal requests.
TEST(NetServer, MalformedAndOversizedFramesDontKillTheLoop) {
  eval::PreparedDataset data = SmallDataset();
  TcpServerOptions nopts;
  nopts.max_line_bytes = 128;
  ServerFixture fixture(data, ServiceOptions{}, nopts);

  Client client(fixture.port());
  ASSERT_TRUE(client.connected());
  client.ReadLine();

  EXPECT_EQ(client.Roundtrip("no-such-verb a b c")
                .rfind("error INVALID_ARGUMENT", 0),
            0u);
  EXPECT_EQ(client.Roundtrip(std::string("\x01\x02\x7f garbage"))
                .rfind("error INVALID_ARGUMENT", 0),
            0u);

  // One 64 KiB line: rejected as soon as it exceeds the 128-byte frame
  // cap, discarded through its newline, connection intact.
  std::string oversized(64 * 1024, 'x');
  std::string response = client.Roundtrip(oversized);
  EXPECT_NE(response.find("request line exceeds 128 bytes"),
            std::string::npos)
      << response;

  // Still alive, still correct — a real request round-trips.
  EXPECT_EQ(client.Roundtrip("datasets").rfind("ok datasets", 0), 0u);
  EXPECT_EQ(client.Roundtrip("quit"), "ok bye");

  // And the server as a whole is unharmed.
  Client after(fixture.port());
  ASSERT_TRUE(after.connected());
  EXPECT_EQ(after.ReadLine().rfind("ok marioh_served", 0), 0u);
}

// EINTR regression: a signal delivered to the loop thread mid-poll must
// re-enter the wait, not kill Run(). We install a no-op SIGUSR1 handler
// (no SA_RESTART, so the syscall really does return EINTR), batter the
// loop thread with signals, and require the server to keep answering
// afterwards.
TEST(NetServer, EventLoopSurvivesEintrDuringRun) {
  struct sigaction action {};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately not SA_RESTART
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  eval::PreparedDataset data = SmallDataset();
  {
    ServerFixture fixture(data, ServiceOptions{}, TcpServerOptions{});
    Client client(fixture.port());
    ASSERT_TRUE(client.connected());
    client.ReadLine();

    pthread_t loop_handle = fixture.loop_thread().native_handle();
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(::pthread_kill(loop_handle, SIGUSR1), 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Still alive: a full request round-trips on the same loop.
    EXPECT_EQ(client.Roundtrip("datasets").rfind("ok datasets", 0), 0u);
    JobId id = ParseJobId(client.Roundtrip(
        "submit method=MaxClique target=crime.target"));
    ASSERT_NE(id, 0u);
    EXPECT_NE(client.Roundtrip("wait " + std::to_string(id))
                  .find("state=DONE"),
              std::string::npos);
    client.Roundtrip("quit");
  }  // the fixture's Stop/join also proves Run still exits cleanly

  ::sigaction(SIGUSR1, &previous, nullptr);
}

/// Clears every failpoint on scope exit, so a failed assertion cannot
/// leak a wedge into later tests.
struct FailPointsCleared {
  ~FailPointsCleared() { util::FailPoints::Clear(); }
};

/// Polls until the server has handled `lines` request lines in total.
bool WaitForLinesServed(const TcpServer& server, uint64_t lines) {
  for (int i = 0; i < 12000; ++i) {
    if (server.stats().lines_served >= lines) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// Post is the loop's cross-thread entry: closures posted from another
// thread run on the loop thread, in the order they were posted.
TEST(EventLoop, PostFromAnotherThreadRunsOnTheLoopInFifoOrder) {
  constexpr int kPosts = 1000;
  EventLoop loop;
  std::thread::id loop_id;
  std::vector<int> order;
  std::vector<std::thread::id> ran_on;
  std::thread loop_thread([&] {
    loop_id = std::this_thread::get_id();
    loop.Run();
  });
  std::thread poster([&] {
    for (int i = 0; i < kPosts; ++i) {
      loop.Post([&order, &ran_on, i] {
        order.push_back(i);
        ran_on.push_back(std::this_thread::get_id());
      });
    }
    loop.Post([&loop] { loop.Stop(); });
  });
  poster.join();
  loop_thread.join();
  ASSERT_EQ(order.size(), static_cast<size_t>(kPosts));
  for (int i = 0; i < kPosts; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
    EXPECT_EQ(ran_on[static_cast<size_t>(i)], loop_id);
  }
}

// Stop() does not strand the queue: a closure posted before it runs
// before Run returns, even when the loop sees the stop first.
TEST(EventLoop, ClosurePostedBeforeStopRunsBeforeRunReturns) {
  EventLoop loop;
  bool ran = false;
  loop.Post([&ran] { ran = true; });
  loop.Stop();
  loop.Run();
  EXPECT_TRUE(ran);
}

// A job that finishes just before shutdown still answers the wait parked
// on it: the loop is held inside a posted closure while the job turns
// terminal (queueing its resolve) and Stop() arrives, so the loop sees
// the stop before the resolve.
TEST(NetServer, WaitOfAJobFinishedJustBeforeStopGetsItsTerminalLine) {
  FailPointsCleared cleared;
  eval::PreparedDataset data = SmallDataset();
  auto fixture = std::make_unique<ServerFixture>(data, ServiceOptions{},
                                                 TcpServerOptions{});
  Client client(fixture->port());
  ASSERT_TRUE(client.connected());
  client.ReadLine();
  ASSERT_TRUE(
      util::FailPoints::Configure("session.reconstruct", "delay:60000"));
  JobId id = ParseJobId(
      client.Roundtrip("submit method=MaxClique target=crime.target"));
  ASSERT_NE(id, 0u);
  ASSERT_TRUE(client.Send("wait " + std::to_string(id)));
  ASSERT_TRUE(WaitForLinesServed(fixture->server(), 2));

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  fixture->loop().Post([&entered, gate] {
    entered.set_value();
    gate.wait();
  });
  entered.get_future().wait();
  ASSERT_TRUE(fixture->service().Cancel(id).ok());
  for (;;) {  // the observer posts the resolve before Poll sees terminal
    StatusOr<JobSnapshot> job = fixture->service().Poll(id);
    ASSERT_TRUE(job.ok());
    if (job->terminal()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fixture->loop().Stop();
  release.set_value();
  fixture.reset();  // joins the loop, then closes the connection

  std::string waited = client.ReadLine();
  EXPECT_EQ(waited.rfind("ok job " + std::to_string(id) + " state=CANCELLED",
                         0),
            0u)
      << waited;
}

// One job, several connections parked on it: its terminal transition
// answers every one of them with the same line.
TEST(NetServer, EveryWaitParkedOnAJobGetsItsTerminalLine) {
  constexpr int kWaiters = 4;
  FailPointsCleared cleared;
  eval::PreparedDataset data = SmallDataset();
  ServerFixture fixture(data, ServiceOptions{}, TcpServerOptions{});
  Client control(fixture.port());
  ASSERT_TRUE(control.connected());
  control.ReadLine();
  // The job wedges at its reconstruct stage until cancelled, so every
  // waiter parks before it turns terminal.
  ASSERT_TRUE(
      util::FailPoints::Configure("session.reconstruct", "delay:60000"));
  JobId id = ParseJobId(
      control.Roundtrip("submit method=MaxClique target=crime.target"));
  ASSERT_NE(id, 0u);

  std::vector<std::unique_ptr<Client>> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(std::make_unique<Client>(fixture.port()));
    ASSERT_TRUE(waiters.back()->connected());
    waiters.back()->ReadLine();
    ASSERT_TRUE(waiters.back()->Send("wait " + std::to_string(id)));
  }
  ASSERT_TRUE(WaitForLinesServed(fixture.server(), 1 + kWaiters));
  EXPECT_EQ(control.Roundtrip("cancel " + std::to_string(id)),
            "ok cancel " + std::to_string(id));

  std::string first = waiters[0]->ReadLine();
  EXPECT_EQ(first.rfind("ok job " + std::to_string(id) + " state=CANCELLED",
                        0),
            0u)
      << first;
  for (int i = 1; i < kWaiters; ++i) {
    EXPECT_EQ(waiters[static_cast<size_t>(i)]->ReadLine(), first)
        << "waiter " << i;
  }
}

// Requests pipelined behind a parked wait stay queued until the wait is
// answered, then are served in order on the same connection.
TEST(NetServer, PipelinedRequestsBehindAWaitAreAnsweredInOrder) {
  FailPointsCleared cleared;
  eval::PreparedDataset data = SmallDataset();
  ServerFixture fixture(data, ServiceOptions{}, TcpServerOptions{});
  Client control(fixture.port());
  Client client(fixture.port());
  ASSERT_TRUE(control.connected());
  ASSERT_TRUE(client.connected());
  control.ReadLine();
  client.ReadLine();
  ASSERT_TRUE(
      util::FailPoints::Configure("session.reconstruct", "delay:60000"));
  JobId id = ParseJobId(
      control.Roundtrip("submit method=MaxClique target=crime.target"));
  ASSERT_NE(id, 0u);

  ASSERT_TRUE(client.SendRaw("wait " + std::to_string(id) +
                             "\ndatasets\npoll " + std::to_string(id) +
                             "\nquit\n"));
  // Only the wait has been handled; the rest sits behind it.
  ASSERT_TRUE(WaitForLinesServed(fixture.server(), 2));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fixture.server().stats().lines_served, 2u);
  ASSERT_TRUE(control.Roundtrip("cancel " + std::to_string(id))
                  .rfind("ok cancel", 0) == 0);

  std::string waited = client.ReadLine();
  EXPECT_EQ(waited.rfind("ok job " + std::to_string(id) +
                             " state=CANCELLED",
                         0),
            0u)
      << waited;
  EXPECT_EQ(client.ReadLine().rfind("ok datasets", 0), 0u);
  EXPECT_EQ(client.ReadLine(), waited);  // poll of the same terminal job
  EXPECT_EQ(client.ReadLine(), "ok bye");
}

// Lost-wakeup stress: jobs on a tiny graph finish in microseconds, so a
// job often turns terminal between its `submit` and the `wait` behind
// it — before, during or after the wait's terminal check. Each wait
// must still be answered (a lost one would hang its client until the
// read timeout fails the test).
TEST(NetServer, WaitsRacingTheirJobsAreNeverLost) {
  constexpr int kClients = 8;
  constexpr int kJobsPerClient = 150;
  eval::PreparedDataset data = SmallDataset();
  ServiceOptions sopts;
  sopts.num_workers = 2;
  ServerFixture fixture(data, sopts, TcpServerOptions{});
  auto tiny = std::make_shared<ProjectedGraph>(4);
  tiny->AddWeight(0, 1, 1);
  tiny->AddWeight(1, 2, 1);
  tiny->AddWeight(0, 2, 1);
  tiny->AddWeight(2, 3, 2);
  ASSERT_TRUE(fixture.cache().Insert("tiny", nullptr, tiny).ok());

  std::mutex mutex;
  std::vector<std::string> failures;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto fail = [&](const std::string& what) {
        std::lock_guard<std::mutex> lock(mutex);
        failures.push_back(what);
      };
      Client client(fixture.port());
      if (!client.connected()) return fail("connect");
      client.ReadLine();
      for (int j = 0; j < kJobsPerClient; ++j) {
        std::string submitted =
            client.Roundtrip("submit method=MaxClique target=tiny");
        JobId id = ParseJobId(submitted);
        if (id == 0) return fail("submit: " + submitted);
        std::string waited = client.Roundtrip("wait " + std::to_string(id));
        if (waited.find("state=DONE") == std::string::npos) {
          return fail("wait " + std::to_string(id) + ": " + waited);
        }
        if (client.Roundtrip("forget " + std::to_string(id)).empty()) {
          return fail("forget");
        }
      }
      client.Roundtrip("quit");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_EQ(fixture.service().stats().done,
            static_cast<uint64_t>(kClients * kJobsPerClient));
}

// The observability acceptance test: the `metrics` verb over TCP returns
// Prometheus text in which the accepted counter equals the sum of the
// terminal counters plus the queued/running gauges — exactly, because
// the Service publishes one mutex-coherent snapshot per collection. Also
// covers the framing (`ok metrics lines=N` + N raw lines), the
// single-line `metrics json` variant, and the retired `stats` verb
// answering as an unknown request.
TEST(NetServer, MetricsVerbExposesAnExactCounterPartition) {
  eval::PreparedDataset data = SmallDataset();
  ServerFixture fixture(data, ServiceOptions{}, TcpServerOptions{});
  Client client(fixture.port());
  ASSERT_TRUE(client.connected());
  client.ReadLine();  // greeting

  for (int i = 0; i < 2; ++i) {
    JobId id = ParseJobId(
        client.Roundtrip("submit method=MaxClique target=crime.target"));
    ASSERT_NE(id, 0u);
    EXPECT_NE(client.Roundtrip("wait " + std::to_string(id))
                  .find("state=DONE"),
              std::string::npos);
  }

  // The registry is the one way to read service counters: `stats` is no
  // longer a verb.
  std::string stats = client.Roundtrip("stats");
  EXPECT_EQ(stats.rfind("error INVALID_ARGUMENT: unknown request 'stats' (",
                        0),
            0u)
      << stats;
  EXPECT_EQ(stats.find(" stats "), std::string::npos) << stats;

  std::string header = client.Roundtrip("metrics");
  ASSERT_EQ(header.rfind("ok metrics lines=", 0), 0u) << header;
  int lines = std::atoi(header.c_str() + std::string("ok metrics lines=").size());
  ASSERT_GT(lines, 0);
  std::map<std::string, double> series;
  for (int i = 0; i < lines; ++i) {
    std::string line = client.ReadLine();
    ASSERT_FALSE(line.empty()) << "short metrics payload at line " << i;
    if (line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    series[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  // The connection is still line-synchronized after the framed payload.
  EXPECT_EQ(client.Roundtrip("datasets").rfind("ok datasets", 0), 0u);

  // Exact partition: accepted = terminals + queued + running.
  double terminals = series.at("marioh_jobs_done_total") +
                     series.at("marioh_jobs_failed_total") +
                     series.at("marioh_jobs_cancelled_total") +
                     series.at("marioh_jobs_deadline_exceeded_total") +
                     series.at("marioh_jobs_queued") +
                     series.at("marioh_jobs_running");
  EXPECT_EQ(series.at("marioh_jobs_accepted_total"), terminals);
  EXPECT_EQ(series.at("marioh_jobs_accepted_total"), 2.0);
  EXPECT_EQ(series.at("marioh_jobs_done_total"), 2.0);
  // The TcpServer hook publishes this fixture's connection counters.
  EXPECT_EQ(series.at("marioh_connections_total"), 1.0);
  EXPECT_EQ(series.at("marioh_connections_active"), 1.0);
  EXPECT_GE(series.at("marioh_lines_served_total"), 4.0);
  // Wait latency was observed for each job run (the global histogram is
  // cumulative across the binary, so >=, not ==).
  EXPECT_GE(series.at("marioh_wait_latency_seconds_count"), 2.0);
  EXPECT_GE(series.at("marioh_process_rss_bytes"), 1.0);

  std::string json = client.Roundtrip("metrics json");
  EXPECT_EQ(json.rfind("ok metrics-json {", 0), 0u) << json.substr(0, 80);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"marioh_jobs_accepted_total\""), std::string::npos);

  EXPECT_EQ(client.Roundtrip("metrics bogus").rfind("error ", 0), 0u);
  client.Roundtrip("quit");
}

// Job TTL retirement needs no traffic: the Service maintenance thread
// retires an expired job on an idle server, before any job-table verb
// arrives. The event loop has no timer that could do it instead.
TEST(NetServer, TtlRetiresJobsOnAnIdleServer) {
  eval::PreparedDataset data = SmallDataset();
  ServiceOptions sopts;
  sopts.job_ttl_seconds = 0.2;
  ServerFixture fixture(data, sopts, TcpServerOptions{});
  Client client(fixture.port());
  ASSERT_TRUE(client.connected());
  client.ReadLine();  // greeting

  JobId id = ParseJobId(
      client.Roundtrip("submit method=MaxClique target=crime.target"));
  ASSERT_NE(id, 0u);
  EXPECT_NE(client.Roundtrip("wait " + std::to_string(id))
                .find("state=DONE"),
            std::string::npos);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  std::string header = client.Roundtrip("metrics");
  ASSERT_EQ(header.rfind("ok metrics lines=", 0), 0u) << header;
  int lines = std::atoi(header.c_str() + std::string("ok metrics lines=").size());
  bool retired = false;
  for (int i = 0; i < lines; ++i) {
    if (client.ReadLine() == "marioh_jobs_retired_total 1") retired = true;
  }
  EXPECT_TRUE(retired);
  EXPECT_EQ(client.Roundtrip("poll " + std::to_string(id))
                .rfind("error NOT_FOUND", 0),
            0u);
  client.Roundtrip("quit");
}

}  // namespace
}  // namespace marioh::net
