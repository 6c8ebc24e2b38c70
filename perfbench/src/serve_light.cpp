// serve_light: closed-loop MaxClique traffic against marioh_served.
//
// The daemon runs with --workers 2, a fresh --journal-dir and the
// default fsync policy (always). One generator process (this one) drives
// four TCP connections in a closed loop; each repeats submit → wait →
// forget with a distinct seed and a 0-20 ms think time, cycling over four
// small generated profiles, so the
// reconstruction itself is ~0.1 ms and the latency is the serving path:
// codec, admission, journal append + fsync, worker hand-off and the
// deferred-wait tick. Everything is read through the wire protocol and
// its `metrics json` scrape.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "eval/harness.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetups = 9;
constexpr int kConnections = 4;
const std::vector<std::string> kProfiles = {"crime", "directors", "hosts",
                                            "enron"};

/// A marioh_served child process. The destructor kills and reaps a
/// daemon that was not stopped, so no run leaves one behind.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  /// Spawns the daemon and reads its banner; false (with `error`) when
  /// it does not come up.
  bool Start(const std::string& binary, const std::string& journal_dir,
             std::string* error) {
    int fds[2];
    if (::pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> argv_s = {binary,    "--port", "0",
                                       "--workers", "2",     "--journal-dir",
                                       journal_dir};
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                           argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      *error = "cannot spawn " + binary;
      return false;
    }
    std::string banner;
    if (!ReadLine(&banner, 60.0) ||
        banner.rfind("ok marioh_served", 0) != 0) {
      *error = "bad daemon banner '" + banner + "'";
      return false;
    }
    size_t at = banner.find(" port=");
    std::optional<uint64_t> port =
        at == std::string::npos
            ? std::nullopt
            : marioh::util::ParseUint64(
                  banner.substr(at + 6, banner.find(' ', at + 6) - at - 6));
    if (!port.has_value()) {
      *error = "no port in banner '" + banner + "'";
      return false;
    }
    port_ = static_cast<int>(*port);
    return true;
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// CPU seconds the daemon's live threads have run so far (the kernel's
  /// per-task run time, in nanoseconds — fine enough for one-second
  /// windows, unlike the clock-tick counts of /proc/<pid>/stat).
  double CpuSeconds() const {
    namespace fs = std::filesystem;
    double ns = 0.0;
    std::error_code ec;
    for (const fs::directory_entry& task : fs::directory_iterator(
             "/proc/" + std::to_string(pid_) + "/task", ec)) {
      std::ifstream schedstat(task.path() / "schedstat");
      double run_ns = 0.0;
      if (schedstat >> run_ns) ns += run_ns;
    }
    return ns * 1e-9;
  }

  /// SIGTERM, drain stdout, reap; returns the exit code (-1 if killed
  /// by a signal or not reaped within 60 s).
  int Stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    std::string line;
    while (ReadLine(&line, 60.0)) {
    }
    int status = 0;
    pid_t reaped = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (reaped <= 0 || !WIFEXITED(status)) return -1;
    return WEXITSTATUS(status);
  }

 private:
  bool ReadLine(std::string* line, double timeout_s) {
    double deadline = Now() + timeout_s;
    while (true) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      double left = deadline - Now();
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left * 1000)) <= 0) {
        return false;
      }
      char chunk[4096];
      ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  std::string buffer_;
};

/// One line-protocol conversation over a blocking loopback socket.
class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    std::string greeting;
    return ReadLine(&greeting) &&
           greeting.rfind("ok marioh_served client=", 0) == 0;
  }

  /// Sends `line` and returns the one-line reply ("" on a broken
  /// connection).
  std::string Request(const std::string& line) {
    std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return "";
      sent += static_cast<size_t>(n);
    }
    std::string reply;
    return ReadLine(&reply) ? reply : "";
  }

 private:
  bool ReadLine(std::string* line) {
    while (true) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

/// key=value fields of a reply line.
std::map<std::string, std::string> Fields(const std::string& reply) {
  std::map<std::string, std::string> out;
  std::istringstream tokens(reply);
  std::string token;
  while (tokens >> token) {
    size_t eq = token.find('=');
    if (eq != std::string::npos) out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

/// A numeric field of the unlabelled series `name` in a `metrics json`
/// snapshot: "value" for counters and gauges, "count"/"sum" for
/// histograms. nullopt when the series is absent.
std::optional<double> Series(const std::string& json, const std::string& name,
                             const std::string& field) {
  size_t at = json.find("{\"name\":\"" + name + "\",");
  if (at == std::string::npos) return std::nullopt;
  size_t end = json.find('}', at);
  size_t key = json.find("\"" + field + "\":", at);
  if (key == std::string::npos || key > end) return std::nullopt;
  return marioh::util::ParseDouble(
      json.substr(key + field.size() + 3,
                  json.find_first_of(",}", key + field.size() + 3) -
                      (key + field.size() + 3)));
}

struct Snapshot {
  std::string json;
  double Get(const std::string& name, const std::string& field = "value") const {
    return Series(json, name, field).value_or(0.0);
  }
};

bool Scrape(Client* client, Snapshot* out) {
  std::string reply = client->Request("metrics json");
  const std::string head = "ok metrics-json ";
  if (reply.rfind(head, 0) != 0) return false;
  out->json = reply.substr(head.size());
  return true;
}

/// One closed-loop job as the client saw it.
struct Job {
  size_t profile = 0;
  uint64_t seed = 0;
  uint64_t trace_id = 0;
  double submit_start = 0.0;
  double acked = 0.0;
  double done = 0.0;
  std::string reply;  ///< the wait reply (terminal job line)
  std::string error;  ///< non-empty when the job failed or was refused
};

void DriveConnection(int port, int conn, const Args& args, double deadline,
                     std::atomic<size_t>* claimed,
                     std::atomic<size_t>* completed, Tracer* tracer,
                     std::vector<Job>* jobs) {
  Client client;
  if (!client.Connect(port)) {
    Job failed;
    failed.error = "connection " + std::to_string(conn) + " failed";
    jobs->push_back(failed);
    return;
  }
  // Think time between jobs, uniform over one 20 ms tick of the daemon's
  // deferred-wait resolution. Without it the four clients phase-lock to
  // the tick, and the median latency jumped between ~13 and ~19 ms from
  // one set of runs to the next as the lock came and went.
  std::mt19937_64 rng(SubSeed(args.seed, 1000 + static_cast<uint64_t>(conn)));
  std::uniform_real_distribution<double> think_s(0.0, 0.020);
  for (uint64_t k = 0; Now() < deadline; ++k) {
    if (args.max_jobs > 0 && claimed->fetch_add(1) >= args.max_jobs) break;
    if (k > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(think_s(rng)));
    }
    Job job;
    job.profile = (static_cast<size_t>(conn) + k) % kProfiles.size();
    // Distinct per request: no two jobs of a run share a seed.
    job.trace_id = static_cast<uint64_t>(conn + 1) * 100'000'000ULL + k + 1;
    job.seed = args.seed * 1'000'003ULL + job.trace_id;
    const std::string& p = kProfiles[job.profile];
    job.submit_start = Now();
    std::string ack = client.Request(
        "submit method=MaxClique target=" + p + ".target truth=" + p +
        ".truth seed=" + std::to_string(job.seed) +
        " client=c" + std::to_string(conn));
    job.acked = Now();
    if (ack.rfind("ok job ", 0) != 0) {
      job.error = "submit refused: '" + ack + "'";
      jobs->push_back(job);
      return;
    }
    std::string id = ack.substr(7);
    job.reply = client.Request("wait " + id);
    job.done = Now();
    tracer->Add("job", job.trace_id, job.submit_start, job.done);
    tracer->Add("net.submit", job.trace_id, job.submit_start, job.acked);
    tracer->Add("net.wait", job.trace_id, job.acked, job.done);
    std::string forgot = client.Request("forget " + id);
    if (job.reply.find(" state=DONE ") == std::string::npos) {
      job.error = "job did not end DONE: '" + job.reply + "'";
    } else if (forgot != "ok forget " + id) {
      job.error = "forget failed: '" + forgot + "'";
    }
    jobs->push_back(job);
    if (!job.error.empty()) return;
    completed->fetch_add(1);
  }
}

/// Round trips of `poll` on one terminal job, timed on the admin
/// connection after the load, so the traced load is the untraced one.
/// The job is submitted, waited for and forgotten here; a poll reply
/// that differs from the wait reply fails the run.
constexpr int kPolls = 200;

std::vector<double> PollRoundTrips(Client* admin, const Args& args,
                                   Tracer* tracer, Result* result) {
  std::vector<double> rtt;
  ++result->attempted;
  std::string ack = admin->Request(
      "submit method=MaxClique target=crime.target truth=crime.truth seed=" +
      std::to_string(args.seed) + " client=admin");
  std::string id = ack.rfind("ok job ", 0) == 0 ? ack.substr(7) : "";
  std::string reply = id.empty() ? "" : admin->Request("wait " + id);
  bool agrees = reply.find(" state=DONE ") != std::string::npos;
  for (int i = 0; i < kPolls && agrees; ++i) {
    double t0 = Now();
    agrees = admin->Request("poll " + id) == reply;
    rtt.push_back(Now() - t0);
    tracer->Add("net.poll", 0, t0, t0 + rtt.back());
  }
  bool forgot = !id.empty() && admin->Request("forget " + id) == "ok forget " + id;
  if (!agrees || !forgot) {
    ++result->failed;
    result->Fail("poll probe: '" + ack + "' did not poll back its wait reply");
  }
  return rtt;
}

/// Formats like the daemon's reply (default ostream precision).
std::string AsReply(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace

void RunServeLight(const Args& args, Tracer* tracer, Result* result) {
  namespace fs = std::filesystem;
  if (args.served.empty()) {
    result->Fail("serve_light needs --served PATH");
    return;
  }
  std::vector<uint64_t> gen_seeds;
  for (size_t p = 0; p < kProfiles.size(); ++p) {
    gen_seeds.push_back(SubSeed(args.seed, 10 + p));
  }

  // Set-up = daemon spawn → banner → the four `gen` replies, repeated
  // on a fresh journal directory each time; the last daemon serves the
  // load. setup_s is their median.
  std::vector<double> setups;
  std::string journal;
  // Declared before the daemon: on an early return the daemon is killed
  // first, then its journal directory removed.
  struct RemoveOnExit {
    const std::string& dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      if (!dir.empty()) fs::remove_all(dir, ignored);
    }
  } remove_journal{journal};
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Client> admin;
  for (int i = 0; i < kSetups; ++i) {
    if (daemon) {
      admin.reset();
      int code = daemon->Stop();
      if (code != 0) result->Fail("daemon exit code " + std::to_string(code));
      fs::remove_all(journal);
    }
    journal = fs::absolute(args.work_dir + "/serve-journal-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(i))
                  .string();
    fs::remove_all(journal);
    Tracer::Span span(tracer, "setup");
    daemon = std::make_unique<Daemon>();
    std::string error;
    if (!daemon->Start(args.served, journal, &error)) {
      result->Fail("set-up: " + error);
      return;
    }
    admin = std::make_unique<Client>();
    if (!admin->Connect(daemon->port())) {
      result->Fail("set-up: cannot connect to the daemon");
      return;
    }
    for (size_t p = 0; p < kProfiles.size(); ++p) {
      std::string reply =
          admin->Request("gen " + kProfiles[p] + " " + kProfiles[p] + " " +
                         std::to_string(gen_seeds[p]));
      if (reply.rfind("ok generated", 0) != 0) {
        result->Fail("set-up: gen " + kProfiles[p] + ": '" + reply + "'");
        return;
      }
    }
    setups.push_back(span.End());
  }

  Snapshot before, after;
  if (!Scrape(admin.get(), &before)) {
    result->Fail("metrics json scrape failed before the load");
    return;
  }
  // peak_rss_mb counts from here, without the set-up's `gen` calls.
  if (!ResetPeakRss(std::to_string(daemon->pid()))) {
    result->Note("peak_rss_reset", "unavailable");
  }
  // The load runs for --seconds while this thread samples the daemon's
  // CPU and the completed-job count once a second; rate and CPU per job
  // are medians over those windows, so a burst of contention from
  // outside moves them only when it covers most of the run.
  std::vector<std::vector<Job>> per_conn(kConnections);
  std::atomic<size_t> claimed{0}, completed{0};
  struct Window {
    double t, cpu;
    size_t jobs;
  };
  const double t0 = Now();
  std::vector<Window> windows = {{t0, daemon->CpuSeconds(), 0}};
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back(DriveConnection, daemon->port(), c,
                           std::cref(args), t0 + args.seconds, &claimed,
                           &completed, tracer, &per_conn[c]);
    }
    for (double next = t0 + 1.0; next <= t0 + args.seconds; next += 1.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(next - Now()));
      windows.push_back({Now(), daemon->CpuSeconds(), completed.load()});
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall = Now() - t0;
  windows.push_back({t0 + wall, daemon->CpuSeconds(), completed.load()});
  std::vector<double> window_rate, window_cpu;
  for (size_t w = 1; w < windows.size(); ++w) {
    double jobs = static_cast<double>(windows[w].jobs - windows[w - 1].jobs);
    if (jobs == 0.0) continue;
    window_rate.push_back(jobs / (windows[w].t - windows[w - 1].t));
    window_cpu.push_back((windows[w].cpu - windows[w - 1].cpu) / jobs);
  }
  bool scraped = Scrape(admin.get(), &after);
  std::vector<double> poll_rtt;
  if (scraped && tracer->enabled()) {
    poll_rtt = PollRoundTrips(admin.get(), args, tracer, result);
  }
  // The counter partition is checked on the last scrape, after every
  // job this run submitted.
  Snapshot last;
  scraped = scraped && Scrape(admin.get(), &last);
  admin.reset();
  int code = daemon->Stop();
  fs::remove_all(journal);
  if (!scraped) result->Fail("metrics json scrape failed after the load");
  if (code != 0) result->Fail("daemon exit code " + std::to_string(code));
  if (fs::exists(journal)) result->Fail("journal directory not removed");

  // The counter partition must hold exactly in the final scrape.
  double accepted = last.Get("marioh_jobs_accepted_total");
  double partition = last.Get("marioh_jobs_done_total") +
                     last.Get("marioh_jobs_failed_total") +
                     last.Get("marioh_jobs_cancelled_total") +
                     last.Get("marioh_jobs_deadline_exceeded_total") +
                     last.Get("marioh_jobs_queued") +
                     last.Get("marioh_jobs_running");
  if (scraped && (accepted == 0 || accepted != partition)) {
    result->Fail("counter partition violated: accepted=" +
                 FormatNumber(accepted) + " vs " + FormatNumber(partition));
  }

  // Every job must match an in-process Session run of the same request
  // on the same generated datasets.
  std::vector<marioh::eval::PreparedDataset> data;
  for (size_t p = 0; p < kProfiles.size(); ++p) {
    Tracer::Span span(tracer, "gen.prepare");
    data.push_back(marioh::eval::PrepareDataset(
        kProfiles[p], /*multiplicity_reduced=*/true, gen_seeds[p]));
  }
  std::vector<Job> jobs;
  for (const std::vector<Job>& conn : per_conn) {
    jobs.insert(jobs.end(), conn.begin(), conn.end());
  }
  std::vector<double> latency, submit_rtt, run_s, wait_beyond_run,
      reference_reconstruct, reference_evaluate;
  std::vector<std::vector<double>> jaccard(kProfiles.size()),
      multi(kProfiles.size());
  for (Job& job : jobs) {
    ++result->attempted;
    std::map<std::string, std::string> f = Fields(job.reply);
    if (job.error.empty()) {
      marioh::api::Session session;
      marioh::api::SessionOptions options;
      options.method = "MaxClique";
      options.seed = job.seed;
      const marioh::eval::PreparedDataset& d = data[job.profile];
      marioh::api::Status status = session.Configure(options);
      if (status.ok()) status = session.Reconstruct(d.target_input());
      marioh::api::StatusOr<marioh::api::EvaluationResult> eval =
          status.ok() ? session.Evaluate(*d.target)
                      : marioh::api::StatusOr<marioh::api::EvaluationResult>(
                            status);
      if (!eval.ok()) {
        job.error = "in-process reference failed: " + eval.status().message();
      } else if (f["unique_edges"] !=
                     std::to_string(eval->reconstructed_unique_edges) ||
                 f["jaccard"] != AsReply(eval->jaccard)) {
        job.error = "reply differs from the in-process Session run: '" +
                    job.reply + "'";
      }
      reference_reconstruct.push_back(session.stage_timer().Get("reconstruct"));
      reference_evaluate.push_back(session.stage_timer().Get("evaluate"));
    }
    if (!job.error.empty()) {
      ++result->failed;
      result->Fail(job.error);
      continue;
    }
    double seconds = marioh::util::ParseDouble(f["seconds"]).value_or(0.0);
    latency.push_back(job.done - job.submit_start);
    submit_rtt.push_back(job.acked - job.submit_start);
    run_s.push_back(seconds);
    wait_beyond_run.push_back(job.done - job.acked - seconds);
    jaccard[job.profile].push_back(
        marioh::util::ParseDouble(f["jaccard"]).value_or(0.0));
    multi[job.profile].push_back(
        marioh::util::ParseDouble(f["multi_jaccard"]).value_or(0.0));
  }
  if (result->failures.size() > 20) {
    size_t more = result->failures.size() - 20;
    result->failures.resize(20);
    result->Fail("... and " + std::to_string(more) + " more failures");
  }
  const double done = static_cast<double>(latency.size());
  result->Note("jobs", done);
  result->Note("p95_samples_beyond",
               static_cast<double>(latency.size() / 20));

  auto delta = [&](const std::string& name, const std::string& field) {
    return after.Get(name, field) - before.Get(name, field);
  };
  auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  double queue_wait =
      per(delta("marioh_wait_latency_seconds", "sum"),
          delta("marioh_wait_latency_seconds", "count"));

  result->Set("setup_s", Median(setups));
  if (tracer->enabled()) {
    result->Set("gen.prepare_s", Median(tracer->Durations("gen.prepare")));
    result->Set("core.reconstruct_s", Median(reference_reconstruct));
    result->Set("eval.evaluate_s", Median(reference_evaluate));
    result->Set("net.submit_rtt_s", Median(submit_rtt));
    result->Set("net.poll_rtt_s", Median(poll_rtt));
    // Mean minus mean: the daemon reports queue wait only as a histogram.
    double beyond_run = 0.0;
    for (double v : wait_beyond_run) beyond_run += v;
    result->Set("net.wait_overhang_s",
                per(beyond_run, static_cast<double>(wait_beyond_run.size())) -
                    queue_wait);
    result->Set("api.queue_wait_s", queue_wait);
    result->Set("api.run_s", Median(run_s));
    result->Set("util.journal_fsync_s",
                per(delta("marioh_journal_fsync_seconds", "sum"),
                    delta("marioh_journal_fsync_seconds", "count")));
    result->Set("util.journal_fsyncs_per_job",
                per(delta("marioh_journal_fsyncs_total", "value"), done));
    result->Set("net.lines_per_job",
                per(delta("marioh_lines_served_total", "value"), done));
    result->Set("trace.job_s_p50", Median(latency));
    result->Set("job_s_p95", Quantile(latency, 0.95));
  } else {
    double jaccard_mean = 0.0, multi_mean = 0.0;
    size_t profiles_seen = 0;
    for (size_t p = 0; p < kProfiles.size(); ++p) {
      if (jaccard[p].empty()) continue;
      ++profiles_seen;
      double js = 0.0, ms = 0.0;
      for (double v : jaccard[p]) js += v;
      for (double v : multi[p]) ms += v;
      jaccard_mean += js / static_cast<double>(jaccard[p].size());
      multi_mean += ms / static_cast<double>(multi[p].size());
    }
    result->Set("job_s_p50", Median(latency));
    result->Set("jobs_per_s", Median(window_rate));
    result->Set("cpu_s_per_job", Median(window_cpu));
    result->Set("peak_rss_mb",
                after.Get("marioh_process_peak_rss_bytes") / (1024.0 * 1024.0));
    result->Set("jaccard", per(jaccard_mean, profiles_seen));
    result->Set("multi_jaccard", per(multi_mean, profiles_seen));
  }
}

}  // namespace perfbench
