// marioh_served: the socketed serving daemon — a net::TcpServer on one
// net::EventLoop thread multiplexing many concurrent clients onto the
// shared api::Service worker pool. Each connection speaks the same
// line protocol as marioh_serve (src/api/README.md) and schedules as its
// own fair-share client lane.
//
//   marioh_served [--port P] [--workers N] [--max-connections N]
//                 [--cache-bytes N] [--job-ttl SECONDS]
//                 [--max-queued N] [--max-inflight N]
//                 [--max-output-bytes N] [--metrics-json PATH]
//                 [--stall-timeout SECONDS] [--shed-batch-above N]
//                 [--journal-dir PATH] [--fsync always|never]
//                 [--allow-failpoint-admin]
//
//   --port P             bind 127.0.0.1:P; 0 (default) picks a free port
//   --workers N          Service worker threads (0 = all cores)
//   --max-connections N  reject accepts past N concurrent connections
//   --cache-bytes N      DatasetCache LRU budget (0 = unbounded)
//   --job-ttl SECONDS    auto-retire terminal jobs after this long
//                        (negative = keep forever)
//   --max-queued N       admission cap on queued jobs (0 = unbounded)
//   --max-inflight N     per-client in-flight job cap (0 = unbounded)
//   --max-output-bytes N per-connection write-buffer cap before a slow
//                        reader is disconnected
//   --metrics-json PATH  write the full observability snapshot here on
//                        shutdown: every counter/gauge/histogram plus
//                        recent trace spans (obs::SnapshotJson)
//   --stall-timeout S    watchdog: cancel a running job whose heartbeat
//                        is silent for S seconds (negative = off)
//   --shed-batch-above N reject batch-priority submits while >= N jobs
//                        are queued (0 = no shedding)
//   --journal-dir PATH   durability: write-ahead journal every accepted
//                        request into PATH and, at startup, re-admit the
//                        jobs a previous life accepted but never finished
//                        (the banner reports recovered=N). The dataset
//                        manifest PATH/datasets.manifest re-loads the
//                        datasets first so recovered jobs resolve.
//   --fsync always|never journal fsync policy (default always: an
//                        accepted job survives power loss)
//   --allow-failpoint-admin
//                        let clients drive the `failpoints` verb (chaos
//                        testing only — never on a shared server)
//
// The first stdout line is `ok marioh_served port=<P> ...` so a launcher
// binding port 0 can read the real port back. SIGINT/SIGTERM stop the
// event loop; shutdown drains through the Service destructor (queued jobs
// cancelled, running ones preempted mid-kernel) and exits 0.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "api/dataset_cache.hpp"
#include "api/service.hpp"
#include "net/event_loop.hpp"
#include "net/line_protocol.hpp"
#include "net/tcp_server.hpp"
#include "obs/metrics.hpp"
#include "util/parse.hpp"

namespace {

marioh::net::EventLoop* g_loop = nullptr;

void HandleSignal(int) {
  if (g_loop != nullptr) g_loop->Stop();  // async-signal-safe
}

int FlagError(const std::string& flag, const char* expected) {
  std::cerr << "error: " << flag << " needs " << expected << "\n";
  return 1;
}

// Temp file + rename(2): the file visible under `path` is always a
// complete snapshot — a death mid-write can never leave truncated
// JSON for a soak script to choke on.
void WriteFileAtomic(const std::string& path, const std::string& body) {
  std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  out << body;
  out.flush();
  if (!out) {
    std::cerr << "error: writing snapshot to " << tmp << " failed\n";
    return;
  }
  out.close();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::cerr << "error: renaming " << tmp << " to " << path << " failed\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  marioh::api::ServiceOptions service_options;
  marioh::net::TcpServerOptions net_options;
  size_t cache_bytes = 0;
  std::string metrics_json;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value = i + 1 < argc ? argv[i + 1] : "";
    std::optional<marioh::api::Status> shared =
        i + 1 < argc
            ? marioh::net::ParseServiceFlag(arg, value, &service_options)
            : std::nullopt;
    if (shared.has_value()) {
      if (!shared->ok()) {
        std::cerr << "error: " << shared->message() << "\n";
        return 1;
      }
      ++i;
    } else if (arg == "--port" && i + 1 < argc) {
      std::optional<uint64_t> port = marioh::util::ParseUint64(value);
      if (!port.has_value() || *port > 65535) {
        return FlagError(arg, "a port number (0 = ephemeral)");
      }
      net_options.port = static_cast<uint16_t>(*port);
      ++i;
    } else if (arg == "--max-connections" && i + 1 < argc) {
      std::optional<uint64_t> cap = marioh::util::ParseUint64(value);
      if (!cap.has_value()) {
        return FlagError(arg, "a non-negative integer (0 = unlimited)");
      }
      net_options.max_connections = *cap;
      ++i;
    } else if (arg == "--cache-bytes" && i + 1 < argc) {
      std::optional<uint64_t> bytes = marioh::util::ParseUint64(value);
      if (!bytes.has_value()) {
        return FlagError(arg, "a byte budget (0 = unbounded)");
      }
      cache_bytes = *bytes;
      ++i;
    } else if (arg == "--job-ttl" && i + 1 < argc) {
      std::optional<double> ttl = marioh::util::ParseDouble(value);
      if (!ttl.has_value()) {
        return FlagError(arg, "seconds (negative = keep forever)");
      }
      service_options.job_ttl_seconds = *ttl;
      ++i;
    } else if (arg == "--max-queued" && i + 1 < argc) {
      std::optional<uint64_t> cap = marioh::util::ParseUint64(value);
      if (!cap.has_value()) {
        return FlagError(arg, "a non-negative integer (0 = unbounded)");
      }
      service_options.max_queued_jobs = *cap;
      ++i;
    } else if (arg == "--max-inflight" && i + 1 < argc) {
      std::optional<uint64_t> cap = marioh::util::ParseUint64(value);
      if (!cap.has_value()) {
        return FlagError(arg, "a non-negative integer (0 = unbounded)");
      }
      service_options.max_inflight_per_client = *cap;
      ++i;
    } else if (arg == "--max-output-bytes" && i + 1 < argc) {
      std::optional<uint64_t> cap = marioh::util::ParseUint64(value);
      if (!cap.has_value()) {
        return FlagError(arg, "a byte cap (0 = unbounded)");
      }
      net_options.max_output_bytes = *cap;
      ++i;
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      metrics_json = value;
      ++i;
    } else if (arg == "--stall-timeout" && i + 1 < argc) {
      std::optional<double> timeout = marioh::util::ParseDouble(value);
      if (!timeout.has_value()) {
        return FlagError(arg, "seconds (negative = watchdog off)");
      }
      service_options.stall_timeout_seconds = *timeout;
      ++i;
    } else if (arg == "--shed-batch-above" && i + 1 < argc) {
      std::optional<uint64_t> cap = marioh::util::ParseUint64(value);
      if (!cap.has_value()) {
        return FlagError(arg, "a queue depth (0 = no shedding)");
      }
      service_options.shed_batch_above_queued = *cap;
      ++i;
    } else if (arg == "--allow-failpoint-admin") {
      net_options.allow_failpoint_admin = true;
    } else {
      std::cerr << "error: unknown flag '" << arg
                << "' (see the header comment of marioh_served.cpp)\n";
      return 1;
    }
  }

  auto cache = std::make_shared<marioh::api::DatasetCache>(cache_bytes);
  marioh::api::StatusOr<std::unique_ptr<marioh::api::Service>> started =
      marioh::net::StartService(cache, service_options, std::cerr);
  if (!started.ok()) {
    std::cerr << "error: " << started.status().message() << "\n";
    return 1;
  }
  marioh::api::Service& service = **started;
  marioh::net::EventLoop loop;
  marioh::net::TcpServer server(&loop, cache.get(), &service, net_options);

  marioh::api::Status listening = server.Start();
  if (!listening.ok()) {
    std::cerr << "error: " << listening.message() << "\n";
    return 1;
  }

  g_loop = &loop;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);  // broken sockets surface as write errors

  std::cout << "ok marioh_served port=" << server.port() << " workers="
            << (service_options.num_workers == 0
                    ? "auto"
                    : std::to_string(service_options.num_workers))
            << " max_connections=" << net_options.max_connections
            << " cache_bytes=" << cache_bytes
            << " job_ttl=" << service_options.job_ttl_seconds;
  if (!service_options.journal_dir.empty()) {
    std::cout << " journal=" << service_options.journal_dir
              << " recovered=" << service.stats().jobs_recovered;
  }
  std::cout << std::endl;

  loop.Run();

  if (!metrics_json.empty()) {
    WriteFileAtomic(
        metrics_json,
        marioh::obs::MetricRegistry::Global().SnapshotJson() + "\n");
  }
  std::cout << "ok bye" << std::endl;
  return 0;
}
