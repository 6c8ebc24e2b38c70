/// \file line_protocol.hpp
/// \brief The serving wire format, shared by every front end: one request
/// line in, one `ok ...` / `error ...` response line out. Extracted from
/// `examples/marioh_serve.cpp` so the stdin loop and the TCP server
/// cannot drift — both speak exactly this codec (`src/api/README.md`
/// holds the protocol reference).
///
/// `Handle` is synchronous and never blocks on job execution: the one
/// blocking verb, `wait`, is returned to the caller as a *deferred* result
/// (`Result::wait_for`) so each front end can implement it with its own
/// idiom — the stdin loop blocks in `Service::Wait`, the event-loop TCP
/// server parks the connection and answers the wait when the Service's
/// completion observer posts the job's id to the loop, keeping every
/// other client live.

#pragma once

#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "api/dataset_cache.hpp"
#include "api/service.hpp"
#include "api/status.hpp"

namespace marioh::net {

/// Prepares the dataset triple `<basename>.train/.target/.truth` from
/// evaluation-harness generator `profile` under `seed` and inserts it
/// into `cache`, recording the recipe so a dataset manifest can restore
/// it after a crash. Shared by the `gen` verb and the manifest-restore
/// path the daemons run at startup (which is why it is a free function,
/// usable before any protocol object exists). All three names must be
/// free; kAlreadyExists otherwise.
api::Status GenerateDataset(api::DatasetCache* cache,
                            const std::string& basename,
                            const std::string& profile, uint64_t seed);

/// Largest `--workers` value: the Service starts one thread per worker.
inline constexpr int kMaxServiceWorkers = 1024;

/// Parses `flag value` for the ServiceOptions flags both front ends take:
/// `--workers N` (0 = all cores), `--journal-dir PATH`, `--fsync
/// always|never`. nullopt for other flags; else OK or kInvalidArgument.
std::optional<api::Status> ParseServiceFlag(const std::string& flag,
                                            const std::string& value,
                                            api::ServiceOptions* options);

/// The start-up sequence both front ends run. With a journal directory
/// it creates the directory, restores the datasets recorded in its
/// `datasets.manifest` through GenerateDataset, then enables the
/// manifest. Datasets come first because the Service replays the
/// journal on construction and re-admitted jobs must resolve their
/// handles. A failed restore is written to `warnings` (only the jobs
/// that need a missing dataset fail); a manifest that cannot be enabled,
/// or a Service whose `startup_status()` is not OK, is an error: the
/// durability the operator asked for is not there, so refuse to serve.
api::StatusOr<std::unique_ptr<api::Service>> StartService(
    const std::shared_ptr<api::DatasetCache>& cache,
    const api::ServiceOptions& options, std::ostream& warnings);

class LineProtocol {
 public:
  /// Both pointers must outlive the protocol object.
  LineProtocol(api::DatasetCache* cache, api::Service* service);

  /// The fair-share lane used when a `submit` names no `client=` key.
  /// Empty (the default) keeps the anonymous shared lane; the TCP server
  /// sets one per connection so each socket schedules as its own client.
  void set_default_client(std::string client_id);

  /// Enables the `failpoints` admin verb (process-wide fault injection —
  /// see util/failpoint.hpp). Off by default: a fault-injection surface
  /// must be an explicit operator opt-in (`--allow-failpoint-admin`),
  /// never something a network peer can reach on a stock server.
  void set_allow_failpoint_admin(bool allow) {
    allow_failpoint_admin_ = allow;
  }

  /// Outcome of one request line.
  struct Result {
    /// Complete response, '\n'-terminated — empty only for blank/comment
    /// input and deferred waits.
    std::string response;
    /// The client asked to end the conversation (`quit`).
    bool quit = false;
    /// Set for a `wait <id>` whose job is not terminal yet: the caller
    /// owes the client one `FormatJob` line once it is (or an error line
    /// if the job record disappears first).
    std::optional<api::JobId> wait_for;
  };

  /// Serves one request line. Never throws and never fails: every
  /// problem becomes an `error CODE: message` response, so a malformed
  /// request can't kill a serving loop.
  Result Handle(const std::string& line);

  /// "ok job N state=..." — also the deferred-wait completion line.
  std::string FormatJob(const api::JobSnapshot& job) const;

  /// "error CODE: message".
  static std::string FormatError(const api::Status& status);

  /// The `metrics` response: `ok metrics lines=N\n` followed by exactly
  /// N lines of Prometheus text exposition from the global registry —
  /// the framing that lets a one-line-per-request client read a
  /// multi-line payload. `metrics json` instead answers one
  /// `ok metrics-json {...}` line with the full JSON snapshot.
  static std::string FormatMetrics();

 private:
  std::string HandleLoad(std::istream& args) const;
  std::string HandleGen(std::istream& args) const;
  Result HandleSubmit(std::istream& args) const;

  api::DatasetCache* cache_;
  api::Service* service_;
  std::string default_client_;
  bool allow_failpoint_admin_ = false;
};

}  // namespace marioh::net
