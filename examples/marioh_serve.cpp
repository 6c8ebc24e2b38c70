// marioh_serve: a line-oriented serving loop over the api::Service stack —
// the front end that runs many reconstructions concurrently over shared
// in-memory datasets. It speaks the net::LineProtocol request codec on
// stdin/stdout (one request per line, one `ok ...` or `error ...` response
// line each), so it works interactively, under a pipe, and in the ctest
// smoke test alike. The TCP front end (examples/marioh_served) speaks the
// same codec over sockets.
//
//   marioh_serve [--workers N] [--journal-dir PATH] [--fsync always|never]
//
// With --journal-dir, every accepted request is write-ahead journaled
// into PATH and jobs a previous life accepted but never finished are
// re-admitted at startup (after the PATH/datasets.manifest restore) —
// the same durability contract as marioh_served.
//
// Protocol (see src/api/README.md for the full reference):
//
//   load hypergraph <name> <path>   load a .hg file (+ projection) once
//   load graph <name> <path>        load a .eg edge list once
//   gen <name> <profile> [seed]     generate + split a synthetic profile:
//                                   <name>.train / .target / .truth
//   datasets                        list resident dataset names
//   methods                         list registered method names
//   submit key=value ...            submit a job; keys: method= train=
//                                   target= truth= seed= deadline=
//                                   priority= client= retries= backoff=
//                                   plus any session/method
//                                   override (threads= sets the job's
//                                   kernel threads, theta_init=, ...).
//                                   Responds `ok job N`, or at once
//                                   `error ...` for a key or value the
//                                   job could not run with.
//   poll <id>                       non-blocking job state
//   wait <id>                       block until the job finishes
//   cancel <id>                     cancel a queued job, or preempt a
//                                   running one mid-kernel
//   forget <id>                     retire a finished job (frees its
//                                   result; keeps memory bounded)
//   metrics [json]                  full observability snapshot from the
//                                   metric registry: Prometheus text
//                                   framed as `ok metrics lines=N` + N
//                                   lines, or one `ok metrics-json {...}`
//                                   line with `metrics json`
//   failpoints [spec|off]           inspect / reconfigure fault injection
//                                   (always enabled here: whoever drives
//                                   stdin already owns the process)
//   quit                            exit 0 (EOF does the same)
//
// Errors never kill the loop: a bad request gets one `error CODE: message`
// line and the server keeps reading. Unknown datasets, unknown methods,
// malformed files, bad overrides all arrive as api::Status values. Every
// verb but `submit` and `failpoints` takes exactly the operands shown; a
// missing or extra one gets `error INVALID_ARGUMENT: usage: ...` and has
// no effect.

#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "api/dataset_cache.hpp"
#include "api/service.hpp"
#include "net/line_protocol.hpp"

int main(int argc, char** argv) {
  marioh::api::ServiceOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::optional<marioh::api::Status> parsed =
        i + 1 < argc ? marioh::net::ParseServiceFlag(arg, argv[i + 1],
                                                     &options)
                     : std::nullopt;
    if (!parsed.has_value()) {
      std::cerr << "error: unknown flag '" << arg
                << "' (usage: marioh_serve [--workers N] "
                   "[--journal-dir PATH] [--fsync always|never])\n";
      return 1;
    }
    if (!parsed->ok()) {
      std::cerr << "error: " << parsed->message() << "\n";
      return 1;
    }
    ++i;
  }

  auto cache = std::make_shared<marioh::api::DatasetCache>();
  marioh::api::StatusOr<std::unique_ptr<marioh::api::Service>> started =
      marioh::net::StartService(cache, options, std::cerr);
  if (!started.ok()) {
    std::cerr << "error: " << started.status().message() << "\n";
    return 1;
  }
  marioh::api::Service& service = **started;
  marioh::net::LineProtocol protocol(cache.get(), &service);
  // stdin is a local, single-operator surface: whoever can type here can
  // also set MARIOH_FAILPOINTS, so gating the admin verb would add
  // ceremony without adding safety (unlike the TCP server, where it is
  // opt-in per --allow-failpoint-admin).
  protocol.set_allow_failpoint_admin(true);
  std::cout << "ok marioh_serve workers="
            << (options.num_workers == 0 ? "auto"
                                         : std::to_string(
                                               options.num_workers))
            << "\n";

  std::string line;
  while (std::getline(std::cin, line)) {
    marioh::net::LineProtocol::Result result = protocol.Handle(line);
    if (result.wait_for.has_value()) {
      // The protocol defers `wait`; a single-client stdin loop can
      // simply block in the service until the job is terminal.
      marioh::api::StatusOr<marioh::api::JobSnapshot> job =
          service.Wait(*result.wait_for);
      std::cout << (job.ok()
                        ? protocol.FormatJob(*job)
                        : marioh::net::LineProtocol::FormatError(
                              job.status()));
      continue;
    }
    std::cout << result.response;
    if (result.quit) return 0;
  }
  // EOF behaves like quit: the Service destructor cancels queued jobs
  // and preempts running ones at their next mid-kernel preemption point
  // before joining.
  std::cout << "ok bye\n";
  return 0;
}
