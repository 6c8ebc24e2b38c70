/// \file dataset_cache.hpp
/// \brief Named, immutable, load-once dataset handles: the layer that lets
/// N concurrent sessions (or service jobs) share one in-memory copy of a
/// dataset instead of re-reading files per run.
///
/// A `DatasetCache` maps names to immutable datasets held through
/// `std::shared_ptr<const T>` handles. Loading is load-once: re-loading an
/// already-resident name from the same path returns the existing handle
/// without touching the file system. Handles keep their data alive
/// independently of the cache — evicting a name never invalidates a
/// handle a running session still holds — and because the pointees are
/// `const`, sharing one dataset across any number of threads is safe by
/// construction.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/status.hpp"
#include "hypergraph/hypergraph.hpp"
#include "hypergraph/projected_graph.hpp"

namespace marioh::api {

/// Shared read-only handle to a hypergraph.
using HypergraphHandle = std::shared_ptr<const Hypergraph>;

/// Shared read-only handle to a projected graph.
using GraphHandle = std::shared_ptr<const ProjectedGraph>;

/// One named dataset: a hypergraph, a projected graph, or both (a
/// hypergraph loaded for training carries its projection so sessions
/// never re-project). Either pointer may be null, never both.
struct DatasetHandle {
  std::string name;
  HypergraphHandle hypergraph;
  GraphHandle graph;

  bool has_hypergraph() const { return hypergraph != nullptr; }
  bool has_graph() const { return graph != nullptr; }
};

/// Thread-safe name → immutable dataset map. Normally one cache is shared
/// by every consumer of a process (the `api::Service` takes one at
/// construction; a `Session` runs on its handles), but
/// the class is instantiable so tests can build isolated fixtures.
///
/// **Resource governance.** The cache tracks an approximate byte
/// footprint per entry (`Hypergraph::ApproxBytes` +
/// `ProjectedGraph::ApproxBytes`, measured once at insert). When a
/// `max_bytes` budget is configured, every insert that pushes the total
/// over budget evicts least-recently-used entries until the cache fits —
/// but only entries whose handles are held by nobody else: an entry some
/// session, job, or caller still pins through a `shared_ptr` is never
/// evicted (evicting it would free no memory, only lose the name), so the
/// cache can sit temporarily over budget while everything resident is
/// pinned. Eviction drops the *name*; handles already given out stay
/// valid regardless (shared ownership), exactly like an explicit
/// `Erase`.
class DatasetCache {
 public:
  /// `max_bytes` of 0 means unlimited (no eviction, bytes still
  /// accounted).
  explicit DatasetCache(size_t max_bytes = 0) : max_bytes_(max_bytes) {}
  DatasetCache(const DatasetCache&) = delete;
  DatasetCache& operator=(const DatasetCache&) = delete;

  /// Reads a hypergraph file, projects it, and stores both under `name`.
  /// Load-once: if `name` is already resident *from the same path*, the
  /// existing handle is returned and the file is not re-read.
  /// kAlreadyExists if the name is taken by a different path or an
  /// in-memory insert; kNotFound / kInvalidArgument from the reader.
  StatusOr<DatasetHandle> LoadHypergraphFile(const std::string& name,
                                             const std::string& path);

  /// Reads a weighted edge list and stores it under `name` as a
  /// graph-only dataset. Same load-once and error contract as
  /// LoadHypergraphFile.
  StatusOr<DatasetHandle> LoadProjectedGraphFile(const std::string& name,
                                                 const std::string& path);

  /// Stores already-built handles under `name` (zero-copy: the cache
  /// shares ownership with the caller). At least one of
  /// `hypergraph`/`graph` must be non-null. kAlreadyExists if the name is
  /// taken, kInvalidArgument if both handles are null or the name is
  /// empty.
  StatusOr<DatasetHandle> Insert(const std::string& name,
                                 HypergraphHandle hypergraph,
                                 GraphHandle graph);

  /// The dataset stored under `name`, or kNotFound listing the resident
  /// names.
  StatusOr<DatasetHandle> Get(const std::string& name) const;

  bool Contains(const std::string& name) const;

  /// Drops `name` from the cache. Handles already given out stay valid
  /// (shared ownership). kNotFound if the name is not resident.
  Status Erase(const std::string& name);

  /// Resident dataset names, sorted.
  std::vector<std::string> Names() const;

  /// Number of resident datasets.
  size_t size() const;

  /// Approximate bytes held by resident entries (pinned-elsewhere data
  /// that was evicted no longer counts — the cache no longer owns it).
  size_t total_bytes() const;

  /// Entries evicted by the byte budget since construction (explicit
  /// `Erase` calls do not count).
  uint64_t evictions() const;

  /// The configured byte budget (0 = unlimited).
  size_t max_bytes() const;

  /// Re-configures the byte budget and immediately runs an eviction pass
  /// under the new value.
  void set_max_bytes(size_t max_bytes);

  // --- Persistence: the dataset manifest -------------------------------
  //
  // A journal-recovered job is only as good as its datasets: the service
  // can re-admit the request, but the handles must resolve again. The
  // manifest is a small text file recording *how each dataset got here* —
  // `hypergraph <name> <path>` / `graph <name> <path>` for file loads and
  // `gen <basename> <profile> <seed>` for generated triples — rewritten
  // atomically (temp file + rename) on every change, and replayed before
  // re-admission at startup. In-memory inserts with no recipe are not
  // restorable and are deliberately absent.

  /// One manifest line.
  struct ManifestEntry {
    std::string kind;  ///< "hypergraph", "graph", or "gen"
    std::string name;  ///< dataset name; the basename for "gen"
    std::string path;  ///< source path; the profile name for "gen"
    uint64_t seed = 0;  ///< "gen" only
  };

  /// Re-creates one generated triple (`gen <basename> <profile> <seed>`)
  /// during RestoreFromManifest — the cache cannot depend on the
  /// generator (it lives in eval/), so the caller supplies it.
  using GenResolver = std::function<Status(
      const std::string& basename, const std::string& profile,
      uint64_t seed)>;

  /// Starts maintaining a manifest at `path`: the current restorable
  /// state is written now, and every future load / RecordGenerated /
  /// Erase rewrites it (atomically). Errors are the write failing.
  Status EnableManifest(const std::string& path);

  /// Records that `basename`.train/.target/.truth were produced by
  /// generator `profile` under `seed`, so a manifest restore can
  /// re-create them. Called by the front ends' `gen` verb.
  void RecordGenerated(const std::string& basename,
                       const std::string& profile, uint64_t seed);

  /// Parses a manifest file. A missing file is an empty manifest (a
  /// fresh journal dir), not an error; a malformed line is.
  static StatusOr<std::vector<ManifestEntry>> ReadManifest(
      const std::string& path);

  /// Replays a manifest into this cache: file entries re-load through
  /// LoadHypergraphFile/LoadProjectedGraphFile, gen entries go through
  /// `gen` (pass null to fail them). Keeps going past individual
  /// failures — every restorable dataset is restored — and returns OK
  /// only if all entries succeeded (otherwise kUnavailable listing what
  /// failed, so the operator knows which recovered jobs are doomed).
  Status RestoreFromManifest(const std::string& path,
                             const GenResolver& gen);

 private:
  struct Entry {
    DatasetHandle dataset;
    std::string path;  ///< source file; empty for in-memory inserts
    size_t bytes = 0;  ///< ApproxBytes at insert time
    /// LRU stamp (monotone access counter). Mutable because the read
    /// path (`Get`) must refresh recency through a const cache.
    mutable uint64_t last_used = 0;
  };

  /// Comma-separated resident names for kNotFound messages. Requires
  /// `mutex_` held.
  std::string NamesForErrorLocked() const;

  /// The kAlreadyExists status for a name held by `entry`.
  Status ConflictLocked(const Entry& entry, const std::string& name) const;

  StatusOr<DatasetHandle> InsertLocked(const std::string& name,
                                       DatasetHandle dataset,
                                       const std::string& path);

  /// Stamps `entry` as just-used. Requires `mutex_` held.
  void TouchLocked(const Entry& entry) const;

  /// Evicts LRU unpinned entries (skipping `keep`) until the budget
  /// fits or nothing evictable remains. Requires `mutex_` held.
  void EvictLocked(const std::string& keep);

  /// Records a file-backed dataset in the manifest bookkeeping and
  /// rewrites the manifest if enabled. Requires `mutex_` held.
  void RecordFileLocked(const std::string& kind, const std::string& name,
                        const std::string& path);
  /// Atomically rewrites the manifest file from the bookkeeping maps
  /// (no-op while no manifest is enabled). Requires `mutex_` held.
  Status WriteManifestLocked();

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  size_t max_bytes_ = 0;
  size_t total_bytes_ = 0;
  uint64_t evictions_ = 0;
  /// Manifest state: the file being maintained (empty = disabled) and
  /// the restorable recipes — name → (kind, path) for file loads,
  /// basename → (profile, seed) for generated triples. Kept separately
  /// from `entries_` so eviction under memory pressure does not forget
  /// how to restore a dataset.
  std::string manifest_path_;
  std::map<std::string, std::pair<std::string, std::string>>
      manifest_files_;
  std::map<std::string, std::pair<std::string, uint64_t>> gen_recipes_;
  /// Advances on every access for LRU stamps (mutable: see
  /// Entry::last_used).
  mutable uint64_t use_clock_ = 0;
};

}  // namespace marioh::api
