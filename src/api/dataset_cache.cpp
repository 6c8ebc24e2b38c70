#include "api/dataset_cache.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "io/text_io.hpp"
#include "util/failpoint.hpp"
#include "util/parse.hpp"

namespace marioh::api {

std::string DatasetCache::NamesForErrorLocked() const {
  if (entries_.empty()) return "(cache is empty)";
  std::string names;
  for (const auto& [name, entry] : entries_) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return names;
}

Status DatasetCache::ConflictLocked(const Entry& entry,
                                    const std::string& name) const {
  return Status::AlreadyExists(
      "dataset '" + name + "' is already loaded" +
      (entry.path.empty() ? std::string(" (in-memory)")
                          : " from '" + entry.path + "'"));
}

void DatasetCache::TouchLocked(const Entry& entry) const {
  entry.last_used = ++use_clock_;
}

void DatasetCache::EvictLocked(const std::string& keep) {
  if (max_bytes_ == 0) return;
  if (util::FailPoints::active()) {
    // Fault surface: a slow eviction pass ("cache.evict", delay action)
    // stretches the window in which the cache sits over budget — the
    // pin-aware invariants must hold regardless. Error/short make no
    // sense on a void path and are ignored.
    util::FailPoints::Eval("cache.evict");
  }
  while (total_bytes_ > max_bytes_) {
    // Oldest unpinned entry. "Unpinned" means the cache holds the only
    // reference to every non-null part of the handle, so erasing the
    // entry actually frees the memory. use_count is exact here: the
    // mutex serializes all handle hand-outs, so no reference can appear
    // concurrently.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == keep) continue;
      const DatasetHandle& d = it->second.dataset;
      bool pinned = (d.hypergraph != nullptr && d.hypergraph.use_count() > 1) ||
                    (d.graph != nullptr && d.graph.use_count() > 1);
      if (pinned) continue;
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything left is pinned
    total_bytes_ -= victim->second.bytes;
    entries_.erase(victim);
    ++evictions_;
  }
}

StatusOr<DatasetHandle> DatasetCache::InsertLocked(
    const std::string& name, DatasetHandle dataset,
    const std::string& path) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must not be empty");
  }
  if (!dataset.has_hypergraph() && !dataset.has_graph()) {
    return Status::InvalidArgument("dataset '" + name +
                                   "' has neither a hypergraph nor a "
                                   "graph");
  }
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    // Load-once under concurrency: two racing loads of the same
    // name+path both succeed, the loser adopting the winner's handle —
    // provided the resident entry covers the kind the loser loaded
    // (a hypergraph load must not silently receive a graph-only entry).
    const DatasetHandle& resident = it->second.dataset;
    bool compatible =
        (!dataset.has_hypergraph() || resident.has_hypergraph()) &&
        (!dataset.has_graph() || resident.has_graph());
    if (!path.empty() && it->second.path == path && compatible) {
      TouchLocked(it->second);
      return resident;
    }
    return ConflictLocked(it->second, name);
  }
  dataset.name = name;
  Entry entry{dataset, path, /*bytes=*/0, /*last_used=*/0};
  if (dataset.hypergraph) entry.bytes += dataset.hypergraph->ApproxBytes();
  if (dataset.graph) entry.bytes += dataset.graph->ApproxBytes();
  total_bytes_ += entry.bytes;
  auto [inserted, ok] = entries_.emplace(name, std::move(entry));
  (void)ok;
  TouchLocked(inserted->second);
  // The entry just inserted is exempt from its own eviction pass — a
  // dataset larger than the whole budget still loads (and pushes
  // everything unpinned out); rejecting it would make the budget a
  // correctness knob instead of a memory one.
  EvictLocked(name);
  return dataset;
}

StatusOr<DatasetHandle> DatasetCache::LoadHypergraphFile(
    const std::string& name, const std::string& path) {
  {
    // Resolve the name before touching the file system: a same-path hit
    // is the load-once fast path, any other resident entry is a
    // conflict (reported even if the new path does not exist).
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      if (it->second.path == path && it->second.dataset.has_hypergraph()) {
        TouchLocked(it->second);
        RecordFileLocked("hypergraph", name, path);
        return it->second.dataset;
      }
      return ConflictLocked(it->second, name);
    }
  }
  if (util::FailPoints::active() &&
      util::FailPoints::Eval("cache.load") == util::FailAction::kError) {
    return Status::Unavailable(
        "failpoint 'cache.load': injected transient load failure for "
        "dataset '" + name + "'");
  }
  StatusOr<Hypergraph> h = io::TryReadHypergraphFile(path);
  if (!h.ok()) return h.status();
  // Project() sizes dense per-node arrays by the largest id; refuse a
  // sparse huge id before it does.
  MARIOH_RETURN_IF_ERROR(io::CheckNodeIdsAreDense(*h));
  auto hypergraph =
      std::make_shared<const Hypergraph>(std::move(h).value());
  auto graph = std::make_shared<const ProjectedGraph>(hypergraph->Project());
  std::lock_guard<std::mutex> lock(mutex_);
  StatusOr<DatasetHandle> inserted =
      InsertLocked(name,
                   DatasetHandle{name, std::move(hypergraph),
                                 std::move(graph)},
                   path);
  if (inserted.ok()) RecordFileLocked("hypergraph", name, path);
  return inserted;
}

StatusOr<DatasetHandle> DatasetCache::LoadProjectedGraphFile(
    const std::string& name, const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      if (it->second.path == path && it->second.dataset.has_graph()) {
        TouchLocked(it->second);
        RecordFileLocked("graph", name, path);
        return it->second.dataset;
      }
      return ConflictLocked(it->second, name);
    }
  }
  if (util::FailPoints::active() &&
      util::FailPoints::Eval("cache.load") == util::FailAction::kError) {
    return Status::Unavailable(
        "failpoint 'cache.load': injected transient load failure for "
        "dataset '" + name + "'");
  }
  StatusOr<ProjectedGraph> g = io::TryReadProjectedGraphFile(path);
  if (!g.ok()) return g.status();
  auto graph = std::make_shared<const ProjectedGraph>(std::move(g).value());
  std::lock_guard<std::mutex> lock(mutex_);
  StatusOr<DatasetHandle> inserted = InsertLocked(
      name, DatasetHandle{name, nullptr, std::move(graph)}, path);
  if (inserted.ok()) RecordFileLocked("graph", name, path);
  return inserted;
}

StatusOr<DatasetHandle> DatasetCache::Insert(const std::string& name,
                                             HypergraphHandle hypergraph,
                                             GraphHandle graph) {
  std::lock_guard<std::mutex> lock(mutex_);
  return InsertLocked(
      name, DatasetHandle{name, std::move(hypergraph), std::move(graph)},
      /*path=*/"");
}

StatusOr<DatasetHandle> DatasetCache::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no dataset named '" + name +
                            "'; resident datasets: " +
                            NamesForErrorLocked());
  }
  TouchLocked(it->second);
  return it->second.dataset;
}

bool DatasetCache::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(name) > 0;
}

Status DatasetCache::Erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no dataset named '" + name +
                            "'; resident datasets: " +
                            NamesForErrorLocked());
  }
  total_bytes_ -= it->second.bytes;
  entries_.erase(it);
  // An explicit Erase also forgets how to restore the dataset (unlike
  // eviction, which only frees memory): the file record with this name,
  // or the gen recipe behind any member of its triple.
  bool changed = manifest_files_.erase(name) > 0;
  for (const char* suffix : {".train", ".target", ".truth"}) {
    std::string tail(suffix);
    if (name.size() > tail.size() &&
        name.compare(name.size() - tail.size(), tail.size(), tail) == 0) {
      changed |= gen_recipes_.erase(
                     name.substr(0, name.size() - tail.size())) > 0;
    }
  }
  if (changed) (void)WriteManifestLocked();
  return Status::Ok();
}

std::vector<std::string> DatasetCache::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

size_t DatasetCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

size_t DatasetCache::total_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_bytes_;
}

uint64_t DatasetCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

size_t DatasetCache::max_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_bytes_;
}

void DatasetCache::set_max_bytes(size_t max_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_bytes_ = max_bytes;
  EvictLocked(/*keep=*/"");
}

void DatasetCache::RecordFileLocked(const std::string& kind,
                                    const std::string& name,
                                    const std::string& path) {
  auto record = std::make_pair(kind, path);
  auto it = manifest_files_.find(name);
  if (it != manifest_files_.end() && it->second == record) return;
  manifest_files_[name] = std::move(record);
  // Best-effort: a manifest write failure must not fail the load that
  // triggered it — the dataset *is* resident; only its restorability
  // after a crash degrades.
  (void)WriteManifestLocked();
}

Status DatasetCache::WriteManifestLocked() {
  if (manifest_path_.empty()) return Status::Ok();
  // Temp file + rename(2): the manifest visible under its real name is
  // always a complete one — a crash mid-write leaves the previous
  // version, never a truncated file.
  std::string tmp = manifest_path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return Status::Unavailable("cannot write manifest temp file '" +
                                 tmp + "'");
    }
    out << "# marioh dataset manifest: how to restore each dataset\n";
    for (const auto& [name, record] : manifest_files_) {
      out << record.first << ' ' << name << ' ' << record.second << '\n';
    }
    for (const auto& [basename, recipe] : gen_recipes_) {
      out << "gen " << basename << ' ' << recipe.first << ' '
          << recipe.second << '\n';
    }
    out.flush();
    if (!out) {
      return Status::Unavailable("write to manifest temp file '" + tmp +
                                 "' failed");
    }
  }
  if (std::rename(tmp.c_str(), manifest_path_.c_str()) != 0) {
    return Status::Unavailable("cannot rename manifest '" + tmp +
                               "' into place");
  }
  return Status::Ok();
}

Status DatasetCache::EnableManifest(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  manifest_path_ = path;
  return WriteManifestLocked();
}

void DatasetCache::RecordGenerated(const std::string& basename,
                                   const std::string& profile,
                                   uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto recipe = std::make_pair(profile, seed);
  auto it = gen_recipes_.find(basename);
  if (it != gen_recipes_.end() && it->second == recipe) return;
  gen_recipes_[basename] = std::move(recipe);
  (void)WriteManifestLocked();
}

StatusOr<std::vector<DatasetCache::ManifestEntry>>
DatasetCache::ReadManifest(const std::string& path) {
  std::vector<ManifestEntry> entries;
  std::ifstream in(path);
  if (!in) return entries;  // no manifest yet: a fresh journal dir
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Grammar: `hypergraph <name> <path>` | `graph <name> <path>` |
    // `gen <basename> <profile> <seed>`; '#' starts a comment line.
    std::istringstream fields(line);
    std::string kind, name, a, b, trailing;
    fields >> kind >> name >> a >> b >> trailing;
    if (kind.empty() || kind[0] == '#') continue;
    if (kind == "gen") {
      std::optional<uint64_t> seed = util::ParseUint64(b);
      if (name.empty() || a.empty() || !seed.has_value() ||
          !trailing.empty()) {
        return Status::InvalidArgument(
            "manifest '" + path + "' line " +
            std::to_string(line_number) +
            ": expected 'gen <basename> <profile> <seed>', got '" + line +
            "'");
      }
      entries.push_back(ManifestEntry{kind, name, a, *seed});
    } else if (kind == "hypergraph" || kind == "graph") {
      if (name.empty() || a.empty() || !b.empty()) {
        return Status::InvalidArgument(
            "manifest '" + path + "' line " +
            std::to_string(line_number) + ": expected '" + kind +
            " <name> <path>', got '" + line + "'");
      }
      entries.push_back(ManifestEntry{kind, name, a, 0});
    } else {
      return Status::InvalidArgument(
          "manifest '" + path + "' line " + std::to_string(line_number) +
          ": unknown entry kind '" + kind + "'");
    }
  }
  return entries;
}

Status DatasetCache::RestoreFromManifest(const std::string& path,
                                         const GenResolver& gen) {
  StatusOr<std::vector<ManifestEntry>> manifest = ReadManifest(path);
  if (!manifest.ok()) return manifest.status();
  std::string errors;
  size_t failures = 0;
  for (const ManifestEntry& entry : *manifest) {
    Status restored;
    if (entry.kind == "hypergraph") {
      restored = LoadHypergraphFile(entry.name, entry.path).status();
    } else if (entry.kind == "graph") {
      restored = LoadProjectedGraphFile(entry.name, entry.path).status();
    } else if (gen != nullptr) {
      restored = gen(entry.name, entry.path, entry.seed);
    } else {
      restored = Status::FailedPrecondition(
          "no generator available to restore the triple");
    }
    if (!restored.ok()) {
      // Keep going: every restorable dataset should be back even if one
      // recipe broke — recovered jobs naming the broken one fail at
      // re-admission with a precise message, the rest proceed.
      ++failures;
      if (!errors.empty()) errors += "; ";
      errors += entry.kind + " " + entry.name + ": " + restored.message();
    }
  }
  if (failures > 0) {
    return Status::Unavailable(
        "manifest restore: " + std::to_string(failures) + " of " +
        std::to_string(manifest->size()) + " entries failed: " + errors);
  }
  return Status::Ok();
}

}  // namespace marioh::api
