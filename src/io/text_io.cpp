#include "io/text_io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/failpoint.hpp"
#include "util/parse.hpp"

namespace marioh::io {
namespace {

using api::Status;
using api::StatusOr;

/// Fault surface: a transient file-system failure at the named
/// failpoint ("io.read_hypergraph" / "io.read_graph"). kUnavailable so
/// the service retry policy treats it as retryable, unlike the
/// permanent kNotFound / kInvalidArgument the real read paths return.
Status InjectedReadFailure(const std::string& point,
                           const std::string& path) {
  return Status::Unavailable("failpoint '" + point +
                             "': injected transient read failure for " +
                             path);
}

bool IsCommentOrBlank(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

Status BadLine(size_t line_number, const std::string& what) {
  return Status::InvalidArgument("line " + std::to_string(line_number) +
                                 ": " + what);
}

/// Node ids stop one short of NodeId's range, so `id + 1` (a node
/// count) still fits a NodeId; weights and multiplicities may use all of
/// uint32_t.
constexpr uint64_t kMaxNodeId = std::numeric_limits<NodeId>::max() - 1u;
constexpr uint64_t kMaxCount = std::numeric_limits<uint32_t>::max();

/// Parses an unsigned decimal `token` no greater than `max`; `what` names
/// the field in the error.
StatusOr<uint32_t> ParseBounded(const std::string& token, uint64_t max,
                                const char* what, size_t line_number) {
  std::optional<uint64_t> value = util::ParseUint64(token);
  if (!value.has_value()) {
    return BadLine(line_number, "bad token '" + token + "'");
  }
  if (*value > max) {
    return BadLine(line_number, std::string(what) + " '" + token +
                                    "' exceeds " + std::to_string(max));
  }
  return static_cast<uint32_t>(*value);
}

}  // namespace

StatusOr<Hypergraph> TryReadHypergraph(std::istream& in) {
  Hypergraph h;
  // Weighted node degrees bound every pair weight of Project(), since
  // w(u, v) <= deg(u); hashed, so a huge sparse node id costs nothing.
  std::unordered_map<NodeId, uint64_t> degree;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream tokens(line);
    std::vector<std::string> parts;
    std::string token;
    while (tokens >> token) parts.push_back(token);
    uint32_t multiplicity = 1;
    // Optional trailing "x m".
    if (parts.size() >= 2 && parts[parts.size() - 2] == "x") {
      StatusOr<uint32_t> m = ParseBounded(parts.back(), kMaxCount,
                                          "multiplicity", line_number);
      if (!m.ok()) return m.status();
      multiplicity = *m;
      parts.resize(parts.size() - 2);
    }
    NodeSet edge;
    edge.reserve(parts.size());
    for (const std::string& p : parts) {
      StatusOr<uint32_t> id =
          ParseBounded(p, kMaxNodeId, "node id", line_number);
      if (!id.ok()) return id.status();
      edge.push_back(*id);
    }
    Canonicalize(&edge);
    if (h.Multiplicity(edge) > kMaxCount - multiplicity) {
      return BadLine(line_number, "multiplicity of this hyperedge exceeds " +
                                      std::to_string(kMaxCount) +
                                      " after summing repeated lines");
    }
    for (NodeId u : edge) {
      if ((degree[u] += multiplicity) > kMaxCount) {
        return BadLine(line_number, "weighted degree of node " +
                                        std::to_string(u) + " exceeds " +
                                        std::to_string(kMaxCount));
      }
    }
    h.AddEdge(std::move(edge), multiplicity);
  }
  return h;
}

StatusOr<Hypergraph> TryReadHypergraphFile(const std::string& path) {
  if (util::FailPoints::active() &&
      util::FailPoints::Eval("io.read_hypergraph") ==
          util::FailAction::kError) {
    return InjectedReadFailure("io.read_hypergraph", path);
  }
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open hypergraph file: " + path);
  }
  return TryReadHypergraph(in);
}

void WriteHypergraph(const Hypergraph& h, std::ostream& out) {
  out << "# marioh hypergraph: " << h.num_nodes() << " nodes, "
      << h.num_unique_edges() << " unique hyperedges\n";
  for (const NodeSet& e : h.UniqueEdges()) {
    for (size_t i = 0; i < e.size(); ++i) {
      out << e[i] << (i + 1 < e.size() ? " " : "");
    }
    uint32_t m = h.Multiplicity(e);
    if (m > 1) out << " x " << m;
    out << "\n";
  }
}

api::Status TryWriteHypergraphFile(const Hypergraph& h,
                                   const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    // Not kNotFound: the path is caller-supplied output, so an unopenable
    // target (missing directory, no permission) is a bad argument.
    return Status::InvalidArgument("cannot open file for writing: " + path);
  }
  WriteHypergraph(h, out);
  return Status::Ok();
}

Status CheckNodeIdsAreDense(size_t num_nodes, size_t id_occurrences) {
  constexpr size_t kMinLimit = size_t{1} << 20;
  const size_t limit = std::max(kMinLimit, 16 * id_occurrences);
  if (num_nodes <= limit) return Status::Ok();
  return Status::InvalidArgument(
      "node id " + std::to_string(num_nodes - 1) + " is too sparse: " +
      std::to_string(num_nodes) + " dense node slots for " +
      std::to_string(id_occurrences) + " node-id occurrences (limit " +
      std::to_string(limit) + ")");
}

Status CheckNodeIdsAreDense(const Hypergraph& h) {
  size_t id_occurrences = 0;
  for (const auto& [edge, multiplicity] : h.edges()) {
    id_occurrences += edge.size();
  }
  return CheckNodeIdsAreDense(h.num_nodes(), id_occurrences);
}

StatusOr<ProjectedGraph> TryReadProjectedGraph(std::istream& in) {
  std::string line;
  size_t line_number = 0;
  struct Row {
    NodeId u;
    NodeId v;
    uint32_t w;
    size_t line_number;
  };
  std::vector<Row> rows;
  NodeId max_node = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream tokens(line);
    std::vector<std::string> parts;
    std::string token;
    while (tokens >> token) parts.push_back(token);
    if (parts.size() < 2 || parts.size() > 3) {
      return BadLine(line_number, "expected 'u v [w]'");
    }
    StatusOr<uint32_t> u =
        ParseBounded(parts[0], kMaxNodeId, "node id", line_number);
    if (!u.ok()) return u.status();
    StatusOr<uint32_t> v =
        ParseBounded(parts[1], kMaxNodeId, "node id", line_number);
    if (!v.ok()) return v.status();
    Row row{*u, *v, 1, line_number};
    if (parts.size() == 3) {
      StatusOr<uint32_t> w =
          ParseBounded(parts[2], kMaxCount, "weight", line_number);
      if (!w.ok()) return w.status();
      row.w = *w;
    }
    if (row.u == row.v) return BadLine(line_number, "self loop");
    max_node = std::max({max_node, row.u, row.v});
    rows.push_back(row);
  }
  const size_t num_nodes = rows.empty() ? 0 : size_t{max_node} + 1;
  MARIOH_RETURN_IF_ERROR(CheckNodeIdsAreDense(num_nodes, 2 * rows.size()));
  ProjectedGraph g(num_nodes);
  for (const Row& row : rows) {
    if (g.Weight(row.u, row.v) > kMaxCount - row.w) {
      NodePair pair = MakePair(row.u, row.v);
      return BadLine(row.line_number,
                     "weight of pair (" + std::to_string(pair.first) + ", " +
                         std::to_string(pair.second) + ") exceeds " +
                         std::to_string(kMaxCount) +
                         " after summing repeated lines");
    }
    g.AddWeight(row.u, row.v, row.w);
  }
  return g;
}

StatusOr<ProjectedGraph> TryReadProjectedGraphFile(const std::string& path) {
  if (util::FailPoints::active() &&
      util::FailPoints::Eval("io.read_graph") == util::FailAction::kError) {
    return InjectedReadFailure("io.read_graph", path);
  }
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open graph file: " + path);
  }
  return TryReadProjectedGraph(in);
}

void WriteProjectedGraph(const ProjectedGraph& g, std::ostream& out) {
  out << "# marioh projected graph: " << g.num_nodes() << " nodes, "
      << g.num_edges() << " edges\n";
  for (const ProjectedGraph::Edge& e : g.Edges()) {
    out << e.u << " " << e.v << " " << e.weight << "\n";
  }
}

api::Status TryWriteProjectedGraphFile(const ProjectedGraph& g,
                                       const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    // Not kNotFound: the path is caller-supplied output, so an unopenable
    // target (missing directory, no permission) is a bad argument.
    return Status::InvalidArgument("cannot open file for writing: " + path);
  }
  WriteProjectedGraph(g, out);
  return Status::Ok();
}

}  // namespace marioh::io
