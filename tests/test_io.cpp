// Tests for text serialization: round trips, format tolerance (comments,
// blank lines, multiplicity suffixes), error handling on malformed and
// out-of-range input, and a seeded mutation test of both readers.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "io/text_io.hpp"
#include "util/rng.hpp"

namespace marioh::io {
namespace {

using api::StatusCode;
using api::StatusOr;

StatusOr<Hypergraph> ParseHypergraph(const std::string& text) {
  std::istringstream in(text);
  return TryReadHypergraph(in);
}

StatusOr<ProjectedGraph> ParseGraph(const std::string& text) {
  std::istringstream in(text);
  return TryReadProjectedGraph(in);
}

/// Expects `status` to be kInvalidArgument naming `line`.
void ExpectBadLine(const api::Status& status, const std::string& line) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_NE(status.message().find(line), std::string::npos)
      << status.ToString();
}

TEST(HypergraphIo, RoundTrip) {
  Hypergraph h;
  h.AddEdge({0, 1, 2}, 1);
  h.AddEdge({1, 3}, 4);
  h.AddEdge({2, 4, 5, 6}, 2);
  std::stringstream buffer;
  WriteHypergraph(h, buffer);
  StatusOr<Hypergraph> parsed = TryReadHypergraph(buffer);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_unique_edges(), h.num_unique_edges());
  EXPECT_EQ(parsed->num_total_edges(), h.num_total_edges());
  EXPECT_EQ(parsed->Multiplicity({1, 3}), 4u);
  EXPECT_EQ(parsed->Multiplicity({0, 1, 2}), 1u);
}

TEST(HypergraphIo, ParsesCommentsAndBlankLines) {
  StatusOr<Hypergraph> h = ParseHypergraph(
      "# a co-authorship dump\n"
      "\n"
      "0 1 2\n"
      "   \n"
      "3 4 x 5\n");
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->num_unique_edges(), 2u);
  EXPECT_EQ(h->Multiplicity({3, 4}), 5u);
}

TEST(HypergraphIo, SkipsDegenerateEdges) {
  StatusOr<Hypergraph> h = ParseHypergraph("7\n5 5\n0 1\n");
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->num_unique_edges(), 1u);
  EXPECT_TRUE(h->Contains({0, 1}));
}

TEST(HypergraphIo, RejectsBadTokens) {
  ExpectBadLine(ParseHypergraph("0 banana\n").status(), "line 1");
}

TEST(HypergraphIo, MissingFileIsNotFound) {
  EXPECT_EQ(TryReadHypergraphFile("/nonexistent/path/h.txt").status().code(),
            StatusCode::kNotFound);
}

// Node id 4294967295 would make the node count `id + 1` wrap to 0, and
// Project() would abort on its first pair.
TEST(HypergraphIo, RejectsTheNodeIdWhoseCountWrapsNodeId) {
  ExpectBadLine(ParseHypergraph("0 1\n4294967295 1\n").status(), "line 2");
}

// Narrowed to 32 bits, 2^32 would load as node 0, giving {0, 1, 2}.
TEST(HypergraphIo, RejectsNodeIdsBeyondNodeIdRange) {
  ExpectBadLine(ParseHypergraph("4294967296 1 2\n").status(), "line 1");
}

// Narrowed to 32 bits, 2^32 + 1 would load as multiplicity 1.
TEST(HypergraphIo, RejectsMultiplicitiesBeyondUint32) {
  ExpectBadLine(ParseHypergraph("1 2 x 4294967297\n").status(), "line 1");
  ExpectBadLine(ParseHypergraph("1 2 x -1\n").status(), "line 1");
}

TEST(HypergraphIo, AcceptsTheLargestIdAndMultiplicity) {
  // Disjoint hyperedges: a node in both would reach weighted degree 2^32,
  // which the reader rejects (RejectsWeightedDegreesThatOverflow...).
  StatusOr<Hypergraph> h =
      ParseHypergraph("4294967294 1\n2 3 x 4294967295\n");
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->num_nodes(), 4294967295u);
  EXPECT_EQ(h->Multiplicity({2, 3}), 4294967295u);
}

// Repeated hyperedges sum their multiplicities; summed in 32 bits,
// 4294967295 + 1 would load as multiplicity 0.
TEST(HypergraphIo, RejectsMultiplicitiesThatOverflowWhenSummed) {
  api::Status status =
      ParseHypergraph("1 2 x 4294967295\n3 4\n2 1\n").status();
  ExpectBadLine(status, "line 3");
  EXPECT_NE(status.message().find("multiplicity of this hyperedge exceeds "
                                  "4294967295 after summing repeated lines"),
            std::string::npos)
      << status.ToString();
  StatusOr<Hypergraph> h =
      ParseHypergraph("1 2 x 4294967294\n2 1 2\n");
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->Multiplicity({1, 2}), 4294967295u);
}

// Pair weights of Project() sum multiplicities across *distinct*
// hyperedges: {0,1} x 4294967295 plus {0,1,2} x 1 would project w(0,1)
// as a wrapped 0 counted as an edge. The reader bounds each node's
// weighted degree instead, which bounds every pair weight.
TEST(HypergraphIo, RejectsWeightedDegreesThatOverflowWhenProjected) {
  api::Status status =
      ParseHypergraph("0 1 x 4294967295\n0 1 2 x 1\n").status();
  ExpectBadLine(status, "line 2");
  EXPECT_NE(status.message().find(
                "weighted degree of node 0 exceeds 4294967295"),
            std::string::npos)
      << status.ToString();
  StatusOr<Hypergraph> h = ParseHypergraph("0 1 x 4294967294\n0 2 x 1\n");
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  ProjectedGraph g = h->Project();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Weight(0, 1), 4294967294u);
  EXPECT_EQ(g.Weight(0, 2), 1u);
}

TEST(ProjectedGraphIo, RoundTrip) {
  ProjectedGraph g(5);
  g.AddWeight(0, 1, 3);
  g.AddWeight(1, 4, 1);
  g.AddWeight(2, 3, 7);
  std::stringstream buffer;
  WriteProjectedGraph(g, buffer);
  StatusOr<ProjectedGraph> parsed = TryReadProjectedGraph(buffer);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_edges(), 3u);
  EXPECT_EQ(parsed->Weight(0, 1), 3u);
  EXPECT_EQ(parsed->Weight(2, 3), 7u);
  EXPECT_EQ(parsed->Weight(1, 4), 1u);
}

TEST(ProjectedGraphIo, DefaultWeightIsOne) {
  StatusOr<ProjectedGraph> g = ParseGraph("0 1\n2 3 9\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->Weight(0, 1), 1u);
  EXPECT_EQ(g->Weight(2, 3), 9u);
}

TEST(ProjectedGraphIo, RejectsSelfLoops) {
  ExpectBadLine(ParseGraph("3 3 1\n").status(), "line 1");
}

TEST(ProjectedGraphIo, RejectsWrongArity) {
  ExpectBadLine(ParseGraph("1\n").status(), "line 1");
  ExpectBadLine(ParseGraph("1 2 3 4\n").status(), "line 1");
}

TEST(ProjectedGraphIo, EmptyInputGivesEmptyGraph) {
  StatusOr<ProjectedGraph> g = ParseGraph("# nothing\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_nodes(), 0u);
  EXPECT_TRUE(g->Empty());
}

// Node id 4294967295 would make the node count wrap to 0, and AddWeight
// would abort on `u < adj_.size()`.
TEST(ProjectedGraphIo, RejectsTheNodeIdWhoseCountWrapsNodeId) {
  ExpectBadLine(ParseGraph("0 1\n4294967295 1 1\n").status(), "line 2");
}

// A negative weight must not wrap to 4294967295.
TEST(ProjectedGraphIo, RejectsNegativeAndOversizedWeights) {
  ExpectBadLine(ParseGraph("0 1 -1\n").status(), "line 1");
  ExpectBadLine(ParseGraph("0 1 4294967296\n").status(), "line 1");
  StatusOr<ProjectedGraph> g = ParseGraph("0 1 4294967295\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->Weight(0, 1), 4294967295u);
}

// Repeated lines for one pair sum their weights; summed in 32 bits,
// `0 1 4294967295` then `0 1 1` would load as weight 0.
TEST(ProjectedGraphIo, RejectsWeightsThatOverflowWhenSummed) {
  api::Status status =
      ParseGraph("0 1 4294967295\n2 3\n1 0 1\n").status();
  ExpectBadLine(status, "line 3");
  EXPECT_NE(status.message().find("weight of pair (0, 1) exceeds "
                                  "4294967295 after summing repeated lines"),
            std::string::npos)
      << status.ToString();
  StatusOr<ProjectedGraph> g = ParseGraph("0 1 4294967294\n1 0\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->Weight(0, 1), 4294967295u);
  EXPECT_EQ(g->num_edges(), 1u);
}

// Dense per-node arrays are sized by the largest node id, so one huge id
// in a two-line file would allocate gigabytes: the reader refuses it
// before building the graph, naming the id.
TEST(ProjectedGraphIo, RejectsSparseHugeNodeIds) {
  api::Status status = ParseGraph("0 1 1\n4000000000 1 1\n").status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("node id 4000000000"), std::string::npos)
      << status.ToString();
}

// The density rule: a node count up to max(2^20, 16 × the node-id
// occurrences) passes, one more fails.
TEST(Io, NodeIdDensityLimitIsTheLargerOfTheFloorAndSixteenPerId) {
  constexpr size_t kFloor = size_t{1} << 20;
  EXPECT_TRUE(CheckNodeIdsAreDense(kFloor, 2).ok());
  EXPECT_EQ(CheckNodeIdsAreDense(kFloor + 1, 2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(CheckNodeIdsAreDense(16 * 100000, 100000).ok());
  api::Status sparse = CheckNodeIdsAreDense(16 * 100000 + 1, 100000);
  EXPECT_EQ(sparse.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sparse.message().find("node id 1600000"), std::string::npos)
      << sparse.ToString();
  EXPECT_TRUE(CheckNodeIdsAreDense(0, 0).ok());
}

TEST(Io, FileRoundTripThroughTempFile) {
  Hypergraph h;
  h.AddEdge({10, 20, 30}, 2);
  std::string path = testing::TempDir() + "/marioh_io_test.txt";
  ASSERT_TRUE(TryWriteHypergraphFile(h, path).ok());
  StatusOr<Hypergraph> parsed = TryReadHypergraphFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Multiplicity({10, 20, 30}), 2u);
}

TEST(Io, HypergraphProjectionSurvivesSerialization) {
  // Project(parse(write(h))) == Project(h).
  Hypergraph h;
  h.AddEdge({0, 1, 2}, 3);
  h.AddEdge({2, 3}, 1);
  std::stringstream buffer;
  WriteHypergraph(h, buffer);
  StatusOr<Hypergraph> parsed = TryReadHypergraph(buffer);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto a = h.Project().Edges();
  auto b = parsed->Project().Edges();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].weight, b[i].weight);
  }
}

/// Every truncation of `text`, and at every offset all eight single-bit
/// flips plus seeded random bytes, go through `check`.
template <typename Check>
void ForEachMutant(const std::string& text, uint64_t seed, Check check) {
  for (size_t length = 0; length <= text.size(); ++length) {
    check(text.substr(0, length));
  }
  util::Rng rng(seed);
  for (size_t offset = 0; offset < text.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = text;
      mutant[offset] = static_cast<char>(mutant[offset] ^ (1 << bit));
      check(mutant);
    }
    for (int draw = 0; draw < 4; ++draw) {
      std::string mutant = text;
      mutant[offset] = static_cast<char>(rng.UniformInt(0, 255));
      check(mutant);
    }
  }
}

// Seeded mutation tests of both readers: no mutant may crash (the suite
// runs under ASan+UBSan), every one must come back OK or
// kInvalidArgument, and an accepted hypergraph must project.
TEST(HypergraphIo, MutatedFilesNeverCrashAndAcceptedOnesProject) {
  const std::string text = "# sample\n0 1 2\n1 3 x 4\n\n2 4 5 6 x 2\n";
  size_t accepted = 0;
  ForEachMutant(text, 20261017, [&accepted](const std::string& mutant) {
    StatusOr<Hypergraph> h = ParseHypergraph(mutant);
    if (!h.ok()) {
      EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument)
          << "mutant '" << mutant << "': " << h.status().ToString();
      return;
    }
    ++accepted;
    ProjectedGraph g = h->Project();
    EXPECT_EQ(g.num_nodes(), h->num_nodes()) << "mutant '" << mutant << "'";
  });
  // Not vacuous: most mutants still parse.
  EXPECT_GT(accepted, text.size());
}

TEST(ProjectedGraphIo, MutatedFilesNeverCrashAndAcceptedOnesAreSane) {
  const std::string text = "# sample\n0 1 3\n1 4\n\n2 3 7\n";
  size_t accepted = 0;
  ForEachMutant(text, 20261018, [&accepted](const std::string& mutant) {
    StatusOr<ProjectedGraph> g = ParseGraph(mutant);
    if (!g.ok()) {
      EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument)
          << "mutant '" << mutant << "': " << g.status().ToString();
      return;
    }
    ++accepted;
    for (const ProjectedGraph::Edge& e : g->Edges()) {
      EXPECT_LT(e.u, e.v) << "mutant '" << mutant << "'";
      EXPECT_LT(e.v, g->num_nodes()) << "mutant '" << mutant << "'";
      EXPECT_GT(e.weight, 0u) << "mutant '" << mutant << "'";
    }
  });
  EXPECT_GT(accepted, text.size());
}

}  // namespace
}  // namespace marioh::io
