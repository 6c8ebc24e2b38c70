// Tests for the method registry (api/registry.hpp): the paper rosters
// resolve, malformed or out-of-range overrides are rejected, and unknown
// names come back as a diagnosable Status naming the candidates — never
// an abort — and a trained method serves concurrent reconstructions.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "api/session.hpp"
#include "core/marioh.hpp"
#include "gen/profiles.hpp"
#include "gen/split.hpp"
#include "util/rng.hpp"

namespace marioh::api {
namespace {

TEST(Status, DefaultIsOkAndErrorsCarryCodeAndMessage) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = Status::NotFound("missing thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NOT_FOUND: missing thing");
}

TEST(Status, StatusOrHoldsValueOrError) {
  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  StatusOr<int> error = Status::InvalidArgument("nope");
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInvalidArgument);
}

TEST(Registry, EveryTable2NameResolvesWithMatchingMetadata) {
  std::vector<std::string> roster = Table2Roster();
  ASSERT_EQ(roster.size(), 12u);
  for (const std::string& name : roster) {
    StatusOr<std::unique_ptr<Reconstructor>> method =
        MethodRegistry::Global().Create(name, MethodConfig{});
    ASSERT_TRUE(method.ok()) << method.status().ToString();
    StatusOr<MethodInfo> info = MethodRegistry::Global().Info(name);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->name, name);
  }
}

TEST(Registry, Table3IsTheMultiplicityAwareSubsetInRowOrder) {
  std::vector<std::string> roster = Table3Roster();
  ASSERT_EQ(roster.size(), 6u);
  EXPECT_EQ(roster.front(), "Bayesian-MDL");
  EXPECT_EQ(roster.back(), "MARIOH");
  for (const std::string& name : roster) {
    StatusOr<MethodInfo> info = MethodRegistry::Global().Info(name);
    ASSERT_TRUE(info.ok()) << name;
    EXPECT_TRUE(info->multiplicity_aware) << name;
  }
}

TEST(Registry, Table2RowOrderMatchesThePaper) {
  std::vector<std::string> expected = {
      "CFinder",      "Demon",       "MaxClique",   "CliqueCovering",
      "Bayesian-MDL", "SHyRe-Unsup", "SHyRe-Motif", "SHyRe-Count",
      "MARIOH-M",     "MARIOH-F",    "MARIOH-B",    "MARIOH"};
  EXPECT_EQ(Table2Roster(), expected);
}

TEST(Registry, UnknownNameReturnsNotFoundNamingCandidates) {
  StatusOr<std::unique_ptr<Reconstructor>> method =
      MethodRegistry::Global().Create("NoSuchMethod", MethodConfig{});
  ASSERT_FALSE(method.ok());
  EXPECT_EQ(method.status().code(), StatusCode::kNotFound);
  EXPECT_NE(method.status().message().find("NoSuchMethod"),
            std::string::npos);
  // The message must name the candidates so a CLI user can self-correct.
  EXPECT_NE(method.status().message().find("known methods"),
            std::string::npos);
  EXPECT_NE(method.status().message().find("MARIOH"), std::string::npos);
  EXPECT_NE(method.status().message().find("CFinder"), std::string::npos);
}

TEST(Registry, MalformedRosterRowsFailACheck) {
  auto factory = [](const MethodConfig&)
      -> StatusOr<std::unique_ptr<Reconstructor>> {
    return Status::Internal("never constructed");
  };
  MethodEntry row;
  row.info.name = "Dup";
  row.factory = factory;
  EXPECT_DEATH(MethodRegistry({row, row}), "duplicate method name 'Dup'");
  MethodEntry unnamed = row;
  unnamed.info.name.clear();
  EXPECT_DEATH(MethodRegistry({unnamed}), "MARIOH_CHECK");
  MethodEntry no_factory = row;
  no_factory.factory = nullptr;
  EXPECT_DEATH(MethodRegistry({no_factory}), "MARIOH_CHECK");
}

TEST(Registry, FactoriesRejectUnknownAndMalformedOverrides) {
  MethodConfig config;
  config.overrides = {{"no_such_option", "1"}};
  StatusOr<std::unique_ptr<Reconstructor>> unknown_key =
      MethodRegistry::Global().Create("MARIOH", config);
  ASSERT_FALSE(unknown_key.ok());
  EXPECT_EQ(unknown_key.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown_key.status().message().find("no_such_option"),
            std::string::npos);

  config.overrides = {{"theta_init", "not_a_number"}};
  StatusOr<std::unique_ptr<Reconstructor>> bad_value =
      MethodRegistry::Global().Create("MARIOH", config);
  ASSERT_FALSE(bad_value.ok());
  EXPECT_EQ(bad_value.status().code(), StatusCode::kInvalidArgument);

  // Values the run cannot use: a non-finite theta never converges, a
  // non-positive alpha never lowers theta, and r is a percentage. Each is
  // rejected naming its key, whether it arrives as text or typed base.
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"theta_init", "nan"}, {"theta_init", "inf"}, {"alpha", "0"},
           {"alpha", "-0.05"}, {"r_percent", "101"}, {"r_percent", "-1"}}) {
    config.overrides = {{key, value}};
    StatusOr<std::unique_ptr<Reconstructor>> rejected =
        MethodRegistry::Global().Create("MARIOH", config);
    ASSERT_FALSE(rejected.ok()) << key << "=" << value;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.status().message().find(key), std::string::npos)
        << rejected.status().message();
  }
  core::MariohOptions typed;
  typed.alpha = 0.0;
  config.overrides.clear();
  config.marioh_base = &typed;
  EXPECT_EQ(MethodRegistry::Global().Create("MARIOH-B", config)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  config.marioh_base = nullptr;

  config.overrides = {{"theta_init", "0.8"}, {"r_percent", "10"}};
  EXPECT_TRUE(MethodRegistry::Global().Create("MARIOH", config).ok());

  config.overrides = {{"k", "4"}};
  EXPECT_TRUE(MethodRegistry::Global().Create("CFinder", config).ok());
  // CFinder's `k` is not a MaxClique option.
  StatusOr<std::unique_ptr<Reconstructor>> wrong_method =
      MethodRegistry::Global().Create("MaxClique", config);
  ASSERT_FALSE(wrong_method.ok());
  EXPECT_EQ(wrong_method.status().code(), StatusCode::kInvalidArgument);
}

TEST(Registry, NamesAreSortedAndContainTheFullRoster) {
  std::vector<std::string> names = MethodRegistry::Global().Names();
  ASSERT_GE(names.size(), 12u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : Table2Roster()) {
    EXPECT_TRUE(MethodRegistry::Global().Contains(name)) << name;
  }
}

/// A reconstruction's stats without the wall-clock `*_seconds` entries.
std::vector<std::pair<std::string, double>> Counters(
    const Reconstruction& r) {
  std::vector<std::pair<std::string, double>> counters;
  for (const auto& entry : r.stats) {
    if (!entry.first.ends_with("_seconds")) counters.push_back(entry);
  }
  return counters;
}

// A trained Reconstructor is an immutable value: threads sharing one
// instance each get exactly what a sequential call returns, stats
// included, because no call leaves state behind for another to read.
TEST(Reconstructor, TrainedMethodsReconstructConcurrently) {
  gen::GeneratedDataset data = gen::Generate(gen::ProfileByName("crime"), 7);
  util::Rng rng(8);
  gen::SourceTargetSplit split =
      gen::SplitHypergraph(data.hypergraph, &rng, 0.5);
  ProjectedGraph g_source = split.source.Project();
  ProjectedGraph g_target = split.target.Project();
  for (const MethodInfo& info : MethodRegistry::Global().Methods()) {
    std::unique_ptr<Reconstructor> trained = MustCreateMethod(info.name, 1);
    trained->Train(g_source, split.source);
    const Reconstructor& shared = *trained;
    const Reconstruction expected = shared.Reconstruct(g_target);
    if (info.name == "MARIOH") {
      EXPECT_FALSE(Counters(expected).empty());
    }

    std::vector<Reconstruction> results(4);
    std::vector<std::thread> threads;
    for (Reconstruction& result : results) {
      threads.emplace_back([&shared, &g_target, &result] {
        result = shared.Reconstruct(g_target);
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const Reconstruction& result : results) {
      EXPECT_EQ(result.hypergraph.edges(), expected.hypergraph.edges())
          << info.name;
      EXPECT_EQ(Counters(result), Counters(expected)) << info.name;
    }
  }
}

}  // namespace
}  // namespace marioh::api
