// Unit tests for src/util: RNG determinism, aggregation, running stats,
// KS statistic, normalized difference, hashing, table rendering, timers.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/hash.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace marioh::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(11);
  std::set<size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformIndex(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> sample = rng.SampleWithoutReplacement(items, 4);
    std::set<int> distinct(sample.begin(), sample.end());
    EXPECT_EQ(distinct.size(), 4u);
    for (int x : sample) {
      EXPECT_TRUE(std::find(items.begin(), items.end(), x) != items.end());
    }
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(9);
  std::vector<int> items{1, 2, 3};
  std::vector<int> sample = rng.SampleWithoutReplacement(items, 3);
  std::set<int> distinct(sample.begin(), sample.end());
  EXPECT_EQ(distinct, (std::set<int>{1, 2, 3}));
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(13);
  std::vector<int> items{1, 2, 2, 3, 5, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(items.begin(), items.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, DiscreteRespectsZeroWeights) {
  Rng rng(17);
  std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.Discrete(weights), 1u);
  }
}

TEST(Aggregate5Into, EmptyGivesZeros) {
  double agg[5] = {1, 1, 1, 1, 1};
  Aggregate5Into({}, agg);
  for (double v : agg) EXPECT_EQ(v, 0.0);
}

TEST(Aggregate5Into, SingleValue) {
  const std::vector<double> values{4.0};
  double agg[5];
  Aggregate5Into(values, agg);
  EXPECT_DOUBLE_EQ(agg[0], 4.0);  // sum
  EXPECT_DOUBLE_EQ(agg[1], 4.0);  // mean
  EXPECT_DOUBLE_EQ(agg[2], 4.0);  // min
  EXPECT_DOUBLE_EQ(agg[3], 4.0);  // max
  EXPECT_DOUBLE_EQ(agg[4], 0.0);  // std
}

TEST(Aggregate5Into, KnownValues) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  double agg[5];
  Aggregate5Into(values, agg);
  EXPECT_DOUBLE_EQ(agg[0], 10.0);
  EXPECT_DOUBLE_EQ(agg[1], 2.5);
  EXPECT_DOUBLE_EQ(agg[2], 1.0);
  EXPECT_DOUBLE_EQ(agg[3], 4.0);
  EXPECT_NEAR(agg[4], std::sqrt(1.25), 1e-12);
}

TEST(RunningStats, MeanAndStd) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_NEAR(stats.Std(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Std(), 0.0);
  stats.Add(3.0);
  EXPECT_DOUBLE_EQ(stats.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.Std(), 0.0);
}

TEST(KsStatistic, IdenticalSamplesGiveZero) {
  std::vector<double> a{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(KsStatistic(a, a), 0.0);
}

TEST(KsStatistic, DisjointSamplesGiveOne) {
  EXPECT_DOUBLE_EQ(KsStatistic({1, 2, 3}, {10, 11, 12}), 1.0);
}

TEST(KsStatistic, EmptyHandling) {
  EXPECT_DOUBLE_EQ(KsStatistic({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(KsStatistic({1.0}, {}), 1.0);
}

TEST(KsStatistic, HalfShiftedSample) {
  // {1,2} vs {2,3}: max CDF gap is 0.5.
  EXPECT_NEAR(KsStatistic({1, 2}, {2, 3}), 0.5, 1e-12);
}

TEST(NormalizedDifference, Basics) {
  EXPECT_DOUBLE_EQ(NormalizedDifference(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedDifference(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedDifference(5, 10), 0.5);
  EXPECT_DOUBLE_EQ(NormalizedDifference(10, 5), 0.5);
  EXPECT_DOUBLE_EQ(NormalizedDifference(0, 4), 1.0);
}

TEST(VectorHash, EqualVectorsEqualHashes) {
  VectorHash h;
  std::vector<uint32_t> a{1, 2, 3};
  std::vector<uint32_t> b{1, 2, 3};
  EXPECT_EQ(h(a), h(b));
}

TEST(VectorHash, OrderSensitive) {
  VectorHash h;
  EXPECT_NE(h({1, 2, 3}), h({3, 2, 1}));
}

TEST(PairHash, Distinguishes) {
  PairHash h;
  EXPECT_NE(h({1, 2}), h({2, 1}));
  EXPECT_EQ(h({1, 2}), h({1, 2}));
}

TEST(TextTable, RendersHeaderAndRows) {
  TextTable table("Demo");
  table.SetHeader({"a", "bb"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  std::string out = table.Render();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
}

TEST(TextTable, Formatting) {
  EXPECT_EQ(TextTable::MeanStd(1.234, 0.567), "1.23±0.57");
  EXPECT_EQ(TextTable::Num(3.14159, 3), "3.142");
}

TEST(StageTimer, AccumulatesStages) {
  StageTimer timer;
  timer.Add("a", 1.5);
  timer.Add("a", 0.5);
  timer.Add("b", 1.0);
  EXPECT_DOUBLE_EQ(timer.Get("a"), 2.0);
  EXPECT_DOUBLE_EQ(timer.Get("b"), 1.0);
  EXPECT_DOUBLE_EQ(timer.Get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(timer.Total(), 3.0);
  timer.Clear();
  EXPECT_DOUBLE_EQ(timer.Total(), 0.0);
}

TEST(ParseDouble, AcceptsFiniteNumbersOnly) {
  EXPECT_EQ(ParseDouble("1.5"), 1.5);
  EXPECT_EQ(ParseDouble("-2e3"), -2000.0);
  EXPECT_EQ(ParseDouble("1e300"), 1e300);
  for (const char* token : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                            "-infinity", "1e400", "", " 1", "\t1", "1 ",
                            "1x"}) {
    EXPECT_FALSE(ParseDouble(token).has_value()) << "'" << token << "'";
  }
}

}  // namespace
}  // namespace marioh::util
