// Unit tests for the ML substrate: standard scaler, MLP training on
// separable problems (sigmoid and softmax heads), and the GCN.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "hypergraph/projected_graph.hpp"
#include "ml/gcn.hpp"
#include "ml/mlp.hpp"
#include "ml/scaler.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace marioh::ml {
namespace {

TEST(StandardScaler, CentersAndScales) {
  la::Matrix x(4, 2);
  x(0, 0) = 1; x(1, 0) = 3; x(2, 0) = 5; x(3, 0) = 7;   // mean 4
  x(0, 1) = 10; x(1, 1) = 10; x(2, 1) = 10; x(3, 1) = 10;  // constant
  StandardScaler scaler;
  scaler.Fit(x);
  EXPECT_DOUBLE_EQ(scaler.mean()[0], 4.0);
  la::Matrix t = x;
  scaler.Transform(&t);
  double col_mean = (t(0, 0) + t(1, 0) + t(2, 0) + t(3, 0)) / 4.0;
  EXPECT_NEAR(col_mean, 0.0, 1e-12);
  // Constant dimension: centered but not divided by ~0.
  EXPECT_NEAR(t(0, 1), 0.0, 1e-12);
}

TEST(StandardScaler, TransformSingleVector) {
  la::Matrix x(2, 1);
  x(0, 0) = 0;
  x(1, 0) = 2;
  StandardScaler scaler;
  scaler.Fit(x);
  la::Vector v{2.0};
  scaler.Transform(&v);
  EXPECT_NEAR(v[0], 1.0, 1e-12);  // (2 - 1) / 1
}

TEST(Mlp, LearnsLinearlySeparable2D) {
  // y = 1 iff x0 + x1 > 0.
  util::Rng rng(1);
  const size_t n = 400;
  la::Matrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y[i] = (x(i, 0) + x(i, 1) > 0) ? 1.0 : 0.0;
  }
  MlpOptions options;
  options.hidden = {16};
  options.epochs = 120;
  options.learning_rate = 3e-3;
  options.seed = 2;
  Mlp mlp(2, 1, options);
  double loss = mlp.Fit(x, y);
  EXPECT_LT(loss, 0.15);
  size_t correct = 0;
  for (size_t i = 0; i < n; ++i) {
    double p = mlp.Predict({x(i, 0), x(i, 1)});
    if ((p > 0.5) == (y[i] > 0.5)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / n, 0.95);
}

TEST(Mlp, LearnsXorWithHiddenLayer) {
  la::Matrix x(4, 2);
  x(0, 0) = 0; x(0, 1) = 0;
  x(1, 0) = 0; x(1, 1) = 1;
  x(2, 0) = 1; x(2, 1) = 0;
  x(3, 0) = 1; x(3, 1) = 1;
  std::vector<double> y{0, 1, 1, 0};
  MlpOptions options;
  options.hidden = {16};
  options.epochs = 800;
  options.batch_size = 4;
  options.learning_rate = 5e-3;
  options.seed = 3;
  Mlp mlp(2, 1, options);
  mlp.Fit(x, y);
  EXPECT_LT(mlp.Predict({0, 0}), 0.5);
  EXPECT_GT(mlp.Predict({0, 1}), 0.5);
  EXPECT_GT(mlp.Predict({1, 0}), 0.5);
  EXPECT_LT(mlp.Predict({1, 1}), 0.5);
}

TEST(Mlp, SoftmaxLearnsThreeClasses) {
  // Three well-separated blobs.
  util::Rng rng(4);
  const size_t per = 60;
  la::Matrix x(3 * per, 2);
  std::vector<double> y(3 * per);
  const double centers[3][2] = {{0, 0}, {5, 5}, {-5, 5}};
  for (size_t c = 0; c < 3; ++c) {
    for (size_t i = 0; i < per; ++i) {
      size_t row = c * per + i;
      x(row, 0) = centers[c][0] + rng.Normal(0, 0.5);
      x(row, 1) = centers[c][1] + rng.Normal(0, 0.5);
      y[row] = static_cast<double>(c);
    }
  }
  MlpOptions options;
  options.hidden = {16};
  options.head = Head::kSoftmax;
  options.epochs = 150;
  options.learning_rate = 5e-3;
  options.seed = 5;
  Mlp mlp(2, 3, options);
  mlp.Fit(x, y);
  std::vector<uint32_t> pred = mlp.PredictClasses(x);
  size_t correct = 0;
  for (size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == static_cast<uint32_t>(y[i])) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / pred.size(), 0.98);
}

TEST(Mlp, PredictProbaSumsToOne) {
  MlpOptions options;
  options.head = Head::kSoftmax;
  options.seed = 6;
  Mlp mlp(3, 4, options);
  la::Vector probs = mlp.PredictProba({0.1, -0.2, 0.3});
  double sum = 0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Mlp, DeterministicGivenSeed) {
  util::Rng rng(8);
  la::Matrix x(50, 3);
  std::vector<double> y(50);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.Normal();
    y[i] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  }
  MlpOptions options;
  options.epochs = 10;
  options.seed = 99;
  Mlp a(3, 1, options);
  Mlp b(3, 1, options);
  a.Fit(x, y);
  b.Fit(x, y);
  for (int t = 0; t < 5; ++t) {
    la::Vector probe{0.1 * t, -0.2 * t, 0.05};
    EXPECT_DOUBLE_EQ(a.Predict(probe), b.Predict(probe));
  }
}

TEST(Mlp, OutputsAreProbabilities) {
  MlpOptions options;
  options.seed = 12;
  Mlp mlp(2, 1, options);
  for (double v : {-100.0, -1.0, 0.0, 1.0, 100.0}) {
    double p = mlp.Predict({v, -v});
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// Golden outputs. The hex-float constants below were captured from the
// per-sample implementation (one example forwarded and backpropagated at a
// time) that the batched GEMM trainer replaced; the batched code must
// reproduce them bit for bit. The shapes cover both heads, a ragged final
// batch (n % batch_size != 0) and the no-hidden-layer network.

struct GoldenProblem {
  la::Matrix x;
  std::vector<double> y;
};

GoldenProblem MakeGoldenProblem(size_t n, size_t dim, size_t classes,
                                uint64_t seed) {
  util::Rng rng(seed);
  GoldenProblem p{la::Matrix(n, dim), std::vector<double>(n)};
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      p.x(i, j) = rng.Normal();
      s += p.x(i, j) * static_cast<double>(j + 1);
    }
    if (classes == 1) {
      p.y[i] = s > 0.0 ? 1.0 : 0.0;
    } else {
      p.y[i] = static_cast<double>(rng.UniformIndex(classes));
      if (s > 1.0) p.y[i] = 0.0;
    }
  }
  return p;
}

la::Vector GoldenRow(const la::Matrix& x, size_t r) {
  return la::Vector(x.Row(r), x.Row(r) + x.cols());
}

struct SigmoidGolden {
  std::vector<size_t> hidden;
  size_t n, dim, batch;
  int epochs;
  uint64_t seed;
  double loss;
  double predict[3];  // rows 0, 7, n - 1
};

TEST(MlpGolden, SigmoidHeadIsBitIdenticalToPerSampleTraining) {
  const SigmoidGolden cases[] = {
      {{16, 8}, 150, 7, 64, 7, 11, 0x1.30317d90f15fbp-1,
       {0x1.76fc00c14408bp-1, 0x1.bb9510527412dp-1, 0x1.41c98ffb7f9fap-1}},
      {{}, 70, 4, 32, 4, 21, 0x1.da6f1e21af282p-1,
       {0x1.53ebf13ef0fa7p-2, 0x1.4205734c6c567p-1, 0x1.a1ce505b67fbbp-3}},
  };
  for (const SigmoidGolden& c : cases) {
    SCOPED_TRACE(testing::Message() << "hidden layers " << c.hidden.size());
    GoldenProblem p = MakeGoldenProblem(c.n, c.dim, 1, c.seed);
    MlpOptions options;
    options.hidden = c.hidden;
    options.epochs = c.epochs;
    options.batch_size = c.batch;
    options.seed = c.seed + 1;
    Mlp mlp(c.dim, 1, options);
    EXPECT_EQ(mlp.Fit(p.x, p.y), c.loss);
    la::Vector batch = mlp.PredictBatch(p.x);
    const size_t rows[3] = {0, 7, c.n - 1};
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(mlp.Predict(GoldenRow(p.x, rows[i])), c.predict[i]);
      EXPECT_EQ(batch[rows[i]], c.predict[i]);
    }
  }
}

struct SoftmaxGolden {
  std::vector<size_t> hidden;
  size_t n, dim, batch;
  int epochs;
  uint64_t seed;
  double loss;
  double proba[3][3];  // rows 0, 7, n - 1
  uint32_t classes[3];
  size_t histogram[3];  // PredictClasses over every row
};

TEST(MlpGolden, SoftmaxHeadIsBitIdenticalToPerSampleTraining) {
  const SoftmaxGolden cases[] = {
      {{6}, 101, 4, 16, 5, 31, 0x1.627e6d4c384bdp+0,
       {{0x1.427661bcd5712p-2, 0x1.ccaaf3f7dcaddp-3, 0x1.d73424473c37dp-2},
        {0x1.830bd2115afeap-4, 0x1.607c2811dbfc8p-1, 0x1.bc8976afe28ebp-3},
        {0x1.adb92f854a7b1p-2, 0x1.7f9821cb74f8p-2, 0x1.a55d5d5e8119bp-3}},
       {2, 1, 0},
       {48, 49, 4}},
      {{}, 45, 3, 8, 3, 41, 0x1.cface3c36bd1cp+0,
       {{0x1.5f1517ac92a98p-4, 0x1.38f88b3a6e31cp-1, 0x1.3649a39ffef24p-2},
        {0x1.79c3acae1eafbp-1, 0x1.38c51f4bfa2e4p-4, 0x1.7c8ebda1882a4p-3},
        {0x1.4b2036e07f05dp-3, 0x1.45895932285e6p-1, 0x1.9eba6456df80ep-3}},
       {1, 0, 1},
       {26, 16, 3}},
  };
  for (const SoftmaxGolden& c : cases) {
    SCOPED_TRACE(testing::Message() << "hidden layers " << c.hidden.size());
    GoldenProblem p = MakeGoldenProblem(c.n, c.dim, 3, c.seed);
    MlpOptions options;
    options.hidden = c.hidden;
    options.head = Head::kSoftmax;
    options.epochs = c.epochs;
    options.batch_size = c.batch;
    options.seed = c.seed + 1;
    Mlp mlp(c.dim, 3, options);
    EXPECT_EQ(mlp.Fit(p.x, p.y), c.loss);
    std::vector<uint32_t> predicted = mlp.PredictClasses(p.x);
    const size_t rows[3] = {0, 7, c.n - 1};
    for (size_t i = 0; i < 3; ++i) {
      la::Vector proba = mlp.PredictProba(GoldenRow(p.x, rows[i]));
      for (size_t k = 0; k < 3; ++k) EXPECT_EQ(proba[k], c.proba[i][k]);
      EXPECT_EQ(predicted[rows[i]], c.classes[i]);
    }
    size_t histogram[3] = {0, 0, 0};
    for (uint32_t k : predicted) ++histogram[k];
    for (size_t k = 0; k < 3; ++k) EXPECT_EQ(histogram[k], c.histogram[k]);
  }
}

TEST(Mlp, UntrippedCancelTokenChangesNoBit) {
  GoldenProblem p = MakeGoldenProblem(150, 5, 1, 11);
  MlpOptions options;
  options.hidden = {8, 4};
  options.epochs = 7;
  options.seed = 12;
  Mlp plain(5, 1, options);
  Mlp polled(5, 1, options);
  util::CancelToken token;
  EXPECT_EQ(plain.Fit(p.x, p.y), polled.Fit(p.x, p.y, &token));
  EXPECT_GT(token.heartbeat(), 0u);  // one beat per mini-batch
  la::Vector a = plain.PredictBatch(p.x);
  la::Vector b = polled.PredictBatch(p.x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Mlp, TrippedCancelTokenStopsFitAtABatchBoundary) {
  GoldenProblem p = MakeGoldenProblem(150, 5, 1, 11);
  MlpOptions options;
  options.epochs = 1000;
  Mlp mlp(5, 1, options);
  util::CancelToken token;
  token.Cancel();
  EXPECT_EQ(mlp.Fit(p.x, p.y, &token), 0.0);  // no epoch completed
  // Still a usable network (its initial weights).
  double prob = mlp.Predict(GoldenRow(p.x, 0));
  EXPECT_GE(prob, 0.0);
  EXPECT_LE(prob, 1.0);
}

ProjectedGraph TwoCliquesGraph() {
  // Two K4s joined by one bridge edge: 0-3 and 4-7.
  ProjectedGraph g(8);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) g.AddWeight(u, v, 1);
  }
  for (NodeId u = 4; u < 8; ++u) {
    for (NodeId v = u + 1; v < 8; ++v) g.AddWeight(u, v, 1);
  }
  g.AddWeight(3, 4, 1);
  return g;
}

TEST(Gcn, TrainingReducesLoss) {
  ProjectedGraph g = TwoCliquesGraph();
  GcnOptions options;
  options.epochs = 1;
  Gcn one(g, options);
  std::vector<std::pair<NodeId, NodeId>> pos, neg;
  for (const auto& e : g.Edges()) pos.push_back({e.u, e.v});
  neg = {{0, 5}, {1, 6}, {2, 7}, {0, 7}, {1, 4}};
  double loss_short = one.Fit(pos, neg);

  options.epochs = 150;
  Gcn many(g, options);
  double loss_long = many.Fit(pos, neg);
  EXPECT_LT(loss_long, loss_short);
}

TEST(Gcn, EmbeddingsHaveRequestedShape) {
  ProjectedGraph g = TwoCliquesGraph();
  GcnOptions options;
  options.output_dim = 5;
  Gcn gcn(g, options);
  EXPECT_EQ(gcn.Embeddings().rows(), 8u);
  EXPECT_EQ(gcn.Embeddings().cols(), 5u);
}

TEST(Gcn, NeighborsInSameCliqueScoreHigherThanCrossPairs) {
  ProjectedGraph g = TwoCliquesGraph();
  GcnOptions options;
  options.epochs = 200;
  options.seed = 21;
  Gcn gcn(g, options);
  std::vector<std::pair<NodeId, NodeId>> pos, neg;
  for (const auto& e : g.Edges()) pos.push_back({e.u, e.v});
  neg = {{0, 5}, {1, 6}, {2, 7}, {0, 6}, {1, 7}, {2, 5}};
  gcn.Fit(pos, neg);
  const la::Matrix& z = gcn.Embeddings();
  auto dot = [&](NodeId a, NodeId b) {
    double s = 0;
    for (size_t j = 0; j < z.cols(); ++j) s += z(a, j) * z(b, j);
    return s;
  };
  // Average within-clique score should exceed average cross-clique score.
  double within = (dot(0, 1) + dot(1, 2) + dot(5, 6) + dot(6, 7)) / 4.0;
  double across = (dot(0, 5) + dot(1, 6) + dot(2, 7)) / 3.0;
  EXPECT_GT(within, across);
}

}  // namespace
}  // namespace marioh::ml
