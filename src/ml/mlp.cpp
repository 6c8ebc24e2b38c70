#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "la/gemm.hpp"
#include "util/check.hpp"

namespace marioh::ml {
namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    return 1.0 / (1.0 + std::exp(-z));
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

void SoftmaxInPlace(double* z, size_t n) {
  double mx = *std::max_element(z, z + n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    z[i] = std::exp(z[i] - mx);
    sum += z[i];
  }
  for (size_t i = 0; i < n; ++i) z[i] /= sum;
}

void TransposeInto(const la::Matrix& w, la::Matrix* wt) {
  for (size_t i = 0; i < w.rows(); ++i) {
    for (size_t j = 0; j < w.cols(); ++j) (*wt)(j, i) = w(i, j);
  }
}

}  // namespace

Mlp::Mlp(size_t input_dim, size_t output_dim, const MlpOptions& options)
    : options_(options) {
  MARIOH_CHECK_GT(input_dim, 0u);
  MARIOH_CHECK_GT(output_dim, 0u);
  if (options_.head == Head::kSigmoid) MARIOH_CHECK_EQ(output_dim, 1u);
  dims_.push_back(input_dim);
  for (size_t h : options_.hidden) dims_.push_back(h);
  dims_.push_back(output_dim);

  util::Rng rng(options_.seed);
  for (size_t l = 0; l + 1 < dims_.size(); ++l) {
    size_t fan_in = dims_[l];
    size_t fan_out = dims_[l + 1];
    // He initialization for ReLU layers.
    double scale = std::sqrt(2.0 / static_cast<double>(fan_in));
    la::Matrix w(fan_out, fan_in);
    for (size_t i = 0; i < fan_out; ++i) {
      for (size_t j = 0; j < fan_in; ++j) {
        w(i, j) = rng.Normal(0.0, scale);
      }
    }
    weights_t_.push_back(w.Transposed());
    weights_.push_back(std::move(w));
    biases_.emplace_back(fan_out, 0.0);
    m_w_.emplace_back(fan_out, fan_in);
    v_w_.emplace_back(fan_out, fan_in);
    m_b_.emplace_back(fan_out, 0.0);
    v_b_.emplace_back(fan_out, 0.0);
  }
}

std::vector<la::Matrix> Mlp::NewActivations(size_t capacity) const {
  std::vector<la::Matrix> acts;
  acts.reserve(weights_.size());
  for (size_t l = 0; l < weights_.size(); ++l) {
    acts.emplace_back(capacity, dims_[l + 1]);
  }
  return acts;
}

void Mlp::ForwardBatch(const double* x, size_t rows,
                       std::vector<la::Matrix>* acts) const {
  const double* in = x;
  for (size_t l = 0; l < weights_.size(); ++l) {
    const size_t in_dim = dims_[l];
    const size_t out_dim = dims_[l + 1];
    la::Matrix& out = (*acts)[l];
    la::Gemm(rows, out_dim, in_dim, in, in_dim, 1, weights_t_[l].data(),
             out_dim, out.data(), out_dim);
    // Bias after the sum, then ReLU on hidden layers.
    const la::Vector& bias = biases_[l];
    const bool hidden = l + 1 < weights_.size();
    for (size_t r = 0; r < rows; ++r) {
      double* z = out.Row(r);
      for (size_t i = 0; i < out_dim; ++i) {
        double v = z[i] + bias[i];
        z[i] = hidden ? std::max(0.0, v) : v;
      }
    }
    in = out.data();
  }
}

void Mlp::AdamStep(size_t layer, const la::Matrix& grad_w,
                   const la::Vector& grad_b, double inv_batch) {
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEps = 1e-8;
  double lr = options_.learning_rate;
  double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(adam_t_));
  double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(adam_t_));

  la::Matrix& w = weights_[layer];
  double* wp = w.data();
  double* mw = m_w_[layer].data();
  double* vw = v_w_[layer].data();
  const double* gw = grad_w.data();
  const size_t size = w.rows() * w.cols();
  for (size_t e = 0; e < size; ++e) {
    double g = gw[e] * inv_batch + options_.weight_decay * wp[e];
    mw[e] = kBeta1 * mw[e] + (1 - kBeta1) * g;
    vw[e] = kBeta2 * vw[e] + (1 - kBeta2) * g * g;
    double mhat = mw[e] / bc1;
    double vhat = vw[e] / bc2;
    wp[e] -= lr * mhat / (std::sqrt(vhat) + kEps);
  }
  la::Vector& b = biases_[layer];
  la::Vector& mb = m_b_[layer];
  la::Vector& vb = v_b_[layer];
  for (size_t i = 0; i < b.size(); ++i) {
    double g = grad_b[i] * inv_batch;
    mb[i] = kBeta1 * mb[i] + (1 - kBeta1) * g;
    vb[i] = kBeta2 * vb[i] + (1 - kBeta2) * g * g;
    double mhat = mb[i] / bc1;
    double vhat = vb[i] / bc2;
    b[i] -= lr * mhat / (std::sqrt(vhat) + kEps);
  }
  TransposeInto(w, &weights_t_[layer]);
}

double Mlp::Fit(const la::Matrix& x, const std::vector<double>& y,
                const util::CancelToken* cancel) {
  const size_t n = x.rows();
  MARIOH_CHECK_EQ(n, y.size());
  MARIOH_CHECK_GT(n, 0u);
  MARIOH_CHECK_EQ(x.cols(), input_dim());
  MARIOH_CHECK_GT(options_.batch_size, 0u);
  util::Rng rng(options_.seed ^ 0x5bd1e995u);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // Every buffer is sized here, once; the batch loop never allocates.
  // deltas[l] holds dLoss/d(output of layer l) for the batch's rows.
  const size_t num_layers = weights_.size();
  const size_t in_dim = input_dim();
  const size_t out_dim = output_dim();
  const size_t capacity = std::min(n, options_.batch_size);
  la::Matrix batch_x(capacity, in_dim);
  std::vector<la::Matrix> acts = NewActivations(capacity);
  std::vector<la::Matrix> deltas = NewActivations(capacity);
  std::vector<la::Matrix> grad_w;
  std::vector<la::Vector> grad_b;
  for (size_t l = 0; l < num_layers; ++l) {
    grad_w.emplace_back(weights_[l].rows(), weights_[l].cols());
    grad_b.emplace_back(biases_[l].size(), 0.0);
  }
  util::CancelChecker checker(cancel);
  double last_epoch_loss = 0.0;

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t processed = 0;
    for (size_t start = 0; start < n; start += options_.batch_size) {
      if (checker.ShouldStop()) return last_epoch_loss;
      size_t end = std::min(n, start + options_.batch_size);
      size_t bs = end - start;
      for (size_t b = 0; b < bs; ++b) {
        const double* src = x.Row(order[start + b]);
        std::copy(src, src + in_dim, batch_x.Row(b));
      }
      ForwardBatch(batch_x.data(), bs, &acts);

      // delta = dLoss/dlogits for cross-entropy heads, and the loss, per
      // row in sample order.
      const la::Matrix& logits = acts.back();
      la::Matrix& delta_out = deltas.back();
      for (size_t b = 0; b < bs; ++b) {
        const size_t row = order[start + b];
        double* delta = delta_out.Row(b);
        if (options_.head == Head::kSigmoid) {
          double p = Sigmoid(logits(b, 0));
          double target = y[row];
          delta[0] = p - target;
          epoch_loss += -(target * std::log(std::max(p, 1e-12)) +
                          (1 - target) * std::log(std::max(1 - p, 1e-12)));
        } else {
          std::copy(logits.Row(b), logits.Row(b) + out_dim, delta);
          SoftmaxInPlace(delta, out_dim);
          size_t target = static_cast<size_t>(y[row]);
          MARIOH_CHECK_LT(target, out_dim);
          epoch_loss += -std::log(std::max(delta[target], 1e-12));
          delta[target] -= 1.0;
        }
      }

      // Backpropagate.
      for (size_t l = num_layers; l-- > 0;) {
        const size_t fan_out = dims_[l + 1];
        const size_t fan_in = dims_[l];
        const double* a_in = l == 0 ? batch_x.data() : acts[l - 1].data();
        const double* d = deltas[l].data();
        // grad_w = Dᵀ · A_in: A-strides (1, fan_out) read D transposed.
        la::Gemm(fan_out, fan_in, bs, d, 1, fan_out, a_in, fan_in,
                 grad_w[l].data(), fan_in);
        la::Vector& gb = grad_b[l];
        std::fill(gb.begin(), gb.end(), 0.0);
        for (size_t b = 0; b < bs; ++b) {
          for (size_t i = 0; i < fan_out; ++i) gb[i] += d[b * fan_out + i];
        }
        if (l == 0) break;
        // Delta of the previous layer's output: D · W, then the ReLU
        // derivative at that output.
        la::Matrix& prev = deltas[l - 1];
        la::Gemm(bs, fan_in, fan_out, d, fan_out, 1, weights_[l].data(),
                 fan_in, prev.data(), fan_in);
        const double* a = acts[l - 1].data();
        double* p = prev.data();
        for (size_t e = 0; e < bs * fan_in; ++e) {
          p[e] = a[e] > 0.0 ? p[e] : 0.0;
        }
      }
      ++adam_t_;
      double inv = 1.0 / static_cast<double>(bs);
      for (size_t l = 0; l < num_layers; ++l) {
        AdamStep(l, grad_w[l], grad_b[l], inv);
      }
      processed += bs;
    }
    last_epoch_loss = epoch_loss / static_cast<double>(processed);
  }
  return last_epoch_loss;
}

double Mlp::Predict(const la::Vector& x) const {
  MARIOH_CHECK(options_.head == Head::kSigmoid);
  MARIOH_CHECK_EQ(x.size(), input_dim());
  std::vector<la::Matrix> acts = NewActivations(1);
  ForwardBatch(x.data(), 1, &acts);
  return Sigmoid(acts.back()(0, 0));
}

la::Vector Mlp::PredictBatch(const la::Matrix& x) const {
  MARIOH_CHECK(options_.head == Head::kSigmoid);
  MARIOH_CHECK_EQ(x.cols(), input_dim());
  la::Vector out(x.rows());
  std::vector<la::Matrix> acts =
      NewActivations(std::min(x.rows(), kBlockRows));
  for (size_t start = 0; start < x.rows(); start += kBlockRows) {
    size_t rows = std::min(x.rows() - start, kBlockRows);
    ForwardBatch(x.Row(start), rows, &acts);
    for (size_t r = 0; r < rows; ++r) {
      out[start + r] = Sigmoid(acts.back()(r, 0));
    }
  }
  return out;
}

la::Vector Mlp::PredictProba(const la::Vector& x) const {
  MARIOH_CHECK(options_.head == Head::kSoftmax);
  MARIOH_CHECK_EQ(x.size(), input_dim());
  std::vector<la::Matrix> acts = NewActivations(1);
  ForwardBatch(x.data(), 1, &acts);
  la::Vector probs(acts.back().Row(0), acts.back().Row(0) + output_dim());
  SoftmaxInPlace(probs.data(), probs.size());
  return probs;
}

std::vector<uint32_t> Mlp::PredictClasses(const la::Matrix& x) const {
  MARIOH_CHECK(options_.head == Head::kSoftmax);
  MARIOH_CHECK_EQ(x.cols(), input_dim());
  const size_t k = output_dim();
  std::vector<uint32_t> out(x.rows());
  std::vector<la::Matrix> acts =
      NewActivations(std::min(x.rows(), kBlockRows));
  for (size_t start = 0; start < x.rows(); start += kBlockRows) {
    size_t rows = std::min(x.rows() - start, kBlockRows);
    ForwardBatch(x.Row(start), rows, &acts);
    for (size_t r = 0; r < rows; ++r) {
      double* probs = acts.back().Row(r);
      SoftmaxInPlace(probs, k);
      out[start + r] =
          static_cast<uint32_t>(std::max_element(probs, probs + k) - probs);
    }
  }
  return out;
}

}  // namespace marioh::ml
