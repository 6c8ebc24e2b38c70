/// \file mlp.hpp
/// \brief From-scratch multilayer perceptron with ReLU hidden layers,
/// sigmoid or softmax heads, Adam optimization, and minibatch training.
/// This is the "simple MLP" the paper uses as its multiplicity-aware
/// classifier M (Sect. III-D), and is reused for node classification.
///
/// Training and inference run whole mini-batches through `la::Gemm` over
/// buffers preallocated once per call. Gemm's fixed summation order makes
/// every logit, gradient, loss and prediction bit-identical to the
/// per-sample formulation (forward one example, backpropagate it,
/// accumulate its gradient in batch order), so batch and block sizes
/// never change an output bit.

#pragma once

#include <cstdint>
#include <vector>

#include "la/matrix.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace marioh::ml {

/// Output head of the network.
enum class Head {
  kSigmoid,  ///< binary classification; Predict returns P(y=1).
  kSoftmax,  ///< multiclass; PredictClasses returns argmax.
};

/// Training hyperparameters.
struct MlpOptions {
  std::vector<size_t> hidden = {64, 32};  ///< hidden layer widths
  Head head = Head::kSigmoid;
  double learning_rate = 1e-3;  ///< Adam step size
  double weight_decay = 1e-5;   ///< L2 penalty
  int epochs = 60;
  size_t batch_size = 64;
  uint64_t seed = 1;
};

/// Fully connected network trained with Adam on cross-entropy loss.
class Mlp {
 public:
  /// Builds a network mapping `input_dim` features to `output_dim` logits.
  /// For Head::kSigmoid, `output_dim` must be 1.
  Mlp(size_t input_dim, size_t output_dim, const MlpOptions& options);

  /// Trains on rows of `x` with labels `y`. For the sigmoid head, `y` holds
  /// 0/1 values; for softmax, class indices. Returns the final epoch's mean
  /// training loss. `cancel` (null = non-cancellable) is polled once per
  /// mini-batch, which also beats its heartbeat; once it trips, Fit
  /// returns at the next batch boundary with the network part-trained and
  /// the last completed epoch's loss (0 if none). An untripped token
  /// changes no output bit.
  double Fit(const la::Matrix& x, const std::vector<double>& y,
             const util::CancelToken* cancel = nullptr);

  /// Sigmoid head: P(y=1 | x) for one example.
  double Predict(const la::Vector& x) const;

  /// Sigmoid head: probabilities for every row of `x`; element i is
  /// bit-identical to `Predict` on row i.
  la::Vector PredictBatch(const la::Matrix& x) const;

  /// Softmax head: class probabilities for one example.
  la::Vector PredictProba(const la::Vector& x) const;

  /// Softmax head: argmax class per row.
  std::vector<uint32_t> PredictClasses(const la::Matrix& x) const;

  size_t input_dim() const { return dims_.front(); }
  size_t output_dim() const { return dims_.back(); }

 private:
  /// Rows per inference block: bounds the activation scratch of the
  /// batched predictors regardless of how many rows they are given.
  static constexpr size_t kBlockRows = 64;

  /// Per-layer output buffers for batched passes of up to `capacity`
  /// rows: element l is capacity x dims_[l+1].
  std::vector<la::Matrix> NewActivations(size_t capacity) const;

  /// Batched forward pass over `rows` contiguous input rows at `x`:
  /// `(*acts)[l]` receives layer l's output (ReLU for hidden layers, raw
  /// logits for the last) in its first `rows` rows.
  void ForwardBatch(const double* x, size_t rows,
                    std::vector<la::Matrix>* acts) const;

  /// Adam update of layer `layer` from the batch's summed gradients,
  /// scaled by `inv_batch` first; refreshes weights_t_[layer].
  void AdamStep(size_t layer, const la::Matrix& grad_w,
                const la::Vector& grad_b, double inv_batch);

  MlpOptions options_;
  std::vector<size_t> dims_;          // layer widths incl. input & output
  std::vector<la::Matrix> weights_;   // weights_[l]: dims_[l+1] x dims_[l]
  std::vector<la::Matrix> weights_t_;  // transposes of weights_, for Gemm
  std::vector<la::Vector> biases_;
  // Adam state.
  std::vector<la::Matrix> m_w_, v_w_;
  std::vector<la::Vector> m_b_, v_b_;
  int64_t adam_t_ = 0;
};

}  // namespace marioh::ml
