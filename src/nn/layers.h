// Dense layers: Linear and the tower MLP used by NECS's performance
// estimation head (Section III-F) and by the adversarial discriminator.
#ifndef LITE_NN_LAYERS_H_
#define LITE_NN_LAYERS_H_

#include <vector>

#include "nn/module.h"
#include "tensor/arena.h"
#include "util/rng.h"

namespace lite {

/// Fully connected layer y = x W + b. Accepts rank-1 (treated as 1 x in) or
/// rank-2 inputs; output rank matches input rank.
class Linear : public Module {
 public:
  Linear(size_t in_dim, size_t out_dim, Rng* rng);

  VarPtr Forward(const VarPtr& x) const;

  /// Graph-free inference over `rows` row-major inputs: y = x W + b, the
  /// same MatMul loop and bias add Forward runs, without autodiff nodes.
  void ForwardRows(const float* x, size_t rows, float* y) const;

  std::vector<VarPtr> Params() const override { return {w_, b_}; }
  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

 private:
  size_t in_dim_, out_dim_;
  VarPtr w_, b_;
};

/// Output of an MLP forward pass. `hidden_concat` is the concatenation of
/// all hidden-layer activations — the feature embedding h_i fed to the
/// domain discriminator by Adaptive Model Update (Eq. 8 defines
/// h_i = f^1(x_i) || ... || f^L(...)).
struct MlpOutput {
  VarPtr output;
  VarPtr hidden_concat;
};

/// Tower MLP: each hidden layer halves the width of the previous one
/// (Section III-F), ReLU activations, linear scalar head by default.
class Mlp : public Module {
 public:
  /// `input_dim` is the concatenated feature width; `num_hidden` the number
  /// of halving hidden layers; `output_dim` usually 1 (execution time).
  /// `sigmoid_output` turns the head into a probability (discriminator).
  Mlp(size_t input_dim, size_t num_hidden, size_t output_dim, Rng* rng,
      bool sigmoid_output = false);

  MlpOutput Forward(const VarPtr& x) const;

  /// Batched inference pass over raw row-major buffers: `x` is
  /// rows x input_dim, `y` receives rows x output_dim, hidden activations
  /// come from `arena` (callers Reset it). No autodiff nodes; one
  /// matrix-matrix product per layer replaces `rows` matrix-vector passes,
  /// and row r is bit-identical to Forward on row r alone (the same layer
  /// chain, MatMul loop order, bias add and activations, with every row
  /// accumulated independently of the others).
  void ForwardRows(const float* x, size_t rows, float* y,
                   qk::Arena* arena) const;

  /// Convenience when hidden activations are not needed.
  VarPtr Predict(const VarPtr& x) const { return Forward(x).output; }

  std::vector<VarPtr> Params() const override;
  size_t hidden_concat_dim() const { return hidden_concat_dim_; }
  size_t input_dim() const { return input_dim_; }
  size_t output_dim() const { return layers_.back().out_dim(); }

 private:
  size_t input_dim_ = 0;
  size_t hidden_concat_dim_ = 0;
  bool sigmoid_output_ = false;
  std::vector<Linear> layers_;  // hidden layers + final head.
};

}  // namespace lite

#endif  // LITE_NN_LAYERS_H_
