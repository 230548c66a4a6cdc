#include "nn/layers.h"

#include <cmath>

#include "util/logging.h"

namespace lite {

Linear::Linear(size_t in_dim, size_t out_dim, Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  // Glorot-style init keeps activations stable for both narrow feature
  // vectors and wide CNN outputs.
  float stddev = std::sqrt(2.0f / static_cast<float>(in_dim + out_dim));
  w_ = Param(Tensor::Randn({in_dim, out_dim}, rng, stddev));
  b_ = Param(Tensor::Zeros({out_dim}));
}

VarPtr Linear::Forward(const VarPtr& x) const {
  using namespace ops;
  if (x->value.rank() == 1) {
    LITE_CHECK(x->numel() == in_dim_) << "Linear input dim " << x->numel()
                                      << " != " << in_dim_;
    VarPtr x2 = Reshape(x, {1, in_dim_});
    VarPtr y = AddBias(MatMul(x2, w_), b_);
    return Reshape(y, {out_dim_});
  }
  LITE_CHECK(x->value.shape()[1] == in_dim_) << "Linear input cols";
  return AddBias(MatMul(x, w_), b_);
}

void Linear::ForwardRows(const float* x, size_t rows, float* y) const {
  MatMulRows(x, w_->value.data(), y, rows, in_dim_, out_dim_);
  const float* bias = b_->value.data();
  for (size_t r = 0; r < rows; ++r) {
    float* row = y + r * out_dim_;
    for (size_t c = 0; c < out_dim_; ++c) row[c] += bias[c];
  }
}

Mlp::Mlp(size_t input_dim, size_t num_hidden, size_t output_dim, Rng* rng,
         bool sigmoid_output)
    : input_dim_(input_dim), sigmoid_output_(sigmoid_output) {
  LITE_CHECK(input_dim >= 1) << "Mlp input_dim";
  size_t width = input_dim;
  for (size_t l = 0; l < num_hidden; ++l) {
    size_t next = std::max<size_t>(width / 2, 4);
    layers_.emplace_back(width, next, rng);
    hidden_concat_dim_ += next;
    width = next;
  }
  layers_.emplace_back(width, output_dim, rng);
}

MlpOutput Mlp::Forward(const VarPtr& x) const {
  using namespace ops;
  std::vector<VarPtr> hidden;
  VarPtr h = x;
  for (size_t l = 0; l + 1 < layers_.size(); ++l) {
    h = Relu(layers_[l].Forward(h));
    hidden.push_back(h);
  }
  VarPtr out = layers_.back().Forward(h);
  if (sigmoid_output_) out = Sigmoid(out);
  MlpOutput res;
  res.output = out;
  res.hidden_concat = hidden.empty() ? h : Concat(hidden);
  return res;
}

void Mlp::ForwardRows(const float* x, size_t rows, float* y,
                      qk::Arena* arena) const {
  const float* h = x;
  for (size_t l = 0; l + 1 < layers_.size(); ++l) {
    const size_t width = layers_[l].out_dim();
    float* next = arena->AllocFloats(rows * width);
    layers_[l].ForwardRows(h, rows, next);
    for (size_t i = 0; i < rows * width; ++i) {
      next[i] = next[i] > 0.0f ? next[i] : 0.0f;
    }
    h = next;
  }
  layers_.back().ForwardRows(h, rows, y);
  if (sigmoid_output_) {
    for (size_t i = 0; i < rows * output_dim(); ++i) {
      y[i] = 1.0f / (1.0f + std::exp(-y[i]));
    }
  }
}

std::vector<VarPtr> Mlp::Params() const {
  std::vector<VarPtr> out;
  for (const auto& l : layers_) {
    auto p = l.Params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

}  // namespace lite
