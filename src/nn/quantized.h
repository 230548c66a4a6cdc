// Quantized twins of the NECS inference layers (Mlp, TextCnnEncoder).
//
// These replicate the exact autodiff forward math on quantized weights via
// the tensor/qkernels.h GEMM kernels: the tower MLP becomes a chain of
// quantized GEMMs, the TextCNN becomes im2col + GEMM per width with the same
// bias-seeded accumulator / max-over-positions / ReLU(proj) structure. The
// exact FP32 path is untouched and remains the oracle; the accuracy contract
// (score error bounds, top-1 agreement) is enforced by tests/quant_test.cc
// and testkit::DiffQuantizationAccuracy. See docs/QUANTIZATION.md.
#ifndef LITE_NN_QUANTIZED_H_
#define LITE_NN_QUANTIZED_H_

#include <vector>

#include "nn/encoders.h"
#include "nn/layers.h"
#include "tensor/qkernels.h"

namespace lite {

/// Scoring-tower backend selector, threaded from LiteOptions through
/// serve::ScoringOptions. kExactFp32 (the default) runs the graph-free fp32
/// tower, bit-identical to the autodiff oracle; kInt8 trades bounded score
/// error for throughput at large candidate pools.
enum class QuantBackend {
  kExactFp32 = 0,
  kInt8 = 1,
};

const char* QuantBackendName(QuantBackend backend);

/// One dense layer, out x in, int8-quantized per output row. The bias stays
/// fp32 (it seeds the accumulator, so its error would be amplified by
/// nothing and quantizing it buys no space worth having).
struct QuantizedLayer {
  size_t in = 0, out = 0;
  qk::QuantizedRowMatrix q8;
  std::vector<float> bias;
};

/// Quantizes a row-major out x in weight matrix (+ bias of length out).
QuantizedLayer QuantizeOutByIn(const float* w, size_t out, size_t in,
                               const float* bias);
/// Same from a Linear-layout in x out matrix (transposed while packing).
QuantizedLayer QuantizeInByOut(const float* w, size_t in, size_t out,
                               const float* bias);

/// Runs one quantized layer: y (batch x layer.out) from x (batch x layer.in).
void RunQuantizedLayer(const QuantizedLayer& layer, const float* x,
                       size_t batch, float* y, bool relu, qk::Arena* arena);

/// Quantized tower MLP: hidden layers ReLU, linear head — the structure of
/// Mlp::ForwardRows on quantized weights.
struct QuantizedMlp {
  std::vector<QuantizedLayer> layers;

  size_t input_dim() const { return layers.empty() ? 0 : layers.front().in; }
  size_t output_dim() const { return layers.empty() ? 0 : layers.back().out; }

  /// y is batch x output_dim; scratch from `arena` (callers Reset it).
  void ForwardBatch(const float* x, size_t batch, float* y,
                    qk::Arena* arena) const;

  static QuantizedMlp From(const Mlp& mlp);
};

/// Quantized TextCNN: embedding gather -> im2col -> conv-as-GEMM per width
/// -> max over positions -> concat -> quantized projection -> ReLU.
/// The embedding table stays fp32 (it is a gather, not a GEMM; quantizing
/// it buys nothing).
struct QuantizedTextCnn {
  size_t vocab = 0, emb_dim = 0, out_dim = 0, kernels_per_width = 0;
  std::vector<size_t> widths;
  std::vector<float> embedding;      ///< vocab x emb_dim.
  std::vector<QuantizedLayer> conv;  ///< per width: kernels x (emb_dim * w).
  QuantizedLayer proj;               ///< out_dim x (kernels * |widths|).

  /// Encodes `sequences`; `out` is sequences.size() x out_dim. Row b mirrors
  /// TextCnnEncoder::Forward(sequences[b]) on quantized weights.
  void EncodeBatch(const std::vector<std::vector<int>>& sequences, float* out,
                   qk::Arena* arena) const;

  static QuantizedTextCnn From(const TextCnnEncoder& cnn);
};

}  // namespace lite

#endif  // LITE_NN_QUANTIZED_H_
