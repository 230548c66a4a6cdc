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

#include <string>
#include <vector>

#include "nn/encoders.h"
#include "nn/layers.h"
#include "tensor/qkernels.h"

namespace lite {

/// Scoring-tower backend selector, threaded from LiteOptions through
/// serve::ScoringOptions. kExactFp32 (the default) runs the autodiff path
/// bit-identical to prior releases; the quantized backends trade bounded
/// score error for throughput.
enum class QuantBackend {
  kExactFp32 = 0,
  kInt8 = 1,
  kFp16 = 2,
};

const char* QuantBackendName(QuantBackend backend);
/// Parses "exact" / "int8" / "fp16"; returns false on anything else.
bool ParseQuantBackend(const std::string& name, QuantBackend* out);

/// One dense layer, out x in, quantized per output row. Exactly one of
/// q8 / f16 is populated depending on the owning module's mode; the bias
/// stays fp32 in both (it seeds the accumulator, so its error would be
/// amplified by nothing and quantizing it buys no space worth having).
struct QuantizedLayer {
  size_t in = 0, out = 0;
  qk::QuantizedRowMatrix q8;
  qk::HalfMatrix f16;
  std::vector<float> bias;
};

/// Quantizes a row-major out x in weight matrix (+ bias of length out).
QuantizedLayer QuantizeOutByIn(const float* w, size_t out, size_t in,
                               const float* bias, QuantBackend mode);
/// Same from a Linear-layout in x out matrix (transposed while packing).
QuantizedLayer QuantizeInByOut(const float* w, size_t in, size_t out,
                               const float* bias, QuantBackend mode);

/// Runs one quantized layer: y (batch x layer.out) from x (batch x layer.in).
void RunQuantizedLayer(const QuantizedLayer& layer, QuantBackend mode,
                       const float* x, size_t batch, float* y, bool relu,
                       qk::Arena* arena);

/// Quantized tower MLP: hidden layers ReLU, linear head — the structure of
/// Mlp::ForwardRows on quantized weights.
struct QuantizedMlp {
  QuantBackend mode = QuantBackend::kInt8;
  std::vector<QuantizedLayer> layers;

  size_t input_dim() const { return layers.empty() ? 0 : layers.front().in; }
  size_t output_dim() const { return layers.empty() ? 0 : layers.back().out; }

  /// y is batch x output_dim; scratch from `arena` (callers Reset it).
  void ForwardBatch(const float* x, size_t batch, float* y,
                    qk::Arena* arena) const;

  static QuantizedMlp From(const Mlp& mlp, QuantBackend mode);
};

/// Quantized TextCNN: embedding gather -> im2col -> conv-as-GEMM per width
/// -> max over positions -> concat -> quantized projection -> ReLU.
/// The embedding table stays fp32 in int8 mode (it is a gather, not a GEMM;
/// quantizing it buys nothing) and is half-storage in fp16 mode.
struct QuantizedTextCnn {
  QuantBackend mode = QuantBackend::kInt8;
  size_t vocab = 0, emb_dim = 0, out_dim = 0, kernels_per_width = 0;
  std::vector<size_t> widths;
  std::vector<float> embedding;     ///< vocab x emb_dim (int8 mode).
  qk::HalfMatrix embedding_f16;     ///< vocab x emb_dim (fp16 mode).
  std::vector<QuantizedLayer> conv;  ///< per width: kernels x (emb_dim * w).
  QuantizedLayer proj;               ///< out_dim x (kernels * |widths|).

  /// Encodes `sequences`; `out` is sequences.size() x out_dim. Row b mirrors
  /// TextCnnEncoder::Forward(sequences[b]) on quantized weights.
  void EncodeBatch(const std::vector<std::vector<int>>& sequences, float* out,
                   qk::Arena* arena) const;

  static QuantizedTextCnn From(const TextCnnEncoder& cnn, QuantBackend mode);
};

}  // namespace lite

#endif  // LITE_NN_QUANTIZED_H_
