// QuantizedNecs: the quantized inference twin of NecsModel.
//
// A twin owns int8 copies of the knob-dependent tower (MLP) and the
// code encoder (TextCNN); the GCN stays exact fp32 — it is tiny, runs only
// on encoder-cache misses, and its output is cached, so quantizing it would
// buy nothing. The twin keeps its OWN encoder cache: quantized encodings
// must never be served from (or inserted into) the fp32 model's cache, or
// backend selection would contaminate exact scoring.
//
// Twins are derived lazily from the owning NecsModel's current weights
// (NecsModel::Quantized) and dropped on InvalidateCache(), so any parameter
// change (training, adaptive update, CopyParams, a snapshot load or a plane
// install) rebuilds them; they are never persisted. The serving
// path scores candidates through the same ScoringPlan layout as the exact
// model (lite/necs.h): the knob-independent feature template is assembled
// once per query, and each candidate block only copies the template, writes
// its normalized knobs, and runs the quantized GEMM chain from a
// thread-local arena.
#ifndef LITE_LITE_QNECS_H_
#define LITE_LITE_QNECS_H_

#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lite/necs.h"
#include "nn/quantized.h"

namespace lite {

class QuantizedNecs {
 public:
  /// Quantizes `model`'s current weights to int8. `model` must outlive the
  /// twin (NecsModel owns its twin).
  explicit QuantizedNecs(const NecsModel& model);

  /// Quantized analog of NecsModel::PredictBatch (same row assembly, same
  /// cache-key discipline, quantized tower). Thread-safe.
  std::vector<double> PredictBatch(std::span<const StageInstance> insts) const;

  /// Eq. 5 aggregation over the quantized per-stage predictions.
  double PredictAppSeconds(const CandidateEval& candidate) const;

  /// Precomputes this twin's encoder-cache entries for `insts` (batched
  /// quantized CNN for the missing codes, exact GCN for the DAGs).
  void WarmEncoderCache(std::span<const StageInstance> insts) const;

  /// Builds the plan for `base` (a featurized candidate whose knob values
  /// are ignored) from this twin's encoder cache, which it warms. Its tower
  /// is the quantized GEMM chain; every quantized row (activation scale,
  /// dot, epilogue) is computed independently, so ScoreBlock on it is
  /// bit-identical to PredictAppSeconds on each candidate while amortizing
  /// the per-GEMM overhead (activation setup, dispatch, arena churn) across
  /// the block. The plan borrows this twin.
  ScoringPlan BuildPlan(const CandidateEval& base) const;

  void InvalidateCache() const {
    std::unique_lock<std::shared_mutex> lock(cache_mu_);
    cache_.clear();
  }

 private:
  /// (h_code, h_dag) for one instance, from this twin's cache.
  std::pair<std::vector<float>, std::vector<float>> EncodeStage(
      const StageInstance& inst) const;
  std::pair<std::vector<float>, std::vector<float>> ComputeEncodings(
      const StageInstance& inst) const;

  const NecsModel* owner_;
  QuantizedTextCnn cnn_;
  QuantizedMlp mlp_;
  mutable std::shared_mutex cache_mu_;
  mutable std::unordered_map<std::string,
                             std::pair<std::vector<float>, std::vector<float>>>
      cache_;
};

}  // namespace lite

#endif  // LITE_LITE_QNECS_H_
