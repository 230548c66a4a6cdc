// NECS: Neural Estimator via Code and Scheduler representation
// (Section III). The composite model:
//
//   h_code = ReLU(W^CNN · flat(maxpool(Conv1D(C_i))))        (Eq. 1)
//   h_DAG  = maxpool(GCN(V_i, A_i))                          (Eq. 2)
//   y_hat  = towerMLP(concat(d_i, e_i, o_i, h_code, h_DAG))  (Eq. 3)
//
// trained with squared loss (Eq. 4). Targets live in log1p(seconds) space.
#ifndef LITE_LITE_NECS_H_
#define LITE_LITE_NECS_H_

#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lite/dataset.h"
#include "lite/features.h"
#include "nn/encoders.h"
#include "nn/layers.h"
#include "nn/quantized.h"

namespace lite {

class QuantizedNecs;  // lite/qnecs.h

/// Knob-independent scoring template for one query's stage set. Only the
/// knob vector differs between the candidates of one (app, data, env)
/// query, so every other input column — data and environment features and
/// the cached (h_code, h_DAG) encodings — is frozen here once per request
/// and ensemble member, together with the tower that scores it. Scoring a
/// candidate block is then template copies, knob writes and one tower pass;
/// the exact model and its quantized twins build the same layout and differ
/// only in the tower.
struct ScoringPlan {
  /// Maps `rows` stacked input rows `x` (rows x input_dim) to rows x
  /// out_dim outputs `y`, scratch from `arena`. Every row must be computed
  /// independently of the others, so block composition never changes a
  /// score.
  using Tower = std::function<void(const float* x, size_t rows, float* y,
                                   qk::Arena* arena)>;

  std::vector<float> rows;  ///< num_rows x input_dim, knob slots zeroed.
  std::vector<double> reps;  ///< Eq. 5 execution count per stage row.
  size_t num_rows = 0;
  size_t input_dim = 0;
  size_t knob_offset = 0;  ///< first knob column (after data + env).
  size_t num_knobs = 0;
  size_t out_dim = 1;
  Tower tower;  ///< borrows the model that built the plan.

  /// Template rows for `base`'s stages with the data/env features and
  /// repetition counts filled in; knob and encoding columns stay zero.
  static ScoringPlan ForStages(const CandidateEval& base, size_t input_dim,
                               size_t out_dim, Tower tower);

  /// Writes stage s's encoding columns: h_code then h_DAG, which must fill
  /// the row to its end.
  void SetEncodings(size_t s, std::span<const float> h_code,
                    std::span<const float> h_dag);

  /// Predicted application seconds for candidates [begin, end) of `knobs`
  /// (normalized), written to out[0..end-begin): the stacked template rows
  /// with each candidate's knobs go through ONE tower pass, and Eq. 5 sums
  /// each candidate's stage targets in stage order. Bit-identical to the
  /// model's PredictAppSeconds on the candidate with those knobs. Resets
  /// `arena`.
  void ScoreBlock(const std::vector<std::vector<double>>& knobs, size_t begin,
                  size_t end, double* out, qk::Arena* arena) const;
};

struct NecsConfig {
  size_t emb_dim = 16;                     ///< D: token embedding size.
  std::vector<size_t> cnn_widths = {3, 4, 5};
  size_t cnn_kernels = 16;                 ///< I per width.
  size_t code_dim = 32;                    ///< h_code size.
  size_t gcn_hidden = 24;                  ///< h_DAG size.
  size_t gcn_layers = 2;
  size_t mlp_hidden = 3;                   ///< tower depth L.
  /// Ablation switches: disabling an encoder replaces its representation
  /// with zeros (the MLP still sees the same input width).
  bool use_code_encoder = true;
  bool use_dag_encoder = true;
};

/// Abstract stage-level performance estimator: every Table VII competitor
/// implements this, so the ranking harness treats them uniformly.
class StageEstimator {
 public:
  virtual ~StageEstimator() = default;
  /// Predicted target (log1p seconds) for one stage instance.
  virtual double PredictTarget(const StageInstance& inst) const = 0;
  virtual std::string name() const = 0;

  /// Predicted whole-application time: per-stage-spec predictions scaled by
  /// execution counts and summed (Eq. 5's aggregation). Virtual so models
  /// with a batched inference path (NECS) can fuse the per-stage loop into
  /// one matrix-matrix pass; overrides must stay numerically identical to
  /// the default per-stage loop.
  virtual double PredictAppSeconds(const CandidateEval& candidate) const;
};

class NecsModel : public Module, public StageEstimator {
 public:
  /// `token_vocab_size` from the training TokenVocab (includes pad/oov);
  /// `op_vocab_size` is S (one-hot width becomes S+1).
  NecsModel(size_t token_vocab_size, size_t op_vocab_size, NecsConfig config,
            uint64_t seed);
  ~NecsModel();  // out of line: unique_ptr<QuantizedNecs> member.

  struct ForwardResult {
    VarPtr pred;    ///< scalar, log1p-seconds space.
    VarPtr hidden;  ///< concatenated MLP hidden activations (for Eq. 8).
  };

  /// Full autodiff forward pass (training / fine-tuning).
  ForwardResult Forward(const StageInstance& inst) const;

  /// Inference-only prediction with per-(app, stage, datasize) encoder
  /// caching — code and DAG encodings do not depend on knobs, so candidate
  /// ranking reuses them. Call InvalidateCache() after any parameter change
  /// (NecsTrainer, AdaptiveModelUpdater and SetTokenEmbeddings already do).
  double PredictTarget(const StageInstance& inst) const override;
  std::string name() const override { return "NECS"; }

  /// Batched inference: one tower matrix-matrix pass over all instances
  /// instead of B matrix-vector passes. Entry i is bit-identical to
  /// PredictTarget(insts[i]). Thread-safe: the encoder cache is guarded by
  /// a shared mutex, so concurrent PredictBatch/PredictTarget calls are
  /// allowed (warm the cache first to avoid serializing on misses). Runs
  /// Mlp::ForwardRows in the calling thread's qk::Arena::ThreadLocal(),
  /// which it resets, so callers must not hold allocations from it.
  std::vector<double> PredictBatch(std::span<const StageInstance> insts) const;

  /// Eq. 5 aggregation on the batched path; numerically identical to the
  /// base-class per-stage loop.
  double PredictAppSeconds(const CandidateEval& candidate) const override;

  /// Exact-fp32 scoring plan for `base` (a featurized candidate whose knob
  /// values are ignored), filled from this model's encoder cache — one
  /// cache lookup per stage. Warms the cache as a side effect. Its tower is
  /// the graph-free Mlp::ForwardRows, so ScoreBlock on it is bit-identical
  /// to PredictAppSeconds. The plan borrows this model.
  ScoringPlan BuildPlan(const CandidateEval& base) const;

  /// Precomputes encoder-cache entries for `insts` (the code encodings of
  /// all missing stages run as one batched CNN projection). BuildPlan calls
  /// this before reading a request's encodings, so cold stages cost one
  /// batched projection instead of one CNN pass each.
  void WarmEncoderCache(std::span<const StageInstance> insts) const;

  /// The encoder cache holds at most this many entries: an insert that
  /// would exceed it clears the cache first. Fresh workloads key entries on
  /// continuous data sizes, so an unbounded cache grows with traffic; every
  /// entry is recomputable bit for bit, so eviction never changes a score.
  static constexpr size_t kEncoderCacheCap = 2048;
  size_t encoder_cache_size() const;

  /// Knob-independent (h_code, h_DAG) encodings for one stage, served from
  /// the shared encoder cache (computed and inserted on miss — the same
  /// entry PredictTarget/PredictBatch use). Exposed so the serving layer
  /// can derive workload embeddings from already-cached encoder outputs
  /// (serve/retrieval_cache.h) without re-running the towers: after any
  /// scoring pass over the workload this is a pure cache read.
  std::pair<Tensor, Tensor> StageEncodings(const StageInstance& inst) const {
    return EncodeStage(inst);
  }

  /// Clears the encoder cache AND drops the lazily-built quantized twin:
  /// any parameter change invalidates both.
  void InvalidateCache() const;

  /// Lazily-built int8 twin (`backend` must be kInt8), derived from the
  /// current FP32 weights and cached until InvalidateCache(). Twins are
  /// never persisted: a loaded or plane-installed model derives the same
  /// twin from its fp32 weights on first use. Thread-safe; the returned twin
  /// stays valid until the next parameter change on this model.
  const QuantizedNecs* Quantized(QuantBackend backend) const;

  /// Replaces the token-embedding table with pretrained vectors (rows must
  /// match the token vocabulary, columns the configured emb_dim). Call
  /// before training; see lite/embedding_pretrain.h.
  void SetTokenEmbeddings(const Tensor& embeddings);

  std::vector<VarPtr> Params() const override;
  size_t hidden_dim() const { return mlp_->hidden_concat_dim(); }
  size_t op_vocab_size() const { return op_vocab_size_; }
  const NecsConfig& config() const { return config_; }

 private:
  friend class QuantizedNecs;  // reads weights + config to build twins.

  VarPtr AssembleInput(const StageInstance& inst, const VarPtr& h_code,
                       const VarPtr& h_dag) const;
  /// Cache identity of an instance's knob-independent encodings.
  static std::string CacheKey(const StageInstance& inst);
  /// The one insert path into an encoder cache (this model's or a quantized
  /// twin's): emplaces `value` under `key`, clearing a full cache first.
  /// Callers hold the cache's unique lock.
  template <typename Cache, typename Value>
  static const Value& InsertEncoding(Cache* cache, std::string key,
                                     Value value) {
    if (cache->size() >= kEncoderCacheCap && !cache->count(key)) {
      cache->clear();
    }
    return cache->emplace(std::move(key), std::move(value)).first->second;
  }

  /// Computes the (h_code, h_DAG) values for one instance (no caching).
  std::pair<Tensor, Tensor> ComputeEncodings(const StageInstance& inst) const;
  /// Cached (h_code, h_DAG) values; computes and inserts on miss.
  std::pair<Tensor, Tensor> EncodeStage(const StageInstance& inst) const;

  NecsConfig config_;
  size_t op_vocab_size_;
  std::unique_ptr<TextCnnEncoder> cnn_;
  std::unique_ptr<GcnEncoder> gcn_;
  std::unique_ptr<Mlp> mlp_;
  mutable std::shared_mutex cache_mu_;
  mutable std::unordered_map<std::string, std::pair<Tensor, Tensor>> cache_;
  /// The int8 twin, built on first use; guarded by twin_mu_ (separate from
  /// cache_mu_ so twin construction never blocks scoring).
  mutable std::mutex twin_mu_;
  mutable std::unique_ptr<QuantizedNecs> twin_;
};

struct TrainOptions {
  size_t epochs = 12;
  float lr = 1e-3f;
  size_t batch_size = 16;
  float grad_clip = 5.0f;
  uint64_t seed = 23;
  bool verbose = false;
};

/// Minibatch Adam training on the squared loss (Eq. 4).
class NecsTrainer {
 public:
  /// Returns mean training loss per epoch.
  std::vector<double> Train(NecsModel* model,
                            const std::vector<StageInstance>& instances,
                            const TrainOptions& options) const;
};

}  // namespace lite

#endif  // LITE_LITE_NECS_H_
