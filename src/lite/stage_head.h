// Per-stage prediction head for fine-grained tuning: a small tower MLP
// over the frozen NECS stage encodings (h_code, h_DAG) plus data, env and
// knob features, predicting one stage's log1p(seconds) directly.
//
// Why a separate head instead of NecsModel::PredictTarget: the per-stage
// planner evaluates O(stages x knobs x grid) candidate configs per
// recommendation, and the head is trained specifically on per-stage
// targets with the ensemble's member-0 encodings frozen — a cheap,
// deliberately small adapter in the spirit of AQE's re-optimization being
// much lighter than full planning.
//
// The head always evaluates in exact fp32, whatever scoring backend
// (exact/int8) the app-level pipeline uses: per-stage planning is
// therefore bit-identical across backends by construction, which is the
// parity leg of DiffStageTuningTransparency.
#ifndef LITE_LITE_STAGE_HEAD_H_
#define LITE_LITE_STAGE_HEAD_H_

#include <memory>
#include <vector>

#include "lite/dataset.h"
#include "lite/features.h"
#include "lite/necs.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "sparksim/stage_planner.h"

namespace lite {

struct StageHeadTrainOptions {
  size_t epochs = 8;
  float lr = 1e-3f;
  size_t batch_size = 16;
  float grad_clip = 5.0f;
  uint64_t seed = 29;
};

class StageHead : public Module {
 public:
  /// `code_dim` / `dag_dim` must match the encoder widths of the NECS
  /// model whose encodings will be fed in (NecsConfig::code_dim /
  /// gcn_hidden).
  StageHead(size_t code_dim, size_t dag_dim, uint64_t seed);

  /// Predicted log1p(stage seconds) for one stage instance, using
  /// `encoder`'s cached knob-independent encodings. Thread-compatible with
  /// concurrent scoring: StageEncodings is a shared-mutex cache read.
  double PredictTarget(const NecsModel& encoder,
                       const StageInstance& inst) const;

  /// Convenience: SecondsFromTarget(PredictTarget(...)).
  double PredictSeconds(const NecsModel& encoder,
                        const StageInstance& inst) const;

  /// Minibatch Adam on the squared loss against inst.y, with `encoder`'s
  /// encodings frozen (no gradient flows into the NECS towers). Returns
  /// mean training loss per epoch.
  std::vector<double> Train(const NecsModel& encoder,
                            const std::vector<StageInstance>& instances,
                            const StageHeadTrainOptions& options);

  std::vector<VarPtr> Params() const override;
  size_t code_dim() const { return code_dim_; }
  size_t dag_dim() const { return dag_dim_; }
  size_t input_dim() const;

 private:
  VarPtr Assemble(const NecsModel& encoder, const StageInstance& inst) const;

  size_t code_dim_;
  size_t dag_dim_;
  std::unique_ptr<Mlp> mlp_;
};

/// Head-backed StageEvalFactory for the per-stage planner
/// (sparksim/stage_planner.h): factory(scale) featurizes the workload once
/// at the rescaled datasize (size_mb x scale; num_rows too when explicit)
/// and answers (stage, iteration, config) with the head's predicted stage
/// seconds under the candidate's normalized knobs. factory(1.0) featurizes
/// the original DataSpec bit for bit, which is what makes the serving
/// re-tune path inert when observations match predictions. All captured
/// pointers must outlive the returned factory.
spark::StageEvalFactory MakeStageHeadEvalFactory(
    const StageHead* head, const NecsModel* encoder,
    const spark::SparkRunner* runner, const Corpus* feature_space,
    const spark::ApplicationSpec* app, spark::DataSpec data,
    const spark::ClusterEnv* env);

}  // namespace lite

#endif  // LITE_LITE_STAGE_HEAD_H_
