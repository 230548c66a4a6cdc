#include "lite/qnecs.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/logging.h"

namespace lite {

namespace {
struct QNecsMetrics {
  obs::Counter* twins_built;
  obs::Counter* cache_misses;
  obs::Counter* candidates_scored;
  obs::Counter* plans_built;

  static const QNecsMetrics& Get() {
    static const QNecsMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new QNecsMetrics{
          reg.GetCounter("qnecs_twins_built_total"),
          reg.GetCounter("qnecs_encoder_cache_misses_total"),
          reg.GetCounter("qnecs_candidates_scored_total"),
          reg.GetCounter("qnecs_plans_built_total"),
      };
    }();
    return *m;
  }
};
}  // namespace

QuantizedNecs::QuantizedNecs(const NecsModel& model) : owner_(&model) {
  // Without the code encoder the ablation produces zero encodings, so the
  // CNN twin stays empty.
  if (model.config_.use_code_encoder) {
    cnn_ = QuantizedTextCnn::From(*model.cnn_);
  }
  mlp_ = QuantizedMlp::From(*model.mlp_);
  if (obs::Enabled()) QNecsMetrics::Get().twins_built->Inc();
}

std::pair<std::vector<float>, std::vector<float>>
QuantizedNecs::ComputeEncodings(const StageInstance& inst) const {
  const NecsConfig& config = owner_->config_;
  std::vector<float> h_code(config.code_dim, 0.0f);
  if (config.use_code_encoder) {
    // Misses are rare (the cache is keyed per (app, stage, datasize)), so a
    // local arena keeps this reentrancy-safe with respect to the caller's
    // thread-local scratch.
    qk::Arena arena(1 << 14);
    cnn_.EncodeBatch({inst.code_token_ids}, h_code.data(), &arena);
  }
  std::vector<float> h_dag(config.gcn_hidden, 0.0f);
  if (config.use_dag_encoder) {
    GcnGraph graph = BuildGcnGraph(inst, owner_->op_vocab_size_);
    // Keep the Var alive past the read: Forward returns a temporary VarPtr
    // and `value` lives inside it.
    VarPtr v = owner_->gcn_->Forward(graph);
    h_dag.assign(v->value.vec().begin(), v->value.vec().end());
  }
  return {std::move(h_code), std::move(h_dag)};
}

std::pair<std::vector<float>, std::vector<float>> QuantizedNecs::EncodeStage(
    const StageInstance& inst) const {
  std::string key = NecsModel::CacheKey(inst);
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  if (obs::Enabled()) QNecsMetrics::Get().cache_misses->Inc();
  auto enc = ComputeEncodings(inst);
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  return NecsModel::InsertEncoding(&cache_, std::move(key), std::move(enc));
}

void QuantizedNecs::WarmEncoderCache(
    std::span<const StageInstance> insts) const {
  const NecsConfig& config = owner_->config_;
  std::vector<size_t> missing;
  {
    std::shared_lock<std::shared_mutex> lock(cache_mu_);
    std::unordered_map<std::string, bool> queued;
    for (size_t i = 0; i < insts.size(); ++i) {
      std::string key = NecsModel::CacheKey(insts[i]);
      if (cache_.count(key) || queued[key]) continue;
      queued[key] = true;
      missing.push_back(i);
    }
  }
  if (missing.empty()) return;

  std::vector<float> codes(missing.size() * config.code_dim, 0.0f);
  if (config.use_code_encoder) {
    std::vector<std::vector<int>> sequences;
    sequences.reserve(missing.size());
    for (size_t i : missing) sequences.push_back(insts[i].code_token_ids);
    qk::Arena arena(1 << 14);
    cnn_.EncodeBatch(sequences, codes.data(), &arena);
  }
  if (obs::Enabled()) QNecsMetrics::Get().cache_misses->Inc(missing.size());
  std::unique_lock<std::shared_mutex> lock(cache_mu_);
  for (size_t m = 0; m < missing.size(); ++m) {
    const StageInstance& inst = insts[missing[m]];
    std::vector<float> h_code(codes.begin() + m * config.code_dim,
                              codes.begin() + (m + 1) * config.code_dim);
    std::vector<float> h_dag(config.gcn_hidden, 0.0f);
    if (config.use_dag_encoder) {
      GcnGraph graph = BuildGcnGraph(inst, owner_->op_vocab_size_);
      VarPtr v = owner_->gcn_->Forward(graph);
      h_dag.assign(v->value.vec().begin(), v->value.vec().end());
    }
    NecsModel::InsertEncoding(
        &cache_, NecsModel::CacheKey(inst),
        std::make_pair(std::move(h_code), std::move(h_dag)));
  }
}

std::vector<double> QuantizedNecs::PredictBatch(
    std::span<const StageInstance> insts) const {
  std::vector<double> out(insts.size());
  if (insts.empty()) return out;
  const size_t in_dim = mlp_.input_dim();
  // Resolve encodings before touching the thread-local arena: a cache miss
  // runs the encoders, and nothing below may interleave with that.
  std::vector<std::pair<std::vector<float>, std::vector<float>>> encs;
  encs.reserve(insts.size());
  for (const StageInstance& inst : insts) encs.push_back(EncodeStage(inst));

  qk::Arena* arena = qk::Arena::ThreadLocal();
  arena->Reset();
  float* x = arena->AllocFloats(insts.size() * in_dim);
  for (size_t b = 0; b < insts.size(); ++b) {
    float* row = x + b * in_dim;
    size_t off = 0;
    for (double v : insts[b].data_feat) row[off++] = static_cast<float>(v);
    for (double v : insts[b].env_feat) row[off++] = static_cast<float>(v);
    for (double v : insts[b].knobs) row[off++] = static_cast<float>(v);
    for (float v : encs[b].first) row[off++] = v;
    for (float v : encs[b].second) row[off++] = v;
    LITE_CHECK(off == in_dim) << "QuantizedNecs row width " << off
                              << " != MLP input " << in_dim;
  }
  float* y = arena->AllocFloats(insts.size() * mlp_.output_dim());
  mlp_.ForwardBatch(x, insts.size(), y, arena);
  for (size_t b = 0; b < out.size(); ++b) {
    out[b] = static_cast<double>(y[b * mlp_.output_dim()]);
  }
  return out;
}

double QuantizedNecs::PredictAppSeconds(const CandidateEval& candidate) const {
  std::vector<double> targets = PredictBatch(candidate.stage_instances);
  double total = 0.0;
  for (size_t i = 0; i < targets.size(); ++i) {
    double reps = i < candidate.stage_reps.size()
                      ? static_cast<double>(candidate.stage_reps[i])
                      : 1.0;
    total += SecondsFromTarget(targets[i]) * reps;
  }
  return total;
}

ScoringPlan QuantizedNecs::BuildPlan(const CandidateEval& base) const {
  const size_t num_rows = base.stage_instances.size();
  ScoringPlan plan = ScoringPlan::ForStages(
      base, mlp_.input_dim(), mlp_.output_dim(),
      [this, num_rows](const float* x, size_t rows, float* y,
                       qk::Arena* arena) {
        if (obs::Enabled()) {
          QNecsMetrics::Get().candidates_scored->Inc(rows / num_rows);
        }
        mlp_.ForwardBatch(x, rows, y, arena);
      });
  if (num_rows == 0) return plan;
  WarmEncoderCache(base.stage_instances);
  for (size_t s = 0; s < num_rows; ++s) {
    auto [h_code, h_dag] = EncodeStage(base.stage_instances[s]);
    plan.SetEncodings(s, h_code, h_dag);
  }
  if (obs::Enabled()) QNecsMetrics::Get().plans_built->Inc();
  return plan;
}

}  // namespace lite
