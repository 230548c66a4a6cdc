#include "lite/lite_system.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "lite/qnecs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/recommend_pipeline.h"
#include "sparksim/resilient_runner.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace lite {

namespace {
// Scoring/feedback observability (see docs/OBSERVABILITY.md for the
// catalog). The recommendation-level series (lite_recommendations_total,
// lite_recommend_seconds, ...) live in serve/recommend_pipeline.cc — the
// one place every serving surface runs through. Metric pointers are
// resolved once; updates are lock-free sharded atomics, so instrumentation
// never perturbs scoring results or ordering.
struct LiteMetrics {
  obs::Counter* score_calls;
  obs::Counter* candidates_scored;
  obs::Counter* feedback_runs;
  obs::Counter* feedback_censored;
  obs::Counter* feedback_dropped;
  obs::Counter* adaptive_updates;
  obs::Gauge* domain_accuracy;
  obs::Histogram* score_seconds;
  obs::Histogram* featurize_seconds;
  obs::Histogram* update_seconds;

  static const LiteMetrics& Get() {
    static const LiteMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new LiteMetrics{
          reg.GetCounter("lite_score_calls_total"),
          reg.GetCounter("lite_candidates_scored_total"),
          reg.GetCounter("lite_feedback_runs_total"),
          reg.GetCounter("lite_feedback_censored_total"),
          reg.GetCounter("lite_feedback_dropped_total"),
          reg.GetCounter("lite_adaptive_updates_total"),
          reg.GetGauge("lite_update_domain_accuracy"),
          reg.GetHistogram("lite_score_candidates_seconds"),
          reg.GetHistogram("lite_featurize_seconds"),
          reg.GetHistogram("lite_adaptive_update_seconds"),
      };
    }();
    return *m;
  }
};

}  // namespace

std::vector<double> ScoreCandidatesWithEnsemble(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    const std::vector<const NecsModel*>& models,
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env, const std::vector<spark::Config>& candidates,
    QuantBackend backend, size_t threads) {
  std::vector<double> scores(candidates.size());
  if (candidates.empty()) return scores;
  LITE_CHECK(!models.empty()) << "scoring with an empty ensemble";
  const LiteMetrics& metrics = LiteMetrics::Get();
  obs::Span score_span("lite.score_candidates", metrics.score_seconds);
  metrics.score_calls->Inc();
  metrics.candidates_scored->Inc(candidates.size());

  // Featurize once: every stage feature except the knob vector is identical
  // across candidates of one (app, data, env) query, so per-candidate
  // featurization would recompute the same tokens/DAGs/BoWs B times.
  CorpusBuilder builder(runner);
  const CandidateEval base = [&] {
    obs::Span span("lite.featurize", metrics.featurize_seconds);
    return builder.FeaturizeCandidate(feature_space, app, data, env,
                                      candidates[0]);
  }();
  // One plan per ensemble member: the knob-independent feature rows (data
  // and env features + cached encodings) are frozen here, so the sharded
  // phase below touches no model state, no encoder cache and no heap —
  // each candidate is a template copy, knob writes and a tower pass in the
  // worker's arena.
  std::vector<ScoringPlan> plans;
  plans.reserve(models.size());
  {
    obs::Span span("lite.warm_encoder_cache");
    for (const NecsModel* m : models) {
      plans.push_back(backend == QuantBackend::kExactFp32
                          ? m->BuildPlan(base)
                          : m->Quantized(backend)->BuildPlan(base));
    }
  }

  const auto& space = spark::KnobSpace::Spark16();
  std::vector<std::vector<double>> knobs(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    knobs[i] = space.Normalize(candidates[i]);
  }

  // Every row is scored independently, so block composition (and thread
  // count) never changes a score. Blocks of up to 32 amortize the per-pass
  // overhead; smaller requests split into one block per pool worker so they
  // still fan out when scored from outside the pool.
  ThreadPool* pool = threads == 1 ? nullptr : &ThreadPool::WithThreads(threads);
  constexpr size_t kMaxBlock = 32;
  const size_t workers = pool == nullptr ? 1 : pool->size();
  const size_t block = std::min(kMaxBlock, (candidates.size() + workers - 1) /
                                               workers);
  const size_t num_blocks = (candidates.size() + block - 1) / block;
  auto score_block = [&](size_t b) {
    const size_t begin = b * block;
    const size_t end = std::min(begin + block, candidates.size());
    qk::Arena* arena = qk::Arena::ThreadLocal();
    std::vector<double> member(end - begin);
    std::vector<double> acc(end - begin, 0.0);
    for (const ScoringPlan& plan : plans) {
      plan.ScoreBlock(knobs, begin, end, member.data(), arena);
      // Ensemble mean in log space (geometric mean of predicted times).
      for (size_t c = 0; c < member.size(); ++c) {
        acc[c] += std::log1p(std::max(member[c], 0.0));
      }
    }
    for (size_t c = 0; c < acc.size(); ++c) {
      scores[begin + c] =
          std::expm1(acc[c] / static_cast<double>(models.size()));
    }
  };

  if (pool == nullptr) {
    for (size_t b = 0; b < num_blocks; ++b) score_block(b);
  } else {
    pool->ParallelFor(num_blocks, score_block);
  }
  return scores;
}

LiteSystem::LiteSystem(const spark::SparkRunner* runner, LiteOptions options)
    : runner_(runner), options_(std::move(options)), acg_(options_.acg) {}

void LiteSystem::TrainOffline() {
  CorpusBuilder builder(runner_);
  corpus_ = builder.Build(options_.corpus);
  LITE_CHECK(!corpus_.instances.empty()) << "offline corpus is empty";
  NecsTrainer trainer;
  models_.clear();
  size_t k = std::max<size_t>(options_.ensemble_size, 1);
  for (size_t m = 0; m < k; ++m) {
    auto model = std::make_unique<NecsModel>(corpus_.vocab->size(),
                                             corpus_.op_vocab->size(),
                                             options_.necs,
                                             options_.seed + 1000 * m);
    TrainOptions topts = options_.train;
    topts.seed = options_.train.seed + 31 * m;
    trainer.Train(model.get(), corpus_.instances, topts);
    models_.push_back(std::move(model));
  }
  acg_.Fit(corpus_);
  if (options_.stage_tuning) {
    stage_head_ = std::make_unique<StageHead>(
        options_.necs.code_dim, options_.necs.gcn_hidden,
        options_.seed + 7777);
    StageHeadTrainOptions hopts = options_.stage_head_train;
    stage_head_->Train(*models_[0], corpus_.instances, hopts);
  } else {
    stage_head_.reset();
  }
  trained_ = true;
}

LiteSystem::StagedRecommendation LiteSystem::RecommendStaged(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env) const {
  StagedRecommendation out;
  out.base = Recommend(app, data, env);
  out.staged.base = out.base.config;
  if (stage_head_ == nullptr) return out;
  spark::StageEvalFactory factory = MakeStageHeadEvalFactory(
      stage_head_.get(), models_[0].get(), runner_, &corpus_, &app, data,
      &env);
  spark::StagePlannerOptions popts;
  popts.values_per_knob = options_.stage_values_per_knob;
  spark::StagePlanner planner(popts);
  spark::StagePlan plan = planner.Plan(
      app, spark::ResolveIterations(app, data), out.base.config, factory(1.0));
  if (plan.ok && !plan.baseline_failed) {
    out.staged = plan.staged;
    out.baseline_seconds = plan.baseline_seconds;
    out.planned_seconds = plan.planned_seconds;
    out.planned = true;
  }
  return out;
}

spark::RetuneResult LiteSystem::RetuneStaged(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env, const spark::StagedConfig& current,
    const std::vector<spark::StageEvent>& observed) const {
  LITE_CHECK(trained_) << "RetuneStaged before TrainOffline";
  spark::RetuneResult out;
  out.staged = current;
  if (stage_head_ == nullptr) return out;
  spark::StageEvalFactory factory = MakeStageHeadEvalFactory(
      stage_head_.get(), models_[0].get(), runner_, &corpus_, &app, data,
      &env);
  spark::StagePlannerOptions popts;
  popts.values_per_knob = options_.stage_values_per_knob;
  spark::StagePlanner planner(popts);
  return planner.Retune(app, spark::ResolveIterations(app, data), current,
                        observed, factory);
}

std::vector<double> LiteSystem::ScoreCandidates(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env,
    const std::vector<spark::Config>& candidates) const {
  LITE_CHECK(trained_) << "ScoreCandidates before TrainOffline";
  std::vector<const NecsModel*> models;
  models.reserve(models_.size());
  for (const auto& m : models_) models.push_back(m.get());
  return serve::ScoreCandidateSet(
      runner_, corpus_, models, app, data, env, candidates,
      serve::ScoringOptions{.threads = options_.scoring_threads,
                            .backend = options_.scoring_backend});
}

LiteSystem::Recommendation LiteSystem::Recommend(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env) const {
  LITE_CHECK(trained_) << "Recommend before TrainOffline";
  serve::PipelineContext ctx;
  ctx.acg = &acg_;
  ctx.num_candidates = options_.num_candidates;
  ctx.seed = options_.seed;
  ctx.sla_deadline_seconds = options_.sla_deadline_seconds;
  return serve::RunRecommendPipeline(
      ctx, app, data, env, [&](const std::vector<spark::Config>& candidates) {
        return ScoreCandidates(app, data, env, candidates);
      });
}

void LiteSystem::CollectFeedback(const spark::ApplicationSpec& app,
                                 const spark::DataSpec& data,
                                 const spark::ClusterEnv& env,
                                 const spark::Config& config) {
  LITE_CHECK(trained_) << "CollectFeedback before TrainOffline";
  // Execute the application with the recommended configuration and extract
  // target-domain stage instances from the observed run.
  spark::AppRunResult run = runner_->cost_model().Run(app, data, env, config);
  LiteMetrics::Get().feedback_runs->Inc();
  if (run.failed) {
    LiteMetrics::Get().feedback_dropped->Inc();
    return;  // failed runs carry no stage-level labels.
  }
  IngestFeedbackRun(app, data, env, config, run, /*sentinel_labels=*/false);
}

void LiteSystem::CollectFeedback(const spark::ApplicationSpec& app,
                                 const spark::DataSpec& data,
                                 const spark::ClusterEnv& env,
                                 const spark::Config& config,
                                 spark::ResilientRunner* harness) {
  LITE_CHECK(trained_) << "CollectFeedback before TrainOffline";
  LITE_CHECK(harness != nullptr) << "CollectFeedback: null harness";
  spark::MeasureOutcome m = harness->MeasureDetailed(app, data, env, config);
  const LiteMetrics& metrics = LiteMetrics::Get();
  metrics.feedback_runs->Inc();
  if (m.censored) metrics.feedback_censored->Inc();
  if (!m.result.failed) {
    IngestFeedbackRun(app, data, env, config, m.result,
                      /*sentinel_labels=*/false);
    return;
  }
  if (options_.censored_feedback) {
    // Transient exhaustion carries no information about the configuration —
    // drop it. Deterministic failures keep their successful stage prefix as
    // real labels plus the capped failing stage, which the extractor marks
    // censored so the updater one-sides its loss.
    if (m.transient) {
      metrics.feedback_dropped->Inc();
      return;
    }
    IngestFeedbackRun(app, data, env, config, m.result,
                      /*sentinel_labels=*/false);
    return;
  }
  // Naive protocol: pretend the cap is a real observation for every kept
  // stage. This is what fitting the 7200 s sentinel looks like.
  IngestFeedbackRun(app, data, env, config, m.result,
                    /*sentinel_labels=*/true);
}

void LiteSystem::IngestFeedbackRun(const spark::ApplicationSpec& app,
                                   const spark::DataSpec& data,
                                   const spark::ClusterEnv& env,
                                   const spark::Config& config,
                                   const spark::AppRunResult& run,
                                   bool sentinel_labels) {
  LITE_CHECK(trained_) << "IngestFeedbackRun before TrainOffline";
  std::vector<StageInstance> instances = serve::ExtractFeedbackInstances(
      runner_, corpus_, options_.corpus.max_stage_instances_per_run, app,
      data, env, config, run, sentinel_labels);
  feedback_.insert(feedback_.end(), instances.begin(), instances.end());

  if (feedback_.size() >= options_.update_batch) ForceAdaptiveUpdate();
}

UpdateStats LiteSystem::ForceAdaptiveUpdate() {
  LITE_CHECK(trained_) << "update before TrainOffline";
  UpdateStats stats;
  if (feedback_.empty()) return stats;
  const LiteMetrics& metrics = LiteMetrics::Get();
  obs::Span span("lite.adaptive_update", metrics.update_seconds);
  AdaptiveModelUpdater updater(options_.update);
  // Aggregate across ensemble members: overwriting `stats` per member would
  // report only the last member (and the gauge would track one model of k).
  for (auto& model : models_) {
    UpdateStats member =
        updater.Update(model.get(), corpus_.instances, feedback_);
    stats.Accumulate(member);
  }
  stats.FinishAggregation();
  metrics.adaptive_updates->Inc();
  metrics.domain_accuracy->Set(stats.final_domain_accuracy);
  feedback_.clear();
  return stats;
}

}  // namespace lite
