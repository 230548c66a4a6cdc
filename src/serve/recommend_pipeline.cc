#include "serve/recommend_pipeline.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <set>

#include "lite/features.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/guardrail.h"
#include "sparksim/knob.h"
#include "util/logging.h"

namespace lite::serve {

namespace {
// Pipeline-side observability (see docs/OBSERVABILITY.md for the catalog).
// These resolve the same named metrics as the scoring instrumentation in
// lite_system.cc — MetricsRegistry::Global() returns one object per name,
// so every serving surface shares one set of series.
struct PipelineMetrics {
  obs::Counter* recommendations;
  obs::Counter* candidates_evaluated;
  obs::Counter* nonfinite_scores;
  obs::Counter* feedback_bad_stage;
  obs::Counter* sla_filtered;
  obs::Counter* sla_infeasible;
  obs::Counter* candidates_pinned;
  obs::Counter* seeded_candidates;
  obs::Histogram* recommend_seconds;

  static const PipelineMetrics& Get() {
    static const PipelineMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new PipelineMetrics{
          reg.GetCounter("lite_recommendations_total"),
          reg.GetCounter("lite_candidates_evaluated_total"),
          reg.GetCounter("lite_recommend_nonfinite_scores_total"),
          reg.GetCounter("lite_feedback_bad_stage_total"),
          reg.GetCounter("lite_sla_filtered_candidates_total"),
          reg.GetCounter("lite_sla_infeasible_total"),
          reg.GetCounter("lite_candidates_pinned_total"),
          reg.GetCounter("lite_seeded_candidates_total"),
          reg.GetHistogram("lite_recommend_seconds"),
      };
    }();
    return *m;
  }
};
}  // namespace

std::vector<double> ScoreCandidateSet(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    const std::vector<const NecsModel*>& models,
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env, const std::vector<spark::Config>& candidates,
    const ScoringOptions& options) {
  return ScoreCandidatesWithEnsemble(runner, feature_space, models, app, data,
                                     env, candidates, options.backend,
                                     options.threads);
}

LiteSystem::Recommendation RunRecommendPipeline(
    const PipelineContext& ctx, const spark::ApplicationSpec& app,
    const spark::DataSpec& data, const spark::ClusterEnv& env,
    const ScoreFn& score) {
  LITE_CHECK(ctx.acg != nullptr) << "RunRecommendPipeline without a generator";
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  obs::Span span("lite.recommend", metrics.recommend_seconds);
  auto t0 = std::chrono::steady_clock::now();

  Rng rng(ctx.seed ^ std::hash<std::string>{}(app.name));
  // Candidates come exclusively from the adaptive search region (Eq. 5
  // samples from S_w). Deliberately NOT adding the default configuration:
  // NECS is trained on small-data instances where frugal defaults are
  // near-optimal, so at large scale it would misrank the default ahead of
  // the region's configurations — the region is the scale-migration device.
  std::vector<spark::Config> sampled =
      ctx.acg->SampleCandidates(app, data, env, ctx.num_candidates, &rng);
  // Knob-importance pruning: pin every low-importance knob to the reference
  // (the tenant's incumbent), so the subsequent dedupe collapses candidates
  // that differ only in knobs the model is insensitive to. Scoring cost
  // shrinks with the pool; the knobs that matter still vary freely.
  if (ctx.knob_importance != nullptr && ctx.pin_reference != nullptr &&
      ctx.importance_keep_fraction < 1.0 &&
      ctx.pin_reference->size() == spark::kNumKnobs) {
    const std::vector<size_t> free_knobs =
        TopImportanceKnobs(*ctx.knob_importance, ctx.importance_keep_fraction);
    std::vector<bool> keep_free(spark::kNumKnobs, false);
    for (size_t k : free_knobs) {
      if (k < keep_free.size()) keep_free[k] = true;
    }
    for (spark::Config& c : sampled) {
      if (c.size() != spark::kNumKnobs) continue;
      for (size_t k = 0; k < spark::kNumKnobs; ++k) {
        if (!keep_free[k]) c[k] = (*ctx.pin_reference)[k];
      }
    }
    metrics.candidates_pinned->Inc(sampled.size());
  }
  std::vector<spark::Config> candidates = DedupeConfigs(std::move(sampled));
  // Resource-manager pre-check: drop configurations the cluster cannot even
  // schedule (static, no execution involved). Keep the raw set if the
  // filter would empty it.
  {
    std::vector<spark::Config> feasible;
    for (const auto& c : candidates) {
      if (spark::PlacementFeasible(env, c)) feasible.push_back(c);
    }
    if (!feasible.empty()) candidates = std::move(feasible);
  }
  // Warm-start seeds are appended last so the pool stays a strict superset
  // of the unseeded pool: each seed is feasibility-checked on its own
  // (dropping an infeasible seed never triggers the keep-raw fallback
  // above) and deduped against what is already in the pool.
  if (ctx.seed_candidates != nullptr && !ctx.seed_candidates->empty()) {
    std::set<spark::Config> have(candidates.begin(), candidates.end());
    size_t appended = 0;
    const spark::KnobSpace& space = spark::KnobSpace::Spark16();
    for (const spark::Config& seed : *ctx.seed_candidates) {
      if (seed.size() != spark::kNumKnobs) continue;
      // Seeds come from outside the sampler (a retrieval index, possibly
      // loaded from disk), so range-check before the placement math: a
      // config with executor.cores = 0 would divide by zero inside
      // PlacementFeasible.
      if (!space.IsValid(seed)) continue;
      if (!spark::PlacementFeasible(env, seed)) continue;
      if (have.insert(seed).second) {
        candidates.push_back(seed);
        ++appended;
      }
    }
    if (appended > 0) metrics.seeded_candidates->Inc(appended);
  }

  std::vector<double> scores = score(candidates);
  LITE_CHECK(scores.size() == candidates.size())
      << "score callback returned " << scores.size() << " scores for "
      << candidates.size() << " candidates";
  // SLA-aware argmin: candidates whose predicted runtime violates the
  // tenant's deadline are filtered before argmin; the plain argmin result
  // is kept as the fallback when no candidate meets the deadline (an SLA
  // must never leave the tenant with nothing to run). With the default
  // infinite deadline the filter never fires and this is the PR 5 argmin
  // bit for bit.
  const double deadline = ctx.sla_deadline_seconds;
  const bool sla_active = std::isfinite(deadline);
  LiteSystem::Recommendation best;
  best.predicted_seconds = std::numeric_limits<double>::infinity();
  double best_overall = std::numeric_limits<double>::infinity();
  size_t best_overall_index = candidates.size();
  size_t nonfinite = 0;
  size_t sla_filtered = 0;
  size_t best_index = candidates.size();
  for (size_t i = 0; i < candidates.size(); ++i) {
    // A NaN score fails every `<`, so without this guard an all-NaN (or
    // leading-NaN) vector silently wins with a default-constructed Config.
    if (!std::isfinite(scores[i])) {
      ++nonfinite;
      continue;
    }
    if (scores[i] < best_overall) {
      best_overall = scores[i];
      best_overall_index = i;
    }
    if (sla_active && scores[i] > deadline) {
      ++sla_filtered;
      continue;
    }
    if (scores[i] < best.predicted_seconds) {
      best.predicted_seconds = scores[i];
      best.config = candidates[i];
      best_index = i;
    }
  }
  if (nonfinite > 0) metrics.nonfinite_scores->Inc(nonfinite);
  if (sla_filtered > 0) metrics.sla_filtered->Inc(sla_filtered);
  if (best_index == candidates.size() && best_overall_index < candidates.size()) {
    // Every finite-scored candidate violated the deadline: fall back to the
    // fastest predicted candidate and record the infeasible SLA.
    LITE_WARN << "recommend(" << app.name << "): no candidate meets the "
              << deadline << "s SLA deadline (best predicted "
              << best_overall << "s); serving the fastest candidate";
    metrics.sla_infeasible->Inc();
    best.predicted_seconds = best_overall;
    best.config = candidates[best_overall_index];
    best_index = best_overall_index;
  }
  if (best_index == candidates.size() && !candidates.empty()) {
    LITE_WARN << "recommend(" << app.name << "): all " << candidates.size()
              << " candidate scores non-finite; falling back to the first "
                 "candidate";
    best.config = candidates[0];
    best.predicted_seconds = scores[0];
  }
  best.candidates_evaluated = candidates.size();
  metrics.recommendations->Inc();
  metrics.candidates_evaluated->Inc(candidates.size());
  auto t1 = std::chrono::steady_clock::now();
  best.recommend_wall_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  return best;
}

std::vector<StageInstance> ExtractFeedbackInstances(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    size_t max_stage_instances, const spark::ApplicationSpec& app,
    const spark::DataSpec& data, const spark::ClusterEnv& env,
    const spark::Config& config, const spark::AppRunResult& run,
    bool sentinel_labels) {
  spark::AppArtifacts artifacts = runner->instrumenter().Instrument(app);
  FeatureExtractor extractor(feature_space.vocab.get(),
                             feature_space.op_vocab.get(),
                             feature_space.max_code_tokens,
                             feature_space.bow_dims);
  // Subsample to the same per-run cap as offline training.
  std::vector<spark::StageRunResult> kept;
  size_t cap = max_stage_instances;
  size_t dropped = 0;
  std::vector<bool> seen(app.stages.size(), false);
  for (const auto& sr : run.stage_runs) {
    if (kept.size() >= cap) break;
    // A stage run that does not name a stage of `app` (malformed or
    // fault-injected result) would index `seen` and the featurizer out of
    // bounds — drop it and count it instead.
    if (sr.stage_index >= app.stages.size()) {
      ++dropped;
      continue;
    }
    if (!seen[sr.stage_index] || kept.size() < cap / 2) {
      seen[sr.stage_index] = true;
      kept.push_back(sr);
    }
  }
  if (dropped > 0) {
    PipelineMetrics::Get().feedback_bad_stage->Inc(dropped);
    LITE_WARN << "feedback(" << app.name << "): dropped " << dropped
              << " stage runs with out-of-range stage_index (app has "
              << app.stages.size() << " stages)";
  }
  double total = run.total_seconds;
  if (sentinel_labels) {
    double sentinel = runner->failure_cap_seconds();
    for (auto& sr : kept) {
      sr.seconds = sentinel;
      sr.failed = false;  // naive: the cap masquerades as a real label.
    }
    total = sentinel;
  }
  return extractor.ExtractRun(app, artifacts, data, env, config, kept, total,
                              /*app_instance_id=*/-2, /*app_id=*/-1);
}

}  // namespace lite::serve
