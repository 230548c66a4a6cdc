// The single online recommendation pipeline (Fig. 2, Steps 2-3).
//
// Every serving surface — LiteSystem::Recommend (the in-process tuner),
// LoadedLiteModel::Recommend (snapshot serving) and serve::TuningService
// (the concurrent tuning service) — routes through RunRecommendPipeline, so
// the candidate-sample -> dedupe -> feasibility-filter -> score -> argmin
// sequence exists exactly once and cannot drift between paths again. The
// pipeline owns the serving-side lite_* metrics and spans, the per-request
// RNG derivation (seed ^ hash(app.name), so requests are stateless and
// safe to serve concurrently), and the non-finite-score-hardened argmin.
//
// ScoreCandidateSet is the serving entry to candidate scoring: it forwards
// to ScoreCandidatesWithEnsemble, the one scorer, with the request's backend
// and thread count. The exact backend is bit-identical for every thread
// count to the scalar reference loop that testkit::ScalarReferenceScores
// keeps for the differential suites (ordered reduction; see
// docs/TESTING.md).
//
// ExtractFeedbackInstances is the single implementation of Step 4's
// run -> target-domain-instances extraction (subsampling cap, sentinel
// relabeling, and the bounds check that drops malformed stage runs).
//
// These functions are compiled into lite_core (they sit below LiteSystem in
// the dependency order); the TuningService built on top of them lives in
// the lite_serve library. See docs/SERVING.md.
#ifndef LITE_SERVE_RECOMMEND_PIPELINE_H_
#define LITE_SERVE_RECOMMEND_PIPELINE_H_

#include <functional>
#include <limits>
#include <vector>

#include "lite/lite_system.h"

namespace lite::serve {

/// How a candidate set is scored.
struct ScoringOptions {
  /// Worker threads (0 = one per hardware core, 1 = single-threaded).
  /// Scores are bit-identical for every value.
  size_t threads = 0;
  /// Scoring-tower backend. kExactFp32 (default) is bit-identical to the
  /// scalar reference (DiffQuantTransparency enforces this); kInt8 runs the
  /// quantized SIMD kernels with bounded score error
  /// (docs/QUANTIZATION.md).
  QuantBackend backend = QuantBackend::kExactFp32;
};

/// Scores `candidates` with the NECS ensemble under `options`: entry i is
/// the ensemble-mean predicted application seconds of candidates[i].
/// LiteSystem::ScoreCandidates and the snapshot/serving paths all delegate
/// here; it forwards to ScoreCandidatesWithEnsemble.
std::vector<double> ScoreCandidateSet(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    const std::vector<const NecsModel*>& models,
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env, const std::vector<spark::Config>& candidates,
    const ScoringOptions& options);

/// The model-dependent inputs of one recommendation. Everything referenced
/// must outlive the call; the pipeline itself is stateless.
struct PipelineContext {
  const CandidateGenerator* acg = nullptr;
  size_t num_candidates = 60;
  /// Base seed; the per-request RNG is seed ^ hash(app.name), so identical
  /// (seed, app) pairs draw identical candidate streams on every path.
  uint64_t seed = 41;

  // --- Guardrail extensions (serve/guardrail.h). All defaults are inert:
  // --- a default-constructed context is bit-identical to the PR 5 pipeline.

  /// SLA deadline on predicted runtime: finite values make the argmin skip
  /// candidates whose score exceeds the deadline (counted in
  /// lite_sla_filtered_candidates_total). When no candidate qualifies, the
  /// plain argmin result is returned and lite_sla_infeasible_total counts
  /// the miss — an SLA must never leave the tenant with nothing.
  double sla_deadline_seconds = std::numeric_limits<double>::infinity();
  /// Knob-importance pruning (LOCAT-style): when all three fields are set,
  /// every sampled candidate's knobs *outside* the top
  /// `importance_keep_fraction` fraction (by importance rank) are pinned to
  /// `pin_reference`'s values before dedupe, collapsing the pool to
  /// variations of the knobs the model actually cares about. Both pointers
  /// must outlive the call.
  const std::vector<double>* knob_importance = nullptr;
  double importance_keep_fraction = 1.0;
  const spark::Config* pin_reference = nullptr;

  // --- Retrieval extension (serve/retrieval_cache.h). Inert by default.

  /// Warm-start seeds: configurations retrieved for similar historical
  /// workloads, appended to the pool *after* the sampled candidates went
  /// through pruning, dedupe and the feasibility filter. Seeds are
  /// feasibility-checked individually (an infeasible seed is dropped, never
  /// the keep-raw fallback) and deduped against the pool, so the seeded
  /// pool is always a superset of the unseeded one — the seeded argmin can
  /// never be worse than the unseeded argmin on the same snapshot (the
  /// retrieval oracle invariant). nullptr or empty = bit-identical to the
  /// unseeded pipeline.
  const std::vector<spark::Config>* seed_candidates = nullptr;
};

/// Scoring callback: maps the filtered candidate set to predicted seconds
/// (entry i scores candidates[i]).
using ScoreFn =
    std::function<std::vector<double>(const std::vector<spark::Config>&)>;

/// Runs Steps 2-3 once: sample candidates from the adaptive region, dedupe,
/// drop placement-infeasible configurations (keeping the raw set if the
/// filter would empty it), score via `score`, and argmin.
///
/// Non-finite scores are skipped by the argmin (a NaN would otherwise fail
/// every `<` and silently return a default-constructed Config); if every
/// score is non-finite the first candidate is returned with a warning and
/// the lite_recommend_nonfinite_scores_total counter records the event.
LiteSystem::Recommendation RunRecommendPipeline(
    const PipelineContext& ctx, const spark::ApplicationSpec& app,
    const spark::DataSpec& data, const spark::ClusterEnv& env,
    const ScoreFn& score);

/// Step 4 feedback extraction: subsamples `run`'s stage runs to
/// `max_stage_instances`, optionally relabels them with the failure-cap
/// sentinel (the naive ablation protocol), and featurizes them as
/// target-domain instances. Stage runs whose `stage_index` does not name a
/// stage of `app` are dropped and counted in lite_feedback_bad_stage_total
/// (a malformed or fault-injected result must never index out of bounds).
std::vector<StageInstance> ExtractFeedbackInstances(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    size_t max_stage_instances, const spark::ApplicationSpec& app,
    const spark::DataSpec& data, const spark::ClusterEnv& env,
    const spark::Config& config, const spark::AppRunResult& run,
    bool sentinel_labels);

}  // namespace lite::serve

#endif  // LITE_SERVE_RECOMMEND_PIPELINE_H_
