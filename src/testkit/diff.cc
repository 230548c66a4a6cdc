#include "testkit/diff.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lite/qnecs.h"
#include "lite/snapshot.h"
#include "obs/metrics.h"
#include "serve/recommend_pipeline.h"
#include "serve/tuning_service.h"
#include "tensor/qkernels.h"
#include "obs/trace.h"
#include "sparksim/eventlog.h"
#include "sparksim/resilient_runner.h"
#include "sparksim/trace.h"
#include "util/thread_pool.h"

namespace lite::testkit {

namespace {

DiffResult Fail(const std::string& message) { return {false, message}; }

std::string Fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::vector<double> ScalarReferenceScores(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    const std::vector<const NecsModel*>& models,
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env,
    const std::vector<spark::Config>& candidates) {
  std::vector<double> scores(candidates.size());
  CorpusBuilder builder(runner);
  for (size_t i = 0; i < candidates.size(); ++i) {
    CandidateEval ce = builder.FeaturizeCandidate(feature_space, app, data,
                                                  env, candidates[i]);
    double score = 0.0;
    for (const NecsModel* model : models) {
      double total = 0.0;
      for (size_t s = 0; s < ce.stage_instances.size(); ++s) {
        double target = model->PredictTarget(ce.stage_instances[s]);
        double reps = s < ce.stage_reps.size()
                          ? static_cast<double>(ce.stage_reps[s])
                          : 1.0;
        total += SecondsFromTarget(target) * reps;
      }
      score += std::log1p(std::max(total, 0.0));
    }
    score /= static_cast<double>(models.size());
    scores[i] = std::expm1(score);
  }
  return scores;
}

DiffResult DiffScalarVsBatch(const NecsModel& model,
                             std::span<const StageInstance> insts) {
  std::vector<double> batched = model.PredictBatch(insts);
  if (batched.size() != insts.size()) {
    return Fail("PredictBatch returned " + std::to_string(batched.size()) +
                " predictions for " + std::to_string(insts.size()) +
                " instances");
  }
  for (size_t i = 0; i < insts.size(); ++i) {
    double scalar = model.PredictTarget(insts[i]);
    if (scalar != batched[i]) {
      return Fail("instance " + std::to_string(i) + ": scalar " +
                  Fmt(scalar) + " != batched " + Fmt(batched[i]));
    }
  }
  return {};
}

DiffResult DiffScoringThreadCounts(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    const std::vector<const NecsModel*>& models, const WorkloadTuple& t,
    const std::vector<spark::Config>& candidates,
    const std::vector<size_t>& thread_counts) {
  if (thread_counts.empty()) return {};
  std::vector<double> reference;
  size_t reference_threads = 0;
  for (size_t threads : thread_counts) {
    std::vector<double> scores = ScoreCandidatesWithEnsemble(
        runner, feature_space, models, *t.app, t.data, t.env, candidates,
        QuantBackend::kExactFp32, threads);
    if (reference.empty()) {
      reference = scores;
      reference_threads = threads;
      continue;
    }
    if (scores.size() != reference.size()) {
      return Fail("score count changed between thread counts");
    }
    for (size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] != reference[i]) {
        return Fail("candidate " + std::to_string(i) + ": " +
                    std::to_string(reference_threads) + " thread(s) -> " +
                    Fmt(reference[i]) + " but " + std::to_string(threads) +
                    " thread(s) -> " + Fmt(scores[i]));
      }
    }
  }
  return {};
}

DiffResult DiffPlanVsScalar(const spark::SparkRunner* runner,
                            const Corpus& feature_space,
                            const std::vector<const NecsModel*>& models,
                            const WorkloadTuple& t,
                            const std::vector<spark::Config>& candidates,
                            const std::vector<size_t>& thread_counts) {
  std::vector<double> reference = ScalarReferenceScores(
      runner, feature_space, models, *t.app, t.data, t.env, candidates);
  for (size_t threads : thread_counts) {
    for (bool in_pool_task : {false, true}) {
      auto score = [&] {
        return ScoreCandidatesWithEnsemble(runner, feature_space, models,
                                           *t.app, t.data, t.env, candidates,
                                           QuantBackend::kExactFp32, threads);
      };
      std::vector<double> plan;
      if (in_pool_task) {
        ThreadPool::Shared().Submit([&] { plan = score(); }).get();
      } else {
        plan = score();
      }
      const std::string where = std::to_string(threads) + " thread(s)" +
                                (in_pool_task ? " inside a pool task" : "");
      if (plan.size() != reference.size()) {
        return Fail("plan path returned " + std::to_string(plan.size()) +
                    " scores for " + std::to_string(reference.size()) +
                    " candidates at " + where);
      }
      for (size_t i = 0; i < plan.size(); ++i) {
        if (plan[i] != reference[i]) {
          return Fail("candidate " + std::to_string(i) + " of " +
                      std::to_string(plan.size()) + " at " + where +
                      ": plan " + Fmt(plan[i]) + " != scalar " +
                      Fmt(reference[i]));
        }
      }
    }
  }
  return {};
}

DiffResult DiffObservabilityTransparency(
    const LiteSystem& system, const spark::SparkRunner& runner,
    const WorkloadTuple& t, const std::vector<spark::Config>& candidates,
    const std::vector<size_t>& thread_counts) {
  std::vector<const NecsModel*> models;
  for (size_t m = 0; m < system.ensemble_size(); ++m) {
    models.push_back(system.ensemble_member(m));
  }

  const bool saved = obs::Enabled();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (recorder.recording()) {
    return Fail("a trace recording is already live; transparency needs to "
                "own the recorder");
  }

  // Pass 1: observability fully off — this is the ground truth.
  obs::SetEnabled(false);
  std::vector<std::vector<double>> off_scores;
  for (size_t threads : thread_counts) {
    off_scores.push_back(ScoreCandidatesWithEnsemble(
        &runner, system.corpus(), models, *t.app, t.data, t.env, candidates,
        QuantBackend::kExactFp32, threads));
  }
  LiteSystem::Recommendation off_rec = system.Recommend(*t.app, t.data, t.env);

  // Pass 2: maximum observability — metrics on and a live trace recording,
  // so every span/counter site on the scoring path actually executes.
  obs::SetEnabled(true);
  recorder.Start();
  std::vector<std::vector<double>> on_scores;
  for (size_t threads : thread_counts) {
    on_scores.push_back(ScoreCandidatesWithEnsemble(
        &runner, system.corpus(), models, *t.app, t.data, t.env, candidates,
        QuantBackend::kExactFp32, threads));
  }
  LiteSystem::Recommendation on_rec = system.Recommend(*t.app, t.data, t.env);
  recorder.Stop();
  obs::SetEnabled(saved);

  for (size_t k = 0; k < thread_counts.size(); ++k) {
    if (off_scores[k].size() != on_scores[k].size()) {
      return Fail("score count changed with observability enabled at " +
                  std::to_string(thread_counts[k]) + " thread(s)");
    }
    for (size_t i = 0; i < off_scores[k].size(); ++i) {
      if (off_scores[k][i] != on_scores[k][i]) {
        return Fail("candidate " + std::to_string(i) + " at " +
                    std::to_string(thread_counts[k]) + " thread(s): obs off " +
                    Fmt(off_scores[k][i]) + " != obs on " +
                    Fmt(on_scores[k][i]));
      }
    }
  }
  if (off_rec.config != on_rec.config ||
      off_rec.predicted_seconds != on_rec.predicted_seconds ||
      off_rec.candidates_evaluated != on_rec.candidates_evaluated) {
    return Fail("Recommend() diverged with observability enabled: " +
                Fmt(off_rec.predicted_seconds) + "s vs " +
                Fmt(on_rec.predicted_seconds) + "s");
  }
  return {};
}

DiffResult DiffRunnerVsResilient(const spark::SparkRunner& runner,
                                 const WorkloadTuple& t) {
  spark::ResilientRunner inert(&runner);
  double direct = runner.Measure(*t.app, t.data, t.env, t.config);
  spark::MeasureOutcome outcome =
      inert.MeasureDetailed(*t.app, t.data, t.env, t.config);
  if (outcome.seconds != direct) {
    return Fail("inert harness " + Fmt(outcome.seconds) +
                "s != plain runner " + Fmt(direct) + "s");
  }
  if (outcome.attempts != 1 || outcome.wasted_seconds != 0.0 ||
      outcome.transient) {
    return Fail("inert harness reported retries/waste on a clean run");
  }
  return {};
}

DiffResult DiffEventLogRoundTrip(const spark::SparkRunner& runner,
                                 const WorkloadTuple& t) {
  spark::Submission sub = runner.Submit(*t.app, t.data, t.env, t.config);
  spark::ParsedEventLog parsed;
  if (!spark::ParseEventLog(sub.event_log, &parsed)) {
    return Fail("event log does not parse back");
  }
  if (parsed.app_name != t.app->name || parsed.failed != sub.result.failed ||
      parsed.stages.size() != sub.result.stage_runs.size()) {
    return Fail("event-log header/stage structure drifted in round-trip");
  }
  const double tol = 1e-8;  // writer keeps 9 significant digits.
  for (size_t i = 0; i < parsed.stages.size(); ++i) {
    double want = sub.result.stage_runs[i].seconds;
    if (std::fabs(parsed.stages[i].seconds - want) >
        tol * std::max(1.0, want)) {
      return Fail("stage " + std::to_string(i) + " time drifted: wrote " +
                  Fmt(want) + "s, parsed " + Fmt(parsed.stages[i].seconds) +
                  "s");
    }
  }
  return {};
}

DiffResult DiffTraceRoundTrip(const spark::SparkRunner& runner,
                              const WorkloadTuple& t) {
  spark::AppRunResult run =
      runner.cost_model().Run(*t.app, t.data, t.env, t.config);
  std::string trace = spark::WriteChromeTrace(*t.app, run);
  spark::ParsedChromeTrace parsed;
  if (!spark::ParseChromeTrace(trace, &parsed)) {
    return Fail("chrome trace does not parse back");
  }
  if (parsed.spans.size() != run.stage_runs.size()) {
    return Fail("trace spans " + std::to_string(parsed.spans.size()) +
                " != stage executions " +
                std::to_string(run.stage_runs.size()));
  }
  for (size_t i = 0; i < parsed.spans.size(); ++i) {
    double want_us = run.stage_runs[i].seconds * 1e6;
    if (std::fabs(parsed.spans[i].dur_us - want_us) > 1e-2) {
      return Fail("span " + std::to_string(i) + " duration drifted");
    }
  }
  return {};
}

DiffResult DiffSnapshotRoundTrip(const LiteSystem& system,
                                 const spark::SparkRunner& runner,
                                 const WorkloadTuple& t,
                                 const std::string& dir) {
  if (!SaveSnapshot(system, dir)) {
    return Fail("SaveSnapshot failed for " + dir);
  }
  std::unique_ptr<LoadedLiteModel> loaded = LoadedLiteModel::Load(dir, &runner);
  if (loaded == nullptr) {
    return Fail("LoadedLiteModel::Load failed for " + dir);
  }
  if (loaded->ensemble_size() != system.ensemble_size()) {
    return Fail("ensemble size drifted in snapshot round-trip");
  }

  // (a) Bit-identical per-member predictions over the tuple's instances.
  CandidateEval ce = CorpusBuilder(&runner).FeaturizeCandidate(
      system.corpus(), *t.app, t.data, t.env, t.config);
  for (size_t m = 0; m < system.ensemble_size(); ++m) {
    const NecsModel* orig = system.ensemble_member(m);
    const NecsModel* rest = loaded->model(m);
    if (orig == nullptr || rest == nullptr) {
      return Fail("missing ensemble member " + std::to_string(m));
    }
    std::vector<double> a = orig->PredictBatch(ce.stage_instances);
    std::vector<double> b = rest->PredictBatch(ce.stage_instances);
    if (a != b) {
      return Fail("ensemble member " + std::to_string(m) +
                  " predictions drifted through the snapshot");
    }
  }

  // (b) Identical recommendation (same candidate stream seed + weights).
  LiteSystem::Recommendation orig = system.Recommend(*t.app, t.data, t.env);
  LiteSystem::Recommendation rest = loaded->Recommend(*t.app, t.data, t.env);
  if (orig.config != rest.config) {
    return Fail("recommended configuration drifted through the snapshot");
  }
  if (std::fabs(orig.predicted_seconds - rest.predicted_seconds) >
      1e-9 * (1.0 + std::fabs(orig.predicted_seconds))) {
    return Fail("predicted seconds drifted through the snapshot: " +
                Fmt(orig.predicted_seconds) + " vs " +
                Fmt(rest.predicted_seconds));
  }
  return {};
}

DiffResult DiffGuardrailTransparency(const spark::SparkRunner& runner,
                                     const WorkloadTuple& t,
                                     const std::string& dir) {
  auto recommend = [&](bool guarded) -> serve::TuningService::Response {
    serve::ServiceOptions opts;
    opts.guardrail.enabled = guarded;
    serve::TuningService service(&runner, opts);
    if (!service.LoadSnapshot(dir)) {
      return serve::TuningService::Response{};
    }
    int session = service.OpenSession("transparency-tenant");
    return service.Recommend(session, *t.app, t.data, t.env);
  };

  serve::TuningService::Response off = recommend(false);
  serve::TuningService::Response on = recommend(true);
  if (!off.ok) return Fail("guardrails-off serving failed: " + off.error);
  if (!on.ok) return Fail("guardrails-on serving failed: " + on.error);
  if (on.from_incumbent || on.probe) {
    return Fail("idle guardrail intervened (from_incumbent=" +
                std::to_string(on.from_incumbent) +
                " probe=" + std::to_string(on.probe) + ") with no evidence");
  }
  if (on.rec.config != off.rec.config) {
    return Fail("idle guardrail changed the recommended configuration for " +
                std::string(t.app->name));
  }
  if (on.rec.predicted_seconds != off.rec.predicted_seconds) {
    return Fail("idle guardrail moved predicted seconds: " +
                Fmt(off.rec.predicted_seconds) + " vs " +
                Fmt(on.rec.predicted_seconds));
  }
  if (on.rec.candidates_evaluated != off.rec.candidates_evaluated) {
    return Fail("idle guardrail changed the evaluated candidate count");
  }
  return {};
}

DiffResult DiffQuantizationAccuracy(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    const std::vector<const NecsModel*>& models, const WorkloadTuple& t,
    const std::vector<spark::Config>& candidates, QuantBackend backend,
    double max_rel_error, const std::vector<size_t>& thread_counts,
    QuantAccuracyReport* report) {
  if (backend == QuantBackend::kExactFp32) {
    return Fail("DiffQuantizationAccuracy needs a quantized backend");
  }
  if (candidates.empty()) return Fail("empty candidate set");
  const std::string who = std::string(QuantBackendName(backend)) + "/" +
                          std::string(t.app->name);

  std::vector<double> exact = ScoreCandidatesWithEnsemble(
      runner, feature_space, models, *t.app, t.data, t.env, candidates,
      QuantBackend::kExactFp32, 1);

  // Thread-count invariance of the quantized path.
  std::vector<double> quant;
  size_t reference_threads = 0;
  std::vector<size_t> counts =
      thread_counts.empty() ? std::vector<size_t>{1} : thread_counts;
  for (size_t threads : counts) {
    std::vector<double> scores = ScoreCandidatesWithEnsemble(
        runner, feature_space, models, *t.app, t.data, t.env, candidates,
        backend, threads);
    if (scores.size() != candidates.size()) {
      return Fail("quantized scoring returned " +
                  std::to_string(scores.size()) + " scores for " +
                  std::to_string(candidates.size()) + " candidates (" + who +
                  ")");
    }
    if (quant.empty()) {
      quant = scores;
      reference_threads = threads;
      continue;
    }
    for (size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] != quant[i]) {
        return Fail("quantized candidate " + std::to_string(i) + ": " +
                    std::to_string(reference_threads) + " thread(s) -> " +
                    Fmt(quant[i]) + " but " + std::to_string(threads) +
                    " thread(s) -> " + Fmt(scores[i]) + " (" + who + ")");
      }
    }
  }

  // ISA parity: generic and AVX2 kernels must score bit-identically. Twin
  // encoder caches are flushed before each pass so an encoding computed by
  // the other ISA can never be served from the cache and mask a divergence.
  if (qk::Avx2KernelAvailable()) {
    const qk::KernelIsa saved = qk::ActiveKernelIsa();
    std::vector<std::vector<double>> by_isa;
    for (qk::KernelIsa isa : {qk::KernelIsa::kGeneric, qk::KernelIsa::kAvx2}) {
      qk::SetKernelIsaForTest(isa);
      for (const NecsModel* m : models) {
        m->Quantized(backend)->InvalidateCache();
      }
      by_isa.push_back(ScoreCandidatesWithEnsemble(
          runner, feature_space, models, *t.app, t.data, t.env, candidates,
          backend, 1));
    }
    qk::SetKernelIsaForTest(saved);
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (by_isa[0][i] != by_isa[1][i]) {
        return Fail("candidate " + std::to_string(i) + ": generic kernel " +
                    Fmt(by_isa[0][i]) + " != AVX2 kernel " +
                    Fmt(by_isa[1][i]) + " (" + who + ")");
      }
    }
  }

  // Error bound and top-1 regret against the exact tower.
  QuantAccuracyReport local;
  size_t exact_best = 0, quant_best = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    double rel = std::fabs(quant[i] - exact[i]) /
                 std::max(std::fabs(exact[i]), 1e-9);
    if (rel > local.max_rel_error) local.max_rel_error = rel;
    if (exact[i] < exact[exact_best]) exact_best = i;
    if (quant[i] < quant[quant_best]) quant_best = i;
  }
  local.top1_exact_match = quant_best == exact_best;
  local.top1_regret = (exact[quant_best] - exact[exact_best]) /
                      std::max(std::fabs(exact[exact_best]), 1e-9);
  if (report != nullptr) *report = local;
  if (local.max_rel_error > max_rel_error) {
    return Fail("quantized score error " + Fmt(local.max_rel_error) +
                " exceeds the " + Fmt(max_rel_error) + " bound (" + who + ")");
  }
  return {};
}

DiffResult DiffQuantTransparency(
    const spark::SparkRunner* runner, const Corpus& feature_space,
    const std::vector<const NecsModel*>& models, const WorkloadTuple& t,
    const std::vector<spark::Config>& candidates,
    const std::vector<size_t>& thread_counts) {
  // The scalar reference has no thread count: score it once.
  const std::vector<double> scalar = ScalarReferenceScores(
      runner, feature_space, models, *t.app, t.data, t.env, candidates);
  for (size_t threads : thread_counts) {
    std::vector<double> reference = ScoreCandidatesWithEnsemble(
        runner, feature_space, models, *t.app, t.data, t.env, candidates,
        QuantBackend::kExactFp32, threads);
    serve::ScoringOptions opts;
    opts.threads = threads;
    std::vector<double> batched = serve::ScoreCandidateSet(
        runner, feature_space, models, *t.app, t.data, t.env, candidates,
        opts);
    if (batched.size() != reference.size() ||
        scalar.size() != reference.size()) {
      return Fail("score count drifted with the default backend at " +
                  std::to_string(threads) + " thread(s)");
    }
    for (size_t i = 0; i < reference.size(); ++i) {
      if (batched[i] != reference[i]) {
        return Fail("candidate " + std::to_string(i) + " at " +
                    std::to_string(threads) +
                    " thread(s): default-backend batched " + Fmt(batched[i]) +
                    " != reference " + Fmt(reference[i]));
      }
      if (scalar[i] != reference[i]) {
        return Fail("candidate " + std::to_string(i) + " at " +
                    std::to_string(threads) +
                    " thread(s): default-backend scalar " + Fmt(scalar[i]) +
                    " != reference " + Fmt(reference[i]));
      }
    }
  }
  return {};
}

DiffResult DiffRetrievalTransparency(const spark::SparkRunner& runner,
                                     const WorkloadTuple& t,
                                     const std::string& dir) {
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    auto make_service = [&](bool cached) {
      serve::ServiceOptions opts;
      opts.scoring.threads = threads;
      opts.retrieval.enabled = cached;
      auto service = std::make_unique<serve::TuningService>(&runner, opts);
      if (!service->LoadSnapshot(dir)) service.reset();
      return service;
    };
    auto off_service = make_service(false);
    auto on_service = make_service(true);
    if (off_service == nullptr || on_service == nullptr) {
      return Fail("snapshot failed to load from " + dir);
    }
    int off_session = off_service->OpenSession("transparency-tenant");
    int on_session = on_service->OpenSession("transparency-tenant");
    serve::TuningService::Response off =
        off_service->Recommend(off_session, *t.app, t.data, t.env);
    serve::TuningService::Response on =
        on_service->Recommend(on_session, *t.app, t.data, t.env);
    const std::string where =
        std::string(t.app->name) + " @" + std::to_string(threads) + " threads";
    if (!off.ok) return Fail("cache-off serving failed: " + off.error);
    if (!on.ok) return Fail("cache-on serving failed: " + on.error);
    if (on.from_cache) {
      return Fail("cold cache claimed a memo hit on the first request (" +
                  where + ")");
    }
    if (on.rec.config != off.rec.config) {
      return Fail("cold retrieval cache changed the recommended "
                  "configuration (" + where + ")");
    }
    if (on.rec.predicted_seconds != off.rec.predicted_seconds) {
      return Fail("cold retrieval cache moved predicted seconds: " +
                  Fmt(off.rec.predicted_seconds) + " vs " +
                  Fmt(on.rec.predicted_seconds) + " (" + where + ")");
    }
    if (on.rec.candidates_evaluated != off.rec.candidates_evaluated) {
      return Fail("cold retrieval cache changed the evaluated candidate "
                  "count (" + where + ")");
    }
    // Exact repeat: the memo must replay the first response verbatim.
    serve::TuningService::Response replay =
        on_service->Recommend(on_session, *t.app, t.data, t.env);
    if (!replay.ok) return Fail("memoized serving failed: " + replay.error);
    if (!replay.from_cache) {
      return Fail("exact-repeat request missed the memo (" + where + ")");
    }
    if (replay.rec.config != on.rec.config ||
        replay.rec.predicted_seconds != on.rec.predicted_seconds ||
        replay.rec.candidates_evaluated != on.rec.candidates_evaluated ||
        replay.rec.recommend_wall_seconds != on.rec.recommend_wall_seconds) {
      return Fail("memo hit did not replay the cached Response bit for bit (" +
                  where + ")");
    }
  }
  return {};
}

DiffResult DiffStageTuningTransparency(const spark::SparkRunner& runner,
                                       const WorkloadTuple& t,
                                       const std::string& dir) {
  struct BackendCase {
    QuantBackend backend;
    const char* name;
  };
  const BackendCase backends[] = {{QuantBackend::kExactFp32, "exact"},
                                  {QuantBackend::kInt8, "int8"}};
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    for (const BackendCase& bc : backends) {
      auto make_service = [&](bool stage_tuning) {
        serve::ServiceOptions opts;
        opts.scoring.threads = threads;
        opts.scoring.backend = bc.backend;
        opts.stage_tuning.enabled = stage_tuning;
        auto service = std::make_unique<serve::TuningService>(&runner, opts);
        if (!service->LoadSnapshot(dir)) service.reset();
        return service;
      };
      auto off_service = make_service(false);
      auto on_service = make_service(true);
      if (off_service == nullptr || on_service == nullptr) {
        return Fail("snapshot failed to load from " + dir);
      }
      const std::string where = std::string(t.app->name) + " @" +
                                std::to_string(threads) + " threads/" +
                                bc.name;
      int off_session = off_service->OpenSession("stage-transparency-tenant");
      int on_session = on_service->OpenSession("stage-transparency-tenant");
      serve::TuningService::Response off =
          off_service->Recommend(off_session, *t.app, t.data, t.env);
      serve::TuningService::Response on =
          on_service->Recommend(on_session, *t.app, t.data, t.env);
      if (!off.ok) return Fail("stage-tuning-off serving failed: " + off.error);
      if (!on.ok) return Fail("stage-tuning-on serving failed: " + on.error);
      auto same = [](const serve::TuningService::Response& a,
                     const serve::TuningService::Response& b) {
        return a.rec.config == b.rec.config &&
               a.rec.predicted_seconds == b.rec.predicted_seconds &&
               a.rec.candidates_evaluated == b.rec.candidates_evaluated;
      };
      if (!same(on, off)) {
        return Fail("enabling idle stage tuning moved the plain Recommend "
                    "response (" + where + ")");
      }
      // The staged endpoint's embedded base response takes the exact
      // Recommend path — bit-identical to the disabled service.
      int staged_session =
          on_service->OpenSession("stage-transparency-staged-tenant");
      serve::TuningService::StagedResponse sr =
          on_service->RecommendStaged(staged_session, *t.app, t.data, t.env);
      if (!sr.base.ok) {
        return Fail("RecommendStaged base serving failed: " + sr.base.error);
      }
      if (!same(sr.base, off)) {
        return Fail("RecommendStaged's base response drifted from plain "
                    "Recommend (" + where + ")");
      }
      if (sr.staged.base != sr.base.rec.config) {
        return Fail("staged plan is not rooted at the base recommendation (" +
                    where + ")");
      }
      // Planning must leave no residue: a plain request after the staged
      // one still matches the disabled service.
      int after_session =
          on_service->OpenSession("stage-transparency-after-tenant");
      serve::TuningService::Response after =
          on_service->Recommend(after_session, *t.app, t.data, t.env);
      if (!after.ok) {
        return Fail("post-staged serving failed: " + after.error);
      }
      if (!same(after, off)) {
        return Fail("a staged request perturbed subsequent plain serving (" +
                    where + ")");
      }
    }
  }
  return {};
}

}  // namespace lite::testkit
