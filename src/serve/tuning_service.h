// TuningService: the concurrent recommendation server in front of the
// unified pipeline (serve/recommend_pipeline.h). ROADMAP's north star is a
// production-scale serving system under heavy concurrent traffic; this is
// the component that makes the recommendation path correct under
// concurrency:
//
//   * Immutable model snapshots behind an RCU-style hot-swap: the served
//     LoadedLiteModel is a shared_ptr published under a dedicated mutex
//     whose critical section is a bare pointer copy/swap (GCC 12's
//     std::atomic<std::shared_ptr> trips TSan inside _Sp_atomic, so the
//     pointer is published with a lock TSan can model). Requests copy the
//     pointer once and keep their snapshot alive through the shared_ptr
//     refcount (the "grace period"), so ReloadSnapshot under live traffic
//     never tears a request — parameter-server style, writers publish
//     whole versions and never block in-flight readers.
//   * Per-tenant sessions with their own RNG streams: each session carries
//     a seed; a request's candidate stream is seed ^ hash(app.name), so
//     sessions are mutually independent and a session seeded with the
//     snapshot's own seed reproduces LiteSystem::Recommend bit for bit
//     (the DiffServingEquivalence contract).
//   * Admission control with a bounded queue + backpressure over the
//     shared ThreadPool: at most `max_pending` requests are queued or
//     running; beyond that SubmitRecommend rejects immediately
//     (Response::rejected) instead of building an unbounded backlog.
//   * Off-path adaptive updates: feedback batches fine-tune a *clone* of
//     the current snapshot on a pool worker and hot-swap it in when done —
//     serving never blocks on model updates.
//   * An optional guardrail (serve/guardrail.h): per-tenant incumbent
//     fallbacks, a regression-tripped circuit breaker, exploration budgets
//     and SLA deadlines. Disabled by default — the unguarded service is
//     bit-identical to PR 5.
//   * An optional retrieval cache (serve/retrieval_cache.h): historical
//     outcomes indexed by workload embedding seed the candidate pool
//     (warm start), and exact-repeat workloads are served a memoized
//     Response with zero model evaluations, keyed on (embedding hash,
//     snapshot generation, tenant-policy fingerprint) so hot-swaps and
//     quarantines invalidate atomically. Disabled by default.
//
// See docs/SERVING.md for the architecture and the serve_* metric catalog,
// docs/GUARDRAILS.md for the guardrail, docs/RETRIEVAL.md for the cache.
#ifndef LITE_SERVE_TUNING_SERVICE_H_
#define LITE_SERVE_TUNING_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lite/snapshot.h"
#include "serve/guardrail.h"
#include "serve/recommend_pipeline.h"
#include "serve/retrieval_cache.h"
#include "sparksim/resilient_runner.h"

namespace lite::serve {

/// Per-stage tuning endpoints (docs/STAGE_TUNING.md). `enabled=false` (the
/// default) is structurally inert: RecommendStaged degrades to the plain
/// response with zero overrides, Retune rejects, and the plain Recommend
/// path is never consulted either way — enabling the feature without
/// calling the staged endpoints is bit-identical to a service without it
/// (the DiffStageTuningTransparency contract).
struct StageTuningOptions {
  bool enabled = false;
  /// Grid resolution of the per-stage planner's coordinate search.
  int values_per_knob = 5;
};

struct ServiceOptions {
  /// Admission bound: maximum requests queued or running at once. Further
  /// submissions are rejected immediately (backpressure).
  size_t max_pending = 64;
  /// Scoring options applied to every request (thread count, backend).
  /// Results are bit-identical for every thread count.
  ScoringOptions scoring;
  /// Feedback instances that trigger an off-path adaptive update (0
  /// disables automatic updates; ForceAdaptiveUpdate still works).
  size_t update_batch = 10;
  /// Per-run stage-instance subsample cap for feedback extraction (same
  /// role as CorpusOptions::max_stage_instances_per_run).
  size_t max_stage_instances_per_run = 12;
  /// Fine-tuning options for off-path updates. A restored snapshot carries
  /// no offline corpus, so the feedback batch doubles as the source-domain
  /// sample (the documented snapshot limitation).
  UpdateOptions update;
  /// Guardrail configuration. `enabled=false` (the default) is structurally
  /// inert: no Guardrail is constructed and the serving path is unchanged.
  GuardrailOptions guardrail;
  /// Retrieval cache configuration (warm-start seeding + memoized
  /// responses). `enabled=false` (the default) is structurally inert: no
  /// RetrievalCache is constructed and the serving path is unchanged.
  RetrievalCacheOptions retrieval;
  /// Per-stage tuning endpoints. Inert by default.
  StageTuningOptions stage_tuning;
};

/// Validates a ServiceOptions bundle (zero admission bound, absurd thread
/// counts from a negative value cast to size_t, NaN guardrail budgets, ...).
/// Empty string = valid; otherwise a human-readable rejection reason. The
/// TuningService constructor throws std::invalid_argument with this message,
/// so misconfiguration fails loudly at construction instead of hanging or
/// serving garbage later.
std::string ValidateServiceOptions(const ServiceOptions& options);

class TuningService {
 public:
  /// Throws std::invalid_argument when ValidateServiceOptions rejects
  /// `options`.
  TuningService(const spark::SparkRunner* runner, ServiceOptions options);
  /// Drains in-flight requests and updates before destruction.
  ~TuningService();

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Loads a snapshot directory and swaps it in (initial load or hot-swap
  /// under traffic). Returns false and keeps serving the old snapshot when
  /// the directory does not load.
  bool LoadSnapshot(const std::string& dir);

  /// Swaps in an already-built model (takes ownership). The service's
  /// scoring options are applied to it.
  void InstallSnapshot(std::unique_ptr<LoadedLiteModel> model);

  /// The snapshot currently being served (nullptr before the first load).
  /// Callers keep it alive via the shared_ptr; a concurrent hot-swap never
  /// invalidates it.
  std::shared_ptr<const LoadedLiteModel> CurrentSnapshot() const;

  /// Called after every snapshot publication — initial load, manual
  /// InstallSnapshot, adaptive-update hot-swap — with the freshly served
  /// model. The model-distribution plane (src/modelplane/) attaches here
  /// to re-encode the snapshot as blobs and publish a new plane version.
  /// Invoked on the installing thread, outside the publication mutex;
  /// the listener must not call back into InstallSnapshot.
  using InstallListener =
      std::function<void(const std::shared_ptr<const LoadedLiteModel>&)>;
  void SetInstallListener(InstallListener listener);

  /// Opens a tenant session with its own RNG stream. `seed` = 0 adopts the
  /// served snapshot's seed, which makes the session's recommendations bit-
  /// identical to LiteSystem::Recommend / LoadedLiteModel::Recommend on the
  /// same snapshot. Returns the session id (never 0-cost to reuse across
  /// requests; sessions are cheap and live for the service's lifetime).
  int OpenSession(const std::string& tenant, uint64_t seed = 0);

  struct Response {
    bool ok = false;
    /// True when admission control turned the request away (backpressure);
    /// the request was never queued and had no side effects.
    bool rejected = false;
    /// True when the guardrail served the tenant's incumbent config verbatim
    /// (quarantine, exploration budget, or probing off-tick) — `rec.config`
    /// is the baseline, `rec.predicted_seconds` its best *observed* runtime,
    /// and zero candidates were evaluated.
    bool from_incumbent = false;
    /// True when this model recommendation was a half-open probe.
    bool probe = false;
    /// True when the response was a memoized retrieval-cache hit: `rec` is
    /// the cached Recommendation replayed verbatim (wall time and candidate
    /// count included) and zero model evaluations ran.
    bool from_cache = false;
    std::string error;
    LiteSystem::Recommendation rec;
  };

  /// Asynchronous recommendation. `app` must outlive the request (catalog
  /// applications always do); data/env are copied. The returned future is
  /// always satisfied — with rejected=true under backpressure, ok=false on
  /// errors, ok=true otherwise.
  std::future<Response> SubmitRecommend(int session,
                                        const spark::ApplicationSpec& app,
                                        const spark::DataSpec& data,
                                        const spark::ClusterEnv& env);

  /// Synchronous convenience wrapper (runs on the calling thread — it does
  /// not consume a pool slot, so it cannot be rejected).
  Response Recommend(int session, const spark::ApplicationSpec& app,
                     const spark::DataSpec& data,
                     const spark::ClusterEnv& env);

  /// Fine-grained recommendation: the plain response plus per-stage knob
  /// overrides planned with the snapshot's stage head. `base` is produced
  /// by the exact same path as Recommend() — guardrail, retrieval cache,
  /// metrics and all — and is bit-identical to calling Recommend directly.
  /// The planner only runs when the feature is enabled, the snapshot
  /// carries a head, AND the base response came from a live model pass:
  /// incumbent fallbacks, half-open probes and memoized cache hits are
  /// served as-is with zero overrides (the guardrail/retrieval decision
  /// outranks fine-grained planning, and staged plans are never memoized).
  struct StagedResponse {
    Response base;
    spark::StagedConfig staged;  ///< base.rec.config + planned overrides.
    /// Head-predicted totals of the un-overridden and planned configs
    /// (meaningful only when stage_tuned).
    double baseline_seconds = 0.0;
    double planned_seconds = 0.0;
    /// True when the per-stage planner ran on this request.
    bool stage_tuned = false;
  };
  StagedResponse RecommendStaged(int session,
                                 const spark::ApplicationSpec& app,
                                 const spark::DataSpec& data,
                                 const spark::ClusterEnv& env);

  /// AQE-style mid-job re-tune: given the staged config a job is running
  /// with and the stage events observed so far, re-plans the knobs of the
  /// remaining stages (sparksim/stage_planner.h documents the correction
  /// formula and the inertness contract). Rejects with ok=false when the
  /// feature is disabled, no snapshot/stage head is loaded, the session is
  /// unknown, or `current` fails ValidateStagedConfig (degenerate or
  /// out-of-range overrides never reach the planner).
  struct RetuneResponse {
    bool ok = false;
    std::string error;
    spark::StagedConfig staged;  ///< kept prefix + re-planned suffix.
    double correction = 1.0;
    size_t frontier = 0;
  };
  RetuneResponse Retune(int session, const spark::ApplicationSpec& app,
                        const spark::DataSpec& data,
                        const spark::ClusterEnv& env,
                        const spark::StagedConfig& current,
                        const std::vector<spark::StageEvent>& observed);

  /// Convenience overload: parses a JSON-lines event log (the simulator's
  /// Submission::event_log) and re-tunes from its stage events. Rejects on
  /// malformed logs.
  RetuneResponse Retune(int session, const spark::ApplicationSpec& app,
                        const spark::DataSpec& data,
                        const spark::ClusterEnv& env,
                        const spark::StagedConfig& current,
                        const std::string& event_log);

  /// Queues one observed run as feedback for the session's tenant. When
  /// the accumulated batch reaches `update_batch`, an off-path adaptive
  /// update is scheduled (clone -> fine-tune -> hot-swap); serving
  /// continues on the old snapshot meanwhile. Returns false when no
  /// snapshot is loaded or the session id is unknown. This overload treats
  /// the run as an honest, uncensored measurement of `run.total_seconds`.
  bool SubmitFeedback(int session, const spark::ApplicationSpec& app,
                      const spark::DataSpec& data, const spark::ClusterEnv& env,
                      const spark::Config& config,
                      const spark::AppRunResult& run);

  /// Fault-aware overload for runs measured through the resilient harness:
  /// the outcome's failed/censored flags feed the guardrail's regression
  /// detector, and failed or censored runs are *dropped* from the adaptive
  /// update batch (their capped sentinel labels would drag the model toward
  /// the failure cap — counted in serve_feedback_dropped_bad_total).
  bool SubmitFeedback(int session, const spark::ApplicationSpec& app,
                      const spark::DataSpec& data, const spark::ClusterEnv& env,
                      const spark::Config& config,
                      const spark::MeasureOutcome& outcome);

  /// The guardrail, or nullptr when options.guardrail.enabled is false.
  /// Exposes breaker states, the transition log and guardrail stats.
  Guardrail* guardrail() const { return guardrail_.get(); }

  /// The retrieval cache, or nullptr when options.retrieval.enabled is
  /// false. Exposes the index, memo stats and the cache event log.
  RetrievalCache* retrieval() const { return retrieval_.get(); }

  /// Installs a per-tenant serving policy (SLA deadline, exploration
  /// budget). Throws std::invalid_argument on invalid policies; no-op with
  /// a warning when the guardrail is disabled.
  void SetTenantPolicy(const std::string& tenant, TenantPolicy policy);

  /// Forces an off-path update with whatever feedback is pending (no-op
  /// when none). Blocks until the update has swapped in.
  UpdateStats ForceAdaptiveUpdate();

  /// Blocks until every submitted request has completed.
  void Drain();
  /// Blocks until no adaptive update is in flight.
  void DrainUpdates();

  size_t pending_feedback() const;

  /// Request/lifecycle counters. Every field is co-published with its
  /// serve_* metric twin under the same mutex (the increment and the
  /// Counter::Inc happen in one critical section), so after Drain() +
  /// DrainUpdates() a Stats snapshot and a metrics snapshot agree *exactly*
  /// — tools/lite_serve asserts equality, not tolerance.
  struct Stats {
    uint64_t submitted = 0;  ///< SubmitRecommend calls (incl. rejected).
    uint64_t rejected = 0;   ///< turned away by admission control.
    uint64_t completed = 0;  ///< requests finished ok.
    uint64_t failed = 0;     ///< requests that threw.
    uint64_t hot_swaps = 0;  ///< snapshot swaps after the initial load.
    uint64_t adaptive_updates = 0;  ///< off-path updates swapped in.
    uint64_t sessions = 0;          ///< OpenSession calls.
    uint64_t feedback_instances = 0;  ///< stage instances queued as feedback.
    uint64_t bad_feedback_dropped = 0;  ///< failed/censored runs kept out of
                                        ///< the update batch.
    uint64_t stage_plans = 0;  ///< RecommendStaged requests that planned.
    uint64_t retunes = 0;      ///< Retune requests that re-planned.
  };
  Stats stats() const;

 private:
  Response RunRequest(const std::shared_ptr<const LoadedLiteModel>& snap,
                      uint64_t seed, const std::string& tenant,
                      const spark::ApplicationSpec& app,
                      const spark::DataSpec& data,
                      const spark::ClusterEnv& env) const;
  /// One pointer copy under snap_mu_ — the reader side of the hot-swap.
  std::shared_ptr<const LoadedLiteModel> SnapshotRef() const;
  /// Shared body of both SubmitFeedback overloads.
  bool SubmitFeedbackRun(int session, const spark::ApplicationSpec& app,
                         const spark::DataSpec& data,
                         const spark::ClusterEnv& env,
                         const spark::Config& config,
                         const spark::AppRunResult& run,
                         double observed_seconds, bool failed, bool censored);
  /// Runs clone -> fine-tune -> swap for one feedback batch (pool worker).
  UpdateStats RunAdaptiveUpdate(std::vector<StageInstance> batch);
  void FinishRequest();

  const spark::SparkRunner* runner_;
  ServiceOptions options_;
  /// Non-null iff options_.guardrail.enabled. Internally synchronized; the
  /// unique_ptr itself is set once in the constructor and never reseated.
  std::unique_ptr<Guardrail> guardrail_;
  /// Non-null iff options_.retrieval.enabled. Internally synchronized; set
  /// once in the constructor and never reseated.
  std::unique_ptr<RetrievalCache> retrieval_;
  /// Snapshot generation allocator, bumped by every InstallSnapshot. The
  /// installed generation is carried on the LoadedLiteModel itself
  /// (snap->generation()), so requests read a consistent (model, version)
  /// pair off one pointer; it keys the guardrail's per-family
  /// knob-importance cache and the retrieval cache's memo entries.
  std::atomic<uint64_t> generation_{0};

  /// RCU publication point: snap_mu_ guards only the pointer copy/swap
  /// (nanoseconds); readers' shared_ptr copies keep retired snapshots
  /// alive for the length of their request.
  mutable std::mutex snap_mu_;
  std::shared_ptr<const LoadedLiteModel> snapshot_;

  struct Session {
    std::string tenant;
    uint64_t seed = 0;
  };

  mutable std::mutex listener_mu_;  ///< guards install_listener_.
  InstallListener install_listener_;

  mutable std::mutex mu_;  ///< sessions, feedback, stats, drain state.
  std::condition_variable cv_;
  std::vector<Session> sessions_;
  std::vector<StageInstance> feedback_;
  bool update_in_flight_ = false;
  size_t pending_ = 0;  ///< requests queued or running.
  Stats stats_;
};

}  // namespace lite::serve

#endif  // LITE_SERVE_TUNING_SERVICE_H_
