// The repository benchmark: drives serve::TuningService, the model plane
// and the LITE recommendation pipeline from outside, through their public
// functions only, and prints one JSON result line.
//
//   perfbench --workload fresh_exact_1k|tenant_mix|plane_fanout
//             --seed N --seconds S --trace 0|1 [--tiny 1]
//
// One run = setup (repeated; the median is setup_s), a closed loop that
// keeps 4 x nproc requests outstanding (capacity), and an open loop at the
// workload's fixed rate split into windows. Every window starts with one
// feedback batch that triggers an off-path adaptive update;
// the served model is published to a ModelPlaneServer and pulled by the
// workload's shards. Simulator runs (ground truth and feedback) happen in
// the untimed gaps between windows and after the loops. With --trace 0 the
// end-to-end metrics are printed; with --trace 1 the per-layer metrics,
// from spans recorded around each public call plus replays of sampled
// requests through the public pipeline stages. See perfbench/README.md.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "lite/candidate_gen.h"
#include "lite/dataset.h"
#include "lite/lite_system.h"
#include "lite/qnecs.h"
#include "lite/snapshot.h"
#include "measure.h"
#include "modelplane/plane_server.h"
#include "modelplane/shard_puller.h"
#include "modelplane/sharded_service.h"
#include "obs/metrics.h"
#include "serve/recommend_pipeline.h"
#include "serve/tuning_service.h"
#include "sparksim/cost_model.h"
#include "sparksim/runner.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using lite::LiteSystem;
using lite::LoadedLiteModel;
using lite::QuantBackend;
using lite::Rng;
using lite::modelplane::ModelPlaneServer;
using lite::modelplane::ShardedTuningService;
using lite::serve::TuningService;
namespace spark = lite::spark;
using Response = TuningService::Response;
using Blobs = std::map<std::string, std::string>;

// ---------------------------------------------------------------------------
// Workloads. The offered open-loop rate and the latency limit of each
// workload are fixed here and quoted in BENCHMARK.json.

struct WorkloadSpec {
  const char* name;
  size_t num_candidates;
  QuantBackend backend;
  bool guarded;          ///< guardrail + retrieval cache enabled.
  bool sharded_serving;  ///< requests go to nproc plane shards.
  double fault_rate;     ///< per-frame drop/truncate/corrupt probability.
  double rate_rps;       ///< open-loop offered rate.
  double slo_ms;         ///< latency limit for slo_frac.
  double window_s;       ///< open-loop window: one adaptive update each.
  /// Whether updates run under the open-loop load (else in the gaps, with
  /// probe requests, so latency measures the read path alone).
  bool writes_under_load;
  bool recurring;        ///< Zipf-skewed recurring jobs (else all new).
  size_t tenants;
  size_t jobs;           ///< recurring job count (tenant, workload) pairs.
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fresh_exact_1k", 1000, QuantBackend::kExactFp32, false, false, 0.0,
     50.0, 50.0, 3.0, false, false, 8, 0},
    {"tenant_mix", 60, QuantBackend::kInt8, true, false, 0.0, 1000.0, 20.0,
     1.5, true, true, 64, 256},
    {"plane_fanout", 60, QuantBackend::kExactFp32, false, true, 0.02, 1000.0,
     25.0, 1.5, true, true, 32, 128},
};

/// Stage instances that complete one adaptive-update batch.
constexpr size_t kUpdateBatch = 24;
/// Simulated feedback runs prepared per window (more than one batch needs).
constexpr size_t kFeedbackRuns = 12;
/// Window label of warm-up requests (measured closed-loop requests are -1).
constexpr int kWarmUp = -2;
/// SyncShard attempts per shard and update before the gap catches up.
constexpr size_t kPullAttempts = 16;

/// The fixed training profile behind setup_s: every catalog application
/// on cluster A, one sampled configuration per setting, two epochs of the
/// default NECS network, a single-model ensemble.
constexpr char kProfile[] =
    "15 apps x cluster A, 1 config/setting, <=6 stage instances/run, "
    "128 code tokens, default NECS, 2 epochs, ensemble 1";

lite::LiteOptions TrainingOptions(const WorkloadSpec& w) {
  lite::LiteOptions o;
  o.corpus.clusters = {spark::ClusterEnv::ClusterA()};
  o.corpus.configs_per_setting = 1;
  o.corpus.max_stage_instances_per_run = 6;
  o.corpus.max_code_tokens = 128;
  o.train.epochs = 2;
  o.num_candidates = w.num_candidates;
  return o;
}

// ---------------------------------------------------------------------------
// Traffic: the generated (app, data, env) inputs, derived from --seed only.

struct Job {
  const spark::ApplicationSpec* app = nullptr;
  spark::DataSpec data;
  spark::ClusterEnv env;
  size_t tenant = 0;
};

class Traffic {
 public:
  Traffic(const WorkloadSpec& w, uint64_t seed) : w_(w), rng_(seed) {
    if (!w_.recurring) return;
    // Job j has Zipf(1) weight 1/(j+1). Apps and clusters are assigned
    // round-robin and sizes spread evenly over the size range, so seeds
    // differ in size jitter and request order, not in the job mix.
    double total = 0.0;
    for (size_t j = 0; j < w_.jobs; ++j) {
      const double pos = std::fmod(static_cast<double>(j) * 0.6180339887, 1.0);
      jobs_.push_back(Draw(j, pos + rng_.Uniform(-0.03, 0.03)));
      jobs_.back().tenant = j % w_.tenants;
      total += 1.0 / static_cast<double>(j + 1);
    }
    double acc = 0.0;
    for (size_t j = 0; j < w_.jobs; ++j) {
      acc += 1.0 / static_cast<double>(j + 1) / total;
      cdf_.push_back(acc);
    }
  }

  /// Index of the next request's job.
  size_t Next() {
    size_t j = 0;
    if (w_.recurring) {
      const double u = rng_.Uniform();
      j = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                              cdf_.begin());
      j = std::min(j, jobs_.size() - 1);
    } else {
      Job job = Draw(requests_, rng_.Uniform());
      job.tenant = rng_.Index(w_.tenants);
      jobs_.push_back(job);
      j = jobs_.size() - 1;
    }
    if (seen_.size() < jobs_.size()) seen_.resize(jobs_.size(), 0);
    ++seen_[j];
    ++requests_;
    return j;
  }

  const Job& job(size_t i) const { return jobs_[i]; }

  /// Properties of the traffic generated so far.
  JsonObject Record() const {
    size_t distinct = 0;
    double lo = 0.0, hi = 0.0;
    bool any = false;
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < seen_.size(); ++i) {
      if (seen_[i] == 0) continue;
      ++distinct;
      const double mb = jobs_[i].data.size_mb;
      lo = any ? std::min(lo, mb) : mb;
      hi = any ? std::max(hi, mb) : mb;
      any = true;
    }
    for (size_t i = 0; i < std::min<size_t>(jobs_.size(), 256); ++i) {
      h = (h ^ std::hash<std::string>{}(jobs_[i].app->name)) * 1099511628211ull;
      h = (h ^ std::hash<double>{}(jobs_[i].data.size_mb)) * 1099511628211ull;
      h = (h ^ std::hash<std::string>{}(jobs_[i].env.name)) * 1099511628211ull;
      h = (h ^ jobs_[i].tenant) * 1099511628211ull;
    }
    JsonObject o;
    o.Add("requests", static_cast<double>(requests_))
        .Add("distinct_workloads", static_cast<double>(distinct))
        .Add("repeat_share",
             requests_ == 0 ? 0.0
                            : 1.0 - static_cast<double>(distinct) /
                                        static_cast<double>(requests_))
        .Add("data_mb_min", lo)
        .Add("data_mb_max", hi)
        .Add("tenants", static_cast<double>(w_.tenants))
        .Add("input_fingerprint", std::to_string(h));
    return o;
  }

 private:
  /// Job number i: catalog app i mod 15 on cluster A/B/C in turn, data size
  /// at log-position `pos` (clamped to [0, 1]) between the app's validation
  /// and test sizes.
  Job Draw(size_t i, double pos) {
    const auto& apps = spark::AppCatalog::All();
    Job job;
    job.app = &apps[i % apps.size()];
    const double lo = std::log(job.app->validation_size_mb);
    const double hi = std::log(job.app->test_size_mb);
    const double p = std::clamp(pos, 0.0, 1.0);
    job.data = job.app->MakeData(std::exp(lo + p * (hi - lo)));
    job.env = spark::ClusterEnv::AllClusters()[(i / apps.size()) % 3];
    return job;
  }

  const WorkloadSpec& w_;
  Rng rng_;
  std::vector<Job> jobs_;
  std::vector<double> cdf_;
  std::vector<uint32_t> seen_;
  size_t requests_ = 0;
};

// ---------------------------------------------------------------------------
// One served system: publisher TuningService -> ModelPlaneServer -> shards.
// For fresh_exact_1k and tenant_mix the publisher serves the requests and a
// single idle shard mirrors the plane; for plane_fanout nproc shards serve
// tenant-routed requests and the publisher only takes feedback.

struct World {
  std::unique_ptr<ModelPlaneServer> plane;
  std::unique_ptr<TuningService> publisher;
  std::unique_ptr<ShardedTuningService> shards;
  std::vector<TuningService*> tenant_service;
  std::vector<int> tenant_session;
  std::vector<size_t> tenant_shard;  ///< SIZE_MAX = the publisher.
  int feedback_session = 0;          ///< publisher session for plane_fanout.
  double setup_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
};

struct Request {
  uint64_t id = 0;  ///< span id, unique over the run.
  size_t job = 0;
  bool open_loop = false;
  double due_s = 0.0;   ///< due time, relative to the loop start.
  double done_s = 0.0;  ///< observed completion, same origin.
  double submit_us = 0.0;
  double late_ms = 0.0;
  bool done = false;
  bool ok = false;
  bool rejected = false;
  bool from_cache = false;
  bool from_incumbent = false;
  bool probe = false;
  bool counted = true;  ///< false for warm-up and the gap's probe request.
  bool keep = false;    ///< closed-loop record kept for tuned_speedup.
  int window = -1;
  LiteSystem::Recommendation rec;
  /// The snapshot that served the request when it is known for certain
  /// (no swap across the submit), else null.
  std::shared_ptr<const LoadedLiteModel> snap;
};

struct SimRun {
  size_t job = 0;
  spark::Config config;
  spark::MeasureOutcome outcome;
};

class Bench {
 public:
  Bench(const WorkloadSpec& w, uint64_t seed, double seconds, bool trace,
        bool tiny, std::string out_dir)
      : w_(w),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        tiny_(tiny),
        out_dir_(std::move(out_dir)),
        nproc_(std::max(1u, std::thread::hardware_concurrency())),
        traffic_(w, seed),
        spans_(trace),
        pick_rng_(seed ^ 0x5bd1e995ull) {}

  int Run(const std::string& git_sha);

 private:
  // Setup.
  bool Setup(int rep, World* world);
  lite::serve::ServiceOptions ServingOptions() const;
  const Job& ProbeJob();
  // Loops.
  void ClosedLoop(double seconds, bool record_spans, int label = -1);
  void Compact(size_t begin);
  void OpenLoop(double seconds);
  void Window(int index, double seconds);
  void Gap(int index);
  void IsolatedUpdate();
  size_t Submit(size_t job, double due_s, bool open_loop, int window);
  void Poll();
  void WaitForWork(double due);
  void Complete(size_t idx, Response r);
  void TrackPlane();
  void StartFeedback();
  void PrepareFeedback(int window);
  void PullReference();
  double Now() const { return SecondsSince(origin_); }
  TuningService* Target(size_t tenant) const {
    return world_.tenant_service[tenant];
  }
  uint64_t TargetVersion(size_t tenant) const;
  uint64_t SyncShardOnce(size_t i, uint64_t span_id);
  // Checks and metrics.
  void CheckEventLog();
  void CheckTorn();
  void CheckResponses();
  void Replay();
  void LayerProbes();
  double TunedSpeedup();
  std::vector<double> OpenLoopLatencyMs() const;
  void EndToEnd(MetricSet* m);
  void PerLayer(MetricSet* m);

  const WorkloadSpec& w_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const bool tiny_;
  const std::string out_dir_;
  const size_t nproc_;
  spark::SparkRunner runner_;
  Traffic traffic_;
  SpanLog spans_;
  Rng pick_rng_;
  World world_;
  std::string snap_root_;

  Clock::time_point origin_;
  std::vector<Request> reqs_;
  uint64_t next_id_ = 0;
  uint64_t trace_stride_ = 1;  ///< request spans kept for every n-th id.
  size_t closed_done_ = 0;
  size_t keep_stride_ = 1;  ///< keeps ~4000 closed-loop records.
  struct Counts {
    size_t sent = 0, ok = 0, failed = 0, rejected = 0;
  } dropped_;  ///< closed-loop requests whose records were compacted away.
  std::vector<std::pair<size_t, std::future<Response>>> outstanding_;
  double pending_peak_ = 0.0;

  // Adaptive-update tracking (update_s).
  struct UpdateProbe {
    bool active = false;
    double t_fb = 0.0;
    uint64_t threshold = 0;
    size_t first_req = SIZE_MAX;
  } update_;
  std::vector<double> update_s_;
  std::vector<double> feedback_us_;
  std::vector<SimRun> feedback_;
  size_t feedback_runs_ = 0;
  size_t updates_triggered_ = 0;

  // Plane tracking (sync_s, push bytes, pulls).
  struct SyncProbe {
    bool active = false;
    uint64_t version = 0;  ///< plane version being synced; 0 = not yet known.
    double t_seen = 0.0;
    double next_check = 0.0;
  } sync_;
  uint64_t seen_generation_ = 0;
  uint64_t synced_version_ = 0;
  std::unique_ptr<std::atomic<uint64_t>[]> shard_ver_;
  /// Plane version of every snapshot a shard installed (guarded by sync_mu_).
  std::map<const LoadedLiteModel*, uint64_t> snap_version_;
  std::vector<double> sync_s_;
  std::mutex sync_mu_;
  std::vector<double> sync_shard_ms_;  ///< guarded by sync_mu_.
  std::vector<std::future<void>> tasks_;
  std::unique_ptr<lite::modelplane::ShardPuller> ref_puller_;
  std::map<uint64_t, std::shared_ptr<const Blobs>> published_;
  std::map<uint64_t, std::unique_ptr<LoadedLiteModel>> reference_;
  std::vector<double> handle_ms_, apply_ms_, decode_ms_;
  uint64_t torn_ = 0;
  uint64_t plane_versions_published_ = 0;
  uint64_t push_bytes_start_ = 0;
  uint64_t syncs_start_ = 0, installs_start_ = 0;

  // Checks.
  size_t checks_ = 0;
  size_t check_failures_ = 0;
  uint64_t event_seq_next_ = 0;
  size_t memo_hits_checked_ = 0;
  std::vector<std::string> problems_;

  // Layer samples.
  std::vector<double> setup_s_, save_ms_, load_ms_;
  std::vector<double> measure_ms_;
  double trace_overhead_frac_ = 0.0;
  struct ReplayStats {
    std::vector<double> sample, dedupe, feasible, featurize, encode, score,
        other_score, coverage, clone, unique_frac, feasible_frac, us_per_cand,
        other_us_per_cand;
    size_t reproduced = 0, compared = 0, seeded = 0;
  } replay_;
  std::vector<double> encode_blobs_ms_, publish_ms_;
  double snapshot_bytes_ = 0.0;
  double fit_sum_start_ = 0.0;
  uint64_t fit_count_start_ = 0;
  uint64_t updates_start_ = 0;
  lite::serve::RetrievalCache::Stats retrieval_start_;
  std::vector<double> closed_rps_;  ///< one entry per closed-loop call.
  double closed_raw_rps_ = 0.0;     ///< last call's median, unscaled.
  double closed_steal_frac_ = 0.0;  ///< last call's stolen vCPU share.
};

// Lowers every other thread of the process (the service's pool workers) to
// nice 5, so the load generator -- the calling thread -- is not starved by
// the system under test, as it would not be on a separate client machine.
// Raising a nice value needs no privilege; a failure leaves priorities as
// they were.
void DeprioritizeOtherThreads() {
  const long self = syscall(SYS_gettid);
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const long tid = std::strtol(task.path().filename().c_str(), nullptr, 10);
    if (tid > 0 && tid != self) {
      setpriority(PRIO_PROCESS, static_cast<id_t>(tid), 5);
    }
  }
}

lite::serve::ServiceOptions Bench::ServingOptions() const {
  lite::serve::ServiceOptions so;
  so.max_pending = 1024;
  so.scoring.backend = w_.backend;
  so.update_batch = kUpdateBatch;
  so.guardrail.enabled = w_.guarded;
  so.retrieval.enabled = w_.guarded;
  return so;
}

const Job& Bench::ProbeJob() {
  static const Job job = [] {
    Job j;
    j.app = spark::AppCatalog::Find("PageRank");
    j.data = j.app->MakeData(j.app->test_size_mb);
    j.env = spark::ClusterEnv::ClusterA();
    return j;
  }();
  return job;
}

bool Bench::Setup(int rep, World* world) {
  const Clock::time_point t0 = Clock::now();
  LiteSystem system(&runner_, TrainingOptions(w_));
  system.TrainOffline();
  const std::string dir = snap_root_ + "/rep" + std::to_string(rep);
  std::filesystem::create_directories(dir);
  bool saved = false;
  world->save_s = TimeSeconds([&] { saved = lite::SaveSnapshot(system, dir); });
  if (!saved) return false;
  world->plane = std::make_unique<ModelPlaneServer>();
  lite::serve::ServiceOptions so = ServingOptions();
  lite::serve::ServiceOptions publisher_opts = so;
  if (w_.sharded_serving) {
    publisher_opts = lite::serve::ServiceOptions();
    publisher_opts.update_batch = kUpdateBatch;
  }
  world->publisher = std::make_unique<TuningService>(&runner_, publisher_opts);
  lite::modelplane::AttachPublisher(world->publisher.get(), world->plane.get());
  bool loaded = false;
  world->load_s =
      TimeSeconds([&] { loaded = world->publisher->LoadSnapshot(dir); });
  if (!loaded) return false;
  lite::modelplane::ShardedServiceOptions sho;
  sho.shards = w_.sharded_serving ? nproc_ : 1;
  if (w_.sharded_serving) {
    sho.service = so;
    sho.service.update_batch = 0;
  }
  sho.faults.drop = w_.fault_rate;
  sho.faults.truncate = w_.fault_rate;
  sho.faults.corrupt = w_.fault_rate;
  sho.faults.duplicate = w_.fault_rate / 2;
  sho.faults.hold = w_.fault_rate / 2;
  sho.fault_seed = seed_ * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(rep);
  sho.pull_attempts = kPullAttempts;
  world->shards = std::make_unique<ShardedTuningService>(
      &runner_, world->plane.get(), sho);
  if (world->shards->SyncAll() != world->shards->num_shards()) return false;
  for (size_t t = 0; t < w_.tenants; ++t) {
    const std::string tenant = "tenant" + std::to_string(t);
    TuningService* svc = world->publisher.get();
    size_t shard = SIZE_MAX;
    if (w_.sharded_serving) {
      shard = world->shards->RouteShard(tenant);
      svc = world->shards->shard(shard);
    }
    world->tenant_service.push_back(svc);
    world->tenant_session.push_back(svc->OpenSession(tenant));
    world->tenant_shard.push_back(shard);
  }
  world->feedback_session = world->publisher->OpenSession("feedback");
  const Job& probe = ProbeJob();
  Response r = world->tenant_service[0]
                   ->SubmitRecommend(world->tenant_session[0], *probe.app,
                                     probe.data, probe.env)
                   .get();
  world->setup_s = SecondsSince(t0);
  return r.ok;
}

// The publisher's snapshot generation, or the plane version the shard
// serves. Shard versions come from shard_ver_, which the sync path updates
// after each install: ShardedTuningService::shard_version blocks while the
// shard syncs, and the generator must never block.
uint64_t Bench::TargetVersion(size_t tenant) const {
  const size_t shard = world_.tenant_shard[tenant];
  if (shard != SIZE_MAX) return shard_ver_[shard].load();
  auto snap = world_.publisher->CurrentSnapshot();
  return snap ? snap->generation() : 0;
}

uint64_t Bench::SyncShardOnce(size_t i, uint64_t span_id) {
  const Clock::time_point t0 = Clock::now();
  world_.shards->SyncShard(i);
  const Clock::time_point t1 = Clock::now();
  spans_.Add("plane.sync_shard", span_id, t0, t1);
  const uint64_t v = world_.shards->shard_version(i);
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    sync_shard_ms_.push_back(Seconds(t1 - t0) * 1e3);
    snap_version_[world_.shards->shard(i)->CurrentSnapshot().get()] = v;
  }
  shard_ver_[i].store(v);
  return v;
}

size_t Bench::Submit(size_t job_idx, double due_s, bool open_loop, int window) {
  const Job& job = traffic_.job(job_idx);
  const size_t tenant = job.tenant;
  TuningService* svc = Target(tenant);
  Request req;
  req.job = job_idx;
  req.open_loop = open_loop;
  req.due_s = due_s;
  req.window = window;
  req.counted = window != kWarmUp;
  const uint64_t v0 = TargetVersion(tenant);
  auto snap0 = svc->CurrentSnapshot();
  req.id = next_id_++;
  const bool traced = req.id % trace_stride_ == 0;
  const Clock::time_point t0 = Clock::now();
  std::future<Response> f = svc->SubmitRecommend(world_.tenant_session[tenant],
                                                 *job.app, job.data, job.env);
  const Clock::time_point t1 = Clock::now();
  auto snap1 = svc->CurrentSnapshot();
  req.submit_us = Seconds(t1 - t0) * 1e6;
  req.late_ms = std::max(0.0, Seconds(t0 - origin_) - due_s) * 1e3;
  if (snap0 == snap1) req.snap = snap1;
  const size_t idx = reqs_.size();
  if (traced) spans_.Add("serve.submit", req.id, t0, t1);
  if (update_.active && update_.first_req == SIZE_MAX && req.snap != nullptr &&
      v0 >= update_.threshold) {
    update_.first_req = idx;
  }
  reqs_.push_back(std::move(req));
  outstanding_.emplace_back(idx, std::move(f));
  return idx;
}

void Bench::Complete(size_t idx, Response r) {
  Request& req = reqs_[idx];
  req.done = true;
  req.done_s = Now();
  req.ok = r.ok;
  req.rejected = r.rejected;
  req.from_cache = r.from_cache;
  req.from_incumbent = r.from_incumbent;
  req.probe = r.probe;
  req.rec = std::move(r.rec);
  if (spans_.enabled() && req.id % trace_stride_ == 0) {
    spans_.Add("serve.request", req.id,
               origin_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(req.due_s)),
               Clock::now(), /*async=*/true);
  }
  if (update_.active && update_.first_req == idx) {
    if (req.ok) {
      update_s_.push_back(req.done_s - update_.t_fb);
      update_.active = false;
    } else {
      update_.first_req = SIZE_MAX;
    }
  }
}

// Collects every completed request. Keeps outstanding_ in submission
// order, so its front is the oldest request (see WaitForWork).
void Bench::Poll() {
  size_t kept = 0;
  for (size_t i = 0; i < outstanding_.size(); ++i) {
    auto& [idx, fut] = outstanding_[i];
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      Complete(idx, fut.get());
    } else {
      if (kept != i) outstanding_[kept] = std::move(outstanding_[i]);
      ++kept;
    }
  }
  outstanding_.resize(kept);
  static lite::obs::Gauge* pending =
      lite::obs::MetricsRegistry::Global().GetGauge("serve_pending_requests");
  pending_peak_ = std::max(pending_peak_, pending->Value());
}

// Watches the publisher for an install; once the install listener has
// published the new plane version, starts one puller thread that pulls
// every shard in turn (SyncAll's order, with retries per shard). In a
// deployment each shard pulls on its own node, so the pull does not queue
// behind requests on the service pool; it runs at the pool's priority.
// sync_s runs from seeing the install to every shard serving the new
// version. The plane is polled at most once per millisecond, only while a
// publish is awaited: ModelPlaneServer::version() waits behind a push.
void Bench::TrackPlane() {
  if (!sync_.active) {
    auto snap = world_.publisher->CurrentSnapshot();
    const uint64_t gen = snap ? snap->generation() : 0;
    if (gen <= seen_generation_) return;
    seen_generation_ = gen;
    sync_ = SyncProbe{true, 0, Now(), 0.0};
  }
  if (sync_.version == 0) {
    if (Now() < sync_.next_check) return;
    const uint64_t v = world_.plane->version();
    if (v <= synced_version_) {
      sync_.next_check = Now() + 1e-3;
      return;
    }
    sync_.version = v;
    tasks_.push_back(std::async(std::launch::async, [this, v] {
      setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 5);
      for (size_t i = 0; i < world_.shards->num_shards(); ++i) {
        for (size_t a = 0; a < kPullAttempts && SyncShardOnce(i, v) < v; ++a) {
        }
      }
    }));
  }
  for (size_t i = 0; i < world_.shards->num_shards(); ++i) {
    if (shard_ver_[i].load() < sync_.version) return;
  }
  sync_s_.push_back(Now() - sync_.t_seen);
  synced_version_ = sync_.version;
  sync_.active = false;
}

// Keeps 4 x nproc requests outstanding for `seconds`. With only nproc
// outstanding the pool idles between memo hits and the figure measures
// thread wake-up latency instead of serving work. Capacity is the median
// OK-completion rate over fifteen equal blocks, each taken over the vCPU
// time the block had: nproc x block length minus the hypervisor's steal in
// the block. On a shared host neighbours take vCPU slices at random and the
// raw rate drops with them; idle time of the program itself is not scaled
// away. The generator blocks on the oldest outstanding future, so it takes
// no core from the pool. Only about 4000 measured records are kept (every
// keep_stride_-th); the rest are counted and compacted away so bookkeeping
// stays out of peak_rss_mb.
void Bench::ClosedLoop(double seconds, bool record_spans, int label) {
  spans_.set_enabled(record_spans);
  constexpr int kBlocks = 15;
  const size_t begin = reqs_.size();
  const double block_s = seconds / kBlocks;
  std::vector<double> ok_per_block(kBlocks, 0.0);
  std::vector<double> steal_at(kBlocks + 1, 0.0);
  int block = 0;
  steal_at[0] = StealSeconds();
  const double t_start = Now();
  const double t_end = t_start + seconds;
  while (Now() < t_end) {
    while (outstanding_.size() < 4 * nproc_) {
      Submit(traffic_.Next(), Now(), /*open_loop=*/false, label);
    }
    outstanding_.front().second.wait();
    while (block + 1 < kBlocks && Now() - t_start >= block_s * (block + 1)) {
      steal_at[++block] = StealSeconds();
    }
    for (size_t i = 0; i < outstanding_.size();) {
      auto& [idx, fut] = outstanding_[i];
      if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        Complete(idx, fut.get());
        Request& r = reqs_[idx];
        const double at = r.done_s - t_start;
        if (r.ok && at < seconds) {
          ok_per_block[static_cast<size_t>(at / seconds * kBlocks)] += 1.0;
        }
        if (label == -1 && closed_done_++ % keep_stride_ == 0) r.keep = true;
        outstanding_.erase(outstanding_.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    if (reqs_.size() - begin > 8192) Compact(begin);
  }
  steal_at[kBlocks] = StealSeconds();
  while (!outstanding_.empty()) {
    outstanding_.front().second.wait();
    Poll();
  }
  Compact(begin);
  const double cpu_s = static_cast<double>(nproc_) * block_s;
  std::vector<double> scaled(kBlocks);
  double stolen = 0.0;
  for (int b = 0; b < kBlocks; ++b) {
    const double steal =
        std::clamp(steal_at[b + 1] - steal_at[b], 0.0, 0.9 * cpu_s);
    stolen += steal;
    scaled[b] = ok_per_block[b] / (block_s - steal / nproc_);
    ok_per_block[b] /= block_s;
  }
  closed_rps_.push_back(Median(scaled));
  closed_raw_rps_ = Median(ok_per_block);
  closed_steal_frac_ = stolen / (cpu_s * kBlocks);
  spans_.set_enabled(trace_);
}

void Bench::Compact(size_t begin) {
  size_t w = begin;
  for (size_t i = begin; i < reqs_.size(); ++i) {
    Request& r = reqs_[i];
    if (r.done && !r.keep) {
      if (r.counted) {
        ++dropped_.sent;
        if (r.ok) ++dropped_.ok;
        else if (r.rejected) ++dropped_.rejected;
        else ++dropped_.failed;
      }
      continue;
    }
    if (w != i) {
      for (auto& o : outstanding_) {
        if (o.first == i) o.first = w;
      }
      reqs_[w] = std::move(r);
    }
    ++w;
  }
  reqs_.resize(w);
}

void Bench::StartFeedback() {
  if (feedback_.empty()) return;
  auto snap = world_.publisher->CurrentSnapshot();
  const uint64_t gen0 = snap ? snap->generation() : 0;
  const uint64_t plane0 = world_.plane->version();
  for (const SimRun& run : feedback_) {
    const Job& job = traffic_.job(run.job);
    const int session = w_.sharded_serving
                            ? world_.feedback_session
                            : world_.tenant_session[job.tenant];
    const Clock::time_point t0 = Clock::now();
    world_.publisher->SubmitFeedback(session, *job.app, job.data, job.env,
                                     run.config, run.outcome);
    const Clock::time_point t1 = Clock::now();
    spans_.Add("serve.feedback", run.job, t0, t1);
    feedback_us_.push_back(Seconds(t1 - t0) * 1e6);
    ++feedback_runs_;
    if (world_.publisher->pending_feedback() == 0) {
      update_.active = true;
      update_.t_fb = Seconds(t0 - origin_);
      update_.threshold = w_.sharded_serving ? plane0 + 1 : gen0 + 1;
      update_.first_req = SIZE_MAX;
      ++updates_triggered_;
      break;
    }
  }
  feedback_.clear();
}

void Bench::Window(int index, double seconds) {
  if (w_.writes_under_load) StartFeedback();
  const double t_start = Now();
  const double interval = 1.0 / w_.rate_rps;
  const double t_end = t_start + seconds;
  double next_due = t_start;
  while (true) {
    const double now = Now();
    if (next_due < t_end && now >= next_due) {
      Submit(traffic_.Next(), next_due, /*open_loop=*/true, index);
      next_due += interval;
      continue;
    }
    Poll();
    TrackPlane();
    if (next_due >= t_end && outstanding_.empty()) break;
    WaitForWork(next_due < t_end ? next_due
                                 : std::numeric_limits<double>::infinity());
  }
}

// The open-loop generator's sleep. Until kLeadS before `due` it blocks on
// the oldest outstanding request, waking when that request completes and at
// least every kPollS to collect requests that overtook it; inside the lead
// it sleeps in 20 us steps, so a request goes out close to its due time.
// Polling every outstanding future in 20 us steps instead (~50k wake-ups a
// second) takes a fifth of a vCPU from the pool and makes latency track the
// host's timer and wake-up cost.
void Bench::WaitForWork(double due) {
  constexpr double kLeadS = 100e-6;
  constexpr double kPollS = 200e-6;
  const double now = Now();
  if (due - now <= kLeadS) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    return;
  }
  const auto at = [this](double s) {
    return origin_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s));
  };
  if (outstanding_.empty()) {
    std::this_thread::sleep_until(at(due - kLeadS));
  } else {
    outstanding_.front().second.wait_until(
        at(std::min(due - kLeadS, now + kPollS)));
  }
}

// The untimed gap after a window: finish the write path, verify the plane,
// and prepare the next window's feedback.
void Bench::Gap(int index) {
  if (!w_.writes_under_load) IsolatedUpdate();
  world_.publisher->DrainUpdates();
  for (auto& t : tasks_) t.get();
  tasks_.clear();
  // Finish the sync the window left open (or one whose install came after
  // the window ended), catching up shards whose pull attempts ran out.
  const uint64_t v = world_.plane->version();
  seen_generation_ = world_.publisher->CurrentSnapshot()->generation();
  if (!sync_.active && v > synced_version_) {
    sync_ = SyncProbe{true, v, Now(), 0.0};
  }
  for (int round = 0;; ++round) {
    bool behind = false;
    for (size_t i = 0; i < world_.shards->num_shards(); ++i) {
      if (shard_ver_[i].load() < v) {
        behind = true;
        SyncShardOnce(i, v);
      }
    }
    if (!behind) break;
    if (round == 64) {
      ++check_failures_;
      problems_.push_back("shards did not reach plane version " +
                          std::to_string(v));
      break;
    }
  }
  if (sync_.active) {
    sync_s_.push_back(Now() - sync_.t_seen);
    synced_version_ = v;
    sync_.active = false;
  }
  // An update whose first post-update response did not arrive inside the
  // window is closed with one probe request from a tenant whose target
  // already serves the new model.
  if (update_.active) {
    for (size_t r = reqs_.size(); r-- > 0 && update_.active;) {
      const size_t job = reqs_[r].job;
      if (TargetVersion(traffic_.job(job).tenant) < update_.threshold) continue;
      const size_t idx = Submit(job, Now(), /*open_loop=*/false, index);
      reqs_[idx].counted = false;
      update_.first_req = idx;
      while (!outstanding_.empty()) {
        Poll();
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    update_.active = false;
  }
  PullReference();
  CheckTorn();
  if (w_.guarded) CheckEventLog();
  PrepareFeedback(index);
}

// The write path without load: one feedback batch, then probe requests
// one at a time (not counted) until a response comes from the new model
// and every shard serves the new plane version.
void Bench::IsolatedUpdate() {
  StartFeedback();
  const double deadline = Now() + 20.0;
  while ((update_.active || sync_.active) && Now() < deadline) {
    if (outstanding_.empty()) {
      const size_t idx = Submit(traffic_.Next(), Now(), false, kWarmUp);
      reqs_[idx].counted = false;
    }
    Poll();
    TrackPlane();
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  while (!outstanding_.empty()) {
    Poll();
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

// Pulls the current plane version over a clean link: the single-process
// reference blob set (and, for plane_fanout, the decoded reference model).
void Bench::PullReference() {
  const uint64_t v = world_.plane->version();
  if (published_.count(v)) return;
  std::string resp;
  const double handle = TimeSeconds([&] {
    resp = world_.plane->HandleRequestFrame(ref_puller_->MakeRequestFrame());
  });
  lite::modelplane::PullOutcome out;
  const double apply =
      TimeSeconds([&] { out = ref_puller_->ApplyResponseFrame(resp); });
  handle_ms_.push_back(handle * 1e3);
  apply_ms_.push_back(apply * 1e3);
  ++checks_;
  if (!out.ok || ref_puller_->installed_version() != v) {
    ++check_failures_;
    problems_.push_back("reference pull failed at plane version " +
                        std::to_string(v));
    return;
  }
  published_[v] = ref_puller_->installed_blobs();
  if (w_.sharded_serving || trace_) {
    std::unique_ptr<LoadedLiteModel> model;
    decode_ms_.push_back(TimeSeconds([&] {
                           model = LoadedLiteModel::LoadFromBlobs(
                               *published_[v], &runner_);
                         }) *
                         1e3);
    if (model != nullptr) reference_[v] = std::move(model);
  }
}

void Bench::CheckTorn() {
  for (size_t i = 0; i < world_.shards->num_shards(); ++i) {
    const auto& puller = world_.shards->puller(i);
    const uint64_t v = puller.installed_version();
    auto it = published_.find(v);
    if (it == published_.end()) continue;
    ++checks_;
    if (*puller.installed_blobs() != *it->second) {
      ++torn_;
      ++check_failures_;
      problems_.push_back("shard " + std::to_string(i) +
                          " holds a torn blob set at version " +
                          std::to_string(v));
    }
  }
}

void Bench::CheckEventLog() {
  lite::serve::RetrievalCache* cache = world_.publisher->retrieval();
  if (cache == nullptr) return;
  const std::vector<lite::serve::CacheEvent> log = cache->EventLog();
  ++checks_;
  if (!log.empty() && log.front().seq > event_seq_next_) {
    ++check_failures_;
    problems_.push_back("retrieval event log dropped events before seq " +
                        std::to_string(log.front().seq));
  }
  for (const auto& e : log) {
    if (e.seq < event_seq_next_) continue;
    if (e.type != lite::serve::CacheEventType::kHit) continue;
    ++memo_hits_checked_;
    if (e.generation != e.live_generation) {
      ++check_failures_;
      problems_.push_back("stale memo hit: generation " +
                          std::to_string(e.generation) + " live " +
                          std::to_string(e.live_generation));
    }
  }
  if (!log.empty()) event_seq_next_ = log.back().seq + 1;
}

// Runs a share of this window's served configs on the simulator; they are
// fed back at the start of the next window. Feedback run k of window w is a
// seeded pick among the window's
// served requests of catalog app (w + 1) * kFeedbackRuns + k (mod 15), so
// every seed fine-tunes on the same application mix.
void Bench::PrepareFeedback(int window) {
  const size_t num_apps = spark::AppCatalog::Count();
  std::vector<std::vector<size_t>> served(num_apps + 1);
  for (size_t i = 0; i < reqs_.size(); ++i) {
    if (reqs_[i].window == window && reqs_[i].ok && reqs_[i].counted) {
      served[traffic_.job(reqs_[i].job).app - &spark::AppCatalog::All()[0]]
          .push_back(i);
      served[num_apps].push_back(i);
    }
  }
  feedback_.clear();
  if (served[num_apps].empty()) return;
  for (size_t k = 0; k < kFeedbackRuns; ++k) {
    const size_t app =
        (static_cast<size_t>(window + 1) * kFeedbackRuns + k) % num_apps;
    const std::vector<size_t>& pool =
        served[app].empty() ? served[num_apps] : served[app];
    const Request& req = reqs_[pool[pick_rng_.Index(pool.size())]];
    const Job& job = traffic_.job(req.job);
    SimRun run;
    run.job = req.job;
    run.config = req.rec.config;
    const Clock::time_point t0 = Clock::now();
    spark::Submission sub =
        runner_.Submit(*job.app, job.data, job.env, run.config);
    measure_ms_.push_back(SecondsSince(t0) * 1e3);
    run.outcome.failed = sub.result.failed;
    run.outcome.censored = sub.result.failed;
    run.outcome.seconds = sub.result.failed ? runner_.failure_cap_seconds()
                                            : sub.result.total_seconds;
    run.outcome.attempts = 1;
    run.outcome.result = std::move(sub.result);
    feedback_.push_back(std::move(run));
  }
}

void Bench::OpenLoop(double seconds) {
  const int windows =
      std::max(2, static_cast<int>(std::lround(seconds / w_.window_s)));
  const double per = seconds / windows;
  for (int k = 0; k < windows; ++k) {
    Window(k, per);
    Gap(k);
  }
}

// Seeded sample of served responses re-derived through the public API:
// fresh_exact_1k against LoadedLiteModel::Recommend on the serving
// snapshot, plane_fanout against the single-process reference decoded
// from the plane at the shard's version.
void Bench::CheckResponses() {
  if (w_.guarded) return;  // tenant_mix: the event-log check instead.
  std::vector<size_t> cand;
  for (size_t i = 0; i < reqs_.size(); ++i) {
    const Request& r = reqs_[i];
    if (r.ok && r.snap != nullptr && !r.from_cache && !r.from_incumbent &&
        !r.probe) {
      cand.push_back(i);
    }
  }
  const size_t n = std::min<size_t>(cand.size(), tiny_ ? 4 : 24);
  for (size_t k = 0; k < n; ++k) {
    const Request& r = reqs_[cand[pick_rng_.Index(cand.size())]];
    const Job& job = traffic_.job(r.job);
    const LoadedLiteModel* ref = r.snap.get();
    if (w_.sharded_serving) {
      uint64_t version = 0;
      {
        std::lock_guard<std::mutex> lock(sync_mu_);
        auto v = snap_version_.find(r.snap.get());
        if (v != snap_version_.end()) version = v->second;
      }
      auto it = reference_.find(version);
      if (it == reference_.end()) continue;
      ref = it->second.get();
    }
    const LiteSystem::Recommendation want =
        ref->Recommend(*job.app, job.data, job.env);
    ++checks_;
    if (want.config != r.rec.config ||
        want.predicted_seconds != r.rec.predicted_seconds ||
        want.candidates_evaluated != r.rec.candidates_evaluated) {
      ++check_failures_;
      problems_.push_back("response for " + job.app->name +
                          " differs from the reference recommendation");
    }
  }
}

double Bench::TunedSpeedup() {
  const spark::Config def = spark::KnobSpace::Spark16().DefaultConfig();
  std::map<size_t, double> default_s;
  std::map<std::pair<size_t, spark::Config>, double> served_s;
  auto measure = [&](const Job& job, const spark::Config& c) {
    const Clock::time_point t0 = Clock::now();
    const double s = runner_.Measure(*job.app, job.data, job.env, c);
    measure_ms_.push_back(SecondsSince(t0) * 1e3);
    return s;
  };
  // Closed-loop responses: all served by the offline-trained model, so the
  // figure does not depend on which feedback the updates happened to see.
  std::vector<size_t> served;
  for (size_t i = 0; i < reqs_.size(); ++i) {
    if (!reqs_[i].open_loop && reqs_[i].window == -1 && reqs_[i].ok) {
      served.push_back(i);
    }
  }
  // Evenly spaced sample of at most 4000 served responses.
  const size_t step = std::max<size_t>(1, served.size() / 4000);
  double log_sum = 0.0;
  size_t n = 0;
  for (size_t k = 0; k < served.size(); k += step) {
    const Request& r = reqs_[served[k]];
    const Job& job = traffic_.job(r.job);
    auto d = default_s.find(r.job);
    if (d == default_s.end()) {
      d = default_s.emplace(r.job, measure(job, def)).first;
    }
    const auto key = std::make_pair(r.job, r.rec.config);
    auto s = served_s.find(key);
    if (s == served_s.end()) {
      s = served_s.emplace(key, measure(job, r.rec.config)).first;
    }
    log_sum += std::log(d->second / s->second);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

// Replays sampled requests through the public pipeline stages on a cold
// clone of the serving snapshot, timing every stage, and checks that the
// replay reproduces the served recommendation bit for bit.
void Bench::Replay() {
  std::vector<size_t> cand;
  for (size_t i = 0; i < reqs_.size(); ++i) {
    const Request& r = reqs_[i];
    if (r.ok && r.snap != nullptr && !r.from_cache && !r.from_incumbent &&
        !r.probe) {
      cand.push_back(i);
    }
  }
  const size_t n = std::min<size_t>(cand.size(), tiny_ ? 3 : 16);
  lite::CorpusBuilder builder(&runner_);
  for (size_t k = 0; k < n; ++k) {
    const size_t idx = cand[pick_rng_.Index(cand.size())];
    const Request& r = reqs_[idx];
    const Job& job = traffic_.job(r.job);
    const uint64_t id = r.id;
    std::unique_ptr<LoadedLiteModel> clone;
    const Clock::time_point tc = Clock::now();
    clone = r.snap->Clone();
    const Clock::time_point tc1 = Clock::now();
    replay_.clone.push_back(Seconds(tc1 - tc) * 1e3);
    spans_.Add("update.clone", id, tc, tc1);
    std::vector<const lite::NecsModel*> members;
    for (size_t m = 0; m < clone->ensemble_size(); ++m) {
      members.push_back(clone->model(m));
    }
    lite::serve::ScoringOptions opts = r.snap->scoring();

    std::vector<std::pair<const char*, Clock::time_point>> marks;
    const Clock::time_point t0 = Clock::now();
    Rng rng(r.snap->seed() ^ std::hash<std::string>{}(job.app->name));
    std::vector<spark::Config> sampled =
        clone->candidate_generator().SampleCandidates(
            *job.app, job.data, job.env, clone->num_candidates(), &rng);
    const size_t n_sampled = sampled.size();
    const Clock::time_point t1 = Clock::now();
    std::vector<spark::Config> cands = lite::DedupeConfigs(std::move(sampled));
    const size_t n_unique = cands.size();
    const Clock::time_point t2 = Clock::now();
    {
      std::vector<spark::Config> feasible;
      for (const auto& c : cands) {
        if (spark::PlacementFeasible(job.env, c)) feasible.push_back(c);
      }
      if (!feasible.empty()) cands = std::move(feasible);
    }
    const Clock::time_point t3 = Clock::now();
    const lite::CandidateEval base = builder.FeaturizeCandidate(
        clone->feature_space(), *job.app, job.data, job.env, cands[0]);
    const Clock::time_point t4 = Clock::now();
    // Cold encoders of the serving backend (an int8 twin is built first).
    for (const lite::NecsModel* m : members) {
      if (opts.backend == QuantBackend::kExactFp32) {
        m->WarmEncoderCache(base.stage_instances);
      } else {
        m->Quantized(opts.backend)->WarmEncoderCache(base.stage_instances);
      }
    }
    const Clock::time_point t5 = Clock::now();
    const std::vector<double> scores = lite::serve::ScoreCandidateSet(
        &runner_, clone->feature_space(), members, *job.app, job.data, job.env,
        cands, opts);
    const Clock::time_point t6 = Clock::now();
    LiteSystem::Recommendation best;
    best.predicted_seconds = std::numeric_limits<double>::infinity();
    size_t best_i = cands.size();
    for (size_t i = 0; i < cands.size(); ++i) {
      if (!std::isfinite(scores[i])) continue;
      if (scores[i] < best.predicted_seconds) {
        best.predicted_seconds = scores[i];
        best.config = cands[i];
        best_i = i;
      }
    }
    if (best_i == cands.size() && !cands.empty()) {
      best.config = cands[0];
      best.predicted_seconds = scores[0];
    }
    best.candidates_evaluated = cands.size();
    const Clock::time_point t7 = Clock::now();

    spans_.Add("replay", id, t0, t7);
    spans_.Add("candidates.sample", id, t0, t1);
    spans_.Add("candidates.dedupe", id, t1, t2);
    spans_.Add("candidates.feasible", id, t2, t3);
    spans_.Add("scoring.featurize", id, t3, t4);
    spans_.Add("scoring.encode", id, t4, t5);
    spans_.Add("scoring.score", id, t5, t6);
    spans_.Add("argmin", id, t6, t7);
    const double wall = Seconds(t7 - t0);
    const double phases = Seconds(t1 - t0) + Seconds(t2 - t1) +
                          Seconds(t3 - t2) + Seconds(t4 - t3) +
                          Seconds(t5 - t4) + Seconds(t6 - t5) +
                          Seconds(t7 - t6);
    replay_.sample.push_back(Seconds(t1 - t0) * 1e3);
    replay_.dedupe.push_back(Seconds(t2 - t1) * 1e3);
    replay_.feasible.push_back(Seconds(t3 - t2) * 1e3);
    replay_.featurize.push_back(Seconds(t4 - t3) * 1e3);
    replay_.encode.push_back(Seconds(t5 - t4) * 1e3);
    replay_.score.push_back(Seconds(t6 - t5) * 1e3);
    replay_.coverage.push_back(wall > 0 ? phases / wall : 1.0);
    replay_.unique_frac.push_back(
        n_sampled == 0 ? 0.0 : static_cast<double>(n_unique) / n_sampled);
    replay_.feasible_frac.push_back(
        n_unique == 0 ? 0.0 : static_cast<double>(cands.size()) / n_unique);
    replay_.us_per_cand.push_back(Seconds(t6 - t5) * 1e6 /
                                  static_cast<double>(cands.size()));

    // The other backend, timed on warm encoders: an untimed first call
    // warms them (and builds the int8 twin).
    lite::serve::ScoringOptions other = opts;
    other.backend = opts.backend == QuantBackend::kExactFp32
                        ? QuantBackend::kInt8
                        : QuantBackend::kExactFp32;
    lite::serve::ScoreCandidateSet(&runner_, clone->feature_space(), members,
                                   *job.app, job.data, job.env, cands, other);
    const double other_s = TimeSeconds([&] {
      lite::serve::ScoreCandidateSet(&runner_, clone->feature_space(), members,
                                     *job.app, job.data, job.env, cands, other);
    });
    replay_.other_score.push_back(other_s * 1e3);
    replay_.other_us_per_cand.push_back(other_s * 1e6 /
                                        static_cast<double>(cands.size()));

    // Retrieval seeds extend the pool of a guarded request; only an
    // unseeded pool is comparable.
    if (r.rec.candidates_evaluated != best.candidates_evaluated) {
      ++replay_.seeded;
      continue;
    }
    ++replay_.compared;
    ++checks_;
    if (best.config == r.rec.config &&
        best.predicted_seconds == r.rec.predicted_seconds) {
      ++replay_.reproduced;
    } else {
      ++check_failures_;
      problems_.push_back("replay of request " + std::to_string(idx) +
                          " did not reproduce the served recommendation");
    }
  }
}

// Outside-in timings of the snapshot and plane layers' public calls.
void Bench::LayerProbes() {
  auto snap = world_.publisher->CurrentSnapshot();
  Blobs blobs;
  for (int i = 0; i < 3; ++i) {
    blobs.clear();
    encode_blobs_ms_.push_back(
        TimeSeconds([&] { snap->EncodeBlobs(&blobs); }) * 1e3);
    std::unique_ptr<LoadedLiteModel> m;
    decode_ms_.push_back(TimeSeconds([&] {
                           m = LoadedLiteModel::LoadFromBlobs(blobs, &runner_);
                         }) *
                         1e3);
  }
  snapshot_bytes_ = 0.0;
  for (const auto& [k, v] : blobs) {
    snapshot_bytes_ += static_cast<double>(v.size());
  }
  // Publish alternately the first and the last published blob sets to a
  // scratch server: a full then delta-sized change set each time.
  if (!published_.empty()) {
    ModelPlaneServer scratch;
    const Blobs& a = *published_.begin()->second;
    const Blobs& b = *published_.rbegin()->second;
    for (int i = 0; i < 6; ++i) {
      const Blobs& set = (i % 2 == 0) ? a : b;
      publish_ms_.push_back(TimeSeconds([&] { scratch.Publish(set); }) * 1e3);
    }
  }
}

std::vector<double> Bench::OpenLoopLatencyMs() const {
  std::vector<double> lat;
  for (const Request& r : reqs_) {
    if (r.open_loop && r.counted && r.ok) {
      lat.push_back((r.done_s - r.due_s) * 1e3);
    }
  }
  return lat;
}

void Bench::EndToEnd(MetricSet* m) {
  const std::vector<double> lat = OpenLoopLatencyMs();
  size_t sent = 0, ok_slo = 0;
  for (const Request& r : reqs_) {
    if (!r.open_loop || !r.counted) continue;
    ++sent;
    if (r.ok && (r.done_s - r.due_s) * 1e3 <= w_.slo_ms) ++ok_slo;
  }
  const auto ps = world_.plane->stats();
  const double push_bytes = static_cast<double>(
      ps.full_push_bytes + ps.delta_push_bytes - push_bytes_start_);
  const double updates = static_cast<double>(
      world_.plane->version() - plane_versions_published_);
  m->Set("setup_s", Median(setup_s_), "s");
  m->Set("capacity_rps", Median(closed_rps_), "req/s");
  m->Set("p50_ms", Percentile(lat, 50), "ms");
  m->Set("slo_frac", Ratio(ok_slo, sent), "ratio");
  m->Set("tuned_speedup", TunedSpeedup(), "x");
  m->Set("update_s", Median(update_s_), "s");
  m->Set("sync_s", Median(sync_s_), "s");
  const double shards = static_cast<double>(world_.shards->num_shards());
  m->Set("push_kb", Ratio(push_bytes / 1024.0, updates * shards), "KiB");
  m->Set("peak_rss_mb", PeakRssMb(), "MiB");
}

void Bench::PerLayer(MetricSet* m) {
  std::vector<double> submit_us, outside_ms, late_ms;
  size_t sent = 0, rejected = 0, ok = 0, incumbent = 0, probe = 0;
  for (const Request& r : reqs_) {
    if (!r.counted || !r.open_loop) continue;
    submit_us.push_back(r.submit_us);
    ++sent;
    late_ms.push_back(r.late_ms);
    if (r.rejected) ++rejected;
    if (!r.ok) continue;
    ++ok;
    if (r.from_incumbent) ++incumbent;
    if (r.probe) ++probe;
    if (!r.from_cache && !r.from_incumbent) {
      outside_ms.push_back((r.done_s - r.due_s - r.late_ms / 1e3 -
                            r.rec.recommend_wall_seconds) *
                           1e3);
    }
  }
  m->Set("serve.submit_us.p50", Median(submit_us), "us");
  m->Set("serve.submit_us.p99", Percentile(submit_us, 99), "us");
  m->Set("serve.outside_ms.p50", Median(outside_ms), "ms");
  m->Set("serve.outside_ms.p99", Percentile(outside_ms, 99), "ms");
  m->Set("serve.pending_peak", pending_peak_, "count");
  m->Set("serve.rejected_frac", Ratio(rejected, sent), "ratio");
  m->Set("serve.feedback_us.p50", Median(feedback_us_), "us");
  m->Set("serve.feedback_us.p99", Percentile(feedback_us_, 99), "us");
  double hit_frac = 0.0, seeds_per_miss = 0.0;
  if (auto* cache = world_.publisher->retrieval()) {
    const auto s = cache->stats();
    const auto& s0 = retrieval_start_;
    const double hits = static_cast<double>(s.hits - s0.hits);
    const double misses = static_cast<double>(s.misses - s0.misses);
    hit_frac = Ratio(hits, hits + misses);
    seeds_per_miss = Ratio(s.seeds_retrieved - s0.seeds_retrieved, misses);
  }
  m->Set("retrieval.memo_hit_frac", hit_frac, "ratio");
  m->Set("retrieval.seeds_per_miss", seeds_per_miss, "count");
  m->Set("guardrail.incumbent_frac", Ratio(incumbent, ok), "ratio");
  m->Set("guardrail.probe_frac", Ratio(probe, ok), "ratio");

  m->Set("candidates.sample_ms", Median(replay_.sample), "ms");
  m->Set("candidates.dedupe_ms", Median(replay_.dedupe), "ms");
  m->Set("candidates.feasible_ms", Median(replay_.feasible), "ms");
  m->Set("candidates.unique_frac", Median(replay_.unique_frac), "ratio");
  m->Set("candidates.feasible_frac", Median(replay_.feasible_frac), "ratio");
  const bool exact = w_.backend == QuantBackend::kExactFp32;
  m->Set("scoring.featurize_ms", Median(replay_.featurize), "ms");
  m->Set("scoring.encode_ms", Median(replay_.encode), "ms");
  m->Set("scoring.score_ms.exact",
         Median(exact ? replay_.score : replay_.other_score), "ms");
  m->Set("scoring.score_ms.int8",
         Median(exact ? replay_.other_score : replay_.score), "ms");
  m->Set("scoring.us_per_cand.exact",
         Median(exact ? replay_.us_per_cand : replay_.other_us_per_cand), "us");
  m->Set("scoring.us_per_cand.int8",
         Median(exact ? replay_.other_us_per_cand : replay_.us_per_cand), "us");
  m->Set("pipeline.coverage", Median(replay_.coverage), "ratio");

  auto& reg = lite::obs::MetricsRegistry::Global();
  const auto fit =
      reg.GetHistogram("lite_model_update_fit_seconds")->Snapshot();
  m->Set("update.fit_ms",
         Ratio(fit.sum - fit_sum_start_, fit.count - fit_count_start_) * 1e3,
         "ms");
  m->Set("update.clone_ms", Median(replay_.clone), "ms");
  const uint64_t updates =
      reg.GetCounter("serve_adaptive_updates_total")->Value();
  m->Set("update.count", static_cast<double>(updates - updates_start_),
         "count");
  const double dropped = world_.publisher->stats().bad_feedback_dropped;
  m->Set("update.kept_frac", Ratio(feedback_runs_ - dropped, feedback_runs_),
         "ratio");

  m->Set("snapshot.save_ms", Median(save_ms_), "ms");
  m->Set("snapshot.load_ms", Median(load_ms_), "ms");
  m->Set("snapshot.encode_ms", Median(encode_blobs_ms_), "ms");
  m->Set("snapshot.decode_ms", Median(decode_ms_), "ms");
  m->Set("snapshot.bytes", snapshot_bytes_, "bytes");

  const auto ps = world_.plane->stats();
  const double mean_full = Ratio(ps.full_push_bytes, ps.full_pushes);
  const double mean_delta = Ratio(ps.delta_push_bytes, ps.delta_pushes);
  uint64_t pulls = 0, failures = 0;
  for (size_t i = 0; i < world_.shards->num_shards(); ++i) {
    const auto s = world_.shards->puller(i).stats();
    pulls += s.pulls;
    failures += s.failures;
  }
  const auto ss = world_.shards->stats();
  m->Set("plane.publish_ms", Median(publish_ms_), "ms");
  m->Set("plane.handle_ms", Median(handle_ms_), "ms");
  m->Set("plane.apply_ms", Median(apply_ms_), "ms");
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    m->Set("plane.sync_shard_ms", Median(sync_shard_ms_), "ms");
  }
  m->Set("plane.delta_ratio", Ratio(mean_delta, mean_full), "ratio");
  m->Set("plane.attempts_per_install",
         ss.installs > installs_start_
             ? static_cast<double>(ss.syncs - syncs_start_) /
                   static_cast<double>(ss.installs - installs_start_)
             : 0.0,
         "count");
  m->Set("plane.rejected_frac", Ratio(failures, pulls), "ratio");
  m->Set("plane.torn", static_cast<double>(torn_), "count");

  m->Set("sparksim.measure_ms", Mean(measure_ms_), "ms");
  m->Set("obs.trace_overhead_frac", trace_overhead_frac_, "ratio");
  m->Set("loadgen.late_ms.p99", Percentile(late_ms, 99), "ms");
}

int Bench::Run(const std::string& git_sha) {
  // Sleep granularity of the polling generator thread.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  snap_root_ = out_dir_ + "/snap_" + w_.name + "_" + std::to_string(getpid());
  std::filesystem::create_directories(snap_root_);

  const int reps = tiny_ ? 1 : 3;
  for (int rep = 0; rep < reps; ++rep) {
    World world;
    if (!Setup(rep, &world)) {
      std::cerr << "perfbench: setup failed\n";
      return 3;
    }
    setup_s_.push_back(world.setup_s);
    save_ms_.push_back(world.save_s * 1e3);
    load_ms_.push_back(world.load_s * 1e3);
    if (rep + 1 == reps) world_ = std::move(world);
  }

  DeprioritizeOtherThreads();
  origin_ = Clock::now();
  ref_puller_ =
      std::make_unique<lite::modelplane::ShardPuller>(world_.plane->chain());
  synced_version_ = world_.plane->version();
  seen_generation_ = world_.publisher->CurrentSnapshot()->generation();
  shard_ver_ =
      std::make_unique<std::atomic<uint64_t>[]>(world_.shards->num_shards());
  for (size_t i = 0; i < world_.shards->num_shards(); ++i) {
    const uint64_t v = world_.shards->shard_version(i);
    shard_ver_[i].store(v);
    snap_version_[world_.shards->shard(i)->CurrentSnapshot().get()] = v;
  }
  // Request spans for about 100 requests per second.
  trace_stride_ = static_cast<uint64_t>(std::ceil(w_.rate_rps / 100.0));
  PullReference();
  auto& reg = lite::obs::MetricsRegistry::Global();

  // Warm-up, not measured: process-wide lazy state (per-application
  // instrumentation, allocator arenas) fills before any timing.
  ClosedLoop(tiny_ ? 0.3 : 2.5, false, kWarmUp);
  const double closed = std::max(0.5, seconds_ / 3);
  keep_stride_ = std::max<size_t>(
      1, static_cast<size_t>(closed_rps_.back() * closed / 4000.0));
  closed_rps_.clear();

  // Closed loop: capacity. In the traced run it alternates span recording
  // off and on in four blocks; the throughput ratio is the tracing cost.
  if (trace_) {
    double rate[2] = {0.0, 0.0};
    for (int block = 0; block < 4; ++block) {
      const bool on = block % 2 == 1;
      ClosedLoop(closed / 4, on);
      rate[on] += closed_rps_.back();
    }
    trace_overhead_frac_ = rate[1] > 0 ? rate[0] / rate[1] - 1.0 : 0.0;
  } else {
    ClosedLoop(closed, false);
  }

  // Open loop with the write path.
  const auto ps = world_.plane->stats();
  push_bytes_start_ = ps.full_push_bytes + ps.delta_push_bytes;
  plane_versions_published_ = world_.plane->version();
  const auto ss = world_.shards->stats();
  syncs_start_ = ss.syncs;
  installs_start_ = ss.installs;
  const auto fit =
      reg.GetHistogram("lite_model_update_fit_seconds")->Snapshot();
  fit_sum_start_ = fit.sum;
  fit_count_start_ = fit.count;
  updates_start_ = reg.GetCounter("serve_adaptive_updates_total")->Value();
  if (auto* cache = world_.publisher->retrieval()) {
    retrieval_start_ = cache->stats();
    // Hot-swaps happen only in the open loop, so the stale-hit check starts
    // there; each window's events fit the default event-log ring.
    const auto log = cache->EventLog();
    event_seq_next_ = log.empty() ? 0 : log.back().seq + 1;
  }
  PrepareFeedback(-1);
  OpenLoop(std::max(1.0, seconds_ - closed));

  CheckResponses();
  MetricSet metrics;
  if (trace_) {
    Replay();
    LayerProbes();
    PerLayer(&metrics);
    const std::string path = out_dir_ + "/trace_" + w_.name + "_" +
                             std::to_string(seed_) + ".json";
    if (!spans_.WriteChromeTrace(path)) {
      std::cerr << "perfbench: could not write " << path << "\n";
    }
  } else {
    EndToEnd(&metrics);
  }

  size_t sent = dropped_.sent, ok = dropped_.ok, failed = dropped_.failed,
         rejected = dropped_.rejected;
  for (const Request& r : reqs_) {
    if (!r.counted) continue;
    ++sent;
    if (r.ok) ++ok;
    else if (r.rejected) ++rejected;
    else ++failed;
  }
  const Summary latency = Summarize(OpenLoopLatencyMs());
  JsonObject record = traffic_.Record();
  record.Add("workload", w_.name)
      .Add("sent", static_cast<double>(sent))
      .Add("ok", static_cast<double>(ok))
      .Add("failed", static_cast<double>(failed))
      .Add("rejected", static_cast<double>(rejected))
      .Add("pool_size", static_cast<double>(w_.num_candidates))
      .Add("backend", lite::QuantBackendName(w_.backend))
      .Add("open_loop_rps", w_.rate_rps)
      .Add("slo_ms", w_.slo_ms)
      .Add("latency_samples", static_cast<double>(latency.n))
      .Add("capacity_raw_rps", closed_raw_rps_)
      .Add("capacity_steal_frac", closed_steal_frac_)
      .Add("p99_ms", Percentile(OpenLoopLatencyMs(), 99))
      .Add("latency_tail_pct", latency.tail_pct)
      .Add("latency_tail_ms", latency.tail)
      .Add("feedback_runs", static_cast<double>(feedback_runs_))
      .Add("feedback_share", Ratio(feedback_runs_, ok))
      .Add("updates", static_cast<double>(updates_triggered_))
      .Add("shards", static_cast<double>(world_.shards->num_shards()))
      .Add("fault_rate", w_.fault_rate)
      .Add("checks", static_cast<double>(checks_))
      .Add("check_failures", static_cast<double>(check_failures_))
      .Add("memo_hits_checked", static_cast<double>(memo_hits_checked_))
      .Add("replays_compared", static_cast<double>(replay_.compared))
      .Add("replays_reproduced", static_cast<double>(replay_.reproduced))
      .Add("replays_seeded", static_cast<double>(replay_.seeded))
      .Add("spans", static_cast<double>(spans_.size()));
  std::cout << "env " << EnvMetadata(seed_, kProfile, git_sha).Str() << "\n";
  std::cout << "traffic " << record.Str() << "\n";
  for (const std::string& p : problems_) {
    std::cerr << "perfbench: CHECK FAILED: " << p << "\n";
  }

  const bool correct = check_failures_ == 0 && failed == 0;
  std::cout << JsonObject()
                   .Add("correct", correct)
                   .Add("attempted", static_cast<double>(sent + checks_))
                   .Add("failed", static_cast<double>(failed + rejected +
                                                      check_failures_))
                   .Raw("metrics", metrics.Json())
                   .Str()
            << std::endl;
  std::filesystem::remove_all(snap_root_);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false, tiny = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = value == "1";
    else if (flag == "--tiny") tiny = value == "1";
    else {
      std::cerr << "perfbench: unknown flag " << flag << "\n";
      return 2;
    }
  }
  const perfbench::WorkloadSpec* spec = nullptr;
  for (const auto& w : perfbench::kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr || !(seconds > 0.0)) {
    std::cerr << "usage: perfbench --workload fresh_exact_1k|tenant_mix|"
                 "plane_fanout --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  const char* out = std::getenv("PERFBENCH_OUT_DIR");
  perfbench::Bench bench(*spec, seed, seconds, trace, tiny,
                         out ? out : ".bench_build/perfbench_out");
  return bench.Run(sha ? sha : "unknown");
}
