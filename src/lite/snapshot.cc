#include "lite/snapshot.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "lite/features.h"
#include "ml/serialization.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/text_codec.h"

namespace lite {

namespace {
constexpr char kMetaMagic[] = "litesnapshot";
constexpr char kMetaVersion[] = "v1";

uint64_t Fnv1a(const std::string& s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}
constexpr uint64_t kFnvInit = 1469598103934665603ull;

/// Everything the writers need, decoupled from whether the source is a
/// LiteSystem (offline training) or a LoadedLiteModel (a served snapshot
/// being republished to the model plane after an adaptive update).
struct SnapshotView {
  size_t max_code_tokens = 0;
  size_t bow_dims = 0;
  size_t num_candidates = 0;
  uint64_t seed = 0;
  NecsConfig necs;
  const TokenVocab* vocab = nullptr;
  const spark::OpVocab* op_vocab = nullptr;
  std::vector<std::vector<VarPtr>> members;
  std::vector<VarPtr> stage_head;  ///< empty = no per-stage head.
  const CandidateGenerator* acg = nullptr;
};

/// Renders the full ordered part list — data parts first, meta.txt (the
/// commit marker, carrying a content hash line per data part) strictly
/// last. Returns false when any component writer fails.
bool RenderSnapshotParts(
    const SnapshotView& v,
    std::vector<std::pair<std::string, std::string>>* parts) {
  parts->clear();
  std::vector<std::pair<std::string, uint64_t>> part_hashes;
  auto add = [&](const std::string& name, const std::string& bytes) {
    part_hashes.emplace_back(name, Fnv1a(bytes, kFnvInit));
    parts->emplace_back(name, bytes);
  };
  {
    std::ostringstream out;
    v.vocab->Serialize(&out);
    if (!out) return false;
    add("vocab.txt", out.str());
  }
  {
    std::ostringstream out;
    v.op_vocab->Serialize(&out);
    if (!out) return false;
    add("opvocab.txt", out.str());
  }
  for (size_t i = 0; i < v.members.size(); ++i) {
    add("necs_" + std::to_string(i) + ".txt", SerializeParams(v.members[i]));
  }
  if (!v.stage_head.empty()) {
    add("stagehead.txt", SerializeParams(v.stage_head));
  }
  {
    TextWriter out;
    out.Put(std::string_view("acg v1 "), v.acg->forests().size(), '\n');
    for (double s : v.acg->sigmas()) out.Put(s, ' ');
    out.Put('\n');
    for (const auto& f : v.acg->forests()) SerializeForest(f, &out);
    add("acg.txt", out.str());
  }
  {
    std::ostringstream meta;
    meta << kMetaMagic << " " << kMetaVersion << "\n";
    meta << "ensemble " << v.members.size() << "\n";
    meta << "max_code_tokens " << v.max_code_tokens << "\n";
    meta << "bow_dims " << v.bow_dims << "\n";
    meta << "num_candidates " << v.num_candidates << "\n";
    meta << "seed " << v.seed << "\n";
    meta << "necs " << v.necs.emb_dim << " " << v.necs.cnn_kernels << " "
         << v.necs.code_dim << " " << v.necs.gcn_hidden << " "
         << v.necs.gcn_layers << " " << v.necs.mlp_hidden << " "
         << v.necs.cnn_widths.size();
    for (size_t w : v.necs.cnn_widths) meta << " " << w;
    meta << "\n";
    meta << "encoders " << (v.necs.use_code_encoder ? 1 : 0) << " "
         << (v.necs.use_dag_encoder ? 1 : 0) << "\n";
    if (!v.stage_head.empty()) {
      // Readers that predate per-stage tuning skip this unknown key (and
      // never look for stagehead.txt) — forward compatible by design.
      meta << "stagehead 1\n";
    }
    // Per-part content digests (FNV-1a 64, the same hash the model plane
    // uses for its blob manifests). A loader verifies each part it READS
    // against its hash line and rejects a mixed-version directory as a
    // whole; parts it does not read (a hand-edited `stagehead 0` flag)
    // stay unverified, and older loaders skip the keys entirely — the
    // meta-editability contract is preserved.
    for (const auto& [name, hash] : part_hashes) {
      meta << "part " << name << " " << hash << "\n";
    }
    if (!meta) return false;
    parts->emplace_back("meta.txt", meta.str());
  }
  return true;
}

void NoteSaveFailed() {
  obs::MetricsRegistry::Global()
      .GetCounter("lite_snapshot_save_failed_total")
      ->Inc();
}

/// Stage-all-then-publish over util/atomic_file.h: every part is written
/// and fsync-flushed to its temp first; only when all temps verified are
/// they renamed into place, commit marker (meta.txt, last element) last.
bool WritePartsAtomically(
    const std::vector<std::pair<std::string, std::string>>& parts,
    const std::string& dir) {
  std::vector<std::unique_ptr<AtomicFileWriter>> writers;
  writers.reserve(parts.size());
  for (const auto& [name, bytes] : parts) {
    auto w = std::make_unique<AtomicFileWriter>(dir + "/" + name);
    if (!w->ok()) return false;
    w->stream().write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
    if (!w->Stage()) return false;
    writers.push_back(std::move(w));
  }
  for (auto& w : writers) {
    if (!w->Publish()) return false;
  }
  return true;
}

bool ViewOfSystem(const LiteSystem& system, SnapshotView* v) {
  if (!system.trained()) return false;
  const Corpus& corpus = system.corpus();
  v->max_code_tokens = corpus.max_code_tokens;
  v->bow_dims = corpus.bow_dims;
  v->num_candidates = system.options().num_candidates;
  v->seed = system.options().seed;
  v->necs = system.options().necs;
  v->vocab = corpus.vocab.get();
  v->op_vocab = corpus.op_vocab.get();
  for (size_t i = 0; i < system.ensemble_size(); ++i) {
    const NecsModel* m = system.ensemble_member(i);
    if (m == nullptr) return false;
    v->members.push_back(m->Params());
  }
  if (system.stage_head() != nullptr) {
    v->stage_head = system.stage_head()->Params();
  }
  v->acg = &system.candidate_generator();
  return true;
}

}  // namespace

bool SaveSnapshot(const LiteSystem& system, const std::string& dir) {
  SnapshotView v;
  std::vector<std::pair<std::string, std::string>> parts;
  if (!ViewOfSystem(system, &v) || !RenderSnapshotParts(v, &parts) ||
      !WritePartsAtomically(parts, dir)) {
    NoteSaveFailed();
    return false;
  }
  return true;
}

bool SnapshotExists(const std::string& dir) {
  std::ifstream meta(dir + "/meta.txt");
  return static_cast<bool>(meta);
}

bool EncodeSnapshotBlobs(const LiteSystem& system,
                         std::map<std::string, std::string>* blobs) {
  SnapshotView v;
  std::vector<std::pair<std::string, std::string>> parts;
  if (!ViewOfSystem(system, &v) || !RenderSnapshotParts(v, &parts)) {
    return false;
  }
  blobs->clear();
  for (auto& [name, bytes] : parts) (*blobs)[name] = std::move(bytes);
  return true;
}

bool LoadedLiteModel::EncodeBlobs(
    std::map<std::string, std::string>* blobs) const {
  SnapshotView v;
  v.max_code_tokens = feature_space_.max_code_tokens;
  v.bow_dims = feature_space_.bow_dims;
  v.num_candidates = num_candidates_;
  v.seed = seed_;
  v.necs = necs_config_;
  v.vocab = feature_space_.vocab.get();
  v.op_vocab = feature_space_.op_vocab.get();
  for (const auto& m : models_) v.members.push_back(m->Params());
  if (stage_head_ != nullptr) v.stage_head = stage_head_->Params();
  v.acg = &acg_;
  std::vector<std::pair<std::string, std::string>> parts;
  if (!RenderSnapshotParts(v, &parts)) return false;
  blobs->clear();
  for (auto& [name, bytes] : parts) (*blobs)[name] = std::move(bytes);
  return true;
}

std::unique_ptr<LoadedLiteModel> LoadedLiteModel::Load(
    const std::string& dir, const spark::SparkRunner* runner) {
  return LoadFromSource(
      [&dir](const std::string& name, std::string* bytes) {
        return ReadWholeFile(dir + "/" + name, bytes);
      },
      runner);
}

std::unique_ptr<LoadedLiteModel> LoadedLiteModel::LoadFromBlobs(
    const std::map<std::string, std::string>& blobs,
    const spark::SparkRunner* runner) {
  return LoadFromSource(
      [&blobs](const std::string& name, std::string* bytes) {
        auto it = blobs.find(name);
        if (it == blobs.end()) return false;
        *bytes = it->second;
        return true;
      },
      runner);
}

std::unique_ptr<LoadedLiteModel> LoadedLiteModel::LoadFromSource(
    const SnapshotSource& fetch, const spark::SparkRunner* runner) {
  auto loaded = std::unique_ptr<LoadedLiteModel>(new LoadedLiteModel());
  loaded->runner_ = runner;

  size_t ensemble = 0;
  bool has_stage_head = false;
  std::map<std::string, uint64_t> part_hashes;
  NecsConfig necs;
  {
    // meta.txt is the commit marker: an atomic save publishes it last, so
    // its absence means "no snapshot here (yet)" — e.g. a half-replicated
    // directory observed by a hot-swap pull — not corruption.
    std::string meta_bytes;
    if (!fetch("meta.txt", &meta_bytes)) return nullptr;
    std::istringstream meta(meta_bytes);
    std::string magic, version, key;
    if (!(meta >> magic >> version) || magic != kMetaMagic ||
        version != kMetaVersion) {
      return nullptr;
    }
    size_t widths = 0;
    while (meta >> key) {
      if (key == "ensemble") {
        meta >> ensemble;
      } else if (key == "max_code_tokens") {
        meta >> loaded->feature_space_.max_code_tokens;
      } else if (key == "bow_dims") {
        meta >> loaded->feature_space_.bow_dims;
      } else if (key == "num_candidates") {
        meta >> loaded->num_candidates_;
      } else if (key == "seed") {
        meta >> loaded->seed_;
      } else if (key == "necs") {
        meta >> necs.emb_dim >> necs.cnn_kernels >> necs.code_dim >>
            necs.gcn_hidden >> necs.gcn_layers >> necs.mlp_hidden >> widths;
        necs.cnn_widths.assign(widths, 0);
        for (auto& w : necs.cnn_widths) meta >> w;
      } else if (key == "encoders") {
        int code = 1, dag = 1;
        meta >> code >> dag;
        necs.use_code_encoder = code != 0;
        necs.use_dag_encoder = dag != 0;
      } else if (key == "stagehead") {
        int flag = 0;
        meta >> flag;
        has_stage_head = flag != 0;
      } else if (key == "part") {
        std::string name;
        uint64_t hash = 0;
        meta >> name >> hash;
        part_hashes[name] = hash;
      } else {
        // Unknown key: a snapshot from a newer writer that appended meta
        // fields. Skip the rest of the line instead of hard-failing so
        // older binaries stay forward-compatible; malformed values of
        // *known* keys below still reject the snapshot.
        std::string rest;
        std::getline(meta, rest);
        LITE_WARN << "snapshot meta: skipping unknown key '" << key << "'";
        continue;
      }
      if (!meta) return nullptr;
    }
    if (ensemble == 0 || ensemble > 64) return nullptr;
  }
  // Every part actually read is verified against its meta hash line (when
  // one exists — pre-hash snapshots carry none and load unverified). A
  // mismatch means a mixed-version directory: some files committed by one
  // save, some by another (a crash inside the rename sequence, or an
  // external copier racing the writer). Serving any of it would mix
  // models, so the whole load fails.
  auto fetch_part = [&](const std::string& name, std::string* bytes) {
    if (!fetch(name, bytes)) return false;
    auto it = part_hashes.find(name);
    if (it != part_hashes.end() && Fnv1a(*bytes, kFnvInit) != it->second) {
      LITE_WARN << "snapshot: content hash mismatch on '" << name
                << "' — mixed or damaged snapshot directory rejected";
      return false;
    }
    return true;
  };
  std::string bytes;
  {
    if (!fetch_part("vocab.txt", &bytes)) return nullptr;
    std::istringstream in(bytes);
    auto vocab = std::make_shared<TokenVocab>();
    if (!TokenVocab::Deserialize(&in, vocab.get())) return nullptr;
    loaded->feature_space_.vocab = std::move(vocab);
  }
  {
    if (!fetch_part("opvocab.txt", &bytes)) return nullptr;
    std::istringstream in(bytes);
    auto opvocab = std::make_shared<spark::OpVocab>();
    if (!spark::OpVocab::Deserialize(&in, opvocab.get())) return nullptr;
    loaded->feature_space_.op_vocab = std::move(opvocab);
  }
  loaded->necs_config_ = necs;
  for (size_t i = 0; i < ensemble; ++i) {
    if (!fetch_part("necs_" + std::to_string(i) + ".txt", &bytes)) {
      return nullptr;
    }
    auto model = std::make_unique<NecsModel>(
        loaded->feature_space_.vocab->size(),
        loaded->feature_space_.op_vocab->size(), necs, /*seed=*/1);
    if (!DeserializeParams(bytes, model->Params())) return nullptr;
    loaded->models_.push_back(std::move(model));
  }
  if (has_stage_head) {
    // The head's dims are fixed by the NECS encoder widths already parsed
    // above; DeserializeParams rejects any shape mismatch, so a corrupted
    // or truncated stagehead.txt fails the whole load cleanly.
    if (!fetch_part("stagehead.txt", &bytes)) return nullptr;
    auto head = std::make_unique<StageHead>(necs.code_dim, necs.gcn_hidden,
                                            /*seed=*/1);
    if (!DeserializeParams(bytes, head->Params())) return nullptr;
    loaded->stage_head_ = std::move(head);
  }
  {
    if (!fetch_part("acg.txt", &bytes)) return nullptr;
    TextReader in(bytes);
    std::string_view magic, version;
    size_t count = 0;
    if (!in.Token(&magic) || !in.Token(&version) || !in.Get(&count) ||
        magic != "acg" || version != "v1") {
      return nullptr;
    }
    if (count != spark::KnobSpace::Spark16().size()) return nullptr;
    std::vector<double> sigmas(count);
    for (double& s : sigmas) {
      if (!in.Get(&s)) return nullptr;
    }
    std::vector<RandomForestRegressor> forests(count);
    for (auto& f : forests) {
      if (!DeserializeForest(&in, &f)) return nullptr;
    }
    loaded->acg_.Restore(std::move(forests), std::move(sigmas));
  }
  return loaded;
}

std::vector<double> LoadedLiteModel::ScoreCandidates(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env,
    const std::vector<spark::Config>& candidates) const {
  LITE_CHECK(!models_.empty()) << "LoadedLiteModel not initialized";
  std::vector<const NecsModel*> models;
  models.reserve(models_.size());
  for (const auto& m : models_) models.push_back(m.get());
  return serve::ScoreCandidateSet(runner_, feature_space_, models, app, data,
                                  env, candidates, scoring_);
}

LiteSystem::Recommendation LoadedLiteModel::Recommend(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env) const {
  LITE_CHECK(!models_.empty()) << "LoadedLiteModel not initialized";
  serve::PipelineContext ctx;
  ctx.acg = &acg_;
  ctx.num_candidates = num_candidates_;
  ctx.seed = seed_;
  return serve::RunRecommendPipeline(
      ctx, app, data, env, [&](const std::vector<spark::Config>& candidates) {
        return ScoreCandidates(app, data, env, candidates);
      });
}

std::vector<double> LoadedLiteModel::WorkloadEmbedding(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env) const {
  LITE_CHECK(!models_.empty()) << "LoadedLiteModel not initialized";
  // Featurize with the default configuration: code tokens, DAG, data and
  // env features are knob-independent, so any reference config yields the
  // same encoder inputs (and therefore the same encoder-cache entries) as
  // the candidates scored for this workload.
  CorpusBuilder builder(runner_);
  CandidateEval ce = builder.FeaturizeCandidate(
      feature_space_, app, data, env,
      spark::KnobSpace::Spark16().DefaultConfig());
  const NecsModel* model = models_[0].get();
  std::vector<double> pooled;
  double stages = 0.0;
  for (const StageInstance& inst : ce.stage_instances) {
    std::pair<Tensor, Tensor> enc = model->StageEncodings(inst);
    const std::vector<float>& code = enc.first.vec();
    const std::vector<float>& dag = enc.second.vec();
    if (pooled.empty()) pooled.assign(code.size() + dag.size(), 0.0);
    if (pooled.size() != code.size() + dag.size()) continue;  // defensive.
    for (size_t i = 0; i < code.size(); ++i) pooled[i] += code[i];
    for (size_t i = 0; i < dag.size(); ++i) pooled[code.size() + i] += dag[i];
    stages += 1.0;
  }
  if (stages > 0.0) {
    for (double& v : pooled) v /= stages;
  }
  for (double v : NormalizeDataFeature(data)) pooled.push_back(v);
  for (double v : NormalizeEnvFeature(env)) pooled.push_back(v);
  return pooled;
}

std::unique_ptr<LoadedLiteModel> LoadedLiteModel::Clone() const {
  auto clone = std::unique_ptr<LoadedLiteModel>(new LoadedLiteModel());
  clone->runner_ = runner_;
  clone->feature_space_ = feature_space_;  // vocabularies shared (immutable).
  clone->necs_config_ = necs_config_;
  clone->acg_ = acg_;
  clone->num_candidates_ = num_candidates_;
  clone->seed_ = seed_;
  clone->scoring_ = scoring_;
  for (const auto& m : models_) {
    auto copy = std::make_unique<NecsModel>(feature_space_.vocab->size(),
                                            feature_space_.op_vocab->size(),
                                            necs_config_, /*seed=*/1);
    CopyParams(m->Params(), copy->Params());
    copy->InvalidateCache();
    clone->models_.push_back(std::move(copy));
  }
  if (stage_head_ != nullptr) {
    auto head = std::make_unique<StageHead>(stage_head_->code_dim(),
                                            stage_head_->dag_dim(),
                                            /*seed=*/1);
    CopyParams(stage_head_->Params(), head->Params());
    clone->stage_head_ = std::move(head);
  }
  return clone;
}

spark::StagePlan LoadedLiteModel::PlanStages(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env, const spark::Config& base,
    const spark::StagePlannerOptions& opts) const {
  LITE_CHECK(stage_head_ != nullptr) << "PlanStages: snapshot has no stage head";
  spark::StageEvalFactory factory = MakeStageHeadEvalFactory(
      stage_head_.get(), models_[0].get(), runner_, &feature_space_, &app,
      data, &env);
  spark::StagePlanner planner(opts);
  return planner.Plan(app, spark::ResolveIterations(app, data), base,
                      factory(1.0));
}

spark::RetuneResult LoadedLiteModel::RetuneStages(
    const spark::ApplicationSpec& app, const spark::DataSpec& data,
    const spark::ClusterEnv& env, const spark::StagedConfig& current,
    const std::vector<spark::StageEvent>& observed,
    const spark::StagePlannerOptions& opts) const {
  LITE_CHECK(stage_head_ != nullptr)
      << "RetuneStages: snapshot has no stage head";
  spark::StageEvalFactory factory = MakeStageHeadEvalFactory(
      stage_head_.get(), models_[0].get(), runner_, &feature_space_, &app,
      data, &env);
  spark::StagePlanner planner(opts);
  return planner.Retune(app, spark::ResolveIterations(app, data), current,
                        observed, factory);
}

}  // namespace lite
