// Quantized inference backend: kernel parity (generic vs AVX2, bit for
// bit), quantization error bounds against the exact fp32 oracle, the
// scoring-plan fast path, and backend routing.
//
// The enforced contract (docs/QUANTIZATION.md):
//   * generic and AVX2 kernels are bit-identical on every input;
//   * int8 ensemble scores stay within kInt8MaxRelError of the exact path;
//   * top-1 recommendation agreement on the golden 45-cell matrix (15
//     catalog applications x clusters A/B/C) meets the int8 floor;
//   * the exact path is untouched: backend off => bit-identical scores.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "lite/lite_system.h"
#include "lite/qnecs.h"
#include "nn/quantized.h"
#include "obs/metrics.h"
#include "serve/recommend_pipeline.h"
#include "sparksim/application.h"
#include "tensor/qkernels.h"
#include "testkit/diff.h"
#include "testkit/gen.h"
#include "util/rng.h"

namespace lite {
namespace {

using qk::KernelIsa;

// The enforced error bound. int8 rides on 8-bit codes per output channel and
// lands well under 5% relative on every measured workload.
constexpr double kInt8MaxRelError = 0.05;
// Tolerant top-1 agreement: a cell agrees when the quantized argmin is the
// exact argmin or costs at most this much exact-score regret.
constexpr double kAgreementRegret = 0.02;
constexpr int kInt8MinAgreement = 40;  // of 45 cells.

std::string SeedNote() {
  return "replay with: LITE_TEST_SEED=" +
         std::to_string(testkit::SeedFromEnv());
}

TEST(QuantizeRowsTest, DequantErrorWithinHalfScale) {
  Rng rng(testkit::SeedFromEnv() + 11);
  const size_t rows = 7, cols = 33;
  std::vector<float> w(rows * cols);
  for (float& v : w) v = static_cast<float>(rng.Gaussian(0.0, 2.0));
  // Mix in a constant row and a zero row (degenerate ranges).
  for (size_t c = 0; c < cols; ++c) w[2 * cols + c] = 0.75f;
  for (size_t c = 0; c < cols; ++c) w[5 * cols + c] = 0.0f;

  qk::QuantizedRowMatrix q = qk::QuantizeRowsInt8(w.data(), rows, cols);
  ASSERT_EQ(q.rows, rows);
  ASSERT_EQ(q.cols, cols);
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_TRUE(std::isfinite(q.scale[r]));
    ASSERT_GT(q.scale[r], 0.0f);
    for (size_t c = 0; c < cols; ++c) {
      int code = q.q[r * cols + c];
      EXPECT_GE(code, -127);
      EXPECT_LE(code, 127);
      double dequant =
          static_cast<double>(q.scale[r]) * (code - q.zero_point[r]);
      EXPECT_LE(std::fabs(dequant - w[r * cols + c]),
                0.5 * q.scale[r] + 1e-6)
          << "row " << r << " col " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel ISA parity: which ISA ran must be unobservable in the output.

class IsaParityTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Restore best-available dispatch for the rest of the binary.
    qk::SetKernelIsaForTest(qk::Avx2KernelAvailable() ? KernelIsa::kAvx2
                                                      : KernelIsa::kGeneric);
  }
};

TEST_F(IsaParityTest, DotInt8AgreesWithReferenceOnAllLengths) {
  Rng rng(testkit::SeedFromEnv() + 21);
  // Lengths around every tail/vector-width boundary.
  for (size_t n : {1, 2, 7, 8, 15, 16, 17, 31, 32, 33, 40, 64, 100, 1000}) {
    std::vector<int8_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<int8_t>(rng.UniformInt(-127, 127));
      b[i] = static_cast<int8_t>(rng.UniformInt(-127, 127));
    }
    int32_t want = 0;
    for (size_t i = 0; i < n; ++i) {
      want += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
    }
    qk::SetKernelIsaForTest(KernelIsa::kGeneric);
    EXPECT_EQ(qk::DotInt8(a.data(), b.data(), n), want) << "n=" << n;
    if (qk::Avx2KernelAvailable()) {
      qk::SetKernelIsaForTest(KernelIsa::kAvx2);
      EXPECT_EQ(qk::DotInt8(a.data(), b.data(), n), want)
          << "n=" << n << " (AVX2)";
    }
  }
}

TEST_F(IsaParityTest, GemmsBitIdenticalAcrossIsas) {
  if (!qk::Avx2KernelAvailable()) {
    GTEST_SKIP() << "AVX2 kernels not available on this host";
  }
  Rng rng(testkit::SeedFromEnv() + 23);
  const size_t batch = 5, in = 37, out = 11;
  std::vector<float> w(out * in), x(batch * in), bias(out);
  for (float& v : w) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  for (float& v : x) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  for (float& v : bias) v = static_cast<float>(rng.Gaussian(0.0, 0.5));
  qk::QuantizedRowMatrix q8 = qk::QuantizeRowsInt8(w.data(), out, in);

  auto run = [&](KernelIsa isa, bool relu) {
    qk::SetKernelIsaForTest(isa);
    qk::Arena arena;
    std::vector<float> y8(batch * out);
    qk::GemmInt8(x.data(), batch, q8, bias.data(), y8.data(), relu, &arena);
    return y8;
  };
  for (bool relu : {false, true}) {
    auto generic = run(KernelIsa::kGeneric, relu);
    auto avx2 = run(KernelIsa::kAvx2, relu);
    EXPECT_EQ(generic, avx2) << "int8 relu=" << relu;
  }
}

TEST(GemmAccuracyTest, GemmsTrackTheFp32Reference) {
  Rng rng(testkit::SeedFromEnv() + 24);
  const size_t batch = 4, in = 48, out = 9;
  std::vector<float> w(out * in), x(batch * in), bias(out);
  for (float& v : w) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  for (float& v : x) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  for (float& v : bias) v = static_cast<float>(rng.Gaussian(0.0, 0.5));
  qk::QuantizedRowMatrix q8 = qk::QuantizeRowsInt8(w.data(), out, in);

  qk::Arena arena;
  std::vector<float> y8(batch * out);
  qk::GemmInt8(x.data(), batch, q8, bias.data(), y8.data(), false, &arena);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t j = 0; j < out; ++j) {
      double ref = bias[j];
      for (size_t c = 0; c < in; ++c) {
        ref += static_cast<double>(x[b * in + c]) *
               static_cast<double>(w[j * in + c]);
      }
      double denom = 1.0 + std::fabs(ref);
      EXPECT_NEAR(y8[b * out + j], ref, 0.08 * denom) << b << "," << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation hooks must be live (the adequacy proof lives in
// tools/mutation_check; this pins that each mutant changes GEMM output).

TEST(QuantMutationTest, EveryMutantPerturbsTheGemm) {
  Rng rng(testkit::SeedFromEnv() + 31);
  const size_t batch = 3, in = 24, out = 10;
  std::vector<float> w(out * in), x(batch * in), bias(out, 0.0f);
  for (float& v : w) v = static_cast<float>(rng.Gaussian(1.0, 1.0));
  for (float& v : x) v = static_cast<float>(rng.Gaussian(0.0, 2.0));
  // Distinct per-row activation ranges so kStaleActScale bites.
  for (size_t c = 0; c < in; ++c) x[in + c] *= 7.0f;
  qk::QuantizedRowMatrix q8 = qk::QuantizeRowsInt8(w.data(), out, in);

  auto run = [&] {
    qk::Arena arena;
    std::vector<float> y(batch * out);
    qk::GemmInt8(x.data(), batch, q8, bias.data(), y.data(), false, &arena);
    return y;
  };
  std::vector<float> clean = run();
  for (qk::QuantMutation m :
       {qk::QuantMutation::kDropZeroPoint, qk::QuantMutation::kTransposedTile,
        qk::QuantMutation::kStaleActScale}) {
    qk::SetQuantMutationForTest(m);
    std::vector<float> mutated = run();
    qk::SetQuantMutationForTest(qk::QuantMutation::kNone);
    EXPECT_NE(clean, mutated)
        << "mutation " << static_cast<int>(m) << " is dead; " << SeedNote();
  }
}

// ---------------------------------------------------------------------------
// Arena.

TEST(ArenaTest, ResetRetainsCapacityAndAlignsAllocations) {
  qk::Arena arena(256);
  void* p = arena.Allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
  // Force growth past the first block.
  float* f = arena.AllocFloats(4096);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(f) % 64, 0u);
  size_t cap = arena.capacity();
  size_t used = arena.bytes_in_use();
  EXPECT_GE(used, 100u + 4096u * sizeof(float));
  EXPECT_EQ(arena.high_water(), used);

  arena.Reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.capacity(), cap) << "Reset must retain block capacity";
  EXPECT_EQ(arena.high_water(), used);

  // The steady state re-serves the same bytes without growing.
  arena.Allocate(100);
  arena.AllocFloats(4096);
  EXPECT_EQ(arena.capacity(), cap);
}

TEST(ArenaTest, ThreadLocalIsStablePerThread) {
  qk::Arena* a = qk::Arena::ThreadLocal();
  qk::Arena* b = qk::Arena::ThreadLocal();
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Quantized layer twins vs the exact modules.

TEST(QuantizedMlpTest, ForwardBatchTracksExactMlp) {
  Rng rng(testkit::SeedFromEnv() + 41);
  const size_t input_dim = 40, batch = 6;
  Mlp mlp(input_dim, 3, 1, &rng);
  Tensor x(batch, input_dim);
  for (float& v : x.vec()) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  std::vector<float> exact(batch);
  {
    qk::Arena arena;
    mlp.ForwardRows(x.data(), batch, exact.data(), &arena);
  }

  QuantizedMlp q = QuantizedMlp::From(mlp);
  ASSERT_EQ(q.input_dim(), input_dim);
  ASSERT_EQ(q.output_dim(), 1u);
  qk::Arena arena;
  std::vector<float> y(batch);
  q.ForwardBatch(x.data(), batch, y.data(), &arena);
  const double bound = 0.15;
  for (size_t b = 0; b < batch; ++b) {
    double e = exact[b];
    EXPECT_NEAR(y[b], e, bound * (1.0 + std::fabs(e)))
        << "int8 row " << b << "; " << SeedNote();
  }
}

TEST(QuantizedTextCnnTest, EncodeBatchTracksExactEncoder) {
  Rng rng(testkit::SeedFromEnv() + 42);
  const size_t vocab = 50, emb = 8, kernels = 6, out_dim = 12;
  TextCnnEncoder cnn(vocab, emb, {3, 4}, kernels, out_dim, &rng);
  // Mixed lengths, including shorter than the largest width (padded) and
  // out-of-range ids (clamped to oov behavior of the exact embedding).
  std::vector<std::vector<int>> sequences = {
      {1, 2, 3, 4, 5, 6, 7}, {9, 9}, {0}, {11, 48, 3, 21, 35}};
  Tensor exact = cnn.ForwardBatch(sequences)->value;

  QuantizedTextCnn q = QuantizedTextCnn::From(cnn);
  qk::Arena arena;
  std::vector<float> y(sequences.size() * out_dim);
  q.EncodeBatch(sequences, y.data(), &arena);
  const double bound = 0.15;
  for (size_t i = 0; i < y.size(); ++i) {
    double e = exact.vec()[i];
    EXPECT_NEAR(y[i], e, bound * (1.0 + std::fabs(e)))
        << "int8 element " << i << "; " << SeedNote();
  }
}

// ---------------------------------------------------------------------------
// End-to-end suite on a small trained system (training dominates runtime,
// so the fixture is shared across every test below).

class QuantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runner_ = new spark::SparkRunner();
    LiteOptions opts;
    opts.corpus.apps = {"TS", "PR", "KM"};
    opts.corpus.clusters = {spark::ClusterEnv::ClusterA()};
    opts.corpus.configs_per_setting = 2;
    opts.corpus.max_stage_instances_per_run = 5;
    opts.corpus.max_code_tokens = 64;
    opts.necs.emb_dim = 8;
    opts.necs.cnn_widths = {3, 4};
    opts.necs.cnn_kernels = 6;
    opts.necs.code_dim = 12;
    opts.necs.gcn_hidden = 8;
    opts.train.epochs = 2;
    opts.num_candidates = 12;
    opts.ensemble_size = 2;
    system_ = new LiteSystem(runner_, opts);
    system_->TrainOffline();
  }

  static void TearDownTestSuite() {
    delete system_;
    delete runner_;
    system_ = nullptr;
    runner_ = nullptr;
  }

  std::vector<const NecsModel*> Models() const {
    std::vector<const NecsModel*> models;
    for (size_t m = 0; m < system_->ensemble_size(); ++m) {
      models.push_back(system_->ensemble_member(m));
    }
    return models;
  }

  std::vector<spark::Config> MakePool(Rng* rng, size_t extra) const {
    const auto& space = spark::KnobSpace::Spark16();
    std::vector<spark::Config> pool = {space.DefaultConfig()};
    for (size_t c = 0; c < extra; ++c) pool.push_back(space.RandomConfig(rng));
    return pool;
  }

  static spark::SparkRunner* runner_;
  static LiteSystem* system_;
};

spark::SparkRunner* QuantTest::runner_ = nullptr;
LiteSystem* QuantTest::system_ = nullptr;

TEST_F(QuantTest, QuantizedPredictBatchTracksExactModel) {
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR", "KM"};
  testkit::TupleGenerator gen(gopts, testkit::SeedFromEnv() + 51);
  testkit::WorkloadTuple t = gen.Next();
  CandidateEval ce = CorpusBuilder(runner_).FeaturizeCandidate(
      system_->corpus(), *t.app, t.data, t.env, t.config);
  ASSERT_FALSE(ce.stage_instances.empty());

  const NecsModel* model = system_->model();
  std::vector<double> exact = model->PredictBatch(ce.stage_instances);
  const QuantizedNecs* twin = model->Quantized(QuantBackend::kInt8);
  ASSERT_NE(twin, nullptr);
  std::vector<double> quant = twin->PredictBatch(ce.stage_instances);
  ASSERT_EQ(quant.size(), exact.size());
  const double bound = 0.10;
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(quant[i], exact[i], bound * (1.0 + std::fabs(exact[i])))
        << "int8 stage " << i << "; " << SeedNote();
  }
  // The same twin object is served until invalidation; a parameter-change
  // invalidation drops it and the next call quantizes a new one. (Comparing
  // twin pointers cannot show the rebuild: the allocator may hand the new
  // twin the freed twin's address.)
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter* built =
      obs::MetricsRegistry::Global().GetCounter("qnecs_twins_built_total");
  const uint64_t built_before = built->Value();
  EXPECT_EQ(model->Quantized(QuantBackend::kInt8),
            model->Quantized(QuantBackend::kInt8));
  EXPECT_EQ(built->Value(), built_before) << "a live twin was rebuilt";
  model->InvalidateCache();
  model->Quantized(QuantBackend::kInt8);
  EXPECT_EQ(built->Value(), built_before + 1) << "invalidation kept the twin";
  obs::SetEnabled(obs_was_enabled);
}

TEST_F(QuantTest, ScoringPlanPathIsBitIdenticalToSlowPath) {
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR", "KM"};
  testkit::TupleGenerator gen(gopts, testkit::SeedFromEnv() + 52);
  const auto& space = spark::KnobSpace::Spark16();
  for (int i = 0; i < 3; ++i) {
    testkit::WorkloadTuple t = gen.Next();
    CandidateEval ce = CorpusBuilder(runner_).FeaturizeCandidate(
        system_->corpus(), *t.app, t.data, t.env, t.config);
    ASSERT_FALSE(ce.stage_instances.empty());
    const QuantizedNecs* twin =
        system_->model()->Quantized(QuantBackend::kInt8);
    ScoringPlan plan = twin->BuildPlan(ce);
    EXPECT_EQ(plan.num_rows, ce.stage_instances.size());
    std::vector<double> knobs = space.Normalize(t.config);
    for (auto& inst : ce.stage_instances) inst.knobs = knobs;
    qk::Arena arena;
    double fast = 0.0;
    plan.ScoreBlock({knobs}, 0, 1, &fast, &arena);
    double slow = twin->PredictAppSeconds(ce);
    EXPECT_EQ(fast, slow) << "int8 tuple " << t.Describe() << "; "
                          << SeedNote();
  }
}

TEST_F(QuantTest, DiffQuantizationAccuracyHoldsAcrossPoolSizes) {
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR", "KM"};
  testkit::TupleGenerator gen(gopts, testkit::SeedFromEnv() + 53);
  for (size_t pool_size : {size_t{4}, size_t{24}}) {
    testkit::WorkloadTuple t = gen.Next();
    std::vector<spark::Config> pool = MakePool(gen.rng(), pool_size - 1);
    testkit::QuantAccuracyReport report;
    testkit::DiffResult r = testkit::DiffQuantizationAccuracy(
        runner_, system_->corpus(), Models(), t, pool, QuantBackend::kInt8,
        kInt8MaxRelError, {1, 4, 8}, &report);
    ASSERT_TRUE(r.ok) << r.message << "\n  tuple: " << t.Describe() << "\n  "
                      << SeedNote();
    EXPECT_LE(report.max_rel_error, kInt8MaxRelError);
  }
}

TEST_F(QuantTest, DefaultBackendIsTransparent) {
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR", "KM"};
  testkit::TupleGenerator gen(gopts, testkit::SeedFromEnv() + 54);
  testkit::WorkloadTuple t = gen.Next();
  std::vector<spark::Config> pool = MakePool(gen.rng(), 11);
  testkit::DiffResult r = testkit::DiffQuantTransparency(
      runner_, system_->corpus(), Models(), t, pool, {1, 4, 8});
  ASSERT_TRUE(r.ok) << r.message << "\n  tuple: " << t.Describe() << "\n  "
                    << SeedNote();
}

// Top-1 recommendation agreement over the golden 45-cell matrix (every
// catalog application on clusters A/B/C, the golden_trace_test grid): the
// quantized argmin must match the exact argmin — or cost at most
// kAgreementRegret exact-score regret — on at least the int8 floor.
TEST_F(QuantTest, Top1AgreementOnGolden45CellMatrix) {
  const auto& space = spark::KnobSpace::Spark16();
  Rng rng(testkit::SeedFromEnv() + 55);
  std::vector<spark::Config> pool = {space.DefaultConfig()};
  for (int c = 0; c < 15; ++c) pool.push_back(space.RandomConfig(&rng));

  std::vector<const NecsModel*> models = Models();
  int agree_int8 = 0, cells = 0;
  for (const auto& app : spark::AppCatalog::All()) {
    double size_mb =
        app.train_sizes_mb.empty() ? 50.0 : app.train_sizes_mb[0];
    spark::DataSpec data = app.MakeData(size_mb);
    for (const auto& env :
         {spark::ClusterEnv::ClusterA(), spark::ClusterEnv::ClusterB(),
          spark::ClusterEnv::ClusterC()}) {
      ++cells;
      std::vector<double> exact = ScoreCandidatesWithEnsemble(
          runner_, system_->corpus(), models, app, data, env, pool,
          QuantBackend::kExactFp32, 1);
      size_t exact_best = 0;
      for (size_t i = 1; i < exact.size(); ++i) {
        if (exact[i] < exact[exact_best]) exact_best = i;
      }
      std::vector<double> quant = ScoreCandidatesWithEnsemble(
          runner_, system_->corpus(), models, app, data, env, pool,
          QuantBackend::kInt8, 1);
      size_t quant_best = 0;
      for (size_t i = 1; i < quant.size(); ++i) {
        if (quant[i] < quant[quant_best]) quant_best = i;
      }
      double regret = (exact[quant_best] - exact[exact_best]) /
                      std::max(std::fabs(exact[exact_best]), 1e-9);
      bool agrees = quant_best == exact_best || regret <= kAgreementRegret;
      agree_int8 += agrees;
    }
  }
  ASSERT_EQ(cells, 45) << "the golden matrix is 15 apps x 3 clusters";
  EXPECT_GE(agree_int8, kInt8MinAgreement)
      << "int8 top-1 agreement dropped below the floor; " << SeedNote();
}

TEST_F(QuantTest, BackendRoutingThroughScoreCandidateSet) {
  testkit::GenOptions gopts;
  gopts.apps = {"TS", "PR", "KM"};
  testkit::TupleGenerator gen(gopts, testkit::SeedFromEnv() + 56);
  testkit::WorkloadTuple t = gen.Next();
  std::vector<spark::Config> pool = MakePool(gen.rng(), 7);
  std::vector<const NecsModel*> models = Models();

  serve::ScoringOptions opts;
  opts.threads = 1;
  opts.backend = QuantBackend::kInt8;
  std::vector<double> routed = serve::ScoreCandidateSet(
      runner_, system_->corpus(), models, *t.app, t.data, t.env, pool, opts);
  std::vector<double> direct = ScoreCandidatesWithEnsemble(
      runner_, system_->corpus(), models, *t.app, t.data, t.env, pool,
      QuantBackend::kInt8, 1);
  EXPECT_EQ(routed, direct) << "int8";
}

// The backend names label logs, bench JSON and perfbench reports.
TEST(QuantBackendTest, NamesParseAndRoundTrip) {
  EXPECT_STREQ(QuantBackendName(QuantBackend::kExactFp32), "exact");
  EXPECT_STREQ(QuantBackendName(QuantBackend::kInt8), "int8");
}

}  // namespace
}  // namespace lite
