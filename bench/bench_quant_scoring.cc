// Quantized candidate-scoring throughput: the exact fp32 plan path against
// the int8 backend (the same scoring plan with a quantized tower,
// thread-local arenas, SIMD GEMM when available), single-threaded so the
// comparison isolates kernel speed. The harness records relative-error
// percentiles against the exact scores and the arena allocation counters
// (docs/OBSERVABILITY.md) alongside the timings.
//
// Acceptance (printed at the end): at the 1000-candidate pool the int8
// backend is >= 1.2x the exact plan path with every candidate's relative
// error inside the shipped bound (docs/QUANTIZATION.md). Only the error
// bound sets the exit code; the speed line is a printed check.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "tensor/qkernels.h"

using namespace lite;
using namespace lite::bench;

namespace {

constexpr double kInt8MaxRelError = 0.05;
constexpr double kInt8MinSpeedupAt1k = 1.2;

double TimeSeconds(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct ErrorStats {
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

ErrorStats RelErrors(const std::vector<double>& exact,
                     const std::vector<double>& quant) {
  std::vector<double> errs;
  errs.reserve(exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    errs.push_back(std::fabs(quant[i] - exact[i]) /
                   std::max(std::fabs(exact[i]), 1e-9));
  }
  std::sort(errs.begin(), errs.end());
  ErrorStats s;
  if (errs.empty()) return s;
  s.p50 = errs[errs.size() / 2];
  s.p95 = errs[(errs.size() * 95) / 100];
  s.max = errs.back();
  return s;
}

size_t Argmin(const std::vector<double>& v) {
  return static_cast<size_t>(std::min_element(v.begin(), v.end()) -
                             v.begin());
}

}  // namespace

int main() {
  ScaleProfile profile = GetScaleProfile();
  std::cout << "Quantized scoring bench (scale=" << profile.name
            << ", avx2=" << (qk::Avx2KernelAvailable() ? "yes" : "no")
            << ")\n";

  spark::SparkRunner runner;
  LiteOptions opts;
  opts.corpus = MakeCorpusOptions(profile, {"TS", "PR", "KM"},
                                  {spark::ClusterEnv::ClusterA()});
  opts.necs = profile.necs;
  opts.train.epochs = profile.name == "smoke" ? 3 : 8;
  opts.ensemble_size = 1;
  LiteSystem system(&runner, opts);
  system.TrainOffline();
  std::vector<const NecsModel*> models{system.model()};

  const auto* app = spark::AppCatalog::Find("PR");
  spark::DataSpec data = app->MakeData(app->test_size_mb);
  const spark::ClusterEnv env = spark::ClusterEnv::ClusterC();

  std::vector<size_t> pools = profile.name == "smoke"
                                  ? std::vector<size_t>{50, 200}
                                  : std::vector<size_t>{100, 1000};

  obs::SetEnabled(true);
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* arena_allocs = reg.GetCounter("qk_arena_allocs_total");
  obs::Counter* arena_bytes = reg.GetCounter("qk_arena_bytes_total");

  TablePrinter table({"Pool", "Backend", "Time (s)", "Speedup", "Err p50",
                      "Err p95", "Err max", "Top-1"});
  std::vector<BenchJsonField> json_fields{
      {"avx2", BenchJsonBool(qk::Avx2KernelAvailable())}};
  bool errors_in_bound = true;
  double int8_speedup_at_1k = 0.0;

  for (size_t pool : pools) {
    const auto& space = spark::KnobSpace::Spark16();
    Rng rng(4321 + pool);
    std::vector<spark::Config> candidates;
    candidates.reserve(pool);
    for (size_t i = 0; i < pool; ++i) {
      candidates.push_back(space.RandomConfig(&rng));
    }
    std::string prefix = "pool_" + std::to_string(pool);

    system.model()->InvalidateCache();
    std::vector<double> exact;
    double t_exact = TimeSeconds([&] {
      exact = ScoreCandidatesWithEnsemble(&runner, system.corpus(), models,
                                          *app, data, env, candidates,
                                          QuantBackend::kExactFp32, 1);
    });
    table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(pool)), "exact",
                  TablePrinter::Fmt(t_exact), "1.00", "-", "-", "-", "-"});
    json_fields.push_back({prefix + "_exact_s", BenchJsonNum(t_exact)});

    system.model()->InvalidateCache();
    const uint64_t allocs_before = arena_allocs->Value();
    const uint64_t bytes_before = arena_bytes->Value();
    std::vector<double> quant;
    double t_quant = TimeSeconds([&] {
      quant = ScoreCandidatesWithEnsemble(&runner, system.corpus(), models,
                                          *app, data, env, candidates,
                                          QuantBackend::kInt8, 1);
    });
    const uint64_t allocs = arena_allocs->Value() - allocs_before;
    const uint64_t bytes = arena_bytes->Value() - bytes_before;
    ErrorStats err = RelErrors(exact, quant);
    bool in_bound = err.max <= kInt8MaxRelError;
    errors_in_bound = errors_in_bound && in_bound;
    bool top1 = Argmin(exact) == Argmin(quant);
    double speedup = t_quant > 0 ? t_exact / t_quant : 0.0;
    if (pool == 1000) int8_speedup_at_1k = speedup;
    table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(pool)), "int8",
                  TablePrinter::Fmt(t_quant), TablePrinter::Fmt(speedup, 2),
                  TablePrinter::Fmt(err.p50, 5), TablePrinter::Fmt(err.p95, 5),
                  TablePrinter::Fmt(err.max, 5), top1 ? "same" : "moved"});
    const std::string p = prefix + "_int8";
    json_fields.push_back({p + "_s", BenchJsonNum(t_quant)});
    json_fields.push_back({p + "_speedup", BenchJsonNum(speedup)});
    json_fields.push_back({p + "_err_p50", BenchJsonNum(err.p50)});
    json_fields.push_back({p + "_err_p95", BenchJsonNum(err.p95)});
    json_fields.push_back({p + "_err_max", BenchJsonNum(err.max)});
    json_fields.push_back({p + "_err_in_bound", BenchJsonBool(in_bound)});
    json_fields.push_back({p + "_top1_same", BenchJsonBool(top1)});
    json_fields.push_back(
        {p + "_arena_allocs", BenchJsonNum(static_cast<double>(allocs))});
    json_fields.push_back(
        {p + "_arena_bytes", BenchJsonNum(static_cast<double>(bytes))});
  }

  table.Print(std::cout, "Exact fp32 vs quantized candidate scoring");
  std::cout << "\nAll relative errors inside the shipped bound: "
            << (errors_in_bound ? "yes" : "NO") << "\n";
  if (int8_speedup_at_1k > 0.0) {
    std::cout << "Acceptance (int8 >= " << kInt8MinSpeedupAt1k
              << "x exact at 1000 candidates, errors in bound): "
              << (errors_in_bound && int8_speedup_at_1k >= kInt8MinSpeedupAt1k
                      ? "PASS"
                      : "FAIL")
              << " (" << TablePrinter::Fmt(int8_speedup_at_1k, 2) << "x)\n";
  }

  json_fields.push_back({"int8_speedup_at_1k",
                         BenchJsonNum(int8_speedup_at_1k)});
  json_fields.push_back({"errors_in_bound", BenchJsonBool(errors_in_bound)});
  WriteBenchJson("BENCH_quant.json", "bench_quant_scoring", profile,
                 json_fields);
  return errors_in_bound ? 0 : 1;
}
