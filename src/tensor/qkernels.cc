// Generic quantized kernels + dispatch + shared GEMM driver.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/tensor/CMakeLists.txt): the fp32 epilogue appears once per GEMM path
// (panel, multi-row dot, reference loop), and the compiler must not fuse
// its multiply-then-add into an FMA in one copy but not another.
#include "tensor/qkernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "obs/metrics.h"
#include "util/logging.h"

namespace lite::qk {

namespace {

struct QkMetrics {
  obs::Counter* gemm_calls;
  obs::Counter* gemm_rows;

  static const QkMetrics& Get() {
    static const QkMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new QkMetrics{
          reg.GetCounter("qk_gemm_calls_total"),
          reg.GetCounter("qk_gemm_rows_total"),
      };
    }();
    return *m;
  }
};

std::atomic<KernelIsa> g_isa{
#if defined(LITE_QK_HAVE_AVX2)
    KernelIsa::kAvx2  // clamped to generic below if the CPU lacks it.
#else
    KernelIsa::kGeneric
#endif
};
std::atomic<bool> g_isa_resolved{false};

std::atomic<QuantMutation> g_mutation{QuantMutation::kNone};

KernelIsa ResolveIsa() {
  if (!g_isa_resolved.load(std::memory_order_acquire)) {
    if (!Avx2KernelAvailable()) {
      g_isa.store(KernelIsa::kGeneric, std::memory_order_relaxed);
    }
    g_isa_resolved.store(true, std::memory_order_release);
  }
  return g_isa.load(std::memory_order_relaxed);
}

}  // namespace

bool Avx2KernelAvailable() {
#if defined(LITE_QK_HAVE_AVX2)
  return detail::Avx2RuntimeSupported();
#else
  return false;
#endif
}

KernelIsa ActiveKernelIsa() { return ResolveIsa(); }

void SetKernelIsaForTest(KernelIsa isa) {
  if (isa == KernelIsa::kAvx2 && !Avx2KernelAvailable()) {
    isa = KernelIsa::kGeneric;
  }
  g_isa.store(isa, std::memory_order_relaxed);
  g_isa_resolved.store(true, std::memory_order_release);
}

void SetQuantMutationForTest(QuantMutation m) {
  g_mutation.store(m, std::memory_order_relaxed);
}

QuantMutation ActiveQuantMutation() {
  return g_mutation.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Quantizers.

void QuantizedRowMatrix::BuildPanels() {
  cols2 = (cols + 1) & ~static_cast<size_t>(1);
  const size_t np = (rows + 7) / 8;
  panels.assign(np * cols2 * 8, 0);
  for (size_t j = 0; j < rows; ++j) {
    const int8_t* src = q.data() + j * cols;
    int16_t* dst = panels.data() + (j / 8) * cols2 * 8;
    const size_t l = j % 8;
    for (size_t c = 0; c < cols; ++c) {
      dst[(c & ~static_cast<size_t>(1)) * 8 + l * 2 + (c & 1)] = src[c];
    }
  }
}

QuantizedRowMatrix QuantizeRowsInt8(const float* w, size_t rows, size_t cols) {
  QuantizedRowMatrix out;
  out.rows = rows;
  out.cols = cols;
  out.q.resize(rows * cols);
  out.scale.resize(rows);
  out.zero_point.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    const float* row = w + r * cols;
    float mn = row[0], mx = row[0];
    for (size_t c = 0; c < cols; ++c) {
      LITE_CHECK(std::isfinite(row[c])) << "QuantizeRowsInt8: non-finite weight";
      mn = std::min(mn, row[c]);
      mx = std::max(mx, row[c]);
    }
    float scale;
    int32_t zp;
    if (mx - mn < 1e-20f) {
      // Constant row (bias-like). Pick a scale that represents the value.
      scale = std::max(std::fabs(mn) / 127.0f, 1e-12f);
      zp = 0;
    } else {
      scale = (mx - mn) / 254.0f;
      zp = static_cast<int32_t>(std::lrintf(-127.0f - mn / scale));
    }
    out.scale[r] = scale;
    out.zero_point[r] = zp;
    int8_t* qrow = out.q.data() + r * cols;
    for (size_t c = 0; c < cols; ++c) {
      long code = std::lrintf(row[c] / scale) + zp;
      qrow[c] = static_cast<int8_t>(std::clamp<long>(code, -127, 127));
    }
  }
  out.BuildPanels();
  return out;
}

// ---------------------------------------------------------------------------
// Generic dot kernels.

namespace detail {

int32_t DotInt8Generic(const int8_t* a, const int8_t* b, size_t n) {
  int32_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

}  // namespace detail

int32_t DotInt8(const int8_t* a, const int8_t* b, size_t n) {
#if defined(LITE_QK_HAVE_AVX2)
  if (ResolveIsa() == KernelIsa::kAvx2) return detail::DotInt8Avx2(a, b, n);
#endif
  return detail::DotInt8Generic(a, b, n);
}

// ---------------------------------------------------------------------------
// GEMM drivers. The batch/output loops and the fp32 epilogue are shared
// scalar code; only the inner dots dispatch, so ISA parity reduces to dot
// parity.

namespace {

float MaxAbsGeneric(const float* row, size_t cols) {
  float maxabs = 0.0f;
  for (size_t c = 0; c < cols; ++c) {
    maxabs = std::max(maxabs, std::fabs(row[c]));
  }
  return maxabs;
}

void QuantizeActRowGeneric(const float* row, size_t cols, float inv, int8_t* q,
                           int32_t* rowsum) {
  int32_t sum = 0;
  for (size_t c = 0; c < cols; ++c) {
    long code = std::lrintf(row[c] * inv);
    int8_t v = static_cast<int8_t>(std::clamp<long>(code, -127, 127));
    q[c] = v;
    sum += v;
  }
  *rowsum = sum;
}

}  // namespace

void GemmInt8(const float* x, size_t batch, const QuantizedRowMatrix& w,
              const float* bias, float* y, bool relu, Arena* arena) {
  const size_t cols = w.cols;
  const size_t rows = w.rows;
  if (obs::Enabled()) {
    const QkMetrics& m = QkMetrics::Get();
    m.gemm_calls->Inc();
    m.gemm_rows->Inc(batch);
  }
  const QuantMutation mutation = ActiveQuantMutation();
  // Resolve the ISA once per GEMM: the per-dot dispatch (atomic load +
  // branch) is measurable against these small matrices.
#if defined(LITE_QK_HAVE_AVX2)
  const bool use_avx2 = ResolveIsa() == KernelIsa::kAvx2;
#endif

  float* sx = arena->AllocFloats(batch);
  for (size_t b = 0; b < batch; ++b) {
    const float* row = x + b * cols;
#if defined(LITE_QK_HAVE_AVX2)
    const float maxabs =
        use_avx2 ? detail::MaxAbsAvx2(row, cols) : MaxAbsGeneric(row, cols);
#else
    const float maxabs = MaxAbsGeneric(row, cols);
#endif
    sx[b] = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  }
  if (mutation == QuantMutation::kStaleActScale) {
    // Bug under test: row b quantized with row b-1's scale.
    for (size_t b = batch; b-- > 1;) sx[b] = sx[b - 1];
  }

#if defined(LITE_QK_HAVE_AVX2)
  if (use_avx2 && !w.panels.empty() &&
      (mutation == QuantMutation::kNone ||
       mutation == QuantMutation::kStaleActScale)) {
    // Panel path: quantize each activation row straight to int16 codes and
    // run the output-stationary panel GEMV — no int8 narrowing, no
    // horizontal reductions. Same codes, exact int32 sums, so the result is
    // bit-identical to the dot path. (The stale-scale mutation only
    // perturbs sx above and shares it; the other mutants take the
    // reference loop below — they don't need speed.)
    int16_t* a16 = reinterpret_cast<int16_t*>(
        arena->AllocInt8(w.cols2 * sizeof(int16_t)));
    int32_t* acc = arena->AllocInt32(rows);
    for (size_t b = 0; b < batch; ++b) {
      int32_t rsum;
      detail::QuantizeActRowToInt16Avx2(x + b * cols, cols, w.cols2,
                                        1.0f / sx[b], a16, &rsum);
      detail::GemmInt8PanelsAvx2(a16, w, acc);
      float* yrow = y + b * rows;
      for (size_t j = 0; j < rows; ++j) {
        float v = sx[b] * w.scale[j] *
                  static_cast<float>(acc[j] - w.zero_point[j] * rsum);
        if (bias != nullptr) v = bias[j] + v;
        if (relu) v = v > 0.0f ? v : 0.0f;
        yrow[j] = v;
      }
    }
    return;
  }
#endif

  int8_t* xq = arena->AllocInt8(batch * cols);
  int32_t* rowsum = arena->AllocInt32(batch);
  for (size_t b = 0; b < batch; ++b) {
    const float* row = x + b * cols;
    int8_t* qrow = xq + b * cols;
    const float inv = 1.0f / sx[b];
#if defined(LITE_QK_HAVE_AVX2)
    if (use_avx2) {
      detail::QuantizeActRowAvx2(row, cols, inv, qrow, &rowsum[b]);
    } else {
      QuantizeActRowGeneric(row, cols, inv, qrow, &rowsum[b]);
    }
#else
    QuantizeActRowGeneric(row, cols, inv, qrow, &rowsum[b]);
#endif
  }

#if defined(LITE_QK_HAVE_AVX2)
  if (mutation == QuantMutation::kNone ||
      mutation == QuantMutation::kStaleActScale) {
    // Hot path: all of this GEMM's dots for one activation row in a single
    // multi-row kernel call (the stale-scale mutation only perturbs sx
    // above, so it shares this path). kDropZeroPoint / kTransposedTile fall
    // through to the reference loop below — mutants don't need speed.
    int32_t* acc = arena->AllocInt32(rows);
    for (size_t b = 0; b < batch; ++b) {
      const int8_t* qrow = xq + b * cols;
      float* yrow = y + b * rows;
      if (use_avx2) {
        detail::DotInt8MultiAvx2(qrow, w.q.data(), rows, cols, acc);
      } else {
        for (size_t j = 0; j < rows; ++j) {
          acc[j] = detail::DotInt8Generic(qrow, w.q.data() + j * cols, cols);
        }
      }
      for (size_t j = 0; j < rows; ++j) {
        int32_t corr = w.zero_point[j] * rowsum[b];
        float v = sx[b] * w.scale[j] * static_cast<float>(acc[j] - corr);
        if (bias != nullptr) v = bias[j] + v;
        if (relu) v = v > 0.0f ? v : 0.0f;
        yrow[j] = v;
      }
    }
    return;
  }
#endif

  const size_t tile = std::min<size_t>(8, std::min(rows, cols));
  int8_t* wscratch =
      mutation == QuantMutation::kTransposedTile ? arena->AllocInt8(cols) : nullptr;

  for (size_t b = 0; b < batch; ++b) {
    const int8_t* qrow = xq + b * cols;
    float* yrow = y + b * rows;
    for (size_t j = 0; j < rows; ++j) {
      const int8_t* wrow = w.q.data() + j * cols;
      if (mutation == QuantMutation::kTransposedTile && j < tile) {
        // Bug under test: the leading 8x8 weight tile is read transposed.
        std::memcpy(wscratch, wrow, cols);
        for (size_t i = 0; i < tile; ++i) wscratch[i] = w.q[i * cols + j];
        wrow = wscratch;
      }
#if defined(LITE_QK_HAVE_AVX2)
      int32_t acc = use_avx2 ? detail::DotInt8Avx2(qrow, wrow, cols)
                             : detail::DotInt8Generic(qrow, wrow, cols);
#else
      int32_t acc = detail::DotInt8Generic(qrow, wrow, cols);
#endif
      int32_t corr = mutation == QuantMutation::kDropZeroPoint
                         ? 0
                         : w.zero_point[j] * rowsum[b];
      float v = sx[b] * w.scale[j] * static_cast<float>(acc - corr);
      if (bias != nullptr) v = bias[j] + v;
      if (relu) v = v > 0.0f ? v : 0.0f;
      yrow[j] = v;
    }
  }
}

}  // namespace lite::qk
