#include "nn/quantized.h"

#include <algorithm>

#include "util/logging.h"

namespace lite {

const char* QuantBackendName(QuantBackend backend) {
  switch (backend) {
    case QuantBackend::kExactFp32:
      return "exact";
    case QuantBackend::kInt8:
      return "int8";
  }
  return "unknown";
}

QuantizedLayer QuantizeOutByIn(const float* w, size_t out, size_t in,
                               const float* bias) {
  QuantizedLayer layer;
  layer.in = in;
  layer.out = out;
  layer.q8 = qk::QuantizeRowsInt8(w, out, in);
  layer.bias.assign(bias, bias + out);
  return layer;
}

QuantizedLayer QuantizeInByOut(const float* w, size_t in, size_t out,
                               const float* bias) {
  std::vector<float> t(out * in);
  for (size_t i = 0; i < in; ++i) {
    for (size_t j = 0; j < out; ++j) t[j * in + i] = w[i * out + j];
  }
  return QuantizeOutByIn(t.data(), out, in, bias);
}

void RunQuantizedLayer(const QuantizedLayer& layer, const float* x,
                       size_t batch, float* y, bool relu, qk::Arena* arena) {
  qk::GemmInt8(x, batch, layer.q8, layer.bias.data(), y, relu, arena);
}

void QuantizedMlp::ForwardBatch(const float* x, size_t batch, float* y,
                                qk::Arena* arena) const {
  LITE_CHECK(!layers.empty()) << "QuantizedMlp::ForwardBatch on empty model";
  const float* cur = x;
  for (size_t l = 0; l < layers.size(); ++l) {
    const bool last = l + 1 == layers.size();
    float* dst = last ? y : arena->AllocFloats(batch * layers[l].out);
    RunQuantizedLayer(layers[l], cur, batch, dst, /*relu=*/!last, arena);
    cur = dst;
  }
}

QuantizedMlp QuantizedMlp::From(const Mlp& mlp) {
  QuantizedMlp out;
  std::vector<VarPtr> params = mlp.Params();
  LITE_CHECK(params.size() % 2 == 0) << "Mlp params not (w, b) pairs";
  for (size_t p = 0; p < params.size(); p += 2) {
    const Tensor& w = params[p]->value;      // in x out (Linear layout).
    const Tensor& b = params[p + 1]->value;  // out.
    LITE_CHECK(w.rank() == 2 && b.numel() == w.shape()[1])
        << "Mlp layer shape mismatch";
    out.layers.push_back(
        QuantizeInByOut(w.data(), w.shape()[0], w.shape()[1], b.data()));
  }
  return out;
}

void QuantizedTextCnn::EncodeBatch(
    const std::vector<std::vector<int>>& sequences, float* out,
    qk::Arena* arena) const {
  LITE_CHECK(!sequences.empty()) << "EncodeBatch of nothing";
  const size_t max_w = *std::max_element(widths.begin(), widths.end());
  const size_t d = emb_dim;
  const size_t kernels = kernels_per_width;
  const size_t q_dim = kernels * widths.size();
  const size_t batch = sequences.size();
  float* q = arena->AllocFloats(batch * q_dim);

  std::vector<int> ids;
  for (size_t b = 0; b < batch; ++b) {
    ids = sequences[b];
    while (ids.size() < max_w) ids.push_back(0);  // pad token.
    const size_t n = ids.size();
    for (size_t wi = 0; wi < widths.size(); ++wi) {
      const size_t w = widths[wi];
      const size_t m = n - w + 1;
      // im2col: position row j holds the window's embedding slice in the
      // conv-weight layout [dim][offset], so conv-as-GEMM reproduces the
      // exact path's accumulation pattern.
      float* a = arena->AllocFloats(m * d * w);
      for (size_t j = 0; j < m; ++j) {
        float* arow = a + j * d * w;
        for (size_t dx = 0; dx < w; ++dx) {
          int id = ids[j + dx];
          size_t row = (id >= 0 && static_cast<size_t>(id) < vocab)
                           ? static_cast<size_t>(id)
                           : (id < 0 ? 0 : vocab - 1);
          const float* e = embedding.data() + row * d;
          for (size_t dd = 0; dd < d; ++dd) arow[dd * w + dx] = e[dd];
        }
      }
      float* c = arena->AllocFloats(m * kernels);
      RunQuantizedLayer(conv[wi], a, m, c, /*relu=*/false, arena);
      // Max over positions (the exact path's MaxOverCols: first value wins
      // ties via strict >).
      float* qseg = q + b * q_dim + wi * kernels;
      for (size_t k = 0; k < kernels; ++k) qseg[k] = c[k];
      for (size_t j = 1; j < m; ++j) {
        const float* crow = c + j * kernels;
        for (size_t k = 0; k < kernels; ++k) {
          if (crow[k] > qseg[k]) qseg[k] = crow[k];
        }
      }
    }
  }
  RunQuantizedLayer(proj, q, batch, out, /*relu=*/true, arena);
}

QuantizedTextCnn QuantizedTextCnn::From(const TextCnnEncoder& cnn) {
  QuantizedTextCnn out;
  out.emb_dim = cnn.emb_dim();
  out.out_dim = cnn.out_dim();
  out.kernels_per_width = cnn.kernels_per_width();
  out.widths = cnn.widths();

  const Tensor& emb = cnn.embedding()->value;  // vocab x emb_dim.
  out.vocab = emb.shape()[0];
  out.embedding.assign(emb.data(), emb.data() + emb.numel());

  // Params() order: embedding, conv_w per width, conv_b per width, proj w,
  // proj b (nn/encoders.cc).
  std::vector<VarPtr> params = cnn.Params();
  const size_t nw = out.widths.size();
  LITE_CHECK(params.size() == 1 + 2 * nw + 2) << "TextCnn params layout";
  for (size_t wi = 0; wi < nw; ++wi) {
    const Tensor& w = params[1 + wi]->value;       // kernels x (emb_dim * width).
    const Tensor& b = params[1 + nw + wi]->value;  // kernels.
    LITE_CHECK(w.rank() == 2 && w.shape()[0] == out.kernels_per_width &&
               w.shape()[1] == out.emb_dim * out.widths[wi] &&
               b.numel() == out.kernels_per_width)
        << "TextCnn conv shape mismatch";
    out.conv.push_back(
        QuantizeOutByIn(w.data(), w.shape()[0], w.shape()[1], b.data()));
  }
  const Tensor& pw = params[1 + 2 * nw]->value;      // (kernels*nw) x out_dim.
  const Tensor& pb = params[1 + 2 * nw + 1]->value;  // out_dim.
  LITE_CHECK(pw.rank() == 2 && pw.shape()[0] == out.kernels_per_width * nw &&
             pw.shape()[1] == out.out_dim && pb.numel() == out.out_dim)
      << "TextCnn projection shape mismatch";
  out.proj = QuantizeInByOut(pw.data(), pw.shape()[0], pw.shape()[1], pb.data());
  return out;
}

}  // namespace lite
