#include "nn/module.h"

#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/text_codec.h"

namespace lite {

std::string SerializeParams(const std::vector<VarPtr>& params) {
  TextWriter out;
  out.Put(params.size(), '\n');
  for (const auto& p : params) {
    out.Put(p->value.rank());
    for (size_t d : p->value.shape()) out.Put(' ', d);
    out.Put('\n');
    for (size_t i = 0; i < p->numel(); ++i) {
      out.Put(p->value[i], i + 1 == p->numel() ? '\n' : ' ');
    }
  }
  return out.Take();
}

bool DeserializeParams(std::string_view text,
                       const std::vector<VarPtr>& params) {
  TextReader in(text);
  size_t count = 0;
  if (!in.Get(&count) || count != params.size()) return false;
  for (const auto& p : params) {
    size_t rank = 0;
    if (!in.Get(&rank) || rank != p->value.rank()) return false;
    for (size_t d = 0; d < rank; ++d) {
      size_t dim = 0;
      if (!in.Get(&dim) || dim != p->value.shape()[d]) return false;
    }
    for (size_t i = 0; i < p->numel(); ++i) {
      if (!in.Get(&p->value[i])) return false;
    }
  }
  return in.AtEnd();
}

bool SaveParams(const std::vector<VarPtr>& params, const std::string& path) {
  AtomicFileWriter w(path);
  if (!w.ok()) return false;
  w.stream() << SerializeParams(params);
  return w.Commit();
}

bool LoadParams(const std::vector<VarPtr>& params, const std::string& path) {
  std::string text;
  return ReadWholeFile(path, &text) && DeserializeParams(text, params);
}

void CopyParams(const std::vector<VarPtr>& src, const std::vector<VarPtr>& dst) {
  LITE_CHECK(src.size() == dst.size()) << "CopyParams arity";
  for (size_t i = 0; i < src.size(); ++i) {
    LITE_CHECK(src[i]->value.SameShape(dst[i]->value)) << "CopyParams shape";
    dst[i]->value = src[i]->value;
  }
}

void SoftUpdateParams(const std::vector<VarPtr>& src,
                      const std::vector<VarPtr>& dst, float tau) {
  LITE_CHECK(src.size() == dst.size()) << "SoftUpdateParams arity";
  for (size_t i = 0; i < src.size(); ++i) {
    Tensor& d = dst[i]->value;
    const Tensor& s = src[i]->value;
    for (size_t j = 0; j < d.numel(); ++j) {
      d[j] = tau * s[j] + (1.0f - tau) * d[j];
    }
  }
}

}  // namespace lite
