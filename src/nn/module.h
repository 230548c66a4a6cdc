// Base class for neural layers plus parameter (de)serialization.
#ifndef LITE_NN_MODULE_H_
#define LITE_NN_MODULE_H_

#include <string>
#include <string_view>
#include <vector>

#include "tensor/autodiff.h"

namespace lite {

/// A composable neural module; exposes its trainable parameters so
/// optimizers and serializers can reach them.
class Module {
 public:
  virtual ~Module() = default;
  virtual std::vector<VarPtr> Params() const = 0;

  /// Total trainable parameter count (for reporting / sanity tests).
  size_t NumParams() const {
    size_t n = 0;
    for (const auto& p : Params()) n += p->numel();
    return n;
  }
};

/// In-memory form of the parameter codec (shape + floats, 9 significant
/// digits — exact binary32 round-trip; util/text_codec.h). The reader
/// rejects shape mismatches, malformed or non-finite numbers, truncation and
/// trailing content; on failure `params` may be partially overwritten.
std::string SerializeParams(const std::vector<VarPtr>& params);
bool DeserializeParams(std::string_view text,
                       const std::vector<VarPtr>& params);

/// Writes parameter tensors to a simple text format (shape + floats).
/// Atomic: stages to `<path>.tmp.<pid>` and renames on success, so a crash
/// mid-save never replaces a committed file with a torn one. Returns false
/// on I/O failure.
bool SaveParams(const std::vector<VarPtr>& params, const std::string& path);

/// Loads into existing parameters; shapes must match exactly.
bool LoadParams(const std::vector<VarPtr>& params, const std::string& path);

/// Deep copy of parameter values from `src` into `dst` (shapes must match).
/// Used by DDPG target networks and by model snapshotting.
void CopyParams(const std::vector<VarPtr>& src, const std::vector<VarPtr>& dst);

/// Polyak averaging: dst = tau * src + (1 - tau) * dst (DDPG soft updates).
void SoftUpdateParams(const std::vector<VarPtr>& src,
                      const std::vector<VarPtr>& dst, float tau);

}  // namespace lite

#endif  // LITE_NN_MODULE_H_
