// Dense float tensor used as the value/grad storage of the autodiff graph.
//
// Shapes are small (the NECS model is a few thousand parameters per layer),
// so the implementation favours clarity over SIMD heroics; matmul is cache
// blocked enough for the workloads in this repository.
#ifndef LITE_TENSOR_TENSOR_H_
#define LITE_TENSOR_TENSOR_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/rng.h"

namespace lite {

/// A row-major dense tensor of floats with rank 1 or 2 (the networks in this
/// repository only need vectors and matrices; higher-rank inputs are stored
/// as matrices, e.g. a token-embedding matrix is D x N).
class Tensor {
 public:
  Tensor() = default;

  /// Rank-1 tensor of length n, zero-filled.
  explicit Tensor(size_t n) : shape_{n}, data_(n, 0.0f) {}

  /// Rank-2 tensor rows x cols, zero-filled.
  Tensor(size_t rows, size_t cols)
      : shape_{rows, cols}, data_(rows * cols, 0.0f) {}

  /// From explicit data; `shape` must multiply to data.size().
  Tensor(std::vector<size_t> shape, std::vector<float> data);

  static Tensor Zeros(std::vector<size_t> shape);
  static Tensor Ones(std::vector<size_t> shape);
  static Tensor Full(std::vector<size_t> shape, float v);
  /// Gaussian init with the given stddev (e.g. Glorot computed by caller).
  static Tensor Randn(std::vector<size_t> shape, Rng* rng, float stddev);
  /// Row vector from std::vector<double> (feature vectors arrive as double).
  static Tensor FromVector(const std::vector<double>& v);

  size_t rank() const { return shape_.size(); }
  const std::vector<size_t>& shape() const { return shape_; }
  size_t numel() const { return data_.size(); }
  size_t rows() const { return shape_.empty() ? 0 : shape_[0]; }
  size_t cols() const { return rank() == 2 ? shape_[1] : (rank() == 1 ? shape_[0] : 0); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }

  /// 2D element access (row-major). Undefined for rank-1 tensors.
  float& at(size_t r, size_t c) { return data_[r * shape_[1] + c]; }
  float at(size_t r, size_t c) const { return data_[r * shape_[1] + c]; }

  void Fill(float v);
  void Zero() { Fill(0.0f); }

  /// Elementwise in-place accumulate; shapes must match exactly.
  void Add(const Tensor& other);
  /// this += alpha * other.
  void Axpy(float alpha, const Tensor& other);
  void Scale(float alpha);

  float Sum() const;
  float Max() const;
  /// L2 norm of the flattened tensor.
  float Norm() const;

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Human-readable short description ("Tensor[3x4]").
  std::string ShapeString() const;

 private:
  std::vector<size_t> shape_;
  std::vector<float> data_;
};

/// C = A * B for 2D tensors (rows_a x k) * (k x cols_b). Asserts shapes.
void MatMul(const Tensor& a, const Tensor& b, Tensor* c);
/// Raw-buffer form of MatMul over row-major m x k and k x n operands into
/// m x n: the one loop MatMul runs (rows independent, each accumulated over
/// k in order, zero activations skipped), so graph-free inference that
/// calls it is bit-identical to the autodiff forward.
void MatMulRows(const float* a, const float* b, float* c, size_t m, size_t k,
                size_t n);
/// C += A^T * B.
void MatMulTransposeAAccum(const Tensor& a, const Tensor& b, Tensor* c);
/// C += A * B^T.
void MatMulTransposeBAccum(const Tensor& a, const Tensor& b, Tensor* c);

}  // namespace lite

#endif  // LITE_TENSOR_TENSOR_H_
