#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/logging.h"

namespace lite {

Tensor::Tensor(std::vector<size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  size_t n = 1;
  for (size_t d : shape_) n *= d;
  LITE_CHECK(n == data_.size()) << "shape/data mismatch";
}

Tensor Tensor::Zeros(std::vector<size_t> shape) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  return Tensor(std::move(shape), std::vector<float>(n, 0.0f));
}

Tensor Tensor::Ones(std::vector<size_t> shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(std::vector<size_t> shape, float v) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  return Tensor(std::move(shape), std::vector<float>(n, v));
}

Tensor Tensor::Randn(std::vector<size_t> shape, Rng* rng, float stddev) {
  Tensor t = Zeros(std::move(shape));
  for (size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng->Gaussian(0.0, stddev));
  }
  return t;
}

Tensor Tensor::FromVector(const std::vector<double>& v) {
  Tensor t(v.size());
  for (size_t i = 0; i < v.size(); ++i) t[i] = static_cast<float>(v[i]);
  return t;
}

void Tensor::Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::Add(const Tensor& other) {
  LITE_CHECK(SameShape(other)) << "Add shape mismatch " << ShapeString() << " vs "
                               << other.ShapeString();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::Axpy(float alpha, const Tensor& other) {
  LITE_CHECK(numel() == other.numel()) << "Axpy size mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Tensor::Scale(float alpha) {
  for (float& x : data_) x *= alpha;
}

float Tensor::Sum() const { return std::accumulate(data_.begin(), data_.end(), 0.0f); }

float Tensor::Max() const {
  LITE_CHECK(!data_.empty()) << "Max of empty tensor";
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::Norm() const {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "Tensor[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << "x";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

void MatMul(const Tensor& a, const Tensor& b, Tensor* c) {
  LITE_CHECK(a.rank() == 2 && b.rank() == 2) << "MatMul needs 2D operands";
  size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  LITE_CHECK(b.shape()[0] == k) << "MatMul inner dim mismatch";
  LITE_CHECK(c->rank() == 2 && c->shape()[0] == m && c->shape()[1] == n)
      << "MatMul output shape mismatch";
  MatMulRows(a.data(), b.data(), c->data(), m, k, n);
}

void MatMulRows(const float* ap, const float* bp, float* cp, size_t m,
                size_t k, size_t n) {
  std::fill(cp, cp + m * n, 0.0f);
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      float av = ap[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = bp + p * n;
      float* crow = cp + i * n;
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulTransposeAAccum(const Tensor& a, const Tensor& b, Tensor* c) {
  // a: m x k, b: m x n, c += a^T b : k x n
  size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  LITE_CHECK(b.shape()[0] == m && c->shape()[0] == k && c->shape()[1] == n)
      << "MatMulTransposeAAccum shape mismatch";
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c->data();
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      float av = ap[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = bp + i * n;
      float* crow = cp + p * n;
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void MatMulTransposeBAccum(const Tensor& a, const Tensor& b, Tensor* c) {
  // a: m x k, b: n x k, c += a b^T : m x n
  size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[0];
  LITE_CHECK(b.shape()[1] == k && c->shape()[0] == m && c->shape()[1] == n)
      << "MatMulTransposeBAccum shape mismatch";
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c->data();
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const float* arow = ap + i * k;
      const float* brow = bp + j * k;
      float s = 0.0f;
      for (size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      cp[i * n + j] += s;
    }
  }
}

}  // namespace lite
