#include <cmath>

#include "core/random.h"
#include "ops/common.h"

namespace tfjs::ops {

using internal::E;

Tensor tensor(std::span<const float> values, const Shape& shape, DType dtype) {
  return E().makeTensorFromHost(values, shape, dtype);
}

Tensor tensor(std::initializer_list<float> values, const Shape& shape,
              DType dtype) {
  return tensor(std::span<const float>(values.begin(), values.size()), shape,
                dtype);
}

Tensor tensor1d(std::span<const float> values, DType dtype) {
  return tensor(values, Shape{static_cast<int>(values.size())}, dtype);
}

Tensor tensor1d(std::initializer_list<float> values, DType dtype) {
  return tensor1d(std::span<const float>(values.begin(), values.size()),
                  dtype);
}

Tensor tensor2d(std::span<const float> values, int rows, int cols,
                DType dtype) {
  return tensor(values, Shape{rows, cols}, dtype);
}

Tensor tensor2d(std::initializer_list<float> values, int rows, int cols,
                DType dtype) {
  return tensor2d(std::span<const float>(values.begin(), values.size()), rows,
                  cols, dtype);
}

Tensor scalar(float value, DType dtype) {
  return tensor(std::span<const float>(&value, 1), Shape{}, dtype);
}

Tensor fill(const Shape& shape, float value, DType dtype) {
  // A copy with no pieces: every element takes the fill value.
  return internal::copyKernel("fill", {}, {}, shape, dtype, value);
}

Tensor zeros(const Shape& shape, DType dtype) { return fill(shape, 0, dtype); }
Tensor ones(const Shape& shape, DType dtype) { return fill(shape, 1, dtype); }

Tensor zerosLike(const Tensor& t) { return zeros(t.shape(), t.dtype()); }
Tensor onesLike(const Tensor& t) { return ones(t.shape(), t.dtype()); }

Tensor eye(int n) {
  TFJS_ARG_CHECK(n > 0, "eye requires n > 0");
  std::vector<float> v(static_cast<std::size_t>(n) * n, 0.f);
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i) * n + i] = 1.f;
  return tensor(v, Shape{n, n});
}

Tensor range(float start, float stop, float step, DType dtype) {
  TFJS_ARG_CHECK(step != 0, "range step must be non-zero");
  std::vector<float> v;
  if (step > 0) {
    for (float x = start; x < stop; x += step) v.push_back(x);
  } else {
    for (float x = start; x > stop; x += step) v.push_back(x);
  }
  return tensor1d(v, dtype);
}

Tensor linspace(float start, float stop, int num) {
  TFJS_ARG_CHECK(num > 0, "linspace requires num > 0");
  std::vector<float> v(static_cast<std::size_t>(num));
  const float step = num == 1 ? 0 : (stop - start) / static_cast<float>(num - 1);
  for (int i = 0; i < num; ++i) v[static_cast<std::size_t>(i)] = start + step * i;
  return tensor1d(v);
}

Tensor randomNormal(const Shape& shape, float mean, float stddev,
                    std::uint64_t seed) {
  Random rng(seed);
  return tensor(rng.normalVector(shape.size(), mean, stddev), shape);
}

Tensor randomUniform(const Shape& shape, float lo, float hi,
                     std::uint64_t seed) {
  Random rng(seed);
  return tensor(rng.uniformVector(shape.size(), lo, hi), shape);
}

}  // namespace tfjs::ops
