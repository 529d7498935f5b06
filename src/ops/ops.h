// The Ops API (paper section 3.1): lower-level linear-algebra operations that
// mirror the tf.* namespace of TensorFlow.js.
//
// Ops are backend-agnostic: they validate shapes, resolve broadcasting and
// padding, dispatch to the active Backend's kernels (section 3.3), and — when
// a gradient tape is active — record pullback closures for the eager autodiff
// engine (section 3.5). Like the upstream library, every op is synchronous
// and returns immediately; on the webgl-sim backend the returned tensor's
// data may still be pending on the GPU command queue (section 3.6).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/tensor.h"

namespace tfjs::ops {

// ---------------------------------------------------------------- creation

/// Creates a tensor from host data with an explicit shape.
Tensor tensor(std::span<const float> values, const Shape& shape,
              DType dtype = DType::f32);
Tensor tensor(std::initializer_list<float> values, const Shape& shape,
              DType dtype = DType::f32);
/// 1-D tensor from values.
Tensor tensor1d(std::span<const float> values, DType dtype = DType::f32);
Tensor tensor1d(std::initializer_list<float> values, DType dtype = DType::f32);
Tensor tensor2d(std::span<const float> values, int rows, int cols,
                DType dtype = DType::f32);
Tensor tensor2d(std::initializer_list<float> values, int rows, int cols,
                DType dtype = DType::f32);
/// 0-D (single value) tensor.
Tensor scalar(float value, DType dtype = DType::f32);

Tensor zeros(const Shape& shape, DType dtype = DType::f32);
Tensor ones(const Shape& shape, DType dtype = DType::f32);
Tensor fill(const Shape& shape, float value, DType dtype = DType::f32);
Tensor zerosLike(const Tensor& t);
Tensor onesLike(const Tensor& t);
/// n x n identity matrix.
Tensor eye(int n);
/// [start, stop) with the given step, like tf.range.
Tensor range(float start, float stop, float step = 1, DType dtype = DType::f32);
/// `num` evenly spaced values in [start, stop].
Tensor linspace(float start, float stop, int num);
/// Seeded normal / uniform random tensors (deterministic across runs).
Tensor randomNormal(const Shape& shape, float mean = 0, float stddev = 1,
                    std::uint64_t seed = 42);
Tensor randomUniform(const Shape& shape, float lo = 0, float hi = 1,
                     std::uint64_t seed = 42);

// -------------------------------------------------------------- arithmetic

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor floorDiv(const Tensor& a, const Tensor& b);
Tensor mod(const Tensor& a, const Tensor& b);
Tensor pow(const Tensor& a, const Tensor& b);
Tensor maximum(const Tensor& a, const Tensor& b);
Tensor minimum(const Tensor& a, const Tensor& b);
Tensor squaredDifference(const Tensor& a, const Tensor& b);
Tensor atan2(const Tensor& a, const Tensor& b);
/// Scalar-broadcast conveniences.
Tensor addScalar(const Tensor& a, float s);
Tensor subScalar(const Tensor& a, float s);
Tensor mulScalar(const Tensor& a, float s);
Tensor divScalar(const Tensor& a, float s);
Tensor powScalar(const Tensor& a, float exponent);

/// Move-consuming overloads: `a` is disposed either way, and when the
/// backend runs fused regions, the engine can prove sole ownership
/// (refcount 1, not kept), no tape watches either operand, and the output
/// shape/dtype-width match, the kernel writes into `a`'s buffer in place
/// instead of allocating. Results are bit-identical to the copying
/// overloads.
Tensor add(Tensor&& a, const Tensor& b);
Tensor sub(Tensor&& a, const Tensor& b);
Tensor mul(Tensor&& a, const Tensor& b);
Tensor div(Tensor&& a, const Tensor& b);

// -------------------------------------------------------------- comparison

Tensor equal(const Tensor& a, const Tensor& b);
Tensor notEqual(const Tensor& a, const Tensor& b);
Tensor greater(const Tensor& a, const Tensor& b);
Tensor greaterEqual(const Tensor& a, const Tensor& b);
Tensor less(const Tensor& a, const Tensor& b);
Tensor lessEqual(const Tensor& a, const Tensor& b);
Tensor logicalAnd(const Tensor& a, const Tensor& b);
Tensor logicalOr(const Tensor& a, const Tensor& b);
Tensor logicalXor(const Tensor& a, const Tensor& b);
Tensor logicalNot(const Tensor& x);
/// Elements of a where cond is true, of b otherwise (tf.where).
Tensor where(const Tensor& cond, const Tensor& a, const Tensor& b);

// ------------------------------------------------------------------- unary

Tensor neg(const Tensor& x);
Tensor abs(const Tensor& x);
Tensor exp(const Tensor& x);
Tensor expm1(const Tensor& x);
Tensor log(const Tensor& x);
Tensor log1p(const Tensor& x);
Tensor sqrt(const Tensor& x);
Tensor rsqrt(const Tensor& x);
Tensor square(const Tensor& x);
Tensor reciprocal(const Tensor& x);
Tensor floor(const Tensor& x);
Tensor ceil(const Tensor& x);
Tensor round(const Tensor& x);
Tensor sign(const Tensor& x);
Tensor sin(const Tensor& x);
Tensor cos(const Tensor& x);
Tensor tan(const Tensor& x);
Tensor asin(const Tensor& x);
Tensor acos(const Tensor& x);
Tensor atan(const Tensor& x);
Tensor sinh(const Tensor& x);
Tensor cosh(const Tensor& x);
Tensor tanh(const Tensor& x);
Tensor erf(const Tensor& x);
Tensor relu(const Tensor& x);
Tensor relu6(const Tensor& x);
Tensor leakyRelu(const Tensor& x, float alpha = 0.2f);
Tensor elu(const Tensor& x);
Tensor selu(const Tensor& x);
Tensor sigmoid(const Tensor& x);
Tensor softplus(const Tensor& x);
Tensor clipByValue(const Tensor& x, float lo, float hi);
Tensor step(const Tensor& x, float alpha = 0);
Tensor isNaN(const Tensor& x);
Tensor isFinite(const Tensor& x);

/// Move-consuming overloads of the hot activations/elementwise ops (see the
/// binary-op overloads above for the in-place contract).
Tensor neg(Tensor&& x);
Tensor exp(Tensor&& x);
Tensor sqrt(Tensor&& x);
Tensor square(Tensor&& x);
Tensor tanh(Tensor&& x);
Tensor relu(Tensor&& x);
Tensor relu6(Tensor&& x);
Tensor sigmoid(Tensor&& x);
Tensor clipByValue(Tensor&& x, float lo, float hi);

// ------------------------------------------------------------------ matmul

/// Matrix product. Rank-2 inputs multiply directly; rank-3 inputs are
/// treated as batched with broadcasting batch dims, mirroring tf.matMul.
/// fusedMatMul with no bias and no activation (one op body, one graph node).
Tensor matMul(const Tensor& a, const Tensor& b, bool transposeA = false,
              bool transposeB = false);
/// Dot product of two 1-D tensors.
Tensor dot(const Tensor& a, const Tensor& b);
Tensor outerProduct(const Tensor& a, const Tensor& b);

// ----------------------------------------------------------- convolutions

/// 2-D convolution over NHWC input with HWIO filter: fusedConv2d with no
/// bias and no activation.
Tensor conv2d(const Tensor& x, const Tensor& filter, int strideH, int strideW,
              PadMode pad, int dilationH = 1, int dilationW = 1);
/// fusedDepthwiseConv2d with no bias and no activation.
Tensor depthwiseConv2d(const Tensor& x, const Tensor& filter, int strideH,
                       int strideW, PadMode pad, int dilationH = 1,
                       int dilationW = 1);
/// Depthwise followed by pointwise convolution (MobileNet's building block).
Tensor separableConv2d(const Tensor& x, const Tensor& depthwiseFilter,
                       const Tensor& pointwiseFilter, int strideH, int strideW,
                       PadMode pad);
Tensor maxPool(const Tensor& x, int filterH, int filterW, int strideH,
               int strideW, PadMode pad);
Tensor avgPool(const Tensor& x, int filterH, int filterW, int strideH,
               int strideW, PadMode pad);

// ------------------------------------------------------------------- fused

/// Maps a Layers-style activation name to a fusible epilogue activation:
/// "" / "linear" -> kNone, "relu" -> kRelu, "relu6" -> kRelu6,
/// "sigmoid" -> kSigmoid. nullopt for everything else (caller must fall
/// back to the unfused composition).
std::optional<FusedActivation> fusibleActivation(const std::string& name);

/// matMul + optional bias add (rank-1, length n) + activation epilogue in
/// one kernel on every backend, bit-identical to matMul -> add ->
/// activation on the active backend, including gradients. Throws ShapeError
/// for any other bias shape. Pass a default-constructed Tensor as `bias` to
/// skip the bias add. An int8 `b` (quantizePerChannel, or an int8 weight
/// load) runs the backend's int8 kernel when it applies and the f32 kernel
/// on the dequantized weight otherwise (core/backend.h): activations are
/// quantized dynamically per GEMM row, the output is f32, the op span reads
/// "quantizedMatMul" and no gradient is recorded.
Tensor fusedMatMul(const Tensor& a, const Tensor& b, const Tensor& bias,
                   FusedActivation act, bool transposeA = false,
                   bool transposeB = false);

/// conv2d + optional bias add (rank-1, length outC) + activation epilogue;
/// same contract as fusedMatMul, an int8 filter included (op span
/// "quantizedConv2d").
Tensor fusedConv2d(const Tensor& x, const Tensor& filter, const Tensor& bias,
                   FusedActivation act, int strideH, int strideW, PadMode pad,
                   int dilationH = 1, int dilationW = 1);

/// depthwiseConv2d + optional bias add (rank-1, length inC * channelMult) +
/// activation epilogue; same contract as fusedMatMul. An int8 filter is
/// dequantized first, as depthwiseConv2d does.
Tensor fusedDepthwiseConv2d(const Tensor& x, const Tensor& filter,
                            const Tensor& bias, FusedActivation act,
                            int strideH, int strideW, PadMode pad,
                            int dilationH = 1, int dilationW = 1);

/// Evaluates a fused elementwise region (graph-executor fusion): the
/// program's unary/binary/select steps applied per output element in their
/// original order, in a single kernel on every backend, bit-identical to
/// dispatching the ops one at a time.
/// The output shape is the broadcast closure of the input shapes under the
/// program; `outDtype` is the terminal op's recorded result dtype.
/// Inference-only: no gradient is recorded.
Tensor fusedRegion(const RegionProgram& program, std::span<const Tensor> inputs,
                   DType outDtype = DType::f32);
/// Move-consuming variant: `first` is inputs[0]; when the engine proves
/// sole ownership (and the backend confirms the aliasing is safe) the fused
/// loop writes into its buffer instead of allocating.
Tensor fusedRegion(const RegionProgram& program, Tensor&& first,
                   std::span<const Tensor> rest, DType outDtype = DType::f32);

/// Node::attrs encoding of a RegionProgram — {numInputs, numInstrs, then
/// {kind, op, a, b, c, alpha, beta} per instruction} (see ops/op_id.h).
std::vector<double> encodeRegionProgram(const RegionProgram& program);
RegionProgram decodeRegionProgram(std::span<const double> attrs);

// ------------------------------------------------------------ quantization

/// Symmetric per-channel int8 quantization of a weight tensor along its last
/// axis (matMul weights [k, n]: channel = n; conv HWIO filters: channel = O):
/// q = clamp(round(w / scale[c]), -127, 127), scale[c] = maxAbs(c) / 127.
/// An all-zero channel gets scale 0 and all-zero codes (see core/quant.h).
/// Returns an i8 tensor with the parameters attached.
Tensor quantizePerChannel(const Tensor& w);

/// Per-tensor affine quantization to int8:
/// q = clamp(round(x / scale) + zeroPoint, -127, 127).
Tensor quantize(const Tensor& x, float scale, std::int32_t zeroPoint = 0);

/// f32 values from an int8 tensor and its attached parameters:
/// real = (code - zeroPoint[c]) * scale[c].
Tensor dequantize(const Tensor& q);

// -------------------------------------------------------------- reductions

Tensor sum(const Tensor& x, std::span<const int> axes = {},
           bool keepDims = false);
Tensor mean(const Tensor& x, std::span<const int> axes = {},
            bool keepDims = false);
Tensor max(const Tensor& x, std::span<const int> axes = {},
           bool keepDims = false);
Tensor min(const Tensor& x, std::span<const int> axes = {},
           bool keepDims = false);
Tensor prod(const Tensor& x, std::span<const int> axes = {},
            bool keepDims = false);
Tensor any(const Tensor& x, std::span<const int> axes = {},
           bool keepDims = false);
Tensor all(const Tensor& x, std::span<const int> axes = {},
           bool keepDims = false);
/// Index of the max/min element along `axis` (i32 result).
Tensor argMax(const Tensor& x, int axis = -1);
Tensor argMin(const Tensor& x, int axis = -1);

// ------------------------------------------------------------- transforms

Tensor reshape(const Tensor& x, const Shape& shape);
Tensor flatten(const Tensor& x);
Tensor cast(const Tensor& x, DType dtype);
Tensor transpose(const Tensor& x, std::span<const int> perm = {});
Tensor slice(const Tensor& x, std::span<const int> begin,
             std::span<const int> size);
Tensor concat(std::span<const Tensor> xs, int axis = 0);
Tensor concat(std::initializer_list<Tensor> xs, int axis = 0);
/// Stacks along a new axis / splits into equal parts.
Tensor stack(std::span<const Tensor> xs, int axis = 0);
std::vector<Tensor> unstack(const Tensor& x, int axis = 0);
std::vector<Tensor> split(const Tensor& x, int numSplits, int axis);
Tensor pad(const Tensor& x, std::span<const std::pair<int, int>> paddings,
           float constantValue = 0);
Tensor gather(const Tensor& x, const Tensor& indices, int axis = 0);
Tensor tile(const Tensor& x, std::span<const int> reps);
Tensor reverse(const Tensor& x, std::span<const int> axes);
Tensor expandDims(const Tensor& x, int axis = 0);
Tensor squeeze(const Tensor& x);
Tensor resizeBilinear(const Tensor& x, int newH, int newW,
                      bool alignCorners = false);
Tensor oneHot(const Tensor& indices, int depth, float onValue = 1,
              float offValue = 0);

// ------------------------------------------------ activations & normalizers

/// Numerically stable softmax along the last axis.
Tensor softmax(const Tensor& logits, int axis = -1);
Tensor logSoftmax(const Tensor& logits, int axis = -1);
/// y = (x - mean) / sqrt(var + eps) * scale + offset, broadcast over the
/// trailing channel dimension (inference-style batch norm).
Tensor batchNorm(const Tensor& x, const Tensor& mean, const Tensor& variance,
                 const Tensor& offset, const Tensor& scale,
                 float varianceEpsilon = 1e-3f);
/// Randomly zeroes elements with probability `rate`, scaling the survivors
/// by 1/(1-rate); identity when rate == 0.
Tensor dropout(const Tensor& x, float rate, std::uint64_t seed = 42);

// ------------------------------------------------------------ advanced ops

/// Values and indices of the k largest elements along the last axis, sorted
/// descending (tf.topk).
struct TopK {
  Tensor values;   ///< [..., k]
  Tensor indices;  ///< [..., k], i32
};
TopK topk(const Tensor& x, int k, bool sorted = true);

/// Cumulative sum along `axis` (tf.cumsum); differentiable.
Tensor cumsum(const Tensor& x, int axis = 0, bool exclusive = false,
              bool reverse = false);

/// x / max(||x||_2, sqrt(eps)) over `axes` (all axes when empty).
Tensor l2Normalize(const Tensor& x, std::span<const int> axes = {},
                   float epsilon = 1e-12f);

/// Mean and variance over `axes` (tf.moments).
struct Moments {
  Tensor mean;
  Tensor variance;
};
Moments moments(const Tensor& x, std::span<const int> axes = {},
                bool keepDims = false);

/// log(sum(exp(x))) over `axes`, computed stably via the max shift.
Tensor logSumExp(const Tensor& x, std::span<const int> axes = {},
                 bool keepDims = false);

/// Parametric ReLU: x where positive, alpha*x otherwise (alpha broadcasts).
Tensor prelu(const Tensor& x, const Tensor& alpha);

/// L^p norm over `axes`: p in {1, 2} or infinity (p <= 0 selects inf).
Tensor norm(const Tensor& x, float p = 2, std::span<const int> axes = {},
            bool keepDims = false);

// ---------------------------------------------------------------- operators

inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return div(a, b); }

}  // namespace tfjs::ops
