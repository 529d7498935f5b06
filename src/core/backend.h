// Backend: the device abstraction of paper section 3.4.
//
// A backend implements (a) storage — write()/read()/disposeData() over opaque
// DataIds, the analogue of the TypedArray-backed data containers — and
// (b) kernels, device-specific implementations of the math that the ops layer
// dispatches to ("operations call into kernels", section 3.3).
//
// Tensors are decoupled from the data that backs them: the engine's
// DataContainer holds a (Backend*, DataId) pair plus a reference count, so
// reshape/clone never copy and dispose releases storage only when the last
// reference drops (section 3.4).
#pragma once

#include <cstdint>
#include <cstdio>
#include <future>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/conv_util.h"
#include "core/dtype.h"
#include "core/error.h"
#include "core/quant.h"
#include "core/shape.h"

namespace tfjs {

using DataId = std::uint64_t;

/// What a kernel sees of an input tensor: storage id + logical metadata.
struct TensorSpec {
  DataId id = 0;
  Shape shape;
  DType dtype = DType::f32;
  /// The int8 codes' dequantization parameters; null unless dtype is i8 and
  /// the tensor carries them (an int8 weight, see matMul).
  const QuantParams* quant = nullptr;
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kFloorDiv, kMod, kPow, kMaximum, kMinimum,
  kSquaredDiff, kAtan2,
  // comparisons / logic produce 0.0 / 1.0
  kEqual, kNotEqual, kGreater, kGreaterEqual, kLess, kLessEqual,
  kLogicalAnd, kLogicalOr, kLogicalXor,
};

enum class UnaryOp {
  kNeg, kAbs, kExp, kExpm1, kLog, kLog1p, kSqrt, kRsqrt, kSquare,
  kReciprocal, kFloor, kCeil, kRound, kSign, kTrunc,
  kSin, kCos, kTan, kAsin, kAcos, kAtan, kSinh, kCosh, kTanh,
  kRelu, kRelu6, kSigmoid, kSoftplus, kElu, kSelu, kErf,
  kLogicalNot, kIsNan, kIsFinite, kNotZero,
  // parameterized: alpha (and beta for clip)
  kLeakyRelu,     ///< alpha = negative slope
  kClipByValue,   ///< alpha = min, beta = max
  kStep,          ///< alpha = value for x == 0
  kPowScalar,     ///< alpha = exponent
  kAddScalar,     ///< alpha = addend
  kMulScalar,     ///< alpha = factor
};

/// Epilogue activation of a fused matMul/conv2d (the subset Layers' Dense /
/// Conv2D emit and the paper's mobile models use). Semantics are exactly the
/// matching UnaryOp — fused outputs must stay bit-identical to the unfused
/// kernel chain.
enum class FusedActivation { kNone, kRelu, kRelu6, kSigmoid };

/// One scalar step of an elementwise program (Backend::fusedRegion).
/// Operand references `a`/`b`/`c`: values >= 0 name the result of a prior
/// instruction in the same program; values < 0 name an external input slot
/// as `-1 - ref` (so slot 0 is -1, slot 1 is -2, ...). Instructions are the
/// ops in their original dispatch order, and every backend applies the same
/// scalar formulas per step (applyUnary / applyBinary / `c != 0 ? a : b`),
/// so a fused program stays bit-identical to its ops run one at a time.
struct RegionInstr {
  enum class Kind { kUnary, kBinary, kSelect };
  Kind kind = Kind::kUnary;
  int op = 0;      ///< UnaryOp or BinaryOp code (unused for kSelect)
  int a = 0;       ///< first operand (cond for kSelect)
  int b = 0;       ///< second operand (kBinary/kSelect)
  int c = 0;       ///< third operand (kSelect only)
  float alpha = 0; ///< unary parameter
  float beta = 0;  ///< unary parameter

  /// The operand ref of external input slot j.
  static constexpr int input(int j) { return -1 - j; }
  static constexpr RegionInstr unary(UnaryOp op, int a, float alpha = 0) {
    return {.kind = Kind::kUnary, .op = static_cast<int>(op), .a = a,
            .alpha = alpha};
  }
  static constexpr RegionInstr binary(BinaryOp op, int a, int b) {
    return {.kind = Kind::kBinary, .op = static_cast<int>(op), .a = a, .b = b};
  }
};

/// A straight-line elementwise program over `numInputs` external tensors.
/// The last instruction's value is the region's output. Inputs broadcast
/// independently to the final output shape; interior values are always
/// evaluated at the final output's coordinates (broadcast composition keeps
/// that bitwise-equal to the op-by-op chain — see DESIGN.md).
struct RegionProgram {
  int numInputs = 0;
  std::vector<RegionInstr> instrs;
};

/// How one output axis of a Backend::copyStrided piece reads its input: the
/// box covers output coordinates [offset, offset + extent) on this axis, and
/// its k-th element reads input axis `inAxis` at coordinate
/// (start + step * k) mod n, where n is that input axis's extent and
/// 0 <= start < n — the wrap is what tiles. A piece's inAxis values are a
/// permutation of its input's axes.
struct CopyAxis {
  int inAxis = 0;
  int start = 0;
  int step = 1;  ///< +1 or -1
  int offset = 0;
  int extent = 0;
};

enum class ReduceOp { kSum, kMean, kProd, kMax, kMin, kAny, kAll };
enum class ArgOp { kArgMax, kArgMin };
enum class PoolMode { kMax, kAvg };

/// Result of time(f) (paper section 3.8): wall time plus device kernel time.
/// On the WebGL-sim backend kernelMs is the modeled GPU time, excluding
/// upload/download, exactly like the EXT_disjoint_timer_query path.
struct TimingInfo {
  double wallMs = 0;
  double kernelMs = 0;

  std::string toString() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "wall %.3f ms, kernel %.3f ms", wallMs,
                  kernelMs);
    return buf;
  }
};

inline std::ostream& operator<<(std::ostream& os, const TimingInfo& t) {
  return os << t.toString();
}

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;

  // ---- storage -------------------------------------------------------
  /// Uploads host values; returns an opaque id for the device buffer. The
  /// logical shape lets texture backends choose a physical layout.
  virtual DataId write(std::span<const float> values, const Shape& shape) = 0;
  /// Blocking download (dataSync). Flushes pending device work.
  virtual std::vector<float> read(DataId id) = 0;
  /// Non-blocking download (data()): resolves when the device has finished
  /// all work enqueued before this call.
  virtual std::future<std::vector<float>> readAsync(DataId id) = 0;
  virtual void disposeData(DataId id) = 0;
  /// Blocks until all enqueued device work has completed. Contract: after
  /// flush() returns, read() must observe every kernel enqueued before the
  /// call, and kernelTimeMs() must include their cost. Pure virtual on
  /// purpose — a queueing backend that forgets to implement it would
  /// silently return stale data from read(); synchronous backends implement
  /// it as an empty body (see RefBackend).
  virtual void flush() = 0;
  /// Total accumulated kernel time (ms); device-specific semantics.
  virtual double kernelTimeMs() const = 0;
  /// Bytes currently held by the backend's storage.
  virtual std::size_t memoryBytes() const = 0;

  // ---- kernels -------------------------------------------------------
  /// Batched matmul over rank-3 inputs [batch, m, k] x [batch, k, n]; batch
  /// dims of size 1 broadcast. The fused epilogue is part of the kernel:
  /// after the full accumulation of an element, adds `bias[j]` (a length-n
  /// vector, or nullptr) and applies `act`. Results must be bit-identical to
  /// matMul + broadcast add + activation dispatched op by op on the same
  /// backend.
  ///
  /// int8 is a dtype of the weight `b`: when `b.quant` is set, `b` holds
  /// int8 codes and the backend decides how to run it. A backend's int8
  /// kernel quantizes `a` dynamically per GEMM row (u8 codes, exact i32
  /// accumulation) and runs the epilogue on the dequantized f32 value; every
  /// int8 kernel is bit-identical to RefBackend's scalar oracle. It applies
  /// when neither operand is transposed, `b` is one [1, k, n] matrix with
  /// symmetric parameters, k fits the i32 accumulator and `a` is all
  /// finite. Otherwise (and on a backend without an int8 kernel) the weight
  /// is dequantized by backends::dequantizeWeights and the f32 kernel runs
  /// on it. Output is f32 either way.
  virtual DataId matMul(const TensorSpec& a, const TensorSpec& b,
                        bool transposeA, bool transposeB,
                        const TensorSpec* bias, FusedActivation act) = 0;
  /// NHWC conv2d with the same fused epilogue contract (`bias` length =
  /// outC) and the same int8 weight contract (GEMM rows are im2col patch
  /// rows; padding quantizes exactly to the row's zero point).
  virtual DataId conv2d(const TensorSpec& x, const TensorSpec& filter,
                        const Conv2DInfo& info, const TensorSpec* bias,
                        FusedActivation act) = 0;
  virtual DataId conv2dBackpropInput(const TensorSpec& dy,
                                     const TensorSpec& filter,
                                     const Conv2DInfo& info) = 0;
  virtual DataId conv2dBackpropFilter(const TensorSpec& x,
                                      const TensorSpec& dy,
                                      const Conv2DInfo& info) = 0;
  /// NHWC depthwise conv2d with the same fused epilogue contract as conv2d
  /// (`bias` length = outC = inC * channelMult): bit-identical to
  /// depthwiseConv2d + broadcast add + activation dispatched op by op.
  virtual DataId depthwiseConv2d(const TensorSpec& x, const TensorSpec& filter,
                                 const Conv2DInfo& info,
                                 const TensorSpec* bias,
                                 FusedActivation act) = 0;
  virtual DataId depthwiseConv2dBackpropInput(const TensorSpec& dy,
                                              const TensorSpec& filter,
                                              const Conv2DInfo& info) = 0;
  virtual DataId depthwiseConv2dBackpropFilter(const TensorSpec& x,
                                               const TensorSpec& dy,
                                               const Conv2DInfo& info) = 0;
  virtual DataId pool2d(PoolMode mode, const TensorSpec& x,
                        const Pool2DInfo& info) = 0;
  virtual DataId maxPoolBackprop(const TensorSpec& dy, const TensorSpec& x,
                                 const Pool2DInfo& info) = 0;
  virtual DataId avgPoolBackprop(const TensorSpec& dy,
                                 const Pool2DInfo& info) = 0;
  /// Reduces the middle axis of x viewed as [outer, n, inner]; the result
  /// is [outer, inner]. Each output element folds its n inputs in
  /// ascending order of the middle index, so the view is bitwise the same
  /// reduce as transposing the middle axis last (inner = 1). An empty
  /// middle axis (n = 0) gives the op's identity (mean: 0 / 0).
  virtual DataId reduce(ReduceOp op, const TensorSpec& x, std::size_t outer,
                        std::size_t n, std::size_t inner) = 0;
  /// Index of max/min over the trailing `inner` elements, as float values.
  virtual DataId arg(ArgOp op, const TensorSpec& x, std::size_t outer,
                     std::size_t inner) = 0;
  /// Indices truncate toward zero (backends::indexAt). One outside the
  /// axis, NaN and ±inf included, throws; in oneHot it gives an all-off row.
  virtual DataId gather(const TensorSpec& x, const TensorSpec& indices,
                        int axis, const Shape& outShape) = 0;
  virtual DataId resizeBilinear(const TensorSpec& x, int newH, int newW,
                                bool alignCorners) = 0;
  virtual DataId oneHot(const TensorSpec& indices, int depth, float onValue,
                        float offValue) = 0;
  /// Top-k of each trailing `inner` segment of x viewed as [outer, inner]:
  /// returns {values, indices as floats}, each [outer, k], sorted
  /// descending. NaN ranks above every number, and equal values (NaN
  /// included) keep ascending index order.
  virtual std::pair<DataId, DataId> topk(const TensorSpec& x,
                                         std::size_t outer, std::size_t inner,
                                         int k) = 0;
  /// Prefix sum along the trailing `inner` dimension of [outer, inner].
  virtual DataId cumsum(const TensorSpec& x, std::size_t outer,
                        std::size_t inner, bool exclusive, bool reverse) = 0;

  /// The one data-movement kernel. Builds `outShape` from pieces: input j
  /// is piece j, and `axes[j * rank + d]` (rank = outShape.rank()) says how
  /// output axis d of its box reads it. Output elements no box covers take
  /// `fillValue`; boxes never overlap. transpose, slice, concat, pad, tile,
  /// reverse and fill are all this kernel (a fill has no pieces).
  virtual DataId copyStrided(std::span<const TensorSpec> inputs,
                             std::span<const CopyAxis> axes,
                             const Shape& outShape, float fillValue) = 0;

  /// The one elementwise kernel: evaluates a straight-line program of
  /// unary/binary/select instructions in a single pass over the output —
  /// one load per input element, the scalar ops in program order, one
  /// store. Operand refs `-1 - j` name `inputs[j]`; each input broadcasts
  /// to `outShape`. Every standalone elementwise op is a one-instruction
  /// program, and a graph region is a longer one. When `dst` is nonzero it
  /// aliases a dense input whose buffer the caller proved safe to
  /// overwrite — the kernel MAY write there and return dst, or allocate;
  /// callers compare the returned id against dst. A one-instruction program
  /// with dst is how move-consuming ops (`relu(Tensor&&)`,
  /// `add(Tensor&&, b)`) run in place. Results must be bit-identical to
  /// running the program's instructions one at a time.
  virtual DataId fusedRegion(std::span<const RegionInstr> program,
                             std::span<const TensorSpec> inputs,
                             const Shape& outShape, DataId dst) = 0;

  /// Smallest additive constant guaranteed distinguishable from zero in the
  /// backend's arithmetic. The WebGL-sim backend returns a larger value on
  /// fp16 devices — the paper's fix for log(x + 1e-8) rounding to log(x)
  /// on iOS (section 4.1.3).
  virtual float epsilon() const { return 1e-7f; }
};

}  // namespace tfjs
