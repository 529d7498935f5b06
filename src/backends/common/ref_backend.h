// RefBackend: host-memory reference implementation of every kernel.
//
// Three roles:
//  * ground truth for tests (every other backend is checked against it);
//  * base class for the plain-CPU backend (which overrides hot kernels with
//    deliberately interpreter-style versions, the "plain JS" analogue) and
//    for the native backend (which overrides them with blocked/vectorized
//    versions, the "TensorFlow C binding" analogue);
//  * CPU-forwarding substrate for the WebGL-sim backend's long-tail ops,
//    mirroring how the real WebGL backend forwards un-shaderized kernels.
//
// Storage is a map from DataId to a float vector; all dtypes are stored as
// float (see core/dtype.h).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "backends/common/elementwise.h"
#include "core/backend.h"

namespace tfjs::backends {

/// How a region input's element maps to the output's flat index i: dense
/// (i), scalar (0), a repeated trailing block (i % size) or, otherwise,
/// util::broadcastIndex of i's coordinates. Each is an exact index
/// computation, so every class loads the element the naive
/// unravel/broadcastIndex loop would (tests/ops_test.cc holds each class to
/// that oracle on every backend).
enum class RegionAccess { kDense, kScalar, kSuffix, kGeneric };

class RefBackend : public Backend {
 public:
  std::string name() const override { return "ref"; }

  // ---- storage
  DataId write(std::span<const float> values, const Shape& shape) override;
  std::vector<float> read(DataId id) override;
  std::future<std::vector<float>> readAsync(DataId id) override;
  void disposeData(DataId id) override;
  /// Kernels run synchronously on the calling thread, so there is never
  /// queued work to wait for (the Backend::flush contract holds trivially).
  void flush() override {}
  double kernelTimeMs() const override { return kernelMs_; }
  std::size_t memoryBytes() const override {
    std::lock_guard<std::mutex> lock(storageMu_);
    return bytes_;
  }

  // ---- kernels
  /// The elementwise interpreter, one output element at a time. Every
  /// scalar step goes through applyUnary/applyBinary (select:
  /// `c != 0 ? a : b`), so the value at each output element is
  /// bit-identical to the op-by-op chain on any backend evaluating the
  /// formulas of backends/common/elementwise.h — which is all of them.
  DataId fusedRegion(std::span<const RegionInstr> program,
                     std::span<const TensorSpec> inputs, const Shape& outShape,
                     DataId dst) override;
  /// With an int8 weight (`quant` set) matMul and conv2d run the scalar
  /// int8 oracle when Backend::matMul's conditions hold: per GEMM row (a
  /// conv's per-pixel im2col patch row), u8 dynamic activation codes x s8
  /// weight codes, exact i32 accumulation and the shared scalar epilogue
  /// (backends/common/quant_math.h). Derived backends' int8 kernels must
  /// match it bitwise. Otherwise they dequantize the weight and recurse.
  DataId matMul(const TensorSpec& a, const TensorSpec& b, bool transposeA,
                bool transposeB, const TensorSpec* bias,
                FusedActivation act) override;
  DataId conv2d(const TensorSpec& x, const TensorSpec& filter,
                const Conv2DInfo& info, const TensorSpec* bias,
                FusedActivation act) override;
  DataId conv2dBackpropInput(const TensorSpec& dy, const TensorSpec& filter,
                             const Conv2DInfo& info) override;
  DataId conv2dBackpropFilter(const TensorSpec& x, const TensorSpec& dy,
                              const Conv2DInfo& info) override;
  DataId depthwiseConv2d(const TensorSpec& x, const TensorSpec& filter,
                         const Conv2DInfo& info, const TensorSpec* bias,
                         FusedActivation act) override;
  DataId depthwiseConv2dBackpropInput(const TensorSpec& dy,
                                      const TensorSpec& filter,
                                      const Conv2DInfo& info) override;
  DataId depthwiseConv2dBackpropFilter(const TensorSpec& x,
                                       const TensorSpec& dy,
                                       const Conv2DInfo& info) override;
  DataId pool2d(PoolMode mode, const TensorSpec& x,
                const Pool2DInfo& info) override;
  DataId maxPoolBackprop(const TensorSpec& dy, const TensorSpec& x,
                         const Pool2DInfo& info) override;
  DataId avgPoolBackprop(const TensorSpec& dy,
                         const Pool2DInfo& info) override;
  DataId reduce(ReduceOp op, const TensorSpec& x, std::size_t outer,
                std::size_t n, std::size_t inner) override;
  DataId arg(ArgOp op, const TensorSpec& x, std::size_t outer,
             std::size_t inner) override;
  DataId gather(const TensorSpec& x, const TensorSpec& indices, int axis,
                const Shape& outShape) override;
  DataId resizeBilinear(const TensorSpec& x, int newH, int newW,
                        bool alignCorners) override;
  DataId oneHot(const TensorSpec& indices, int depth, float onValue,
                float offValue) override;
  /// An odometer over each piece's merged axes; the innermost one is copied
  /// as runs between wraps, with copy_n where it reads forward at stride 1.
  DataId copyStrided(std::span<const TensorSpec> inputs,
                     std::span<const CopyAxis> axes, const Shape& outShape,
                     float fillValue) override;
  /// Sorts each row's index order once, for both outputs.
  std::pair<DataId, DataId> topk(const TensorSpec& x, std::size_t outer,
                                 std::size_t inner, int k) override;
  DataId cumsum(const TensorSpec& x, std::size_t outer, std::size_t inner,
                bool exclusive, bool reverse) override;

  /// Number of live buffers (test hook).
  std::size_t numBuffers() const {
    std::lock_guard<std::mutex> lock(storageMu_);
    return buffers_.size();
  }

 protected:
  const std::vector<float>& buf(DataId id) const;
  std::vector<float>& mutableBuf(DataId id);
  DataId store(std::vector<float> v);

  /// The fused epilogue of matMul/conv2d/depthwiseConv2d, run on the
  /// accumulated output whose channel (innermost) dimension is `n`:
  /// out[i] = fusedEpilogue(out[i], bias, i % n, act), the standalone add
  /// and activation kernels' formulas in their order, so a backend that
  /// accumulates its own way and then calls this stays bit-identical to its
  /// own op-by-op chain. A no-op without bias and activation.
  void applyEpilogue(std::vector<float>& out, std::size_t n,
                     const TensorSpec* bias, FusedActivation act) const;

  /// A fusedRegion's inputs classified against its output, and the buffer
  /// it writes: dst's own when dst aliases exactly one input and that input
  /// is dense (a second spec sharing the id, or a broadcast operand, would
  /// re-read indices the kernel already overwrote), a fresh one otherwise.
  struct RegionIO {
    struct In {
      const float* p;
      std::size_t span;  ///< elements stored
      RegionAccess mode;
      const Shape* shape;
    };
    std::vector<In> ins;
    bool anyGeneric = false;
    DataId inPlace = 0;  ///< dst when writing there
    std::vector<float> fresh;
    float* out = nullptr;
  };
  RegionIO regionIO(std::span<const TensorSpec> inputs, const Shape& outShape,
                    DataId dst);
  /// The id of the region's output: dst, or the fresh buffer, stored.
  DataId finishRegion(RegionIO& io) {
    return io.inPlace != 0 ? io.inPlace : store(std::move(io.fresh));
  }

  /// True when the int8 kernels take the weight `w` of a GEMM with inner
  /// dimension k and n output columns: symmetric parameters and k short
  /// enough for exact i32 accumulation. Throws unless per-channel
  /// parameters have one entry per column. The caller checks that the
  /// activations are finite, and matMul that neither operand is transposed
  /// and `w` is one [1, k, n] matrix.
  static bool int8Weights(const TensorSpec& w, int k, int n);

  // Pooled allocation (core::BufferPool). allocBuffer's contents are
  // unspecified on a pool hit — only kernels that overwrite every element
  // may use it; accumulators and fill-style kernels take the Filled/Zeroed
  // variants. disposeData() routes freed vectors back into the pool.
  static std::vector<float> allocBuffer(std::size_t n);
  static std::vector<float> allocZeroed(std::size_t n);
  static std::vector<float> allocFilled(std::size_t n, float value);

  /// Accumulates kernel wall time; derived backends reuse it. When given a
  /// name it also emits a "kernel" trace span (if tracing is active), so
  /// backend-level execution shows up nested under the op-level span.
  class KernelTimer {
   public:
    explicit KernelTimer(double& acc, const char* name = nullptr);
    ~KernelTimer();

   private:
    double& acc_;
    const char* name_;
    double traceStartUs_ = -1;
    std::chrono::steady_clock::time_point start_;
  };

  double kernelMs_ = 0;

 private:
  // Guards the storage map and its byte/id accounting: write / read /
  // disposeData are called from client threads while the scheduler thread
  // stores kernel outputs. unordered_map references are stable across
  // rehash, so buf()/mutableBuf() results stay valid outside the lock for
  // as long as the engine's refcount keeps the id alive.
  mutable std::mutex storageMu_;
  std::unordered_map<DataId, std::vector<float>> buffers_;
  DataId nextId_ = 1;
  std::size_t bytes_ = 0;
};

/// The one dequantize fallback of the int8 weight path, on every backend:
/// f32 weights from the int8 codes of `w` (`w.quant` set) through the
/// backend's own write + fusedRegion kernels: `codes - zp` when the
/// parameters are asymmetric, then `* scale`, each against an uploaded row
/// of per-channel parameters (last axis) or a per-tensor scalar. Bitwise
/// `(code - zp[c]) * scale[c]`, since x - 0 == x for every float. The
/// caller disposes the result.
DataId dequantizeWeights(Backend& be, const TensorSpec& w);

/// Runs `kernel(wf)` on the dequantized f32 weights of `w` and disposes
/// them: the f32 fallback of matMul/conv2d for an int8 weight.
template <typename Kernel>
DataId withDequantizedWeights(Backend& be, const TensorSpec& w,
                              Kernel kernel) {
  const TensorSpec wf{dequantizeWeights(be, w), w.shape, DType::f32};
  const DataId y = kernel(wf);
  be.disposeData(wf.id);
  return y;
}

/// The element an index names along an axis of `size` elements (index
/// tensors hold floats, see core/dtype.h): v truncated toward zero, or -1
/// when that lies outside [0, size), NaN and ±inf included. Truncating and
/// range-checking in float first keeps the integer conversion defined.
inline std::int64_t indexAt(float v, std::size_t size) {
  const float t = std::trunc(v);
  if (!(t >= 0 && t < static_cast<float>(size))) return -1;
  const auto i = static_cast<std::size_t>(t);
  return i < size ? static_cast<std::int64_t>(i) : -1;
}

/// Backend::topk's order: (v, m) ranks before (e, j) when v is greater,
/// NaN being greater than every number, or when the two are equal (or both
/// NaN) and m < j.
inline bool topkBefore(float v, std::size_t m, float e, std::size_t j) {
  const bool vNan = std::isnan(v), eNan = std::isnan(e);
  if (vNan != eNan) return vNan;
  if (!vNan && v != e) return v > e;
  return m < j;
}

/// binaryFormula / unaryFormula (backends/common/elementwise.h) with the op
/// chosen at run time, out of line: the per-element switch that
/// RefBackend's interpreter, webgl-sim's shader bodies and the cpu
/// backend's ScalarVM run. The native region kernel instantiates the same
/// formulas per op instead (unaryOf / binaryOf).
float applyBinary(BinaryOp op, float a, float b);
float applyUnary(UnaryOp op, float x, float alpha, float beta);

/// One output element of a region program, interpreted: instruction k's
/// value (applyUnary, applyBinary or `c != 0 ? a : b` on its operands) goes
/// through `stored` into vals[k], and the last one is returned. `ins` holds
/// the element's input values; `stored` is webgl-sim's texture precision,
/// the identity on the reference interpreter.
template <typename Stored>
float runProgram(std::span<const RegionInstr> program, const float* ins,
                 float* vals, Stored stored) {
  const auto arg = [&](int r) { return r < 0 ? ins[-1 - r] : vals[r]; };
  for (std::size_t k = 0; k < program.size(); ++k) {
    const RegionInstr& si = program[k];
    float v = 0;
    switch (si.kind) {
      case RegionInstr::Kind::kUnary:
        v = applyUnary(static_cast<UnaryOp>(si.op), arg(si.a), si.alpha,
                       si.beta);
        break;
      case RegionInstr::Kind::kBinary:
        v = applyBinary(static_cast<BinaryOp>(si.op), arg(si.a), arg(si.b));
        break;
      case RegionInstr::Kind::kSelect:
        v = arg(si.a) != 0 ? arg(si.b) : arg(si.c);
        break;
    }
    vals[k] = stored(v);
  }
  return vals[program.size() - 1];
}

/// True when broadcasting `s` against `out` replicates s's elements as a
/// contiguous trailing block (e.g. a [C] bias against an NHWC tensor):
/// s, with leading 1s stripped, equals the trailing dims of out. Lets
/// region kernels replace per-element coordinate decoding with a dense
/// row loop — same scalar op per element, so values are unchanged.
bool broadcastsAsSuffix(const Shape& s, const Shape& out);

/// How an input of shape `s` broadcasts in a region over `out`.
RegionAccess classifyRegionInput(const Shape& s, const Shape& out);

}  // namespace tfjs::backends
