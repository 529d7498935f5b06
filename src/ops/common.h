// Internal plumbing shared by the op implementations: kernel dispatch,
// profiler/debug notification, and gradient-tape recording.
#pragma once

#include <array>
#include <initializer_list>
#include <vector>

#include "core/engine.h"
#include "core/trace.h"
#include "ops/op_id.h"
#include "ops/ops.h"

namespace tfjs::ops::internal {

inline Engine& E() { return Engine::get(); }

// ---- graph-capture recording (src/graph) ---------------------------------
//
// Public ops report themselves to the engine's OpObserver so capture(fn)
// can rebuild the dispatch sequence as IR. Composite ops (softmax,
// batchNorm's pieces...) must record as ONE node, not as
// their internals, so every recording site opens a CaptureFrame: only
// depth-1 events (the outermost public op on this thread) reach the
// observer; nested dispatches are suppressed.

/// Depth of public-op nesting on this thread. 0 = user code.
inline thread_local int captureDepth = 0;

/// RAII nesting marker opened by every observed public op. Placed AFTER an
/// op's delegation branches (e.g. depthwiseConv2d dequantizing an int8
/// filter first) so the delegate records itself as the node.
class CaptureFrame {
 public:
  CaptureFrame() { ++captureDepth; }
  ~CaptureFrame() { --captureDepth; }
  CaptureFrame(const CaptureFrame&) = delete;
  CaptureFrame& operator=(const CaptureFrame&) = delete;
};

/// True when the outermost public op should report to a capture observer.
inline bool observing() {
  return captureDepth == 1 && E().opObserver() != nullptr;
}

/// Reports one op-level dispatch to the active observer. Call while holding
/// this op's CaptureFrame, after the output tensor exists.
inline void observeOp(OpId id, std::initializer_list<Tensor> inputs,
                      const Tensor& output,
                      std::initializer_list<double> attrs = {},
                      const Shape* shapeAttr = nullptr) {
  if (!observing()) return;
  std::vector<Tensor> ins(inputs);
  std::vector<double> at(attrs);
  E().opObserver()->onOp(static_cast<int>(id), ins, output, at, shapeAttr);
}

/// Span overloads for variadic inputs (concat) / computed attrs.
inline void observeOp(OpId id, std::span<const Tensor> inputs,
                      const Tensor& output, std::span<const double> attrs,
                      const Shape* shapeAttr = nullptr) {
  if (!observing()) return;
  E().opObserver()->onOp(static_cast<int>(id), inputs, output, attrs,
                         shapeAttr);
}
inline void observeOp(OpId id, std::initializer_list<Tensor> inputs,
                      const Tensor& output, std::span<const double> attrs,
                      const Shape* shapeAttr = nullptr) {
  if (!observing()) return;
  std::vector<Tensor> ins(inputs);
  E().opObserver()->onOp(static_cast<int>(id), ins, output, attrs, shapeAttr);
}

/// Per-dispatch instrumentation scope: construct before calling into the
/// backend, then wrap() the kernel-produced buffer. The scope captures a
/// start timestamp (only when tracing is active — otherwise it is a single
/// relaxed atomic load) so Engine::notifyKernel can emit an "op" span
/// covering input preparation + backend dispatch.
///
///   KernelScope k("oneHot");
///   const DataId id = E().backend().oneHot(...);
///   return k.wrap(id, outShape, DType::f32);
///
/// Composite ops that build their output from sub-ops use notify(y) instead
/// of wrap(); the sub-ops' own spans are recorded too, so profile() reports
/// both the composite and its pieces (matching the upstream profiler).
class KernelScope {
 public:
  explicit KernelScope(const char* name)
      : name_(name), startUs_(trace::active() ? trace::nowUs() : -1) {
    // A kernel firing outside any CaptureFrame while a capture observer is
    // installed has no op-level recording: the capture layer fails loudly
    // (uninstrumented op) instead of silently folding the output into a
    // constant. Creation kernels with no tensor inputs are exempt — a
    // constant is exactly what they are.
    if (captureDepth == 0) {
      if (OpObserver* obs = E().opObserver()) obs->onUnrecordedKernel(name);
    }
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

  /// Wraps a kernel-produced buffer in a tracked tensor and notifies the
  /// engine (trace span, metrics, debug-mode NaN check — section 3.8).
  Tensor wrap(DataId id, const Shape& shape, DType dtype) {
    Tensor t = E().makeTensorFromDataId(id, shape, dtype);
    notify(t);
    return t;
  }

  /// Notifies the engine for an already-wrapped output (multi-output and
  /// composite kernels). Restarts the clock so a second output gets its own
  /// span instead of double-counting the first.
  void notify(const Tensor& t) {
    E().notifyKernel(name_, t, startUs_);
    if (startUs_ >= 0) startUs_ = trace::nowUs();
  }

 private:
  const char* name_;
  double startUs_;
};

/// The one elementwise dispatch behind every unary, binary and select op,
/// fusedRegion and the in-place path: runs `program` over `inputs` as a
/// single Backend::fusedRegion call under the op span `name` and wraps the
/// result as `outShape`/`outDtype`. With `inPlace`, dst is inputs[0]'s
/// buffer, which the caller proved safe to overwrite: the output takes over
/// that storage when the kernel wrote there, and inputs[0] is disposed when
/// the backend allocated instead. The caller holds the CaptureFrame and
/// records capture and gradients.
Tensor elementwiseKernel(const char* name, std::span<const RegionInstr> program,
                         std::span<const Tensor> inputs, const Shape& outShape,
                         DType outDtype, bool inPlace = false);

/// In-place dispatch behind every move-consuming op (`relu(Tensor&&)`,
/// `add(Tensor&&, b)`, `fusedRegion(program, Tensor&&, rest)`): when the
/// engine proves sole ownership of inputs[0], whose buffer must hold the
/// output exactly (same shape, same element width), runs `program` through
/// elementwiseKernel in place under an op span named `name`. Returns an
/// undefined Tensor when a check fails — the caller then runs the
/// allocating op (which records capture and gradients) and disposes the
/// consumed input.
Tensor tryRegionInPlace(const char* name, std::span<const RegionInstr> program,
                        std::span<const Tensor> inputs, const Shape& outShape,
                        DType outDtype);

/// The one data-movement dispatch (transpose, slice, concat, pad, tile,
/// reverse, fill): Backend::copyStrided over `xs` as its pieces under the op
/// span `name`. The caller records capture and gradients.
Tensor copyKernel(const char* name, std::span<const Tensor> xs,
                  std::span<const CopyAxis> axes, const Shape& outShape,
                  DType dtype, float fillValue = 0);

/// Normalizes a rank-2 tensor to rank-3 with batch 1 (alias, free).
inline Tensor to3d(const Tensor& t) {
  if (t.rank() == 3) return t.clone();
  return t.reshape(Shape{1, t.shape()[0], t.shape()[1]});
}

/// The one op body behind each producer kernel (fused.cc). matMul, conv2d
/// and depthwiseConv2d call it with an undefined bias and kNone, the fused
/// ops with theirs, and the graph executor with a node's epilogue; `name`
/// is the caller's op span and tape name (depthwise opens the span
/// "depthwiseConv2d" under either name, an int8 weight "quantizedMatMul" /
/// "quantizedConv2d"). Checks every shape before any tensor is made, runs
/// the backend kernel with its epilogue, and records one graph node and,
/// for an f32 weight, the pullback.
Tensor fusedMatMul(const char* name, const Tensor& a, const Tensor& b,
                   const Tensor& bias, FusedActivation act, bool transposeA,
                   bool transposeB);
Tensor fusedConv2d(const char* name, const Tensor& x, const Tensor& filter,
                   const Tensor& bias, FusedActivation act, int strideH,
                   int strideW, PadMode pad, int dilationH, int dilationW);
Tensor fusedDepthwiseConv2d(const char* name, const Tensor& x,
                            const Tensor& filter, const Tensor& bias,
                            FusedActivation act, int strideH, int strideW,
                            PadMode pad, int dilationH, int dilationW);

/// Throws ShapeError unless `bias` is undefined or rank 1 with one entry
/// per output channel.
inline void checkBias(const char* name, const Tensor& bias, int channels) {
  TFJS_SHAPE_CHECK(
      !bias.defined() || (bias.rank() == 1 && bias.shape()[0] == channels),
      name << " bias must be rank 1 of length " << channels << ", got "
           << bias.shape().toString());
}

/// The leading attrs of a kConv2d / kDepthwiseConv2d node.
inline std::array<double, 5> convLayout(int strideH, int strideW, PadMode pad,
                                        int dilationH, int dilationW) {
  return {static_cast<double>(strideH), static_cast<double>(strideW),
          static_cast<double>(pad), static_cast<double>(dilationH),
          static_cast<double>(dilationW)};
}

/// Reports a producer op (any epilogue, any weight dtype) to a capture
/// observer as one node: inputs {x, w[, bias]}, attrs `layout` then
/// {act, hasBias} (see ops/op_id.h).
void observeProducer(OpId id, const Tensor& x, const Tensor& w,
                     const Tensor& bias, const Tensor& y, FusedActivation act,
                     std::span<const double> layout);

/// matMul's transpose-aware adjoints {da, db} for the output gradient dy,
/// reduced over broadcast batch dims. An operand whose `need` flag is false
/// gets an undefined tensor and costs no kernel.
std::vector<Tensor> matMulGrads(const Tensor& a, const Tensor& b,
                                bool transposeA, bool transposeB,
                                const Tensor& dy, bool needA, bool needB);
/// conv2d's adjoints {dx, dfilter} for the output gradient dy; an operand
/// whose `need` flag is false gets an undefined tensor and costs no kernel.
std::vector<Tensor> convGrads(const Tensor& x, const Tensor& filter,
                              const Conv2DInfo& info, const Tensor& dy,
                              bool needX, bool needF);
/// The same for depthwiseConv2d.
std::vector<Tensor> depthwiseGrads(const Tensor& x, const Tensor& filter,
                                   const Conv2DInfo& info, const Tensor& dy,
                                   bool needX, bool needF);

/// Whether the active tape watches `t`. A pullback captures this for each
/// operand when its op records, and returns an undefined gradient (which
/// the tape skips) for an operand nothing differentiates — the input batch
/// of a model's first layer, say.
inline bool watched(const Tensor& t) {
  TapeRecorder* tape = E().tape();
  return tape != nullptr && tape->watched(std::span<const Tensor>(&t, 1));
}

/// Records a pullback onto the active tape when gradients are being traced
/// through any of the inputs.
inline void record(const char* name, std::span<const Tensor> inputs,
                   const Tensor& output, GradFunc grad) {
  TapeRecorder* tape = E().tape();
  if (tape != nullptr && tape->watched(inputs)) {
    tape->record(name, inputs, output, std::move(grad));
  }
}
inline void record(const char* name, std::initializer_list<Tensor> inputs,
                   const Tensor& output, GradFunc grad) {
  record(name, std::span<const Tensor>(inputs.begin(), inputs.size()), output,
         std::move(grad));
}

/// Sums `dy` over the axes that broadcasting expanded, then reshapes to
/// `target` — the standard gradient adjoint of implicit broadcasting.
Tensor reduceGradTo(const Tensor& dy, const Shape& target);

/// RAII tape suspension for ops that are internally composite: the helper
/// steps are not recorded; the public op records one composite gradient.
class TapePause {
 public:
  TapePause() : saved_(E().tape()) { E().setTape(nullptr); }
  ~TapePause() { E().setTape(saved_); }
  TapePause(const TapePause&) = delete;
  TapePause& operator=(const TapePause&) = delete;

 private:
  TapeRecorder* saved_;
};

}  // namespace tfjs::ops::internal
