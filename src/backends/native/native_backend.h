// NativeBackend: the analogue of the paper's Node.js backend, which binds to
// the TensorFlow C library and uses AVX on the CPU (paper section 4.2).
//
// Instead of binding to an external library we implement the same role from
// scratch: cache-blocked SIMD kernels compiled with -O3 -march=native,
// parallelised across cores with the shared intra-op thread pool
// (core/thread_pool.h) — the same two mechanisms (SIMD + an Eigen-style
// intra-op pool) the TF C library uses. The f32 GEMM is register-tiled in
// the Goto/BLIS style (packed B panels, an MR x NR accumulator tile, the
// bias/activation epilogue applied in registers); matMul and conv2d (1x1
// directly, others via im2col) both lower onto it, epilogue included. The
// int8 GEMM (native_quant.cc) has the same shape: cached packed weight
// panels, a row-block partition, an MR x 64 i32 register tile and the
// dequantizing epilogue applied from the accumulators. Depthwise conv keeps
// groups of output pixels in registers across all taps and applies its
// bias/activation epilogue there too, so each forward activation is written
// once. The backward
// kernels lower the same way: conv backprop onto the GEMM (over im2col rows
// for the filter, then a col2im scatter-add for the input), depthwise and
// pooling backprop onto dense channel rows. Long-tail data-movement kernels inherit the reference
// implementations.
//
// Every parallel kernel uses a fixed chunk partition (independent of the
// thread count), so results are bit-identical to the single-threaded path;
// see DESIGN.md "Threading model".
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "backends/common/ref_backend.h"

namespace tfjs::backends::native {

/// Int8 weight matrix packed for the SIMD microkernel (native_quant.cc):
/// raw row-major codes plus the ISA-specific panel layout, padded so the
/// inner loop needs no tail handling. Built once per weight tensor and
/// cached on the backend — this is the "int8 at rest" representation shared
/// by every serving session that references the same weight DataId.
struct PackedQuantWeights {
  int k = 0, n = 0;        ///< logical dims ([k, n], channels on n)
  int kPad = 0, nPad = 0;  ///< padded dims (panel multiples)
  std::vector<std::int8_t> panels;    ///< AVX-512 VNNI quad-k panel layout
  std::vector<std::int16_t> panels16; ///< AVX2 pre-widened pair-k layout
  std::vector<std::int8_t> w8;        ///< row-major codes (scalar fallback)
  std::vector<std::int32_t> colSums;  ///< per-column code sums (zp correction)
};

class NativeBackend : public RefBackend {
 public:
  std::string name() const override { return "native"; }

  /// Drops the packed-weight cache entry (if any) along with the buffer.
  void disposeData(DataId id) override;

  /// matMul and conv2d apply bias + activation to the GEMM's register tile
  /// after the full k accumulation — bit-identical to matMul + add + act.
  /// Their GEMMs overwrite the output (each chain starts from +0 in
  /// registers), so the output buffer is never zero-filled or reloaded.
  /// An int8 weight runs int8MatMul / int8Conv2d.
  DataId matMul(const TensorSpec& a, const TensorSpec& b, bool transposeA,
                bool transposeB, const TensorSpec* bias,
                FusedActivation act) override;
  DataId conv2d(const TensorSpec& x, const TensorSpec& filter,
                const Conv2DInfo& info, const TensorSpec* bias,
                FusedActivation act) override;
  /// Strip-mined fused-region interpreter: per block of output elements,
  /// inputs load once into dense rows, then each instruction runs as one
  /// row loop over the block, picked by op code from a table of loops
  /// instantiated from the formulas of backends/common/elementwise.h (one
  /// per UnaryOp and BinaryOp code; the compiler vectorizes each it can).
  /// The per-element op order and formulas are the reference interpreter's,
  /// so values are bit-identical to it. Parallelised with the fixed
  /// kElemGrain partition.
  DataId fusedRegion(std::span<const RegionInstr> program,
                     std::span<const TensorSpec> inputs, const Shape& outShape,
                     DataId dst) override;
  /// channelMult 1: per output row, interior pixels 8, 4 or 2 at a time
  /// with their accumulators in registers across every tap, each output
  /// stored once; the remaining pixels run one at a time over their
  /// in-bounds taps, and channels past the last whole vector one chain each.
  /// Every element is acc = +0; acc += x * f over its in-bounds taps in
  /// ascending (fy, fx) order — one FMA per tap when the target has FMA —
  /// whatever the blocking or thread count (tests/native_gemm_test.cc).
  /// The epilogue (acc + bias[c], then the relu/relu6 select, the GEMM
  /// micro-kernel's formulas) runs on those registers before the single
  /// store; sigmoid runs on the stored value. channelMult > 1 accumulates
  /// each pixel into the zeroed output and then runs the same formulas on
  /// it. Either way the result is bit-identical to depthwise + add + act.
  DataId depthwiseConv2d(const TensorSpec& x, const TensorSpec& filter,
                         const Conv2DInfo& info, const TensorSpec* bias,
                         FusedActivation act) override;
  /// Dense channel rows per window, folded into the output pixel's row:
  /// max as `acc < v ? v : acc` (std::max's NaN behaviour), avg as a sum
  /// over the in-bounds taps divided by their count, taps in RefBackend's
  /// order — bitwise RefBackend's.
  DataId pool2d(PoolMode mode, const TensorSpec& x,
                const Pool2DInfo& info) override;

  // Backward kernels. Each is bit-identical at any thread count (one chunk
  // per image, per filter tap or per input row, each run serially);
  // tests/native_gemm_test.cc holds them to per-element oracles.

  /// dX = col2im(dy · Wᵀ): per image, fixed chunks of output rows run the
  /// GEMM (W read transposed in place) into a bounded dcol scratch, which is
  /// then scatter-added into dX in ascending (oy, ox) order. Each dcol
  /// element is one ascending-oc chain from +0; each dX element is +0 plus
  /// the dcol values that reach it, in (oy, ox) order.
  DataId conv2dBackpropInput(const TensorSpec& dy, const TensorSpec& filter,
                             const Conv2DInfo& info) override;
  /// dW = colᵀ · dy over fixed chunks of output rows (bounded im2col
  /// scratch, read transposed in place), each chunk's GEMM continuing the
  /// previous one's chains: every dW element is one chain over all output
  /// pixels in ascending order, from +0, padding taps included as zeros.
  DataId conv2dBackpropFilter(const TensorSpec& x, const TensorSpec& dy,
                              const Conv2DInfo& info) override;
  /// Gathers per input row, a dense channel row per contributing tap: each
  /// element is +0, then one multiply-add per (contributing output pixel
  /// ascending, channel multiplier q ascending).
  DataId depthwiseConv2dBackpropInput(const TensorSpec& dy,
                                      const TensorSpec& filter,
                                      const Conv2DInfo& info) override;
  /// One chunk per filter tap, a dense channel row per output pixel. Each
  /// element is +0, then one multiply-add per output pixel (b, oy, ox)
  /// ascending whose tap lands inside the input.
  DataId depthwiseConv2dBackpropFilter(const TensorSpec& x,
                                       const TensorSpec& dy,
                                       const Conv2DInfo& info) override;
  /// Per window, a vector of channels at a time: a branch-free argmax in
  /// registers (first strict >, so NaN is never picked and an all -inf
  /// window routes nothing), then one add per channel. Every dX element
  /// sums in RefBackend's (oy, ox) order, so the result is bitwise
  /// RefBackend's; windows that tile the input write each element once.
  DataId maxPoolBackprop(const TensorSpec& dy, const TensorSpec& x,
                         const Pool2DInfo& info) override;
  /// dy / count as a channel row, added to every in-bounds tap in (oy, ox)
  /// order: bitwise RefBackend's.
  DataId avgPoolBackprop(const TensorSpec& dy,
                         const Pool2DInfo& info) override;

  /// sum and mean: four accumulators split by middle index mod 4, as row
  /// sums when inner is 1 and per lane of a column vector otherwise, the
  /// same chain either way; the other ops are RefBackend's.
  DataId reduce(ReduceOp op, const TensorSpec& x, std::size_t outer,
                std::size_t n, std::size_t inner) override;

  /// Single-matrix GEMM C[m,n] += A[m,k] * B[k,n], parallelised over row or
  /// column panels on the shared pool; exposed for tests. Each C element is
  /// one multiply-add chain over k ascending, starting from its value in C
  /// (an FMA per step when the target has FMA), so the result is bitwise
  /// independent of blocking, tiling and the thread count
  /// (tests/native_gemm_test.cc holds it to a scalar oracle).
  static void gemm(const float* A, const float* B, float* C, int m, int k,
                   int n);
  /// GEMM with an optional fused epilogue: once an element's chain is
  /// complete, adds bias[j] (when non-null) and applies `act` — fusedEpilogue
  /// (backends/common/elementwise.h), evaluated on the register tile before
  /// its single store (a sigmoid on the stored value).
  static void gemm(const float* A, const float* B, float* C, int m, int k,
                   int n, const float* bias, FusedActivation act);

 private:
  /// im2col over output rows [rBegin, rEnd) of the batch×outH space: writes
  /// each output pixel's [filterH, filterW, inC] patch row to `col`
  /// ((rEnd - rBegin) * outW rows, zeros where a tap falls in the padding),
  /// copying each filter row's in-bounds taps as one run when dilationW is
  /// 1. Shared by the f32 and int8 convolutions.
  static void im2col(const float* x, const Conv2DInfo& ci, std::size_t rBegin,
                     std::size_t rEnd, float* col);

  /// The int8 weight path of matMul and conv2d. When Backend::matMul's
  /// conditions hold: a SIMD int8 GEMM (AVX-512 VNNI / AVX2 / scalar dot
  /// body, chosen at compile time) over fixed chunks of whole MR-row
  /// blocks; each chunk quantizes its rows, then one register-tiled
  /// micro-kernel per MR x 64 output tile runs the full k loop and applies
  /// the epilogue from its accumulators (masked stores past n, shorter
  /// tiles past the last row block). All variants accumulate the same exact
  /// i32 values and apply the reference oracle's epilogue formulas lane by
  /// lane, so results are bit-identical to RefBackend's int8 oracle at any
  /// thread count. Otherwise the weight is dequantized for the f32 kernel.
  DataId int8MatMul(const TensorSpec& a, const TensorSpec& b, bool transposeA,
                    bool transposeB, const TensorSpec* bias,
                    FusedActivation act);
  DataId int8Conv2d(const TensorSpec& x, const TensorSpec& filter,
                    const Conv2DInfo& info, const TensorSpec* bias,
                    FusedActivation act);

  /// Returns the cached panel packing of the [k, n] weight codes stored
  /// under `id`, building it on first use. Weight tensors are Variables the
  /// engine never mutates in place, so an entry stays valid until the
  /// DataId is disposed.
  std::shared_ptr<const PackedQuantWeights> packedWeights(DataId id, int k,
                                                          int n);

  /// Guards qcache_: kernels run on the scheduler thread but disposeData is
  /// called from client threads (and serving sessions share one backend).
  std::mutex qmu_;
  std::unordered_map<DataId, std::shared_ptr<const PackedQuantWeights>>
      qcache_;
};

/// Registers the "native" backend (priority between webgl-sim and cpu).
void registerBackend();

}  // namespace tfjs::backends::native
