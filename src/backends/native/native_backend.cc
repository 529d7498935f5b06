#include "backends/native/native_backend.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/buffer_pool.h"
#include "core/engine.h"
#include "core/thread_pool.h"
#include "core/util.h"

namespace tfjs::backends::native {

namespace {
using core::ThreadPool;

// Cache-blocking parameters: the k×n panel of B (kKC*kNC floats) fits in L2;
// the m×k panel of A (kMC*kKC) in L1-adjacent space. They double as the
// parallel grain: one GEMM chunk is a kMC-row (or kNC-column) panel, so each
// worker keeps the original blocked loop structure.
constexpr int kMC = 64;
constexpr int kKC = 256;
constexpr int kNC = 512;

/// Elementwise parallel grain: 32K floats (128 KB) per chunk amortizes
/// dispatch while still splitting the 16M-element benchmark ~500 ways.
constexpr std::size_t kElemGrain = std::size_t{1} << 15;

/// Fixed grain for row-sliced spatial kernels (conv/pool/depthwise/reduce):
/// enough rows that one chunk touches ~`target` scalars. Depends only on
/// the problem shape, never the thread count — chunk boundaries (and thus
/// results) are identical at any parallelism.
std::size_t rowsPerChunk(std::size_t scalarsPerRow, std::size_t target) {
  return std::max<std::size_t>(1, target / std::max<std::size_t>(1,
                                                                 scalarsPerRow));
}

/// The blocked GEMM core restricted to rows [rowBegin, rowEnd) and columns
/// [colBegin, colEnd) of C. For every C element the accumulation over p runs
/// ascending regardless of how the row/column space is partitioned, so any
/// tiling of disjoint tiles is bit-identical to the full serial sweep.
///
/// When `bias`/`act` request a fused epilogue it runs per column panel right
/// after the k loop finishes — every C element in the panel is fully
/// accumulated and still cache-hot. The scalar math is applyBinary(kAdd) /
/// applyUnary of the matching activation, so the fused result is bitwise the
/// unfused matMul + add + activation chain.
void gemmTile(const float* A, const float* B, float* C, int k, int n,
              int rowBegin, int rowEnd, int colBegin, int colEnd,
              const float* bias = nullptr,
              FusedActivation act = FusedActivation::kNone) {
  for (int j0 = colBegin; j0 < colEnd; j0 += kNC) {
    const int jMax = std::min(j0 + kNC, colEnd);
    for (int p0 = 0; p0 < k; p0 += kKC) {
      const int pMax = std::min(p0 + kKC, k);
      for (int i0 = rowBegin; i0 < rowEnd; i0 += kMC) {
        const int iMax = std::min(i0 + kMC, rowEnd);
        for (int i = i0; i < iMax; ++i) {
          float* __restrict Crow = C + static_cast<std::size_t>(i) * n;
          for (int p = p0; p < pMax; ++p) {
            const float aval = A[static_cast<std::size_t>(i) * k + p];
            const float* __restrict Brow =
                B + static_cast<std::size_t>(p) * n;
            // Inner loop over j autovectorizes to AVX fma.
            for (int j = j0; j < jMax; ++j) {
              Crow[j] += aval * Brow[j];
            }
          }
        }
      }
    }
    if (bias != nullptr || act != FusedActivation::kNone) {
      for (int i = rowBegin; i < rowEnd; ++i) {
        float* __restrict Crow = C + static_cast<std::size_t>(i) * n;
        for (int j = j0; j < jMax; ++j) {
          float v = Crow[j];
          if (bias != nullptr) v += bias[j];
          Crow[j] = applyFusedActivation(act, v);
        }
      }
    }
  }
}
}  // namespace

void NativeBackend::gemm(const float* A, const float* B, float* C, int m,
                         int k, int n, const float* bias,
                         FusedActivation act) {
  // Split along whichever axis yields more panels: row panels of kMC for
  // tall/square C, column panels of kNC when C is short and wide (e.g. the
  // [spatial, outC] GEMM of a 1x1 conv on a small image).
  const std::size_t rowPanels = (static_cast<std::size_t>(m) + kMC - 1) / kMC;
  const std::size_t colPanels = (static_cast<std::size_t>(n) + kNC - 1) / kNC;
  if (rowPanels >= colPanels) {
    ThreadPool::get().parallelFor(
        static_cast<std::size_t>(m), kMC,
        [&](std::size_t begin, std::size_t end) {
          gemmTile(A, B, C, k, n, static_cast<int>(begin),
                   static_cast<int>(end), 0, n, bias, act);
        });
  } else {
    ThreadPool::get().parallelFor(
        static_cast<std::size_t>(n), kNC,
        [&](std::size_t begin, std::size_t end) {
          gemmTile(A, B, C, k, n, 0, m, static_cast<int>(begin),
                   static_cast<int>(end), bias, act);
        });
  }
}

void NativeBackend::gemm(const float* A, const float* B, float* C, int m,
                         int k, int n) {
  gemm(A, B, C, m, k, n, nullptr, FusedActivation::kNone);
}

DataId NativeBackend::unary(UnaryOp op, const TensorSpec& x, float alpha,
                            float beta) {
  KernelTimer t(kernelMs_, "native.unary");
  const RegionInstr instr{.kind = RegionInstr::Kind::kUnary,
                          .op = static_cast<int>(op),
                          .a = -1,
                          .alpha = alpha,
                          .beta = beta};
  const TensorSpec* ins[] = {&x};
  return runRegion({&instr, 1}, ins, x.shape, 0);
}

DataId NativeBackend::binary(BinaryOp op, const TensorSpec& a,
                             const TensorSpec& b, const Shape& outShape) {
  KernelTimer t(kernelMs_, "native.binary");
  const RegionInstr instr{.kind = RegionInstr::Kind::kBinary,
                          .op = static_cast<int>(op),
                          .a = -1,
                          .b = -2};
  const TensorSpec* ins[] = {&a, &b};
  return runRegion({&instr, 1}, ins, outShape, 0);
}

DataId NativeBackend::fusedRegion(const RegionProgram& program,
                                  std::span<const TensorSpec> inputs,
                                  const Shape& outShape, DataId dst) {
  if (program.instrs.empty() ||
      inputs.size() != static_cast<std::size_t>(program.numInputs)) {
    throw BackendError("fusedRegion: malformed program");
  }
  KernelTimer t(kernelMs_, "native.fusedRegion");
  std::vector<const TensorSpec*> ins(inputs.size());
  for (std::size_t j = 0; j < inputs.size(); ++j) ins[j] = &inputs[j];
  return runRegion(program.instrs, ins, outShape, dst);
}

DataId NativeBackend::runRegion(std::span<const RegionInstr> instrs,
                                std::span<const TensorSpec* const> inputs,
                                const Shape& outShape, DataId dst) {
  const std::size_t n = outShape.size();
  struct In {
    const float* p;
    std::size_t span;
    RegionAccess mode;
    const Shape* shape;
  };
  std::vector<In> ins(inputs.size());
  bool anyGeneric = false;
  int dstMatches = 0;
  bool dstDense = false;
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    const TensorSpec& s = *inputs[j];
    const auto& v = buf(s.id);
    ins[j] = {v.data(), v.size(), classifyRegionInput(s.shape, outShape),
              &s.shape};
    anyGeneric |= ins[j].mode == RegionAccess::kGeneric;
    if (dst != 0 && s.id == dst) {
      ++dstMatches;
      dstDense = ins[j].mode == RegionAccess::kDense;
    }
  }
  // Same in-place guard as the reference kernel: dst must alias exactly one
  // input, and that input must be dense (each block then only overwrites
  // indices it has already read).
  const bool inPlace = dstMatches == 1 && dstDense;
  std::vector<float> fresh;
  float* o = nullptr;
  if (inPlace) {
    o = mutableBuf(dst).data();
  } else {
    fresh = allocBuffer(n);
    o = fresh.data();
  }

  // Strip-mined interpretation: each block resolves every input to a row
  // pointer (dense inputs, and long suffixes within one repeat, alias
  // backing storage directly — zero copies), then every instruction runs
  // as a dense loop over the block, non-terminal results landing in
  // L1-resident scratch rows and the terminal storing straight into the
  // output. Per-element op order is the program order either way, so
  // blocking (and the fixed parallel partition) cannot change a single bit.
  constexpr std::size_t kBlock = 512;
  const std::size_t numInstrs = instrs.size();
  const std::size_t numIns = inputs.size();
  // A lone instruction over dense inputs (the common standalone unary or
  // binary) needs no scratch rows, so each chunk runs as one long block.
  const bool allDense = std::all_of(ins.begin(), ins.end(), [](const In& in) {
    return in.mode == RegionAccess::kDense;
  });
  const std::size_t block = numInstrs == 1 && allDense ? kElemGrain : kBlock;
  ThreadPool::get().parallelFor(
      n, kElemGrain, [&](std::size_t begin, std::size_t end) {
        // Reused per-thread scratch: a two-block row per input (room for a
        // replicated suffix row) plus one block per non-terminal
        // instruction. resize() only pays on first growth, not per chunk.
        static thread_local std::vector<float> scratch;
        static thread_local std::vector<const float*> rowPtr;
        const std::size_t need = (2 * numIns + numInstrs) * kBlock;
        if (scratch.size() < need) scratch.resize(need);
        if (rowPtr.size() < numIns) rowPtr.resize(numIns);
        float* inRows = scratch.data();
        float* valRows = scratch.data() + 2 * numIns * kBlock;
        std::vector<int> coords(
            anyGeneric ? static_cast<std::size_t>(outShape.rank()) : 0);
        // Once per chunk: a scalar fills one row, and a suffix no longer
        // than a block is replicated span by span into a row of
        // `rowLen + span` floats, so every block below just points at
        // `row + b0 % span` instead of re-filling a wrapped copy.
        const std::size_t rowLen = std::min(kBlock, end - begin);
        for (std::size_t j = 0; j < numIns; ++j) {
          const In& in = ins[j];
          float* r = inRows + 2 * j * kBlock;
          if (in.mode == RegionAccess::kScalar) {
            std::fill(r, r + rowLen, in.p[0]);
            rowPtr[j] = r;
          } else if (in.mode == RegionAccess::kSuffix && in.span <= kBlock) {
            const std::size_t len = rowLen + in.span;
            for (std::size_t i = 0; i < len; i += in.span) {
              std::copy_n(in.p, std::min(in.span, len - i), r + i);
            }
          }
        }
        for (std::size_t b0 = begin; b0 < end; b0 += block) {
          const std::size_t c = std::min(block, end - b0);
          for (std::size_t j = 0; j < numIns; ++j) {
            const In& in = ins[j];
            float* r = inRows + 2 * j * kBlock;
            switch (in.mode) {
              case RegionAccess::kDense:
                rowPtr[j] = in.p + b0;
                break;
              case RegionAccess::kScalar:
                break;  // prefilled above
              case RegionAccess::kSuffix: {
                const std::size_t off = b0 % in.span;
                if (in.span <= kBlock) {
                  rowPtr[j] = r + off;  // into the replicated row
                } else if (off + c <= in.span) {
                  rowPtr[j] = in.p + off;  // block within one repeat
                } else {
                  // A span longer than the block wraps at most once.
                  const std::size_t head = in.span - off;
                  std::copy_n(in.p + off, head, r);
                  std::copy_n(in.p, c - head, r + head);
                  rowPtr[j] = r;
                }
                break;
              }
              case RegionAccess::kGeneric:
                for (std::size_t i = 0; i < c; ++i) {
                  util::unravelIndex(b0 + i, outShape, coords);
                  r[i] = in.p[util::broadcastIndex(coords, *in.shape,
                                                   outShape)];
                }
                rowPtr[j] = r;
                break;
            }
          }
          const auto row = [&](int r) {
            return r < 0 ? rowPtr[static_cast<std::size_t>(-1 - r)]
                         : static_cast<const float*>(
                               valRows + static_cast<std::size_t>(r) * kBlock);
          };
          for (std::size_t k = 0; k < numInstrs; ++k) {
            const RegionInstr& si = instrs[k];
            const float* A = row(si.a);
            // The terminal (nothing ever references it) stores straight to
            // the output; everything else lands in its scratch row.
            float* R = k + 1 == numInstrs ? o + b0 : valRows + k * kBlock;
            switch (si.kind) {
              case RegionInstr::Kind::kUnary: {
                const auto op = static_cast<UnaryOp>(si.op);
                // Autovectorized forms of the hottest ops; the formulas are
                // exactly applyUnary's.
                switch (op) {
                  case UnaryOp::kRelu:
                    for (std::size_t i = 0; i < c; ++i) {
                      R[i] = A[i] > 0 ? A[i] : 0;
                    }
                    break;
                  case UnaryOp::kRelu6:
                    for (std::size_t i = 0; i < c; ++i) {
                      R[i] = std::min(std::max(A[i], 0.f), 6.f);
                    }
                    break;
                  case UnaryOp::kNeg:
                    for (std::size_t i = 0; i < c; ++i) R[i] = -A[i];
                    break;
                  case UnaryOp::kSquare:
                    for (std::size_t i = 0; i < c; ++i) R[i] = A[i] * A[i];
                    break;
                  case UnaryOp::kAddScalar:
                    for (std::size_t i = 0; i < c; ++i) R[i] = A[i] + si.alpha;
                    break;
                  case UnaryOp::kMulScalar:
                    for (std::size_t i = 0; i < c; ++i) R[i] = A[i] * si.alpha;
                    break;
                  case UnaryOp::kLeakyRelu:
                    for (std::size_t i = 0; i < c; ++i) {
                      R[i] = A[i] >= 0 ? A[i] : si.alpha * A[i];
                    }
                    break;
                  case UnaryOp::kClipByValue:
                    for (std::size_t i = 0; i < c; ++i) {
                      R[i] = std::min(std::max(A[i], si.alpha), si.beta);
                    }
                    break;
                  default:
                    for (std::size_t i = 0; i < c; ++i) {
                      R[i] = applyUnary(op, A[i], si.alpha, si.beta);
                    }
                }
                break;
              }
              case RegionInstr::Kind::kBinary: {
                const auto op = static_cast<BinaryOp>(si.op);
                const float* B = row(si.b);
                // Same for the four arithmetic ops (applyBinary's formulas).
                switch (op) {
                  case BinaryOp::kAdd:
                    for (std::size_t i = 0; i < c; ++i) R[i] = A[i] + B[i];
                    break;
                  case BinaryOp::kSub:
                    for (std::size_t i = 0; i < c; ++i) R[i] = A[i] - B[i];
                    break;
                  case BinaryOp::kMul:
                    for (std::size_t i = 0; i < c; ++i) R[i] = A[i] * B[i];
                    break;
                  case BinaryOp::kDiv:
                    for (std::size_t i = 0; i < c; ++i) R[i] = A[i] / B[i];
                    break;
                  default:
                    for (std::size_t i = 0; i < c; ++i) {
                      R[i] = applyBinary(op, A[i], B[i]);
                    }
                }
                break;
              }
              case RegionInstr::Kind::kSelect: {
                const float* B = row(si.b);
                const float* C = row(si.c);
                for (std::size_t i = 0; i < c; ++i) {
                  R[i] = A[i] != 0 ? B[i] : C[i];
                }
                break;
              }
            }
          }
        }
      });
  return inPlace ? dst : store(std::move(fresh));
}

DataId NativeBackend::matMul(const TensorSpec& a, const TensorSpec& b,
                             bool transposeA, bool transposeB) {
  KernelTimer t(kernelMs_, "native.matMul");
  return matMulImpl(a, b, transposeA, transposeB, nullptr,
                    FusedActivation::kNone);
}

DataId NativeBackend::fusedMatMul(const TensorSpec& a, const TensorSpec& b,
                                  bool transposeA, bool transposeB,
                                  const TensorSpec* bias,
                                  FusedActivation act) {
  KernelTimer t(kernelMs_, "native.fusedMatMul");
  const float* bv = bias != nullptr ? buf(bias->id).data() : nullptr;
  return matMulImpl(a, b, transposeA, transposeB, bv, act);
}

DataId NativeBackend::matMulImpl(const TensorSpec& a, const TensorSpec& b,
                                 bool transposeA, bool transposeB,
                                 const float* bias, FusedActivation act) {
  const int bA = a.shape[0], bB = b.shape[0];
  const int m = transposeA ? a.shape[2] : a.shape[1];
  const int k = transposeA ? a.shape[1] : a.shape[2];
  const int n = transposeB ? b.shape[1] : b.shape[2];
  const int batch = std::max(bA, bB);
  const auto& av = buf(a.id);
  const auto& bv = buf(b.id);
  std::vector<float> out =
      allocZeroed(static_cast<std::size_t>(batch) * m * n);

  // Materialize transposed operands once so the GEMM core runs on
  // contiguous row-major panels (what a native BLAS would do when packing).
  // The batch loop stays serial; each per-batch GEMM fans out on the pool.
  std::vector<float> aT, bT;
  for (int bi = 0; bi < batch; ++bi) {
    const float* A =
        av.data() + static_cast<std::size_t>(bA == 1 ? 0 : bi) * m * k;
    const float* B =
        bv.data() + static_cast<std::size_t>(bB == 1 ? 0 : bi) * k * n;
    if (transposeA) {
      aT.resize(static_cast<std::size_t>(m) * k);
      for (int p = 0; p < k; ++p) {
        for (int i = 0; i < m; ++i) {
          aT[static_cast<std::size_t>(i) * k + p] =
              A[static_cast<std::size_t>(p) * m + i];
        }
      }
      A = aT.data();
    }
    if (transposeB) {
      bT.resize(static_cast<std::size_t>(k) * n);
      for (int j = 0; j < n; ++j) {
        for (int p = 0; p < k; ++p) {
          bT[static_cast<std::size_t>(p) * n + j] =
              B[static_cast<std::size_t>(j) * k + p];
        }
      }
      B = bT.data();
    }
    gemm(A, B, out.data() + static_cast<std::size_t>(bi) * m * n, m, k, n,
         bias, act);
  }
  return store(std::move(out));
}

DataId NativeBackend::conv2d(const TensorSpec& x, const TensorSpec& filter,
                             const Conv2DInfo& ci) {
  KernelTimer t(kernelMs_, "native.conv2d");
  return conv2dImpl(x, filter, ci, nullptr, FusedActivation::kNone);
}

DataId NativeBackend::fusedConv2d(const TensorSpec& x,
                                  const TensorSpec& filter,
                                  const Conv2DInfo& ci, const TensorSpec* bias,
                                  FusedActivation act) {
  KernelTimer t(kernelMs_, "native.fusedConv2d");
  const float* bv = bias != nullptr ? buf(bias->id).data() : nullptr;
  return conv2dImpl(x, filter, ci, bv, act);
}

DataId NativeBackend::conv2dImpl(const TensorSpec& x, const TensorSpec& filter,
                                 const Conv2DInfo& ci, const float* bias,
                                 FusedActivation act) {
  const auto& xv = buf(x.id);
  const auto& fv = buf(filter.id);
  const std::size_t outSpatial =
      static_cast<std::size_t>(ci.outH) * ci.outW;
  const std::size_t patch =
      static_cast<std::size_t>(ci.filterH) * ci.filterW * ci.inC;
  std::vector<float> out = allocZeroed(static_cast<std::size_t>(ci.batch) *
                                       outSpatial * ci.outC);

  if (ci.filterH == 1 && ci.filterW == 1 && ci.strideH == 1 &&
      ci.strideW == 1 && ci.padTop == 0 && ci.padLeft == 0) {
    // 1x1 convolution IS a GEMM over [spatial, inC] x [inC, outC] — the
    // dominant op in MobileNet. Input and output are contiguous across the
    // batch, so all batches fold into one [batch*spatial, inC] GEMM whose
    // row panels parallelise across the pool.
    gemm(xv.data(), fv.data(), out.data(),
         static_cast<int>(static_cast<std::size_t>(ci.batch) * outSpatial),
         ci.inC, ci.outC, bias, act);
    return store(std::move(out));
  }

  // General path: im2col + GEMM, sliced over the batch×outH row space. Each
  // chunk packs its own rows into a private col buffer and runs the GEMM
  // core on them (nested parallelFor runs inline on the worker). Per-element
  // accumulation order matches the serial im2col+GEMM exactly.
  const std::size_t totalRows = static_cast<std::size_t>(ci.batch) * ci.outH;
  const std::size_t grain =
      rowsPerChunk(static_cast<std::size_t>(ci.outW) * patch, 1 << 16);
  ThreadPool::get().parallelFor(
      totalRows, grain, [&](std::size_t rBegin, std::size_t rEnd) {
        // Per-chunk im2col scratch comes from the pool too (it is by far
        // the heaviest transient allocation in a conv-heavy model).
        std::vector<float> col = core::BufferPool::get().acquireFilled(
            (rEnd - rBegin) * ci.outW * patch, 0.f);
        for (std::size_t r = rBegin; r < rEnd; ++r) {
          const int b = static_cast<int>(r) / ci.outH;
          const int oy = static_cast<int>(r) % ci.outH;
          float* colRow = col.data() + (r - rBegin) * ci.outW * patch;
          for (int ox = 0; ox < ci.outW; ++ox) {
            float* dst = colRow + static_cast<std::size_t>(ox) * patch;
            for (int fy = 0; fy < ci.filterH; ++fy) {
              const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
              if (iy < 0 || iy >= ci.inH) continue;
              for (int fx = 0; fx < ci.filterW; ++fx) {
                const int ix =
                    ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
                if (ix < 0 || ix >= ci.inW) continue;
                std::memcpy(
                    dst + (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                              ci.inC,
                    xv.data() + ((static_cast<std::size_t>(b) * ci.inH + iy) *
                                     ci.inW +
                                 ix) *
                                    ci.inC,
                    static_cast<std::size_t>(ci.inC) * sizeof(float));
              }
            }
          }
        }
        gemm(col.data(), fv.data(),
             out.data() + rBegin * ci.outW * ci.outC,
             static_cast<int>((rEnd - rBegin) * ci.outW),
             static_cast<int>(patch), ci.outC, bias, act);
        core::BufferPool::get().release(std::move(col));
      });
  return store(std::move(out));
}

DataId NativeBackend::depthwiseConv2d(const TensorSpec& x,
                                      const TensorSpec& filter,
                                      const Conv2DInfo& ci) {
  KernelTimer t(kernelMs_, "native.depthwiseConv2d");
  const auto& xv = buf(x.id);
  const auto& fv = buf(filter.id);
  const int mult = ci.channelMult;
  std::vector<float> out = allocZeroed(static_cast<std::size_t>(ci.batch) *
                                       ci.outH * ci.outW * ci.outC);
  // Sliced over batch×outH output rows; channel-inner loops are contiguous
  // in NHWC, so they autovectorize within each chunk.
  const std::size_t totalRows = static_cast<std::size_t>(ci.batch) * ci.outH;
  const std::size_t grain = rowsPerChunk(
      static_cast<std::size_t>(ci.outW) * ci.filterH * ci.filterW * ci.inC *
          mult,
      1 << 14);
  ThreadPool::get().parallelFor(
      totalRows, grain, [&](std::size_t rBegin, std::size_t rEnd) {
        for (std::size_t r = rBegin; r < rEnd; ++r) {
          const int b = static_cast<int>(r) / ci.outH;
          const int oy = static_cast<int>(r) % ci.outH;
          for (int ox = 0; ox < ci.outW; ++ox) {
            float* __restrict oRow =
                out.data() + (r * ci.outW + ox) * ci.outC;
            for (int fy = 0; fy < ci.filterH; ++fy) {
              const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
              if (iy < 0 || iy >= ci.inH) continue;
              for (int fx = 0; fx < ci.filterW; ++fx) {
                const int ix =
                    ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
                if (ix < 0 || ix >= ci.inW) continue;
                const float* __restrict xRow =
                    xv.data() + ((static_cast<std::size_t>(b) * ci.inH + iy) *
                                     ci.inW +
                                 ix) *
                                    ci.inC;
                const float* __restrict fRow =
                    fv.data() +
                    (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                        ci.inC * mult;
                if (mult == 1) {
                  for (int ic = 0; ic < ci.inC; ++ic) {
                    oRow[ic] += xRow[ic] * fRow[ic];
                  }
                } else {
                  for (int ic = 0; ic < ci.inC; ++ic) {
                    for (int q = 0; q < mult; ++q) {
                      oRow[ic * mult + q] += xRow[ic] * fRow[ic * mult + q];
                    }
                  }
                }
              }
            }
          }
        }
      });
  return store(std::move(out));
}

DataId NativeBackend::pool2d(PoolMode mode, const TensorSpec& x,
                             const Pool2DInfo& pi) {
  KernelTimer t(kernelMs_, "native.pool2d");
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const auto& xv = buf(x.id);
  std::vector<float> out = allocBuffer(static_cast<std::size_t>(pi.batch) *
                                       pi.outH * pi.outW * pi.channels);
  // Per-window logic matches RefBackend::pool2d element-for-element; only
  // the batch×outH outer space is sliced across the pool.
  const std::size_t totalRows = static_cast<std::size_t>(pi.batch) * pi.outH;
  const std::size_t grain = rowsPerChunk(
      static_cast<std::size_t>(pi.outW) * pi.channels * pi.filterH *
          pi.filterW,
      1 << 14);
  ThreadPool::get().parallelFor(
      totalRows, grain, [&](std::size_t rBegin, std::size_t rEnd) {
        for (std::size_t r = rBegin; r < rEnd; ++r) {
          const int b = static_cast<int>(r) / pi.outH;
          const int oy = static_cast<int>(r) % pi.outH;
          for (int ox = 0; ox < pi.outW; ++ox) {
            for (int c = 0; c < pi.channels; ++c) {
              float acc = mode == PoolMode::kMax ? -kInf : 0.f;
              int count = 0;
              for (int fy = 0; fy < pi.filterH; ++fy) {
                const int iy = oy * pi.strideH - pi.padTop + fy;
                if (iy < 0 || iy >= pi.inH) continue;
                for (int fx = 0; fx < pi.filterW; ++fx) {
                  const int ix = ox * pi.strideW - pi.padLeft + fx;
                  if (ix < 0 || ix >= pi.inW) continue;
                  const float v =
                      xv[((static_cast<std::size_t>(b) * pi.inH + iy) *
                              pi.inW +
                          ix) *
                             pi.channels +
                         c];
                  if (mode == PoolMode::kMax) {
                    acc = std::max(acc, v);
                  } else {
                    acc += v;
                  }
                  ++count;
                }
              }
              out[(r * pi.outW + ox) * pi.channels + c] =
                  mode == PoolMode::kMax ? acc : acc / std::max(count, 1);
            }
          }
        }
      });
  return store(std::move(out));
}

DataId NativeBackend::reduce(ReduceOp op, const TensorSpec& x,
                             std::size_t outer, std::size_t inner) {
  KernelTimer t(kernelMs_, "native.reduce");
  if (op != ReduceOp::kSum && op != ReduceOp::kMean) {
    return RefBackend::reduce(op, x, outer, inner);
  }
  const auto& xv = buf(x.id);
  std::vector<float> out = allocBuffer(outer);
  // Parallel over output rows only; each row's accumulation stays serial
  // (4-way split), so the parallel result is bit-identical to 1 thread.
  ThreadPool::get().parallelFor(
      outer, rowsPerChunk(inner, 1 << 14),
      [&](std::size_t oBegin, std::size_t oEnd) {
        for (std::size_t o = oBegin; o < oEnd; ++o) {
          const float* __restrict row = xv.data() + o * inner;
          // Four parallel accumulators break the dependency chain for SIMD.
          float acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
          std::size_t i = 0;
          for (; i + 4 <= inner; i += 4) {
            acc0 += row[i];
            acc1 += row[i + 1];
            acc2 += row[i + 2];
            acc3 += row[i + 3];
          }
          float acc = acc0 + acc1 + acc2 + acc3;
          for (; i < inner; ++i) acc += row[i];
          out[o] =
              op == ReduceOp::kMean ? acc / static_cast<float>(inner) : acc;
        }
      });
  return store(std::move(out));
}

void registerBackend() {
  Engine::get().registerBackend(
      "native", [] { return std::make_unique<NativeBackend>(); },
      /*priority=*/2);
}

}  // namespace tfjs::backends::native
