#include "backends/cpu/cpu_backend.h"

#include <algorithm>

#include "core/engine.h"

namespace tfjs::backends::cpu {

float ScalarVM::run(const std::vector<Instr>& program, float x, float y) {
  float stack[8];
  int sp = 0;
  for (const Instr& ins : program) {
    switch (ins.code) {
      case Instr::Code::kPushX:
        stack[sp++] = x;
        break;
      case Instr::Code::kPushY:
        stack[sp++] = y;
        break;
      case Instr::Code::kBinary: {
        const float b = stack[--sp];
        const float a = stack[--sp];
        stack[sp++] = applyBinary(ins.bop, a, b);
        break;
      }
      case Instr::Code::kRet:
        return stack[sp - 1];
    }
  }
  return stack[sp - 1];
}

namespace {

std::vector<Instr> binaryProgram(BinaryOp op) {
  return {Instr{Instr::Code::kPushX, op}, Instr{Instr::Code::kPushY, op},
          Instr{Instr::Code::kBinary, op}, Instr{Instr::Code::kRet, op}};
}

const std::vector<Instr>& macProgram() {
  // x * y, accumulated by the caller: the per-MAC interpreted dispatch.
  static const std::vector<Instr> prog = binaryProgram(BinaryOp::kMul);
  return prog;
}

}  // namespace

DataId PlainCpuBackend::matMul(const TensorSpec& a, const TensorSpec& b,
                               bool transposeA, bool transposeB,
                               const TensorSpec* bias, FusedActivation act) {
  if (b.quant != nullptr) {
    return RefBackend::matMul(a, b, transposeA, transposeB, bias, act);
  }
  KernelTimer t(kernelMs_, "cpu.matMul");
  const int bA = a.shape[0], bB = b.shape[0];
  const int m = transposeA ? a.shape[2] : a.shape[1];
  const int k = transposeA ? a.shape[1] : a.shape[2];
  const int n = transposeB ? b.shape[1] : b.shape[2];
  const int batch = std::max(bA, bB);
  const auto& av = buf(a.id);
  const auto& bv = buf(b.id);
  const auto& prog = macProgram();
  std::vector<float> out =
      allocZeroed(static_cast<std::size_t>(batch) * m * n);
  for (int bi = 0; bi < batch; ++bi) {
    const float* A =
        av.data() + static_cast<std::size_t>(bA == 1 ? 0 : bi) * m * k;
    const float* B =
        bv.data() + static_cast<std::size_t>(bB == 1 ? 0 : bi) * k * n;
    float* C = out.data() + static_cast<std::size_t>(bi) * m * n;
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        float acc = 0;
        for (int p = 0; p < k; ++p) {
          const float x = transposeA ? A[p * m + i] : A[i * k + p];
          const float y = transposeB ? B[j * k + p] : B[p * n + j];
          acc += ScalarVM::run(prog, x, y);
        }
        C[static_cast<std::size_t>(i) * n + j] = acc;
      }
    }
  }
  applyEpilogue(out, static_cast<std::size_t>(n), bias, act);
  return store(std::move(out));
}

DataId PlainCpuBackend::conv2d(const TensorSpec& x, const TensorSpec& filter,
                               const Conv2DInfo& ci, const TensorSpec* bias,
                               FusedActivation act) {
  if (filter.quant != nullptr) {
    return RefBackend::conv2d(x, filter, ci, bias, act);
  }
  KernelTimer t(kernelMs_, "cpu.conv2d");
  const auto& xv = buf(x.id);
  const auto& fv = buf(filter.id);
  const auto& prog = macProgram();
  std::vector<float> out = allocZeroed(static_cast<std::size_t>(ci.batch) *
                                       ci.outH * ci.outW * ci.outC);
  for (int b = 0; b < ci.batch; ++b) {
    for (int oy = 0; oy < ci.outH; ++oy) {
      for (int ox = 0; ox < ci.outW; ++ox) {
        for (int oc = 0; oc < ci.outC; ++oc) {
          float acc = 0;
          for (int fy = 0; fy < ci.filterH; ++fy) {
            const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
            if (iy < 0 || iy >= ci.inH) continue;
            for (int fx = 0; fx < ci.filterW; ++fx) {
              const int ix = ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
              if (ix < 0 || ix >= ci.inW) continue;
              for (int ic = 0; ic < ci.inC; ++ic) {
                const float xval =
                    xv[((static_cast<std::size_t>(b) * ci.inH + iy) * ci.inW +
                        ix) *
                           ci.inC +
                       ic];
                const float fval =
                    fv[((static_cast<std::size_t>(fy) * ci.filterW + fx) *
                            ci.inC +
                        ic) *
                           ci.outC +
                       oc];
                acc += ScalarVM::run(prog, xval, fval);
              }
            }
          }
          out[((static_cast<std::size_t>(b) * ci.outH + oy) * ci.outW + ox) *
                  ci.outC +
              oc] = acc;
        }
      }
    }
  }
  applyEpilogue(out, static_cast<std::size_t>(ci.outC), bias, act);
  return store(std::move(out));
}

DataId PlainCpuBackend::depthwiseConv2d(const TensorSpec& x,
                                        const TensorSpec& filter,
                                        const Conv2DInfo& ci,
                                        const TensorSpec* bias,
                                        FusedActivation act) {
  KernelTimer t(kernelMs_, "cpu.depthwiseConv2d");
  const auto& xv = buf(x.id);
  const auto& fv = buf(filter.id);
  const auto& prog = macProgram();
  const int mult = ci.channelMult;
  std::vector<float> out = allocZeroed(static_cast<std::size_t>(ci.batch) *
                                       ci.outH * ci.outW * ci.outC);
  for (int b = 0; b < ci.batch; ++b) {
    for (int oy = 0; oy < ci.outH; ++oy) {
      for (int ox = 0; ox < ci.outW; ++ox) {
        for (int ic = 0; ic < ci.inC; ++ic) {
          for (int q = 0; q < mult; ++q) {
            float acc = 0;
            for (int fy = 0; fy < ci.filterH; ++fy) {
              const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
              if (iy < 0 || iy >= ci.inH) continue;
              for (int fx = 0; fx < ci.filterW; ++fx) {
                const int ix =
                    ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
                if (ix < 0 || ix >= ci.inW) continue;
                const float xval =
                    xv[((static_cast<std::size_t>(b) * ci.inH + iy) * ci.inW +
                        ix) *
                           ci.inC +
                       ic];
                const float fval =
                    fv[((static_cast<std::size_t>(fy) * ci.filterW + fx) *
                            ci.inC +
                        ic) *
                           mult +
                       q];
                acc += ScalarVM::run(prog, xval, fval);
              }
            }
            out[((static_cast<std::size_t>(b) * ci.outH + oy) * ci.outW +
                 ox) *
                    ci.outC +
                ic * mult + q] = acc;
          }
        }
      }
    }
  }
  applyEpilogue(out, static_cast<std::size_t>(ci.outC), bias, act);
  return store(std::move(out));
}

DataId PlainCpuBackend::reduce(ReduceOp op, const TensorSpec& x,
                               std::size_t outer, std::size_t n,
                               std::size_t inner) {
  KernelTimer t(kernelMs_, "cpu.reduce");
  const auto& xv = buf(x.id);
  // Sum-like reductions pay per-element interpreted adds; min/max/any/all
  // reuse the reference path (they are not hot in the paper's workloads).
  if (op != ReduceOp::kSum && op != ReduceOp::kMean) {
    return RefBackend::reduce(op, x, outer, n, inner);
  }
  static const std::vector<Instr> prog = binaryProgram(BinaryOp::kAdd);
  std::vector<float> out = allocBuffer(outer * inner);
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t j = 0; j < inner; ++j) {
      const float* col = xv.data() + o * n * inner + j;
      float acc = 0;
      for (std::size_t i = 0; i < n; ++i) {
        acc = ScalarVM::run(prog, acc, col[i * inner]);
      }
      out[o * inner + j] =
          op == ReduceOp::kMean ? acc / static_cast<float>(n) : acc;
    }
  }
  return store(std::move(out));
}

void registerBackend() {
  Engine::get().registerBackend(
      "cpu", [] { return std::make_unique<PlainCpuBackend>(); },
      /*priority=*/1);
}

}  // namespace tfjs::backends::cpu
