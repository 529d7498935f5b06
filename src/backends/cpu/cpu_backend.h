// PlainCpuBackend: the analogue of the paper's "plain JS" fallback backend.
//
// The upstream plain-JS backend executes math as interpreted per-element
// loops, ~2 orders of magnitude slower than native code (paper Table 1).
// C++ has no interpreter, so we model that cost mechanism honestly: each
// multiply-accumulate of the hot kernels (matMul, conv2d, depthwise, sum)
// executes through a small stack-based bytecode VM (ScalarVM). The work per
// element is identical to the reference backend — only the dispatch cost
// differs, exactly the difference between interpreted and compiled numeric
// code.
#pragma once

#include <cstdint>
#include <vector>

#include "backends/common/ref_backend.h"

namespace tfjs::backends::cpu {

/// Bytecode executed once per scalar by the plain backend.
struct Instr {
  enum class Code : std::uint8_t {
    kPushX,   ///< push first operand
    kPushY,   ///< push second operand
    kBinary,  ///< pop two, apply bop, push
    kRet,     ///< pop and return
  };
  Code code = Code::kRet;
  BinaryOp bop = BinaryOp::kAdd;
};

/// Interprets a scalar program. Deliberately not inlined so every element
/// pays a real dispatch cost, like an interpreter would.
class ScalarVM {
 public:
  [[gnu::noinline]] static float run(const std::vector<Instr>& program,
                                     float x, float y);
};

class PlainCpuBackend : public RefBackend {
 public:
  std::string name() const override { return "cpu"; }

  // Elementwise ops (standalone, in place and fused) run RefBackend's
  // region interpreter: compiled scalar formulas, not the ScalarVM.
  // matMul/conv2d/depthwiseConv2d accumulate through the ScalarVM, then run
  // RefBackend's bias/activation epilogue, keeping fused results
  // bit-identical to this backend's unfused chain. An int8 weight goes to
  // RefBackend's int8 oracle, whose fallback dequantizes and comes back here.
  DataId matMul(const TensorSpec& a, const TensorSpec& b, bool transposeA,
                bool transposeB, const TensorSpec* bias,
                FusedActivation act) override;
  DataId conv2d(const TensorSpec& x, const TensorSpec& filter,
                const Conv2DInfo& info, const TensorSpec* bias,
                FusedActivation act) override;
  DataId depthwiseConv2d(const TensorSpec& x, const TensorSpec& filter,
                         const Conv2DInfo& info, const TensorSpec* bias,
                         FusedActivation act) override;
  DataId reduce(ReduceOp op, const TensorSpec& x, std::size_t outer,
                std::size_t n, std::size_t inner) override;
};

/// Registers the "cpu" backend with the engine (lowest priority — the
/// universal fallback, as in the paper).
void registerBackend();

}  // namespace tfjs::backends::cpu
