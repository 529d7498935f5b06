// PlainCpuBackend: the analogue of the paper's "plain JS" fallback backend.
//
// The upstream plain-JS backend executes math as interpreted per-element
// loops, ~2 orders of magnitude slower than native code (paper Table 1).
// C++ has no interpreter, so we model that cost mechanism honestly: each
// scalar operation of a hot kernel executes through a small stack-based
// bytecode VM (ScalarVM). The work per element is identical to the reference
// backend — only the dispatch cost differs, exactly the difference between
// interpreted and compiled numeric code.
#pragma once

#include <cstdint>
#include <vector>

#include "backends/common/ref_backend.h"

namespace tfjs::backends::cpu {

/// Bytecode executed once per scalar by the plain backend.
struct Instr {
  enum class Code : std::uint8_t {
    kPushX,      ///< push first operand
    kPushY,      ///< push second operand
    kPushConst,  ///< push imm
    kBinary,     ///< pop two, apply bop, push
    kUnary,      ///< pop one, apply uop(alpha=imm, beta=imm2), push
    kRet,        ///< pop and return
  };
  Code code = Code::kRet;
  BinaryOp bop = BinaryOp::kAdd;
  UnaryOp uop = UnaryOp::kNeg;
  float imm = 0;
  float imm2 = 0;
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

  DataId binary(BinaryOp op, const TensorSpec& a, const TensorSpec& b,
                const Shape& outShape) override;
  DataId unary(UnaryOp op, const TensorSpec& x, float alpha,
               float beta) override;
  // In-place ops (move-consuming overloads) and fused regions run
  // RefBackend's compiled region interpreter, not the ScalarVM: the same
  // scalar formulas, so values match this backend's unary/binary bitwise.
  // matMul/conv2d accumulate through the ScalarVM, then run RefBackend's
  // bias/activation epilogue, keeping fused results bit-identical to this
  // backend's unfused chain.
  DataId matMul(const TensorSpec& a, const TensorSpec& b, bool transposeA,
                bool transposeB, const TensorSpec* bias,
                FusedActivation act) override;
  DataId conv2d(const TensorSpec& x, const TensorSpec& filter,
                const Conv2DInfo& info, const TensorSpec* bias,
                FusedActivation act) override;
  DataId depthwiseConv2d(const TensorSpec& x, const TensorSpec& filter,
                         const Conv2DInfo& info) override;
  DataId reduce(ReduceOp op, const TensorSpec& x, std::size_t outer,
                std::size_t inner) override;
};

/// Registers the "cpu" backend with the engine (lowest priority — the
/// universal fallback, as in the paper).
void registerBackend();

}  // namespace tfjs::backends::cpu
