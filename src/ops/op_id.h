// Stable op identities for the graph IR (DESIGN.md "Graph capture &
// optimization"). Every public op the capture recorder understands maps to
// one OpId; elementwise families reuse the backend's BinaryOp/UnaryOp/
// ReduceOp/ArgOp codes as attributes instead of minting one id per op, so
// the IR vocabulary stays small and the backend enums remain the single
// source of kernel identity.
//
// The numeric values are serialized into IR dumps and golden tests:
// append new ids at the end, never renumber.
//
// Attribute conventions (Node::attrs, doubles):
//   kUnary        {UnaryOp code, alpha, beta, out DType code}
//   kBinary       {BinaryOp code, out DType code}
//   kSelect       {}                                  inputs: cond, a, b
//   kMatMul       {tA, tB, act, hasBias}              inputs: a, b[, bias]
//   kConv2d       {sH, sW, pad, dH, dW, act, hasBias} inputs: x, f[, bias]
//   kDepthwiseConv2d {sH, sW, pad, dH, dW, act, hasBias}
//                                                     inputs: x, f[, bias]
//                 The producer nodes: act is the FusedActivation epilogue,
//                 hasBias says whether the bias input is present. An int8
//                 weight input replays through the same kernel, which
//                 takes its int8 path as eager does. Ids 7, 8, 10, 11 and 26 (the former
//                 fused and quantized twins) are retired; never reuse them.
//   kPool         {PoolMode code, kH, kW, sH, sW, pad}
//   kReduce       {ReduceOp code, keepDims, out DType code, axes...}
//   kArg          {ArgOp code, axis}
//   kSoftmax / kLogSoftmax {axis}
//   kTranspose    {perm...}
//   kConcat       {axis}                              inputs: variadic
//   kSlice        {begin..., size...}  (rank entries each)
//   kPad          {value, before0, after0, before1, after1, ...}
//   kAlias        {[kind]}      + Node::shapeAttr / outDtype. kind (default
//                                 0): 0 = view shapeAttr + cast to outDtype
//                                 (capture); 1 = squeeze; 2 = identity;
//                                 3 = view shapeAttr with -1 inference
//                                 (io import; kinds 1-3 keep input dtype)
//   kCast         {out DType code}
//   kQuantize     {scale, zeroPoint}
//   kDequantize   {}
//   kFusedRegion  {numInputs, numInstrs, then per instruction
//                  {kind, opcode, a, b, c, alpha, beta}} — the encoded
//                  RegionProgram of a fused elementwise region (see
//                  graph/passes.h encode/decodeRegionProgram). Operand
//                  refs a/b/c: < 0 → external input slot (-1 - ref);
//                  >= 0 → prior instruction index. inputs: variadic
#pragma once

namespace tfjs::ops {

enum class OpId : int {
  kInput = 0,   ///< graph placeholder (capture example input / feed)
  kConst = 1,   ///< constant-table entry (captured closure tensor / weight)
  kAlias = 2,   ///< metadata-only view: reshape / clone / widening cast
  kUnary = 3,
  kBinary = 4,
  kSelect = 5,
  kMatMul = 6,
  kConv2d = 9,
  kDepthwiseConv2d = 12,
  kPool = 13,
  kReduce = 14,
  kArg = 15,
  kSoftmax = 16,
  kLogSoftmax = 17,
  kTranspose = 18,
  kConcat = 19,
  kSlice = 20,
  kPad = 21,
  kCast = 22,
  kQuantize = 23,
  kDequantize = 24,
  kFusedRegion = 25,  ///< compiled elementwise region (single-pass loop)
};

/// Stable lowercase name, used by Graph::toString() golden dumps.
inline const char* opIdName(OpId id) {
  switch (id) {
    case OpId::kInput: return "input";
    case OpId::kConst: return "const";
    case OpId::kAlias: return "alias";
    case OpId::kUnary: return "unary";
    case OpId::kBinary: return "binary";
    case OpId::kSelect: return "select";
    case OpId::kMatMul: return "matMul";
    case OpId::kConv2d: return "conv2d";
    case OpId::kDepthwiseConv2d: return "depthwiseConv2d";
    case OpId::kPool: return "pool";
    case OpId::kReduce: return "reduce";
    case OpId::kArg: return "arg";
    case OpId::kSoftmax: return "softmax";
    case OpId::kLogSoftmax: return "logSoftmax";
    case OpId::kTranspose: return "transpose";
    case OpId::kConcat: return "concat";
    case OpId::kSlice: return "slice";
    case OpId::kPad: return "pad";
    case OpId::kCast: return "cast";
    case OpId::kQuantize: return "quantize";
    case OpId::kDequantize: return "dequantize";
    case OpId::kFusedRegion: return "fusedRegion";
  }
  return "?";
}

}  // namespace tfjs::ops
