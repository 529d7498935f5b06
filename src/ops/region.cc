// Elementwise programs: every unary, binary and select op is a
// one-instruction RegionProgram, and the graph executor's fusion pass
// collapses chains/DAGs of them into one kFusedRegion node. Both run
// through elementwiseKernel, a single Backend::fusedRegion call (one
// interpreter loop on ref/cpu, a strip-mined kernel on native, one shader
// on webgl-sim). Each backend applies the exact same scalar formulas per
// element in program order, so fused outputs are bit-identical to the
// unfused chain on the active backend (the bitwise-parity argument is in
// DESIGN.md "Graph capture & optimization").
// The same kernel is the in-place path of every move-consuming op: the
// program runs with dst = the consumed input's buffer (tryRegionInPlace).
#include <array>

#include "core/util.h"
#include "ops/common.h"

namespace tfjs::ops {

using internal::E;

namespace {

/// Throws unless refs are well-formed: every operand names an external
/// input slot or a *prior* instruction.
void validateRegion(const RegionProgram& p, std::size_t numInputs) {
  TFJS_ARG_CHECK(!p.instrs.empty(), "fusedRegion: empty program");
  TFJS_ARG_CHECK(static_cast<std::size_t>(p.numInputs) == numInputs,
                 "fusedRegion: program expects " << p.numInputs
                                                 << " inputs, got "
                                                 << numInputs);
  const auto ok = [&](int r, std::size_t k) {
    return r < 0 ? static_cast<std::size_t>(-1 - r) < numInputs
                 : static_cast<std::size_t>(r) < k;
  };
  for (std::size_t k = 0; k < p.instrs.size(); ++k) {
    const RegionInstr& si = p.instrs[k];
    bool valid = ok(si.a, k);
    if (si.kind != RegionInstr::Kind::kUnary) valid = valid && ok(si.b, k);
    if (si.kind == RegionInstr::Kind::kSelect) valid = valid && ok(si.c, k);
    TFJS_ARG_CHECK(valid, "fusedRegion: bad operand ref in instruction " << k);
  }
}

/// The region's output shape: the terminal instruction's result shape
/// under broadcasting. Computed from the actual feed shapes (not the
/// capture example's), which is what makes replayed regions
/// shape-polymorphic: for pure elementwise programs, evaluating every
/// interior value at the final output's coordinates reproduces the op-by-op
/// chain bit for bit whatever the broadcast pattern.
Shape regionOutShape(const RegionProgram& p, std::span<const Tensor> inputs) {
  std::vector<Shape> shapes(p.instrs.size());
  const auto shapeOf = [&](int r) -> const Shape& {
    return r < 0 ? inputs[static_cast<std::size_t>(-1 - r)].shape()
                 : shapes[static_cast<std::size_t>(r)];
  };
  for (std::size_t k = 0; k < p.instrs.size(); ++k) {
    const RegionInstr& si = p.instrs[k];
    switch (si.kind) {
      case RegionInstr::Kind::kUnary:
        shapes[k] = shapeOf(si.a);
        break;
      case RegionInstr::Kind::kBinary:
        shapes[k] = util::broadcastShapes(shapeOf(si.a), shapeOf(si.b));
        break;
      case RegionInstr::Kind::kSelect:
        shapes[k] = util::broadcastShapes(
            util::broadcastShapes(shapeOf(si.a), shapeOf(si.b)),
            shapeOf(si.c));
        break;
    }
  }
  return shapes.back();
}

}  // namespace

std::vector<double> encodeRegionProgram(const RegionProgram& p) {
  std::vector<double> at;
  at.reserve(2 + p.instrs.size() * 7);
  at.push_back(static_cast<double>(p.numInputs));
  at.push_back(static_cast<double>(p.instrs.size()));
  for (const RegionInstr& si : p.instrs) {
    at.push_back(static_cast<double>(si.kind));
    at.push_back(static_cast<double>(si.op));
    at.push_back(static_cast<double>(si.a));
    at.push_back(static_cast<double>(si.b));
    at.push_back(static_cast<double>(si.c));
    at.push_back(static_cast<double>(si.alpha));
    at.push_back(static_cast<double>(si.beta));
  }
  return at;
}

RegionProgram decodeRegionProgram(std::span<const double> attrs) {
  TFJS_ARG_CHECK(attrs.size() >= 2, "fusedRegion: truncated attrs");
  RegionProgram p;
  p.numInputs = static_cast<int>(attrs[0]);
  const auto numInstrs = static_cast<std::size_t>(attrs[1]);
  TFJS_ARG_CHECK(attrs.size() == 2 + numInstrs * 7,
                 "fusedRegion: attrs length mismatch");
  p.instrs.resize(numInstrs);
  for (std::size_t k = 0; k < numInstrs; ++k) {
    const double* a = attrs.data() + 2 + k * 7;
    RegionInstr& si = p.instrs[k];
    si.kind = static_cast<RegionInstr::Kind>(static_cast<int>(a[0]));
    si.op = static_cast<int>(a[1]);
    si.a = static_cast<int>(a[2]);
    si.b = static_cast<int>(a[3]);
    si.c = static_cast<int>(a[4]);
    si.alpha = static_cast<float>(a[5]);
    si.beta = static_cast<float>(a[6]);
  }
  return p;
}

Tensor fusedRegion(const RegionProgram& program, std::span<const Tensor> inputs,
                   DType outDtype) {
  validateRegion(program, inputs.size());
  internal::CaptureFrame frame;
  Tensor y = internal::elementwiseKernel("fusedRegion", program.instrs, inputs,
                                         regionOutShape(program, inputs),
                                         outDtype);
  if (internal::observing()) {
    const std::vector<double> at = encodeRegionProgram(program);
    internal::observeOp(OpId::kFusedRegion, inputs, y, at);
  }
  return y;
}

Tensor fusedRegion(const RegionProgram& program, Tensor&& first,
                   std::span<const Tensor> rest, DType outDtype) {
  const Tensor arg = std::move(first);
  std::vector<Tensor> all;
  all.reserve(rest.size() + 1);
  all.push_back(arg);
  all.insert(all.end(), rest.begin(), rest.end());
  validateRegion(program, all.size());
  if (Tensor y = internal::tryRegionInPlace(
          "fusedRegion", program.instrs, all, regionOutShape(program, all),
          outDtype);
      y.defined()) {
    return y;
  }
  Tensor y = fusedRegion(program, all, outDtype);
  arg.dispose();
  return y;
}

Tensor internal::elementwiseKernel(const char* name,
                                   std::span<const RegionInstr> program,
                                   std::span<const Tensor> inputs,
                                   const Shape& outShape, DType outDtype,
                                   bool inPlace) {
  KernelScope k(name);
  // Standalone ops have at most three inputs: their specs stay off the heap.
  std::array<TensorSpec, 3> few;
  std::vector<TensorSpec> many;
  if (inputs.size() > few.size()) many.resize(inputs.size());
  const std::span<TensorSpec> specs =
      many.empty() ? std::span<TensorSpec>(few).first(inputs.size())
                   : std::span<TensorSpec>(many);
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    specs[j] = E().prepareInput(inputs[j]);
  }
  const DataId dst = inPlace ? specs[0].id : 0;
  const DataId id = E().backend().fusedRegion(program, specs, outShape, dst);
  if (inPlace && id == dst) {
    Tensor y = E().reuseInputAsOutput(inputs[0], outShape, outDtype);
    k.notify(y);
    return y;
  }
  Tensor y = k.wrap(id, outShape, outDtype);
  // The backend declined the in-place write and allocated (webgl-sim
  // always does: a shader cannot sample the texture it renders to).
  if (inPlace) inputs[0].dispose();
  return y;
}

Tensor internal::tryRegionInPlace(const char* name,
                                  std::span<const RegionInstr> program,
                                  std::span<const Tensor> inputs,
                                  const Shape& outShape, DType outDtype) {
  const Tensor& arg = inputs[0];
  // During capture the allocating path records the op; the in-place path
  // would overwrite an input the recorder may still need to snapshot.
  if (internal::captureDepth == 0 && E().opObserver() != nullptr) return {};
  if (!E().canReuseInput(arg)) return {};
  // canReuseInput() vets only the consumed input; when a tape watches any
  // other input, the allocating op must run to record the pullback.
  if (TapeRecorder* tape = E().tape();
      tape != nullptr && tape->watched(inputs)) {
    return {};
  }
  if (dtypeBytes(outDtype) != dtypeBytes(arg.dtype())) return {};
  if (!(arg.shape() == outShape)) return {};
  return elementwiseKernel(name, program, inputs, outShape, outDtype,
                           /*inPlace=*/true);
}

}  // namespace tfjs::ops
