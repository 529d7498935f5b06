#include "backends/webgl/webgl_backend.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "backends/common/ref_backend.h"  // applyBinary/applyUnary semantics
#include "backends/webgl/tex_util.h"
#include "core/engine.h"
#include "core/util.h"

namespace tfjs::backends::webgl {

namespace {
constexpr float kInf = std::numeric_limits<float>::infinity();

/// The fused epilogue on one accumulated value of output channel `j`; the
/// bias, when present, is shader input 2. Each interior value goes through
/// stored() exactly where the op-by-op chain would have written a texture,
/// so the result is bit-identical to matMul/conv2d/depthwiseConv2d + add +
/// activation in fp16 mode too.
float epilogue(const ShaderContext& ctx, float acc, int j, bool hasBias,
               FusedActivation act) {
  if (!hasBias && act == FusedActivation::kNone) return acc;
  float v = ctx.stored(acc);
  if (hasBias) {
    v = ctx.stored(applyBinary(BinaryOp::kAdd, v,
                               ctx.getFlat(2, static_cast<std::size_t>(j))));
  }
  return applyFusedActivation(act, v);
}

/// Modeled per-invocation arithmetic of the epilogue.
double epilogueFlops(bool hasBias, FusedActivation act) {
  return (hasBias ? 1.0 : 0.0) + (act != FusedActivation::kNone ? 1.0 : 0.0);
}
}  // namespace

WebGLBackend::WebGLBackend(WebGLOptions opts)
    : opts_(opts),
      textures_(opts.gpuBudgetBytes, opts.recycleTextures),
      ctx_(opts.device, &textures_) {}

// ------------------------------------------------------------------ storage

const WebGLBackend::Binding& WebGLBackend::binding(DataId id) const {
  auto it = bindings_.find(id);
  TFJS_CHECK_MSG(it != bindings_.end(), "Unknown webgl DataId " << id);
  return it->second;
}

std::pair<DataId, std::shared_ptr<GlTexture>> WebGLBackend::makeOutput(
    const Shape& logical) {
  const PhysShape phys = tex_util::physShapeForLogical(logical, opts_.packed);
  auto tex = textures_.acquire(
      phys, TexConfig{opts_.packed, opts_.precision});
  const DataId id = nextId_++;
  bindings_[id] = Binding{tex, logical.size()};
  return {id, std::move(tex)};
}

ShaderRun::Input WebGLBackend::input(const TensorSpec& spec) const {
  return ShaderRun::Input{binding(spec.id).tex, spec.shape};
}

DataId WebGLBackend::run(ShaderRun r) {
  // Find the DataId we just allocated for the output texture.
  // (makeOutput/run are always paired by the kernel builders.)
  ctx_.enqueueProgram(std::move(r));
  return nextId_ - 1;
}

DataId WebGLBackend::write(std::span<const float> values, const Shape& shape) {
  auto [id, tex] = makeOutput(shape);
  ctx_.enqueueUpload(tex, std::vector<float>(values.begin(), values.end()));
  return id;
}

std::vector<float> WebGLBackend::read(DataId id) {
  const Binding& b = binding(id);
  return ctx_.readPixels(b.tex, b.size);
}

std::future<std::vector<float>> WebGLBackend::readAsync(DataId id) {
  const Binding& b = binding(id);
  return ctx_.readbackAsync(b.tex, b.size);
}

void WebGLBackend::disposeData(DataId id) {
  auto it = bindings_.find(id);
  if (it == bindings_.end()) return;
  textures_.release(it->second.tex);
  bindings_.erase(it);
}

void WebGLBackend::flush() { ctx_.waitForIdle(); }

double WebGLBackend::kernelTimeMs() const { return ctx_.stats().gpuTimeMs; }

std::size_t WebGLBackend::memoryBytes() const {
  return textures_.stats().gpuBytes;
}

// ------------------------------------------------------------------ kernels

DataId WebGLBackend::fusedRegion(std::span<const RegionInstr> program,
                                 std::span<const TensorSpec> inputs,
                                 const Shape& outShape, DataId /*dst*/) {
  if (program.empty()) throw BackendError("fusedRegion: empty program");
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "fusedRegion";
  r.outputShape = outShape;
  r.output = outTex;
  r.squeeze = opts_.squeeze;
  std::vector<Shape> inShapes;
  std::vector<char> dense;  // input shape == output shape: flat addressing
  double indexFlops = 0;
  for (const TensorSpec& in : inputs) {
    r.inputs.push_back(input(in));
    inShapes.push_back(in.shape);
    dense.push_back(in.shape == outShape);
    indexFlops += idxOps(in.shape);
  }
  // The closure runs on the GPU worker after this call returns, so it owns
  // copies of the program and the shapes; ins/vals are per-invocation
  // scratch, rewritten before they are read.
  r.main = [instrs = std::vector<RegionInstr>(program.begin(), program.end()),
            inShapes, dense, oShape = outShape,
            ins = std::vector<float>(inputs.size()),
            vals = std::vector<float>(program.size())](
               ShaderContext& ctx) mutable {
    for (std::size_t j = 0; j < ins.size(); ++j) {
      const std::size_t at =
          dense[j] != 0
              ? ctx.outFlat()
              : util::broadcastIndex(ctx.outputCoords(), inShapes[j], oShape);
      ins[j] = ctx.getFlat(static_cast<int>(j), at);
    }
    ctx.setOutput(runProgram(instrs, ins.data(), vals.data(),
                             [&](float v) { return ctx.stored(v); }));
  };
  // One dispatch per program: one fetch per input, and per invocation one
  // ALU op per instruction (four when packed) plus each input's index math.
  r.cost.invocations = elemInvocations(outShape.size());
  r.cost.fetchesPerInvocation = static_cast<double>(inputs.size());
  r.cost.flopsPerInvocation =
      static_cast<double>(program.size()) * (opts_.packed ? 4.0 : 1.0) +
      indexFlops;
  run(std::move(r));
  return id;
}

DataId WebGLBackend::matMul(const TensorSpec& a, const TensorSpec& b,
                            bool transposeA, bool transposeB,
                            const TensorSpec* bias, FusedActivation act) {
  if (b.quant != nullptr) {
    return withDequantizedWeights(*this, b, [&](const TensorSpec& bf) {
      return matMul(a, bf, transposeA, transposeB, bias, act);
    });
  }
  const int bA = a.shape[0], bB = b.shape[0];
  const int m = transposeA ? a.shape[2] : a.shape[1];
  const int k = transposeA ? a.shape[1] : a.shape[2];
  const int n = transposeB ? b.shape[1] : b.shape[2];
  const int batch = std::max(bA, bB);
  const Shape outShape{batch, m, n};

  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "matMul";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(a), input(b)};
  const bool hasBias = bias != nullptr;
  if (hasBias) r.inputs.push_back(input(*bias));
  r.squeeze = opts_.squeeze;
  // The Listing-2 shader: each output value loops over the shared dimension
  // sampling A's row and B's column through the compiled getters.
  r.main = [=](ShaderContext& ctx) {
    const int bi = ctx.coord(0), i = ctx.coord(1), j = ctx.coord(2);
    const int ba = bA == 1 ? 0 : bi;
    const int bb = bB == 1 ? 0 : bi;
    float acc = 0;
    for (int p = 0; p < k; ++p) {
      const std::array<int, 3> ac =
          transposeA ? std::array<int, 3>{ba, p, i}
                     : std::array<int, 3>{ba, i, p};
      const std::array<int, 3> bc =
          transposeB ? std::array<int, 3>{bb, j, p}
                     : std::array<int, 3>{bb, p, j};
      acc += ctx.get(0, std::span<const int>(ac)) *
             ctx.get(1, std::span<const int>(bc));
    }
    ctx.setOutput(epilogue(ctx, acc, j, hasBias, act));
  };
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = (2.0 * k + (hasBias ? 1 : 0)) * fetchScale();
  r.cost.flopsPerInvocation = 2.0 * k + epilogueFlops(hasBias, act);
  r.cost.reusable = true;
  run(std::move(r));
  return id;
}

DataId WebGLBackend::conv2d(const TensorSpec& x, const TensorSpec& filter,
                            const Conv2DInfo& ci, const TensorSpec* bias,
                            FusedActivation act) {
  if (filter.quant != nullptr) {
    return withDequantizedWeights(*this, filter, [&](const TensorSpec& ff) {
      return conv2d(x, ff, ci, bias, act);
    });
  }
  const Shape outShape{ci.batch, ci.outH, ci.outW, ci.outC};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "conv2d";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(x), input(filter)};
  const bool hasBias = bias != nullptr;
  if (hasBias) r.inputs.push_back(input(*bias));
  r.squeeze = opts_.squeeze;
  r.main = [ci, hasBias, act](ShaderContext& ctx) {
    const int b = ctx.coord(0), oy = ctx.coord(1), ox = ctx.coord(2),
              oc = ctx.coord(3);
    float acc = 0;
    for (int fy = 0; fy < ci.filterH; ++fy) {
      const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
      if (iy < 0 || iy >= ci.inH) continue;
      for (int fx = 0; fx < ci.filterW; ++fx) {
        const int ix = ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
        if (ix < 0 || ix >= ci.inW) continue;
        for (int ic = 0; ic < ci.inC; ++ic) {
          const std::array<int, 4> xc{b, iy, ix, ic};
          const std::array<int, 4> fc{fy, fx, ic, oc};
          acc += ctx.get(0, std::span<const int>(xc)) *
                 ctx.get(1, std::span<const int>(fc));
        }
      }
    }
    ctx.setOutput(epilogue(ctx, acc, oc, hasBias, act));
  };
  const double macs = static_cast<double>(ci.filterH) * ci.filterW * ci.inC;
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = (2.0 * macs + (hasBias ? 1 : 0)) * fetchScale();
  r.cost.flopsPerInvocation = 2.0 * macs + epilogueFlops(hasBias, act);
  r.cost.reusable = true;
  run(std::move(r));
  return id;
}

DataId WebGLBackend::conv2dBackpropInput(const TensorSpec& dy,
                                         const TensorSpec& filter,
                                         const Conv2DInfo& ci) {
  const Shape outShape{ci.batch, ci.inH, ci.inW, ci.inC};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "conv2dBackpropInput";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(dy), input(filter)};
  r.squeeze = opts_.squeeze;
  r.main = [ci](ShaderContext& ctx) {
    const int b = ctx.coord(0), iy = ctx.coord(1), ix = ctx.coord(2),
              ic = ctx.coord(3);
    float acc = 0;
    for (int fy = 0; fy < ci.filterH; ++fy) {
      const int oyNum = iy + ci.padTop - fy * ci.dilationH;
      if (oyNum % ci.strideH != 0) continue;
      const int oy = oyNum / ci.strideH;
      if (oy < 0 || oy >= ci.outH) continue;
      for (int fx = 0; fx < ci.filterW; ++fx) {
        const int oxNum = ix + ci.padLeft - fx * ci.dilationW;
        if (oxNum % ci.strideW != 0) continue;
        const int ox = oxNum / ci.strideW;
        if (ox < 0 || ox >= ci.outW) continue;
        for (int oc = 0; oc < ci.outC; ++oc) {
          const std::array<int, 4> dyc{b, oy, ox, oc};
          const std::array<int, 4> fc{fy, fx, ic, oc};
          acc += ctx.get(0, std::span<const int>(dyc)) *
                 ctx.get(1, std::span<const int>(fc));
        }
      }
    }
    ctx.setOutput(acc);
  };
  const double cover =
      std::ceil(static_cast<double>(ci.filterH) / ci.strideH) *
      std::ceil(static_cast<double>(ci.filterW) / ci.strideW);
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = 2.0 * cover * ci.outC * fetchScale();
  r.cost.flopsPerInvocation = 2.0 * cover * ci.outC;
  r.cost.reusable = true;
  run(std::move(r));
  return id;
}

DataId WebGLBackend::conv2dBackpropFilter(const TensorSpec& x,
                                          const TensorSpec& dy,
                                          const Conv2DInfo& ci) {
  const Shape outShape{ci.filterH, ci.filterW, ci.inC, ci.outC};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "conv2dBackpropFilter";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(x), input(dy)};
  r.squeeze = opts_.squeeze;
  r.main = [ci](ShaderContext& ctx) {
    const int fy = ctx.coord(0), fx = ctx.coord(1), ic = ctx.coord(2),
              oc = ctx.coord(3);
    float acc = 0;
    for (int b = 0; b < ci.batch; ++b) {
      for (int oy = 0; oy < ci.outH; ++oy) {
        const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
        if (iy < 0 || iy >= ci.inH) continue;
        for (int ox = 0; ox < ci.outW; ++ox) {
          const int ix = ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
          if (ix < 0 || ix >= ci.inW) continue;
          const std::array<int, 4> xc{b, iy, ix, ic};
          const std::array<int, 4> dyc{b, oy, ox, oc};
          acc += ctx.get(0, std::span<const int>(xc)) *
                 ctx.get(1, std::span<const int>(dyc));
        }
      }
    }
    ctx.setOutput(acc);
  };
  const double spatial = static_cast<double>(ci.batch) * ci.outH * ci.outW;
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = 2.0 * spatial * fetchScale();
  r.cost.flopsPerInvocation = 2.0 * spatial;
  r.cost.reusable = true;
  run(std::move(r));
  return id;
}

DataId WebGLBackend::depthwiseConv2d(const TensorSpec& x,
                                     const TensorSpec& filter,
                                     const Conv2DInfo& ci,
                                     const TensorSpec* bias,
                                     FusedActivation act) {
  const Shape outShape{ci.batch, ci.outH, ci.outW, ci.outC};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "depthwiseConv2d";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(x), input(filter)};
  const bool hasBias = bias != nullptr;
  if (hasBias) r.inputs.push_back(input(*bias));
  r.squeeze = opts_.squeeze;
  r.main = [ci, hasBias, act](ShaderContext& ctx) {
    const int b = ctx.coord(0), oy = ctx.coord(1), ox = ctx.coord(2),
              oc = ctx.coord(3);
    const int ic = oc / ci.channelMult;
    const int q = oc % ci.channelMult;
    float acc = 0;
    for (int fy = 0; fy < ci.filterH; ++fy) {
      const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
      if (iy < 0 || iy >= ci.inH) continue;
      for (int fx = 0; fx < ci.filterW; ++fx) {
        const int ix = ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
        if (ix < 0 || ix >= ci.inW) continue;
        const std::array<int, 4> xc{b, iy, ix, ic};
        const std::array<int, 4> fc{fy, fx, ic, q};
        acc += ctx.get(0, std::span<const int>(xc)) *
               ctx.get(1, std::span<const int>(fc));
      }
    }
    ctx.setOutput(epilogue(ctx, acc, oc, hasBias, act));
  };
  const double macs = static_cast<double>(ci.filterH) * ci.filterW;
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = (2.0 * macs + (hasBias ? 1 : 0)) * fetchScale();
  r.cost.flopsPerInvocation = 2.0 * macs + epilogueFlops(hasBias, act);
  r.cost.reusable = true;
  run(std::move(r));
  return id;
}

DataId WebGLBackend::depthwiseConv2dBackpropInput(const TensorSpec& dy,
                                                  const TensorSpec& filter,
                                                  const Conv2DInfo& ci) {
  const Shape outShape{ci.batch, ci.inH, ci.inW, ci.inC};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "depthwiseConv2dBackpropInput";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(dy), input(filter)};
  r.squeeze = opts_.squeeze;
  r.main = [ci](ShaderContext& ctx) {
    const int b = ctx.coord(0), iy = ctx.coord(1), ix = ctx.coord(2),
              ic = ctx.coord(3);
    float acc = 0;
    for (int fy = 0; fy < ci.filterH; ++fy) {
      const int oyNum = iy + ci.padTop - fy * ci.dilationH;
      if (oyNum % ci.strideH != 0) continue;
      const int oy = oyNum / ci.strideH;
      if (oy < 0 || oy >= ci.outH) continue;
      for (int fx = 0; fx < ci.filterW; ++fx) {
        const int oxNum = ix + ci.padLeft - fx * ci.dilationW;
        if (oxNum % ci.strideW != 0) continue;
        const int ox = oxNum / ci.strideW;
        if (ox < 0 || ox >= ci.outW) continue;
        for (int q = 0; q < ci.channelMult; ++q) {
          const std::array<int, 4> dyc{b, oy, ox, ic * ci.channelMult + q};
          const std::array<int, 4> fc{fy, fx, ic, q};
          acc += ctx.get(0, std::span<const int>(dyc)) *
                 ctx.get(1, std::span<const int>(fc));
        }
      }
    }
    ctx.setOutput(acc);
  };
  const double cover =
      std::ceil(static_cast<double>(ci.filterH) / ci.strideH) *
      std::ceil(static_cast<double>(ci.filterW) / ci.strideW);
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = 2.0 * cover * ci.channelMult * fetchScale();
  r.cost.flopsPerInvocation = 2.0 * cover * ci.channelMult;
  r.cost.reusable = true;
  run(std::move(r));
  return id;
}

DataId WebGLBackend::depthwiseConv2dBackpropFilter(const TensorSpec& x,
                                                   const TensorSpec& dy,
                                                   const Conv2DInfo& ci) {
  const Shape outShape{ci.filterH, ci.filterW, ci.inC, ci.channelMult};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "depthwiseConv2dBackpropFilter";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(x), input(dy)};
  r.squeeze = opts_.squeeze;
  r.main = [ci](ShaderContext& ctx) {
    const int fy = ctx.coord(0), fx = ctx.coord(1), ic = ctx.coord(2),
              q = ctx.coord(3);
    float acc = 0;
    for (int b = 0; b < ci.batch; ++b) {
      for (int oy = 0; oy < ci.outH; ++oy) {
        const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
        if (iy < 0 || iy >= ci.inH) continue;
        for (int ox = 0; ox < ci.outW; ++ox) {
          const int ix = ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
          if (ix < 0 || ix >= ci.inW) continue;
          const std::array<int, 4> xc{b, iy, ix, ic};
          const std::array<int, 4> dyc{b, oy, ox, ic * ci.channelMult + q};
          acc += ctx.get(0, std::span<const int>(xc)) *
                 ctx.get(1, std::span<const int>(dyc));
        }
      }
    }
    ctx.setOutput(acc);
  };
  const double spatial = static_cast<double>(ci.batch) * ci.outH * ci.outW;
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = 2.0 * spatial * fetchScale();
  r.cost.flopsPerInvocation = 2.0 * spatial;
  r.cost.reusable = true;
  run(std::move(r));
  return id;
}

DataId WebGLBackend::pool2d(PoolMode mode, const TensorSpec& x,
                            const Pool2DInfo& pi) {
  const Shape outShape{pi.batch, pi.outH, pi.outW, pi.channels};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = mode == PoolMode::kMax ? "maxPool" : "avgPool";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(x)};
  r.squeeze = opts_.squeeze;
  r.main = [mode, pi](ShaderContext& ctx) {
    const int b = ctx.coord(0), oy = ctx.coord(1), ox = ctx.coord(2),
              c = ctx.coord(3);
    float acc = mode == PoolMode::kMax ? -kInf : 0.f;
    int count = 0;
    for (int fy = 0; fy < pi.filterH; ++fy) {
      const int iy = oy * pi.strideH - pi.padTop + fy;
      if (iy < 0 || iy >= pi.inH) continue;
      for (int fx = 0; fx < pi.filterW; ++fx) {
        const int ix = ox * pi.strideW - pi.padLeft + fx;
        if (ix < 0 || ix >= pi.inW) continue;
        const std::array<int, 4> xc{b, iy, ix, c};
        const float v = ctx.get(0, std::span<const int>(xc));
        if (mode == PoolMode::kMax) {
          acc = std::max(acc, v);
        } else {
          acc += v;
        }
        ++count;
      }
    }
    ctx.setOutput(mode == PoolMode::kMax
                      ? acc
                      : acc / static_cast<float>(std::max(count, 1)));
  };
  const double window = static_cast<double>(pi.filterH) * pi.filterW;
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = window * fetchScale();
  r.cost.flopsPerInvocation = window;
  run(std::move(r));
  return id;
}

DataId WebGLBackend::maxPoolBackprop(const TensorSpec& dy,
                                     const TensorSpec& x,
                                     const Pool2DInfo& pi) {
  const Shape outShape{pi.batch, pi.inH, pi.inW, pi.channels};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "maxPoolBackprop";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(dy), input(x)};
  r.squeeze = opts_.squeeze;
  r.main = [pi](ShaderContext& ctx) {
    const int b = ctx.coord(0), iy = ctx.coord(1), ix = ctx.coord(2),
              c = ctx.coord(3);
    float acc = 0;
    // Visit every window covering (iy, ix); credit dy when this position is
    // the window's (first) argmax, recomputed from x.
    for (int fy = 0; fy < pi.filterH; ++fy) {
      const int oyNum = iy + pi.padTop - fy;
      if (oyNum % pi.strideH != 0) continue;
      const int oy = oyNum / pi.strideH;
      if (oy < 0 || oy >= pi.outH) continue;
      for (int fx = 0; fx < pi.filterW; ++fx) {
        const int oxNum = ix + pi.padLeft - fx;
        if (oxNum % pi.strideW != 0) continue;
        const int ox = oxNum / pi.strideW;
        if (ox < 0 || ox >= pi.outW) continue;
        float best = -kInf;
        int bestIy = -1, bestIx = -1;
        for (int wy = 0; wy < pi.filterH; ++wy) {
          const int yy = oy * pi.strideH - pi.padTop + wy;
          if (yy < 0 || yy >= pi.inH) continue;
          for (int wx = 0; wx < pi.filterW; ++wx) {
            const int xx = ox * pi.strideW - pi.padLeft + wx;
            if (xx < 0 || xx >= pi.inW) continue;
            const std::array<int, 4> xc{b, yy, xx, c};
            const float v = ctx.get(1, std::span<const int>(xc));
            if (v > best) {
              best = v;
              bestIy = yy;
              bestIx = xx;
            }
          }
        }
        if (bestIy == iy && bestIx == ix) {
          const std::array<int, 4> dyc{b, oy, ox, c};
          acc += ctx.get(0, std::span<const int>(dyc));
        }
      }
    }
    ctx.setOutput(acc);
  };
  const double window = static_cast<double>(pi.filterH) * pi.filterW;
  const double cover = std::ceil(window / (pi.strideH * pi.strideW));
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = cover * (window + 1) * fetchScale();
  r.cost.flopsPerInvocation = cover * (window + 1);
  run(std::move(r));
  return id;
}

DataId WebGLBackend::avgPoolBackprop(const TensorSpec& dy,
                                     const Pool2DInfo& pi) {
  const Shape outShape{pi.batch, pi.inH, pi.inW, pi.channels};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "avgPoolBackprop";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(dy)};
  r.squeeze = opts_.squeeze;
  r.main = [pi](ShaderContext& ctx) {
    const int b = ctx.coord(0), iy = ctx.coord(1), ix = ctx.coord(2),
              c = ctx.coord(3);
    float acc = 0;
    for (int fy = 0; fy < pi.filterH; ++fy) {
      const int oyNum = iy + pi.padTop - fy;
      if (oyNum % pi.strideH != 0) continue;
      const int oy = oyNum / pi.strideH;
      if (oy < 0 || oy >= pi.outH) continue;
      for (int fx = 0; fx < pi.filterW; ++fx) {
        const int oxNum = ix + pi.padLeft - fx;
        if (oxNum % pi.strideW != 0) continue;
        const int ox = oxNum / pi.strideW;
        if (ox < 0 || ox >= pi.outW) continue;
        // Forward divides by the count of in-bounds cells of the window.
        int count = 0;
        for (int wy = 0; wy < pi.filterH; ++wy) {
          const int yy = oy * pi.strideH - pi.padTop + wy;
          if (yy < 0 || yy >= pi.inH) continue;
          for (int wx = 0; wx < pi.filterW; ++wx) {
            const int xx = ox * pi.strideW - pi.padLeft + wx;
            if (xx >= 0 && xx < pi.inW) ++count;
          }
        }
        const std::array<int, 4> dyc{b, oy, ox, c};
        acc += ctx.get(0, std::span<const int>(dyc)) /
               static_cast<float>(std::max(count, 1));
      }
    }
    ctx.setOutput(acc);
  };
  const double window = static_cast<double>(pi.filterH) * pi.filterW;
  const double cover = std::ceil(window / (pi.strideH * pi.strideW));
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = cover * fetchScale();
  r.cost.flopsPerInvocation = cover * (window + 2);
  run(std::move(r));
  return id;
}

DataId WebGLBackend::reduce(ReduceOp op, const TensorSpec& x,
                            std::size_t outer, std::size_t n,
                            std::size_t inner) {
  const Shape outShape{static_cast<int>(outer * inner)};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "reduce";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(x)};
  r.squeeze = opts_.squeeze;
  r.main = [op, n, inner](ShaderContext& ctx) {
    // Output (o, j) folds the middle axis of [outer, n, inner].
    const std::size_t flat = ctx.outFlat();
    const std::size_t base = (flat / inner) * n * inner + flat % inner;
    const auto at = [&](std::size_t i) {
      return ctx.getFlat(0, base + i * inner);
    };
    float acc;
    switch (op) {
      case ReduceOp::kSum:
      case ReduceOp::kMean: {
        acc = 0;
        for (std::size_t i = 0; i < n; ++i) acc += at(i);
        if (op == ReduceOp::kMean) acc /= static_cast<float>(n);
        break;
      }
      case ReduceOp::kProd: {
        acc = 1;
        for (std::size_t i = 0; i < n; ++i) acc *= at(i);
        break;
      }
      case ReduceOp::kMax: {
        acc = -kInf;
        for (std::size_t i = 0; i < n; ++i) acc = std::max(acc, at(i));
        break;
      }
      case ReduceOp::kMin: {
        acc = kInf;
        for (std::size_t i = 0; i < n; ++i) acc = std::min(acc, at(i));
        break;
      }
      case ReduceOp::kAny: {
        acc = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (at(i) != 0) {
            acc = 1;
            break;
          }
        }
        break;
      }
      case ReduceOp::kAll: {
        acc = 1;
        for (std::size_t i = 0; i < n; ++i) {
          if (at(i) == 0) {
            acc = 0;
            break;
          }
        }
        break;
      }
      default:
        acc = 0;
    }
    ctx.setOutput(acc);
  };
  r.cost.invocations = outer * inner;
  r.cost.fetchesPerInvocation = static_cast<double>(n) * fetchScale();
  r.cost.flopsPerInvocation = static_cast<double>(n);
  run(std::move(r));
  return id;
}

DataId WebGLBackend::arg(ArgOp op, const TensorSpec& x, std::size_t outer,
                         std::size_t inner) {
  const Shape outShape{static_cast<int>(outer)};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "arg";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(x)};
  r.squeeze = opts_.squeeze;
  r.main = [op, inner](ShaderContext& ctx) {
    const std::size_t base = ctx.outFlat() * inner;
    std::size_t best = 0;
    float bestVal = ctx.getFlat(0, base);
    for (std::size_t i = 1; i < inner; ++i) {
      const float v = ctx.getFlat(0, base + i);
      const bool better = op == ArgOp::kArgMax ? v > bestVal : v < bestVal;
      if (better) {
        best = i;
        bestVal = v;
      }
    }
    ctx.setOutput(static_cast<float>(best));
  };
  r.cost.invocations = outer;
  r.cost.fetchesPerInvocation = static_cast<double>(inner) * fetchScale();
  r.cost.flopsPerInvocation = static_cast<double>(inner);
  run(std::move(r));
  return id;
}

DataId WebGLBackend::copyStrided(std::span<const TensorSpec> inputs,
                                 std::span<const CopyAxis> axes,
                                 const Shape& outShape, float fillValue) {
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "copyStrided";
  r.outputShape = outShape;
  r.output = outTex;
  r.squeeze = opts_.squeeze;
  const std::size_t rank = static_cast<std::size_t>(outShape.rank());
  std::vector<int> wraps;  // the input extent each box axis wraps at
  std::size_t covered = 0;
  int fetchOps = 0;
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    r.inputs.push_back(input(inputs[j]));
    std::size_t box = 1;
    for (const CopyAxis& a : axes.subspan(j * rank, rank)) {
      wraps.push_back(inputs[j].shape[a.inAxis]);
      box *= a.extent;
    }
    covered += box;
    fetchOps = std::max(fetchOps, idxOps(inputs[j].shape));
  }
  r.main = [ax = std::vector<CopyAxis>(axes.begin(), axes.end()), wraps, rank,
            pieces = inputs.size(), fillValue](ShaderContext& ctx) {
    std::array<int, 8> c{};
    for (std::size_t j = 0; j < pieces; ++j) {
      std::size_t d = 0;
      for (; d < rank; ++d) {
        const CopyAxis& a = ax[j * rank + d];
        const int k = ctx.coord(static_cast<int>(d)) - a.offset;
        if (k < 0 || k >= a.extent) break;
        const int n = wraps[j * rank + d];
        int v = a.start + a.step * k;
        if (v < 0 || v >= n) v = (v % n + n) % n;  // a wrapping read (tile)
        c[static_cast<std::size_t>(a.inAxis)] = v;
      }
      if (d == rank) {
        ctx.setOutput(ctx.get(static_cast<int>(j), {c.data(), rank}));
        return;
      }
    }
    ctx.setOutput(fillValue);
  };
  // One sampler fetch per covered element, one compare per extra piece to
  // pick its box, and a bounds test per axis when some elements take the
  // fill value. With no pieces nothing is fetched and, like any elementwise
  // program, four values are written per packed texel.
  const auto pieces = static_cast<int>(inputs.size());
  r.cost.invocations =
      pieces == 0 ? elemInvocations(outShape.size()) : outShape.size();
  r.cost.fetchesPerInvocation = std::min(pieces, 1);
  r.cost.flopsPerInvocation = fetchOps + std::max(pieces - 1, 0) +
                              (covered < outShape.size() ? rank : 0);
  run(std::move(r));
  return id;
}

DataId WebGLBackend::gather(const TensorSpec& x, const TensorSpec& indices,
                            int axis, const Shape& outShape) {
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "gather";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(x), input(indices)};
  r.squeeze = opts_.squeeze;
  const Shape xShape = x.shape;
  const int rank = xShape.rank();
  const auto axisDim = static_cast<std::size_t>(xShape[axis]);
  r.main = [axis, rank, axisDim](ShaderContext& ctx) {
    std::array<int, 8> c{};
    for (int d = 0; d < rank; ++d) c[static_cast<std::size_t>(d)] = ctx.coord(d);
    const float v = ctx.getFlat(1, static_cast<std::size_t>(ctx.coord(axis)));
    const std::int64_t idx = indexAt(v, axisDim);
    TFJS_ARG_CHECK(idx >= 0, "gather index " << v << " out of range [0, "
                                             << axisDim << ")");
    c[static_cast<std::size_t>(axis)] = static_cast<int>(idx);
    ctx.setOutput(ctx.get(
        0, std::span<const int>(c.data(), static_cast<std::size_t>(rank))));
  };
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = 2;
  r.cost.flopsPerInvocation = idxOps(xShape);
  run(std::move(r));
  return id;
}

DataId WebGLBackend::resizeBilinear(const TensorSpec& x, int newH, int newW,
                                    bool alignCorners) {
  const int inH = x.shape[1], inW = x.shape[2], c = x.shape[3];
  const Shape outShape{x.shape[0], newH, newW, c};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "resizeBilinear";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(x)};
  r.squeeze = opts_.squeeze;
  const float hScale =
      alignCorners && newH > 1
          ? static_cast<float>(inH - 1) / static_cast<float>(newH - 1)
          : static_cast<float>(inH) / static_cast<float>(newH);
  const float wScale =
      alignCorners && newW > 1
          ? static_cast<float>(inW - 1) / static_cast<float>(newW - 1)
          : static_cast<float>(inW) / static_cast<float>(newW);
  r.main = [=](ShaderContext& ctx) {
    const int b = ctx.coord(0), y = ctx.coord(1), xo = ctx.coord(2),
              ch = ctx.coord(3);
    const float srcY = alignCorners ? y * hScale : (y + 0.5f) * hScale - 0.5f;
    const float cy = std::clamp(srcY, 0.f, static_cast<float>(inH - 1));
    const int y0 = static_cast<int>(std::floor(cy));
    const int y1 = std::min(y0 + 1, inH - 1);
    const float fy = cy - static_cast<float>(y0);
    const float srcX =
        alignCorners ? xo * wScale : (xo + 0.5f) * wScale - 0.5f;
    const float cx = std::clamp(srcX, 0.f, static_cast<float>(inW - 1));
    const int x0 = static_cast<int>(std::floor(cx));
    const int x1 = std::min(x0 + 1, inW - 1);
    const float fx = cx - static_cast<float>(x0);
    auto at = [&](int yy, int xx) {
      const std::array<int, 4> cc{b, yy, xx, ch};
      return ctx.get(0, std::span<const int>(cc));
    };
    const float top = at(y0, x0) * (1 - fx) + at(y0, x1) * fx;
    const float bot = at(y1, x0) * (1 - fx) + at(y1, x1) * fx;
    ctx.setOutput(top * (1 - fy) + bot * fy);
  };
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = 4;
  r.cost.flopsPerInvocation = 16 + idxOps(x.shape);
  run(std::move(r));
  return id;
}

DataId WebGLBackend::oneHot(const TensorSpec& indices, int depth,
                            float onValue, float offValue) {
  const Shape outShape{static_cast<int>(indices.shape.size()), depth};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "oneHot";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(indices)};
  r.squeeze = opts_.squeeze;
  r.main = [onValue, offValue, depth](ShaderContext& ctx) {
    const std::int64_t idx =
        indexAt(ctx.getFlat(0, static_cast<std::size_t>(ctx.coord(0))),
                static_cast<std::size_t>(depth));
    ctx.setOutput(idx == ctx.coord(1) ? onValue : offValue);
  };
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = 1;
  r.cost.flopsPerInvocation = 2;
  run(std::move(r));
  return id;
}

namespace {
/// Rank-selection shader body of the two topk shaders: finds the element
/// of rank `want` (0 = first in Backend::topk's order) in a row by
/// counting, per output — the shared-memory-free formulation a fragment
/// shader is limited to.
struct RankSelect {
  std::size_t inner;
  int k;
  /// Returns (value, index) of the rank-(flat % k) element of row flat/k.
  std::pair<float, std::size_t> operator()(const ShaderContext& ctx) const {
    const std::size_t flat = ctx.outFlat();
    const std::size_t o = flat / static_cast<std::size_t>(k);
    const std::size_t want = flat % static_cast<std::size_t>(k);
    const std::size_t base = o * inner;
    for (std::size_t j = 0; j < inner; ++j) {
      const float e = ctx.getFlat(0, base + j);
      std::size_t rank = 0;
      for (std::size_t m = 0; m < inner; ++m) {
        if (topkBefore(ctx.getFlat(0, base + m), m, e, j)) ++rank;
      }
      if (rank == want) return {e, j};
    }
    return {0.f, 0};  // unreachable for valid inputs
  }
};
}  // namespace

std::pair<DataId, DataId> WebGLBackend::topk(const TensorSpec& x,
                                             std::size_t outer,
                                             std::size_t inner, int k) {
  const Shape outShape{static_cast<int>(outer), k};
  const RankSelect select{inner, k};
  // One shader per output: the values, then the indices.
  const auto shader = [&](const char* name, bool indices) {
    auto [id, outTex] = makeOutput(outShape);
    ShaderRun r;
    r.name = name;
    r.outputShape = outShape;
    r.output = outTex;
    r.inputs = {input(x)};
    r.squeeze = opts_.squeeze;
    r.main = [select, indices](ShaderContext& ctx) {
      const auto [value, index] = select(ctx);
      ctx.setOutput(indices ? static_cast<float>(index) : value);
    };
    r.cost.invocations = outShape.size();
    r.cost.fetchesPerInvocation =
        static_cast<double>(inner) * static_cast<double>(inner) * fetchScale();
    r.cost.flopsPerInvocation = static_cast<double>(inner) * inner;
    run(std::move(r));
    return id;
  };
  const DataId values = shader("topkValues", false);
  return {values, shader("topkIndices", true)};
}

DataId WebGLBackend::cumsum(const TensorSpec& x, std::size_t outer,
                            std::size_t inner, bool exclusive, bool reverse) {
  const Shape outShape{static_cast<int>(outer), static_cast<int>(inner)};
  auto [id, outTex] = makeOutput(outShape);
  ShaderRun r;
  r.name = "cumsum";
  r.outputShape = outShape;
  r.output = outTex;
  r.inputs = {input(x)};
  r.squeeze = opts_.squeeze;
  r.main = [inner, exclusive, reverse](ShaderContext& ctx) {
    const std::size_t flat = ctx.outFlat();
    const std::size_t o = flat / inner;
    const std::size_t i = flat % inner;
    const std::size_t base = o * inner;
    float acc = 0;
    // Position i sums the prefix (or suffix when reversed); exclusive
    // drops its own element — each output independent, shader style.
    for (std::size_t j = 0; j < inner; ++j) {
      const bool include =
          reverse ? (exclusive ? j > i : j >= i) : (exclusive ? j < i : j <= i);
      if (include) acc += ctx.getFlat(0, base + j);
    }
    ctx.setOutput(acc);
  };
  r.cost.invocations = outShape.size();
  r.cost.fetchesPerInvocation = static_cast<double>(inner) * fetchScale() / 2;
  r.cost.flopsPerInvocation = static_cast<double>(inner) / 2;
  run(std::move(r));
  return id;
}

// ------------------------------------------------------------- registration

void registerBackend() {
  Engine::get().registerBackend(
      "webgl", [] { return std::make_unique<WebGLBackend>(); },
      /*priority=*/3);
}

void registerBackendVariant(const std::string& name, WebGLOptions opts,
                            int priority) {
  Engine::get().registerBackend(
      name, [opts] { return std::make_unique<WebGLBackend>(opts); }, priority);
}

}  // namespace tfjs::backends::webgl
