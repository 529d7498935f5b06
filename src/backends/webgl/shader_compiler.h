// The shader compiler of paper section 4.1.
//
// In the real library, kernels are GLSL fragment shaders whose authoring is
// made tractable by a compiler that generates high-level sampler functions
// (getA(batch, row, col, depth), getOutputCoords(), setOutput(v)) hiding the
// logical→physical texture mapping. Here a "shader" is a C++ callable with
// exactly the same contract: it runs once per output value, in parallel
// semantics (no shared state between invocations), addressing inputs in
// logical N-D space through compiled Samplers.
//
// The compiler reproduces the paper's three optimizations:
//  * logical/physical separation — tensors of any rank map onto 2-D
//    textures capped at the device limit (tex_util);
//  * squeezed coordinate mapping — samplers for shapes with size-1
//    dimensions skip those dimensions' index arithmetic entirely (the 1.3x
//    optimization: getA(a,b,c,d) ignores a and c for a 1x3x1x2 tensor);
//  * packing — RGBA texels hold 4 consecutive values, quartering texel
//    fetches and (for element-wise programs) shader invocations.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "backends/webgl/device_model.h"
#include "backends/webgl/texture.h"
#include "core/half.h"
#include "core/shape.h"

namespace tfjs::backends::webgl {

/// The compiled, texture-independent part of a Sampler: the strides of the
/// dimensions that participate in addressing (with squeezing, size-1
/// dimensions are dropped) and the resulting index-op count. This is the
/// artifact the program cache shares — the analogue of a compiled+linked
/// GLSL program, which upstream caches keyed on op + shape signature
/// because compilation dominates first-call latency.
struct SamplerLayout {
  std::vector<std::pair<int, std::size_t>> dimStrides;  // (axis, stride)
  int indexOps = 0;
};

/// Compiles the addressing layout for a logical shape; `squeeze` enables
/// the squeezed-coordinate optimization.
SamplerLayout compileSamplerLayout(const Shape& logical, bool squeeze);

/// Process-wide cache of compiled sampler layouts keyed on
/// (op, logical shape, squeeze, packed) — the shape-class signature the
/// upstream shader cache uses. Thread-safe; hit/miss counts are published
/// as webgl.shader_cache_hits / webgl.shader_cache_misses.
class ProgramCache {
 public:
  static ProgramCache& get();

  std::shared_ptr<const SamplerLayout> layout(const std::string& opName,
                                              const Shape& logical,
                                              bool squeeze, bool packed);
  void clear();
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const SamplerLayout>>
      cache_;
};

/// A compiled input sampler: logical coordinates → texel fetch.
class Sampler {
 public:
  Sampler() = default;
  /// Compiles a fresh layout; `squeeze` enables the squeezed-coordinate
  /// optimization.
  Sampler(const GlTexture* tex, const Shape& logical, bool squeeze);
  /// Binds a texture to a pre-compiled (cached) layout — the program-cache
  /// hit path recompiles nothing.
  Sampler(const GlTexture* tex, std::shared_ptr<const SamplerLayout> layout);

  /// Fetch by full-rank logical coordinates.
  float get(std::span<const int> coords) const;
  /// Fetch by flat logical index (element-wise programs).
  float getFlat(std::size_t flat) const;

  /// Index-arithmetic operations per get() — the quantity the squeezed
  /// mapping reduces; feeds the device cost model.
  int indexOpsPerFetch() const { return layout_ ? layout_->indexOps : 0; }

  /// Texel fetches issued through this sampler (single worker thread).
  mutable std::uint64_t fetchCount = 0;

 private:
  const GlTexture* tex_ = nullptr;
  std::shared_ptr<const SamplerLayout> layout_;
};

/// Execution context handed to a shader's main(); mirrors the generated
/// GLSL helpers (getOutputCoords / getA / setOutput).
class ShaderContext {
 public:
  /// Logical coordinates of the output value being computed.
  std::span<const int> outputCoords() const {
    return {coords_.data(), coords_.size()};
  }
  int coord(int d) const { return coords_[static_cast<std::size_t>(d)]; }
  std::size_t outFlat() const { return flat_; }

  /// Sample input i at the given logical coordinates.
  float get(int input, std::span<const int> coords) const {
    return samplers_[static_cast<std::size_t>(input)].get(coords);
  }
  float get(int input, std::initializer_list<int> coords) const {
    return get(input, std::span<const int>(coords.begin(), coords.size()));
  }
  float getFlat(int input, std::size_t flat) const {
    return samplers_[static_cast<std::size_t>(input)].getFlat(flat);
  }

  /// The browser-specific write: fp16 devices round through half precision
  /// (paper: "in iOS Safari we render to a 16bit ... texture. In both cases
  /// the user code is the same, using the high-level setOutput(value)").
  void setOutput(float v) { out_[flat_] = stored(v); }
  /// The value a texture store would hold: the half-precision round trip on
  /// fp16 devices, identity otherwise. Fused shaders pass every interior
  /// value through it that the op-by-op chain would have written to a
  /// texture, which keeps them bit-identical to that chain.
  float stored(float v) const { return fp16_ ? roundTripHalf(v) : v; }

 private:
  friend class ShaderExecutor;
  std::vector<int> coords_;
  std::size_t flat_ = 0;
  std::vector<Sampler> samplers_;
  float* out_ = nullptr;
  bool fp16_ = false;
};

/// A shader program plus everything needed to run it.
struct ShaderRun {
  std::string name;
  Shape outputShape;
  std::shared_ptr<GlTexture> output;
  struct Input {
    std::shared_ptr<GlTexture> tex;
    Shape logicalShape;
  };
  std::vector<Input> inputs;
  std::function<void(ShaderContext&)> main;
  ProgramCost cost;
  bool squeeze = true;
};

/// Executes a ShaderRun on the calling (GPU worker) thread: loops every
/// logical output element, invoking main() with fresh output coordinates —
/// the sequential emulation of the per-pixel parallel fragment pipeline.
class ShaderExecutor {
 public:
  /// Returns the total texel fetches actually issued (for cost-model
  /// validation in tests).
  static std::uint64_t execute(ShaderRun& run);
};

}  // namespace tfjs::backends::webgl
