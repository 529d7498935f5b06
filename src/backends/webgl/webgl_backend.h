// WebGLBackend: the simulated-WebGL backend — the paper's highest-complexity
// component (section 4.1), reproduced end to end:
//
//   tensor data lives in 2-D textures (GlTexture) laid out by the shader
//   compiler's logical→physical mapping; kernels are per-output-element
//   shader programs enqueued on a command queue drained by a GPU worker
//   thread; fences implement async readback; a texture recycler and a
//   GPU→CPU paging heuristic manage memory; RGBA packing and the squeezed
//   coordinate mapping are the section 3.9 / 4.1 optimizations; fp16 texture
//   mode reproduces the iOS numerical-precision behaviour of section 4.1.3.
//
// Timing: kernelTimeMs() is the modeled GPU busy time from the DeviceModel
// (see device_model.h), the analogue of EXT_disjoint_timer_query.
#pragma once

#include <memory>
#include <unordered_map>

#include "backends/webgl/gpgpu_context.h"
#include "core/backend.h"

namespace tfjs::backends::webgl {

struct WebGLOptions {
  DeviceModel device = irisProWebGL();
  /// RGBA texel packing (section 3.9; 1.3-1.4x on PoseNet-class models).
  bool packed = true;
  /// Squeezed coordinate mapping (section 4.1; 1.3x average).
  bool squeeze = true;
  /// fp16 simulates the iOS Safari 16-bit float texture path.
  TexPrecision precision = TexPrecision::fp32;
  /// GPU memory budget before paging kicks in ("estimated from the screen
  /// size" in the paper).
  std::size_t gpuBudgetBytes = 256ull * 1024 * 1024;
  /// Texture recycling (section 4.1.2); off only for ablation.
  bool recycleTextures = true;
};

class WebGLBackend : public Backend {
 public:
  explicit WebGLBackend(WebGLOptions opts = {});

  std::string name() const override { return "webgl"; }

  // ---- storage
  DataId write(std::span<const float> values, const Shape& shape) override;
  std::vector<float> read(DataId id) override;
  std::future<std::vector<float>> readAsync(DataId id) override;
  void disposeData(DataId id) override;
  void flush() override;
  double kernelTimeMs() const override;
  std::size_t memoryBytes() const override;
  float epsilon() const override {
    return opts_.precision == TexPrecision::fp16 ? 1e-4f : 1e-7f;
  }

  // ---- kernels
  /// The Listing-2 shader; bias and activation run before setOutput, each
  /// interior value rounded as a texture store would round it. No int8
  /// shader: an int8 weight goes through backends::dequantizeWeights on the
  /// device first, so the result equals the f32 kernel on dequantize(w).
  DataId matMul(const TensorSpec& a, const TensorSpec& b, bool transposeA,
                bool transposeB, const TensorSpec* bias,
                FusedActivation act) override;
  DataId conv2d(const TensorSpec& x, const TensorSpec& filter,
                const Conv2DInfo& info, const TensorSpec* bias,
                FusedActivation act) override;
  /// One shader per program (the paper's Figure 4 add is a
  /// one-instruction program): per output element, loads each input once
  /// and runs the program's scalar steps, storing every interior value
  /// through the texture rounding the op-by-op chain would apply. Ignores
  /// `dst` (a shader cannot sample the texture it renders to) and always
  /// renders to a fresh texture.
  DataId fusedRegion(std::span<const RegionInstr> program,
                     std::span<const TensorSpec> inputs, const Shape& outShape,
                     DataId dst) override;
  DataId conv2dBackpropInput(const TensorSpec& dy, const TensorSpec& filter,
                             const Conv2DInfo& info) override;
  DataId conv2dBackpropFilter(const TensorSpec& x, const TensorSpec& dy,
                              const Conv2DInfo& info) override;
  DataId depthwiseConv2d(const TensorSpec& x, const TensorSpec& filter,
                         const Conv2DInfo& info, const TensorSpec* bias,
                         FusedActivation act) override;
  DataId depthwiseConv2dBackpropInput(const TensorSpec& dy,
                                      const TensorSpec& filter,
                                      const Conv2DInfo& info) override;
  DataId depthwiseConv2dBackpropFilter(const TensorSpec& x,
                                       const TensorSpec& dy,
                                       const Conv2DInfo& info) override;
  DataId pool2d(PoolMode mode, const TensorSpec& x,
                const Pool2DInfo& info) override;
  DataId maxPoolBackprop(const TensorSpec& dy, const TensorSpec& x,
                         const Pool2DInfo& info) override;
  DataId avgPoolBackprop(const TensorSpec& dy,
                         const Pool2DInfo& info) override;
  DataId reduce(ReduceOp op, const TensorSpec& x, std::size_t outer,
                std::size_t n, std::size_t inner) override;
  DataId arg(ArgOp op, const TensorSpec& x, std::size_t outer,
             std::size_t inner) override;
  DataId gather(const TensorSpec& x, const TensorSpec& indices, int axis,
                const Shape& outShape) override;
  DataId resizeBilinear(const TensorSpec& x, int newH, int newW,
                        bool alignCorners) override;
  DataId oneHot(const TensorSpec& indices, int depth, float onValue,
                float offValue) override;
  /// One shader: each output element remaps its coordinates into the piece
  /// whose box covers it and samples there (or takes the fill value).
  DataId copyStrided(std::span<const TensorSpec> inputs,
                     std::span<const CopyAxis> axes, const Shape& outShape,
                     float fillValue) override;
  /// Two shaders: the values, then the indices.
  std::pair<DataId, DataId> topk(const TensorSpec& x, std::size_t outer,
                                 std::size_t inner, int k) override;
  DataId cumsum(const TensorSpec& x, std::size_t outer, std::size_t inner,
                bool exclusive, bool reverse) override;

  // ---- introspection (tests / benches)
  GpgpuStats gpuStats() const { return ctx_.stats(); }
  TextureManagerStats textureStats() const { return textures_.stats(); }
  const WebGLOptions& options() const { return opts_; }
  GPGPUContext& context() { return ctx_; }

 private:
  struct Binding {
    std::shared_ptr<GlTexture> tex;
    std::size_t size = 0;
  };

  /// Index-op count the cost model charges per fetch of this shape.
  int idxOps(const Shape& s) const {
    return 2 * (opts_.squeeze ? s.squeezed().rank() : s.rank());
  }
  /// Element-wise invocation count: packing processes 4 values per texel.
  std::size_t elemInvocations(std::size_t n) const {
    return opts_.packed ? (n + 3) / 4 : n;
  }
  /// Packing also divides per-invocation fetches (vec4 loads, Listing 2).
  double fetchScale() const { return opts_.packed ? 0.25 : 1.0; }

  const Binding& binding(DataId id) const;
  /// Allocates the output texture for a logical shape and registers it.
  std::pair<DataId, std::shared_ptr<GlTexture>> makeOutput(
      const Shape& logical);
  ShaderRun::Input input(const TensorSpec& spec) const;
  DataId run(ShaderRun run);
  WebGLOptions opts_;
  TextureManager textures_;
  GPGPUContext ctx_;
  std::unordered_map<DataId, Binding> bindings_;
  DataId nextId_ = 1;
};

/// Registers "webgl" (highest priority, as in the paper's backend election).
void registerBackend();
/// Registers a configured variant under a custom name (benches use this for
/// unpacked / fp16 / GTX-1080-model instances).
void registerBackendVariant(const std::string& name, WebGLOptions opts,
                            int priority = 0);

}  // namespace tfjs::backends::webgl
