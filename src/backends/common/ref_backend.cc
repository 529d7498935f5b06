#include "backends/common/ref_backend.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "backends/common/quant_math.h"
#include "core/buffer_pool.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "core/util.h"

namespace tfjs::backends {

namespace {
constexpr float kInf = std::numeric_limits<float>::infinity();
}  // namespace

float applyBinary(BinaryOp op, float a, float b) {
  return binaryFormula(op, a, b);
}

float applyUnary(UnaryOp op, float x, float alpha, float beta) {
  return unaryFormula(op, x, alpha, beta);
}

bool broadcastsAsSuffix(const Shape& s, const Shape& out) {
  // Right-align s with out; the trailing non-1 dims of s must match out
  // exactly, and everything to their left in s must be 1.
  int i = s.rank() - 1, j = out.rank() - 1;
  for (; i >= 0 && s[i] != 1; --i, --j) {
    if (j < 0 || s[i] != out[j]) return false;
  }
  for (; i >= 0; --i) {
    if (s[i] != 1) return false;
  }
  return true;
}

// ------------------------------------------------------------------ timer

RefBackend::KernelTimer::KernelTimer(double& acc, const char* name)
    : acc_(acc), name_(name), start_(std::chrono::steady_clock::now()) {
  if (name_ != nullptr && trace::active()) traceStartUs_ = trace::nowUs();
}

RefBackend::KernelTimer::~KernelTimer() {
  acc_ += std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start_)
              .count();
  if (traceStartUs_ >= 0) {
    trace::Event e;
    e.type = trace::Event::Type::kSpan;
    e.category = "kernel";
    e.name = name_;
    e.tsUs = traceStartUs_;
    e.durUs = trace::nowUs() - traceStartUs_;
    e.tid = trace::currentThreadId();
    trace::Recorder::get().record(std::move(e));
  }
}

// ---------------------------------------------------------------- storage

DataId RefBackend::write(std::span<const float> values, const Shape&) {
  static metrics::Counter& bytesUploaded =
      metrics::Registry::get().counter("backend.bytes_uploaded");
  bytesUploaded.inc(values.size() * sizeof(float));
  std::vector<float> v = allocBuffer(values.size());
  std::copy(values.begin(), values.end(), v.begin());
  return store(std::move(v));
}

std::vector<float> RefBackend::read(DataId id) {
  static metrics::Counter& bytesDownloaded =
      metrics::Registry::get().counter("backend.bytes_downloaded");
  const auto& v = buf(id);
  bytesDownloaded.inc(v.size() * sizeof(float));
  return v;
}

std::future<std::vector<float>> RefBackend::readAsync(DataId id) {
  std::promise<std::vector<float>> p;
  p.set_value(read(id));
  return p.get_future();
}

void RefBackend::disposeData(DataId id) {
  std::vector<float> freed;
  {
    std::lock_guard<std::mutex> lock(storageMu_);
    auto it = buffers_.find(id);
    if (it == buffers_.end()) return;
    bytes_ -= it->second.size() * sizeof(float);
    freed = std::move(it->second);
    buffers_.erase(it);
  }
  // The storage cycles back through the pool instead of the heap; bytes_
  // keeps counting live buffers only (pooled bytes are reported separately
  // by engine.memory()). Released outside the storage lock — the pool has
  // its own mutex.
  core::BufferPool::get().release(std::move(freed));
}

const std::vector<float>& RefBackend::buf(DataId id) const {
  std::lock_guard<std::mutex> lock(storageMu_);
  auto it = buffers_.find(id);
  if (it == buffers_.end()) {
    // A storage lookup miss is a backend failure, not a caller error: the
    // ops layer validated the request, the device layer cannot serve it.
    throw BackendError("ref backend: unknown DataId " + std::to_string(id));
  }
  return it->second;
}

std::vector<float>& RefBackend::mutableBuf(DataId id) {
  std::lock_guard<std::mutex> lock(storageMu_);
  auto it = buffers_.find(id);
  if (it == buffers_.end()) {
    throw BackendError("ref backend: unknown DataId " + std::to_string(id));
  }
  return it->second;
}

DataId RefBackend::store(std::vector<float> v) {
  std::lock_guard<std::mutex> lock(storageMu_);
  const DataId id = nextId_++;
  bytes_ += v.size() * sizeof(float);
  buffers_.emplace(id, std::move(v));
  return id;
}

std::vector<float> RefBackend::allocBuffer(std::size_t n) {
  return core::BufferPool::get().acquire(n);
}

std::vector<float> RefBackend::allocZeroed(std::size_t n) {
  return core::BufferPool::get().acquireFilled(n, 0.f);
}

std::vector<float> RefBackend::allocFilled(std::size_t n, float value) {
  return core::BufferPool::get().acquireFilled(n, value);
}

// ---------------------------------------------------------------- kernels

// The int8 weight path of matMul and conv2d.

bool RefBackend::int8Weights(const TensorSpec& w, int k, int n) {
  const QuantParams& wq = *w.quant;
  wq.validate();
  TFJS_ARG_CHECK(!wq.perChannel() ||
                     wq.channels() == static_cast<std::size_t>(n),
                 "int8 weight scales must have one entry per output channel");
  return wq.symmetric() && k <= qmath::kMaxAccumK;
}

DataId dequantizeWeights(Backend& be, const TensorSpec& w) {
  const QuantParams& wq = *w.quant;
  wq.validate();
  // One parameter per channel (the last axis), or one for the tensor.
  const Shape params =
      wq.perChannel() ? Shape{w.shape[w.shape.rank() - 1]} : Shape{};
  TFJS_ARG_CHECK(wq.channels() == params.size(),
                 "int8 weights need one scale per output channel");
  // `codes op params` as one region over the weight shape.
  const auto binary = [&](BinaryOp op, DataId codes,
                          std::span<const float> values) {
    const DataId p = be.write(values, params);
    const RegionInstr instr =
        RegionInstr::binary(op, RegionInstr::input(0), RegionInstr::input(1));
    const TensorSpec ins[] = {{codes, w.shape, DType::f32},
                              {p, params, DType::f32}};
    const DataId y = be.fusedRegion({&instr, 1}, ins, w.shape, 0);
    be.disposeData(p);
    return y;
  };
  DataId centered = w.id;
  if (!wq.symmetric()) {
    const std::vector<float> zps(wq.zeroPoint.begin(), wq.zeroPoint.end());
    centered = binary(BinaryOp::kSub, w.id, zps);
  }
  const DataId y = binary(BinaryOp::kMul, centered, wq.scale);
  if (centered != w.id) be.disposeData(centered);
  return y;
}

namespace {
/// The int8 oracle over `rows` GEMM rows of length k into out[rows, n]:
/// `row(r, scratch)` returns row r (a conv builds its patch row in the
/// k-float scratch). Each row is quantized, dotted against the weight codes
/// with exact i32 accumulation, dequantized and finished by fusedEpilogue.
template <typename Row>
void int8Gemm(const std::vector<float>& codes, const QuantParams& wq, int k,
              int n, std::size_t rows, const float* bias, FusedActivation act,
              float* out, Row row) {
  std::vector<std::int8_t> w8(static_cast<std::size_t>(k) * n);
  qmath::weightsToInt8(codes.data(), w8.size(), w8.data());
  std::vector<std::int32_t> cs(static_cast<std::size_t>(n));
  qmath::colSums(w8.data(), k, n, cs.data());
  std::vector<float> scratch(static_cast<std::size_t>(k));
  std::vector<std::uint8_t> qrow(static_cast<std::size_t>(k));
  for (std::size_t r = 0; r < rows; ++r) {
    const float* x = row(r, scratch.data());
    const qmath::RowQuant rq = qmath::chooseRowQuant(x, k);
    qmath::quantizeRow(x, k, rq, qrow.data());
    float* o = out + r * n;
    for (int j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(qrow[p]) *
               w8[static_cast<std::size_t>(p) * n + j];
      }
      o[j] = fusedEpilogue(qmath::dequantAcc(acc, rq, cs[j], wq.scaleFor(j)),
                           bias, static_cast<std::size_t>(j), act);
    }
  }
}
}  // namespace

DataId RefBackend::matMul(const TensorSpec& a, const TensorSpec& b,
                          bool transposeA, bool transposeB,
                          const TensorSpec* bias, FusedActivation act) {
  if (b.quant != nullptr) {
    const int k = a.shape[2], n = b.shape[2];
    const auto& av = buf(a.id);
    if (!transposeA && !transposeB && b.shape[0] == 1 &&
        int8Weights(b, k, n) && qmath::allFinite(av.data(), av.size())) {
      KernelTimer t(kernelMs_);
      const std::size_t rows =
          static_cast<std::size_t>(a.shape[0]) * a.shape[1];
      std::vector<float> out = allocBuffer(rows * n);
      int8Gemm(buf(b.id), *b.quant, k, n, rows,
               bias != nullptr ? buf(bias->id).data() : nullptr, act,
               out.data(),
               [&](std::size_t r, float*) { return av.data() + r * k; });
      return store(std::move(out));
    }
    return withDequantizedWeights(*this, b, [&](const TensorSpec& bf) {
      return matMul(a, bf, transposeA, transposeB, bias, act);
    });
  }
  KernelTimer t(kernelMs_);
  // Inputs are rank-3: [batch, m, k] x [batch, k, n] (batch broadcasts).
  const int bA = a.shape[0], bB = b.shape[0];
  const int m = transposeA ? a.shape[2] : a.shape[1];
  const int k = transposeA ? a.shape[1] : a.shape[2];
  const int n = transposeB ? b.shape[1] : b.shape[2];
  const int batch = std::max(bA, bB);
  const auto& av = buf(a.id);
  const auto& bv = buf(b.id);
  std::vector<float> out =
      allocZeroed(static_cast<std::size_t>(batch) * m * n);

  for (int bi = 0; bi < batch; ++bi) {
    const float* A = av.data() +
                     static_cast<std::size_t>(bA == 1 ? 0 : bi) * m * k;
    const float* B = bv.data() +
                     static_cast<std::size_t>(bB == 1 ? 0 : bi) * k * n;
    float* C = out.data() + static_cast<std::size_t>(bi) * m * n;
    for (int i = 0; i < m; ++i) {
      for (int p = 0; p < k; ++p) {
        const float aval = transposeA ? A[p * m + i] : A[i * k + p];
        const float* Brow = transposeB ? nullptr : B + static_cast<std::size_t>(p) * n;
        if (!transposeB) {
          float* Crow = C + static_cast<std::size_t>(i) * n;
          for (int j = 0; j < n; ++j) Crow[j] += aval * Brow[j];
        } else {
          float* Crow = C + static_cast<std::size_t>(i) * n;
          for (int j = 0; j < n; ++j) Crow[j] += aval * B[j * k + p];
        }
      }
    }
  }
  applyEpilogue(out, static_cast<std::size_t>(n), bias, act);
  return store(std::move(out));
}

DataId RefBackend::conv2d(const TensorSpec& x, const TensorSpec& filter,
                          const Conv2DInfo& ci, const TensorSpec* bias,
                          FusedActivation act) {
  if (filter.quant != nullptr) {
    const int patch = ci.filterH * ci.filterW * ci.inC;
    const auto& xv = buf(x.id);
    if (int8Weights(filter, patch, ci.outC) &&
        qmath::allFinite(xv.data(), xv.size())) {
      KernelTimer t(kernelMs_);
      const std::size_t rows =
          static_cast<std::size_t>(ci.batch) * ci.outH * ci.outW;
      std::vector<float> out = allocBuffer(rows * ci.outC);
      // Each output pixel materializes its full im2col patch row (zeros for
      // out-of-bounds taps) — exactly what the native backend's chunked
      // im2col quantizes, so results match bitwise.
      const auto patchRow = [&](std::size_t r, float* prow) {
        const int ox = static_cast<int>(r % ci.outW);
        const int oy = static_cast<int>(r / ci.outW % ci.outH);
        const std::size_t b = r / ci.outW / ci.outH;
        std::fill(prow, prow + patch, 0.f);
        for (int fy = 0; fy < ci.filterH; ++fy) {
          const int iy = oy * ci.strideH - ci.padTop + fy * ci.dilationH;
          if (iy < 0 || iy >= ci.inH) continue;
          for (int fx = 0; fx < ci.filterW; ++fx) {
            const int ix = ox * ci.strideW - ci.padLeft + fx * ci.dilationW;
            if (ix < 0 || ix >= ci.inW) continue;
            const std::size_t tap =
                static_cast<std::size_t>(fy) * ci.filterW + fx;
            std::memcpy(prow + tap * ci.inC,
                        xv.data() + ((b * ci.inH + iy) * ci.inW + ix) * ci.inC,
                        static_cast<std::size_t>(ci.inC) * sizeof(float));
          }
        }
        return static_cast<const float*>(prow);
      };
      int8Gemm(buf(filter.id), *filter.quant, patch, ci.outC, rows,
               bias != nullptr ? buf(bias->id).data() : nullptr, act,
               out.data(), patchRow);
      return store(std::move(out));
    }
    return withDequantizedWeights(*this, filter, [&](const TensorSpec& ff) {
      return conv2d(x, ff, ci, bias, act);
    });
  }
  KernelTimer t(kernelMs_);
  const auto& xv = buf(x.id);
  const auto& fv = buf(filter.id);
  std::vector<float> out = allocZeroed(static_cast<std::size_t>(ci.batch) *
                                       ci.outH * ci.outW * ci.outC);
  for (int b = 0; b < ci.batch; ++b) {
    for (int oy = 0; oy < ci.outH; ++oy) {
      const int inYOrigin = oy * ci.strideH - ci.padTop;
      for (int ox = 0; ox < ci.outW; ++ox) {
        const int inXOrigin = ox * ci.strideW - ci.padLeft;
        for (int fy = 0; fy < ci.filterH; ++fy) {
          const int iy = inYOrigin + fy * ci.dilationH;
          if (iy < 0 || iy >= ci.inH) continue;
          for (int fx = 0; fx < ci.filterW; ++fx) {
            const int ix = inXOrigin + fx * ci.dilationW;
            if (ix < 0 || ix >= ci.inW) continue;
            const float* xRow =
                xv.data() + ((static_cast<std::size_t>(b) * ci.inH + iy) *
                                 ci.inW +
                             ix) *
                                ci.inC;
            const float* fRow =
                fv.data() + (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                                ci.inC * ci.outC;
            float* oRow =
                out.data() + ((static_cast<std::size_t>(b) * ci.outH + oy) *
                                  ci.outW +
                              ox) *
                                 ci.outC;
            for (int ic = 0; ic < ci.inC; ++ic) {
              const float xval = xRow[ic];
              const float* fCol = fRow + static_cast<std::size_t>(ic) * ci.outC;
              for (int oc = 0; oc < ci.outC; ++oc) {
                oRow[oc] += xval * fCol[oc];
              }
            }
          }
        }
      }
    }
  }
  applyEpilogue(out, static_cast<std::size_t>(ci.outC), bias, act);
  return store(std::move(out));
}

DataId RefBackend::conv2dBackpropInput(const TensorSpec& dy,
                                       const TensorSpec& filter,
                                       const Conv2DInfo& ci) {
  KernelTimer t(kernelMs_);
  const auto& dyv = buf(dy.id);
  const auto& fv = buf(filter.id);
  std::vector<float> dx = allocZeroed(static_cast<std::size_t>(ci.batch) *
                                      ci.inH * ci.inW * ci.inC);
  for (int b = 0; b < ci.batch; ++b) {
    for (int oy = 0; oy < ci.outH; ++oy) {
      const int inYOrigin = oy * ci.strideH - ci.padTop;
      for (int ox = 0; ox < ci.outW; ++ox) {
        const int inXOrigin = ox * ci.strideW - ci.padLeft;
        const float* dyRow =
            dyv.data() + ((static_cast<std::size_t>(b) * ci.outH + oy) *
                              ci.outW +
                          ox) *
                             ci.outC;
        for (int fy = 0; fy < ci.filterH; ++fy) {
          const int iy = inYOrigin + fy * ci.dilationH;
          if (iy < 0 || iy >= ci.inH) continue;
          for (int fx = 0; fx < ci.filterW; ++fx) {
            const int ix = inXOrigin + fx * ci.dilationW;
            if (ix < 0 || ix >= ci.inW) continue;
            float* dxRow =
                dx.data() + ((static_cast<std::size_t>(b) * ci.inH + iy) *
                                 ci.inW +
                             ix) *
                                ci.inC;
            const float* fRow =
                fv.data() + (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                                ci.inC * ci.outC;
            for (int ic = 0; ic < ci.inC; ++ic) {
              const float* fCol = fRow + static_cast<std::size_t>(ic) * ci.outC;
              float acc = 0;
              for (int oc = 0; oc < ci.outC; ++oc) {
                acc += dyRow[oc] * fCol[oc];
              }
              dxRow[ic] += acc;
            }
          }
        }
      }
    }
  }
  return store(std::move(dx));
}

DataId RefBackend::conv2dBackpropFilter(const TensorSpec& x,
                                        const TensorSpec& dy,
                                        const Conv2DInfo& ci) {
  KernelTimer t(kernelMs_);
  const auto& xv = buf(x.id);
  const auto& dyv = buf(dy.id);
  std::vector<float> df = allocZeroed(static_cast<std::size_t>(ci.filterH) *
                                      ci.filterW * ci.inC * ci.outC);
  for (int b = 0; b < ci.batch; ++b) {
    for (int oy = 0; oy < ci.outH; ++oy) {
      const int inYOrigin = oy * ci.strideH - ci.padTop;
      for (int ox = 0; ox < ci.outW; ++ox) {
        const int inXOrigin = ox * ci.strideW - ci.padLeft;
        const float* dyRow =
            dyv.data() + ((static_cast<std::size_t>(b) * ci.outH + oy) *
                              ci.outW +
                          ox) *
                             ci.outC;
        for (int fy = 0; fy < ci.filterH; ++fy) {
          const int iy = inYOrigin + fy * ci.dilationH;
          if (iy < 0 || iy >= ci.inH) continue;
          for (int fx = 0; fx < ci.filterW; ++fx) {
            const int ix = inXOrigin + fx * ci.dilationW;
            if (ix < 0 || ix >= ci.inW) continue;
            const float* xRow =
                xv.data() + ((static_cast<std::size_t>(b) * ci.inH + iy) *
                                 ci.inW +
                             ix) *
                                ci.inC;
            float* fRow =
                df.data() + (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                                ci.inC * ci.outC;
            for (int ic = 0; ic < ci.inC; ++ic) {
              const float xval = xRow[ic];
              float* fCol = fRow + static_cast<std::size_t>(ic) * ci.outC;
              for (int oc = 0; oc < ci.outC; ++oc) {
                fCol[oc] += xval * dyRow[oc];
              }
            }
          }
        }
      }
    }
  }
  return store(std::move(df));
}

DataId RefBackend::depthwiseConv2d(const TensorSpec& x,
                                   const TensorSpec& filter,
                                   const Conv2DInfo& ci,
                                   const TensorSpec* bias,
                                   FusedActivation act) {
  KernelTimer t(kernelMs_);
  const auto& xv = buf(x.id);
  const auto& fv = buf(filter.id);
  const int mult = ci.channelMult;
  std::vector<float> out = allocZeroed(static_cast<std::size_t>(ci.batch) *
                                       ci.outH * ci.outW * ci.outC);
  for (int b = 0; b < ci.batch; ++b) {
    for (int oy = 0; oy < ci.outH; ++oy) {
      const int inYOrigin = oy * ci.strideH - ci.padTop;
      for (int ox = 0; ox < ci.outW; ++ox) {
        const int inXOrigin = ox * ci.strideW - ci.padLeft;
        float* oRow =
            out.data() + ((static_cast<std::size_t>(b) * ci.outH + oy) *
                              ci.outW +
                          ox) *
                             ci.outC;
        for (int fy = 0; fy < ci.filterH; ++fy) {
          const int iy = inYOrigin + fy * ci.dilationH;
          if (iy < 0 || iy >= ci.inH) continue;
          for (int fx = 0; fx < ci.filterW; ++fx) {
            const int ix = inXOrigin + fx * ci.dilationW;
            if (ix < 0 || ix >= ci.inW) continue;
            const float* xRow =
                xv.data() + ((static_cast<std::size_t>(b) * ci.inH + iy) *
                                 ci.inW +
                             ix) *
                                ci.inC;
            const float* fRow =
                fv.data() + (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                                ci.inC * mult;
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
  applyEpilogue(out, static_cast<std::size_t>(ci.outC), bias, act);
  return store(std::move(out));
}

DataId RefBackend::depthwiseConv2dBackpropInput(const TensorSpec& dy,
                                                const TensorSpec& filter,
                                                const Conv2DInfo& ci) {
  KernelTimer t(kernelMs_);
  const auto& dyv = buf(dy.id);
  const auto& fv = buf(filter.id);
  const int mult = ci.channelMult;
  std::vector<float> dx = allocZeroed(static_cast<std::size_t>(ci.batch) *
                                      ci.inH * ci.inW * ci.inC);
  for (int b = 0; b < ci.batch; ++b) {
    for (int oy = 0; oy < ci.outH; ++oy) {
      const int inYOrigin = oy * ci.strideH - ci.padTop;
      for (int ox = 0; ox < ci.outW; ++ox) {
        const int inXOrigin = ox * ci.strideW - ci.padLeft;
        const float* dyRow =
            dyv.data() + ((static_cast<std::size_t>(b) * ci.outH + oy) *
                              ci.outW +
                          ox) *
                             ci.outC;
        for (int fy = 0; fy < ci.filterH; ++fy) {
          const int iy = inYOrigin + fy * ci.dilationH;
          if (iy < 0 || iy >= ci.inH) continue;
          for (int fx = 0; fx < ci.filterW; ++fx) {
            const int ix = inXOrigin + fx * ci.dilationW;
            if (ix < 0 || ix >= ci.inW) continue;
            float* dxRow =
                dx.data() + ((static_cast<std::size_t>(b) * ci.inH + iy) *
                                 ci.inW +
                             ix) *
                                ci.inC;
            const float* fRow =
                fv.data() + (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                                ci.inC * mult;
            for (int ic = 0; ic < ci.inC; ++ic) {
              float acc = 0;
              for (int q = 0; q < mult; ++q) {
                acc += dyRow[ic * mult + q] * fRow[ic * mult + q];
              }
              dxRow[ic] += acc;
            }
          }
        }
      }
    }
  }
  return store(std::move(dx));
}

DataId RefBackend::depthwiseConv2dBackpropFilter(const TensorSpec& x,
                                                 const TensorSpec& dy,
                                                 const Conv2DInfo& ci) {
  KernelTimer t(kernelMs_);
  const auto& xv = buf(x.id);
  const auto& dyv = buf(dy.id);
  const int mult = ci.channelMult;
  std::vector<float> df = allocZeroed(static_cast<std::size_t>(ci.filterH) *
                                      ci.filterW * ci.inC * mult);
  for (int b = 0; b < ci.batch; ++b) {
    for (int oy = 0; oy < ci.outH; ++oy) {
      const int inYOrigin = oy * ci.strideH - ci.padTop;
      for (int ox = 0; ox < ci.outW; ++ox) {
        const int inXOrigin = ox * ci.strideW - ci.padLeft;
        const float* dyRow =
            dyv.data() + ((static_cast<std::size_t>(b) * ci.outH + oy) *
                              ci.outW +
                          ox) *
                             ci.outC;
        for (int fy = 0; fy < ci.filterH; ++fy) {
          const int iy = inYOrigin + fy * ci.dilationH;
          if (iy < 0 || iy >= ci.inH) continue;
          for (int fx = 0; fx < ci.filterW; ++fx) {
            const int ix = inXOrigin + fx * ci.dilationW;
            if (ix < 0 || ix >= ci.inW) continue;
            const float* xRow =
                xv.data() + ((static_cast<std::size_t>(b) * ci.inH + iy) *
                                 ci.inW +
                             ix) *
                                ci.inC;
            float* fRow =
                df.data() + (static_cast<std::size_t>(fy) * ci.filterW + fx) *
                                ci.inC * mult;
            for (int ic = 0; ic < ci.inC; ++ic) {
              for (int q = 0; q < mult; ++q) {
                fRow[ic * mult + q] += xRow[ic] * dyRow[ic * mult + q];
              }
            }
          }
        }
      }
    }
  }
  return store(std::move(df));
}

DataId RefBackend::pool2d(PoolMode mode, const TensorSpec& x,
                          const Pool2DInfo& pi) {
  KernelTimer t(kernelMs_);
  const auto& xv = buf(x.id);
  std::vector<float> out = allocBuffer(static_cast<std::size_t>(pi.batch) *
                                       pi.outH * pi.outW * pi.channels);
  for (int b = 0; b < pi.batch; ++b) {
    for (int oy = 0; oy < pi.outH; ++oy) {
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
                  xv[((static_cast<std::size_t>(b) * pi.inH + iy) * pi.inW +
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
          out[((static_cast<std::size_t>(b) * pi.outH + oy) * pi.outW + ox) *
                  pi.channels +
              c] = mode == PoolMode::kMax ? acc : acc / std::max(count, 1);
        }
      }
    }
  }
  return store(std::move(out));
}

DataId RefBackend::maxPoolBackprop(const TensorSpec& dy, const TensorSpec& x,
                                   const Pool2DInfo& pi) {
  KernelTimer t(kernelMs_);
  const auto& dyv = buf(dy.id);
  const auto& xv = buf(x.id);
  std::vector<float> dx = allocZeroed(static_cast<std::size_t>(pi.batch) *
                                      pi.inH * pi.inW * pi.channels);
  for (int b = 0; b < pi.batch; ++b) {
    for (int oy = 0; oy < pi.outH; ++oy) {
      for (int ox = 0; ox < pi.outW; ++ox) {
        for (int c = 0; c < pi.channels; ++c) {
          // Re-find the argmax of the window; route the gradient there.
          float best = -kInf;
          int bestIy = -1, bestIx = -1;
          for (int fy = 0; fy < pi.filterH; ++fy) {
            const int iy = oy * pi.strideH - pi.padTop + fy;
            if (iy < 0 || iy >= pi.inH) continue;
            for (int fx = 0; fx < pi.filterW; ++fx) {
              const int ix = ox * pi.strideW - pi.padLeft + fx;
              if (ix < 0 || ix >= pi.inW) continue;
              const float v =
                  xv[((static_cast<std::size_t>(b) * pi.inH + iy) * pi.inW +
                      ix) *
                         pi.channels +
                     c];
              if (v > best) {
                best = v;
                bestIy = iy;
                bestIx = ix;
              }
            }
          }
          if (bestIy >= 0) {
            dx[((static_cast<std::size_t>(b) * pi.inH + bestIy) * pi.inW +
                bestIx) *
                   pi.channels +
               c] +=
                dyv[((static_cast<std::size_t>(b) * pi.outH + oy) * pi.outW +
                     ox) *
                        pi.channels +
                    c];
          }
        }
      }
    }
  }
  return store(std::move(dx));
}

DataId RefBackend::avgPoolBackprop(const TensorSpec& dy,
                                   const Pool2DInfo& pi) {
  KernelTimer t(kernelMs_);
  const auto& dyv = buf(dy.id);
  std::vector<float> dx = allocZeroed(static_cast<std::size_t>(pi.batch) *
                                      pi.inH * pi.inW * pi.channels);
  for (int b = 0; b < pi.batch; ++b) {
    for (int oy = 0; oy < pi.outH; ++oy) {
      for (int ox = 0; ox < pi.outW; ++ox) {
        // Count of in-bounds cells in this window (padding excluded), which
        // matches the forward average's denominator.
        int count = 0;
        for (int fy = 0; fy < pi.filterH; ++fy) {
          const int iy = oy * pi.strideH - pi.padTop + fy;
          if (iy < 0 || iy >= pi.inH) continue;
          for (int fx = 0; fx < pi.filterW; ++fx) {
            const int ix = ox * pi.strideW - pi.padLeft + fx;
            if (ix >= 0 && ix < pi.inW) ++count;
          }
        }
        if (count == 0) continue;
        for (int c = 0; c < pi.channels; ++c) {
          const float g =
              dyv[((static_cast<std::size_t>(b) * pi.outH + oy) * pi.outW +
                   ox) *
                      pi.channels +
                  c] /
              static_cast<float>(count);
          for (int fy = 0; fy < pi.filterH; ++fy) {
            const int iy = oy * pi.strideH - pi.padTop + fy;
            if (iy < 0 || iy >= pi.inH) continue;
            for (int fx = 0; fx < pi.filterW; ++fx) {
              const int ix = ox * pi.strideW - pi.padLeft + fx;
              if (ix < 0 || ix >= pi.inW) continue;
              dx[((static_cast<std::size_t>(b) * pi.inH + iy) * pi.inW + ix) *
                     pi.channels +
                 c] += g;
            }
          }
        }
      }
    }
  }
  return store(std::move(dx));
}

DataId RefBackend::reduce(ReduceOp op, const TensorSpec& x, std::size_t outer,
                          std::size_t n, std::size_t inner) {
  KernelTimer t(kernelMs_);
  const auto& xv = buf(x.id);
  TFJS_CHECK(xv.size() == outer * n * inner);
  std::vector<float> out = allocBuffer(outer * inner);
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t j = 0; j < inner; ++j) {
      // The middle axis of [outer, n, inner], `inner` apart.
      const float* col = xv.data() + o * n * inner + j;
      const auto at = [&](std::size_t i) { return col[i * inner]; };
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
          throw InternalError("Unhandled ReduceOp");
      }
      out[o * inner + j] = acc;
    }
  }
  return store(std::move(out));
}

DataId RefBackend::arg(ArgOp op, const TensorSpec& x, std::size_t outer,
                       std::size_t inner) {
  KernelTimer t(kernelMs_);
  const auto& xv = buf(x.id);
  std::vector<float> out = allocBuffer(outer);
  for (std::size_t o = 0; o < outer; ++o) {
    const float* row = xv.data() + o * inner;
    std::size_t best = 0;
    for (std::size_t i = 1; i < inner; ++i) {
      const bool better =
          op == ArgOp::kArgMax ? row[i] > row[best] : row[i] < row[best];
      if (better) best = i;
    }
    out[o] = static_cast<float>(best);
  }
  return store(std::move(out));
}

namespace {
/// One axis of a copyStrided piece as the odometer walks it: `len` output
/// elements `outStride` apart, reading input coordinates from `start` by
/// `step` (wrapping at `wrap`) `inStride` apart; now at `pos`, element `count`.
struct CopyWalk {
  std::ptrdiff_t len, wrap, start, step, inStride, outStride, pos, count;
};
}  // namespace

DataId RefBackend::copyStrided(std::span<const TensorSpec> inputs,
                               std::span<const CopyAxis> axes,
                               const Shape& outShape, float fillValue) {
  KernelTimer t(kernelMs_);
  const std::vector<int>& outDims = outShape.dims();
  const std::size_t rank = outDims.size();
  std::size_t covered = 0;
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    std::size_t box = 1;
    for (const CopyAxis& a : axes.subspan(j * rank, rank)) box *= a.extent;
    covered += box;
  }
  std::vector<float> out = covered == outShape.size()
                               ? allocBuffer(outShape.size())
                               : allocFilled(outShape.size(), fillValue);
  std::vector<CopyWalk> walks;  // innermost first
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    const std::vector<int>& inDims = inputs[j].shape.dims();
    // Unit axes only move the base offsets. An axis merges into the walk
    // inside it when that walk is whole, runs the same way and stays
    // contiguous on both sides, so a concat or a row slice is one run.
    walks.clear();
    std::ptrdiff_t src = 0, dst = 0, outStride = 1, volume = 1;
    for (std::size_t d = rank; d-- > 0;) {
      const CopyAxis& a = axes[j * rank + d];
      const auto inAxis = static_cast<std::size_t>(a.inAxis);
      std::ptrdiff_t inStride = 1;
      for (std::size_t i = inAxis + 1; i < inDims.size(); ++i) {
        inStride *= inDims[i];
      }
      const CopyWalk w{a.extent, inDims[inAxis], a.start, a.step,
                       inStride, outStride, a.start, 0};
      outStride *= outDims[d];
      src += w.start * w.inStride;
      dst += a.offset * w.outStride;
      volume *= w.len;
      CopyWalk* i = walks.empty() ? nullptr : &walks.back();
      if (w.len == 1) continue;
      if (i && i->len == i->wrap && i->step == w.step &&
                 i->start == (i->step > 0 ? 0 : i->wrap - 1) &&
                 w.inStride == i->inStride * i->wrap &&
                 w.outStride == i->outStride * i->len) {
        const std::ptrdiff_t start = w.start * i->wrap + i->start;
        *i = {w.len * i->len, w.wrap * i->wrap, start, w.step, i->inStride,
              i->outStride, start, 0};
      } else {
        walks.push_back(w);
      }
    }
    if (volume == 0) continue;
    if (walks.empty()) walks.push_back({1, 1, 0, 1, 1, 1, 0, 0});
    const float* in = buf(inputs[j].id).data();
    const CopyWalk& inner = walks.front();
    for (std::size_t i = 0; i != walks.size();) {
      // The innermost walk, as runs between its wraps.
      std::ptrdiff_t o = dst;
      for (std::ptrdiff_t left = inner.len, c = inner.start; left > 0;
           c = inner.step > 0 ? 0 : inner.wrap - 1) {
        const std::ptrdiff_t run =
            std::min(left, inner.step > 0 ? inner.wrap - c : c + 1);
        const float* r = in + src + (c - inner.start) * inner.inStride;
        if (inner.step * inner.inStride == 1 && inner.outStride == 1) {
          std::copy_n(r, run, out.data() + o);
        } else {
          for (std::ptrdiff_t e = 0; e < run; ++e) {
            out[static_cast<std::size_t>(o + e * inner.outStride)] =
                r[e * inner.step * inner.inStride];
          }
        }
        o += run * inner.outStride;
        left -= run;
      }
      // The odometer over the outer walks carries both offsets along.
      for (i = 1; i < walks.size(); ++i) {
        CopyWalk& w = walks[i];
        std::ptrdiff_t next = w.start;
        if (++w.count < w.len) {
          next = w.pos + w.step;
          next = next == w.wrap ? 0 : next < 0 ? w.wrap - 1 : next;
          dst += w.outStride;
        } else {
          w.count = 0;
          dst -= (w.len - 1) * w.outStride;
        }
        src += (next - w.pos) * w.inStride;
        w.pos = next;
        if (w.count != 0) break;
      }
    }
  }
  return store(std::move(out));
}

DataId RefBackend::gather(const TensorSpec& x, const TensorSpec& indices,
                          int axis, const Shape& outShape) {
  KernelTimer t(kernelMs_);
  const auto& xv = buf(x.id);
  const auto& iv = buf(indices.id);
  // x viewed as [outer, axisDim, inner]; indices flat.
  std::size_t outer = 1, inner = 1;
  for (int d = 0; d < axis; ++d) outer *= static_cast<std::size_t>(x.shape[d]);
  for (int d = axis + 1; d < x.shape.rank(); ++d) {
    inner *= static_cast<std::size_t>(x.shape[d]);
  }
  const std::size_t axisDim = static_cast<std::size_t>(x.shape[axis]);
  std::vector<float> out = allocBuffer(outShape.size());
  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t j = 0; j < iv.size(); ++j) {
      const std::int64_t idx = indexAt(iv[j], axisDim);
      TFJS_ARG_CHECK(idx >= 0, "gather index " << iv[j] << " out of range [0, "
                                               << axisDim << ")");
      std::copy_n(xv.data() + (o * axisDim + static_cast<std::size_t>(idx)) *
                                  inner,
                  inner,
                  out.data() + (o * iv.size() + j) * inner);
    }
  }
  return store(std::move(out));
}

DataId RefBackend::resizeBilinear(const TensorSpec& x, int newH, int newW,
                                  bool alignCorners) {
  KernelTimer t(kernelMs_);
  const auto& xv = buf(x.id);
  const int batch = x.shape[0], inH = x.shape[1], inW = x.shape[2],
            c = x.shape[3];
  std::vector<float> out =
      allocBuffer(static_cast<std::size_t>(batch) * newH * newW * c);
  const float hScale =
      alignCorners && newH > 1
          ? static_cast<float>(inH - 1) / static_cast<float>(newH - 1)
          : static_cast<float>(inH) / static_cast<float>(newH);
  const float wScale =
      alignCorners && newW > 1
          ? static_cast<float>(inW - 1) / static_cast<float>(newW - 1)
          : static_cast<float>(inW) / static_cast<float>(newW);
  for (int b = 0; b < batch; ++b) {
    for (int y = 0; y < newH; ++y) {
      const float srcY = alignCorners ? y * hScale : (y + 0.5f) * hScale - 0.5f;
      const float cy = std::clamp(srcY, 0.f, static_cast<float>(inH - 1));
      const int y0 = static_cast<int>(std::floor(cy));
      const int y1 = std::min(y0 + 1, inH - 1);
      const float fy = cy - static_cast<float>(y0);
      for (int xo = 0; xo < newW; ++xo) {
        const float srcX =
            alignCorners ? xo * wScale : (xo + 0.5f) * wScale - 0.5f;
        const float cx = std::clamp(srcX, 0.f, static_cast<float>(inW - 1));
        const int x0 = static_cast<int>(std::floor(cx));
        const int x1 = std::min(x0 + 1, inW - 1);
        const float fx = cx - static_cast<float>(x0);
        for (int ch = 0; ch < c; ++ch) {
          auto at = [&](int yy, int xx) {
            return xv[((static_cast<std::size_t>(b) * inH + yy) * inW + xx) *
                          c +
                      ch];
          };
          const float top = at(y0, x0) * (1 - fx) + at(y0, x1) * fx;
          const float bot = at(y1, x0) * (1 - fx) + at(y1, x1) * fx;
          out[((static_cast<std::size_t>(b) * newH + y) * newW + xo) * c +
              ch] = top * (1 - fy) + bot * fy;
        }
      }
    }
  }
  return store(std::move(out));
}

DataId RefBackend::oneHot(const TensorSpec& indices, int depth, float onValue,
                          float offValue) {
  KernelTimer t(kernelMs_);
  const auto& iv = buf(indices.id);
  std::vector<float> out =
      allocFilled(iv.size() * static_cast<std::size_t>(depth), offValue);
  for (std::size_t i = 0; i < iv.size(); ++i) {
    const std::int64_t idx = indexAt(iv[i], static_cast<std::size_t>(depth));
    if (idx >= 0) {
      out[i * static_cast<std::size_t>(depth) +
          static_cast<std::size_t>(idx)] = onValue;
    }
  }
  return store(std::move(out));
}

namespace {
/// Indices of the k largest elements of row in Backend::topk's order.
std::vector<std::size_t> topkOrder(const float* row, std::size_t inner,
                                   int k) {
  std::vector<std::size_t> idx(inner);
  for (std::size_t i = 0; i < inner; ++i) idx[i] = i;
  const auto kk = static_cast<std::size_t>(k);
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(kk),
                    idx.end(), [row](std::size_t a, std::size_t b) {
                      return topkBefore(row[a], a, row[b], b);
                    });
  idx.resize(kk);
  return idx;
}
}  // namespace

std::pair<DataId, DataId> RefBackend::topk(const TensorSpec& x,
                                           std::size_t outer,
                                           std::size_t inner, int k) {
  KernelTimer t(kernelMs_);
  const auto& xv = buf(x.id);
  const std::size_t kk = static_cast<std::size_t>(k);
  std::vector<float> values = allocBuffer(outer * kk);
  std::vector<float> indices = allocBuffer(outer * kk);
  for (std::size_t o = 0; o < outer; ++o) {
    const float* row = xv.data() + o * inner;
    const auto order = topkOrder(row, inner, k);
    for (std::size_t i = 0; i < kk; ++i) {
      values[o * kk + i] = row[order[i]];
      indices[o * kk + i] = static_cast<float>(order[i]);
    }
  }
  return {store(std::move(values)), store(std::move(indices))};
}

RegionAccess classifyRegionInput(const Shape& s, const Shape& out) {
  if (s == out) return RegionAccess::kDense;
  if (s.size() == 1) return RegionAccess::kScalar;
  if (broadcastsAsSuffix(s, out)) return RegionAccess::kSuffix;
  return RegionAccess::kGeneric;
}

RefBackend::RegionIO RefBackend::regionIO(std::span<const TensorSpec> inputs,
                                          const Shape& outShape, DataId dst) {
  RegionIO io;
  io.ins.resize(inputs.size());
  int dstMatches = 0;
  bool dstDense = false;
  for (std::size_t j = 0; j < inputs.size(); ++j) {
    const TensorSpec& s = inputs[j];
    const auto& v = buf(s.id);
    io.ins[j] = {v.data(), v.size(), classifyRegionInput(s.shape, outShape),
                 &s.shape};
    io.anyGeneric |= io.ins[j].mode == RegionAccess::kGeneric;
    if (dst != 0 && s.id == dst) {
      ++dstMatches;
      dstDense = io.ins[j].mode == RegionAccess::kDense;
    }
  }
  if (dstMatches == 1 && dstDense) {
    io.inPlace = dst;
    io.out = mutableBuf(dst).data();
  } else {
    io.fresh = allocBuffer(outShape.size());
    io.out = io.fresh.data();
  }
  return io;
}

DataId RefBackend::fusedRegion(std::span<const RegionInstr> program,
                               std::span<const TensorSpec> inputs,
                               const Shape& outShape, DataId dst) {
  if (program.empty()) throw BackendError("fusedRegion: empty program");
  KernelTimer t(kernelMs_);
  const std::size_t n = outShape.size();
  RegionIO io = regionIO(inputs, outShape, dst);
  const auto& ins = io.ins;
  float* o = io.out;

  std::vector<int> coords(static_cast<std::size_t>(outShape.rank()));
  std::vector<float> inVals(inputs.size());
  std::vector<float> vals(program.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (io.anyGeneric) util::unravelIndex(i, outShape, coords);
    for (std::size_t j = 0; j < ins.size(); ++j) {
      const RegionIO::In& in = ins[j];
      switch (in.mode) {
        case RegionAccess::kDense: inVals[j] = in.p[i]; break;
        case RegionAccess::kScalar: inVals[j] = in.p[0]; break;
        case RegionAccess::kSuffix: inVals[j] = in.p[i % in.span]; break;
        case RegionAccess::kGeneric:
          inVals[j] = in.p[util::broadcastIndex(coords, *in.shape, outShape)];
          break;
      }
    }
    o[i] = runProgram(program, inVals.data(), vals.data(),
                      [](float v) { return v; });
  }
  return finishRegion(io);
}

void RefBackend::applyEpilogue(std::vector<float>& out, std::size_t n,
                               const TensorSpec* bias,
                               FusedActivation act) const {
  if (bias == nullptr && act == FusedActivation::kNone) return;
  const float* bv = bias != nullptr ? buf(bias->id).data() : nullptr;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = fusedEpilogue(out[i], bv, i % n, act);
  }
}

DataId RefBackend::cumsum(const TensorSpec& x, std::size_t outer,
                          std::size_t inner, bool exclusive, bool reverse) {
  KernelTimer t(kernelMs_);
  const auto& xv = buf(x.id);
  std::vector<float> out = allocBuffer(xv.size());
  for (std::size_t o = 0; o < outer; ++o) {
    const float* row = xv.data() + o * inner;
    float* dst = out.data() + o * inner;
    float acc = 0;
    for (std::size_t j = 0; j < inner; ++j) {
      const std::size_t i = reverse ? inner - 1 - j : j;
      if (exclusive) {
        dst[i] = acc;
        acc += row[i];
      } else {
        acc += row[i];
        dst[i] = acc;
      }
    }
  }
  return store(std::move(out));
}

}  // namespace tfjs::backends
