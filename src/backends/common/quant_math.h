// Scalar quantization math shared by the reference oracle and the native
// SIMD kernels. Both backends call these exact functions for everything that
// is not the integer dot product itself — row quantization, zero-point
// correction and the f32 epilogue — and the integer
// accumulation is exact under any ordering, so ref and native results are
// bitwise identical by construction (DESIGN.md "Quantized execution").
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/backend.h"
#include "core/quant.h"

namespace tfjs::backends::qmath {

/// Largest K for which the worst-case u8*s8 dot product (255 * 127 per term)
/// cannot overflow the i32 accumulator. Kernels with a longer inner
/// dimension fall back to the dequantized f32 path.
inline constexpr int kMaxAccumK =
    std::numeric_limits<std::int32_t>::max() / (255 * 127);  // 66310

/// Dynamic per-row activation quantization: asymmetric uint8 codes
///   q = round(clamp(x * (1/scale), -zp, 255 - zp)) + zp
/// over a range nudged to include 0, so a 0.0 input (e.g. conv zero padding)
/// maps exactly to the zero point and contributes exactly nothing after the
/// zero-point correction. Multiply-by-inverse (not division) and
/// round-to-nearest-even, with the clamp done in float space *before* the
/// rounding: every step is a single IEEE operation with an exact SIMD
/// counterpart (mul / min / max / cvtps), so the native backend's vector
/// row quantizer reproduces these codes bit-for-bit.
struct RowQuant {
  float scale = 1.f;
  float invScale = 1.f;
  std::int32_t zp = 0;
};

inline bool allFinite(const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

/// Derives the row parameters from a [lo, hi] range that includes 0 (both
/// seeds are 0, so lo <= 0 <= hi by construction). Split out so a SIMD
/// min/max scan can feed the same derivation as the scalar scan — min/max
/// are exact at any association, so the reduced range is identical.
inline RowQuant chooseFromMinMax(float lo, float hi) {
  RowQuant rq;
  const float scale = (hi - lo) / 255.f;
  rq.scale = scale > 0 ? scale : 1.f;
  rq.invScale = 1.f / rq.scale;
  rq.zp = static_cast<std::int32_t>(std::lround(-lo / rq.scale));
  rq.zp = std::clamp(rq.zp, std::int32_t{0}, std::int32_t{255});
  return rq;
}

/// Chooses the row's quantization from its min/max (assumes finite input;
/// callers pre-scan with allFinite and fall back to f32 otherwise). An
/// all-zero row degenerates to scale 1 / zp 0, which encodes it exactly.
inline RowQuant chooseRowQuant(const float* row, std::size_t k) {
  float lo = 0.f, hi = 0.f;
  for (std::size_t i = 0; i < k; ++i) {
    lo = std::min(lo, row[i]);
    hi = std::max(hi, row[i]);
  }
  return chooseFromMinMax(lo, hi);
}

inline std::uint8_t quantizeActivation(float v, const RowQuant& rq) {
  // Clamping in float space keeps the rounded value inside [0, 255], so the
  // i32 cast is always in range (and matches a saturating SIMD narrowing).
  const float t = std::min(std::max(v * rq.invScale,
                                    static_cast<float>(-rq.zp)),
                           static_cast<float>(255 - rq.zp));
  return static_cast<std::uint8_t>(
      static_cast<std::int32_t>(std::nearbyintf(t)) + rq.zp);
}

inline void quantizeRow(const float* row, std::size_t k, const RowQuant& rq,
                        std::uint8_t* q) {
  for (std::size_t i = 0; i < k; ++i) q[i] = quantizeActivation(row[i], rq);
}

/// Converts weight codes held in float storage (see core/dtype.h: int8
/// elements are stored as float) to raw int8.
inline void weightsToInt8(const float* w, std::size_t n, std::int8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::int8_t>(std::lrintf(w[i]));
  }
}

/// Per-output-channel weight code sums, used for the activation zero-point
/// correction below.
inline void colSums(const std::int8_t* w, int k, int n, std::int32_t* sums) {
  std::fill(sums, sums + n, 0);
  for (int p = 0; p < k; ++p) {
    const std::int8_t* row = w + static_cast<std::size_t>(p) * n;
    for (int j = 0; j < n; ++j) sums[j] += row[j];
  }
}

/// Dequantizes one i32 accumulator:
///   real = (acc - zpA * colSum[j]) * (scaleA * scaleW[j])
/// The centered term is computed in 64-bit (zpA*colSum can reach
/// 255*127*K ~ 2^31) and converted to float once — deterministic across
/// backends and SIMD widths.
inline float dequantAcc(std::int32_t acc, const RowQuant& rq,
                        std::int32_t colSum, float wScale) {
  const std::int64_t centered =
      static_cast<std::int64_t>(acc) -
      static_cast<std::int64_t>(rq.zp) * static_cast<std::int64_t>(colSum);
  return static_cast<float>(centered) * (rq.scale * wScale);
}

}  // namespace tfjs::backends::qmath
