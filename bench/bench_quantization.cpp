// E10 — weight quantization (paper section 5.1): "The user can also
// quantize the weights, reducing the model size by 4X."
//
// Two sections, both written to BENCH_quant.json:
//  * transport — MobileNet weights serialized at fp32 / uint16 / uint8 /
//    int8; reported: total manifest bytes (the 4x claim), shard counts under
//    the 4 MB limit (E11), worst-case dequantization error, and top-1
//    prediction agreement between the full-precision and quantized models.
//  * execution — the paper stops at transport (weights are dequantized to
//    f32 before running); the int8 path here executes quantized. Wall time
//    per inference (bench_table1 methodology: predict + dataSync after a
//    warm-up) f32 vs int8 on MobileNet 1.0_224 (the BENCH_table1 native
//    row), MobileNet 0.25_32, and the serving MLP tower, with max abs output
//    error and top-1 agreement. The two models run alternately, one
//    inference each per pair, so both sides of a pair see the same host
//    phase; the speedup is the median of the per-pair f32/int8 ratios.
//
// Gate: int8 MobileNet 1.0_224 >= 2x faster than f32 native (median pair
// ratio) with < 1% top-1 disagreement on the synthetic eval.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "backends/register.h"
#include "bench/harness.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "io/model_io.h"
#include "layers/quantize.h"
#include "models/mobilenet.h"
#include "ops/ops.h"

namespace o = tfjs::ops;
using tfjs::Shape;
using tfjs::Tensor;
using tfjs::layers::Sequential;

namespace {

/// Top-1 agreement between two models over n synthetic images.
double agreement(Sequential& a, Sequential& b, int inputSize, int n) {
  int same = 0;
  for (int i = 0; i < n; ++i) {
    tfjs::data::Image img = tfjs::data::makeTestImage(
        inputSize, inputSize, static_cast<float>(8 + (i * 7) % inputSize),
        static_cast<float>(5 + (i * 13) % inputSize),
        static_cast<std::uint64_t>(i));
    Tensor x = tfjs::data::fromPixels(img);
    Tensor pa = a.predict(x);
    Tensor pb = b.predict(x);
    Tensor ia = o::argMax(pa, -1);
    Tensor ib = o::argMax(pb, -1);
    same += ia.dataSync()[0] == ib.dataSync()[0];
    for (Tensor t : {x, pa, pb, ia, ib}) t.dispose();
  }
  return static_cast<double>(same) / n;
}

/// Weight values for error comparison: int8 weights are dequantized first so
/// the comparison is in real units, not codes.
std::vector<float> realValues(const Tensor& w) {
  if (w.dtype() != tfjs::DType::i8 || w.quantParams() == nullptr) {
    return w.dataSync();
  }
  Tensor d = o::dequantize(w);
  std::vector<float> v = d.dataSync();
  d.dispose();
  return v;
}

// ------------------------------------------------------------- execution

/// Wall ms of one predict + dataSync.
double inferMs(Sequential& model, const Tensor& x) {
  return tfjs::time([&] {
           Tensor y = model.predict(x);
           y.dataSync();
           y.dispose();
         })
      .wallMs;
}

/// Max abs difference between the two models' outputs on one input.
double maxOutputError(Sequential& a, Sequential& b, const Tensor& x) {
  Tensor ya = a.predict(x);
  Tensor yb = b.predict(x);
  const auto va = ya.dataSync();
  const auto vb = yb.dataSync();
  double err = 0;
  for (std::size_t i = 0; i < va.size(); ++i) {
    err = std::max(err, static_cast<double>(std::fabs(va[i] - vb[i])));
  }
  ya.dispose();
  yb.dispose();
  return err;
}

struct ExecResult {
  double f32Ms = 0;   ///< mean over the pairs
  double int8Ms = 0;  ///< mean over the pairs
  double speedup = 0; ///< median of the per-pair f32/int8 ratios
  double maxAbsErr = 0;
  double top1Agree = 1.0;
  int kernelsQuantized = 0;
};

/// Times an f32 model against its int8-quantized twin (identical layer
/// names draw bit-identical weights) on one input shape.
ExecResult execCompare(std::unique_ptr<Sequential> f32Model,
                       std::unique_ptr<Sequential> int8Model,
                       const Shape& inputShape, int runs, int agreeImages,
                       int agreeSize) {
  f32Model->build(inputShape);
  int8Model->build(inputShape);
  ExecResult r;
  r.kernelsQuantized = tfjs::layers::quantizeWeightsInt8(*int8Model);

  Tensor x = o::randomNormal(inputShape, 0, 1, 7);
  // Warm-up: builds weights, primes pools and packed-weight caches.
  inferMs(*f32Model, x);
  inferMs(*int8Model, x);
  std::vector<double> ratios;
  for (int i = 0; i < runs; ++i) {
    const double f32 = inferMs(*f32Model, x);
    const double int8 = inferMs(*int8Model, x);
    r.f32Ms += f32 / runs;
    r.int8Ms += int8 / runs;
    ratios.push_back(f32 / int8);
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  r.speedup = ratios.size() % 2 == 1 ? ratios[mid]
                                     : (ratios[mid - 1] + ratios[mid]) / 2;
  r.maxAbsErr = maxOutputError(*f32Model, *int8Model, x);
  if (agreeImages > 0) {
    r.top1Agree = agreement(*f32Model, *int8Model, agreeSize, agreeImages);
  }
  x.dispose();
  f32Model->dispose();
  int8Model->dispose();
  return r;
}

tfjs::io::Json execJson(const char* workload, const ExecResult& r) {
  tfjs::io::Json j;
  j["workload"] = workload;
  j["f32_ms"] = r.f32Ms;
  j["int8_ms"] = r.int8Ms;
  j["speedup"] = r.speedup;
  j["max_abs_output_err"] = r.maxAbsErr;
  j["top1_agreement"] = r.top1Agree;
  j["kernels_quantized"] = r.kernelsQuantized;
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  tfjs::backends::registerAll();
  tfjs::setBackend("native");

  // --fast trims the 1.0_224 pair count for smoke runs.
  int bigRuns = 11, bigAgree = 25;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      bigRuns = 5;
      bigAgree = 5;
    }
  }

  tfjs::io::Json doc;
  doc["bench"] = "quantization";
  doc["backend"] = "native";

  // ---------------------------------------------------------- transport
  tfjs::models::MobileNetOptions mn;
  mn.alpha = 0.5f;
  mn.inputSize = 64;
  mn.numClasses = 100;
  auto model = tfjs::models::buildMobileNetV1(mn);
  const Shape inputShape{1, mn.inputSize, mn.inputSize, 3};
  model->build(inputShape);

  std::printf("== Quantization (section 5.1): MobileNet %.2f_%d, %zu params "
              "==\n\n", mn.alpha, mn.inputSize, model->countParams());
  std::printf("%-10s %14s %8s %16s %16s\n", "format", "weight bytes",
              "shards", "max |error|", "top-1 agreement");

  tfjs::io::JsonArray transport;
  using tfjs::io::Quantization;
  for (Quantization q : {Quantization::kNone, Quantization::kUint16,
                         Quantization::kUint8, Quantization::kInt8}) {
    tfjs::io::SaveOptions save;
    save.quantization = q;
    tfjs::io::ModelArtifacts artifacts =
        tfjs::io::serializeModel(*model, inputShape, save);
    auto loaded = tfjs::io::deserializeModel(artifacts);

    // Max dequantization error over all weights (int8 weights stay codes
    // at rest — dequantized here for comparison only).
    double maxErr = 0;
    const auto origWeights = model->weights();
    const auto newWeights = loaded->weights();
    for (std::size_t i = 0; i < origWeights.size(); ++i) {
      const auto a = realValues(origWeights[i].value());
      const auto b = realValues(newWeights[i].value());
      for (std::size_t j = 0; j < a.size(); ++j) {
        maxErr = std::max(maxErr, static_cast<double>(std::fabs(a[j] - b[j])));
      }
    }
    const double agree = agreement(*model, *loaded, mn.inputSize, 20);
    std::printf("%-10s %14zu %8zu %16.6f %15.0f%%\n",
                tfjs::io::quantizationName(q),
                artifacts.weights.totalBytes(),
                artifacts.weights.shards.size(), maxErr, agree * 100);
    tfjs::io::Json row;
    row["format"] = tfjs::io::quantizationName(q);
    row["weight_bytes"] = artifacts.weights.totalBytes();
    row["shards"] = artifacts.weights.shards.size();
    row["max_weight_err"] = maxErr;
    row["top1_agreement"] = agree;
    transport.push_back(std::move(row));
    loaded->dispose();
  }
  doc["transport"] = std::move(transport);
  model->dispose();

  // ---------------------------------------------------------- execution
  std::printf("\n== Execution: f32 vs int8 quantized kernels (native) ==\n\n");
  std::printf("%-18s %12s %12s %9s %14s %10s\n", "workload", "f32 ms",
              "int8 ms", "speedup", "max |out err|", "top-1");

  auto report = [](const char* name, const ExecResult& r) {
    std::printf("%-18s %12.3f %12.3f %8.2fx %14.6f %9.0f%%\n", name, r.f32Ms,
                r.int8Ms, r.speedup, r.maxAbsErr, r.top1Agree * 100);
  };

  // The BENCH_table1 native-row workload (MobileNet v1 1.0_224): the gate.
  tfjs::models::MobileNetOptions big;
  const ExecResult gate = execCompare(
      tfjs::models::buildMobileNetV1(big), tfjs::models::buildMobileNetV1(big),
      Shape{1, big.inputSize, big.inputSize, 3}, bigRuns, bigAgree,
      big.inputSize);
  report("mobilenet_1.0_224", gate);

  // The serving workloads (bench_serving shapes) for the satellite table.
  tfjs::models::MobileNetOptions small;
  small.alpha = 0.25f;
  small.inputSize = 32;
  small.numClasses = 10;
  const ExecResult smallRes = execCompare(
      tfjs::models::buildMobileNetV1(small),
      tfjs::models::buildMobileNetV1(small),
      Shape{1, small.inputSize, small.inputSize, 3}, 50, 100,
      small.inputSize);
  report("mobilenet_0.25_32", smallRes);

  const ExecResult towerRes =
      execCompare(tfjs::bench::buildTower(), tfjs::bench::buildTower(),
                  Shape{1, 32}, 200, 0, 0);
  report("mlp_tower_32x32", towerRes);

  tfjs::io::Json& exec = doc["execution"];
  exec["methodology"] =
      "wall ms of predict+dataSync after warm-up, single input, f32 and int8 "
      "alternating one inference each; ms are means over the pairs, speedup "
      "the median per-pair f32/int8 ratio";
  exec["mobilenet_224"] = execJson("MobileNet v1 1.0_224", gate);
  exec["mobilenet_0.25_32"] =
      execJson("MobileNet v1 0.25_32, 10 classes", smallRes);
  exec["tower"] = execJson("MLP tower 32 wide x 32 deep", towerRes);

  const bool pass = gate.speedup >= 2.0 && gate.top1Agree >= 0.99;
  tfjs::io::Json& gateJson = doc["gate"];
  gateJson["criterion"] =
      "int8 mobilenet_1.0_224 >= 2x f32 wall (median per-pair ratio), top-1 "
      "agreement >= 99% vs f32";
  gateJson["speedup"] = gate.speedup;
  gateJson["top1_agreement"] = gate.top1Agree;
  gateJson["pass"] = pass;
  tfjs::bench::writeBench(std::move(doc), "BENCH_quant.json");

  std::printf("\nShape check: int8 shrinks the bundle ~4x like uint8 AND "
              "executes >= 2x faster than f32 (the paper's transport-only "
              "quantization leaves that on the table).\n");
  std::printf("gate (int8 1.0_224 >= 2x f32, top-1 agreement >= 99%%): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
