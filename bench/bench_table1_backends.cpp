// E1 — Table 1 reproduction: MobileNet v1 inference time per backend.
//
// Paper (MobileNet v1 1.0, 224x224x3, averaged over 100 runs):
//   Plain JS               3426 ms      1x
//   WebGL (Intel Iris Pro)   49 ms     71x
//   WebGL (GTX 1080)          5 ms    685x
//   Node.js CPU w/ AVX2      87 ms     39x
//   Node.js CUDA (GTX 1080)   3 ms   1105x
//
// Here (DESIGN.md section 6): the plain-CPU and native backends are measured
// wall-clock on this machine; the GPU rows use the discrete-event device
// model (public hardware constants; FLOP/fetch counts from the actually
// executed kernels). The *shape* — who wins and by roughly what factor — is
// the reproduction target, not the absolute numbers.
//
// Flags: --alpha <f> --size <n> --runs <n> (defaults 1.0 / 224 / paper-style
// averaging with fewer repeats on the slow simulated paths), plus
// --json <path> (default BENCH_table1.json; run from the repo root so the
// file lands there). The native backend's intra-op thread scaling is
// bench_ops_micro --threads-sweep (BENCH_threads.json).
#include <cstdio>
#include <cstring>
#include <string>

#include "backends/register.h"
#include "backends/webgl/webgl_backend.h"
#include "bench/harness.h"
#include "core/engine.h"
#include "models/mobilenet.h"
#include "ops/ops.h"

namespace o = tfjs::ops;
using tfjs::backends::webgl::WebGLOptions;

namespace {

struct Row {
  std::string label;
  double ms = 0;
  std::string basis;
};

/// One inference, returning (wallMs, kernelMs).
tfjs::TimingInfo inferOnce(tfjs::layers::Sequential& model,
                           const tfjs::Tensor& x) {
  return tfjs::time([&] {
    tfjs::Tensor y = model.predict(x);
    y.dataSync();
    y.dispose();
  });
}

Row runBackend(const std::string& backend, const std::string& label,
               const tfjs::models::MobileNetOptions& mn, int runs,
               bool modeled) {
  tfjs::setBackend(backend);
  auto model = tfjs::models::buildMobileNetV1(mn);
  tfjs::Tensor x = o::randomNormal(
      tfjs::Shape{1, mn.inputSize, mn.inputSize, 3}, 0, 1, 7);
  inferOnce(*model, x);  // warm-up: builds weights, primes the recycler
  double wallSum = 0, kernelSum = 0;
  for (int i = 0; i < runs; ++i) {
    tfjs::TimingInfo t = inferOnce(*model, x);
    wallSum += t.wallMs;
    kernelSum += t.kernelMs;
  }
  x.dispose();
  model->dispose();
  Row row;
  row.label = label;
  row.ms = (modeled ? kernelSum : wallSum) / runs;
  row.basis = modeled ? "modeled device" : "measured wall";
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  tfjs::backends::registerAll();

  tfjs::models::MobileNetOptions mn;
  int fastRuns = 100, slowRuns = 2;
  std::string jsonPath = "BENCH_table1.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--alpha") == 0) {
      mn.alpha = std::stof(argv[++i]);
    } else if (std::strcmp(argv[i], "--size") == 0) {
      mn.inputSize = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      fastRuns = slowRuns = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      jsonPath = argv[++i];
    }
  }

  // GPU-device variants share the simulator; only the cost model differs.
  using namespace tfjs::backends::webgl;
  registerBackendVariant("webgl-gtx1080", [] {
    WebGLOptions o;
    o.device = gtx1080WebGL();
    return o;
  }());
  registerBackendVariant("cuda-gtx1080", [] {
    WebGLOptions o;
    o.device = gtx1080Cuda();
    return o;
  }());

  std::printf(
      "== Table 1: MobileNet v1 %.2f_%d single inference ==\n"
      "(paper: plain JS 3426ms, WebGL IrisPro 49ms (71x), WebGL GTX1080 5ms "
      "(685x),\n Node CPU AVX2 87ms (39x), Node CUDA GTX1080 3ms (1105x))\n\n",
      mn.alpha, mn.inputSize);
  std::printf("model FLOPs per inference: %.3f G\n\n",
              tfjs::models::mobileNetV1Flops(mn) / 1e9);

  std::vector<Row> rows;
  rows.push_back(
      runBackend("cpu", "Plain JS analogue (interpreted CPU)", mn, slowRuns,
                 /*modeled=*/false));
  rows.push_back(runBackend("webgl", "WebGL (Intel Iris Pro)", mn, slowRuns,
                            /*modeled=*/true));
  rows.push_back(runBackend("webgl-gtx1080", "WebGL (GTX 1080)", mn, slowRuns,
                            /*modeled=*/true));
  rows.push_back(runBackend("native", "Native CPU w/ AVX (TF-C analogue)",
                            mn, fastRuns, /*modeled=*/false));
  rows.push_back(runBackend("cuda-gtx1080", "CUDA (GTX 1080)", mn, slowRuns,
                            /*modeled=*/true));

  const double base = rows[0].ms;
  std::printf("%-36s %12s %10s   %s\n", "backend", "time (ms)", "speedup",
              "basis");
  for (const auto& r : rows) {
    std::printf("%-36s %12.2f %9.1fx   %s\n", r.label.c_str(), r.ms,
                base / r.ms, r.basis.c_str());
  }
  std::printf(
      "\nShape check: plain << {WebGL IrisPro, native CPU} << GTX-class; "
      "CUDA > WebGL on the same GPU: %s\n",
      (rows[0].ms > 10 * rows[1].ms && rows[0].ms > 10 * rows[3].ms &&
       rows[1].ms > rows[2].ms && rows[2].ms > rows[4].ms)
          ? "HOLDS"
          : "VIOLATED");

  tfjs::io::JsonArray jRows;
  for (const auto& r : rows) {
    tfjs::io::Json row;
    row["label"] = r.label;
    row["ms"] = r.ms;
    row["speedup_vs_plain"] = base / r.ms;
    row["basis"] = r.basis;
    jRows.push_back(std::move(row));
  }
  tfjs::io::Json doc;
  doc["bench"] = "bench_table1_backends";
  doc["model"]["name"] = "mobilenet_v1";
  doc["model"]["alpha"] = mn.alpha;
  doc["model"]["input_size"] = mn.inputSize;
  doc["model"]["gflops"] = tfjs::models::mobileNetV1Flops(mn) / 1e9;
  doc["rows"] = std::move(jRows);
  if (!tfjs::bench::writeBench(std::move(doc), jsonPath)) return 1;
  std::printf("\nwrote %s\n", jsonPath.c_str());
  return 0;
}
