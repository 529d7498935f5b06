// Serving bench (ISSUE 6 acceptance gate): the multi-tenant inference
// server's dynamic batching must buy >= 2x the saturation throughput of the
// unbatched (maxBatch=1) configuration at a mean batch size >= 4, with
// per-request outputs bit-identical to a direct single-example forward
// pass (batching changes scheduling, never results).
//
// Workload: the MLP tower (bench/harness.h) on the native backend. At batch
// 1 every matMul is a GEMV and per-op dispatch overhead is comparable to
// compute: the regime dynamic batching targets. Saturation is a closed
// firehose (blocking submits against the bounded queue), unbatched vs
// batched. Open-loop serving (Poisson arrivals, rate ladders, latency
// percentiles) is perfbench's serve_tower workload.
//
// Emits BENCH_serving.json in the working directory.
#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "backends/register.h"
#include "bench/harness.h"
#include "core/engine.h"
#include "serving/server.h"

using tfjs::Shape;
using tfjs::serving::InferenceResult;
using tfjs::serving::InferenceServer;
using tfjs::serving::ServerOptions;
using Clock = std::chrono::steady_clock;

namespace {

const Shape kExample{32};  // one tower input

ServerOptions serverOpts(int maxBatch) {
  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = maxBatch;
  opts.batchDelayMs = 1.0;
  opts.queueCapacity = 64;
  return opts;
}

std::vector<std::vector<float>> makeInputs(int n) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<float> dist(-1.f, 1.f);
  std::vector<std::vector<float>> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<float> v(kExample.size());
    for (auto& x : v) x = dist(rng);
    inputs.push_back(std::move(v));
  }
  return inputs;
}

// ----------------------------------------------------------- saturation

struct SaturationResult {
  double rps = 0;
  double meanBatch = 0;
  int maxBatch = 0;
};

/// Peak sustainable throughput: `total` blocking submits against the
/// bounded queue keep the scheduler saturated; elapsed time to the last
/// completion is the denominator.
SaturationResult saturate(int maxBatch, int total,
                          const std::vector<std::vector<float>>& inputs) {
  InferenceServer server(tfjs::bench::buildTower(), serverOpts(maxBatch));
  auto session = server.createSession("firehose");
  session->inferSync(inputs[0], kExample);  // build weights, warm caches

  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(total));
  const auto t0 = Clock::now();
  for (int i = 0; i < total; ++i) {
    futures.push_back(
        session->infer(inputs[static_cast<std::size_t>(i) % inputs.size()],
                       kExample));
  }
  for (auto& f : futures) f.get();
  const double elapsedS =
      std::chrono::duration<double>(Clock::now() - t0).count();
  server.stop();

  SaturationResult r;
  r.rps = static_cast<double>(total) / elapsedS;
  r.meanBatch = server.stats().meanBatchSize();
  r.maxBatch = server.stats().maxBatchSize;
  return r;
}

// ------------------------------------------------------------ bit-identity

/// Batched results must match a direct [1,...] forward pass exactly.
bool verifyBitIdentical(const std::vector<std::vector<float>>& inputs) {
  ServerOptions opts = serverOpts(8);
  opts.batchDelayMs = 50;  // force coalescing
  InferenceServer server(tfjs::bench::buildTower(), opts);
  auto session = server.createSession("verify");
  std::vector<std::future<InferenceResult>> futures;
  for (const auto& in : inputs) {
    futures.push_back(session->infer(in, kExample));
  }
  std::vector<InferenceResult> results;
  for (auto& f : futures) results.push_back(f.get());
  server.stop();

  tfjs::setBackend("native");
  bool identical = true;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    tfjs::Tensor x =
        tfjs::Engine::get().makeTensorFromHost(inputs[i], Shape{1, 32});
    tfjs::Tensor y = server.model().predict(x);
    identical = identical && y.dataSync() == results[i].values;
    x.dispose();
    y.dispose();
  }
  return identical;
}

}  // namespace

int main() {
  tfjs::backends::registerAll();

  constexpr int kBatched = 8;
  constexpr int kRequests = 512;

  const auto inputs = makeInputs(16);
  const bool identical = verifyBitIdentical(inputs);
  const SaturationResult unbatched = saturate(/*maxBatch=*/1, kRequests, inputs);
  const SaturationResult batched = saturate(kBatched, kRequests, inputs);
  const double speedup = unbatched.rps > 0 ? batched.rps / unbatched.rps : 0;
  std::printf("tower saturation: unbatched %.0f req/s, batched %.0f req/s "
              "(%.2fx, mean batch %.1f, max %d), bit-identical: %s\n",
              unbatched.rps, batched.rps, speedup, batched.meanBatch,
              batched.maxBatch, identical ? "yes" : "NO");

  tfjs::io::Json doc;
  doc["bench"] = "serving";
  doc["backend"] = "native";
  doc["workload"] = "MLP tower 32x32 wide/deep, 10 classes";
  doc["requests"] = kRequests;
  doc["unbatched_rps"] = unbatched.rps;
  doc["batched_rps"] = batched.rps;
  doc["speedup"] = speedup;
  doc["batched_mean_batch"] = batched.meanBatch;
  doc["batched_max_batch"] = batched.maxBatch;
  doc["bit_identical"] = identical;
  tfjs::bench::writeBench(std::move(doc), "BENCH_serving.json");

  const bool pass = speedup >= 2.0 && batched.meanBatch >= 4.0 && identical;
  std::printf("gate (tower batched >= 2x unbatched at mean batch >= 4, "
              "bit-identical): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
