// Op-level microbenchmarks across the three backends: matMul / conv2d /
// depthwiseConv2d / softmax size sweeps. These quantify the per-backend
// character Table 1 aggregates — the interpreted CPU's per-element dispatch,
// the native backend's blocked GEMM, and the webgl-sim executor (wall time
// is the simulator's host cost; kernel time is the modeled device).
//
// With --threads-sweep the binary instead measures the native backend's
// intra-op scaling (GEMM 1024x1024 and a 16M-element add by default) at
// 1/2/4/hardware_concurrency threads and writes BENCH_threads.json —
// run it from the repo root so the JSON lands there:
//   ./build/bench/bench_ops_micro --threads-sweep
//       [--json BENCH_threads.json] [--gemm-n 1024] [--add-elems 16777216]
//       [--runs 3]
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "backends/register.h"
#include "bench/harness.h"
#include "core/engine.h"
#include "ops/ops.h"

namespace o = tfjs::ops;

namespace {

const char* backendForIndex(std::int64_t i) {
  switch (i) {
    case 0: return "cpu";
    case 1: return "native";
    default: return "webgl";
  }
}

void BM_MatMul(benchmark::State& state) {
  tfjs::setBackend(backendForIndex(state.range(0)));
  const int n = static_cast<int>(state.range(1));
  tfjs::Tensor a = o::randomNormal(tfjs::Shape{n, n}, 0, 1, 1);
  tfjs::Tensor b = o::randomNormal(tfjs::Shape{n, n}, 0, 1, 2);
  for (auto _ : state) {
    tfjs::Tensor c = o::matMul(a, b);
    c.dataSync();
    c.dispose();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
  a.dispose();
  b.dispose();
}
BENCHMARK(BM_MatMul)
    ->ArgsProduct({{0, 1, 2}, {64, 128, 256}})
    ->Unit(benchmark::kMillisecond);

void BM_Conv2D(benchmark::State& state) {
  tfjs::setBackend(backendForIndex(state.range(0)));
  const int size = static_cast<int>(state.range(1));
  tfjs::Tensor x = o::randomNormal(tfjs::Shape{1, size, size, 16}, 0, 1, 3);
  tfjs::Tensor f = o::randomNormal(tfjs::Shape{3, 3, 16, 16}, 0, 1, 4);
  for (auto _ : state) {
    tfjs::Tensor y = o::conv2d(x, f, 1, 1, tfjs::PadMode::kSame);
    y.dataSync();
    y.dispose();
  }
  x.dispose();
  f.dispose();
}
BENCHMARK(BM_Conv2D)
    ->ArgsProduct({{0, 1, 2}, {16, 32}})
    ->Unit(benchmark::kMillisecond);

void BM_DepthwiseConv2D(benchmark::State& state) {
  tfjs::setBackend(backendForIndex(state.range(0)));
  const int size = static_cast<int>(state.range(1));
  tfjs::Tensor x = o::randomNormal(tfjs::Shape{1, size, size, 32}, 0, 1, 5);
  tfjs::Tensor f = o::randomNormal(tfjs::Shape{3, 3, 32, 1}, 0, 1, 6);
  for (auto _ : state) {
    tfjs::Tensor y = o::depthwiseConv2d(x, f, 1, 1, tfjs::PadMode::kSame);
    y.dataSync();
    y.dispose();
  }
  x.dispose();
  f.dispose();
}
BENCHMARK(BM_DepthwiseConv2D)
    ->ArgsProduct({{0, 1, 2}, {32, 64}})
    ->Unit(benchmark::kMillisecond);

void BM_Softmax(benchmark::State& state) {
  tfjs::setBackend(backendForIndex(state.range(0)));
  tfjs::Tensor x = o::randomNormal(tfjs::Shape{64, 1000}, 0, 1, 7);
  for (auto _ : state) {
    tfjs::Tensor y = o::softmax(x);
    y.dataSync();
    y.dispose();
  }
  x.dispose();
}
BENCHMARK(BM_Softmax)->ArgsProduct({{0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- threads sweep mode

/// Average wall ms of `runs` timed calls of f (after one warm-up).
double avgWallMs(int runs, const std::function<void()>& f) {
  f();  // warm-up
  double sum = 0;
  for (int i = 0; i < runs; ++i) sum += tfjs::time(f).wallMs;
  return sum / runs;
}

int runThreadsSweep(const std::string& jsonPath, int gemmN,
                    std::size_t addElems, int runs) {
  tfjs::setBackend("native");
  const unsigned hwRaw = std::thread::hardware_concurrency();
  const int hw = hwRaw == 0 ? 1 : static_cast<int>(hwRaw);
  std::set<int> counts{1, 2, 4, hw};

  tfjs::Tensor a = o::randomNormal(tfjs::Shape{gemmN, gemmN}, 0, 1, 1);
  tfjs::Tensor b = o::randomNormal(tfjs::Shape{gemmN, gemmN}, 0, 1, 2);
  const int addDim = static_cast<int>(addElems);
  tfjs::Tensor x = o::randomNormal(tfjs::Shape{addDim}, 0, 1, 3);
  tfjs::Tensor y = o::randomNormal(tfjs::Shape{addDim}, 0, 1, 4);

  struct Point {
    int threads;
    double gemmMs, addMs;
  };
  std::vector<Point> points;
  const double gemmFlops = 2.0 * gemmN * gemmN * gemmN;
  std::printf("== native backend intra-op thread sweep ==\n");
  std::printf("hardware_concurrency: %d\n\n", hw);
  char gemmLabel[32];
  std::snprintf(gemmLabel, sizeof gemmLabel, "gemm %dx%d (ms)", gemmN, gemmN);
  std::printf("%8s %18s %10s %14s\n", "threads", gemmLabel, "GFLOP/s",
              "add (ms)");
  for (int t : counts) {
    tfjs::setNumThreads(t);
    Point p;
    p.threads = t;
    p.gemmMs = avgWallMs(runs, [&] {
      tfjs::tidyVoid([&] { o::matMul(a, b).dataSync(); });
    });
    p.addMs = avgWallMs(runs, [&] {
      tfjs::tidyVoid([&] { o::add(x, y).dataSync(); });
    });
    points.push_back(p);
    std::printf("%8d %18.2f %10.1f %14.2f\n", t, p.gemmMs,
                gemmFlops / (p.gemmMs * 1e6), p.addMs);
  }
  a.dispose();
  b.dispose();
  x.dispose();
  y.dispose();

  tfjs::io::Json doc;
  doc["bench"] = "bench_ops_micro --threads-sweep";
  doc["backend"] = "native";
  doc["runs_per_point"] = runs;
  tfjs::io::Json& gemm = doc["gemm"];
  gemm["m"] = gemm["k"] = gemm["n"] = gemmN;
  tfjs::io::Json& add = doc["add_same_shape"];
  add["elems"] = addElems;
  tfjs::io::JsonArray gemmPoints, addPoints;
  const double gemmBase = points.front().gemmMs;
  const double addBase = points.front().addMs;
  for (const Point& p : points) {
    tfjs::io::Json g;
    g["threads"] = p.threads;
    g["ms"] = p.gemmMs;
    g["gflops"] = gemmFlops / (p.gemmMs * 1e6);
    g["speedup_vs_1"] = gemmBase / p.gemmMs;
    gemmPoints.push_back(std::move(g));
    tfjs::io::Json a;
    a["threads"] = p.threads;
    a["ms"] = p.addMs;
    a["speedup_vs_1"] = addBase / p.addMs;
    addPoints.push_back(std::move(a));
  }
  gemm["points"] = std::move(gemmPoints);
  add["points"] = std::move(addPoints);
  if (!tfjs::bench::writeBench(std::move(doc), jsonPath)) return 1;
  std::printf("\nwrote %s\n", jsonPath.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tfjs::backends::registerAll();

  bool sweep = false;
  std::string jsonPath = "BENCH_threads.json";
  int gemmN = 1024, runs = 3;
  std::size_t addElems = std::size_t{16} * 1024 * 1024;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads-sweep") == 0) {
      sweep = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (std::strcmp(argv[i], "--gemm-n") == 0 && i + 1 < argc) {
      gemmN = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--add-elems") == 0 && i + 1 < argc) {
      addElems = static_cast<std::size_t>(std::stoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      runs = std::stoi(argv[++i]);
    }
  }
  if (sweep) return runThreadsSweep(jsonPath, gemmN, addElems, runs);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
