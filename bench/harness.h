// What the bench programs share: writing a BENCH_*.json document with its
// provenance, the timing and A/B helpers their gates use, and the MLP tower
// workload. Documents are io::Json, so object keys come out sorted.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/json.h"
#include "layers/core_layers.h"
#include "layers/sequential.h"

#ifndef TFJS_BENCH_BUILD_TYPE
#define TFJS_BENCH_BUILD_TYPE "unknown"
#endif

namespace tfjs::bench {

/// Adds a "provenance" object (build type, compiler, hardware threads) to
/// `doc` and writes it to `path` with a trailing newline. Returns false and
/// prints a warning when the file cannot be written.
inline bool writeBench(io::Json doc, const std::string& path) {
  io::Json& provenance = doc["provenance"];
  provenance["build_type"] = TFJS_BENCH_BUILD_TYPE;
  provenance["compiler"] = __VERSION__;
  provenance["hardware_concurrency"] =
      static_cast<int>(std::thread::hardware_concurrency());
  std::ofstream f(path);
  f << doc.dump(2) << "\n";
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Wall ms per pass of `fn`, over `inner` back-to-back passes. Sub-ms
/// passes need batching: a single pass is within scheduler-jitter range of
/// the clock.
template <typename Fn>
double passMs(Fn&& fn, int inner = 1) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < inner; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / inner;
}

inline bool bitIdentical(const std::vector<float>& a,
                         const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// How much smaller `opt` is than `base`, in percent of `base`.
inline double reductionPct(std::uint64_t base, std::uint64_t opt) {
  return base == 0 ? 0.0
                   : 100.0 * (1.0 - static_cast<double>(opt) /
                                        static_cast<double>(base));
}

/// A deep, narrow MLP: 32 Dense(32, relu) layers and a Dense(10, softmax)
/// head. At batch 1 every matMul is a GEMV, so per-op dispatch costs about
/// as much as compute: the ranking-tower shape of production serving.
inline std::unique_ptr<layers::Sequential> buildTower() {
  auto m = std::make_unique<layers::Sequential>("tower");
  for (int i = 0; i < 32; ++i) {
    layers::DenseOptions d;
    d.units = 32;
    d.activation = "relu";
    d.name = "fc" + std::to_string(i);
    m->add(std::make_shared<layers::Dense>(d));
  }
  layers::DenseOptions head;
  head.units = 10;
  head.activation = "softmax";
  head.name = "head";
  m->add(std::make_shared<layers::Dense>(head));
  return m;
}

}  // namespace tfjs::bench
