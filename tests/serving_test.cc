// Multi-tenant serving tests: the RequestQueue contract, dynamic batching
// bit-identity (batched forward passes must equal unbatched ones exactly),
// weight sharing across sessions, shape bucketing, backpressure, and the
// event-loop completion path.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/event_loop.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "layers/conv_layers.h"
#include "layers/core_layers.h"
#include "layers/quantize.h"
#include "layers/sequential.h"
#include "models/mobilenet.h"
#include "ops/ops.h"
#include "serving/request_queue.h"
#include "serving/server.h"
#include "tests/test_util.h"

namespace tfjs {
namespace {

namespace o = ops;
using layers::Dense;
using layers::DenseOptions;
using layers::Sequential;
using serving::InferenceResult;
using serving::InferenceServer;
using serving::RequestQueue;
using serving::ServerOptions;

/// Tiny MLP: [4] -> Dense(8, relu) -> Dense(3, softmax). Layer names are
/// fixed, so every instance draws bit-identical weights (per-weight seeds
/// hash the layer/weight name).
std::unique_ptr<Sequential> makeMlp() {
  auto model = std::make_unique<Sequential>("serving_mlp");
  DenseOptions d1;
  d1.units = 8;
  d1.activation = "relu";
  d1.name = "fc1";
  model->add(std::make_shared<Dense>(d1));
  DenseOptions d2;
  d2.units = 3;
  d2.activation = "softmax";
  d2.name = "fc2";
  model->add(std::make_shared<Dense>(d2));
  return model;
}

/// Small conv net that accepts any spatial size (conv -> GAP -> dense):
/// used to exercise shape bucketing with one set of weights.
std::unique_ptr<Sequential> makeConvNet() {
  auto model = std::make_unique<Sequential>("serving_conv");
  layers::Conv2DOptions c;
  c.filters = 4;
  c.kernelH = c.kernelW = 3;
  c.padding = "same";
  c.activation = "relu";
  c.name = "conv";
  model->add(std::make_shared<layers::Conv2D>(c));
  model->add(std::make_shared<layers::GlobalAveragePooling2D>("gap"));
  DenseOptions d;
  d.units = 2;
  d.name = "head";
  model->add(std::make_shared<Dense>(d));
  return model;
}

std::vector<float> randomInput(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.f, 1.f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Ground truth: a [1, ...] forward pass through `model` on the current
/// backend, values downloaded to host.
std::vector<float> directPredict(Sequential& model,
                                 const std::vector<float>& input,
                                 const Shape& exampleShape) {
  std::vector<int> dims{1};
  for (int d : exampleShape.dims()) dims.push_back(d);
  Tensor x = Engine::get().makeTensorFromHost(input, Shape(dims));
  Tensor y = model.predict(x);
  std::vector<float> out = y.dataSync();
  x.dispose();
  y.dispose();
  return out;
}

// ----------------------------------------------------------- RequestQueue

TEST(RequestQueueTest, FifoAndCapacity) {
  RequestQueue<int> q(2);
  EXPECT_TRUE(q.tryPush(1));
  EXPECT_TRUE(q.tryPush(2));
  EXPECT_FALSE(q.tryPush(3));  // full: load shed
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.tryPop().value(), 1);
  EXPECT_EQ(q.tryPop().value(), 2);
  EXPECT_FALSE(q.tryPop().has_value());
}

TEST(RequestQueueTest, BlockingPushWaitsForSpace) {
  RequestQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(2);  // blocks until the consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.popFor(std::chrono::milliseconds(100)).value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.tryPop().value(), 2);
}

TEST(RequestQueueTest, CloseUnblocksAndDrains) {
  RequestQueue<int> q(4);
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));     // rejected after close
  EXPECT_FALSE(q.tryPush(9));
  EXPECT_EQ(q.popFor(std::chrono::milliseconds(1)).value(), 7);  // drains
  EXPECT_FALSE(q.popFor(std::chrono::milliseconds(1)).has_value());
}

// --------------------------------------------------------------- serving

TEST(ServingTest, SingleRequestMatchesDirectPredict) {
  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 1;
  InferenceServer server(makeMlp(), opts);
  auto session = server.createSession("alice");

  const auto input = randomInput(4, 1);
  InferenceResult res = session->inferSync(input, Shape{4});
  EXPECT_EQ(res.batchSize, 1);
  EXPECT_EQ(res.shape.toString(), Shape({1, 3}).toString());

  server.stop();
  setBackend("native");
  EXPECT_EQ(res.values, directPredict(server.model(), input, Shape{4}));
}

TEST(ServingTest, BatchedOutputsBitIdenticalToUnbatched) {
  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 8;
  opts.batchDelayMs = 100;  // generous linger so all 8 coalesce
  InferenceServer server(makeMlp(), opts);
  auto session = server.createSession();

  constexpr int kRequests = 8;
  std::vector<std::vector<float>> inputs;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(randomInput(4, 100 + static_cast<std::uint32_t>(i)));
    futures.push_back(session->infer(inputs.back(), Shape{4}));
  }
  std::vector<InferenceResult> results;
  for (auto& f : futures) results.push_back(f.get());
  server.stop();

  // Batching must have actually coalesced (the linger window is 100 ms and
  // all 8 requests were queued within microseconds of each other).
  EXPECT_GE(server.stats().maxBatchSize, 2);
  EXPECT_EQ(server.stats().requests, static_cast<std::uint64_t>(kRequests));

  // Per-request outputs must be bitwise equal to the unbatched forward.
  setBackend("native");
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].values,
              directPredict(server.model(), inputs[static_cast<std::size_t>(i)],
                            Shape{4}))
        << "request " << i << " (batchSize "
        << results[static_cast<std::size_t>(i)].batchSize << ")";
  }
}

TEST(ServingTest, BatchedPassIsOneUploadAndOneReadback) {
  // The group's inputs become one tensor and the output is split on the
  // host: no concat or slice kernel runs on the scheduler.
  trace::Recorder& recorder = trace::Recorder::get();
  recorder.setCapacity(1 << 16);
  recorder.clear();
  recorder.setEnabled(true);
  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 8;
  opts.batchDelayMs = 100;
  InferenceServer server(makeMlp(), opts);
  auto session = server.createSession();
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(session->infer(
        randomInput(4, 200 + static_cast<std::uint32_t>(i)), Shape{4}));
  }
  for (auto& f : futures) f.get();
  server.stop();
  recorder.setEnabled(false);
  const std::vector<trace::Event> events = recorder.snapshot();
  recorder.clear();

  EXPECT_GE(server.stats().maxBatchSize, 2);
  int ops = 0;
  for (const trace::Event& e : events) {
    if (std::string(e.category) != "op") continue;
    ++ops;
    EXPECT_NE(e.name, "concat");
    EXPECT_NE(e.name, "slice");
  }
  EXPECT_GT(ops, 0) << "the forward passes recorded no op spans";
}

TEST(ServingTest, TwoSessionsShareWeightsBitIdenticalToSequential) {
  models::MobileNetOptions mopts;
  mopts.alpha = 0.25f;
  mopts.inputSize = 32;
  mopts.numClasses = 10;

  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 4;
  opts.batchDelayMs = 20;
  InferenceServer server(models::buildMobileNetV1(mopts), opts);

  const Shape example{32, 32, 3};
  constexpr int kPerSession = 3;
  std::vector<std::vector<float>> inputsA, inputsB;
  for (int i = 0; i < kPerSession; ++i) {
    inputsA.push_back(randomInput(example.size(),
                                  300 + static_cast<std::uint32_t>(i)));
    inputsB.push_back(randomInput(example.size(),
                                  400 + static_cast<std::uint32_t>(i)));
  }

  // Two concurrent clients, each on its own thread, sharing one weight set.
  std::vector<InferenceResult> resultsA(kPerSession), resultsB(kPerSession);
  auto client = [&](const char* name,
                    const std::vector<std::vector<float>>& inputs,
                    std::vector<InferenceResult>& results) {
    auto session = server.createSession(name);
    std::vector<std::future<InferenceResult>> futures;
    for (const auto& in : inputs) {
      futures.push_back(session->infer(in, example));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      results[i] = futures[i].get();
    }
  };
  std::thread threadA(client, "alice", std::cref(inputsA),
                      std::ref(resultsA));
  std::thread threadB(client, "bob", std::cref(inputsB), std::ref(resultsB));
  threadA.join();
  threadB.join();
  server.stop();

  // Ground truth: the same model, driven sequentially single-request.
  setBackend("native");
  for (int i = 0; i < kPerSession; ++i) {
    EXPECT_EQ(resultsA[static_cast<std::size_t>(i)].values,
              directPredict(server.model(),
                            inputsA[static_cast<std::size_t>(i)], example))
        << "session A request " << i;
    EXPECT_EQ(resultsB[static_cast<std::size_t>(i)].values,
              directPredict(server.model(),
                            inputsB[static_cast<std::size_t>(i)], example))
        << "session B request " << i;
  }
}

TEST(ServingTest, TwoSessionsBatchSharedQuantizedMobileNet) {
  // Mirror of the f32 two-session parity test on an int8-quantized model:
  // both sessions batch against ONE shared set of int8 weights (and the
  // native backend's packed-panel cache), and because activations are
  // quantized per GEMM row, batching cannot change any request's result —
  // outputs must equal the unbatched quantized pass bit for bit.
  models::MobileNetOptions mopts;
  mopts.alpha = 0.25f;
  mopts.inputSize = 32;
  mopts.numClasses = 10;

  setBackend("native");
  auto model = models::buildMobileNetV1(mopts);
  model->build(Shape{1, mopts.inputSize, mopts.inputSize, 3});
  const int quantized = layers::quantizeWeightsInt8(*model);
  EXPECT_GT(quantized, 0) << "MobileNet must have quantizable kernels";

  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 4;
  opts.batchDelayMs = 20;
  InferenceServer server(std::move(model), opts);

  const Shape example{32, 32, 3};
  constexpr int kPerSession = 3;
  std::vector<std::vector<float>> inputsA, inputsB;
  for (int i = 0; i < kPerSession; ++i) {
    inputsA.push_back(randomInput(example.size(),
                                  500 + static_cast<std::uint32_t>(i)));
    inputsB.push_back(randomInput(example.size(),
                                  600 + static_cast<std::uint32_t>(i)));
  }

  std::vector<InferenceResult> resultsA(kPerSession), resultsB(kPerSession);
  auto client = [&](const char* name,
                    const std::vector<std::vector<float>>& inputs,
                    std::vector<InferenceResult>& results) {
    auto session = server.createSession(name);
    std::vector<std::future<InferenceResult>> futures;
    for (const auto& in : inputs) {
      futures.push_back(session->infer(in, example));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      results[i] = futures[i].get();
    }
  };
  std::thread threadA(client, "alice", std::cref(inputsA),
                      std::ref(resultsA));
  std::thread threadB(client, "bob", std::cref(inputsB), std::ref(resultsB));
  threadA.join();
  threadB.join();
  server.stop();

  // Ground truth: the same quantized model, driven sequentially unbatched.
  setBackend("native");
  for (int i = 0; i < kPerSession; ++i) {
    EXPECT_EQ(resultsA[static_cast<std::size_t>(i)].values,
              directPredict(server.model(),
                            inputsA[static_cast<std::size_t>(i)], example))
        << "quantized session A request " << i;
    EXPECT_EQ(resultsB[static_cast<std::size_t>(i)].values,
              directPredict(server.model(),
                            inputsB[static_cast<std::size_t>(i)], example))
        << "quantized session B request " << i;
  }
}

TEST(ServingTest, ThreeBackendParity) {
  // One instance per backend (identical layer names -> identical weights);
  // results must agree across backends to float tolerance.
  const auto input = randomInput(4, 7);
  std::vector<std::vector<float>> perBackend;
  for (const char* backend : {"native", "cpu", "webgl"}) {
    setBackend(backend);
    ServerOptions opts;
    opts.backend = backend;
    opts.maxBatch = 2;
    InferenceServer server(makeMlp(), opts);
    auto session = server.createSession();
    perBackend.push_back(session->inferSync(input, Shape{4}).values);
    server.stop();
  }
  ASSERT_EQ(perBackend.size(), 3u);
  for (std::size_t b = 1; b < perBackend.size(); ++b) {
    ASSERT_EQ(perBackend[b].size(), perBackend[0].size());
    for (std::size_t i = 0; i < perBackend[0].size(); ++i) {
      EXPECT_NEAR(perBackend[b][i], perBackend[0][i], 1e-4f)
          << "backend " << b << " index " << i;
    }
  }
  setBackend("native");
}

TEST(ServingTest, MixedShapesBucketSeparately) {
  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 8;
  opts.batchDelayMs = 30;
  InferenceServer server(makeConvNet(), opts);
  auto session = server.createSession();

  const Shape small{6, 6, 3};
  const Shape large{10, 10, 3};
  // Build the model on the small shape first so both shapes flow through
  // the same built weights (conv/GAP/dense are spatial-size agnostic).
  const auto warm = randomInput(small.size(), 500);
  session->inferSync(warm, small);

  std::vector<std::vector<float>> smallIn, largeIn;
  std::vector<std::future<InferenceResult>> smallFut, largeFut;
  for (int i = 0; i < 3; ++i) {
    smallIn.push_back(randomInput(small.size(),
                                  600 + static_cast<std::uint32_t>(i)));
    largeIn.push_back(randomInput(large.size(),
                                  700 + static_cast<std::uint32_t>(i)));
    smallFut.push_back(session->infer(smallIn.back(), small));
    largeFut.push_back(session->infer(largeIn.back(), large));
  }
  std::vector<InferenceResult> smallRes, largeRes;
  for (auto& f : smallFut) smallRes.push_back(f.get());
  for (auto& f : largeFut) largeRes.push_back(f.get());
  server.stop();

  setBackend("native");
  for (std::size_t i = 0; i < smallRes.size(); ++i) {
    // A batch never mixes shapes, so outputs match the per-shape direct run.
    EXPECT_EQ(smallRes[i].values,
              directPredict(server.model(), smallIn[i], small));
    EXPECT_EQ(largeRes[i].values,
              directPredict(server.model(), largeIn[i], large));
    EXPECT_LE(smallRes[i].batchSize, 4);  // at most the 3 smalls + warmup
    EXPECT_LE(largeRes[i].batchSize, 3);
  }
}

TEST(ServingTest, TryInferShedsLoadWhenQueueFull) {
  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 1;
  opts.batchDelayMs = 0;
  opts.queueCapacity = 2;
  InferenceServer server(makeMlp(), opts);
  auto session = server.createSession();

  constexpr int kOffered = 200;
  int accepted = 0, rejected = 0;
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < kOffered; ++i) {
    auto fut = session->tryInfer(randomInput(4, 800), Shape{4});
    if (fut) {
      futures.push_back(std::move(*fut));
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // 200 submissions land in microseconds; a capacity-2 queue in front of a
  // real forward pass must shed some of them.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
  for (auto& f : futures) f.get();  // everything accepted completes
  server.stop();
  EXPECT_EQ(server.stats().rejected, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(server.stats().requests, static_cast<std::uint64_t>(accepted));
}

TEST(ServingTest, StopDrainsOutstandingRequestsAndRejectsNew) {
  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 4;
  opts.batchDelayMs = 5;
  InferenceServer server(makeMlp(), opts);
  auto session = server.createSession();

  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(session->infer(randomInput(4, 900), Shape{4}));
  }
  server.stop();  // must serve everything already accepted
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    f.get();
  }
  EXPECT_THROW(session->infer(randomInput(4, 901), Shape{4}), Error);
}

TEST(ServingTest, CompletionsRouteThroughEventLoop) {
  async::EventLoop loop(60);
  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 4;
  opts.batchDelayMs = 1;
  opts.responseLoop = &loop;
  InferenceServer server(makeMlp(), opts);
  auto session = server.createSession();

  // The scheduler thread posts completions into the loop while the main
  // thread runs it — the cross-thread postTask path.
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(session->infer(randomInput(4, 950), Shape{4}));
  }
  loop.run(300);
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
    EXPECT_EQ(f.get().values.size(), 3u);
  }
  server.stop();
}

TEST(ServingTest, MetricsAndStatsPopulated) {
  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 4;
  opts.batchDelayMs = 10;
  InferenceServer server(makeMlp(), opts);
  auto session = server.createSession();
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(session->infer(randomInput(4, 990), Shape{4}));
  }
  for (auto& f : futures) {
    const InferenceResult r = f.get();
    EXPECT_GE(r.totalMs, r.queueMs);
    EXPECT_GE(r.batchSize, 1);
  }
  server.stop();

  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 12u);
  EXPECT_GE(stats.batches, 3u);   // 12 requests, maxBatch 4
  EXPECT_LE(stats.batches, 12u);
  EXPECT_GE(stats.meanBatchSize(), 1.0);
  EXPECT_EQ(session->requestsSubmitted(), 12u);

  const auto batchHist =
      metrics::Registry::get().histogram("serving.batch_size").snapshot();
  EXPECT_GE(batchHist.count, stats.batches);
  const auto latHist =
      metrics::Registry::get().histogram("serving.latency_ms").snapshot();
  EXPECT_GT(latHist.count, 0u);
}

TEST(ServingTest, ModelRejectedShapeFailsOnlyThatRequest) {
  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 4;
  opts.batchDelayMs = 1;
  InferenceServer server(makeMlp(), opts);
  auto session = server.createSession();

  // First request builds the MLP for feature width 4.
  EXPECT_EQ(session->inferSync(randomInput(4, 70), Shape{4}).values.size(),
            3u);

  // A 5-wide example passes the length==shape.size() submit check but is
  // rejected by the built model inside predict. Pre-fix, that exception
  // escaped the scheduler's std::thread and std::terminate'd the whole
  // server; now it must surface through this request's future only.
  auto bad = session->infer(randomInput(5, 71), Shape{5});
  EXPECT_THROW(bad.get(), Error);

  // The scheduler survived: other tenants keep being served.
  auto other = server.createSession("bob");
  EXPECT_EQ(other->inferSync(randomInput(4, 72), Shape{4}).values.size(),
            3u);

  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.inFlightAtSnapshot, 0u);
}

TEST(ServingTest, BadBackendFailsRequestsWithoutTerminating) {
  ServerOptions opts;
  opts.backend = "no-such-backend";
  opts.maxBatch = 2;
  InferenceServer server(makeMlp(), opts);
  auto session = server.createSession();
  auto fut = session->infer(randomInput(4, 80), Shape{4});
  EXPECT_THROW(fut.get(), Error);
  server.stop();
  EXPECT_EQ(server.stats().failed, 1u);
  setBackend("native");
}

TEST(ServingTest, ConcurrentStopCallsAreSafe) {
  ServerOptions opts;
  opts.backend = "native";
  opts.maxBatch = 4;
  opts.batchDelayMs = 1;
  auto server = std::make_unique<InferenceServer>(makeMlp(), opts);
  auto session = server->createSession();
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(session->infer(randomInput(4, 85), Shape{4}));
  }

  // Several explicit stop() calls race each other and then the destructor;
  // exactly one may join the scheduler thread (double-join is UB).
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&server] { server->stop(); });
  }
  for (auto& t : stoppers) t.join();
  for (auto& f : futures) f.get();  // stop() drained everything accepted
  session.reset();                  // sessions must not outlive the server
  server.reset();                   // destructor's stop() is the late caller
}

}  // namespace
}  // namespace tfjs
