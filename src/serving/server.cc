#include "serving/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/engine.h"
#include "core/error.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "ops/ops.h"

namespace tfjs::serving {

namespace o = ops;
using Clock = std::chrono::steady_clock;

namespace {

double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// [n, ...example] — the example shape with a batch dimension prepended.
Shape batchShape(const Shape& example, int n) {
  std::vector<int> dims;
  dims.reserve(static_cast<std::size_t>(example.rank()) + 1);
  dims.push_back(n);
  for (int d : example.dims()) dims.push_back(d);
  return Shape(std::move(dims));
}

metrics::Gauge& queueDepthGauge() {
  static metrics::Gauge& g =
      metrics::Registry::get().gauge("serving.queue_depth");
  return g;
}

}  // namespace

// ---------------------------------------------------------------- Session

std::future<InferenceResult> Session::infer(std::vector<float> input,
                                            const Shape& exampleShape) {
  bool accepted = false;
  auto fut = server_->submit(*this, std::move(input), exampleShape,
                             /*blocking=*/true, accepted);
  if (!accepted) {
    throw Error("serving: session '" + name_ +
                "' submitted to a stopped server");
  }
  return fut;
}

std::optional<std::future<InferenceResult>> Session::tryInfer(
    std::vector<float> input, const Shape& exampleShape) {
  bool accepted = false;
  auto fut = server_->submit(*this, std::move(input), exampleShape,
                             /*blocking=*/false, accepted);
  if (!accepted) return std::nullopt;
  return fut;
}

InferenceResult Session::inferSync(std::vector<float> input,
                                   const Shape& exampleShape) {
  return infer(std::move(input), exampleShape).get();
}

// --------------------------------------------------------- InferenceServer

InferenceServer::InferenceServer(std::unique_ptr<layers::Sequential> model,
                                 ServerOptions opts)
    : opts_(std::move(opts)),
      model_(std::move(model)),
      queue_(opts_.queueCapacity) {
  TFJS_ARG_CHECK(model_ != nullptr, "InferenceServer needs a model");
  TFJS_ARG_CHECK(opts_.maxBatch >= 1,
                 "maxBatch must be >= 1, got " << opts_.maxBatch);
  scheduler_ = std::thread([this] { schedulerMain(); });
}

InferenceServer::~InferenceServer() { stop(); }

std::shared_ptr<Session> InferenceServer::createSession(std::string name) {
  const int id = nextSessionId_.fetch_add(1, std::memory_order_relaxed);
  if (name.empty()) name = "session-" + std::to_string(id);
  // Session's constructor is private; sessions only come from a server.
  return std::shared_ptr<Session>(new Session(this, std::move(name), id));
}

void InferenceServer::stop() {
  queue_.close();
  // Two concurrent callers (an explicit stop() racing the destructor) must
  // not both join: call_once lets exactly one caller join while late
  // callers block until the drain completes.
  std::call_once(joinOnce_, [this] { scheduler_.join(); });
}

InferenceServer::Stats InferenceServer::stats() const {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.maxBatchSize = maxBatchSize_.load(std::memory_order_relaxed);
  const std::uint64_t served = served_.load(std::memory_order_relaxed);
  s.inFlightAtSnapshot = s.requests > served ? s.requests - served : 0;
  return s;
}

std::future<InferenceResult> InferenceServer::submit(
    Session& session, std::vector<float> input, const Shape& exampleShape,
    bool blocking, bool& accepted) {
  static metrics::Counter& requestsCounter =
      metrics::Registry::get().counter("serving.requests");
  static metrics::Counter& rejectedCounter =
      metrics::Registry::get().counter("serving.rejected");
  TFJS_ARG_CHECK(input.size() == exampleShape.size(),
                 "serving: input length " << input.size()
                                          << " does not match example shape "
                                          << exampleShape.toString());
  internal::Request req;
  req.promise = std::make_shared<std::promise<InferenceResult>>();
  req.input = std::move(input);
  req.exampleShape = exampleShape;
  req.submitted = Clock::now();
  req.sessionId = session.id();
  auto fut = req.promise->get_future();

  accepted = blocking ? queue_.push(std::move(req))
                      : queue_.tryPush(std::move(req));
  if (accepted) {
    session.submitted_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(1, std::memory_order_relaxed);
    requestsCounter.inc();
    queueDepthGauge().set(static_cast<std::int64_t>(queue_.size()));
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    rejectedCounter.inc();
  }
  return fut;
}

void InferenceServer::schedulerMain() {
  // All tensor work is confined to this thread; the backend choice is the
  // engine-global active backend (the serving process serves one device).
  // Any exception escaping a std::thread is std::terminate for the whole
  // process, so a bad backend name must not leak out of here: fail every
  // request with the error until the server is stopped instead.
  try {
    setBackend(opts_.backend);
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    while (true) {
      auto r = queue_.popFor(std::chrono::milliseconds(20));
      if (!r) {
        if (queue_.closed() && queue_.size() == 0) return;
        continue;
      }
      std::vector<internal::Request> one;
      one.push_back(std::move(*r));
      failGroup(one, err);
    }
  }

  while (true) {
    if (pending_.empty()) {
      auto r = queue_.popFor(std::chrono::milliseconds(20));
      if (!r) {
        if (queue_.closed() && queue_.size() == 0) break;
        continue;
      }
      pending_.push_back(std::move(*r));
    }

    // Form a batch around the oldest deferred request: linger up to
    // batchDelayMs for shape-mates, bounded by maxBatch.
    const Shape shape = pending_.front().exampleShape;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               opts_.batchDelayMs));
    auto countMates = [&] {
      return std::count_if(pending_.begin(), pending_.end(),
                           [&](const internal::Request& p) {
                             return p.exampleShape == shape;
                           });
    };
    while (countMates() < opts_.maxBatch) {
      auto r = queue_.popUntil(deadline);
      if (!r) break;
      pending_.push_back(std::move(*r));
    }
    queueDepthGauge().set(static_cast<std::int64_t>(queue_.size()));

    // Other shapes stay deferred and lead the next batch.
    std::vector<internal::Request> group = takeShapeMates(shape);
    runBatch(group);
  }

  // Closed and drained: anything still deferred is served before exit.
  while (!pending_.empty()) {
    std::vector<internal::Request> group =
        takeShapeMates(pending_.front().exampleShape);
    runBatch(group);
  }
}

std::vector<internal::Request> InferenceServer::takeShapeMates(
    const Shape& shape) {
  std::vector<internal::Request> group;
  group.reserve(static_cast<std::size_t>(opts_.maxBatch));
  for (auto it = pending_.begin();
       it != pending_.end() &&
       group.size() < static_cast<std::size_t>(opts_.maxBatch);) {
    if (it->exampleShape == shape) {
      group.push_back(std::move(*it));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return group;
}

void InferenceServer::runBatch(std::vector<internal::Request>& group) {
  static metrics::Counter& batchesCounter =
      metrics::Registry::get().counter("serving.batches");
  static metrics::Histogram& batchSizeHist =
      metrics::Registry::get().histogram("serving.batch_size");
  static metrics::Histogram& queueHist =
      metrics::Registry::get().histogram("serving.queue_ms");

  if (group.empty()) return;
  trace::Span span("serving", "batch");
  const auto formed = Clock::now();
  const int batch = static_cast<int>(group.size());
  const Shape& example = group.front().exampleShape;

  // The group's inputs are copied into one [batch, ...] host buffer: one
  // upload, one forward pass, one readback whose rows are split on the
  // host. Everything that can throw (a request shape the model rejects, a
  // kernel failure) stays inside the try: an exception escaping the
  // scheduler's std::thread would std::terminate the whole server, so a
  // failed pass must reject only this group's promises and leave the
  // scheduler serving other tenants.
  Tensor batched;
  Tensor out;
  try {
    std::vector<float> host;
    host.reserve(group.front().input.size() * group.size());
    for (const auto& req : group) {
      host.insert(host.end(), req.input.begin(), req.input.end());
    }
    batched =
        Engine::get().makeTensorFromHost(host, batchShape(example, batch));
    out = model_->predict(batched);
    const std::vector<float> values = out.dataSync();

    std::vector<int> exampleDims = out.shape().dims();
    exampleDims[0] = 1;
    const Shape exampleOut{std::move(exampleDims)};
    const std::size_t rowSize = values.size() / static_cast<std::size_t>(batch);
    for (std::size_t i = 0; i < group.size(); ++i) {
      InferenceResult res;
      res.values.assign(values.begin() + i * rowSize,
                        values.begin() + (i + 1) * rowSize);
      res.shape = exampleOut;
      res.batchSize = batch;
      res.queueMs = msBetween(group[i].submitted, formed);
      res.totalMs = msBetween(group[i].submitted, Clock::now());
      queueHist.observe(res.queueMs);
      fulfill(group[i], std::move(res));
    }
  } catch (...) {
    if (out.defined()) out.dispose();
    if (batched.defined()) batched.dispose();
    failGroup(group, std::current_exception());
    return;
  }
  out.dispose();
  batched.dispose();

  batches_.fetch_add(1, std::memory_order_relaxed);
  served_.fetch_add(static_cast<std::uint64_t>(batch),
                    std::memory_order_relaxed);
  batchesCounter.inc();
  batchSizeHist.observe(batch);
  int prevMax = maxBatchSize_.load(std::memory_order_relaxed);
  while (batch > prevMax &&
         !maxBatchSize_.compare_exchange_weak(prevMax, batch,
                                              std::memory_order_relaxed)) {
  }
}

void InferenceServer::fulfill(internal::Request& req, InferenceResult result) {
  static metrics::Histogram& latencyHist =
      metrics::Registry::get().histogram("serving.latency_ms");
  latencyHist.observe(result.totalMs);
  if (opts_.responseLoop != nullptr) {
    // Route the completion through the event loop: the promise resolves on
    // the loop thread, like a browser promise resolving on the JS main
    // thread. This is the cross-thread postTask path.
    auto promise = req.promise;
    auto shared = std::make_shared<InferenceResult>(std::move(result));
    opts_.responseLoop->postTask(
        [promise, shared] { promise->set_value(std::move(*shared)); });
  } else {
    req.promise->set_value(std::move(result));
  }
  // A null promise marks the request settled, so a failure later in the
  // same batch (failGroup) knows not to touch it again.
  req.promise.reset();
}

void InferenceServer::failGroup(std::vector<internal::Request>& group,
                                const std::exception_ptr& err) {
  static metrics::Counter& failedCounter =
      metrics::Registry::get().counter("serving.failed");
  for (auto& req : group) {
    if (!req.promise) continue;  // settled before the failure
    req.promise->set_exception(err);
    req.promise.reset();
    failed_.fetch_add(1, std::memory_order_relaxed);
    failedCounter.inc();
    // Failed requests are settled, not in flight: count them served so
    // Stats::inFlightAtSnapshot stays accurate.
    served_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace tfjs::serving
