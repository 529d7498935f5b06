// Multi-tenant inference serving with dynamic batching.
//
// The paper's thesis is that one shared engine can serve many independent
// clients on commodity hardware; this module is that claim turned into a
// subsystem. N client sessions submit single-example requests into a
// bounded MPSC RequestQueue; one scheduler thread coalesces shape-
// compatible requests into a single batched forward pass over one shared
// set of loaded weights (batching amortizes per-op dispatch overhead — the
// reason TF Eager keeps per-request dispatch cheap): one upload of the
// group's inputs, one pass, one readback split into per-request results.
//
// Threading contract:
//  * all tensor/op work happens on the scheduler thread (the engine's op
//    path is single-threaded by design — see core/engine.h);
//  * clients cross the boundary with host float vectors only, never
//    tensors;
//  * completions are fulfilled on the scheduler thread, or routed through
//    an async::EventLoop (ServerOptions::responseLoop) the way browser
//    promise resolutions land on the JS main thread — which is exactly the
//    cross-thread postTask path that demanded the thread-safe EventLoop;
//  * a failed forward pass (e.g. the model rejects a request's shape)
//    rejects only that batch's promises — the exception is delivered
//    through each affected future, always on the scheduler thread, and the
//    scheduler keeps serving other tenants.
//
// Batching policy: requests are bucketed by example shape (no cross-shape
// padding — a [32,32,3] image never pays for a [224,224,3] neighbour). The
// scheduler takes the oldest request, lingers up to batchDelayMs for
// shape-mates (up to maxBatch), runs one forward pass, and splits its rows.
// Backpressure: the queue is bounded; Session::infer blocks when it is
// full, Session::tryInfer sheds load instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/event_loop.h"
#include "core/shape.h"
#include "layers/sequential.h"
#include "serving/request_queue.h"

namespace tfjs::serving {

struct ServerOptions {
  /// Backend the scheduler thread activates before serving.
  std::string backend = "native";
  /// Largest number of requests coalesced into one forward pass. 1 disables
  /// batching (the unbatched baseline configuration).
  int maxBatch = 8;
  /// After the first request of a batch arrives, linger this long for
  /// shape-compatible company before dispatching a partial batch.
  double batchDelayMs = 1.0;
  /// Bound of the MPSC request queue (the backpressure knob).
  std::size_t queueCapacity = 256;
  /// When set, each completion is posted to this loop as a task (the
  /// promise resolves on the loop thread). Null fulfills promises directly
  /// on the scheduler thread.
  async::EventLoop* responseLoop = nullptr;
};

/// What a client gets back: host values plus per-request telemetry.
struct InferenceResult {
  std::vector<float> values;  ///< output values of this request's example
  Shape shape;                ///< per-example output shape (leading dim 1)
  int batchSize = 0;          ///< real requests in the shared forward pass
  double queueMs = 0;         ///< submit -> batch formation
  double totalMs = 0;         ///< submit -> result ready
};

namespace internal {
struct Request {
  std::shared_ptr<std::promise<InferenceResult>> promise;
  std::vector<float> input;
  Shape exampleShape;  ///< without the batch dimension
  std::chrono::steady_clock::time_point submitted;
  int sessionId = 0;
};
}  // namespace internal

class InferenceServer;

/// A client handle. Sessions are cheap, thread-safe, and share the server's
/// single copy of the model weights; each session may be driven from its
/// own thread.
///
/// Lifetime: a Session holds a non-owning pointer to its InferenceServer.
/// Drop every session (or at least stop calling infer/tryInfer through it)
/// and quiesce all client threads before destroying the server — a session
/// that outlives its server dangles, and a client still blocked inside
/// infer() while the server is destroyed races its queue teardown. Calling
/// InferenceServer::stop() first unblocks queued pushes (infer then throws,
/// tryInfer returns nullopt), which makes the quiesce straightforward.
class Session {
 public:
  /// Submits one example (shape given WITHOUT the batch dimension) and
  /// returns a future for its result. Blocks while the request queue is
  /// full; throws Error if the server has been stopped.
  std::future<InferenceResult> infer(std::vector<float> input,
                                     const Shape& exampleShape);

  /// Non-blocking variant: false (and no future) when the queue is full.
  std::optional<std::future<InferenceResult>> tryInfer(
      std::vector<float> input, const Shape& exampleShape);

  /// infer() + wait.
  InferenceResult inferSync(std::vector<float> input,
                            const Shape& exampleShape);

  const std::string& name() const { return name_; }
  int id() const { return id_; }
  std::uint64_t requestsSubmitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }

 private:
  friend class InferenceServer;
  Session(InferenceServer* server, std::string name, int id)
      : server_(server), name_(std::move(name)), id_(id) {}

  InferenceServer* server_;
  std::string name_;
  int id_;
  std::atomic<std::uint64_t> submitted_{0};
};

class InferenceServer {
 public:
  /// Takes ownership of the model; its weights are the one shared copy
  /// every session reads. The scheduler thread starts immediately.
  InferenceServer(std::unique_ptr<layers::Sequential> model,
                  ServerOptions opts = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  std::shared_ptr<Session> createSession(std::string name = "");

  /// Stops accepting new requests, serves everything already queued, and
  /// joins the scheduler thread. Idempotent and safe for concurrent
  /// callers (e.g. an explicit stop() racing the destructor on another
  /// thread): exactly one caller joins, the rest block until it finishes.
  void stop();

  bool stopped() const { return queue_.closed(); }

  /// Requests currently waiting in the queue (not yet batched).
  std::size_t queueDepth() const { return queue_.size(); }

  const ServerOptions& options() const { return opts_; }
  layers::Sequential& model() { return *model_; }

  struct Stats {
    std::uint64_t requests = 0;  ///< accepted into the queue
    std::uint64_t rejected = 0;  ///< shed by tryInfer on a full queue
    std::uint64_t batches = 0;   ///< forward passes executed
    std::uint64_t failed = 0;    ///< promises rejected by a failed batch
    int maxBatchSize = 0;
    double meanBatchSize() const {
      const std::uint64_t ok = requests - inFlightAtSnapshot - failed;
      return batches ? static_cast<double>(ok) / static_cast<double>(batches)
                     : 0;
    }
    std::uint64_t inFlightAtSnapshot = 0;  ///< accepted but not yet settled
  };
  Stats stats() const;

 private:
  friend class Session;
  std::future<InferenceResult> submit(Session& session,
                                      std::vector<float> input,
                                      const Shape& exampleShape,
                                      bool blocking, bool& accepted);

  void schedulerMain();
  /// Moves up to maxBatch deferred requests whose example shape is `shape`
  /// out of pending_, in arrival order; other shapes stay deferred.
  std::vector<internal::Request> takeShapeMates(const Shape& shape);
  void runBatch(std::vector<internal::Request>& group);
  void fulfill(internal::Request& req, InferenceResult result);
  /// Rejects every not-yet-fulfilled promise in the group with `err`.
  void failGroup(std::vector<internal::Request>& group,
                 const std::exception_ptr& err);

  ServerOptions opts_;
  std::unique_ptr<layers::Sequential> model_;
  RequestQueue<internal::Request> queue_;
  /// Requests popped but deferred because their shape did not match the
  /// batch being formed (scheduler-thread only).
  std::vector<internal::Request> pending_;
  std::thread scheduler_;
  std::once_flag joinOnce_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<int> maxBatchSize_{0};
  std::atomic<int> nextSessionId_{1};
};

}  // namespace tfjs::serving
