#include "graph/executor.h"

#include <algorithm>
#include <utility>

#include "core/conv_util.h"
#include "core/engine.h"
#include "core/error.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "ops/common.h"
#include "ops/ops.h"

namespace tfjs::graph {

namespace {

metrics::Counter& runsCounter() {
  static metrics::Counter& c = metrics::Registry::get().counter("graph.runs");
  return c;
}
metrics::Counter& constDecodesCounter() {
  static metrics::Counter& c =
      metrics::Registry::get().counter("graph.const_decodes");
  return c;
}
metrics::Counter& planCompilesCounter() {
  static metrics::Counter& c =
      metrics::Registry::get().counter("graph.plan_compiles");
  return c;
}
metrics::Counter& arenaEvictionsCounter() {
  static metrics::Counter& c =
      metrics::Registry::get().counter("pool.arena_evictions");
  return c;
}

int iattr(const Node& n, std::size_t i) {
  return static_cast<int>(n.attrs[i]);
}

std::vector<int> intAttrs(const Node& n, std::size_t from, std::size_t count) {
  std::vector<int> v;
  v.reserve(count);
  for (std::size_t i = from; i < from + count; ++i) v.push_back(iattr(n, i));
  return v;
}

/// Resolves a view shape against the input's element count (imported
/// Reshape nodes may carry a -1 wildcard dimension).
Shape resolveView(const Shape& target, std::size_t elems) {
  int wildcard = -1;
  std::size_t known = 1;
  for (int i = 0; i < target.rank(); ++i) {
    if (target[i] < 0) {
      wildcard = i;
    } else {
      known *= static_cast<std::size_t>(target[i]);
    }
  }
  if (wildcard < 0) return target;
  std::vector<int> dims = target.dims();
  dims[static_cast<std::size_t>(wildcard)] =
      known == 0 ? 0 : static_cast<int>(elems / known);
  return Shape(std::move(dims));
}

Tensor replayReduce(const Node& n, const Tensor& x) {
  const bool keepDims = n.attrs[1] != 0;
  const std::vector<int> axes = intAttrs(n, 3, n.attrs.size() - 3);
  switch (static_cast<ReduceOp>(iattr(n, 0))) {
    case ReduceOp::kSum: return ops::sum(x, axes, keepDims);
    case ReduceOp::kMean: return ops::mean(x, axes, keepDims);
    case ReduceOp::kProd: return ops::prod(x, axes, keepDims);
    case ReduceOp::kMax: return ops::max(x, axes, keepDims);
    case ReduceOp::kMin: return ops::min(x, axes, keepDims);
    case ReduceOp::kAny: return ops::any(x, axes, keepDims);
    case ReduceOp::kAll: return ops::all(x, axes, keepDims);
  }
  throw UnimplementedError("graph: reduce op code " +
                           std::to_string(iattr(n, 0)));
}

/// A producer node's epilogue, read from the {act, hasBias} attrs at
/// `actAt`; `plain` (neither set) replays under the plain op's name.
struct Epilogue {
  Tensor bias;
  FusedActivation act;
  bool plain;
};

Epilogue epilogue(const Node& n, std::size_t actAt,
                  const std::vector<Tensor>& ins) {
  if (n.attrs.size() != actAt + 2) {
    throw InvalidArgumentError(std::string("graph: ") + ops::opIdName(n.op) +
                               " node needs " + std::to_string(actAt + 2) +
                               " attrs, got " +
                               std::to_string(n.attrs.size()));
  }
  const bool hasBias = n.attrs[actAt + 1] != 0;
  const auto act = static_cast<FusedActivation>(iattr(n, actAt));
  return {hasBias ? ins[2] : Tensor(), act,
          !hasBias && act == FusedActivation::kNone};
}

}  // namespace

CapturedGraph::CapturedGraph(Graph g, const PassOptions& opts)
    : original_(std::move(g)), opts_(opts) {
  optimized_ = optimize(original_, opts_);
  plan_ = planMemory(optimized_);
  freeAt_.assign(optimized_.nodes.size(), {});
  for (std::size_t i = 0; i < optimized_.nodes.size(); ++i) {
    const int last = plan_.lastUse[i];
    if (last >= 0 && last != MemoryPlan::kLiveToEnd) {
      freeAt_[static_cast<std::size_t>(last)].push_back(static_cast<int>(i));
    }
    if (optimized_.nodes[i].foldedConst) {
      foldedIds_.push_back(static_cast<int>(i));
    }
  }
  feedIndex_.assign(optimized_.nodes.size(), -1);
  for (std::size_t k = 0; k < optimized_.inputs.size(); ++k) {
    feedIndex_[static_cast<std::size_t>(optimized_.inputs[k])] =
        static_cast<int>(k);
  }
  // Lower every elementwise node (fused regions and standalone
  // unary/binary/select alike) to its program once; the program is
  // shape-agnostic, so this is the only "compile" it ever needs.
  regionPrograms_.reserve(optimized_.nodes.size());
  for (const Node& n : optimized_.nodes) {
    regionPrograms_.push_back(regionProgram(n));
  }
}

Tensor CapturedGraph::replayNode(const Node& n, const std::vector<Tensor>& ins) {
  using ops::OpId;
  switch (n.op) {
    case OpId::kAlias: {
      // View kind (attrs[0], default 0): 0 = reshape to shapeAttr + cast to
      // outDtype (capture, shapes/dtypes concrete), 1 = squeeze,
      // 2 = identity, 3 = reshape to shapeAttr with -1 inference (io
      // import; kinds 1-3 preserve the input's dtype, which import time
      // cannot know).
      const int kind = n.attrs.empty() ? 0 : iattr(n, 0);
      const Shape view = kind == 1   ? ins[0].shape().squeezed()
                         : kind == 2 ? ins[0].shape()
                                     : resolveView(n.shapeAttr, ins[0].size());
      Tensor v = ins[0].reshape(view);
      if (kind == 0 && v.dtype() != n.outDtype) {
        // Recorded aliases only widen (b8 -> i32 -> f32): metadata-only.
        Tensor c = v.cast(n.outDtype);
        v.dispose();
        return c;
      }
      return v;
    }
    case OpId::kUnary:
    case OpId::kBinary:
    case OpId::kSelect:
    case OpId::kFusedRegion:
      // Rare path (folded-constant evaluation); the executor's run loop
      // uses the pre-lowered program instead.
      return ops::fusedRegion(regionProgram(n), std::span<const Tensor>(ins),
                              n.outDtype);
    case OpId::kMatMul: {
      const Epilogue ep = epilogue(n, 2, ins);
      return ops::internal::fusedMatMul(ep.plain ? "matMul" : "fusedMatMul",
                                        ins[0], ins[1], ep.bias, ep.act,
                                        n.attrs[0] != 0, n.attrs[1] != 0);
    }
    case OpId::kConv2d: {
      const Epilogue ep = epilogue(n, 5, ins);
      return ops::internal::fusedConv2d(
          ep.plain ? "conv2d" : "fusedConv2d", ins[0], ins[1], ep.bias, ep.act,
          iattr(n, 0), iattr(n, 1), static_cast<PadMode>(iattr(n, 2)),
          iattr(n, 3), iattr(n, 4));
    }
    case OpId::kDepthwiseConv2d: {
      const Epilogue ep = epilogue(n, 5, ins);
      return ops::internal::fusedDepthwiseConv2d(
          ep.plain ? "depthwiseConv2d" : "fusedDepthwiseConv2d", ins[0],
          ins[1], ep.bias, ep.act, iattr(n, 0), iattr(n, 1),
          static_cast<PadMode>(iattr(n, 2)), iattr(n, 3), iattr(n, 4));
    }
    case OpId::kPool: {
      const PoolMode mode = static_cast<PoolMode>(iattr(n, 0));
      if (mode == PoolMode::kMax) {
        return ops::maxPool(ins[0], iattr(n, 1), iattr(n, 2), iattr(n, 3),
                            iattr(n, 4), static_cast<PadMode>(iattr(n, 5)));
      }
      return ops::avgPool(ins[0], iattr(n, 1), iattr(n, 2), iattr(n, 3),
                          iattr(n, 4), static_cast<PadMode>(iattr(n, 5)));
    }
    case OpId::kReduce:
      return replayReduce(n, ins[0]);
    case OpId::kArg:
      return static_cast<ArgOp>(iattr(n, 0)) == ArgOp::kArgMax
                 ? ops::argMax(ins[0], iattr(n, 1))
                 : ops::argMin(ins[0], iattr(n, 1));
    case OpId::kSoftmax:
      return ops::softmax(ins[0], iattr(n, 0));
    case OpId::kLogSoftmax:
      return ops::logSoftmax(ins[0], iattr(n, 0));
    case OpId::kTranspose:
      return ops::transpose(ins[0], intAttrs(n, 0, n.attrs.size()));
    case OpId::kConcat:
      return ops::concat(std::span<const Tensor>(ins), iattr(n, 0));
    case OpId::kSlice: {
      const std::size_t rank = n.attrs.size() / 2;
      return ops::slice(ins[0], intAttrs(n, 0, rank), intAttrs(n, rank, rank));
    }
    case OpId::kPad: {
      std::vector<std::pair<int, int>> paddings;
      for (std::size_t i = 1; i + 1 < n.attrs.size(); i += 2) {
        paddings.emplace_back(iattr(n, i), iattr(n, i + 1));
      }
      return ops::pad(ins[0], paddings, static_cast<float>(n.attrs[0]));
    }
    case OpId::kCast:
      return ops::cast(ins[0], static_cast<DType>(iattr(n, 0)));
    case OpId::kQuantize:
      return ops::quantize(ins[0], static_cast<float>(n.attrs[0]),
                           iattr(n, 1));
    case OpId::kDequantize:
      return ops::dequantize(ins[0]);
    default:
      throw UnimplementedError(std::string("graph: op \"") +
                               ops::opIdName(n.op) + "\" is not replayable");
  }
}

Tensor CapturedGraph::evalOriginal(int id, std::map<int, Tensor>& memo) {
  if (auto it = memo.find(id); it != memo.end()) return it->second;
  const Node& n = original_.nodes[static_cast<std::size_t>(id)];
  if (n.op == ops::OpId::kInput) {
    throw InternalError("graph: folded constant depends on a graph input");
  }
  Tensor v;
  if (n.op == ops::OpId::kConst) {
    v = n.constant;
  } else {
    std::vector<Tensor> ins;
    ins.reserve(n.inputs.size());
    for (int in : n.inputs) ins.push_back(evalOriginal(in, memo));
    v = replayNode(n, ins);
  }
  memo.emplace(id, v);
  return v;
}

Tensor CapturedGraph::materializeFold(int optimizedId, BackendState& bs) {
  trace::Span span("graph", "materializeFold");
  Engine& e = Engine::get();
  OpObserver* prev = e.opObserver();
  e.setOpObserver(nullptr);
  e.startScope();
  Tensor out;
  try {
    ops::internal::TapePause pause;
    std::map<int, Tensor> memo;
    out = evalOriginal(
        optimized_.nodes[static_cast<std::size_t>(optimizedId)].foldedFrom,
        memo);
    // The fold target may itself be a plain constant view in the memo; the
    // cache needs its own handle so graph disposal stays single-owner.
    out = out.clone();
  } catch (...) {
    e.endScope({});
    e.setOpObserver(prev);
    throw;
  }
  e.endScope(std::span<const Tensor>(&out, 1));
  e.setOpObserver(prev);
  out.keep();
  bs.foldCache[optimizedId] = out;
  constDecodesCounter().inc();
  return out;
}

std::vector<Tensor> CapturedGraph::run(const std::vector<Tensor>& feeds) {
  trace::Span span("graph", "run");
  Engine& e = Engine::get();
  if (feeds.size() != optimized_.inputs.size()) {
    throw InvalidArgumentError(
        "graph: expected " + std::to_string(optimized_.inputs.size()) +
        " feeds, got " + std::to_string(feeds.size()));
  }
  for (std::size_t k = 0; strictFeedDtypes_ && k < feeds.size(); ++k) {
    const Node& in =
        optimized_.nodes[static_cast<std::size_t>(optimized_.inputs[k])];
    if (feeds[k].dtype() != in.outDtype) {
      throw InvalidArgumentError(
          std::string("graph: feed ") + std::to_string(k) + " is " +
          dtypeName(feeds[k].dtype()) + ", captured as " +
          dtypeName(in.outDtype));
    }
  }

  BackendState& bs = backends_[e.backendName()];
  // Folded constants materialize outside the run scope and outside the
  // arena: they live with the graph, not the run.
  if (bs.foldCache.size() != foldedIds_.size()) {
    for (int id : foldedIds_) {
      if (bs.foldCache.find(id) == bs.foldCache.end()) {
        materializeFold(id, bs);
      }
    }
  }

  core::BufferPool::ArenaId arena = 0;
  if (opts_.plan) {
    // Symbolic shape-class, not concrete shapes: backend + per-feed
    // (dtype, rank, which dims are 1). Broadcast semantics depend only on
    // ranks and the positions of 1-dims, so every concrete shape in a
    // class replays through identical kernel paths — batch sizes 4, 7, 16
    // share one arena and zero recompiles; batch 1 is its own class
    // because a leading 1 changes how the feed broadcasts.
    std::string sig = e.backendName();
    for (const Tensor& f : feeds) {
      sig += '|';
      sig += dtypeName(f.dtype());
      sig += ':';
      const Shape& s = f.shape();
      for (int d = 0; d < s.rank(); ++d) sig += s[d] == 1 ? '1' : 'n';
    }
    if (sig == lastSig_) {
      arena = lastArena_;  // steady-state: same backend + class as last run
    } else if (auto it = arenas_.find(sig); it != arenas_.end()) {
      arena = it->second.arena;
      lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    } else {
      if (arenas_.size() >= kMaxArenas) {
        // Evict the least-recently-used class; its buffers go back to the
        // OS, and a future run with that class pays one re-instantiation.
        const std::string& victim = lru_.back();
        core::BufferPool::get().destroyArena(arenas_[victim].arena);
        arenaEvictionsCounter().inc();
        if (victim == lastSig_) {
          lastSig_.clear();
          lastArena_ = 0;
        }
        arenas_.erase(victim);
        lru_.pop_back();
      }
      arena = core::BufferPool::get().createArena();
      planCompilesCounter().inc();
      bool exampleShapes = true;
      for (std::size_t k = 0; k < feeds.size(); ++k) {
        const Node& in =
            optimized_.nodes[static_cast<std::size_t>(optimized_.inputs[k])];
        if (!(feeds[k].shape() == in.outShape)) {
          exampleShapes = false;
          break;
        }
      }
      // The static plan only describes the capture-example shapes; other
      // classes start empty and self-size by adoption.
      if (exampleShapes) {
        for (const auto& [elems, count] : plan_.reservations) {
          core::BufferPool::get().arenaReserve(arena, elems, count);
        }
      }
      lru_.push_front(sig);
      arenas_[sig] = ArenaEntry{arena, lru_.begin()};
    }
    lastSig_ = std::move(sig);
    lastArena_ = arena;
  }

  OpObserver* prevObs = e.opObserver();
  e.setOpObserver(nullptr);
  e.startScope();
  std::vector<Tensor> outs;
  if (arena != 0) core::BufferPool::get().bindArena(arena);
  try {
    ops::internal::TapePause pause;
    std::vector<Tensor> vals(optimized_.nodes.size());
    std::vector<Tensor> ins;  // reused across nodes: one warm-run heap alloc
    for (std::size_t i = 0; i < optimized_.nodes.size(); ++i) {
      const Node& n = optimized_.nodes[i];
      switch (n.op) {
        case ops::OpId::kInput:
          vals[i] = feeds[static_cast<std::size_t>(feedIndex_[i])];
          break;
        case ops::OpId::kConst:
          vals[i] = n.foldedConst ? bs.foldCache[static_cast<int>(i)]
                                  : n.constant;
          break;
        default: {
          ins.clear();
          for (int in : n.inputs) {
            ins.push_back(vals[static_cast<std::size_t>(in)]);
          }
          const RegionProgram& program = regionPrograms_[i];
          if (program.instrs.empty()) {
            vals[i] = replayNode(n, ins);
            break;
          }
          // Liveness-driven in-place: when the planner says input 0 dies
          // here (sole use, intermediate — never a feed, constant, or
          // alias whose storage outlives its handle count), hand its
          // handle to the move-consuming fusedRegion so the kernel can
          // overwrite the buffer instead of cycling it through the arena.
          // Eager can't do this: its intermediates stay live to scope end.
          const auto in0 = static_cast<std::size_t>(n.inputs[0]);
          const ops::OpId srcOp = optimized_.nodes[in0].op;
          const bool dies =
              plan_.lastUse[in0] == static_cast<int>(i) &&
              std::count(n.inputs.begin(), n.inputs.end(), n.inputs[0]) ==
                  1 &&
              srcOp != ops::OpId::kInput && srcOp != ops::OpId::kConst;
          if (dies) {
            // The move overload always produces a value (it falls back to
            // the allocating path itself when reuse is unsafe).
            vals[i] = ops::fusedRegion(program, std::move(vals[in0]),
                                       std::span<const Tensor>(ins).subspan(1),
                                       n.outDtype);
            vals[in0] = Tensor();
          } else {
            vals[i] = ops::fusedRegion(program, std::span<const Tensor>(ins),
                                       n.outDtype);
          }
        }
      }
      // Planned eager disposal: a value goes back to the arena right after
      // its last consumer instead of at scope teardown.
      for (int dead : freeAt_[i]) {
        const ops::OpId op = optimized_.nodes[static_cast<std::size_t>(dead)].op;
        if (op == ops::OpId::kInput || op == ops::OpId::kConst) continue;
        Tensor& t = vals[static_cast<std::size_t>(dead)];
        if (t.defined() && !t.isDisposed()) t.dispose();
        t = Tensor();
      }
    }
    std::vector<int> seen;  // outputs are few: linear scan beats a set
    for (int o : optimized_.outputs) {
      const ops::OpId op = optimized_.nodes[static_cast<std::size_t>(o)].op;
      const bool repeat =
          std::find(seen.begin(), seen.end(), o) != seen.end();
      if (!repeat) seen.push_back(o);
      // Feeds, constants, and repeated outputs get fresh handles so the
      // caller can dispose every returned tensor exactly once.
      if (op == ops::OpId::kInput || op == ops::OpId::kConst || repeat) {
        outs.push_back(vals[static_cast<std::size_t>(o)].clone());
      } else {
        outs.push_back(vals[static_cast<std::size_t>(o)]);
      }
    }
  } catch (...) {
    if (arena != 0) core::BufferPool::get().unbindArena();
    e.endScope({});
    e.setOpObserver(prevObs);
    throw;
  }
  if (arena != 0) core::BufferPool::get().unbindArena();
  e.endScope(outs);
  e.setOpObserver(prevObs);
  runsCounter().inc();
  return outs;
}

void CapturedGraph::dispose() {
  for (auto& [name, bs] : backends_) {
    for (auto& [id, t] : bs.foldCache) {
      if (t.defined() && !t.isDisposed()) t.dispose();
    }
  }
  backends_.clear();
  for (auto& [sig, entry] : arenas_) {
    core::BufferPool::get().destroyArena(entry.arena);
  }
  arenas_.clear();
  lru_.clear();
  lastSig_.clear();
  lastArena_ = 0;
  original_.disposeConstants();
  optimized_.disposeConstants();
}

}  // namespace tfjs::graph
