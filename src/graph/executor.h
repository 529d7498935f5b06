// CapturedGraph: the optimizing executor over the Graph IR (DESIGN.md
// "Graph capture & optimization"). One executor serves both graph sources —
// capture(fn) and io::GraphExecutor's imported GraphDefs.
//
// Construction runs the enabled pass pipeline (fold -> fuse -> dce) and the
// static memory plan. run(feeds) then replays the optimized graph through
// the public ops layer, so every kernel, rounding step, and fallback is the
// one eager would have dispatched: outputs are bit-identical to the eager
// chain on every backend, including int8-routed weights.
//
// Per-backend state (populated lazily, cached for the graph's lifetime):
//   * folded constants materialize by evaluating their pre-fold subgraph
//     with the running backend's own kernels (graph.const_decodes counts
//     these one-time evaluations — a warm run does zero);
// Per-(backend, shape-class) state:
//   * a BufferPool arena seeded from the static plan (when the feeds match
//     the capture example) and self-sized by adoption, so warm runs do no
//     shared-pool or heap traffic. Shape-classes are symbolic — backend +
//     per-feed (dtype, rank, dims==1 bitmask) — so a server receiving many
//     batch sizes reuses one arena and one set of compiled regions instead
//     of recompiling per concrete shape (graph.plan_compiles counts class
//     instantiations). The class map is LRU-capped (kMaxArenas); evictions
//     destroy the arena and count into pool.arena_evictions.
#pragma once

#include <list>
#include <map>
#include <string>
#include <vector>

#include "core/buffer_pool.h"
#include "graph/ir.h"
#include "graph/passes.h"

namespace tfjs::graph {

class CapturedGraph {
 public:
  CapturedGraph() = default;
  /// Takes ownership of `g` (and its constant snapshots). Passes run here,
  /// once.
  explicit CapturedGraph(Graph g, const PassOptions& opts = PassOptions::fromEnv());

  /// Replays the graph on the active backend. `feeds` pair up with the
  /// graph's inputs in order (shapes may differ from the capture example —
  /// the plan then seeds nothing and the arena self-sizes). Returned
  /// tensors are the caller's to dispose.
  std::vector<Tensor> run(const std::vector<Tensor>& feeds);

  const Graph& original() const { return original_; }
  const Graph& optimized() const { return optimized_; }
  const MemoryPlan& plan() const { return plan_; }
  const PassOptions& options() const { return opts_; }

  /// Releases constants, per-backend caches, and arenas. The graph is
  /// unusable afterwards.
  void dispose();

  /// Captured graphs reject feeds whose dtype differs from the capture
  /// example (dtype changes op routing — e.g. int8 weights). Imported
  /// GraphDefs don't declare placeholder dtypes, so io turns the check off.
  void setStrictFeedDtypes(bool strict) { strictFeedDtypes_ = strict; }

  /// Cap on live per-(backend, shape-class) arenas. Serving workloads with
  /// unbounded shape diversity evict least-recently-used classes instead of
  /// accumulating arenas forever.
  static constexpr std::size_t kMaxArenas = 8;
  /// Live per-(backend, shape-class) arena count (test hook).
  std::size_t numArenas() const { return arenas_.size(); }

 private:
  struct BackendState {
    /// optimized node id -> materialized folded constant (kept).
    std::map<int, Tensor> foldCache;
  };

  Tensor materializeFold(int optimizedId, BackendState& bs);
  Tensor evalOriginal(int id, std::map<int, Tensor>& memo);
  /// Replays one non-const node through the public ops layer.
  Tensor replayNode(const Node& n, const std::vector<Tensor>& ins);

  Graph original_;
  Graph optimized_;
  PassOptions opts_;
  bool strictFeedDtypes_ = true;
  MemoryPlan plan_;
  /// Nodes to dispose right after executing node i (from plan_.lastUse).
  std::vector<std::vector<int>> freeAt_;
  /// Optimized node ids with foldedConst set (materialized per backend).
  std::vector<int> foldedIds_;
  /// Optimized node id -> feed position, -1 for non-inputs.
  std::vector<int> feedIndex_;
  std::map<std::string, BackendState> backends_;
  /// Shape-class sig -> (arena, position in lru_). lru_ keeps sigs most-
  /// recently-used first; inserting past kMaxArenas destroys the back.
  struct ArenaEntry {
    core::BufferPool::ArenaId arena = 0;
    std::list<std::string>::iterator lruPos;
  };
  std::map<std::string, ArenaEntry> arenas_;
  std::list<std::string> lru_;
  /// regionProgram() of each optimized node (empty instrs for non-
  /// elementwise ops): lowered once, reused across every backend and feed
  /// shape — the program is shape-agnostic by construction.
  std::vector<RegionProgram> regionPrograms_;
  /// One-entry cache for the steady-state case: repeated runs with the same
  /// backend and feed shape-class skip the arena map lookup.
  std::string lastSig_;
  core::BufferPool::ArenaId lastArena_ = 0;
};

}  // namespace tfjs::graph
