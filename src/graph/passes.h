// Optimization passes over the Graph IR (DESIGN.md "Graph capture &
// optimization"). Each pass is a pure Graph -> Graph function with a trace
// span ("graph" category) and graph.* metrics; optimize() runs the enabled
// pipeline fold -> fuse -> fuseElementwise -> dce (memory planning happens
// per shape-class signature inside the executor).
//
// Correctness contract: an optimized graph must replay BIT-IDENTICALLY to
// the eager chain it was captured from, on every CPU backend. The passes
// lean on two existing kernel contracts: fused epilogues are bit-identical
// to the unfused chain, and folding evaluates the folded subgraph on the
// *running* backend (lazily, per backend) with the very kernels eager would
// have used.
//
// `TFJS_GRAPH_OPT` env toggle: unset/"1"/"on" = all passes; "0"/"off" =
// none; a comma list ("fold,dce") enables just those passes. Any other
// token throws InvalidArgumentError naming it.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.h"
#include "graph/ir.h"

namespace tfjs::graph {

struct PassOptions {
  bool fold = true;
  bool fuse = true;
  bool dce = true;
  bool plan = true;
  /// Cross-op elementwise fusion (env token "fuse_elementwise").
  bool fuseElementwise = true;

  static PassOptions all() { return {}; }
  static PassOptions none() { return {false, false, false, false, false}; }
  /// Reads TFJS_GRAPH_OPT (see file comment).
  static PassOptions fromEnv();
};

/// Replaces every node whose transitive inputs are all constants with a
/// folded-constant marker. Structural only: the value materializes lazily,
/// per backend, by evaluating `foldedFrom` in the pre-optimization graph —
/// so each backend folds with its own kernels and stays bit-identical to
/// its eager run. Node ids are preserved (dead producers are left for dce).
Graph foldConstants(const Graph& g);

/// Rewrites matMul/conv2d + add(bias) [+ relu/relu6/sigmoid] chains onto
/// the fused kernel epilogues. Conservative: the intermediate values must
/// be f32, single-use, and not graph outputs; the bias must be rank-1 and
/// match the output's last dimension; the epilogue activations are the
/// FusedActivation subset. Node ids are preserved.
Graph fuse(const Graph& g);

/// Greedily clusters chains/DAGs of elementwise ops (kUnary / kBinary /
/// kSelect) into kFusedRegion nodes that the executor lowers to a single
/// loop over the output. A region grows from its terminal node backwards;
/// a producer joins only when it is elementwise, its output shape equals
/// the terminal's (so only external leaf inputs broadcast), it is not a
/// graph output, and every one of its consumers is already in the region
/// (diamond sharing is fine — the shared value becomes one instruction
/// referenced twice). The region node keeps the terminal's id, shape, and
/// dtype; absorbed interiors become dead and are left for dce. Replay is
/// bit-identical to the op-by-op chain: the backends evaluate the same
/// scalar formulas per element in the same order (see DESIGN.md).
Graph fuseElementwise(const Graph& g);

/// The elementwise program a node runs: the decoded program of a
/// kFusedRegion node; for a standalone kUnary / kBinary / kSelect node, its
/// one instruction over input slots in input order (the instruction
/// fuseElementwise would emit for it); an empty program for every other op.
RegionProgram regionProgram(const Node& n);

/// Drops nodes no graph output depends on (kInput placeholders always
/// survive — feed order is part of the graph's signature). Ids are
/// compacted; `inputs`/`outputs` are remapped.
Graph dce(const Graph& g);

/// fold -> fuse -> fuseElementwise -> dce, honoring the enabled flags.
Graph optimize(const Graph& g, const PassOptions& opts = PassOptions::all());

/// Static memory plan: per-node liveness plus the arena working set (how
/// many buffers of each size class are live at once). The executor seeds
/// its per-(graph, backend) arena from `reservations` and disposes each
/// value right after `lastUse`.
struct MemoryPlan {
  /// Last node id consuming each value; graph outputs (and constants) get
  /// kLiveToEnd. kAlias consumers extend the aliased storage's lifetime.
  std::vector<int> lastUse;
  static constexpr int kLiveToEnd = 1 << 30;
  /// (elems, count): peak number of simultaneously-live buffers per
  /// power-of-two size class, keyed by the largest request in the class.
  std::vector<std::pair<std::size_t, int>> reservations;
  std::size_t peakBytes = 0;  ///< peak planned live bytes (f32)

  std::string toString() const;
};

MemoryPlan planMemory(const Graph& g);

}  // namespace tfjs::graph
