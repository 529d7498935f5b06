#include "graph/passes.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "core/backend.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "ops/ops.h"

namespace tfjs::graph {

namespace {

metrics::Counter& foldedCounter() {
  static metrics::Counter& c =
      metrics::Registry::get().counter("graph.folded_nodes");
  return c;
}
metrics::Counter& fusedCounter() {
  static metrics::Counter& c =
      metrics::Registry::get().counter("graph.fused_nodes");
  return c;
}
metrics::Counter& dceCounter() {
  static metrics::Counter& c =
      metrics::Registry::get().counter("graph.dce_removed");
  return c;
}
metrics::Counter& fusedRegionsCounter() {
  static metrics::Counter& c =
      metrics::Registry::get().counter("graph.fused_regions");
  return c;
}
metrics::Counter& regionOpsCounter() {
  static metrics::Counter& c =
      metrics::Registry::get().counter("graph.region_ops");
  return c;
}

bool isConstLike(const Node& n) { return n.op == ops::OpId::kConst; }

}  // namespace

PassOptions PassOptions::fromEnv() {
  const char* v = std::getenv("TFJS_GRAPH_OPT");
  if (v == nullptr || std::strcmp(v, "1") == 0 || std::strcmp(v, "on") == 0) {
    return all();
  }
  if (std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0) return none();
  PassOptions o = none();
  std::string s(v);
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    const std::string tok = s.substr(pos, comma - pos);
    if (tok == "fold") {
      o.fold = true;
    } else if (tok == "fuse") {
      o.fuse = true;
    } else if (tok == "dce") {
      o.dce = true;
    } else if (tok == "plan") {
      o.plan = true;
    } else if (tok == "fuse_elementwise") {
      o.fuseElementwise = true;
    } else {
      // A typo must not silently switch every pass off.
      throw InvalidArgumentError(
          "TFJS_GRAPH_OPT: unknown token '" + tok +
          "'; valid: 0, off, 1, on, or a comma list of fold, fuse, "
          "fuse_elementwise, dce, plan");
    }
    pos = comma + 1;
  }
  return o;
}

Graph foldConstants(const Graph& g) {
  trace::Span span("graph", "fold");
  Graph out = g;
  std::vector<char> constLike(out.nodes.size(), 0);
  for (std::size_t i = 0; i < out.nodes.size(); ++i) {
    Node& n = out.nodes[i];
    if (isConstLike(n)) {
      constLike[i] = 1;
      continue;
    }
    if (n.op == ops::OpId::kInput || n.inputs.empty()) continue;
    bool allConst = true;
    for (int in : n.inputs) {
      if (!constLike[static_cast<std::size_t>(in)]) {
        allConst = false;
        break;
      }
    }
    if (!allConst) continue;
    Node folded;
    folded.op = ops::OpId::kConst;
    folded.foldedConst = true;
    // Folds of folds still point into the pre-optimization graph: ids are
    // preserved, and a folded node's original inputs are themselves
    // const-computable there by induction.
    folded.foldedFrom = n.foldedFrom >= 0 ? n.foldedFrom : static_cast<int>(i);
    folded.outShape = n.outShape;
    folded.outDtype = n.outDtype;
    folded.name = n.name;
    n = std::move(folded);
    constLike[i] = 1;
    foldedCounter().inc();
  }
  return out;
}

namespace {

/// kUnary attr code -> fused epilogue, or kNone when not fusable.
FusedActivation fusableActivation(const Node& n) {
  if (n.op != ops::OpId::kUnary || n.attrs.size() < 3) return FusedActivation::kNone;
  // Parameterized unaries (alpha/beta) never map to an epilogue.
  if (n.attrs[1] != 0 || n.attrs[2] != 0) return FusedActivation::kNone;
  switch (static_cast<UnaryOp>(static_cast<int>(n.attrs[0]))) {
    case UnaryOp::kRelu: return FusedActivation::kRelu;
    case UnaryOp::kRelu6: return FusedActivation::kRelu6;
    case UnaryOp::kSigmoid: return FusedActivation::kSigmoid;
    default: return FusedActivation::kNone;
  }
}

bool isAdd(const Node& n) {
  return n.op == ops::OpId::kBinary && !n.attrs.empty() &&
         static_cast<int>(n.attrs[0]) == static_cast<int>(BinaryOp::kAdd) &&
         n.outDtype == DType::f32;
}

/// Index of a producer node's `act` attr — its layout ends in {act,
/// hasBias} (ops/op_id.h) — or 0 when `n` is not a well-formed producer.
std::size_t actAttr(const Node& n) {
  std::size_t at = 0;
  switch (n.op) {
    case ops::OpId::kMatMul: at = 2; break;
    case ops::OpId::kConv2d:
    case ops::OpId::kDepthwiseConv2d: at = 5; break;
    default: return 0;
  }
  return n.attrs.size() == at + 2 ? at : 0;
}

/// The output channel count of producer `n` (the length its bias must
/// have), read off its weight operand's shape: n of a [k, n] matMul
/// operand, outC of a conv filter, inC * channelMult of a depthwise filter.
/// -1 when that shape is unknown. Imported graphs carry shapes on their
/// weights only, so this is what lets their bias adds fuse.
int baseChannels(const Graph& g, const Node& n) {
  const Shape& w = g.nodes[static_cast<std::size_t>(n.inputs[1])].outShape;
  const int r = w.rank();
  switch (n.op) {
    case ops::OpId::kMatMul:
      if (r < 2) return -1;
      return n.attrs[1] != 0 ? w[r - 2] : w[r - 1];
    case ops::OpId::kConv2d:
      return r == 4 ? w[3] : -1;
    case ops::OpId::kDepthwiseConv2d:
      return r == 4 ? w[2] * w[3] : -1;
    default:
      return -1;
  }
}

}  // namespace

Graph fuse(const Graph& g) {
  trace::Span span("graph", "fuse");
  Graph out = g;
  const std::vector<int> uses = g.useCounts();
  std::vector<char> isOutput(out.nodes.size(), 0);
  for (int o : out.outputs) isOutput[static_cast<std::size_t>(o)] = 1;

  // An intermediate may be consumed only by the node that absorbs it.
  auto absorbable = [&](int id) {
    return uses[static_cast<std::size_t>(id)] == 1 &&
           !isOutput[static_cast<std::size_t>(id)];
  };
  // The `act` attr index of a producer whose epilogue can still take an
  // activation, else 0. The kernel applies bias then activation, so
  // neither may follow an activation already absorbed. Int8 weights
  // qualify too: the quantized epilogue uses the same scalar formulas on
  // the dequantized value.
  auto openAct = [&](const Node& n) -> std::size_t {
    const std::size_t at = actAttr(n);
    const bool open = at != 0 && n.outDtype == DType::f32 &&
                      static_cast<int>(n.attrs[at]) ==
                          static_cast<int>(FusedActivation::kNone);
    return open ? at : 0;
  };
  // A rank-1 bias with one entry per output channel: adding it leaves the
  // base's shape as it is, whether or not the graph records that shape.
  auto biasMatches = [&](const Node& bias, const Node& base) {
    return bias.outDtype == DType::f32 && bias.outShape.rank() == 1 &&
           bias.outShape[0] == baseChannels(out, base);
  };

  // An absorbing producer moves to the absorbed node's slot (its bias input
  // may be defined after the producer) and takes that node's name; dce
  // drops the orphaned original.
  for (std::size_t i = 0; i < out.nodes.size(); ++i) {
    const Node& n = out.nodes[i];
    if (isAdd(n) && n.inputs.size() == 2) {
      const int m = n.inputs[0];
      const Node& base = out.nodes[static_cast<std::size_t>(m)];
      const std::size_t at = openAct(base);
      // add(base, bias) with base first only: the fused kernel computes
      // base + bias, and add is commutative but we stay conservative.
      if (at != 0 && base.attrs[at + 1] == 0 && absorbable(m) &&
          biasMatches(out.nodes[static_cast<std::size_t>(n.inputs[1])],
                      base) &&
          base.outShape == n.outShape) {
        Node f = base;
        f.inputs.push_back(n.inputs[1]);
        f.attrs[at + 1] = 1;
        f.name = n.name;
        out.nodes[i] = std::move(f);
        fusedCounter().inc();
      }
      continue;
    }
    const FusedActivation act = fusableActivation(n);
    if (act == FusedActivation::kNone || n.inputs.size() != 1) continue;
    const int m = n.inputs[0];
    const std::size_t at = openAct(out.nodes[static_cast<std::size_t>(m)]);
    if (at == 0 || !absorbable(m)) continue;
    Node f = out.nodes[static_cast<std::size_t>(m)];
    f.attrs[at] = static_cast<double>(act);
    f.outShape = n.outShape;
    f.outDtype = n.outDtype;
    f.name = n.name;
    out.nodes[i] = std::move(f);
    fusedCounter().inc();
  }
  return out;
}

namespace {

/// Region-eligible ops: pure elementwise, one output element per
/// coordinate, scalar semantics shared by every backend.
bool isElementwise(const Node& n) {
  switch (n.op) {
    case ops::OpId::kUnary:
      return n.attrs.size() >= 4 && n.inputs.size() == 1;
    case ops::OpId::kBinary:
      return n.attrs.size() >= 2 && n.inputs.size() == 2;
    case ops::OpId::kSelect:
      return n.inputs.size() == 3;
    default:
      return false;
  }
}

/// Lowers an elementwise node to its instruction; `operandOf(k)` is the
/// operand ref of the node's k-th input.
template <typename OperandOf>
RegionInstr elementwiseInstr(const Node& n, OperandOf operandOf) {
  RegionInstr si;
  switch (n.op) {
    case ops::OpId::kUnary:
      si.kind = RegionInstr::Kind::kUnary;
      si.op = static_cast<int>(n.attrs[0]);
      si.alpha = static_cast<float>(n.attrs[1]);
      si.beta = static_cast<float>(n.attrs[2]);
      si.a = operandOf(0);
      break;
    case ops::OpId::kBinary:
      si.kind = RegionInstr::Kind::kBinary;
      si.op = static_cast<int>(n.attrs[0]);
      si.a = operandOf(0);
      si.b = operandOf(1);
      break;
    default:  // kSelect
      si.kind = RegionInstr::Kind::kSelect;
      si.a = operandOf(0);
      si.b = operandOf(1);
      si.c = operandOf(2);
      break;
  }
  return si;
}

/// Largest region a single node may absorb. Caps compile time and the
/// per-element scratch of the fused interpreters; 64 covers every chain the
/// models here produce with slack.
constexpr std::size_t kMaxRegionOps = 64;

}  // namespace

RegionProgram regionProgram(const Node& n) {
  if (n.op == ops::OpId::kFusedRegion) {
    return ops::decodeRegionProgram(n.attrs);
  }
  if (!isElementwise(n)) return {};
  return {static_cast<int>(n.inputs.size()),
          {elementwiseInstr(n, [](int k) { return -1 - k; })}};
}

Graph fuseElementwise(const Graph& g) {
  trace::Span span("graph", "fuse_elementwise");
  Graph out = g;

  // Consumer lists (node id -> ids of nodes reading it) plus output flags:
  // a producer may join a region only when the region covers all of its
  // consumers and it is not itself a graph output.
  std::vector<std::vector<int>> consumers(out.nodes.size());
  for (std::size_t i = 0; i < out.nodes.size(); ++i) {
    for (int in : out.nodes[i].inputs) {
      consumers[static_cast<std::size_t>(in)].push_back(static_cast<int>(i));
    }
  }
  std::vector<char> isOutput(out.nodes.size(), 0);
  for (int o : out.outputs) isOutput[static_cast<std::size_t>(o)] = 1;
  std::vector<char> taken(out.nodes.size(), 0);

  // Reverse order: the deepest terminal claims the longest chain, and every
  // absorbed interior is marked taken so regions never overlap.
  for (int i = static_cast<int>(out.nodes.size()) - 1; i >= 0; --i) {
    const auto ui = static_cast<std::size_t>(i);
    if (taken[ui] || !isElementwise(out.nodes[ui])) continue;
    const Shape& shape = out.nodes[ui].outShape;

    std::set<int> members{i};
    // Fixpoint growth: a shared producer (diamond) may fail the
    // all-consumers check on the first visit and pass once its other
    // consumer joins, so sweep until no candidate is added.
    bool grew = true;
    while (grew && members.size() < kMaxRegionOps) {
      grew = false;
      for (int m : std::vector<int>(members.begin(), members.end())) {
        for (int in : out.nodes[static_cast<std::size_t>(m)].inputs) {
          const auto uin = static_cast<std::size_t>(in);
          if (members.count(in) || taken[uin] || isOutput[uin]) continue;
          const Node& cand = out.nodes[uin];
          if (!isElementwise(cand) || !(cand.outShape == shape)) continue;
          bool allInside = true;
          for (int c : consumers[uin]) {
            if (!members.count(c)) {
              allInside = false;
              break;
            }
          }
          if (!allInside) continue;
          members.insert(in);
          grew = true;
          if (members.size() >= kMaxRegionOps) break;
        }
        if (members.size() >= kMaxRegionOps) break;
      }
    }
    if (members.size() < 2) continue;

    // Lower members (ascending id = original per-element order) to a
    // RegionProgram. External operands dedupe into input slots in
    // first-use order.
    RegionProgram program;
    std::map<int, int> instrIndex;   // node id -> instruction index
    std::map<int, int> inputSlot;    // node id -> external slot
    std::vector<int> externals;
    const auto operand = [&](int id) {
      if (auto it = instrIndex.find(id); it != instrIndex.end()) {
        return it->second;
      }
      auto [it, fresh] =
          inputSlot.emplace(id, static_cast<int>(externals.size()));
      if (fresh) externals.push_back(id);
      return -1 - it->second;
    };
    for (int m : members) {
      const Node& n = out.nodes[static_cast<std::size_t>(m)];
      instrIndex[m] = static_cast<int>(program.instrs.size());
      program.instrs.push_back(elementwiseInstr(n, [&](int k) {
        return operand(n.inputs[static_cast<std::size_t>(k)]);
      }));
    }
    program.numInputs = static_cast<int>(externals.size());

    Node region;
    region.op = ops::OpId::kFusedRegion;
    region.inputs = externals;
    region.attrs = ops::encodeRegionProgram(program);
    region.outShape = out.nodes[ui].outShape;
    region.outDtype = out.nodes[ui].outDtype;
    region.name = out.nodes[ui].name;
    out.nodes[ui] = std::move(region);
    for (int m : members) taken[static_cast<std::size_t>(m)] = 1;
    fusedRegionsCounter().inc();
    regionOpsCounter().inc(members.size());
  }
  return out;
}

Graph dce(const Graph& g) {
  trace::Span span("graph", "dce");
  std::vector<char> live(g.nodes.size(), 0);
  std::vector<int> stack(g.outputs);
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (live[static_cast<std::size_t>(id)]) continue;
    live[static_cast<std::size_t>(id)] = 1;
    for (int in : g.nodes[static_cast<std::size_t>(id)].inputs) {
      stack.push_back(in);
    }
  }
  // Placeholders always survive: feed order is part of the signature.
  for (int in : g.inputs) live[static_cast<std::size_t>(in)] = 1;

  Graph out;
  std::vector<int> remap(g.nodes.size(), -1);
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    if (!live[i]) {
      dceCounter().inc();
      continue;
    }
    Node n = g.nodes[i];
    for (int& in : n.inputs) in = remap[static_cast<std::size_t>(in)];
    remap[i] = static_cast<int>(out.nodes.size());
    out.nodes.push_back(std::move(n));
  }
  for (int in : g.inputs) {
    out.inputs.push_back(remap[static_cast<std::size_t>(in)]);
  }
  for (int o : g.outputs) {
    out.outputs.push_back(remap[static_cast<std::size_t>(o)]);
  }
  return out;
}

Graph optimize(const Graph& g, const PassOptions& opts) {
  Graph out = g;
  if (opts.fold) out = foldConstants(out);
  if (opts.fuse) out = fuse(out);
  if (opts.fuseElementwise) out = fuseElementwise(out);
  if (opts.dce) out = dce(out);
  return out;
}

MemoryPlan planMemory(const Graph& g) {
  trace::Span span("graph", "plan");
  MemoryPlan plan;
  plan.lastUse.assign(g.nodes.size(), -1);
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    for (int in : g.nodes[i].inputs) {
      plan.lastUse[static_cast<std::size_t>(in)] =
          std::max(plan.lastUse[static_cast<std::size_t>(in)],
                   static_cast<int>(i));
    }
  }
  for (int o : g.outputs) {
    plan.lastUse[static_cast<std::size_t>(o)] = MemoryPlan::kLiveToEnd;
  }
  // Constants materialize once and live with the graph, not the run.
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    if (g.nodes[i].op == ops::OpId::kConst ||
        g.nodes[i].op == ops::OpId::kInput) {
      plan.lastUse[i] = MemoryPlan::kLiveToEnd;
    }
  }

  // Sweep definition order, tracking live buffers per power-of-two class.
  // kAlias defines no buffer; aliases can outlive their source's handle
  // because containers are refcounted, so this undercounts rarely and the
  // arena self-heals by adoption.
  struct ClassState {
    int liveNow = 0;
    int peak = 0;
    std::size_t maxElems = 0;
  };
  std::map<int, ClassState> classes;
  std::size_t liveBytes = 0;
  std::vector<std::vector<int>> freeAt(g.nodes.size());
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const int last = plan.lastUse[i];
    if (last >= 0 && last != MemoryPlan::kLiveToEnd) {
      freeAt[static_cast<std::size_t>(last)].push_back(static_cast<int>(i));
    }
  }
  auto classOf = [](std::size_t elems) {
    return elems <= 1 ? 0 : static_cast<int>(std::bit_width(elems - 1));
  };
  auto allocates = [](const Node& n) {
    return n.op != ops::OpId::kConst && n.op != ops::OpId::kInput &&
           n.op != ops::OpId::kAlias && n.outShape.size() > 0;
  };
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const Node& n = g.nodes[i];
    if (allocates(n)) {
      ClassState& cs = classes[classOf(n.outShape.size())];
      cs.maxElems = std::max(cs.maxElems, n.outShape.size());
      cs.peak = std::max(cs.peak, ++cs.liveNow);
      liveBytes += n.outShape.size() * sizeof(float);
      plan.peakBytes = std::max(plan.peakBytes, liveBytes);
    }
    for (int dead : freeAt[i]) {
      const Node& d = g.nodes[static_cast<std::size_t>(dead)];
      if (!allocates(d)) continue;
      --classes[classOf(d.outShape.size())].liveNow;
      liveBytes -= d.outShape.size() * sizeof(float);
    }
  }
  for (const auto& [cls, cs] : classes) {
    if (cs.peak > 0) plan.reservations.emplace_back(cs.maxElems, cs.peak);
  }
  return plan;
}

std::string MemoryPlan::toString() const {
  std::ostringstream os;
  os << "plan(peak " << peakBytes << " bytes;";
  for (const auto& [elems, count] : reservations) {
    os << " " << count << "x" << elems;
  }
  os << ")";
  return os.str();
}

}  // namespace tfjs::graph
