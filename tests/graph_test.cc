// Graph capture + optimizing executor tests (DESIGN.md "Graph capture &
// optimization"): recorder behavior (value numbering, constant snapshots,
// loud failure on unrecorded kernels), per-pass IR goldens (fold / fuse /
// dce) with the TFJS_GRAPH_OPT bypass, the static memory plan, the
// fold-once-per-backend regression (a warm run does zero weight decodes),
// and the arena contract (a warm run does no shared-pool traffic).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "backends/common/ref_backend.h"
#include "core/buffer_pool.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "graph/capture.h"
#include "graph/executor.h"
#include "graph/passes.h"
#include "io/graph_executor.h"
#include "ops/ops.h"
#include "tests/test_util.h"

namespace tfjs {
namespace {

namespace o = ops;
using graph::CapturedGraph;
using graph::Graph;
using graph::Node;
using graph::PassOptions;
using ops::OpId;

/// Registers the scalar reference backend (test_main registers
/// cpu/native/webgl only).
void ensureRefRegistered() {
  static const bool once = [] {
    Engine::get().registerBackend(
        "ref", [] { return std::make_unique<backends::RefBackend>(); },
        /*priority=*/0);
    return true;
  }();
  (void)once;
}

void expectBitwiseEqual(const Tensor& a, const Tensor& b) {
  const auto av = a.dataSync();
  const auto bv = b.dataSync();
  ASSERT_EQ(av.size(), bv.size());
  if (std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < av.size(); ++i) {
    EXPECT_EQ(av[i], bv[i]) << "first mismatch at flat index " << i;
  }
}

std::uint64_t counterValue(const char* name) {
  return metrics::Registry::get().counter(name).value();
}

Node inputNode(const Shape& s, DType d = DType::f32) {
  Node n;
  n.op = OpId::kInput;
  n.outShape = s;
  n.outDtype = d;
  return n;
}

Node constNode(const Shape& s, DType d = DType::f32) {
  Node n;
  n.op = OpId::kConst;
  n.outShape = s;
  n.outDtype = d;
  return n;
}

Node opNode(OpId op, std::vector<int> inputs, std::vector<double> attrs,
            const Shape& s, DType d = DType::f32) {
  Node n;
  n.op = op;
  n.inputs = std::move(inputs);
  n.attrs = std::move(attrs);
  n.outShape = s;
  n.outDtype = d;
  return n;
}

constexpr double kAddCode = static_cast<double>(BinaryOp::kAdd);
constexpr double kReluCode = static_cast<double>(UnaryOp::kRelu);
constexpr double kF32Code = static_cast<double>(DType::f32);

// ---- capture ------------------------------------------------------------

TEST(GraphCapture, RecordsChainAndSnapshotsConstants) {
  setBackend("cpu");
  Tensor w = o::randomNormal(Shape{3, 4}, 0, 1, 11);
  Tensor b = o::randomNormal(Shape{4}, 0, 1, 12);
  Tensor x = o::randomNormal(Shape{2, 3}, 0, 1, 13);

  Graph g = graph::capture(
      [&](const std::vector<Tensor>& ins) {
        return std::vector<Tensor>{o::relu(o::add(o::matMul(ins[0], w), b))};
      },
      {x});

  // 1 input + 2 constant snapshots + matMul + add + relu. (matMul's
  // internal batched-rank-3 view of the input records a dead alias node;
  // dce sweeps it.)
  EXPECT_EQ(graph::dce(g).nodes.size(), 6u) << g.toString();
  ASSERT_EQ(g.inputs.size(), 1u);
  ASSERT_EQ(g.outputs.size(), 1u);
  const std::string ir = g.toString();
  EXPECT_NE(ir.find("matMul"), std::string::npos) << ir;
  EXPECT_NE(ir.find("binary"), std::string::npos) << ir;
  EXPECT_NE(ir.find("unary"), std::string::npos) << ir;
  EXPECT_NE(ir.find("const"), std::string::npos) << ir;

  // The snapshots alias the originals: same storage, kept alive.
  int constCount = 0;
  for (const Node& n : g.nodes) {
    if (n.op != OpId::kConst) continue;
    ++constCount;
    ASSERT_TRUE(n.constant.defined());
    EXPECT_TRUE(n.constant.dataId() == w.dataId() ||
                n.constant.dataId() == b.dataId());
  }
  EXPECT_EQ(constCount, 2);

  g.disposeConstants();
  for (Tensor t : {w, b, x}) t.dispose();
}

TEST(GraphCapture, ValueNumberingDedupsRepeatedSubexpressions) {
  setBackend("cpu");
  Tensor w = o::randomNormal(Shape{2, 2}, 0, 1, 21);
  Tensor x = o::randomNormal(Shape{2, 2}, 0, 1, 22);

  Graph g = graph::capture(
      [&](const std::vector<Tensor>& ins) {
        Tensor a = o::add(ins[0], w);
        Tensor b = o::add(ins[0], w);  // same (op, inputs, attrs): one node
        return std::vector<Tensor>{o::mul(a, b)};
      },
      {x});

  // input + const + ONE add + mul.
  EXPECT_EQ(g.nodes.size(), 4u) << g.toString();

  g.disposeConstants();
  for (Tensor t : {w, x}) t.dispose();
}

TEST(GraphCapture, ThrowsOnUnrecordedKernel) {
  setBackend("cpu");
  Tensor x = o::randomNormal(Shape{4, 2}, 0, 1, 31);
  Tensor idx = o::tensor1d({2, 0}, DType::i32);

  EXPECT_THROW(
      graph::capture(
          [&](const std::vector<Tensor>& ins) {
            return std::vector<Tensor>{o::gather(ins[0], idx)};
          },
          {x}),
      graph::CaptureError);

  // Allowlisted: the gather output is baked in as a constant and replay
  // still matches eager (the indices are part of the snapshot).
  graph::CaptureOptions opts;
  opts.allowUnrecordedKernels = {"gather"};
  Graph g = graph::capture(
      [&](const std::vector<Tensor>& ins) {
        return std::vector<Tensor>{o::addScalar(o::gather(ins[0], idx), 1)};
      },
      {x}, opts);
  Tensor eager = o::addScalar(o::gather(x, idx), 1);
  CapturedGraph cg(std::move(g));
  std::vector<Tensor> out = cg.run({x});
  expectBitwiseEqual(out[0], eager);

  out[0].dispose();
  cg.dispose();
  for (Tensor t : {x, idx, eager}) t.dispose();
}

TEST(GraphCapture, LeavesNoLiveTensorsBehind) {
  setBackend("cpu");
  Tensor w = o::randomNormal(Shape{2, 2}, 0, 1, 41);
  Tensor x = o::randomNormal(Shape{2, 2}, 0, 1, 42);
  const std::size_t before = memory().numTensors;

  Graph g = graph::capture(
      [&](const std::vector<Tensor>& ins) {
        return std::vector<Tensor>{o::relu(o::matMul(ins[0], w))};
      },
      {x});
  // Only the constant snapshot survives the capture scope.
  EXPECT_EQ(memory().numTensors, before + 1);
  g.disposeConstants();
  EXPECT_EQ(memory().numTensors, before);

  for (Tensor t : {w, x}) t.dispose();
}

// ---- pass goldens -------------------------------------------------------

/// x + (c1 + c2): the constant add folds; dce then drops its operands.
Graph foldFixture() {
  Graph g;
  g.nodes.push_back(inputNode(Shape{2, 2}));
  g.nodes.push_back(constNode(Shape{2, 2}));
  g.nodes.push_back(constNode(Shape{2, 2}));
  g.nodes.push_back(
      opNode(OpId::kBinary, {1, 2}, {kAddCode, kF32Code}, Shape{2, 2}));
  g.nodes.push_back(
      opNode(OpId::kBinary, {0, 3}, {kAddCode, kF32Code}, Shape{2, 2}));
  g.inputs = {0};
  g.outputs = {4};
  return g;
}

TEST(GraphPasses, FoldGolden) {
  Graph g = foldFixture();
  EXPECT_EQ(g.toString(),
            "graph(1 inputs, 5 nodes, 1 outputs)\n"
            "%0 = input -> float32[2,2]\n"
            "%1 = const -> float32[2,2]\n"
            "%2 = const -> float32[2,2]\n"
            "%3 = binary(%1, %2) {0,0} -> float32[2,2]\n"
            "%4 = binary(%0, %3) {0,0} -> float32[2,2]\n"
            "outputs: %4\n");

  Graph folded = graph::foldConstants(g);
  EXPECT_EQ(folded.toString(),
            "graph(1 inputs, 5 nodes, 1 outputs)\n"
            "%0 = input -> float32[2,2]\n"
            "%1 = const -> float32[2,2]\n"
            "%2 = const -> float32[2,2]\n"
            "%3 = const(folded) -> float32[2,2]\n"
            "%4 = binary(%0, %3) {0,0} -> float32[2,2]\n"
            "outputs: %4\n");
  // The marker points at the pre-optimization node that computes the value.
  EXPECT_EQ(folded.nodes[3].foldedFrom, 3);

  Graph swept = graph::dce(folded);
  EXPECT_EQ(swept.toString(),
            "graph(1 inputs, 3 nodes, 1 outputs)\n"
            "%0 = input -> float32[2,2]\n"
            "%1 = const(folded) -> float32[2,2]\n"
            "%2 = binary(%0, %1) {0,0} -> float32[2,2]\n"
            "outputs: %2\n");
  EXPECT_EQ(swept.nodes[1].foldedFrom, 3);  // still a pre-opt id
}

/// relu(matMul(x, w) + b): the canonical dense layer, fully fusable.
Graph fuseFixture() {
  Graph g;
  g.nodes.push_back(inputNode(Shape{2, 3}));
  g.nodes.push_back(constNode(Shape{3, 4}));
  g.nodes.push_back(constNode(Shape{4}));
  // {tA, tB, act, hasBias}
  g.nodes.push_back(opNode(OpId::kMatMul, {0, 1}, {0, 0, 0, 0}, Shape{2, 4}));
  g.nodes.push_back(
      opNode(OpId::kBinary, {3, 2}, {kAddCode, kF32Code}, Shape{2, 4}));
  g.nodes.push_back(
      opNode(OpId::kUnary, {4}, {kReluCode, 0, 0, kF32Code}, Shape{2, 4}));
  g.inputs = {0};
  g.outputs = {5};
  return g;
}

TEST(GraphPasses, FuseGolden) {
  Graph fused = graph::fuse(fuseFixture());
  // The add absorbs the matMul, setting hasBias; then the relu absorbs that
  // act=kNone node, setting act. Dead intermediates remain for dce.
  EXPECT_EQ(fused.toString(),
            "graph(1 inputs, 6 nodes, 1 outputs)\n"
            "%0 = input -> float32[2,3]\n"
            "%1 = const -> float32[3,4]\n"
            "%2 = const -> float32[4]\n"
            "%3 = matMul(%0, %1) {0,0,0,0} -> float32[2,4]\n"
            "%4 = matMul(%0, %1, %2) {0,0,0,1} -> float32[2,4]\n"
            "%5 = matMul(%0, %1, %2) {0,0,1,1} -> float32[2,4]\n"
            "outputs: %5\n");

  Graph swept = graph::dce(fused);
  EXPECT_EQ(swept.toString(),
            "graph(1 inputs, 4 nodes, 1 outputs)\n"
            "%0 = input -> float32[2,3]\n"
            "%1 = const -> float32[3,4]\n"
            "%2 = const -> float32[4]\n"
            "%3 = matMul(%0, %1, %2) {0,0,1,1} -> float32[2,4]\n"
            "outputs: %3\n");
}

TEST(GraphPasses, FuseDeclinesMultiUseAndOutputIntermediates) {
  // The matMul result is also a graph output: fusing it away would change
  // what the caller gets back.
  Graph g = fuseFixture();
  g.outputs = {3, 5};
  Graph fused = graph::fuse(g);
  EXPECT_EQ(fused.nodes[3].op, OpId::kMatMul);
  EXPECT_EQ(fused.nodes[4].op, OpId::kBinary);

  // Bias rank mismatch (rank-2 addend): not an epilogue.
  Graph g2 = fuseFixture();
  g2.nodes[2].outShape = Shape{2, 4};
  Graph fused2 = graph::fuse(g2);
  EXPECT_EQ(fused2.nodes[4].op, OpId::kBinary);

  // A length-1 addend broadcasts, but is not one entry per channel.
  Graph g3 = fuseFixture();
  g3.nodes[2].outShape = Shape{1};
  EXPECT_EQ(graph::fuse(g3).nodes[4].op, OpId::kBinary);
}

TEST(GraphPasses, FuseAbsorbsDepthwiseBiasAndActivation) {
  // relu6(depthwiseConv2d(x, f) + b), the chain a converted graph and an
  // unfused capture both produce: one fused depthwise node after dce.
  Graph g;
  g.nodes.push_back(inputNode(Shape{1, 5, 5, 3}));
  g.nodes.push_back(constNode(Shape{3, 3, 3, 1}));
  g.nodes.push_back(constNode(Shape{3}));
  g.nodes.push_back(
      opNode(OpId::kDepthwiseConv2d, {0, 1},
             {1, 1, static_cast<double>(PadMode::kSame), 1, 1, 0, 0},
             Shape{1, 5, 5, 3}));
  g.nodes.push_back(
      opNode(OpId::kBinary, {3, 2}, {kAddCode, kF32Code}, Shape{1, 5, 5, 3}));
  g.nodes.push_back(opNode(
      OpId::kUnary, {4},
      {static_cast<double>(UnaryOp::kRelu6), 0, 0, kF32Code},
      Shape{1, 5, 5, 3}));
  g.inputs = {0};
  g.outputs = {5};
  EXPECT_EQ(graph::dce(graph::fuse(g)).toString(),
            "graph(1 inputs, 4 nodes, 1 outputs)\n"
            "%0 = input -> float32[1,5,5,3]\n"
            "%1 = const -> float32[3,3,3,1]\n"
            "%2 = const -> float32[3]\n"
            "%3 = depthwiseConv2d(%0, %1, %2) {1,1,1,1,1,2,1} -> "
            "float32[1,5,5,3]\n"
            "outputs: %3\n");
}

/// mulScalar(relu(x + y), 2) with y broadcasting from the leaves: the whole
/// chain is one region; only the external leaf broadcasts.
Graph elemChainFixture() {
  Graph g;
  g.nodes.push_back(inputNode(Shape{2, 3}));
  g.nodes.push_back(inputNode(Shape{3}));
  g.nodes.push_back(
      opNode(OpId::kBinary, {0, 1}, {kAddCode, kF32Code}, Shape{2, 3}));
  g.nodes.push_back(
      opNode(OpId::kUnary, {2}, {kReluCode, 0, 0, kF32Code}, Shape{2, 3}));
  g.nodes.push_back(opNode(
      OpId::kUnary, {3},
      {static_cast<double>(UnaryOp::kMulScalar), 2, 0, kF32Code},
      Shape{2, 3}));
  g.inputs = {0, 1};
  g.outputs = {4};
  return g;
}

TEST(GraphPasses, FuseElementwiseGolden) {
  Graph fused = graph::fuseElementwise(elemChainFixture());
  // The terminal keeps its id; absorbed interiors stay behind for dce.
  ASSERT_EQ(fused.nodes.size(), 5u);
  const Node& region = fused.nodes[4];
  ASSERT_EQ(region.op, OpId::kFusedRegion) << fused.toString();
  EXPECT_EQ(region.inputs, (std::vector<int>{0, 1}));
  EXPECT_EQ(region.outShape, (Shape{2, 3}));

  const RegionProgram p = o::decodeRegionProgram(region.attrs);
  EXPECT_EQ(p.numInputs, 2);
  ASSERT_EQ(p.instrs.size(), 3u);
  // t0 = add(i0, i1); t1 = relu(t0); t2 = mulScalar(t1, 2)
  EXPECT_EQ(p.instrs[0].kind, RegionInstr::Kind::kBinary);
  EXPECT_EQ(p.instrs[0].op, static_cast<int>(BinaryOp::kAdd));
  EXPECT_EQ(p.instrs[0].a, -1);
  EXPECT_EQ(p.instrs[0].b, -2);
  EXPECT_EQ(p.instrs[1].kind, RegionInstr::Kind::kUnary);
  EXPECT_EQ(p.instrs[1].op, static_cast<int>(UnaryOp::kRelu));
  EXPECT_EQ(p.instrs[1].a, 0);
  EXPECT_EQ(p.instrs[2].op, static_cast<int>(UnaryOp::kMulScalar));
  EXPECT_EQ(p.instrs[2].a, 1);
  EXPECT_EQ(p.instrs[2].alpha, 2.0f);

  // The IR dump prints the program, not 23 raw attr doubles.
  EXPECT_NE(fused.toString().find("fusedRegion(%0, %1) ["),
            std::string::npos)
      << fused.toString();

  Graph swept = graph::dce(fused);
  EXPECT_EQ(swept.nodes.size(), 3u) << swept.toString();
  EXPECT_EQ(swept.nodes[2].op, OpId::kFusedRegion);
}

TEST(GraphPasses, FuseElementwiseDiamondSharesOneInstruction) {
  // s = x*x; out = s + s: the shared producer joins once its only consumer
  // is in the region, and becomes ONE instruction referenced twice.
  Graph g;
  g.nodes.push_back(inputNode(Shape{4}));
  g.nodes.push_back(
      opNode(OpId::kBinary, {0, 0}, {static_cast<double>(BinaryOp::kMul),
                                     kF32Code}, Shape{4}));
  g.nodes.push_back(
      opNode(OpId::kBinary, {1, 1}, {kAddCode, kF32Code}, Shape{4}));
  g.inputs = {0};
  g.outputs = {2};

  Graph fused = graph::fuseElementwise(g);
  const Node& region = fused.nodes[2];
  ASSERT_EQ(region.op, OpId::kFusedRegion) << fused.toString();
  const RegionProgram p = o::decodeRegionProgram(region.attrs);
  EXPECT_EQ(p.numInputs, 1);
  ASSERT_EQ(p.instrs.size(), 2u);
  EXPECT_EQ(p.instrs[1].a, 0);
  EXPECT_EQ(p.instrs[1].b, 0);
}

TEST(GraphPasses, FuseElementwiseRespectsOutputsAndShapes) {
  // An interior that is also a graph output cannot be absorbed — but it can
  // itself terminate a (smaller) region.
  Graph g = elemChainFixture();
  g.outputs = {3, 4};
  Graph fused = graph::fuseElementwise(g);
  EXPECT_EQ(fused.nodes[4].op, OpId::kUnary);  // mulScalar left alone
  EXPECT_EQ(fused.nodes[3].op, OpId::kFusedRegion);  // add+relu fused
  EXPECT_EQ(o::decodeRegionProgram(fused.nodes[3].attrs).instrs.size(), 2u);

  // A producer with a different output shape (interior broadcast) stays
  // outside: only leaf inputs may broadcast into a region.
  Graph g2;
  g2.nodes.push_back(inputNode(Shape{2, 3}));
  g2.nodes.push_back(inputNode(Shape{3}));
  g2.nodes.push_back(
      opNode(OpId::kUnary, {1}, {kReluCode, 0, 0, kF32Code}, Shape{3}));
  g2.nodes.push_back(
      opNode(OpId::kBinary, {0, 2}, {kAddCode, kF32Code}, Shape{2, 3}));
  g2.inputs = {0, 1};
  g2.outputs = {3};
  Graph fused2 = graph::fuseElementwise(g2);
  EXPECT_EQ(fused2.nodes[2].op, OpId::kUnary);
  EXPECT_EQ(fused2.nodes[3].op, OpId::kBinary);
}

TEST(GraphPasses, DceKeepsPlaceholdersAlive) {
  Graph g;
  g.nodes.push_back(inputNode(Shape{2}));
  g.nodes.push_back(inputNode(Shape{2}));  // never consumed
  g.nodes.push_back(
      opNode(OpId::kUnary, {0}, {kReluCode, 0, 0, kF32Code}, Shape{2}));
  g.inputs = {0, 1};
  g.outputs = {2};
  Graph swept = graph::dce(g);
  // Feed order is part of the signature: the unused placeholder survives.
  EXPECT_EQ(swept.nodes.size(), 3u);
  EXPECT_EQ(swept.inputs.size(), 2u);
}

// ---- TFJS_GRAPH_OPT -----------------------------------------------------

TEST(GraphPasses, PassOptionsFromEnv) {
  ::unsetenv("TFJS_GRAPH_OPT");
  PassOptions all = PassOptions::fromEnv();
  EXPECT_TRUE(all.fold && all.fuse && all.dce && all.plan &&
              all.fuseElementwise);

  ::setenv("TFJS_GRAPH_OPT", "0", 1);
  PassOptions none = PassOptions::fromEnv();
  EXPECT_FALSE(none.fold || none.fuse || none.dce || none.plan ||
               none.fuseElementwise);

  ::setenv("TFJS_GRAPH_OPT", "off", 1);
  none = PassOptions::fromEnv();
  EXPECT_FALSE(none.fold || none.fuse || none.dce || none.plan ||
               none.fuseElementwise);

  ::setenv("TFJS_GRAPH_OPT", "fold,dce", 1);
  PassOptions subset = PassOptions::fromEnv();
  EXPECT_TRUE(subset.fold);
  EXPECT_TRUE(subset.dce);
  EXPECT_FALSE(subset.fuse);
  EXPECT_FALSE(subset.plan);
  EXPECT_FALSE(subset.fuseElementwise);

  ::setenv("TFJS_GRAPH_OPT", "fuse_elementwise,dce", 1);
  subset = PassOptions::fromEnv();
  EXPECT_TRUE(subset.fuseElementwise);
  EXPECT_TRUE(subset.dce);
  EXPECT_FALSE(subset.fold || subset.fuse || subset.plan);

  ::setenv("TFJS_GRAPH_OPT", "1", 1);
  all = PassOptions::fromEnv();
  EXPECT_TRUE(all.fold && all.fuse && all.dce && all.plan &&
              all.fuseElementwise);

  // A typo must fail loudly, naming the bad token and the valid ones,
  // instead of silently switching every pass off.
  const std::pair<const char*, const char*> typos[] = {
      {"fuse-elementwise", "'fuse-elementwise'"},
      {"fold,dec", "'dec'"},
      {"fold,,dce", "''"}};
  for (const auto& [value, quoted] : typos) {
    ::setenv("TFJS_GRAPH_OPT", value, 1);
    try {
      PassOptions::fromEnv();
      ADD_FAILURE() << "accepted TFJS_GRAPH_OPT=" << value;
    } catch (const InvalidArgumentError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(quoted), std::string::npos) << msg;
      EXPECT_NE(msg.find("fuse_elementwise"), std::string::npos) << msg;
    }
  }

  ::unsetenv("TFJS_GRAPH_OPT");
}

TEST(GraphPasses, OptToggleBypassesPipeline) {
  setBackend("cpu");
  Tensor w = o::randomNormal(Shape{3, 3}, 0, 1, 51);
  Tensor b = o::randomNormal(Shape{3}, 0, 1, 52);
  Tensor x = o::randomNormal(Shape{2, 3}, 0, 1, 53);
  auto fn = [&](const std::vector<Tensor>& ins) {
    return std::vector<Tensor>{o::relu(o::add(o::matMul(ins[0], w), b))};
  };
  Tensor eager = fn({x})[0];

  ::setenv("TFJS_GRAPH_OPT", "0", 1);
  CapturedGraph off(graph::capture(fn, {x}));  // default opts read the env
  ::unsetenv("TFJS_GRAPH_OPT");
  // Bypassed: the optimized graph is the captured graph, verbatim.
  EXPECT_EQ(off.optimized().toString(), off.original().toString());

  CapturedGraph on(graph::capture(fn, {x}), PassOptions::all());
  EXPECT_LT(on.optimized().nodes.size(), on.original().nodes.size());

  // Both replays are bit-identical to eager (the fused epilogue contract).
  std::vector<Tensor> a = off.run({x});
  std::vector<Tensor> c = on.run({x});
  expectBitwiseEqual(a[0], eager);
  expectBitwiseEqual(c[0], eager);

  a[0].dispose();
  c[0].dispose();
  off.dispose();
  on.dispose();
  for (Tensor t : {w, b, x, eager}) t.dispose();
}

// ---- memory plan --------------------------------------------------------

TEST(GraphPlan, LivenessAndReservations) {
  Graph g;
  g.nodes.push_back(inputNode(Shape{2, 2}));
  g.nodes.push_back(
      opNode(OpId::kUnary, {0}, {kReluCode, 0, 0, kF32Code}, Shape{2, 2}));
  g.nodes.push_back(
      opNode(OpId::kUnary, {1}, {kReluCode, 0, 0, kF32Code}, Shape{2, 2}));
  g.nodes.push_back(
      opNode(OpId::kUnary, {2}, {kReluCode, 0, 0, kF32Code}, Shape{2, 2}));
  g.inputs = {0};
  g.outputs = {3};

  graph::MemoryPlan plan = graph::planMemory(g);
  ASSERT_EQ(plan.lastUse.size(), 4u);
  EXPECT_EQ(plan.lastUse[1], 2);
  EXPECT_EQ(plan.lastUse[2], 3);
  EXPECT_EQ(plan.lastUse[3], graph::MemoryPlan::kLiveToEnd);
  // At most two 4-element buffers live at once; 32 bytes peak.
  EXPECT_EQ(plan.toString(), "plan(peak 32 bytes; 2x4)");
}

// ---- executor -----------------------------------------------------------

TEST(GraphExec, CapturedMatchesEagerBitwiseOnAllBackends) {
  ensureRefRegistered();
  Tensor w = o::randomNormal(Shape{6, 8}, 0, 0.5f, 61);
  Tensor b = o::randomNormal(Shape{8}, 0, 0.5f, 62);
  Tensor w2 = o::randomNormal(Shape{8, 3}, 0, 0.5f, 63);
  Tensor x = o::randomNormal(Shape{4, 6}, 0, 1, 64);
  auto fn = [&](const std::vector<Tensor>& ins) {
    Tensor h = o::relu(o::add(o::matMul(ins[0], w), b));
    return std::vector<Tensor>{o::softmax(o::matMul(h, w2))};
  };

  for (const char* backend : {"ref", "cpu", "native"}) {
    setBackend(backend);
    Tensor eager = tidy([&] { return fn({x})[0]; });
    CapturedGraph cg(graph::capture(fn, {x}), PassOptions::all());
    std::vector<Tensor> cold = cg.run({x});
    std::vector<Tensor> warm = cg.run({x});
    expectBitwiseEqual(cold[0], eager);
    expectBitwiseEqual(warm[0], eager);
    cold[0].dispose();
    warm[0].dispose();
    cg.dispose();
    eager.dispose();
  }
  setBackend("cpu");
  for (Tensor t : {w, b, w2, x}) t.dispose();
}

TEST(GraphExec, Int8RoutedWeightsStayBitwise) {
  ensureRefRegistered();
  setBackend("cpu");
  Tensor w = o::randomNormal(Shape{5, 7}, 0, 1, 71);
  Tensor w8 = o::quantizePerChannel(w);
  Tensor b = o::randomNormal(Shape{7}, 0, 1, 72);
  Tensor x = o::randomNormal(Shape{3, 5}, 0, 1, 73);
  auto fn = [&](const std::vector<Tensor>& ins) {
    // int8 weights: matMul runs the backend's int8 kernel; the capture
    // must keep the weight int8 (and its quantization parameters).
    return std::vector<Tensor>{o::add(o::matMul(ins[0], w8), b)};
  };

  for (const char* backend : {"ref", "cpu", "native"}) {
    setBackend(backend);
    Tensor eager = tidy([&] { return fn({x})[0]; });
    CapturedGraph cg(graph::capture(fn, {x}), PassOptions::all());
    std::vector<Tensor> out = cg.run({x});
    expectBitwiseEqual(out[0], eager);
    out[0].dispose();
    cg.dispose();
    eager.dispose();
  }
  setBackend("cpu");
  for (Tensor t : {w, w8, b, x}) t.dispose();
}

/// The one non-placeholder, non-view node of `g`, or null when there are
/// none or several.
const Node* soleProducer(const Graph& g) {
  const Node* found = nullptr;
  for (const Node& n : g.nodes) {
    if (n.op == OpId::kInput || n.op == OpId::kConst ||
        n.op == OpId::kAlias) {
      continue;
    }
    if (found != nullptr) return nullptr;
    found = &n;
  }
  return found;
}

TEST(GraphExec, ProducerOpsCaptureAsOneNodeEach) {
  // Plain and fused producer ops, with f32 or int8 weights, all record
  // their kernel's one node: the op's layout followed by {act, hasBias}. An
  // int8 weight is a property of the weight input, and replay runs the
  // kernel's int8 path as eager does.
  ensureRefRegistered();
  setBackend("cpu");
  Tensor xm = o::randomNormal(Shape{3, 5}, 0, 1, 81);
  Tensor wm = o::randomNormal(Shape{5, 4}, 0, 1, 82);
  Tensor bm = o::randomNormal(Shape{4}, 0, 1, 83);
  Tensor xc = o::randomNormal(Shape{1, 6, 6, 3}, 0, 1, 84);
  Tensor wc = o::randomNormal(Shape{3, 3, 3, 4}, 0, 1, 85);
  Tensor bc = o::randomNormal(Shape{4}, 0, 1, 86);
  Tensor wd = o::randomNormal(Shape{3, 3, 3, 2}, 0, 1, 87);
  Tensor bd = o::randomNormal(Shape{6}, 0, 1, 88);
  Tensor wm8 = o::quantizePerChannel(wm);
  Tensor wc8 = o::quantizePerChannel(wc);
  using Act = FusedActivation;
  const auto code = [](auto v) { return static_cast<double>(v); };
  const double same = code(PadMode::kSame), valid = code(PadMode::kValid);
  struct Case {
    const char* what;
    Tensor x;
    std::function<Tensor(const Tensor&)> op;
    OpId id;
    std::vector<double> attrs;
  };
  const Case cases[] = {
      {"matMul", xm, [&](const Tensor& x) { return o::matMul(x, wm); },
       OpId::kMatMul, {0, 0, 0, 0}},
      {"fusedMatMul", xm,
       [&](const Tensor& x) { return o::fusedMatMul(x, wm, bm, Act::kRelu); },
       OpId::kMatMul, {0, 0, code(Act::kRelu), 1}},
      {"fusedMatMul, int8 weights", xm,
       [&](const Tensor& x) {
         return o::fusedMatMul(x, wm8, bm, Act::kSigmoid);
       },
       OpId::kMatMul, {0, 0, code(Act::kSigmoid), 1}},
      {"matMul, int8 weights", xm,
       [&](const Tensor& x) { return o::matMul(x, wm8); }, OpId::kMatMul,
       {0, 0, 0, 0}},
      {"conv2d", xc,
       [&](const Tensor& x) { return o::conv2d(x, wc, 2, 2, PadMode::kSame); },
       OpId::kConv2d, {2, 2, same, 1, 1, 0, 0}},
      {"fusedConv2d", xc,
       [&](const Tensor& x) {
         return o::fusedConv2d(x, wc, bc, Act::kRelu6, 1, 1, PadMode::kSame);
       },
       OpId::kConv2d, {1, 1, same, 1, 1, code(Act::kRelu6), 1}},
      {"fusedConv2d, int8 weights", xc,
       [&](const Tensor& x) {
         return o::fusedConv2d(x, wc8, Tensor(), Act::kRelu, 1, 1,
                               PadMode::kValid);
       },
       OpId::kConv2d, {1, 1, valid, 1, 1, code(Act::kRelu), 0}},
      {"depthwiseConv2d", xc,
       [&](const Tensor& x) {
         return o::depthwiseConv2d(x, wd, 1, 1, PadMode::kSame);
       },
       OpId::kDepthwiseConv2d, {1, 1, same, 1, 1, 0, 0}},
      {"fusedDepthwiseConv2d", xc,
       [&](const Tensor& x) {
         return o::fusedDepthwiseConv2d(x, wd, bd, Act::kRelu6, 2, 2,
                                        PadMode::kSame);
       },
       OpId::kDepthwiseConv2d, {2, 2, same, 1, 1, code(Act::kRelu6), 1}},
  };
  const char* const backends[] = {"ref", "cpu", "native", "webgl"};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const auto fn = [&](const std::vector<Tensor>& ins) {
      return std::vector<Tensor>{c.op(ins[0])};
    };
    setBackend("cpu");
    const Graph g = graph::dce(graph::capture(fn, {c.x}));
    const Node* n = soleProducer(g);
    ASSERT_NE(n, nullptr) << g.toString();
    EXPECT_EQ(n->op, c.id) << g.toString();
    EXPECT_EQ(n->attrs, c.attrs) << g.toString();
    EXPECT_EQ(n->inputs.size(), c.attrs.back() != 0 ? 3u : 2u);
    for (const char* backend : backends) {
      SCOPED_TRACE(backend);
      setBackend(backend);
      Tensor eager = tidy([&] { return c.op(c.x); });
      CapturedGraph cg(graph::capture(fn, {c.x}), PassOptions::all());
      std::vector<Tensor> out = cg.run({c.x});
      expectBitwiseEqual(out[0], eager);
      out[0].dispose();
      cg.dispose();
      eager.dispose();
    }
  }

  // An int8 producer absorbs its bias add and activation like an f32 one:
  // the int8 epilogue runs the same scalar formulas on the dequantized
  // value, so the fused node stays bitwise equal.
  const auto chain = [&](const std::vector<Tensor>& ins) {
    return std::vector<Tensor>{o::relu(o::add(
        o::conv2d(ins[0], wc8, 1, 1, PadMode::kSame),
        bc))};
  };
  for (const char* backend : backends) {
    SCOPED_TRACE(backend);
    setBackend(backend);
    Tensor eager = tidy([&] { return chain({xc})[0]; });
    CapturedGraph cg(graph::capture(chain, {xc}), PassOptions::all());
    const Node* n = soleProducer(cg.optimized());
    ASSERT_NE(n, nullptr) << cg.optimized().toString();
    EXPECT_EQ(n->op, OpId::kConv2d);
    EXPECT_EQ(n->attrs, (std::vector<double>{1, 1, same, 1, 1,
                                             code(Act::kRelu), 1}));
    std::vector<Tensor> out = cg.run({xc});
    expectBitwiseEqual(out[0], eager);
    out[0].dispose();
    cg.dispose();
    eager.dispose();
  }
  setBackend("cpu");
  for (Tensor t : {xm, wm, bm, xc, wc, bc, wd, bd, wm8, wc8}) t.dispose();
}

TEST(GraphExec, FoldedConstantsMaterializeOncePerBackend) {
  ensureRefRegistered();
  setBackend("cpu");
  Tensor a = o::randomNormal(Shape{4, 4}, 0, 1, 81);
  Tensor c = o::randomNormal(Shape{4, 4}, 0, 1, 82);
  Tensor x = o::randomNormal(Shape{2, 4}, 0, 1, 83);
  auto fn = [&](const std::vector<Tensor>& ins) {
    Tensor folded = o::mul(a, c);  // constant subexpression
    return std::vector<Tensor>{o::matMul(ins[0], folded)};
  };
  Tensor eagerCpu = tidy([&] { return fn({x})[0]; });

  CapturedGraph cg(graph::capture(fn, {x}), PassOptions::all());

  const std::uint64_t d0 = counterValue("graph.const_decodes");
  std::vector<Tensor> r1 = cg.run({x});
  EXPECT_EQ(counterValue("graph.const_decodes"), d0 + 1);  // cold: one fold
  std::vector<Tensor> r2 = cg.run({x});
  EXPECT_EQ(counterValue("graph.const_decodes"), d0 + 1);  // warm: zero
  expectBitwiseEqual(r1[0], eagerCpu);
  expectBitwiseEqual(r2[0], eagerCpu);
  r1[0].dispose();
  r2[0].dispose();

  // A new backend folds once with its own kernels, then caches too.
  setBackend("native");
  Tensor eagerNative = tidy([&] { return fn({x})[0]; });
  std::vector<Tensor> n1 = cg.run({x});
  EXPECT_EQ(counterValue("graph.const_decodes"), d0 + 2);
  std::vector<Tensor> n2 = cg.run({x});
  EXPECT_EQ(counterValue("graph.const_decodes"), d0 + 2);
  expectBitwiseEqual(n1[0], eagerNative);
  expectBitwiseEqual(n2[0], eagerNative);
  n1[0].dispose();
  n2[0].dispose();
  eagerNative.dispose();

  setBackend("cpu");
  cg.dispose();
  for (Tensor t : {a, c, x, eagerCpu}) t.dispose();
}

TEST(GraphExec, WarmRunUsesArenaNotSharedPool) {
  setBackend("cpu");
  Tensor w1 = o::randomNormal(Shape{16, 32}, 0, 0.5f, 91);
  Tensor w2 = o::randomNormal(Shape{32, 16}, 0, 0.5f, 92);
  Tensor x = o::randomNormal(Shape{8, 16}, 0, 1, 93);
  auto fn = [&](const std::vector<Tensor>& ins) {
    Tensor h = o::relu(o::matMul(ins[0], w1));
    return std::vector<Tensor>{o::sigmoid(o::matMul(h, w2))};
  };

  CapturedGraph cg(graph::capture(fn, {x}), PassOptions::all());
  EXPECT_FALSE(cg.plan().reservations.empty());
  std::vector<Tensor> cold = cg.run({x});
  cold[0].dispose();

  const auto pool0 = core::BufferPool::get().stats();
  const std::uint64_t miss0 = counterValue("pool.arena_misses");
  const std::uint64_t hit0 = counterValue("pool.arena_hits");
  std::vector<Tensor> warm = cg.run({x});
  const auto pool1 = core::BufferPool::get().stats();

  // Every allocation in the warm run came out of the graph's arena: no
  // arena misses, no shared-pool hits or misses.
  EXPECT_GT(counterValue("pool.arena_hits"), hit0);
  EXPECT_EQ(counterValue("pool.arena_misses"), miss0);
  EXPECT_EQ(pool1.hits, pool0.hits);
  EXPECT_EQ(pool1.misses, pool0.misses);

  warm[0].dispose();
  cg.dispose();
  for (Tensor t : {w1, w2, x}) t.dispose();
}

TEST(GraphExec, RunLeavesNoLiveTensorsBehind) {
  setBackend("cpu");
  Tensor w = o::randomNormal(Shape{4, 4}, 0, 1, 101);
  Tensor x = o::randomNormal(Shape{2, 4}, 0, 1, 102);
  auto fn = [&](const std::vector<Tensor>& ins) {
    return std::vector<Tensor>{o::relu(o::matMul(ins[0], w))};
  };
  CapturedGraph cg(graph::capture(fn, {x}), PassOptions::all());

  const std::size_t before = memory().numTensors;
  std::vector<Tensor> out = cg.run({x});
  EXPECT_EQ(memory().numTensors, before + 1);  // just the output
  out[0].dispose();
  EXPECT_EQ(memory().numTensors, before);

  cg.dispose();
  for (Tensor t : {w, x}) t.dispose();
}

TEST(GraphExec, FeedValidation) {
  setBackend("cpu");
  Tensor x = o::randomNormal(Shape{2, 2}, 0, 1, 111);
  auto fn = [&](const std::vector<Tensor>& ins) {
    return std::vector<Tensor>{o::relu(ins[0])};
  };
  CapturedGraph cg(graph::capture(fn, {x}), PassOptions::all());

  EXPECT_THROW(cg.run({}), InvalidArgumentError);
  Tensor wrongDtype = o::cast(x, DType::i32);
  EXPECT_THROW(cg.run({wrongDtype}), InvalidArgumentError);
  // io imports don't know placeholder dtypes; the check is optional.
  cg.setStrictFeedDtypes(false);
  std::vector<Tensor> out = cg.run({wrongDtype});
  out[0].dispose();

  cg.dispose();
  for (Tensor t : {x, wrongDtype}) t.dispose();
}

TEST(GraphExec, PassthroughOutputsGetFreshHandles) {
  setBackend("cpu");
  Tensor x = o::randomNormal(Shape{2, 2}, 0, 1, 121);
  auto fn = [&](const std::vector<Tensor>& ins) {
    Tensor y = o::relu(ins[0]);
    return std::vector<Tensor>{ins[0], y, y};  // feed + repeated output
  };
  CapturedGraph cg(graph::capture(fn, {x}), PassOptions::all());
  std::vector<Tensor> out = cg.run({x});
  ASSERT_EQ(out.size(), 3u);
  expectBitwiseEqual(out[0], x);
  expectBitwiseEqual(out[1], out[2]);
  // Every returned handle is disposable exactly once, and the feed
  // survives.
  for (Tensor& t : out) t.dispose();
  EXPECT_FALSE(x.isDisposed());

  cg.dispose();
  x.dispose();
}

TEST(GraphExec, FusedRegionBitwiseOnAllBackends) {
  ensureRefRegistered();
  setBackend("cpu");
  Tensor b = o::randomNormal(Shape{8}, 0, 0.5f, 141);
  Tensor x = o::randomNormal(Shape{4, 8}, 0, 1, 142);
  auto fn = [&](const std::vector<Tensor>& ins) {
    // Broadcast leaf, diamond sharing, comparison + select, scalar tail:
    // everything the fuser claims to fuse, in one chain.
    Tensor h = o::mul(o::add(ins[0], b), ins[0]);
    Tensor t = o::relu(h);
    Tensor s = o::where(o::greater(t, o::mulScalar(t, 0.5f)), t, o::neg(t));
    return std::vector<Tensor>{o::addScalar(s, 0.5f)};
  };

  const std::uint64_t r0 = counterValue("graph.fused_regions");
  for (const char* backend : {"ref", "cpu", "native"}) {
    setBackend(backend);
    Tensor eager = tidy([&] { return fn({x})[0]; });
    CapturedGraph cg(graph::capture(fn, {x}), PassOptions::all());
    std::vector<Tensor> cold = cg.run({x});
    std::vector<Tensor> warm = cg.run({x});
    expectBitwiseEqual(cold[0], eager);
    expectBitwiseEqual(warm[0], eager);
    cold[0].dispose();
    warm[0].dispose();
    cg.dispose();
    eager.dispose();
  }
  EXPECT_GT(counterValue("graph.fused_regions"), r0);
  setBackend("cpu");
  for (Tensor t : {b, x}) t.dispose();
}

TEST(GraphExec, SingletonElementwiseNodesReplayInPlace) {
  // A transpose between every elementwise op keeps fuseElementwise from
  // forming a region, so abs, log and maximum each replay as a standalone
  // one-instruction program. Each one's first input is an intermediate
  // that dies there, so the executor hands it to the move-consuming
  // fusedRegion and the kernel overwrites it in place — three in-place
  // reuses per run, at outputs bitwise equal to eager.
  ensureRefRegistered();
  setBackend("cpu");
  Tensor x = o::randomNormal(Shape{4, 6}, 0, 1, 151);
  Tensor c = o::randomNormal(Shape{6, 4}, 0, 1, 152);
  auto fn = [&](const std::vector<Tensor>& ins) {
    Tensor a = o::abs(o::transpose(ins[0]));
    Tensor l = o::log(o::transpose(a));
    return std::vector<Tensor>{o::maximum(o::transpose(l), c)};
  };

  const std::uint64_t r0 = counterValue("graph.fused_regions");
  for (const char* backend : {"ref", "cpu", "native"}) {
    setBackend(backend);
    Tensor eager = tidy([&] { return fn({x})[0]; });
    CapturedGraph cg(graph::capture(fn, {x}), PassOptions::all());
    std::vector<Tensor> cold = cg.run({x});
    const std::uint64_t before = counterValue("engine.inplace_reuses");
    std::vector<Tensor> warm = cg.run({x});
    EXPECT_EQ(counterValue("engine.inplace_reuses") - before, 3u) << backend;
    expectBitwiseEqual(cold[0], eager);
    expectBitwiseEqual(warm[0], eager);
    cold[0].dispose();
    warm[0].dispose();
    cg.dispose();
    eager.dispose();
  }
  EXPECT_EQ(counterValue("graph.fused_regions"), r0);
  setBackend("cpu");
  for (Tensor t : {x, c}) t.dispose();
}

TEST(GraphExec, ShapeClassReusesPlanAcrossBatchSizes) {
  setBackend("cpu");
  Tensor w = o::randomNormal(Shape{6}, 0, 0.5f, 151);
  Tensor x4 = o::randomNormal(Shape{4, 6}, 0, 1, 152);
  auto fn = [&](const std::vector<Tensor>& ins) {
    return std::vector<Tensor>{o::mulScalar(o::relu(o::add(ins[0], w)), 3)};
  };
  CapturedGraph cg(graph::capture(fn, {x4}), PassOptions::all());

  // Batches 4, 7, 16 share one symbolic shape-class (rank 2, no 1-dims):
  // the plan instantiates once and every later batch reuses it. Batch 1 is
  // a separate class — a leading 1 changes broadcast semantics.
  const std::uint64_t c0 = counterValue("graph.plan_compiles");
  for (int batch : {4, 7, 16, 7, 4}) {
    Tensor x = o::randomNormal(Shape{batch, 6}, 0, 1, 160 + batch);
    Tensor eager = tidy([&] { return fn({x})[0]; });
    std::vector<Tensor> out = cg.run({x});
    expectBitwiseEqual(out[0], eager);
    out[0].dispose();
    eager.dispose();
    x.dispose();
  }
  EXPECT_EQ(counterValue("graph.plan_compiles"), c0 + 1);
  EXPECT_EQ(cg.numArenas(), 1u);

  Tensor x1 = o::randomNormal(Shape{1, 6}, 0, 1, 159);
  std::vector<Tensor> out1 = cg.run({x1});
  EXPECT_EQ(counterValue("graph.plan_compiles"), c0 + 2);
  EXPECT_EQ(cg.numArenas(), 2u);
  out1[0].dispose();
  x1.dispose();

  cg.dispose();
  for (Tensor t : {w, x4}) t.dispose();
}

TEST(GraphExec, ArenaCacheEvictsLeastRecentShapeClass) {
  setBackend("cpu");
  Tensor x = o::randomNormal(Shape{2, 2}, 0, 1, 171);
  auto fn = [&](const std::vector<Tensor>& ins) {
    return std::vector<Tensor>{o::relu(ins[0])};
  };
  CapturedGraph cg(graph::capture(fn, {x}), PassOptions::all());

  // kMaxArenas + 1 distinct shape-classes: the first one (the capture
  // example, least recently used) is evicted; the map stays capped.
  const std::vector<Shape> classes = {
      Shape{2, 2},    Shape{1, 2},    Shape{2, 1},
      Shape{1, 1},    Shape{2, 2, 2}, Shape{1, 2, 2},
      Shape{2, 1, 2}, Shape{2, 2, 1}, Shape{1, 1, 2}};
  ASSERT_EQ(classes.size(), CapturedGraph::kMaxArenas + 1);
  const std::uint64_t e0 = counterValue("pool.arena_evictions");
  const std::uint64_t c0 = counterValue("graph.plan_compiles");
  for (const Shape& s : classes) {
    Tensor f = o::randomNormal(s, 0, 1, 180);
    std::vector<Tensor> out = cg.run({f});
    out[0].dispose();
    f.dispose();
  }
  EXPECT_EQ(cg.numArenas(), CapturedGraph::kMaxArenas);
  EXPECT_EQ(counterValue("pool.arena_evictions"), e0 + 1);
  EXPECT_EQ(counterValue("graph.plan_compiles"), c0 + classes.size());

  // The evicted class pays one re-instantiation on its next run.
  std::vector<Tensor> again = cg.run({x});
  EXPECT_EQ(counterValue("graph.plan_compiles"), c0 + classes.size() + 1);
  EXPECT_EQ(counterValue("pool.arena_evictions"), e0 + 2);
  again[0].dispose();

  cg.dispose();
  x.dispose();
}

// ---- io::GraphExecutor regression ---------------------------------------

TEST(GraphExec, ConvertedDepthwiseBiasRelu6RunsAsOneKernel) {
  setBackend("native");
  // A converter-style MobileNet block tail: DepthwiseConv2dNative, BiasAdd,
  // Relu6. The fuse pass folds the last two into the depthwise kernel.
  io::GraphDef def;
  Tensor f = o::randomNormal(Shape{3, 3, 4, 1}, 0, 1, 134);
  Tensor b = o::randomNormal(Shape{4}, 0, 1, 135);
  io::Json attrs;
  attrs["strides"] =
      io::Json(io::JsonArray{io::Json(1), io::Json(2), io::Json(2),
                             io::Json(1)});
  attrs["padding"] = "SAME";
  def.nodes.push_back({"x", "Placeholder", {}, Tensor(), io::Json()});
  def.nodes.push_back({"f", "VariableV2", {}, f, io::Json()});
  def.nodes.push_back({"b", "VariableV2", {}, b, io::Json()});
  def.nodes.push_back({"dw", "DepthwiseConv2dNative", {"x", "f"}, Tensor(),
                       attrs});
  def.nodes.push_back({"biased", "BiasAdd", {"dw", "b"}, Tensor(), io::Json()});
  def.nodes.push_back({"out", "Relu6", {"biased"}, Tensor(), io::Json()});
  def.outputs = {"out"};
  io::GraphExecutor exec(std::move(def));

  Tensor x = o::randomNormal(Shape{1, 9, 9, 4}, 0, 3, 136);
  exec.execute({{"x", x}}).dispose();  // compiles and folds outside profile
  Tensor got;
  const ProfileInfo info = profile([&] { got = exec.execute({{"x", x}}); });
  std::string names;
  for (const auto& k : info.kernels) names += k.name + " ";
  EXPECT_EQ(names, "depthwiseConv2d ");
  Tensor expected =
      o::relu6(o::add(o::depthwiseConv2d(x, f, 2, 2, PadMode::kSame), b));
  expectBitwiseEqual(got, expected);
  for (Tensor t : {x, got, expected, f, b}) t.dispose();
  setBackend("cpu");
}

TEST(GraphExec, ImportedGraphDecodesWeightsOnce) {
  setBackend("native");
  // x + (w * s): the weight product is const-folded at import, so the
  // decode happens on the first execute only — the old executor re-resolved
  // weights on every run.
  io::GraphDef def;
  Tensor w = o::randomNormal(Shape{2, 3}, 0, 1, 131);
  Tensor s = o::randomNormal(Shape{2, 3}, 0, 1, 132);
  def.nodes.push_back({"x", "Placeholder", {}, Tensor(), io::Json()});
  def.nodes.push_back({"w", "VariableV2", {}, w, io::Json()});
  def.nodes.push_back({"s", "Const", {}, s, io::Json()});
  def.nodes.push_back({"ws", "Mul", {"w", "s"}, Tensor(), io::Json()});
  def.nodes.push_back({"out", "Add", {"x", "ws"}, Tensor(), io::Json()});
  def.outputs = {"out"};
  io::GraphExecutor exec(std::move(def));

  Tensor x = o::randomNormal(Shape{2, 3}, 0, 1, 133);
  const std::uint64_t d0 = counterValue("graph.const_decodes");
  Tensor r1 = exec.execute({{"x", x}});
  const std::uint64_t afterCold = counterValue("graph.const_decodes");
  EXPECT_GT(afterCold, d0);
  Tensor r2 = exec.execute({{"x", x}});
  // Warm execute: zero weight re-decodes.
  EXPECT_EQ(counterValue("graph.const_decodes"), afterCold);
  expectBitwiseEqual(r1, r2);

  Tensor expected = o::add(x, o::mul(w, s));
  test::expectClose(r1, expected, 1e-6f);
  for (Tensor t : {x, r1, r2, expected, w, s}) t.dispose();
  setBackend("cpu");
}

}  // namespace
}  // namespace tfjs
