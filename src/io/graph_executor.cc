#include "io/graph_executor.h"

#include <algorithm>

#include "core/engine.h"

namespace tfjs::io {

namespace {

std::string canonical(const std::string& ref) {
  std::string name = ref;
  if (!name.empty() && name[0] == '^') name = name.substr(1);
  const auto colon = name.find(':');
  if (colon != std::string::npos) name = name.substr(0, colon);
  return name;
}

/// attrs["strides"] = [1, sH, sW, 1] (NHWC), TF convention.
std::pair<int, int> spatialStrides(const Json& attrs) {
  if (!attrs.has("strides")) return {1, 1};
  const auto& s = attrs.at("strides").asArray();
  TFJS_ARG_CHECK(s.size() == 4, "strides attr must have 4 entries (NHWC)");
  return {s[1].asInt(), s[2].asInt()};
}

PadMode padAttr(const Json& attrs) {
  if (!attrs.has("padding")) return PadMode::kValid;
  const std::string& p = attrs.at("padding").asString();
  if (p == "SAME" || p == "same") return PadMode::kSame;
  if (p == "VALID" || p == "valid") return PadMode::kValid;
  throw InvalidArgumentError("Unknown padding attr: " + p);
}

/// Translates the GraphDef subgraph reachable from the requested outputs
/// into the shared graph IR. One importer per output set; memoization by
/// node name keeps shared producers single-noded (the diamond-sharing
/// guarantee the old recursive evaluator gave).
struct Importer {
  const std::map<std::string, const GraphNode*>& byName;
  graph::Graph g;
  std::vector<std::string> placeholders;
  std::map<std::string, int> idByName;
  std::vector<std::string> inProgress;

  int append(graph::Node n, const std::string& name) {
    n.name = name;
    g.nodes.push_back(std::move(n));
    return static_cast<int>(g.nodes.size()) - 1;
  }

  int import(const std::string& name) {
    if (auto it = idByName.find(name); it != idByName.end()) return it->second;
    TFJS_ARG_CHECK(std::find(inProgress.begin(), inProgress.end(), name) ==
                       inProgress.end(),
                   "Graph cycle through node '" << name << "'");
    auto nodeIt = byName.find(name);
    TFJS_ARG_CHECK(nodeIt != byName.end(),
                   "Unknown graph node '" << name << "'");
    const GraphNode& node = *nodeIt->second;
    inProgress.push_back(name);

    auto in = [&](std::size_t i) -> int {
      TFJS_ARG_CHECK(i < node.inputs.size(),
                     "Node '" << name << "' (" << node.op
                              << ") is missing input " << i);
      return import(canonical(node.inputs[i]));
    };

    using ops::OpId;
    graph::Node n;
    const std::string& op = node.op;
    if (op == "Placeholder") {
      n.op = OpId::kInput;
      const int id = append(std::move(n), name);
      g.inputs.push_back(id);
      placeholders.push_back(name);
      inProgress.pop_back();
      idByName[name] = id;
      return id;
    } else if (op == "VariableV2" || op == "Const") {
      TFJS_ARG_CHECK(node.weight.defined() && !node.weight.isDisposed(),
                     "Node '" << name << "' has no weight payload");
      n.op = OpId::kConst;
      n.constant = node.weight.clone().keep();
      n.outShape = node.weight.shape();
      n.outDtype = node.weight.dtype();
    } else if (op == "Identity") {
      n.op = OpId::kAlias;
      n.attrs = {2};
      n.inputs = {in(0)};
    } else if (op == "Reshape") {
      TFJS_ARG_CHECK(node.attrs.has("shape"),
                     "Reshape node '" << name << "' needs a shape attr");
      std::vector<int> dims;
      for (const auto& d : node.attrs.at("shape").asArray()) {
        dims.push_back(d.asInt());
      }
      n.op = OpId::kAlias;
      n.attrs = {3};
      n.shapeAttr = Shape(dims);
      n.inputs = {in(0)};
    } else if (op == "Squeeze") {
      n.op = OpId::kAlias;
      n.attrs = {1};
      n.inputs = {in(0)};
    } else if (op == "Conv2D" || op == "DepthwiseConv2dNative") {
      const auto [sH, sW] = spatialStrides(node.attrs);
      n.op = op == "Conv2D" ? OpId::kConv2d : OpId::kDepthwiseConv2d;
      // {sH, sW, pad, dH, dW, act, hasBias}: no epilogue until fuse.
      n.attrs = {static_cast<double>(sH), static_cast<double>(sW),
                 static_cast<double>(padAttr(node.attrs)), 1, 1, 0, 0};
      n.inputs = {in(0), in(1)};
    } else if (op == "MaxPool" || op == "AvgPool") {
      const auto [sH, sW] = spatialStrides(node.attrs);
      int kH = 2, kW = 2;
      if (node.attrs.has("ksize")) {
        const auto& ks = node.attrs.at("ksize").asArray();
        kH = ks[1].asInt();
        kW = ks[2].asInt();
      }
      n.op = OpId::kPool;
      n.attrs = {static_cast<double>(op == "MaxPool" ? PoolMode::kMax
                                                     : PoolMode::kAvg),
                 static_cast<double>(kH), static_cast<double>(kW),
                 static_cast<double>(sH), static_cast<double>(sW),
                 static_cast<double>(padAttr(node.attrs))};
      n.inputs = {in(0)};
    } else if (op == "Relu" || op == "Relu6" || op == "Sigmoid" ||
               op == "Tanh") {
      const UnaryOp code = op == "Relu"    ? UnaryOp::kRelu
                           : op == "Relu6" ? UnaryOp::kRelu6
                           : op == "Sigmoid" ? UnaryOp::kSigmoid
                                             : UnaryOp::kTanh;
      n.op = OpId::kUnary;
      n.attrs = {static_cast<double>(code), 0, 0,
                 static_cast<double>(DType::f32)};
      n.inputs = {in(0)};
    } else if (op == "Softmax") {
      n.op = OpId::kSoftmax;
      n.attrs = {-1};
      n.inputs = {in(0)};
    } else if (op == "Add" || op == "AddV2" || op == "BiasAdd" ||
               op == "Sub" || op == "Mul" || op == "RealDiv") {
      const BinaryOp code = op == "Sub"   ? BinaryOp::kSub
                            : op == "Mul" ? BinaryOp::kMul
                            : op == "RealDiv" ? BinaryOp::kDiv
                                              : BinaryOp::kAdd;
      n.op = OpId::kBinary;
      n.attrs = {static_cast<double>(code), static_cast<double>(DType::f32)};
      n.inputs = {in(0), in(1)};
    } else if (op == "MatMul") {
      const bool tA = node.attrs.has("transpose_a") &&
                      node.attrs.at("transpose_a").asBool();
      const bool tB = node.attrs.has("transpose_b") &&
                      node.attrs.at("transpose_b").asBool();
      n.op = OpId::kMatMul;
      n.attrs = {tA ? 1.0 : 0.0, tB ? 1.0 : 0.0, 0, 0};
      n.inputs = {in(0), in(1)};
    } else if (op == "Mean") {
      n.op = OpId::kReduce;
      const bool keep =
          node.attrs.has("keep_dims") && node.attrs.at("keep_dims").asBool();
      n.attrs = {static_cast<double>(ReduceOp::kMean), keep ? 1.0 : 0.0,
                 static_cast<double>(DType::f32)};
      if (node.attrs.has("axes")) {
        for (const auto& a : node.attrs.at("axes").asArray()) {
          n.attrs.push_back(a.asInt());
        }
      }
      n.inputs = {in(0)};
    } else {
      throw UnimplementedError("GraphExecutor: unsupported op '" + op +
                               "' (node '" + name +
                               "'); run pruneTrainingOps first?");
    }

    const int id = append(std::move(n), name);
    inProgress.pop_back();
    idByName[name] = id;
    return id;
  }
};

}  // namespace

GraphExecutor::GraphExecutor(GraphDef graph) : graph_(std::move(graph)) {
  for (const auto& n : graph_.nodes) {
    TFJS_ARG_CHECK(byName_.emplace(n.name, &n).second,
                   "Duplicate graph node '" << n.name << "'");
    if (n.weight.defined() && !n.weight.isDisposed()) n.weight.keep();
  }
}

GraphExecutor::~GraphExecutor() {
  for (auto& [key, compiled] : cache_) compiled->exec.dispose();
  for (const auto& n : graph_.nodes) {
    if (n.weight.defined() && !n.weight.isDisposed()) n.weight.dispose();
  }
}

GraphExecutor::Compiled& GraphExecutor::compiledFor(
    const std::vector<std::string>& outputs) {
  std::string key;
  for (const auto& out : outputs) {
    key += out;
    key += '\n';
  }
  if (auto it = cache_.find(key); it != cache_.end()) return *it->second;

  Importer imp{byName_, {}, {}, {}, {}};
  for (const auto& out : outputs) {
    imp.g.outputs.push_back(imp.import(out));
  }
  auto compiled = std::make_unique<Compiled>();
  compiled->exec =
      graph::CapturedGraph(std::move(imp.g), graph::PassOptions::fromEnv());
  compiled->exec.setStrictFeedDtypes(false);
  compiled->placeholders = std::move(imp.placeholders);
  auto [it, inserted] = cache_.emplace(key, std::move(compiled));
  return *it->second;
}

std::vector<Tensor> GraphExecutor::execute(
    const std::map<std::string, Tensor>& feeds,
    std::span<const std::string> outputs) {
  std::vector<std::string> names;
  names.reserve(outputs.size());
  for (const auto& out : outputs) names.push_back(canonical(out));
  Compiled& compiled = compiledFor(names);

  std::vector<Tensor> ordered;
  ordered.reserve(compiled.placeholders.size());
  for (const std::string& ph : compiled.placeholders) {
    auto fed = feeds.find(ph);
    TFJS_ARG_CHECK(fed != feeds.end(),
                   "No feed provided for placeholder '" << ph << "'");
    ordered.push_back(fed->second);
  }
  return compiled.exec.run(ordered);
}

Tensor GraphExecutor::execute(const std::map<std::string, Tensor>& feeds) {
  TFJS_ARG_CHECK(!graph_.outputs.empty(), "Graph declares no outputs");
  const std::vector<std::string> outs{graph_.outputs[0]};
  return execute(feeds, outs)[0];
}

}  // namespace tfjs::io
