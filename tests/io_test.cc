// IO tests (paper section 5.1): JSON round trips, weight quantization (4x
// size reduction, bounded error), 4 MB sharding (E11), model save/load
// round trips, and the converter's training-op pruning.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "core/engine.h"
#include "io/converter.h"
#include "io/model_io.h"
#include "layers/core_layers.h"
#include "models/mobilenet.h"
#include "ops/ops.h"
#include "tests/test_util.h"

namespace tfjs {
namespace {

namespace o = ops;
namespace L = layers;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override { setBackend("native"); }
};

// ------------------------------------------------------------------- JSON

TEST_F(IoTest, JsonParseAndDumpRoundTrip) {
  const std::string text =
      R"({"a": 1, "b": [true, null, "x\ny"], "c": {"d": 2.5, "e": -3}})";
  io::Json j = io::Json::parse(text);
  EXPECT_EQ(j.at("a").asInt(), 1);
  EXPECT_TRUE(j.at("b").asArray()[0].asBool());
  EXPECT_TRUE(j.at("b").asArray()[1].isNull());
  EXPECT_EQ(j.at("b").asArray()[2].asString(), "x\ny");
  EXPECT_DOUBLE_EQ(j.at("c").at("d").asDouble(), 2.5);
  EXPECT_EQ(j.at("c").at("e").asInt(), -3);
  // dump -> parse -> dump is a fixed point.
  const std::string d1 = j.dump();
  EXPECT_EQ(io::Json::parse(d1).dump(), d1);
}

TEST_F(IoTest, JsonErrors) {
  EXPECT_THROW(io::Json::parse("{"), InvalidArgumentError);
  EXPECT_THROW(io::Json::parse("[1,]2"), InvalidArgumentError);
  EXPECT_THROW(io::Json::parse("{\"a\" 1}"), InvalidArgumentError);
  EXPECT_THROW(io::Json::parse("nulll"), InvalidArgumentError);
  io::Json j = io::Json::parse("{\"a\": 1}");
  EXPECT_THROW(j.at("missing"), InvalidArgumentError);
  EXPECT_THROW(j.at("a").asString(), InvalidArgumentError);
}

TEST_F(IoTest, JsonPrettyPrint) {
  io::Json j;
  j["k"] = io::Json(io::JsonArray{io::Json(1), io::Json(2)});
  const std::string pretty = j.dump(2);
  EXPECT_NE(pretty.find("\n"), std::string::npos);
  EXPECT_EQ(io::Json::parse(pretty).dump(), j.dump());
}

TEST_F(IoTest, JsonNonFiniteAndShortestNumbers) {
  io::Json j;
  j["nan"] = std::nan("");
  j["inf"] = std::numeric_limits<double>::infinity();
  j["ninf"] = -std::numeric_limits<double>::infinity();
  j["tenth"] = 0.1;
  const std::string text = j.dump(2);
  EXPECT_NE(text.find("\"tenth\": 0.1\n"), std::string::npos) << text;
  const io::Json back = io::Json::parse(text);
  EXPECT_TRUE(back.at("nan").isNull());
  EXPECT_TRUE(back.at("inf").isNull());
  EXPECT_TRUE(back.at("ninf").isNull());
  EXPECT_EQ(back.at("tenth").asDouble(), 0.1);
}

// ---------------------------------------------------------------- weights

TEST_F(IoTest, WeightsRoundTripFloat32) {
  Tensor a = o::randomNormal(Shape{17, 3}, 0, 2, 1);
  Tensor b = o::range(0, 10);
  std::vector<std::pair<std::string, Tensor>> named = {{"w/a", a}, {"w/b", b}};
  io::WeightsManifest m = io::encodeWeights(named);
  EXPECT_EQ(m.totalBytes(), (17 * 3 + 10) * 4u);
  auto decoded = io::decodeWeights(m);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].first, "w/a");
  test::expectClose(decoded[0].second, a, 0);
  test::expectClose(decoded[1].second, b, 0);
  for (auto& [n, t] : decoded) t.dispose();
  a.dispose();
  b.dispose();
}

TEST_F(IoTest, QuantizationUint8Reduces4xWithBoundedError) {
  Tensor w = o::randomUniform(Shape{1000}, -2, 2, 3);
  std::vector<std::pair<std::string, Tensor>> named = {{"w", w}};
  io::WeightsManifest full = io::encodeWeights(named);
  io::WeightsManifest q8 =
      io::encodeWeights(named, io::Quantization::kUint8);
  // The paper's claim: "quantize the weights, reducing the model size by 4X".
  EXPECT_EQ(full.totalBytes(), 4 * q8.totalBytes());

  auto decoded = io::decodeWeights(q8);
  const auto orig = w.dataSync();
  const auto got = decoded[0].second.dataSync();
  const float maxError = 4.0f / 255 / 2 + 1e-4f;  // half a quantization step
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_NEAR(got[i], orig[i], maxError);
  }
  decoded[0].second.dispose();
  w.dispose();
}

TEST_F(IoTest, QuantizationUint16HalvesWithTighterError) {
  Tensor w = o::randomUniform(Shape{512}, -1, 1, 4);
  std::vector<std::pair<std::string, Tensor>> named = {{"w", w}};
  io::WeightsManifest q16 =
      io::encodeWeights(named, io::Quantization::kUint16);
  EXPECT_EQ(q16.totalBytes(), 512u * 2);
  auto decoded = io::decodeWeights(q16);
  test::expectClose(decoded[0].second, w, 2.0f / 65535 + 1e-6f);
  decoded[0].second.dispose();
  w.dispose();
}

TEST_F(IoTest, QuantizationInt8KeepsWeightsQuantizedAtRest) {
  // Eligible kernels (rank >= 2, "/kernel", not depthwise) serialize as
  // per-channel int8 codes and decode back as i8 tensors with parameters
  // attached — no dequantize on load. Everything else stays f32.
  Tensor w = o::randomUniform(Shape{9, 6}, -3, 3, 11);
  Tensor bias = o::randomUniform(Shape{6}, -1, 1, 12);
  std::vector<std::pair<std::string, Tensor>> named = {
      {"dense/kernel", w}, {"dense/bias", bias}};
  io::WeightsManifest m = io::encodeWeights(named, io::Quantization::kInt8);
  EXPECT_EQ(m.totalBytes(), 9u * 6 + 6 * 4);  // 1 byte/code, bias raw f32

  auto decoded = io::decodeWeights(m);
  ASSERT_EQ(decoded.size(), 2u);
  Tensor& qw = decoded[0].second;
  EXPECT_EQ(qw.dtype(), DType::i8);
  ASSERT_NE(qw.quantParams(), nullptr);
  ASSERT_EQ(qw.quantParams()->scale.size(), 6u);

  // Dequantized values stay within half a per-channel quantization step.
  const auto orig = w.dataSync();
  const auto codes = qw.dataSync();
  const auto& qp = *qw.quantParams();
  for (std::size_t i = 0; i < orig.size(); ++i) {
    const float s = qp.scale[i % 6];
    EXPECT_NEAR(codes[i] * s, orig[i], s / 2 + 1e-6f);
  }
  EXPECT_EQ(decoded[1].second.dtype(), DType::f32);
  test::expectClose(decoded[1].second, bias, 0);

  // A second encode of the already-int8 tensor round-trips codes verbatim.
  std::vector<std::pair<std::string, Tensor>> renamed = {
      {"dense/kernel", qw}};
  auto again = io::decodeWeights(io::encodeWeights(renamed));
  test::expectClose(again[0].second, qw, 0);
  EXPECT_EQ(again[0].second.dtype(), DType::i8);
  for (auto& [n, t] : again) t.dispose();
  for (auto& [n, t] : decoded) t.dispose();
  w.dispose();
  bias.dispose();
}

TEST_F(IoTest, QuantizationConstantTensor) {
  Tensor w = o::fill(Shape{16}, 3.25f);
  std::vector<std::pair<std::string, Tensor>> named = {{"w", w}};
  auto decoded =
      io::decodeWeights(io::encodeWeights(named, io::Quantization::kUint8));
  test::expectClose(decoded[0].second, w, 0);
  decoded[0].second.dispose();
  w.dispose();
}

TEST_F(IoTest, ShardingSplitsAtLimit) {
  // 1000 floats with a 1 KB shard limit -> 4000 bytes -> 4 shards (E11).
  Tensor w = o::randomNormal(Shape{1000}, 0, 1, 5);
  std::vector<std::pair<std::string, Tensor>> named = {{"w", w}};
  io::WeightsManifest m =
      io::encodeWeights(named, io::Quantization::kNone, 1024);
  EXPECT_EQ(m.shards.size(), 4u);
  for (std::size_t i = 0; i + 1 < m.shards.size(); ++i) {
    EXPECT_EQ(m.shards[i].size(), 1024u);
  }
  auto decoded = io::decodeWeights(m);
  test::expectClose(decoded[0].second, w, 0);
  decoded[0].second.dispose();
  w.dispose();
}

TEST_F(IoTest, WeightSpecJsonRoundTrip) {
  io::WeightSpec s;
  s.name = "layer/kernel";
  s.shape = Shape{3, 4};
  s.dtype = DType::f32;
  s.quantization = io::Quantization::kUint8;
  s.quantMin = -1.5f;
  s.quantScale = 0.01f;
  io::WeightSpec back = io::WeightSpec::fromJson(
      io::Json::parse(s.toJson().dump()));
  EXPECT_EQ(back.name, s.name);
  EXPECT_EQ(back.shape.toString(), "[3,4]");
  EXPECT_EQ(back.quantization, io::Quantization::kUint8);
  EXPECT_FLOAT_EQ(back.quantMin, s.quantMin);
  EXPECT_FLOAT_EQ(back.quantScale, s.quantScale);
}

// ----------------------------------------------------------- model save/load

TEST_F(IoTest, ModelSaveLoadRoundTrip) {
  auto model = sequential("saveload");
  L::DenseOptions d1;
  d1.units = 8;
  d1.activation = "relu";
  model->add(std::make_shared<L::Dense>(d1));
  L::DenseOptions d2;
  d2.units = 2;
  d2.activation = "softmax";
  model->add(std::make_shared<L::Dense>(d2));
  model->build(Shape{1, 5});

  Tensor x = o::randomNormal(Shape{3, 5}, 0, 1, 6);
  Tensor yBefore = model->predict(x);

  const std::string dir = "/tmp/tfjs_cpp_test_model";
  std::filesystem::remove_all(dir);
  io::saveModel(*model, Shape{1, 5}, dir);
  EXPECT_TRUE(std::filesystem::exists(dir + "/model.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/group1-shard1of1.bin"));

  auto loaded = io::loadModel(dir);
  Tensor yAfter = loaded->predict(x);
  test::expectClose(yAfter, yBefore, 1e-6f);

  for (Tensor t : {x, yBefore, yAfter}) t.dispose();
  model->dispose();
  loaded->dispose();
  std::filesystem::remove_all(dir);
}

TEST_F(IoTest, ModelSaveLoadQuantizedStaysClose) {
  auto model = sequential("quantized");
  L::DenseOptions d;
  d.units = 4;
  model->add(std::make_shared<L::Dense>(d));
  model->build(Shape{1, 6});
  Tensor x = o::randomNormal(Shape{2, 6}, 0, 1, 7);
  Tensor yBefore = model->predict(x);

  const std::string dir = "/tmp/tfjs_cpp_test_model_q8";
  std::filesystem::remove_all(dir);
  io::SaveOptions opts;
  opts.quantization = io::Quantization::kUint8;
  io::saveModel(*model, Shape{1, 6}, dir, opts);
  auto loaded = io::loadModel(dir);
  Tensor yAfter = loaded->predict(x);
  test::expectClose(yAfter, yBefore, 0.05f);

  for (Tensor t : {x, yBefore, yAfter}) t.dispose();
  model->dispose();
  loaded->dispose();
  std::filesystem::remove_all(dir);
}

TEST_F(IoTest, LoadMissingModelThrows) {
  EXPECT_THROW(io::loadModel("/tmp/does_not_exist_tfjs"),
               InvalidArgumentError);
}

// ---------------------------------------------------------------- converter

io::GraphDef makeTrainingGraph() {
  // input -> conv(w) -> relu -> output, plus an Adam training subgraph and
  // a checkpoint saver hanging off the weights.
  io::GraphDef g;
  g.nodes.push_back({"input", "Placeholder", {}, Tensor()});
  g.nodes.push_back({"w", "VariableV2", {}, ops::randomNormal(Shape{3, 3, 1, 4},
                                                              0, 1, 8)});
  g.nodes.push_back({"conv", "Conv2D", {"input", "w"}, Tensor()});
  g.nodes.push_back({"relu", "Relu", {"conv"}, Tensor()});
  g.nodes.push_back({"grad_w", "Conv2DBackpropFilter",
                     {"input", "relu"}, Tensor()});
  g.nodes.push_back({"m", "VariableV2", {}, ops::zeros(Shape{3, 3, 1, 4})});
  g.nodes.push_back({"train", "ApplyAdam", {"w", "m", "grad_w"}, Tensor()});
  g.nodes.push_back({"save", "SaveV2", {"w", "m"}, Tensor()});
  g.outputs = {"relu"};
  return g;
}

TEST_F(IoTest, ConverterPrunesTrainingOps) {
  io::GraphDef g = makeTrainingGraph();
  io::GraphDef pruned = io::pruneTrainingOps(g);
  EXPECT_EQ(pruned.nodes.size(), 4u);  // input, w, conv, relu
  for (const auto& n : pruned.nodes) {
    EXPECT_FALSE(io::isTrainingOnlyOp(n.op)) << n.op;
    EXPECT_NE(n.name, "m");
    EXPECT_NE(n.name, "train");
    EXPECT_NE(n.name, "save");
  }
}

TEST_F(IoTest, ConverterDropsOptimizerSlotWeights) {
  io::GraphDef g = makeTrainingGraph();
  io::ConvertStats stats;
  io::WeightsManifest m =
      io::convertGraph(g, io::Quantization::kNone, io::kDefaultShardBytes,
                       &stats);
  // Only "w" survives: the Adam slot variable "m" is training-only state.
  ASSERT_EQ(m.specs.size(), 1u);
  EXPECT_EQ(m.specs[0].name, "w");
  EXPECT_EQ(stats.nodesBefore, 8u);
  EXPECT_EQ(stats.nodesAfter, 4u);
  EXPECT_EQ(stats.weightsBytesAfter, 3u * 3 * 1 * 4 * 4);
  EXPECT_LT(stats.weightsBytesAfter, stats.weightsBytesBefore);
}

TEST_F(IoTest, ConverterHandlesControlEdgesAndSlots) {
  io::GraphDef g;
  g.nodes.push_back({"w", "VariableV2", {}, ops::ones(Shape{2})});
  g.nodes.push_back({"out", "Identity", {"w:0", "^w"}, Tensor()});
  g.outputs = {"out:0"};
  io::GraphDef pruned = io::pruneTrainingOps(g);
  EXPECT_EQ(pruned.nodes.size(), 2u);
}

TEST_F(IoTest, ConverterQuantizesOnTopOfPruning) {
  io::GraphDef g = makeTrainingGraph();
  io::ConvertStats stats;
  io::convertGraph(g, io::Quantization::kUint8, io::kDefaultShardBytes,
                   &stats);
  EXPECT_EQ(stats.weightsBytesAfter, 3u * 3 * 1 * 4);  // 1 byte per weight
}

// ------------------------------------------------------------ MobileNet IO

TEST_F(IoTest, MobileNetSaveLoadSharded) {
  // A 0.25-width MobileNet still has ~200k params; with a 256 KB shard limit
  // the save must produce several shards and round-trip exactly.
  models::MobileNetOptions opts;
  opts.alpha = 0.25f;
  opts.inputSize = 32;
  opts.numClasses = 10;
  auto model = models::buildMobileNetV1(opts);
  model->build(Shape{1, 32, 32, 3});

  const std::string dir = "/tmp/tfjs_cpp_test_mobilenet";
  std::filesystem::remove_all(dir);
  io::SaveOptions save;
  save.maxShardBytes = 256 * 1024;
  io::saveModel(*model, Shape{1, 32, 32, 3}, dir, save);

  int shards = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".bin") {
      ++shards;
      EXPECT_LE(entry.file_size(), 256u * 1024);
    }
  }
  EXPECT_GT(shards, 1);

  auto loaded = io::loadModel(dir);
  Tensor x = o::randomNormal(Shape{1, 32, 32, 3}, 0, 1, 10);
  Tensor a = model->predict(x);
  Tensor b = loaded->predict(x);
  test::expectClose(a, b, 1e-6f);
  for (Tensor t : {x, a, b}) t.dispose();
  model->dispose();
  loaded->dispose();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tfjs
