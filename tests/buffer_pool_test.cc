// BufferPool tests: bucket round-trips, the byte-cap LRU eviction, the
// TFJS_BUFFER_POOL=0 bypass, thread-safety of concurrent acquire/release,
// and the engine-level integration — dispose (including under tidy())
// parks storage in the pool, engine.memory() reports it as pooledBytes,
// and move-consuming ops take over their input's buffer in place.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backends/common/ref_backend.h"
#include "core/buffer_pool.h"
#include "core/engine.h"
#include "core/metrics.h"
#include "ops/ops.h"
#include "tests/test_util.h"

namespace tfjs {
namespace {

namespace o = ops;
using core::BufferPool;

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& pool = BufferPool::get();
    pool.setEnabled(true);
    pool.clear();
    pool.resetStats();
  }
  void TearDown() override {
    auto& pool = BufferPool::get();
    pool.setEnabled(true);
    pool.setCapBytes(std::size_t{256} << 20);
    pool.clear();
  }
};

// ------------------------------------------------------------- direct pool

TEST_F(BufferPoolTest, MissThenHitRoundTrip) {
  auto& pool = BufferPool::get();
  std::vector<float> v = pool.acquire(100);
  EXPECT_EQ(v.size(), 100u);
  // Capacity is rounded to the bucket's power of two, so the buffer can
  // serve any request that maps to the same bucket.
  EXPECT_EQ(v.capacity(), 128u);
  const float* data = v.data();
  pool.release(std::move(v));
  EXPECT_GT(pool.pooledBytes(), 0u);

  // Any size in (64, 128] maps to the same bucket and reuses the storage.
  std::vector<float> w = pool.acquire(65);
  EXPECT_EQ(w.data(), data);
  EXPECT_EQ(w.size(), 65u);
  pool.release(std::move(w));

  const auto s = pool.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.returns, 2u);
  EXPECT_EQ(s.bypasses, 0u);
}

TEST_F(BufferPoolTest, DifferentBucketDoesNotReuse) {
  auto& pool = BufferPool::get();
  std::vector<float> small = pool.acquire(100);  // bucket 7 (128)
  pool.release(std::move(small));
  std::vector<float> large = pool.acquire(1000);  // bucket 10 (1024)
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 2u);
  pool.release(std::move(large));
}

TEST_F(BufferPoolTest, ByteCapEvictsLeastRecentlyReturned) {
  auto& pool = BufferPool::get();
  // Three *distinct* 1024-float buffers = 12 KiB parked: hold all three
  // live before releasing, otherwise the pool would round-trip one buffer.
  std::vector<std::vector<float>> live;
  std::vector<const float*> ptrs;
  for (int i = 0; i < 3; ++i) {
    live.push_back(pool.acquire(1024));
    ptrs.push_back(live.back().data());
  }
  for (auto& v : live) pool.release(std::move(v));
  EXPECT_EQ(pool.pooledBytes(), 3 * 1024 * sizeof(float));
  // Cap to two buffers' worth: the oldest return must be evicted.
  pool.setCapBytes(2 * 1024 * sizeof(float));
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_LE(pool.pooledBytes(), pool.capBytes());
  // MRU reuse: the most recently returned buffer comes back first.
  std::vector<float> v = pool.acquire(1024);
  EXPECT_EQ(v.data(), ptrs[2]);
  pool.release(std::move(v));
}

TEST_F(BufferPoolTest, DisabledPoolBypassesAndFrees) {
  auto& pool = BufferPool::get();
  std::vector<float> parked = pool.acquire(256);
  pool.release(std::move(parked));
  ASSERT_GT(pool.pooledBytes(), 0u);

  pool.setEnabled(false);  // also drops everything parked
  EXPECT_EQ(pool.pooledBytes(), 0u);
  std::vector<float> v = pool.acquire(256);
  EXPECT_EQ(v.size(), 256u);
  pool.release(std::move(v));
  EXPECT_EQ(pool.pooledBytes(), 0u);  // release frees instead of parking
  const auto s = pool.stats();
  EXPECT_EQ(s.bypasses, 1u);
  pool.setEnabled(true);
}

TEST_F(BufferPoolTest, InitFromEnvTogglesAndSizes) {
  auto& pool = BufferPool::get();
  ::setenv("TFJS_BUFFER_POOL", "0", 1);
  pool.initFromEnv();
  EXPECT_FALSE(pool.enabled());

  ::setenv("TFJS_BUFFER_POOL", "1", 1);
  ::setenv("TFJS_BUFFER_POOL_MB", "1", 1);
  pool.initFromEnv();
  EXPECT_TRUE(pool.enabled());
  EXPECT_EQ(pool.capBytes(), std::size_t{1} << 20);

  ::unsetenv("TFJS_BUFFER_POOL");
  ::unsetenv("TFJS_BUFFER_POOL_MB");
  pool.initFromEnv();
  EXPECT_TRUE(pool.enabled());
  EXPECT_EQ(pool.capBytes(), std::size_t{256} << 20);
}

TEST_F(BufferPoolTest, ConcurrentAcquireRelease) {
  // Exercised under TSan by tools/run_tsan.sh: workers release scratch
  // buffers from pool threads while others acquire.
  auto& pool = BufferPool::get();
  constexpr int kThreads = 4, kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        std::vector<float> v = pool.acquire(64 + 64 * t);
        v[0] = static_cast<float>(i);
        pool.release(std::move(v));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = pool.stats();
  EXPECT_EQ(s.hits + s.misses + s.bypasses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_LE(pool.pooledBytes(), pool.capBytes());
}

// --------------------------------------------------------- engine coupling

TEST_F(BufferPoolTest, DisposeUnderTidyReturnsToPool) {
  setBackend("cpu");
  auto& pool = BufferPool::get();
  pool.clear();
  pool.resetStats();
  const auto before = Engine::get().memory();
  Tensor kept = Engine::get().tidy([] {
    Tensor a = o::fill(Shape{64, 64}, 1.f);
    Tensor b = o::add(a, a);    // intermediate, disposed by tidy
    Tensor c = o::mul(b, b);    // intermediate, disposed by tidy
    return o::sum(c);
  });
  // tidy's dispose of the intermediates parked their buffers.
  EXPECT_GT(pool.stats().returns, 0u);
  EXPECT_GT(pool.pooledBytes(), 0u);
  // Pooled bytes are reported separately from live bytes.
  const auto after = Engine::get().memory();
  EXPECT_EQ(after.pooledBytes, pool.pooledBytes());
  EXPECT_EQ(after.numBytes, before.numBytes + kept.size() * sizeof(float));
  kept.dispose();
}

TEST_F(BufferPoolTest, SteadyStateChainHitsPool) {
  setBackend("cpu");
  auto& pool = BufferPool::get();
  Tensor x = o::fill(Shape{128, 128}, 0.5f);
  // Warm-up allocates; afterwards each op's output reuses the buffer the
  // previous iteration's dispose parked.
  for (int i = 0; i < 3; ++i) {
    Tensor y = o::relu(x);
    y.dispose();
  }
  pool.resetStats();
  for (int i = 0; i < 5; ++i) {
    Tensor y = o::relu(x);
    y.dispose();
  }
  const auto s = pool.stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u) << "steady-state chain should be allocation-free";
  x.dispose();
}

// ------------------------------------------- in-place move-consuming ops

/// The move-consuming overloads on every backend. ref, cpu and native run
/// them in place as a one-instruction fused region; webgl has no region
/// kernel, so its move overloads must allocate and still return the right
/// values.
class InPlaceTest : public BufferPoolTest,
                    public ::testing::WithParamInterface<const char*> {
 protected:
  void SetUp() override {
    BufferPoolTest::SetUp();
    static const bool refRegistered = [] {
      Engine::get().registerBackend(
          "ref", [] { return std::make_unique<backends::RefBackend>(); },
          /*priority=*/0);
      return true;
    }();
    (void)refRegistered;
    setBackend(GetParam());
  }
  bool writesInPlace() const { return std::string(GetParam()) != "webgl"; }
};

INSTANTIATE_TEST_SUITE_P(AllBackends, InPlaceTest,
                         ::testing::Values("ref", "cpu", "native", "webgl"),
                         [](const auto& info) { return info.param; });

TEST_P(InPlaceTest, MoveConsumingOpReusesBufferInPlace) {
  auto& inplace = metrics::Registry::get().counter("engine.inplace_reuses");
  const auto reusesBefore = inplace.value();
  Tensor a = o::tensor({-2.f, -1.f, 0.f, 1.f, 2.f, 3.f}, Shape{2, 3});
  const DataId id = a.dataId();
  Tensor y = o::relu(std::move(a));
  EXPECT_EQ(y.dataId() == id, writesInPlace())
      << "sole owner: relu should write in place on region backends";
  test::expectValues(y, {0.f, 0.f, 0.f, 1.f, 2.f, 3.f});

  // Binary in place with a broadcast (scalar) second operand.
  const DataId yId = y.dataId();
  Tensor s = o::scalar(10.f);
  Tensor z = o::add(std::move(y), s);
  EXPECT_EQ(z.dataId() == yId, writesInPlace());
  test::expectValues(z, {10.f, 10.f, 10.f, 11.f, 12.f, 13.f});

  // ... and with a per-channel (suffix) second operand.
  const DataId zId = z.dataId();
  Tensor bias = o::tensor({1.f, 2.f, 4.f}, Shape{3});
  Tensor w = o::sub(std::move(z), bias);
  EXPECT_EQ(w.dataId() == zId, writesInPlace());
  test::expectValues(w, {9.f, 8.f, 6.f, 10.f, 10.f, 9.f});
  EXPECT_EQ(inplace.value(), reusesBefore + (writesInPlace() ? 3 : 0));
  w.dispose();
  bias.dispose();
  s.dispose();
}

TEST_P(InPlaceTest, SharedTensorRefusesInPlace) {
  Tensor a = o::tensor({1.f, -2.f, 3.f}, Shape{3});
  Tensor alias = a.clone();  // second reference to the same container
  const DataId id = a.dataId();
  Tensor y = o::relu(std::move(a));
  EXPECT_NE(y.dataId(), id) << "shared container must not be overwritten";
  test::expectValues(alias, {1.f, -2.f, 3.f});
  test::expectValues(y, {1.f, 0.f, 3.f});
  y.dispose();
  alias.dispose();
}

TEST_P(InPlaceTest, KeptTensorRefusesInPlace) {
  Tensor a = o::tensor({-1.f, 2.f}, Shape{2});
  a.keep();
  const DataId id = a.dataId();
  Tensor y = o::relu(std::move(a));
  EXPECT_NE(y.dataId(), id);
  test::expectValues(y, {0.f, 2.f});
  y.dispose();
}

TEST_P(InPlaceTest, BroadcastGrowthRefusesBinaryInPlace) {
  // First operand [1,3] broadcasts up to [2,3]: its buffer cannot hold the
  // output, so the move overload must fall back to allocating.
  Tensor a = o::tensor({1.f, 2.f, 3.f}, Shape{1, 3});
  Tensor b = o::fill(Shape{2, 3}, 10.f);
  const DataId id = a.dataId();
  Tensor y = o::add(std::move(a), b);
  EXPECT_NE(y.dataId(), id);
  test::expectValues(y, {11.f, 12.f, 13.f, 11.f, 12.f, 13.f});
  y.dispose();
  b.dispose();
}

// --------------------------------------------- concurrent-session accounting

TEST_F(BufferPoolTest, ConcurrentDisposeAllocKeepsAccountingConsistent) {
  // Serving runs dispose/alloc from several threads at once (client threads
  // dispose their tensors while the scheduler allocates). Accounting —
  // engine.memory(), the pool counters, and the pooled-bytes gauge — must
  // not drift. Exercised under TSan by tools/run_tsan.sh.
  setBackend("native");
  Engine& engine = Engine::get();
  auto& pool = BufferPool::get();
  const auto before = engine.memory();

  constexpr int kThreads = 4, kIters = 150;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, t] {
      std::vector<float> host(64, static_cast<float>(t));
      for (int i = 0; i < kIters; ++i) {
        Tensor a = engine.makeTensorFromHost(host, Shape{64});
        Tensor alias = a.clone();  // refcount traffic on the same container
        ASSERT_EQ(a.dataSync()[0], static_cast<float>(t));
        a.dispose();      // alias keeps the storage alive...
        alias.dispose();  // ...and this release parks it in the pool
      }
    });
  }
  for (auto& th : threads) th.join();

  // Everything created was disposed: live tensor/byte counts return to the
  // baseline exactly — no drift from racing decrements.
  const auto after = engine.memory();
  EXPECT_EQ(after.numTensors, before.numTensors);
  EXPECT_EQ(after.numDataBuffers, before.numDataBuffers);
  EXPECT_EQ(after.numBytes, before.numBytes);
  // The pool's own view and the engine's view of parked storage agree.
  EXPECT_EQ(after.pooledBytes, pool.pooledBytes());
  const auto s = pool.stats();
  EXPECT_EQ(s.returns, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_LE(pool.pooledBytes(), pool.capBytes());
}

TEST_F(BufferPoolTest, CrossThreadAliasDisposeReleasesOnce) {
  // M containers, each with aliases spread across threads: exactly one
  // disposer per container observes refcount zero and releases the storage.
  setBackend("native");
  Engine& engine = Engine::get();
  const auto before = engine.memory();

  constexpr int kTensors = 32, kAliases = 4;
  std::vector<std::vector<Tensor>> aliases(kAliases);
  for (int i = 0; i < kTensors; ++i) {
    std::vector<float> host(16, static_cast<float>(i));
    Tensor t = engine.makeTensorFromHost(host, Shape{16});
    for (int a = 1; a < kAliases; ++a) {
      aliases[static_cast<std::size_t>(a)].push_back(t.clone());
    }
    aliases[0].push_back(t);
  }
  ASSERT_EQ(engine.memory().numDataBuffers,
            before.numDataBuffers + kTensors);

  std::vector<std::thread> threads;
  for (int a = 0; a < kAliases; ++a) {
    threads.emplace_back([&aliases, a] {
      for (Tensor& t : aliases[static_cast<std::size_t>(a)]) t.dispose();
    });
  }
  for (auto& th : threads) th.join();

  const auto after = engine.memory();
  EXPECT_EQ(after.numTensors, before.numTensors);
  EXPECT_EQ(after.numDataBuffers, before.numDataBuffers);
  EXPECT_EQ(after.numBytes, before.numBytes);
}

}  // namespace
}  // namespace tfjs
