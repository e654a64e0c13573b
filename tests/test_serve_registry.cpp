// ModelRegistry tests: lazy artifact loading, single-flight warm-load,
// byte-budget LRU eviction, and failure isolation (a corrupt artifact stays
// a per-tenant problem and is never cached).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "serve/registry.hpp"
#include "test_util.hpp"

namespace smore {
namespace {

constexpr std::size_t kDim = 128;

/// One trained artifact rendered to a string, shared by every test (tenant
/// identity is a routing concern, not a weights concern, for these tests).
class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    windows_ = generate_dataset(testing::tiny_spec());
    EncoderConfig ec;
    ec.dim = kDim;
    Pipeline pipeline(std::make_shared<const MultiSensorEncoder>(ec),
                      windows_.num_classes());
    pipeline.fit(windows_);
    pipeline.quantize();
    pipeline.calibrate(windows_, 0.08);
    std::ostringstream buffer(std::ios::binary);
    pipeline.save(buffer);
    artifact_ = buffer.str();
  }

  /// Opener over the in-memory artifact: every tenant resolves to the same
  /// bytes; `load_calls` counts how often the expensive path actually ran.
  [[nodiscard]] ModelRegistry::ArtifactOpener opener(
      std::atomic<int>* load_calls = nullptr,
      std::chrono::milliseconds load_delay = {}) const {
    return [this, load_calls, load_delay](const std::string&) {
      if (load_calls != nullptr) load_calls->fetch_add(1);
      if (load_delay.count() > 0) std::this_thread::sleep_for(load_delay);
      std::istringstream in(artifact_, std::ios::binary);
      return ModelSnapshot::from_artifact(in, /*version=*/1);
    };
  }

  [[nodiscard]] std::size_t model_bytes() const {
    std::istringstream in(artifact_, std::ios::binary);
    return snapshot_resident_bytes(*ModelSnapshot::from_artifact(in, 1));
  }

  WindowDataset windows_;
  std::string artifact_;
};

TEST_F(RegistryTest, AcquireLoadsLazilyAndCachesThereafter) {
  std::atomic<int> load_calls{0};
  ModelRegistry registry(opener(&load_calls));
  EXPECT_EQ(registry.stats().resident_tenants, 0u);  // nothing at boot

  const auto first = registry.acquire("t0");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->tenant(), "t0");
  EXPECT_EQ(first->snapshot()->version, 1u);
  EXPECT_EQ(load_calls.load(), 1);

  const auto again = registry.acquire("t0");
  EXPECT_EQ(again.get(), first.get());  // same resident instance
  EXPECT_EQ(load_calls.load(), 1);      // no second load

  const RegistryStats s = registry.stats();
  EXPECT_EQ(s.loads, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.resident_tenants, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
}

TEST_F(RegistryTest, ByteBudgetEvictsLeastRecentlyUsed) {
  const std::size_t per_model = model_bytes();
  RegistryConfig cfg;
  cfg.byte_budget = per_model * 2 + per_model / 2;  // room for two models
  ModelRegistry registry(opener(), cfg);

  registry.acquire("t0");
  registry.acquire("t1");
  EXPECT_EQ(registry.stats().resident_tenants, 2u);
  EXPECT_EQ(registry.stats().evictions, 0u);

  // Touch t0 so t1 becomes the LRU, then overflow the budget with t2.
  registry.acquire("t0");
  registry.acquire("t2");
  const RegistryStats s = registry.stats();
  EXPECT_EQ(s.resident_tenants, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.resident_bytes, cfg.byte_budget);
  EXPECT_LE(s.peak_resident_bytes, cfg.byte_budget);
  EXPECT_NE(registry.resident("t0"), nullptr);  // recently used: kept
  EXPECT_EQ(registry.resident("t1"), nullptr);  // LRU: evicted
  EXPECT_NE(registry.resident("t2"), nullptr);

  // The evicted tenant reloads on demand.
  EXPECT_NE(registry.acquire("t1"), nullptr);
  EXPECT_EQ(registry.stats().loads, 4u);
}

TEST_F(RegistryTest, EvictionNeverInvalidatesAHandedOutModel) {
  const std::size_t per_model = model_bytes();
  RegistryConfig cfg;
  cfg.byte_budget = per_model + per_model / 2;  // room for ONE model
  ModelRegistry registry(opener(), cfg);

  const auto pinned = registry.acquire("t0");
  registry.acquire("t1");  // evicts t0 from the registry...
  EXPECT_EQ(registry.resident("t0"), nullptr);
  // ...but the handed-out shared_ptr (an in-flight batch, here a test
  // variable) still serves — eviction drops the cache reference only.
  EXPECT_EQ(pinned->snapshot()->version, 1u);
  EXPECT_NE(pinned->snapshot()->backend, nullptr);

  // A re-acquire after eviction is a fresh instance, not the pinned one.
  const auto reloaded = registry.acquire("t0");
  EXPECT_NE(reloaded.get(), pinned.get());
}

TEST_F(RegistryTest, SingleFlightConcurrentWarmLoad) {
  std::atomic<int> load_calls{0};
  ModelRegistry registry(
      opener(&load_calls, std::chrono::milliseconds(30)));
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<TenantModel>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&registry, &got, t] { got[static_cast<std::size_t>(t)] =
                                   registry.acquire("cold"); });
  }
  for (auto& t : threads) t.join();
  // A thundering herd on one cold tenant deserializes the artifact ONCE;
  // every thread gets the same instance.
  EXPECT_EQ(load_calls.load(), 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)].get(), got[0].get());
  }
  EXPECT_EQ(registry.stats().loads, 1u);
}

TEST_F(RegistryTest, LoadFailureIsDeliveredButNeverCached) {
  std::atomic<int> calls{0};
  ModelRegistry registry([this, &calls](const std::string& tenant) {
    if (calls.fetch_add(1) == 0) {
      throw std::runtime_error("deploy in progress");
    }
    std::istringstream in(artifact_, std::ios::binary);
    (void)tenant;
    return ModelSnapshot::from_artifact(in, 1);
  });
  EXPECT_THROW(registry.acquire("flaky"), std::runtime_error);
  EXPECT_EQ(registry.stats().load_failures, 1u);
  EXPECT_EQ(registry.resident("flaky"), nullptr);  // failure not cached
  // The next acquire retries and succeeds.
  EXPECT_NE(registry.acquire("flaky"), nullptr);
  EXPECT_EQ(registry.stats().loads, 1u);
}

TEST_F(RegistryTest, PublishSwapsOnlyTheResidentTenant) {
  ModelRegistry registry(opener());
  const auto model = registry.acquire("t0");
  EXPECT_EQ(model->snapshot()->version, 1u);

  std::istringstream in(artifact_, std::ios::binary);
  const auto gen2 = ModelSnapshot::from_artifact(in, /*version=*/2);
  EXPECT_TRUE(registry.publish("t0", gen2));
  EXPECT_EQ(model->snapshot()->version, 2u);
  // Stale publisher loses (same CAS contract as SnapshotRegistry).
  std::istringstream in1(artifact_, std::ios::binary);
  EXPECT_FALSE(registry.publish("t0", ModelSnapshot::from_artifact(in1, 1)));
  // Cold tenants have nothing to publish onto.
  std::istringstream in2(artifact_, std::ios::binary);
  EXPECT_FALSE(
      registry.publish("cold", ModelSnapshot::from_artifact(in2, 3)));
}

TEST_F(RegistryTest, SnapshotWithoutABackendIsRejectedOnBootAndPublish) {
  // A hand-built generation with a null backend would be dereferenced by
  // the next batch; the tenant refuses it up front instead.
  const auto without_backend = [this](std::uint64_t version) {
    std::istringstream in(artifact_, std::ios::binary);
    auto snap = std::make_shared<ModelSnapshot>(
        *ModelSnapshot::from_artifact(in, version));
    snap->backend = nullptr;
    return std::shared_ptr<const ModelSnapshot>(std::move(snap));
  };
  EXPECT_THROW(TenantModel("t", without_backend(1)), std::invalid_argument);

  ModelRegistry registry(opener());
  const auto model = registry.acquire("t0");
  EXPECT_THROW(model->publish(without_backend(2)), std::invalid_argument);
  EXPECT_THROW(registry.publish("t0", without_backend(2)),
               std::invalid_argument);
  EXPECT_EQ(model->snapshot()->version, 1u);
}

TEST_F(RegistryTest, DirectorySourceProbesThenLoads) {
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream out(dir + "/good.smore", std::ios::binary);
    out.write(artifact_.data(),
              static_cast<std::streamsize>(artifact_.size()));
  }
  {
    // A truncated deploy: probe must reject it before deserialization.
    std::ofstream out(dir + "/corrupt.smore", std::ios::binary);
    out.write(artifact_.data(),
              static_cast<std::streamsize>(artifact_.size() / 2));
  }
  ModelRegistry registry(ModelRegistry::directory_source(dir));
  const auto good = registry.acquire("good");
  ASSERT_NE(good, nullptr);
  EXPECT_EQ(good->dim(), kDim);
  EXPECT_THROW(registry.acquire("corrupt"), std::runtime_error);
  EXPECT_THROW(registry.acquire("missing"), std::runtime_error);
  EXPECT_EQ(registry.stats().load_failures, 2u);
  std::remove((dir + "/good.smore").c_str());
  std::remove((dir + "/corrupt.smore").c_str());
}

}  // namespace
}  // namespace smore
