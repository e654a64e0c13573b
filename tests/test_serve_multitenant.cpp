// MultiTenantServer tests: tenant → model routing correctness, per-tenant
// failure isolation, fair admission (quota sheds the flooder, not the
// fleet), batches formed by load alone, graceful cross-shard drain, and
// eviction safety for in-flight work.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "test_util.hpp"

namespace smore {
namespace {

constexpr std::size_t kDim = 128;

/// Two tenants with DIFFERENT trained models (same encoder/dim, different
/// training data) so routing mistakes change answers, plus a "bad" tenant
/// whose artifact always fails to open.
class MultiTenantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    windows_a_ = generate_dataset(testing::tiny_spec(3, 3, 2, 24, 30, 0x7e57));
    windows_b_ = generate_dataset(testing::tiny_spec(3, 3, 2, 24, 30, 0xb0b5));
    pipeline_a_ = make_pipeline(windows_a_);
    pipeline_b_ = make_pipeline(windows_b_);
    artifact_a_ = render(*pipeline_a_);
    artifact_b_ = render(*pipeline_b_);
    queries_ = pipeline_a_->encode(windows_a_);
    ref_a_ = pipeline_a_->predict_batch_full(windows_a_, ServeBackend::kPacked);
    ref_b_ = pipeline_b_->predict_batch_full(windows_a_, ServeBackend::kPacked);
  }

  static std::unique_ptr<Pipeline> make_pipeline(const WindowDataset& train) {
    EncoderConfig ec;
    ec.dim = kDim;
    auto p = std::make_unique<Pipeline>(
        std::make_shared<const MultiSensorEncoder>(ec), train.num_classes());
    p->fit(train);
    p->quantize();
    p->calibrate(train, 0.08);
    return p;
  }

  static std::string render(const Pipeline& p) {
    std::ostringstream buffer(std::ios::binary);
    p.save(buffer);
    return buffer.str();
  }

  /// Tenant "b" gets model B, tenants starting with "bad" fail to open,
  /// everyone else gets model A. With a `gate`, every model serves through
  /// a GatedBackend on it.
  [[nodiscard]] ModelRegistry::ArtifactOpener opener(
      std::shared_ptr<testing::Gate> gate = nullptr) const {
    return [this, gate](const std::string& tenant) {
      if (tenant.rfind("bad", 0) == 0) {
        throw std::runtime_error("corrupt artifact for tenant " + tenant);
      }
      const std::string& bytes = tenant == "b" ? artifact_b_ : artifact_a_;
      std::istringstream in(bytes, std::ios::binary);
      auto snap = ModelSnapshot::from_artifact(in, /*version=*/1);
      return gate != nullptr ? testing::gated(snap, gate) : snap;
    };
  }

  [[nodiscard]] std::shared_ptr<ModelRegistry> make_registry(
      RegistryConfig cfg = {},
      std::shared_ptr<testing::Gate> gate = nullptr) const {
    return std::make_shared<ModelRegistry>(opener(std::move(gate)), cfg);
  }

  [[nodiscard]] std::vector<float> query(std::size_t i) const {
    const auto row = queries_.row(i);
    return {row.begin(), row.end()};
  }

  WindowDataset windows_a_;
  WindowDataset windows_b_;
  std::unique_ptr<Pipeline> pipeline_a_;
  std::unique_ptr<Pipeline> pipeline_b_;
  std::string artifact_a_;
  std::string artifact_b_;
  HvDataset queries_{kDim};
  SmoreBatchResult ref_a_;
  SmoreBatchResult ref_b_;
};

TEST_F(MultiTenantTest, RoutesEachTenantToItsOwnModel) {
  MultiTenantConfig cfg;
  cfg.num_shards = 2;
  cfg.max_batch = 8;
  MultiTenantServer server(make_registry(), cfg);

  // The SAME queries go to both tenants, interleaved; each must be answered
  // by its own tenant's model.
  const std::size_t n = queries_.size();
  std::vector<std::future<ServeResult>> fut_a, fut_b;
  for (std::size_t i = 0; i < n; ++i) {
    fut_a.push_back(server.submit("a", query(i)));
    fut_b.push_back(server.submit("b", query(i)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const ServeResult ra = fut_a[i].get();
    EXPECT_EQ(ra.status, ServeStatus::kOk);
    EXPECT_EQ(ra.label, ref_a_.labels[i]) << "row " << i;
    EXPECT_EQ(ra.is_ood, ref_a_.ood[i] != 0) << "row " << i;
    EXPECT_EQ(ra.snapshot_version, 1u);
    const ServeResult rb = fut_b[i].get();
    EXPECT_EQ(rb.status, ServeStatus::kOk);
    EXPECT_EQ(rb.label, ref_b_.labels[i]) << "row " << i;
  }

  const MultiTenantStats s = server.stats();
  EXPECT_EQ(s.submitted, 2 * n);
  EXPECT_EQ(s.completed, 2 * n);
  EXPECT_EQ(s.tenants_seen, 2u);
  EXPECT_EQ(s.registry.loads, 2u);  // one artifact load per tenant
  EXPECT_GE(s.mean_batch_fill, 1.0);

  const auto per_tenant = server.tenant_stats();
  ASSERT_EQ(per_tenant.size(), 2u);
  EXPECT_EQ(per_tenant[0].tenant, "a");
  EXPECT_EQ(per_tenant[0].submitted, n);
  EXPECT_EQ(per_tenant[0].completed, n);
  EXPECT_EQ(per_tenant[0].inflight, 0u);
  EXPECT_GT(per_tenant[0].queue_wait.count(), 0u);
  EXPECT_GT(per_tenant[0].service.count(), 0u);
  EXPECT_EQ(per_tenant[1].tenant, "b");
}

TEST_F(MultiTenantTest, CorruptArtifactFailsPerRequestNotProcessWide) {
  MultiTenantServer server(make_registry());
  // Blocking submit: the future carries the loader's exception.
  std::future<ServeResult> broken = server.submit("bad-deploy", query(0));
  EXPECT_THROW(broken.get(), std::runtime_error);
  // try_submit: the request was ADMITTED (not shed) — the tenant is broken,
  // which is a different signal than an overloaded queue.
  auto maybe = server.try_submit("bad-deploy", query(0));
  ASSERT_TRUE(maybe.has_value());
  EXPECT_THROW(maybe->get(), std::runtime_error);
  // The rest of the fleet is untouched.
  EXPECT_EQ(server.submit("a", query(0)).get().status, ServeStatus::kOk);
  const MultiTenantStats s = server.stats();
  EXPECT_EQ(s.load_failures, 2u);
  EXPECT_EQ(s.completed, 1u);
  const auto per_tenant = server.tenant_stats();
  ASSERT_EQ(per_tenant.size(), 2u);  // "a" and "bad-deploy"
  EXPECT_EQ(per_tenant[1].tenant, "bad-deploy");
  EXPECT_EQ(per_tenant[1].load_failures, 2u);
}

TEST_F(MultiTenantTest, QuotaShedsTheFlooderNotTheFleet) {
  MultiTenantConfig cfg;
  cfg.num_shards = 1;
  cfg.max_batch = 64;
  cfg.fair = true;
  cfg.tenant_inflight_quota = 8;
  // The gate holds the worker in its first batch: nothing completes, so
  // in-flight counts only grow while the flood is submitted.
  auto gate = std::make_shared<testing::Gate>();
  MultiTenantServer server(make_registry({}, gate), cfg);

  // Tenant "a" floods far past its quota before any batch can complete:
  // exactly `quota` requests are admitted, the rest shed with
  // kShedTenantQuota.
  std::vector<std::future<ServeResult>> admitted;
  std::size_t quota_sheds = 0;
  for (int i = 0; i < 50; ++i) {
    ServeStatus reason = ServeStatus::kOk;
    auto fut = server.try_submit("a", query(0), &reason);
    if (fut.has_value()) {
      admitted.push_back(std::move(*fut));
    } else {
      EXPECT_EQ(reason, ServeStatus::kShedTenantQuota);
      ++quota_sheds;
    }
  }
  EXPECT_EQ(admitted.size(), cfg.tenant_inflight_quota);
  EXPECT_EQ(quota_sheds, 50 - cfg.tenant_inflight_quota);

  // Tenant "b" is under ITS OWN quota: still admitted — the flooder's
  // exhaustion sheds the flooder, not the fleet.
  auto fut_b = server.try_submit("b", query(0));
  gate->open();
  ASSERT_TRUE(fut_b.has_value());
  EXPECT_EQ(fut_b->get().status, ServeStatus::kOk);

  for (auto& f : admitted) EXPECT_EQ(f.get().status, ServeStatus::kOk);
  const auto per_tenant = server.tenant_stats();
  EXPECT_EQ(per_tenant[0].shed_tenant_quota,
            50 - cfg.tenant_inflight_quota);
  EXPECT_EQ(per_tenant[1].shed_tenant_quota, 0u);
}

TEST_F(MultiTenantTest, UnfairModeHasNoQuota) {
  MultiTenantConfig cfg;
  cfg.num_shards = 1;
  cfg.max_batch = 64;
  cfg.fair = false;  // throughput-greedy baseline
  cfg.tenant_inflight_quota = 8;  // ignored without fair
  // The held worker keeps all 50 requests in flight at once.
  auto gate = std::make_shared<testing::Gate>();
  MultiTenantServer server(make_registry({}, gate), cfg);
  const testing::GateRelease release(*gate);  // runs before ~server

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 50; ++i) {
    auto fut = server.try_submit("a", query(0));
    ASSERT_TRUE(fut.has_value()) << "request " << i;
    futures.push_back(std::move(*fut));
  }
  gate->open();
  for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);
  EXPECT_EQ(server.stats().shed_tenant_quota, 0u);
}

TEST_F(MultiTenantTest, BacklogIsServedInFullBatchesWithoutATimer) {
  // Load alone forms batches: N requests queued behind a held batch are
  // served in ceil(N / max_batch) batches once the worker is free.
  MultiTenantConfig cfg;
  cfg.num_shards = 1;
  cfg.max_batch = 8;
  auto gate = std::make_shared<testing::Gate>();
  MultiTenantServer server(make_registry({}, gate), cfg);
  std::vector<std::future<ServeResult>> futures;
  futures.push_back(server.submit("a", query(0)));
  gate->wait_for_callers(1);  // the worker holds a one-row batch
  constexpr std::size_t kBacklog = 50;
  for (std::size_t i = 1; i <= kBacklog; ++i) {
    futures.push_back(server.submit("a", query(i)));
  }
  gate->open();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, ref_a_.labels[i]) << "row " << i;
  }
  EXPECT_EQ(server.stats().batches,
            1 + (kBacklog + cfg.max_batch - 1) / cfg.max_batch);
}

TEST_F(MultiTenantTest, ShutdownDrainsEveryShardAndResolvesLateSubmits) {
  MultiTenantConfig cfg;
  cfg.num_shards = 4;
  cfg.max_batch = 4;
  // The gate holds every shard's worker in its first batch: work piles up.
  auto gate = std::make_shared<testing::Gate>();
  MultiTenantServer server(make_registry({}, gate), cfg);

  // 12 tenants spread over the 4 shards, several queries each.
  std::vector<std::future<ServeResult>> futures;
  std::vector<int> expected;
  for (int t = 0; t < 12; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    for (std::size_t i = 0; i < 6; ++i) {
      futures.push_back(server.submit(tenant, query(i)));
      expected.push_back(ref_a_.labels[i]);
    }
  }
  // Release the workers and close at once: the close lands long before the
  // workers drain the pile, so shutdown() finds it pending.
  gate->open();
  server.shutdown();  // must drain every shard's pending groups, not drop
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResult r = futures[i].get();  // throws if a request was lost
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(r.label, expected[i]);
  }
  EXPECT_EQ(server.stats().completed, futures.size());

  // Late submits resolve on the result plane — immediately, no blocking.
  std::future<ServeResult> late = server.submit("a", query(0));
  EXPECT_EQ(late.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(late.get().status, ServeStatus::kShuttingDown);
  ServeStatus reason = ServeStatus::kOk;
  EXPECT_EQ(server.try_submit("a", query(0), &reason), std::nullopt);
  EXPECT_EQ(reason, ServeStatus::kShuttingDown);
}

TEST_F(MultiTenantTest, EvictionMidFlightKeepsServingPinnedModels) {
  MultiTenantConfig cfg;
  cfg.num_shards = 1;
  cfg.max_batch = 64;
  // The gate holds the worker: requests are in flight during evict.
  auto gate = std::make_shared<testing::Gate>();
  MultiTenantServer server(make_registry({}, gate), cfg);

  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < 20; ++i) {
    futures.push_back(server.submit("a", query(i)));
  }
  // Evict the tenant while its requests sit in the shard queue. Each
  // admitted request pinned the TenantModel at submit time, so the batch
  // serves the evicted generation safely.
  EXPECT_TRUE(server.registry().evict("a"));
  gate->open();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResult r = futures[i].get();
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(r.label, ref_a_.labels[i]);
  }
  // The next submit reloads the artifact (cold again).
  EXPECT_EQ(server.submit("a", query(0)).get().status, ServeStatus::kOk);
  EXPECT_EQ(server.stats().registry.loads, 2u);
}

TEST_F(MultiTenantTest, DimensionMismatchThrowsAtSubmit) {
  MultiTenantServer server(make_registry());
  EXPECT_THROW(server.submit("a", std::vector<float>(kDim + 1, 0.0f)),
               std::invalid_argument);
}

TEST_F(MultiTenantTest, RedeployWithNewDimensionFailsPerRequestNotTheWorker) {
  // A redeploy can change a tenant's dimension: requests admitted before the
  // evict are pinned to the old model, requests after it to the new one, and
  // both land in the SAME tenant group of one worker batch. The mismatched
  // row must fail on its own promise — an escape would std::terminate the
  // whole fleet server.
  constexpr std::size_t kSmallDim = kDim / 2;
  EncoderConfig ec;
  ec.dim = kSmallDim;
  Pipeline small(std::make_shared<const MultiSensorEncoder>(ec),
                 windows_a_.num_classes());
  small.fit(windows_a_);
  std::ostringstream buf(std::ios::binary);
  small.save(buf);
  const std::string small_artifact = buf.str();

  auto redeployed = std::make_shared<std::atomic<bool>>(false);
  auto gate = std::make_shared<testing::Gate>();
  auto registry = std::make_shared<ModelRegistry>(
      [this, small_artifact, redeployed, gate](const std::string&) {
        const std::string& bytes =
            redeployed->load() ? small_artifact : artifact_a_;
        std::istringstream in(bytes, std::ios::binary);
        return testing::gated(ModelSnapshot::from_artifact(in, /*version=*/1),
                              gate);
      });

  MultiTenantConfig cfg;
  cfg.num_shards = 1;
  cfg.workers_per_shard = 1;
  cfg.max_batch = 2;
  MultiTenantServer server(std::move(registry), cfg);

  // The worker holds a first batch at the gate, so the next two requests
  // queue behind it and are popped together into ONE batch.
  std::future<ServeResult> held = server.submit("a", query(1));
  gate->wait_for_callers(1);
  // Pins the kDim model; queued first, so it sets the batch's dimension.
  std::future<ServeResult> old_gen = server.submit("a", query(0));
  // Redeploy: evict, reload at kSmallDim, submit a request validated against
  // (and pinned to) the new model. Same tenant → same batch, mixed dims.
  redeployed->store(true);
  EXPECT_TRUE(server.registry().evict("a"));
  std::future<ServeResult> new_gen =
      server.submit("a", std::vector<float>(kSmallDim, 0.0f));
  gate->open();

  EXPECT_EQ(held.get().status, ServeStatus::kOk);
  EXPECT_EQ(old_gen.get().status, ServeStatus::kOk);  // batch-dim row served
  EXPECT_THROW(new_gen.get(), std::invalid_argument);  // its own promise only
  // The worker survived; the tenant keeps serving at its new dimension.
  EXPECT_EQ(
      server.submit("a", std::vector<float>(kSmallDim, 0.0f)).get().status,
      ServeStatus::kOk);
  // The failed request released its in-flight reservation — accounting is
  // ordered before promise fulfillment, so this read is race-free.
  const auto per_tenant = server.tenant_stats();
  ASSERT_EQ(per_tenant.size(), 1u);
  EXPECT_EQ(per_tenant[0].inflight, 0u);
}

TEST_F(MultiTenantTest, WindowsAreEncodedByEachTenantsOwnEncoder) {
  // Tenants "x" and "y" carry encoders with different basis seeds in their
  // artifacts. The same raw window sent to both must be encoded by each
  // tenant's own encoder: every answer equals that tenant's direct
  // Pipeline prediction. One worker in total encodes with the pool, more
  // stay serial; both paths are covered.
  const auto make = [this](std::uint64_t seed) {
    EncoderConfig ec;
    ec.dim = kDim;
    ec.seed = seed;
    Pipeline p(std::make_shared<const MultiSensorEncoder>(ec),
               windows_a_.num_classes());
    p.fit(windows_a_);
    p.quantize();
    p.calibrate(windows_a_, 0.08);
    return std::make_pair(render(p),
                          p.predict_batch_full(windows_a_,
                                               ServeBackend::kPacked));
  };
  const auto x = make(0x1111);
  const auto y = make(0x2222);
  const std::string& artifact_x = x.first;
  const std::string& artifact_y = y.first;
  const SmoreBatchResult& ref_x = x.second;
  const SmoreBatchResult& ref_y = y.second;
  ASSERT_NE(ref_x.max_similarity, ref_y.max_similarity)
      << "test premise: the two encoders differ";

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(::testing::Message() << "num_shards=" << shards);
    auto registry = std::make_shared<ModelRegistry>(
        [&](const std::string& tenant) {
          std::istringstream in(tenant == "x" ? artifact_x : artifact_y,
                                std::ios::binary);
          return ModelSnapshot::from_artifact(in, /*version=*/1);
        });
    MultiTenantConfig cfg;
    cfg.num_shards = shards;
    cfg.max_batch = 8;
    MultiTenantServer server(std::move(registry), cfg);
    const std::size_t n = windows_a_.size();
    std::vector<std::future<ServeResult>> fut_x, fut_y;
    for (std::size_t i = 0; i < n; ++i) {
      fut_x.push_back(server.submit("x", windows_a_[i]));
      fut_y.push_back(server.submit("y", windows_a_[i]));
    }
    const std::size_t k = ref_x.num_domains;
    for (std::size_t i = 0; i < n; ++i) {
      for (const auto& [fut, ref] :
           {std::pair{&fut_x[i], &ref_x}, std::pair{&fut_y[i], &ref_y}}) {
        const ServeResult r = fut->get();
        ASSERT_EQ(r.status, ServeStatus::kOk);
        EXPECT_EQ(r.label, ref->labels[i]) << "window " << i;
        EXPECT_EQ(r.is_ood, ref->ood[i] != 0) << "window " << i;
        EXPECT_DOUBLE_EQ(r.max_similarity, ref->max_similarity[i])
            << "window " << i;
        ASSERT_EQ(r.weights.size(), k);
        for (std::size_t d = 0; d < k; ++d) {
          EXPECT_DOUBLE_EQ(r.weights[d], ref->weights[i * k + d]);
        }
      }
    }
  }
}

TEST_F(MultiTenantTest, WindowForATenantWithoutAnEncoderThrowsAtSubmit) {
  // A snapshot built from a bare model carries no encoder: a raw window for
  // that tenant is refused at submit, and its reservation is released.
  auto registry = std::make_shared<ModelRegistry>([this](const std::string&) {
    return ModelSnapshot::make(pipeline_a_->model().clone(), false, 1);
  });
  MultiTenantServer server(std::move(registry));
  EXPECT_THROW(server.submit("bare", windows_a_[0]), std::logic_error);
  const auto per_tenant = server.tenant_stats();
  ASSERT_EQ(per_tenant.size(), 1u);
  EXPECT_EQ(per_tenant[0].inflight, 0u);
  EXPECT_EQ(per_tenant[0].submitted, 0u);
  // Pre-encoded queries for the same tenant are still served.
  EXPECT_EQ(server.submit("bare", query(0)).get().status, ServeStatus::kOk);
}

TEST_F(MultiTenantTest, BatchMixingWindowsAndHypervectorsAnswersBoth) {
  // A held first batch makes a window request and a hypervector request of
  // one tenant queue together, so they are popped as ONE batch.
  auto gate = std::make_shared<testing::Gate>();
  MultiTenantConfig cfg;
  cfg.max_batch = 8;
  MultiTenantServer server(make_registry({}, gate), cfg);
  testing::GateRelease release(*gate);
  std::future<ServeResult> held = server.submit("a", query(1));
  gate->wait_for_callers(1);
  std::future<ServeResult> window = server.submit("a", windows_a_[2]);
  std::future<ServeResult> hv = server.submit("a", query(3));
  gate->open();

  for (const auto& [fut, row] :
       {std::pair{&held, std::size_t{1}}, std::pair{&window, std::size_t{2}},
        std::pair{&hv, std::size_t{3}}}) {
    const ServeResult r = fut->get();
    ASSERT_EQ(r.status, ServeStatus::kOk) << "row " << row;
    EXPECT_EQ(r.label, ref_a_.labels[row]) << "row " << row;
    EXPECT_EQ(r.is_ood, ref_a_.ood[row] != 0) << "row " << row;
    EXPECT_DOUBLE_EQ(r.max_similarity, ref_a_.max_similarity[row])
        << "row " << row;
  }
  EXPECT_EQ(server.stats().batches, 2u);  // the held one + the mixed one
}

}  // namespace
}  // namespace smore
