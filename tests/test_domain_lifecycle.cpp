// Domain lifecycle tests (DESIGN.md §13): wide-counter losslessness under
// sustained bundling, merge/evict invariants (survivors untouched bit for
// bit), the max_domains cap, recurring-drift re-enrollment, lifecycle-state
// persistence, and the serving integration under concurrency (tsan job).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/domain_lifecycle.hpp"
#include "core/smore.hpp"
#include "hdc/cluster.hpp"
#include "hdc/hv_matrix.hpp"
#include "hdc/wide_counter.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace smore {
namespace {

using testing::separable_hv_dataset;

// ---------------------------------------------------------------------------
// Wide counters
// ---------------------------------------------------------------------------

TEST(WideCounter, LosslessUnderAMillionBundles) {
  // One million bundles of the integer value 100 per coordinate. The exact
  // sum, 1e8, is representable in float (ulp 8 at that magnitude, 1e8 % 8
  // == 0) — but the float partial sums past 2^26 are NOT: plain float
  // accumulation demonstrably drifts, while the wide-counter mirror equals
  // the exact sum bit for bit. This is the property that keeps a descriptor
  // honest after years of merge rounds.
  constexpr std::size_t kDim = 8;
  constexpr std::size_t kRounds = 1'000'000;
  const std::vector<float> x(kDim, 100.0f);

  WideAccumulator acc(kDim);
  std::vector<float> float_sum(kDim, 0.0f);
  for (std::size_t r = 0; r < kRounds; ++r) {
    acc.axpy(1.0, x);
    for (std::size_t j = 0; j < kDim; ++j) float_sum[j] += x[j];
  }

  std::vector<float> mirror(kDim);
  acc.materialize(mirror.data());
  const float exact = 100'000'000.0f;  // 1e8, exactly representable
  for (std::size_t j = 0; j < kDim; ++j) {
    EXPECT_EQ(mirror[j], exact) << "coordinate " << j;
    EXPECT_NE(float_sum[j], exact)
        << "float accumulation was expected to drift at coordinate " << j
        << " — the wide counter would be pointless otherwise";
  }
}

TEST(WideCounter, WeightedAxpyMatchesClosedForm) {
  // OnlineHD updates are weighted bundles C += w·H with w = float(1-δ).
  // Integer-valued H and a dyadic weight make the closed form exact.
  constexpr std::size_t kDim = 4;
  constexpr std::size_t kRounds = 100'000;
  const std::vector<float> x = {3.0f, -2.0f, 5.0f, 1.0f};
  WideAccumulator acc(kDim);
  for (std::size_t r = 0; r < kRounds; ++r) acc.axpy(0.5, x);
  std::vector<float> mirror(kDim);
  acc.materialize(mirror.data());
  for (std::size_t j = 0; j < kDim; ++j) {
    EXPECT_EQ(mirror[j], static_cast<float>(0.5 * kRounds) * x[j]);
  }
}

TEST(WideCounter, AddAndAssignRoundTrip) {
  const std::vector<float> a = {1.5f, -2.25f, 0.0f};
  const std::vector<float> b = {4.0f, 8.0f, -1.0f};
  WideAccumulator left(3);
  WideAccumulator right(3);
  left.assign_from(a);
  right.assign_from(b);
  left.add(right);
  std::vector<float> out(3);
  left.materialize(out.data());
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(out[j], a[j] + b[j]);
}

// ---------------------------------------------------------------------------
// Descriptor bank: order-independence and evict invariants
// ---------------------------------------------------------------------------

/// Integer-valued (bipolar) rows: double accumulation of integers is exact,
/// so bundling order cannot change the result — bit for bit.
HvMatrix bipolar_rows(std::size_t rows, std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  HvMatrix m(rows, dim);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < dim; ++j) m.row(i)[j] = rng.bipolar();
  }
  return m;
}

TEST(DomainLifecycle, AbsorbOrderCannotChangeTheDescriptor) {
  const HvMatrix rows = bipolar_rows(64, 96, 0xabcd);
  DomainDescriptorBank forward;
  DomainDescriptorBank backward;
  DomainDescriptorBank batched;
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    forward.absorb(rows.row(i), /*domain_id=*/7);
  }
  for (std::size_t i = rows.rows(); i-- > 0;) {
    backward.absorb(rows.row(i), /*domain_id=*/7);
  }
  batched.absorb_batch(rows.view(), /*domain_id=*/7);
  EXPECT_EQ(forward.descriptor(0), backward.descriptor(0));
  EXPECT_EQ(forward.descriptor(0), batched.descriptor(0));
  EXPECT_EQ(forward.sample_count(0), 64u);
  EXPECT_EQ(batched.sample_count(0), 64u);
}

TEST(DomainLifecycle, EvictNeverPerturbsSurvivors) {
  const HvDataset data = separable_hv_dataset(3, 4, 15, 128, 0.3, 0.8);
  SmoreModel model(3, 128);
  model.fit(data);
  ASSERT_EQ(model.num_domains(), 4u);

  const SmoreModel original = model.clone();
  model.remove_domain(1);

  ASSERT_EQ(model.num_domains(), 3u);
  const std::vector<std::size_t> survivors = {0, 2, 3};
  for (std::size_t pos = 0; pos < survivors.size(); ++pos) {
    const std::size_t was = survivors[pos];
    EXPECT_EQ(model.descriptors().domain_id(pos),
              original.descriptors().domain_id(was));
    EXPECT_EQ(model.descriptors().descriptor(pos),
              original.descriptors().descriptor(was));
    EXPECT_EQ(model.descriptors().sample_count(pos),
              original.descriptors().sample_count(was));
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(model.domain_model(pos).class_vector(c),
                original.domain_model(was).class_vector(c));
    }
  }
  // The shrunk ensemble still serves.
  EXPECT_NO_THROW((void)model.predict(data.row(0)));

  EXPECT_THROW(model.remove_domain(99), std::out_of_range);
  model.remove_domain(0);
  model.remove_domain(0);
  ASSERT_EQ(model.num_domains(), 1u);
  EXPECT_THROW(model.remove_domain(0), std::logic_error);  // never the last
}

// ---------------------------------------------------------------------------
// Lifecycle rounds: cap, recurring drift, usage-ranked eviction
// ---------------------------------------------------------------------------

/// A coherent OOD cluster: one bipolar prototype plus small noise, far from
/// the training distribution of `separable_hv_dataset(seed=0xfeed)`.
HvMatrix drift_cluster(std::size_t rows, std::size_t dim, std::uint64_t seed,
                       double noise = 0.25) {
  Rng rng(seed);
  std::vector<float> proto(dim);
  for (auto& v : proto) v = rng.bipolar();
  HvMatrix m(rows, dim);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      m.row(i)[j] =
          proto[j] + static_cast<float>(rng.normal(0.0, noise));
    }
  }
  return m;
}

SmoreModel lifecycle_fixture_model(std::size_t dim = 256) {
  const HvDataset data =
      separable_hv_dataset(3, 3, 20, dim, 0.3, 0.8);
  SmoreModel model(3, dim);
  model.fit(data);
  return model;
}

TEST(DomainLifecycle, BankNeverExceedsTheCap) {
  SmoreModel model = lifecycle_fixture_model();
  LifecycleConfig cfg;
  cfg.max_domains = 5;
  cfg.merge_threshold = 0.95;  // distinct prototypes never merge
  DomainLifecycle engine(cfg);

  const std::vector<int> labels(24, 0);
  for (std::uint64_t round = 0; round < 12; ++round) {
    const HvMatrix burst = drift_cluster(24, model.dim(), 0x1000 + round);
    const LifecycleRoundStats stats =
        engine.run_round(model, burst.view(), labels);
    EXPECT_LE(model.num_domains(), cfg.max_domains) << "round " << round;
    EXPECT_EQ(model.descriptors().size(), model.num_domains());
    EXPECT_EQ(stats.absorbed, 24u);
  }
  // After 12 novel bursts the cap must have actually fired.
  EXPECT_EQ(model.num_domains(), cfg.max_domains);
}

TEST(DomainLifecycle, RecurringDriftMergesInsteadOfEnrolling) {
  SmoreModel model = lifecycle_fixture_model();
  LifecycleConfig cfg;
  cfg.max_domains = 8;
  cfg.merge_threshold = 0.80;
  DomainLifecycle engine(cfg);
  const std::vector<int> labels(32, 1);

  // First sight of the drift: enrolls (it matches nothing).
  const HvMatrix first = drift_cluster(32, model.dim(), 0x5eed, 0.2);
  const LifecycleRoundStats round1 =
      engine.run_round(model, first.view(), labels);
  EXPECT_GE(round1.enrolled_new, 1u);
  const std::size_t bank_after_first = model.num_domains();
  const int frontier = model.descriptors().next_domain_id();

  // The same drift recurs (fresh noise, same prototype): the round must
  // bundle into the existing pseudo-domain — no new id, no bank growth.
  const HvMatrix again = drift_cluster(32, model.dim(), 0x5eed, 0.2);
  const LifecycleRoundStats round2 =
      engine.run_round(model, again.view(), labels);
  EXPECT_GE(round2.merged, 1u);
  EXPECT_EQ(round2.enrolled_new, 0u);
  EXPECT_EQ(model.num_domains(), bank_after_first);
  EXPECT_EQ(model.descriptors().next_domain_id(), frontier);

  // The merged descriptor carries the evidence.
  bool saw_merge = false;
  for (std::size_t k = 0; k < model.descriptors().size(); ++k) {
    saw_merge = saw_merge || model.descriptors().meta(k).merge_count > 0;
  }
  EXPECT_TRUE(saw_merge);
}

TEST(DomainLifecycle, EvictionPrefersTheUnusedDomain) {
  SmoreModel model = lifecycle_fixture_model();
  LifecycleConfig cfg;
  cfg.max_domains = 4;  // fixture has 3 → one free slot
  cfg.merge_threshold = 0.95;
  cfg.protected_domains = 3;  // source domains are sacred
  DomainLifecycle engine(cfg);
  const std::vector<int> labels(24, 2);

  // Enroll drift A into the free slot, then keep crediting usage to A while
  // novel drift keeps arriving: every new burst must evict the NEWCOMER
  // (usage 0), never A (used) and never a protected source domain.
  const HvMatrix a = drift_cluster(24, model.dim(), 0xa11ce, 0.2);
  (void)engine.run_round(model, a.view(), labels);
  ASSERT_EQ(model.num_domains(), 4u);
  const int id_a = model.descriptors().domain_id(3);

  for (std::uint64_t round = 0; round < 4; ++round) {
    const std::vector<std::pair<int, double>> usage = {{id_a, 50.0}};
    const HvMatrix novel = drift_cluster(24, model.dim(), 0xb000 + round);
    const LifecycleRoundStats stats =
        engine.run_round(model, novel.view(), labels, usage);
    EXPECT_EQ(stats.evicted, 1u) << "round " << round;
    ASSERT_EQ(model.num_domains(), 4u);
    // A survives every time; the protected source domains 0..2 do too.
    EXPECT_EQ(model.descriptors().domain_id(0), 0);
    EXPECT_EQ(model.descriptors().domain_id(1), 1);
    EXPECT_EQ(model.descriptors().domain_id(2), 2);
    bool a_alive = false;
    for (std::size_t k = 0; k < model.descriptors().size(); ++k) {
      a_alive = a_alive || model.descriptors().domain_id(k) == id_a;
    }
    EXPECT_TRUE(a_alive) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Persistence: lifecycle state survives save/load exactly
// ---------------------------------------------------------------------------

TEST(DomainLifecycle, LifecycleStateRoundTripsThroughSerialization) {
  SmoreModel model = lifecycle_fixture_model(128);
  LifecycleConfig cfg;
  cfg.max_domains = 6;
  DomainLifecycle engine(cfg);
  const std::vector<int> labels(24, 0);
  const HvMatrix burst = drift_cluster(24, model.dim(), 0x5eed, 0.2);
  const std::vector<std::pair<int, double>> usage = {{0, 3.0}, {2, 7.0}};
  (void)engine.run_round(model, burst.view(), labels, usage);
  const HvMatrix again = drift_cluster(24, model.dim(), 0x5eed, 0.2);
  (void)engine.run_round(model, again.view(), labels);

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  model.save(buffer);
  SmoreModel loaded = SmoreModel::load(buffer);

  const DomainDescriptorBank& a = model.descriptors();
  const DomainDescriptorBank& b = loaded.descriptors();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.clock(), b.clock());
  EXPECT_EQ(a.next_domain_id(), b.next_domain_id());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a.domain_id(k), b.domain_id(k));
    EXPECT_EQ(a.sample_count(k), b.sample_count(k));
    EXPECT_EQ(a.descriptor(k), b.descriptor(k));
    EXPECT_EQ(a.meta(k).enrolled_round, b.meta(k).enrolled_round);
    EXPECT_EQ(a.meta(k).last_used_round, b.meta(k).last_used_round);
    EXPECT_EQ(a.meta(k).merge_count, b.meta(k).merge_count);
    EXPECT_DOUBLE_EQ(a.meta(k).usage, b.meta(k).usage);
  }

  // The DOUBLE masters survived, not just the mirrors: absorbing the same
  // row into both banks must keep them bitwise identical.
  const HvMatrix extra = bipolar_rows(1, model.dim(), 0x900d);
  const int id = a.domain_id(0);
  model.descriptors().absorb(extra.row(0), id);
  loaded.descriptors().absorb(extra.row(0), id);
  EXPECT_EQ(model.descriptors().descriptor(0),
            loaded.descriptors().descriptor(0));
}

// ---------------------------------------------------------------------------
// Serving integration (these run under tsan in CI)
// ---------------------------------------------------------------------------

TEST(DomainLifecycleServe, ServerKeepsTheBankBoundedUnderConcurrentLoad) {
  constexpr std::size_t kDim = 128;
  const HvDataset train = separable_hv_dataset(3, 3, 20, kDim, 0.4, 0.5);
  SmoreModel model(3, kDim);
  model.fit(train);
  model.calibrate_delta_star(train, 0.05);
  const auto snap = ModelSnapshot::make(model.clone(), false, 1);

  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.num_workers = 2;
  cfg.adaptation = true;
  cfg.adapt_min_batch = 8;
  cfg.adapt_poll_ms = 1;
  cfg.lifecycle_config.max_domains = 4;
  cfg.lifecycle_config.cluster.max_clusters = 2;
  InferenceServer server(snap, cfg);

  // Three producers: two stream in-distribution rows, one streams pure
  // noise (OOD) that keeps the lifecycle enrolling and evicting.
  constexpr std::size_t kPerProducer = 120;
  std::atomic<std::size_t> fulfilled{0};
  auto produce = [&](std::uint64_t seed, bool noisy) {
    Rng rng(seed);
    std::vector<float> hv(kDim);
    for (std::size_t i = 0; i < kPerProducer; ++i) {
      if (noisy) {
        for (auto& v : hv) v = static_cast<float>(rng.normal());
      } else {
        const auto row = train.row(i % train.size());
        hv.assign(row.begin(), row.end());
      }
      auto fut = server.submit(std::vector<float>(hv));
      (void)fut.get();
      fulfilled.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread t1(produce, 0x111, false);
  std::thread t2(produce, 0x222, false);
  std::thread t3(produce, 0x333, true);
  t1.join();
  t2.join();
  t3.join();

  // Give the adaptation worker a moment to drain a final round, then stop.
  for (int spin = 0; spin < 200 && server.stats().adaptation_rounds == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(fulfilled.load(), 3 * kPerProducer);
  EXPECT_EQ(stats.completed, 3 * kPerProducer);
  EXPECT_GE(stats.adaptation_rounds, 1u);
  EXPECT_LE(stats.live_domains, cfg.lifecycle_config.max_domains);
  // Every buffered OOD window is accounted for, absorbed or shed.
  EXPECT_GE(stats.ood_flagged,
            stats.adaptation_absorbed + stats.adaptation_dropped);
}

TEST(DomainLifecycleServe, RouterAdaptsTenantsIndependently) {
  constexpr std::size_t kDim = 128;
  const HvDataset train = separable_hv_dataset(3, 3, 20, kDim, 0.4, 0.5);
  auto model = std::make_shared<SmoreModel>(3, kDim);
  model->fit(train);
  model->calibrate_delta_star(train, 0.05);

  const auto opener = [model](const std::string&) {
    return ModelSnapshot::make(model->clone(), false, 1);
  };
  const auto registry =
      std::make_shared<ModelRegistry>(opener, RegistryConfig{});

  MultiTenantConfig cfg;
  cfg.num_shards = 2;
  cfg.workers_per_shard = 1;
  cfg.max_batch = 8;
  cfg.adaptation = true;
  cfg.adapt_min_batch = 8;
  cfg.adapt_poll_ms = 1;
  cfg.lifecycle_config.max_domains = 4;
  cfg.lifecycle_config.cluster.max_clusters = 2;
  MultiTenantServer server(registry, cfg);

  // Tenant "drifty" streams noise (all OOD); tenant "steady" streams
  // training rows. Only drifty's model may gain domains.
  constexpr std::size_t kPerTenant = 160;
  auto produce = [&](const std::string& tenant, std::uint64_t seed,
                     bool noisy) {
    Rng rng(seed);
    std::vector<float> hv(kDim);
    for (std::size_t i = 0; i < kPerTenant; ++i) {
      if (noisy) {
        for (auto& v : hv) v = static_cast<float>(rng.normal());
      } else {
        const auto row = train.row(i % train.size());
        hv.assign(row.begin(), row.end());
      }
      (void)server.submit(tenant, std::vector<float>(hv)).get();
    }
  };
  std::thread t1(produce, "drifty", 0xd41f7, true);
  std::thread t2(produce, "steady", 0x57ead, false);
  t1.join();
  t2.join();

  for (int spin = 0; spin < 200 && server.stats().adaptation_rounds == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.shutdown();

  const MultiTenantStats fleet = server.stats();
  EXPECT_GE(fleet.adaptation_rounds, 1u);
  EXPECT_EQ(fleet.completed, 2 * kPerTenant);

  bool saw_drifty = false;
  for (const TenantServerStats& t : server.tenant_stats()) {
    if (t.tenant == "drifty") {
      saw_drifty = true;
      EXPECT_GE(t.adaptation_rounds, 1u);
    } else if (t.tenant == "steady") {
      // A steady tenant sees few stray OOD flags; whatever it buffered is
      // accounted (absorbed or shed), and overflow is a subset of shed.
      EXPECT_LE(t.adaptation_overflow, t.adaptation_dropped);
      EXPECT_LE(t.adaptation_absorbed + t.adaptation_dropped, t.ood_flagged);
    }
  }
  EXPECT_TRUE(saw_drifty);

  // The drifty tenant's LIVE generation respects the cap.
  const auto tm = registry->resident("drifty");
  ASSERT_NE(tm, nullptr);
  EXPECT_LE(tm->snapshot()->model->num_domains(),
            cfg.lifecycle_config.max_domains);
  EXPECT_GE(tm->snapshot()->version, 2u);  // at least one published round
}

}  // namespace
}  // namespace smore
