// Serving-runtime tests: the micro-batching scheduler must be a correctness
// no-op — any (max_batch, producer-count) schedule returns exactly what one
// direct batched call returns — batches must form from load alone, and the
// snapshot swap must never drop or corrupt an in-flight request.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/binary_smore.hpp"
#include "core/pipeline.hpp"
#include "core/smore.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "hdc/ops_binary.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace smore {
namespace {

using testing::separable_hv_dataset;
using testing::tiny_spec;

constexpr std::size_t kDim = 128;
constexpr int kClasses = 4;
constexpr int kDomains = 3;

/// Train a small model and build a query mix of in-distribution rows and
/// OOD noise rows, shared by every scheduler test.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    train_ = separable_hv_dataset(kClasses, kDomains, 20, kDim, 0.4, 0.5);
    model_ = std::make_unique<SmoreModel>(kClasses, kDim);
    model_->fit(train_);
    model_->calibrate_delta_star(train_, 0.05);

    Rng rng(0xbeef);
    queries_ = HvMatrix(160, kDim);
    for (std::size_t i = 0; i < queries_.rows(); ++i) {
      if (i % 4 == 3) {  // every 4th row: pure noise (OOD territory)
        for (std::size_t j = 0; j < kDim; ++j) {
          queries_.row(i)[j] = static_cast<float>(rng.normal());
        }
      } else {
        queries_.set_row(i, train_.row(i % train_.size()));
      }
    }
  }

  [[nodiscard]] std::shared_ptr<const ModelSnapshot> snapshot(
      bool quantize = false, std::uint64_t version = 1) const {
    return ModelSnapshot::make(model_->clone(), quantize, version);
  }

  /// Submit every query row from `producers` striped threads and compare
  /// each response against the reference SmoreBatchResult row.
  void expect_matches_reference(InferenceServer& server,
                                const SmoreBatchResult& ref,
                                std::size_t producers) const {
    const std::size_t n = queries_.rows();
    std::vector<std::future<ServeResult>> futures(n);
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (std::size_t i = p; i < n; i += producers) {
          const auto row = queries_.row(i);
          futures[i] = server.submit({row.begin(), row.end()});
        }
      });
    }
    for (auto& t : threads) t.join();
    const std::size_t k = ref.num_domains;
    for (std::size_t i = 0; i < n; ++i) {
      const ServeResult r = futures[i].get();
      EXPECT_EQ(r.status, ServeStatus::kOk) << "row " << i;
      EXPECT_EQ(r.label, ref.labels[i]) << "row " << i;
      EXPECT_EQ(r.is_ood, ref.ood[i] != 0) << "row " << i;
      EXPECT_DOUBLE_EQ(r.max_similarity, ref.max_similarity[i]) << "row " << i;
      ASSERT_EQ(r.weights.size(), k);
      for (std::size_t d = 0; d < k; ++d) {
        EXPECT_DOUBLE_EQ(r.weights[d], ref.weights[i * k + d])
            << "row " << i << " domain " << d;
      }
      EXPECT_GE(r.latency_seconds, 0.0);
    }
  }

  HvDataset train_{kDim};
  std::unique_ptr<SmoreModel> model_;
  HvMatrix queries_;
};

TEST_F(ServeTest, SchedulerIsEquivalentToDirectBatchedCall) {
  const auto snap = snapshot();
  const SmoreBatchResult ref = snap->model->predict_batch_full(queries_.view());
  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{7},
                                      std::size_t{32}}) {
    for (const std::size_t producers : {std::size_t{1}, std::size_t{4}}) {
      ServerConfig cfg;
      cfg.max_batch = max_batch;
      cfg.num_workers = 2;
      cfg.queue_capacity = 64;
      InferenceServer server(snap, cfg);
      SCOPED_TRACE(::testing::Message() << "max_batch=" << max_batch
                                        << " producers=" << producers);
      expect_matches_reference(server, ref, producers);
      server.shutdown();
      const ServerStats stats = server.stats();
      EXPECT_EQ(stats.submitted, queries_.rows());
      EXPECT_EQ(stats.completed, queries_.rows());
      EXPECT_EQ(stats.batched_rows, queries_.rows());
      EXPECT_GE(stats.mean_batch_fill, 1.0);
      EXPECT_EQ(stats.latency.count, queries_.rows());
    }
  }
}

TEST_F(ServeTest, BacklogIsServedInFullBatchesWithoutATimer) {
  // Load alone forms batches: N requests queued behind a held batch are
  // served in ceil(N / max_batch) batches once the worker is free.
  const auto snap = snapshot();
  const SmoreBatchResult ref = snap->model->predict_batch_full(queries_.view());
  ServerConfig cfg;
  cfg.max_batch = 8;
  auto gate = std::make_shared<testing::Gate>();
  InferenceServer server(testing::gated(snap, gate), cfg);
  std::vector<std::future<ServeResult>> futures;
  const auto first = queries_.row(0);
  futures.push_back(server.submit({first.begin(), first.end()}));
  gate->wait_for_callers(1);  // the worker holds a one-row batch
  constexpr std::size_t kBacklog = 50;
  for (std::size_t i = 1; i <= kBacklog; ++i) {
    const auto row = queries_.row(i);
    futures.push_back(server.submit({row.begin(), row.end()}));
  }
  gate->open();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, ref.labels[i]) << "row " << i;
  }
  EXPECT_EQ(server.stats().batches,
            1 + (kBacklog + cfg.max_batch - 1) / cfg.max_batch);
}

TEST_F(ServeTest, PackedBackendMatchesDirectPackedCall) {
  // A quantized snapshot serves through its packed backend; the server
  // itself never selects a representation.
  const auto snap = snapshot(/*quantize=*/true);
  ASSERT_EQ(snap->backend->kind(), ServeBackend::kPacked);
  const SmoreBatchResult ref =
      snap->packed->predict_batch_full(queries_.view());
  ServerConfig cfg;
  cfg.max_batch = 16;
  InferenceServer server(snap, cfg);
  expect_matches_reference(server, ref, 4);
}

TEST_F(ServeTest, SnapshotInstallsTheMatchingBackend) {
  const auto float_snap = snapshot(/*quantize=*/false);
  ASSERT_NE(float_snap->backend, nullptr);
  EXPECT_EQ(float_snap->backend->kind(), ServeBackend::kFloat);
  EXPECT_STREQ(float_snap->backend->name(), "float");
  EXPECT_EQ(float_snap->backend->dim(), kDim);
  EXPECT_EQ(float_snap->backend->num_domains(),
            static_cast<std::size_t>(kDomains));
  EXPECT_EQ(float_snap->backend->footprint_bytes(),
            float_snap->model->footprint_bytes());

  const auto packed_snap = snapshot(/*quantize=*/true);
  ASSERT_NE(packed_snap->backend, nullptr);
  EXPECT_EQ(packed_snap->backend->kind(), ServeBackend::kPacked);
  EXPECT_STREQ(packed_snap->backend->name(), "packed");
  EXPECT_EQ(packed_snap->backend->footprint_bytes(),
            packed_snap->packed->footprint_bytes());
  // Both answer through the same interface call.
  const SmoreBatchResult a =
      float_snap->backend->predict_batch_full(queries_.view());
  const SmoreBatchResult b =
      packed_snap->backend->predict_batch_full(queries_.view());
  EXPECT_EQ(a.labels, float_snap->model->predict_batch(queries_.view()));
  EXPECT_EQ(b.labels, packed_snap->packed->predict_batch(queries_.view()));
}

TEST_F(ServeTest, WindowRequestsAreEncodedInBatch) {
  // End-to-end: raw windows in, labels out, against the encoder's own
  // batch encoding + a direct predict. The server takes SHARED ownership of
  // the encoder: the submitting side drops its reference mid-test and the
  // requests must still encode (no "encoder must outlive the server"
  // contract).
  const WindowDataset raw = generate_dataset(tiny_spec());
  EncoderConfig ec;
  ec.dim = kDim;
  auto encoder = std::make_shared<const MultiSensorEncoder>(ec);
  const HvDataset encoded = encoder->encode_dataset(raw);
  SmoreModel window_model(raw.num_classes(), kDim);
  window_model.fit(encoded);
  const auto snap =
      ModelSnapshot::make(window_model.clone(), false, 1, encoder);
  const std::vector<int> ref = snap->model->predict_batch(encoded.view());

  ServerConfig cfg;
  cfg.max_batch = 8;
  InferenceServer server(snap, cfg);
  encoder.reset();  // the server's shared ownership keeps it alive
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    futures.push_back(server.submit(raw[i]));
  }
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, ref[i]) << "window " << i;
  }
}

TEST_F(ServeTest, MixedWindowShapesCoalesceIntoIndependentGroups) {
  // Windows of different shapes can land in one micro-batch (e.g. two
  // sensor products sharing a server). Each shape is encoded as its own
  // group; no request depends on its batch-mates' shapes.
  const WindowDataset raw_a = generate_dataset(tiny_spec());
  const WindowDataset raw_b =
      generate_dataset(tiny_spec(3, 3, 2, 48));  // different step count
  EncoderConfig ec;
  ec.dim = kDim;
  const auto encoder = std::make_shared<const MultiSensorEncoder>(ec);
  const HvDataset enc_a = encoder->encode_dataset(raw_a);
  const HvDataset enc_b = encoder->encode_dataset(raw_b);
  SmoreModel window_model(raw_a.num_classes(), kDim);
  window_model.fit(enc_a);
  const auto snap =
      ModelSnapshot::make(window_model.clone(), false, 1, encoder);
  const std::vector<int> ref_a = snap->model->predict_batch(enc_a.view());
  const std::vector<int> ref_b = snap->model->predict_batch(enc_b.view());

  ServerConfig cfg;
  cfg.max_batch = 16;
  InferenceServer server(snap, cfg);
  const std::size_t n = std::min<std::size_t>(24, raw_b.size());
  std::vector<std::future<ServeResult>> fut_a;
  std::vector<std::future<ServeResult>> fut_b;
  for (std::size_t i = 0; i < n; ++i) {  // interleave the two shapes
    fut_a.push_back(server.submit(raw_a[i]));
    fut_b.push_back(server.submit(raw_b[i]));
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(fut_a[i].get().label, ref_a[i]) << "shape-A window " << i;
    EXPECT_EQ(fut_b[i].get().label, ref_b[i]) << "shape-B window " << i;
  }
}

TEST_F(ServeTest, SubmitWindowWithoutEncoderThrows) {
  InferenceServer server(snapshot());
  EXPECT_THROW(server.submit(Window(2, 8)), std::logic_error);
}

TEST_F(ServeTest, SubmitRejectsDimensionMismatch) {
  InferenceServer server(snapshot());
  EXPECT_THROW(server.submit(std::vector<float>(kDim + 1, 0.0f)),
               std::invalid_argument);
}

TEST_F(ServeTest, ShutdownFulfillsEveryInflightRequest) {
  const auto snap = snapshot();
  const SmoreBatchResult ref = snap->model->predict_batch_full(queries_.view());
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 512;
  // The gate holds the worker in its first batch: requests pile up.
  auto gate = std::make_shared<testing::Gate>();
  InferenceServer server(testing::gated(snap, gate), cfg);
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(queries_.rows());
  for (std::size_t i = 0; i < queries_.rows(); ++i) {
    const auto row = queries_.row(i);
    futures.push_back(server.submit({row.begin(), row.end()}));
  }
  // Release the worker and close at once: the close lands long before the
  // worker drains the pile, so shutdown() finds it queued.
  gate->open();
  server.shutdown();  // must drain, not drop
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResult r = futures[i].get();  // throws if a request was lost
    EXPECT_EQ(r.label, ref.labels[i]);
  }
  EXPECT_EQ(server.stats().completed, queries_.rows());
  // New submissions are refused after shutdown — on the result plane, not
  // via exceptions or blocking: a late blocking submit resolves immediately
  // with kShuttingDown, and try_submit reports the same shed reason.
  const auto row = queries_.row(0);
  std::future<ServeResult> late = server.submit({row.begin(), row.end()});
  EXPECT_EQ(late.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(late.get().status, ServeStatus::kShuttingDown);
  ServeStatus reason = ServeStatus::kOk;
  EXPECT_EQ(server.try_submit({row.begin(), row.end()}, &reason),
            std::nullopt);
  EXPECT_EQ(reason, ServeStatus::kShuttingDown);
}

TEST_F(ServeTest, SnapshotSwapDuringLoadDropsAndCorruptsNothing) {
  // Clones predict identically, so every response must match the reference
  // no matter which generation served it — publication during load must be
  // invisible except for the version stamp.
  const auto snap = snapshot(false, 1);
  const SmoreBatchResult ref = snap->model->predict_batch_full(queries_.view());
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.num_workers = 2;
  InferenceServer server(snap, cfg);

  constexpr int kRounds = 6;
  std::atomic<bool> done{false};
  std::uint64_t last_version = 1;
  std::thread publisher([&] {
    std::uint64_t version = 2;
    while (!done.load()) {
      server.publish(ModelSnapshot::make(model_->clone(), false, version));
      last_version = version;
      ++version;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  const std::size_t n = queries_.rows();
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<ServeResult>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = queries_.row(i);
      futures.push_back(server.submit({row.begin(), row.end()}));
    }
    for (std::size_t i = 0; i < n; ++i) {
      const ServeResult r = futures[i].get();
      EXPECT_EQ(r.label, ref.labels[i]);
      EXPECT_EQ(r.is_ood, ref.ood[i] != 0);
      EXPECT_GE(r.snapshot_version, 1u);
    }
  }
  done = true;
  publisher.join();
  server.shutdown();
  EXPECT_EQ(server.stats().completed,
            static_cast<std::uint64_t>(kRounds) * n);
  EXPECT_GE(server.stats().snapshot_version, 1u);
  EXPECT_LE(server.stats().snapshot_version, last_version);
}

TEST_F(ServeTest, StalePublishLosesToTheNewerGeneration) {
  // Two publishers race in deployment: an adaptation round built off an old
  // generation must not overwrite an operator's newer model.
  InferenceServer server(snapshot(false, 5));
  EXPECT_FALSE(server.publish(ModelSnapshot::make(model_->clone(), false, 5)));
  EXPECT_FALSE(server.publish(ModelSnapshot::make(model_->clone(), false, 3)));
  EXPECT_EQ(server.snapshot()->version, 5u);
  EXPECT_TRUE(server.publish(ModelSnapshot::make(model_->clone(), false, 6)));
  EXPECT_EQ(server.snapshot()->version, 6u);
}

TEST_F(ServeTest, PublishRejectsMismatchedSnapshot) {
  InferenceServer server(snapshot());
  EXPECT_THROW(server.publish(nullptr), std::invalid_argument);
  // A hand-built generation without a backend would crash the next batch.
  auto no_backend = std::make_shared<ModelSnapshot>(*snapshot(false, 9));
  no_backend->backend = nullptr;
  EXPECT_THROW(server.publish(no_backend), std::invalid_argument);
  SmoreModel other(kClasses, kDim / 2);
  other.fit(separable_hv_dataset(kClasses, kDomains, 4, kDim / 2));
  EXPECT_THROW(server.publish(ModelSnapshot::make(std::move(other), false, 9)),
               std::invalid_argument);
}

TEST_F(ServeTest, ServerBootsFromAPipeline) {
  // One call from deployable artifact to serving: the snapshot takes the
  // pipeline's cloned model, its packed backend (δ* calibration preserved),
  // and shares its encoder for raw-window submission.
  const WindowDataset raw = generate_dataset(tiny_spec());
  EncoderConfig ec;
  ec.dim = kDim;
  Pipeline pipeline(std::make_shared<const MultiSensorEncoder>(ec),
                    raw.num_classes());
  pipeline.fit(raw);
  pipeline.quantize();
  const std::vector<int> ref =
      pipeline.predict_batch(raw, ServeBackend::kPacked);

  InferenceServer server(pipeline, {});
  ASSERT_NE(server.snapshot()->backend, nullptr);
  EXPECT_EQ(server.snapshot()->backend->kind(), ServeBackend::kPacked);
  EXPECT_NE(server.snapshot()->encoder, nullptr);
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    futures.push_back(server.submit(raw[i]));
  }
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, ref[i]) << "window " << i;
  }
}

TEST_F(ServeTest, SnapshotRefusesAStalePackedCalibration) {
  // calibrate-then-quantize leaves the packed δ* on the cosine scale;
  // serving it would over-flag OOD and poison every adapted generation.
  const WindowDataset raw = generate_dataset(tiny_spec());
  EncoderConfig ec;
  ec.dim = kDim;
  Pipeline pipeline(std::make_shared<const MultiSensorEncoder>(ec),
                    raw.num_classes());
  pipeline.fit(raw);
  pipeline.calibrate(raw, 0.05);
  pipeline.quantize();
  EXPECT_THROW((void)ModelSnapshot::make(pipeline, 1), std::logic_error);
  // The float backend of the same pipeline is fine…
  EXPECT_NE(ModelSnapshot::make(pipeline, 1, /*prefer_packed=*/false),
            nullptr);
  // …and recalibrating repairs the packed one.
  pipeline.calibrate(raw, 0.05);
  EXPECT_EQ(ModelSnapshot::make(pipeline, 1)->backend->kind(),
            ServeBackend::kPacked);
}

TEST_F(ServeTest, SnapshotBootsFromAnArtifactStream) {
  // Disk → serving: a .smore artifact stream yields a complete snapshot
  // (packed backend + encoder) with predictions identical to the writer's.
  const WindowDataset raw = generate_dataset(tiny_spec());
  EncoderConfig ec;
  ec.dim = kDim;
  Pipeline pipeline(std::make_shared<const MultiSensorEncoder>(ec),
                    raw.num_classes());
  pipeline.fit(raw);
  pipeline.quantize();
  std::stringstream artifact;
  pipeline.save(artifact);

  const auto snap = ModelSnapshot::from_artifact(artifact, /*version=*/7);
  EXPECT_EQ(snap->version, 7u);
  ASSERT_NE(snap->backend, nullptr);
  EXPECT_EQ(snap->backend->kind(), ServeBackend::kPacked);
  ASSERT_NE(snap->encoder, nullptr);
  EXPECT_EQ(snap->encoder->dim(), kDim);

  InferenceServer server(snap);  // encoder comes from the snap
  const std::vector<int> ref =
      pipeline.predict_batch(raw, ServeBackend::kPacked);
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    futures.push_back(server.submit(raw[i]));
  }
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, ref[i]) << "window " << i;
  }
}

TEST_F(ServeTest, AdaptationKeepsTheSnapshotShapeAcrossGenerations) {
  // After an adaptation round the published generation must keep the old
  // one's backend kind (re-quantized) and shared encoder — the serving
  // contract does not change under the operator's feet.
  const WindowDataset raw = generate_dataset(tiny_spec());
  EncoderConfig ec;
  ec.dim = kDim;
  Pipeline pipeline(std::make_shared<const MultiSensorEncoder>(ec),
                    raw.num_classes());
  pipeline.fit(raw);
  pipeline.quantize();
  pipeline.calibrate(raw, 0.05);  // packed δ* calibrated on its own scale

  ServerConfig cfg;
  cfg.adaptation = true;
  cfg.adapt_min_batch = 16;
  cfg.adapt_poll_ms = 1;
  InferenceServer server(pipeline, cfg);
  const auto boot = server.snapshot();

  // Far-out-of-distribution cluster (mutually similar, unlike training).
  Rng rng(0x5eed5);
  std::vector<float> proto(kDim);
  for (auto& x : proto) x = static_cast<float>(rng.normal() * 2.0);
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 64; ++i) {
    std::vector<float> hv(kDim);
    for (std::size_t j = 0; j < kDim; ++j) {
      hv[j] = proto[j] + static_cast<float>(rng.normal(0.0, 0.2));
    }
    futures.push_back(server.submit(std::move(hv)));
  }
  std::size_t flagged = 0;
  for (auto& f : futures) flagged += f.get().is_ood ? 1 : 0;
  if (flagged >= cfg.adapt_min_batch) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().adaptation_rounds == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  server.shutdown();
  const auto live = server.snapshot();
  if (server.stats().adaptation_rounds > 0) {
    EXPECT_GT(live->version, boot->version);
    ASSERT_NE(live->packed, nullptr);  // re-quantized
    EXPECT_EQ(live->backend->kind(), ServeBackend::kPacked);
    EXPECT_EQ(live->encoder, boot->encoder);  // same shared encoder
    // The Hamming-scale δ* calibration survives re-quantization (a fresh
    // BinarySmoreModel would have reset it to the cosine-scale float δ*).
    EXPECT_DOUBLE_EQ(live->packed->delta_star(), boot->packed->delta_star());
    EXPECT_NE(live->packed->delta_star(),
              live->model->config().delta_star);
  }
}

TEST_F(ServeTest, AdaptationWorkerEnrollsAnUnseenDomainUnderLoad) {
  // Feed a cluster of far-out-of-distribution queries with adaptation on:
  // the worker must clone, enroll them as a new domain, and publish a new
  // generation while serving continues.
  const auto snap = snapshot(false, 1);
  ASSERT_EQ(snap->model->num_domains(), static_cast<std::size_t>(kDomains));
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.adaptation = true;
  cfg.adapt_min_batch = 16;
  cfg.adapt_poll_ms = 1;
  InferenceServer server(snap, cfg);

  // An outsider cluster: one shifted prototype + small noise, so the
  // samples are mutually similar (enrollable) but dissimilar to training.
  Rng rng(0x07d001);
  std::vector<float> proto(kDim);
  for (auto& x : proto) x = static_cast<float>(rng.normal() * 2.0);
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 64; ++i) {
    std::vector<float> hv(kDim);
    for (std::size_t j = 0; j < kDim; ++j) {
      hv[j] = proto[j] + static_cast<float>(rng.normal(0.0, 0.2));
    }
    futures.push_back(server.submit(std::move(hv)));
  }
  std::size_t flagged = 0;
  for (auto& f : futures) flagged += f.get().is_ood ? 1 : 0;
  ASSERT_GE(flagged, cfg.adapt_min_batch) << "test premise: queries are OOD";

  // The adaptation worker runs asynchronously; give it bounded time.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (server.stats().adaptation_rounds == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.shutdown();
  const ServerStats stats = server.stats();
  ASSERT_GE(stats.adaptation_rounds, 1u);
  EXPECT_GE(stats.adaptation_absorbed, cfg.adapt_min_batch);
  const auto live = server.snapshot();
  EXPECT_GT(live->version, 1u);
  EXPECT_GT(live->model->num_domains(), static_cast<std::size_t>(kDomains));
}

}  // namespace
}  // namespace smore
