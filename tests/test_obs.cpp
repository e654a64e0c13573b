// Observability-layer tests (DESIGN.md §14): metrics registry identity and
// handle semantics, concurrent histogram correctness under simultaneous
// record/snapshot (the torn-read regression), exporter formats (Prometheus
// line-by-line, JSON round-trip), trace-ring tail retention across wrap,
// the one-event-per-occurrence serving contract, and span/latency coverage
// through a live server.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/telemetry.hpp"
#include "test_util.hpp"

namespace smore {
namespace {

using obs::EventType;
using obs::JsonValue;

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, GetOrCreateReturnsStableHandles) {
  obs::MetricsRegistry m;
  obs::Counter* a = m.counter("requests_total", {{"plane", "server"}});
  obs::Counter* b = m.counter("requests_total", {{"plane", "server"}});
  EXPECT_EQ(a, b);  // same identity → same handle
  a->add(3);
  EXPECT_EQ(b->value(), 3u);

  // Different labels → different series.
  obs::Counter* c = m.counter("requests_total", {{"plane", "fleet"}});
  EXPECT_NE(a, c);
  EXPECT_EQ(c->value(), 0u);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitIdentity) {
  obs::MetricsRegistry m;
  obs::Counter* a =
      m.counter("shed_total", {{"plane", "fleet"}, {"reason", "queue-full"}});
  obs::Counter* b =
      m.counter("shed_total", {{"reason", "queue-full"}, {"plane", "fleet"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  obs::MetricsRegistry m;
  (void)m.counter("x_total");
  EXPECT_THROW((void)m.gauge("x_total"), std::invalid_argument);
  EXPECT_THROW((void)m.histogram("x_total"), std::invalid_argument);
}

TEST(MetricsRegistry, CallbackGaugeAndTypedCallbackCounter) {
  obs::MetricsRegistry m;
  double live = 7.0;
  m.gauge_callback("live_value", {}, [&live] { return live; });
  std::uint64_t hits = 41;
  m.gauge_callback(
      "hits_total", {}, [&hits] { return static_cast<double>(hits); },
      obs::MetricType::kCounter);

  live = 9.0;
  ++hits;
  bool saw_gauge = false, saw_counter = false;
  for (const obs::MetricSample& s : m.snapshot()) {
    if (s.name == "live_value") {
      saw_gauge = true;
      EXPECT_EQ(s.type, obs::MetricType::kGauge);
      EXPECT_DOUBLE_EQ(s.value, 9.0);
    }
    if (s.name == "hits_total") {
      saw_counter = true;
      EXPECT_EQ(s.type, obs::MetricType::kCounter);  // exported as a counter
      EXPECT_DOUBLE_EQ(s.value, 42.0);
    }
  }
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_counter);

  // remove() drops the series — the contract that lets a callback's owner
  // die before the hub does.
  m.remove("live_value", {});
  m.remove("hits_total", {});
  EXPECT_TRUE(m.snapshot().empty());
}

// --------------------------------------------------------------- histogram

// The torn-read regression: the old pattern mutated a plain histogram under
// a mutex the stats path could miss. The concurrent histogram must deliver
// internally consistent snapshots WHILE records land, and exact totals at
// quiesce (merge-under-concurrent-record stress).
TEST(ConcurrentHistogram, SnapshotConsistentUnderConcurrentRecord) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 20000;
  obs::Histogram h(kWriters);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&h, w] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        // Distinct magnitudes per writer so bucket traffic is spread.
        h.record(1e-4 * static_cast<double>(w + 1));
      }
    });
  }

  // Reader races the writers: every snapshot must be self-consistent —
  // count equals the bucket sum (mid-record), mean within the recorded
  // value range, count monotone across snapshots.
  std::uint64_t last_count = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const LatencyHistogram snap = h.snapshot();
    std::uint64_t bucket_sum = 0;
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      bucket_sum += snap.bucket_count(b);
    }
    EXPECT_EQ(snap.count(), bucket_sum);
    EXPECT_GE(snap.count(), last_count);
    last_count = snap.count();
    if (snap.count() > 0) {
      EXPECT_GE(snap.mean_seconds(), 0.9e-4);
      EXPECT_LE(snap.mean_seconds(), 1.1e-4 * kWriters);
    }
    if (snap.count() == kWriters * kPerWriter) break;
    std::this_thread::yield();
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);

  const LatencyHistogram final_snap = h.snapshot();
  EXPECT_EQ(final_snap.count(), kWriters * kPerWriter);
  EXPECT_NEAR(final_snap.min_seconds(), 1e-4, 1e-9);
  EXPECT_NEAR(final_snap.max_seconds(), 1e-4 * kWriters, 1e-9);
  EXPECT_NEAR(final_snap.sum_seconds(),
              kPerWriter * 1e-4 * (1.0 + 2.0 + 3.0 + 4.0), 1e-6);
}

TEST(ConcurrentHistogram, SnapshotsMergeLikePlainHistograms) {
  obs::Histogram a(2), b(3);
  for (int i = 0; i < 100; ++i) a.record(1e-3);
  for (int i = 0; i < 50; ++i) b.record(4e-3);
  LatencyHistogram merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count(), 150u);
  EXPECT_NEAR(merged.min_seconds(), 1e-3, 1e-9);
  EXPECT_NEAR(merged.max_seconds(), 4e-3, 1e-9);
  EXPECT_NEAR(merged.sum_seconds(), 0.1 + 0.2, 1e-9);
}

// --------------------------------------------------------------- exporters

TEST(PrometheusExport, LineByLine) {
  obs::Telemetry hub;
  hub.metrics()
      .counter("smore_requests_total", {{"plane", "server"}})
      ->add(17);
  hub.metrics().gauge("smore_live_domains")->set(3.0);
  obs::Histogram* h = hub.metrics().histogram("smore_latency_seconds");
  h->record(1e-3);
  h->record(1e-3);

  const std::string text = obs::to_prometheus(hub);
  std::istringstream in(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  // Families are sorted by name: latency histogram, live_domains gauge,
  // requests counter. One TYPE line per family, then its series.
  ASSERT_EQ(lines.size(), 9u);
  EXPECT_EQ(lines[0], "# TYPE smore_latency_seconds histogram");
  const double upper =
      LatencyHistogram::bucket_upper(LatencyHistogram::bucket_of(1e-3));
  char bucket_line[128];
  std::snprintf(bucket_line, sizeof(bucket_line),
                "smore_latency_seconds_bucket{le=\"%.9g\"} 2", upper);
  EXPECT_EQ(lines[1], bucket_line);
  EXPECT_EQ(lines[2], "smore_latency_seconds_bucket{le=\"+Inf\"} 2");
  EXPECT_EQ(lines[3], "smore_latency_seconds_sum 0.002");
  EXPECT_EQ(lines[4], "smore_latency_seconds_count 2");
  EXPECT_EQ(lines[5], "# TYPE smore_live_domains gauge");
  EXPECT_EQ(lines[6], "smore_live_domains 3");
  EXPECT_EQ(lines[7], "# TYPE smore_requests_total counter");
  EXPECT_EQ(lines[8], "smore_requests_total{plane=\"server\"} 17");
}

TEST(PrometheusExport, SanitizesNamesAndEscapesLabelValues) {
  EXPECT_EQ(obs::sanitize_metric_name("9lives-total"), "_9lives_total");
  EXPECT_EQ(obs::sanitize_metric_name("ok:name_0"), "ok:name_0");
  EXPECT_EQ(obs::escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");

  obs::Telemetry hub;
  hub.metrics().counter("weird metric", {{"k", "v\"q\""}})->add(1);
  const std::string text = obs::to_prometheus(hub);
  EXPECT_NE(text.find("weird_metric{k=\"v\\\"q\\\"\"} 1"), std::string::npos);
}

TEST(JsonExport, RoundTripsThroughParse) {
  obs::Telemetry hub;
  hub.metrics().counter("smore_requests_total", {{"plane", "server"}})->add(5);
  hub.metrics().histogram("smore_latency_seconds")->record(2e-3);
  hub.emit(EventType::kSnapshotPublish, "server", "operator", 7);
  obs::TraceSpan span;
  span.total_ns = 1000;
  span.predict_ns = 1000;
  span.set_tenant("alpha");
  hub.tracer().record(span);

  const std::string text = obs::snapshot_json_text(hub);
  std::string error;
  const std::optional<JsonValue> doc = JsonValue::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->at("schema").as_string(), "smore.telemetry.v1");
  EXPECT_DOUBLE_EQ(doc->at("observed_requests").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(doc->at("events_emitted").as_double(), 1.0);

  bool saw_counter = false, saw_hist = false;
  for (const JsonValue& m : doc->at("metrics").items()) {
    if (m.at("name").as_string() == "smore_requests_total") {
      saw_counter = true;
      EXPECT_EQ(m.at("labels").at("plane").as_string(), "server");
      EXPECT_DOUBLE_EQ(m.at("value").as_double(), 5.0);
    }
    if (m.at("name").as_string() == "smore_latency_seconds") {
      saw_hist = true;
      EXPECT_DOUBLE_EQ(m.at("count").as_double(), 1.0);
      EXPECT_DOUBLE_EQ(m.at("sum").as_double(), 2e-3);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
  ASSERT_EQ(doc->at("events").size(), 1u);
  EXPECT_EQ(doc->at("events").at(0).at("type").as_string(),
            "snapshot-publish");
  EXPECT_EQ(doc->at("events").at(0).at("reason").as_string(), "operator");
  ASSERT_EQ(doc->at("slowest_requests").size(), 1u);
  EXPECT_EQ(doc->at("slowest_requests").at(0).at("tenant").as_string(),
            "alpha");

  // Parse → dump → parse is stable (the DOM does not lose structure).
  const std::optional<JsonValue> again = JsonValue::parse(doc->dump(2));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->at("metrics").size(), doc->at("metrics").size());
}

// ------------------------------------------------------------------- trace

TEST(Tracer, RingWrapKeepsSlowTail) {
  obs::TracerConfig tc;
  tc.ring_capacity = 32;
  tc.slow_ring_capacity = 8;
  tc.sample_every = 1;  // keep every span → guaranteed wrap below
  tc.slow_threshold_seconds = 1e-3;
  obs::Tracer tracer(tc);

  // A few slow spans first, then a flood of fast spans large enough to wrap
  // the sampled ring many times over.
  for (int i = 0; i < 4; ++i) {
    obs::TraceSpan s;
    s.total_ns = 5'000'000 + i;  // 5 ms ≫ threshold
    tracer.record(s);
  }
  for (int i = 0; i < 1000; ++i) {
    obs::TraceSpan s;
    s.total_ns = 1000;  // 1 µs, fast
    tracer.record(s);
  }
  EXPECT_EQ(tracer.observed(), 1004u);

  const std::vector<obs::TraceSpan> slowest = tracer.slowest(4);
  ASSERT_EQ(slowest.size(), 4u);
  for (const obs::TraceSpan& s : slowest) {
    EXPECT_GE(s.total_ns, 5'000'000u) << "fast flood evicted the slow tail";
    EXPECT_NE(s.slow, 0);
  }
  // slowest() is total_ns descending.
  for (std::size_t i = 1; i < slowest.size(); ++i) {
    EXPECT_GE(slowest[i - 1].total_ns, slowest[i].total_ns);
  }
}

TEST(Tracer, SetTenantAcceptsAnEmptyView) {
  // A default string_view has a null data(); copying zero bytes from it
  // must not reach memcpy (undefined behaviour, caught by UBSan).
  obs::TraceSpan span;
  span.set_tenant("alpha");
  span.set_tenant(std::string_view{});
  EXPECT_STREQ(span.tenant, "");
}

TEST(EventLog, BoundedRingKeepsMostRecent) {
  obs::EventLog log(8);
  for (int i = 0; i < 20; ++i) {
    log.emit(EventType::kShed, "server", "queue-full", i);
  }
  EXPECT_EQ(log.emitted(), 20u);
  const std::vector<obs::Event> recent = log.recent(8);
  ASSERT_EQ(recent.size(), 8u);
  EXPECT_EQ(recent.front().value, 12);  // oldest resident
  EXPECT_EQ(recent.back().value, 19);   // newest
  for (std::size_t i = 1; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].id, recent[i - 1].id + 1);
  }
}

// ------------------------------------------------- serving events contract

/// Count events of one type (and optional reason) currently resident.
std::size_t count_events(const obs::Telemetry& hub, EventType type,
                         std::string_view reason = {}) {
  std::size_t n = 0;
  for (const obs::Event& e : hub.events().recent(1024)) {
    if (e.type != type) continue;
    if (!reason.empty() && reason != e.reason) continue;
    ++n;
  }
  return n;
}

class ObsServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    windows_ = generate_dataset(testing::tiny_spec());
    EncoderConfig ec;
    ec.dim = 128;
    pipeline_ = std::make_unique<Pipeline>(
        std::make_shared<const MultiSensorEncoder>(ec),
        windows_.num_classes());
    pipeline_->fit(windows_);
    pipeline_->quantize();
    pipeline_->calibrate(windows_, 0.08);
    queries_ = pipeline_->encode(windows_);
  }

  [[nodiscard]] std::vector<float> query(std::size_t i) const {
    const auto row = queries_.row(i);
    return {row.begin(), row.end()};
  }

  [[nodiscard]] std::string artifact() const {
    std::ostringstream buffer(std::ios::binary);
    pipeline_->save(buffer);
    return buffer.str();
  }

  WindowDataset windows_;
  std::unique_ptr<Pipeline> pipeline_;
  HvDataset queries_{128};
};

TEST_F(ObsServingTest, ServerEmitsExactlyOnePublishEventPerGeneration) {
  const auto hub = obs::Telemetry::make();
  ServerConfig cfg;
  cfg.telemetry = hub;
  InferenceServer server(*pipeline_, cfg);
  EXPECT_EQ(count_events(*hub, EventType::kRegistryLoad), 1u);  // the boot

  ASSERT_TRUE(server.publish(ModelSnapshot::make(*pipeline_, 2)));
  EXPECT_EQ(count_events(*hub, EventType::kSnapshotPublish, "operator"), 1u);
  // A stale publish loses the CAS and must NOT emit.
  EXPECT_FALSE(server.publish(ModelSnapshot::make(*pipeline_, 2)));
  EXPECT_EQ(count_events(*hub, EventType::kSnapshotPublish), 1u);
}

TEST_F(ObsServingTest, ShedEmitsExactlyOneEventWithReason) {
  const auto hub = obs::Telemetry::make();
  ServerConfig cfg;
  cfg.telemetry = hub;
  InferenceServer server(*pipeline_, cfg);
  server.shutdown();
  ServeStatus reason = ServeStatus::kOk;
  EXPECT_FALSE(server.try_submit(query(0), &reason).has_value());
  EXPECT_EQ(reason, ServeStatus::kShuttingDown);
  EXPECT_EQ(count_events(*hub, EventType::kShed, "shutting-down"), 1u);
  EXPECT_EQ(server.stats().rejected, 1u);
}

TEST_F(ObsServingTest, RegistryEmitsLoadEvictAndFailureEvents) {
  const auto hub = obs::Telemetry::make();
  const std::string bytes = artifact();
  RegistryConfig rc;
  rc.telemetry = hub;
  ModelRegistry registry(
      [bytes](const std::string& tenant) {
        if (tenant == "bad") throw std::runtime_error("corrupt artifact");
        std::istringstream in(bytes, std::ios::binary);
        return ModelSnapshot::from_artifact(in, 1);
      },
      rc);

  (void)registry.acquire("a");
  (void)registry.acquire("a");  // hit: no second load event
  EXPECT_EQ(count_events(*hub, EventType::kRegistryLoad), 1u);
  EXPECT_THROW((void)registry.acquire("bad"), std::runtime_error);
  EXPECT_EQ(count_events(*hub, EventType::kRegistryLoadFailure), 1u);
  EXPECT_TRUE(registry.evict("a"));
  EXPECT_FALSE(registry.evict("a"));  // already cold: no event
  EXPECT_EQ(count_events(*hub, EventType::kRegistryEvict, "operator"), 1u);

  // The registry's callback metrics feed the same hub the caller passed.
  bool saw = false;
  for (const obs::MetricSample& s : hub->metrics().snapshot()) {
    if (s.name == "smore_registry_loads_total") {
      saw = true;
      EXPECT_DOUBLE_EQ(s.value, 1.0);
    }
  }
  EXPECT_TRUE(saw);
}

TEST_F(ObsServingTest, RegistryDtorUnregistersCallbackMetrics) {
  const auto hub = obs::Telemetry::make();
  {
    RegistryConfig rc;
    rc.telemetry = hub;
    const std::string bytes = artifact();
    ModelRegistry registry(
        [bytes](const std::string&) {
          std::istringstream in(bytes, std::ios::binary);
          return ModelSnapshot::from_artifact(in, 1);
        },
        rc);
    (void)registry.acquire("a");
  }
  // The registry died before the hub: its callbacks must be gone, and a
  // snapshot must not touch freed memory (crash/ASan test).
  for (const obs::MetricSample& s : hub->metrics().snapshot()) {
    EXPECT_EQ(s.name.rfind("smore_registry_", 0), std::string::npos)
        << s.name << " dangled past ~ModelRegistry";
  }
}

TEST_F(ObsServingTest, ByteBudgetEvictionEmitsOneEventPerVictim) {
  const auto hub = obs::Telemetry::make();
  const std::string bytes = artifact();
  RegistryConfig rc;
  rc.telemetry = hub;
  rc.byte_budget = 1;  // every second tenant evicts the first
  ModelRegistry registry(
      [bytes](const std::string&) {
        std::istringstream in(bytes, std::ios::binary);
        return ModelSnapshot::from_artifact(in, 1);
      },
      rc);
  (void)registry.acquire("a");
  (void)registry.acquire("b");  // budget exceeded → evicts "a"
  EXPECT_EQ(count_events(*hub, EventType::kRegistryEvict, "byte-budget"), 1u);
  EXPECT_EQ(registry.stats().evictions, 1u);
}

TEST_F(ObsServingTest, StatsAreAViewOverTheSharedHub) {
  const auto hub = obs::Telemetry::make();
  ServerConfig cfg;
  cfg.telemetry = hub;
  InferenceServer server(*pipeline_, cfg);
  const std::size_t n = queries_.size();
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < n; ++i) futures.push_back(server.submit(query(i)));
  for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);

  const ServerStats s = server.stats();
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.latency.count, n);

  // The exporter reads the SAME series stats() reads.
  const std::string prom = obs::to_prometheus(*hub);
  EXPECT_NE(prom.find("smore_requests_completed_total{plane=\"fleet\"} " +
                      std::to_string(n)),
            std::string::npos);
  EXPECT_NE(prom.find("smore_kernel_tier_info"), std::string::npos);
  EXPECT_NE(prom.find("smore_snapshot_version{plane=\"fleet\"}"),
            std::string::npos);
}

TEST_F(ObsServingTest, SpansCoverEndToEndLatency) {
  const auto hub = [&] {
    obs::TelemetryConfig tc;
    tc.trace.sample_every = 1;  // keep every span
    tc.trace.ring_capacity = 4096;
    return obs::Telemetry::make(tc);
  }();
  ServerConfig cfg;
  cfg.telemetry = hub;
  InferenceServer server(*pipeline_, cfg);
  const std::size_t n = queries_.size();
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < n; ++i) futures.push_back(server.submit(query(i)));
  double max_latency = 0.0;
  for (auto& f : futures) {
    max_latency = std::max(max_latency, f.get().latency_seconds);
  }
  server.shutdown();

  const std::vector<obs::TraceSpan> spans = hub->tracer().recent();
  ASSERT_EQ(spans.size(), n);  // sample_every=1, no wrap
  for (const obs::TraceSpan& s : spans) {
    // The phases are cut from the same four timestamps, so their sum IS the
    // total (≥99% allows only ns-cast rounding), and totals are bounded by
    // the slowest observed end-to-end latency.
    const std::uint64_t phase_sum =
        s.queue_ns + s.encode_ns + s.predict_ns + s.fulfill_ns;
    EXPECT_EQ(phase_sum, s.total_ns);
    EXPECT_GE(static_cast<double>(phase_sum),
              0.99 * static_cast<double>(s.total_ns));
    EXPECT_LE(static_cast<double>(s.total_ns) * 1e-9, max_latency + 1e-3);
    EXPECT_GT(s.predict_ns, 0u);  // predict can never be free
  }
}

TEST_F(ObsServingTest, WindowSpansCarryTheEncodePhase) {
  // Raw windows are encoded inside the batch: the encode phase is timed
  // (encode_ns > 0) and the four phases still sum to the total.
  obs::TelemetryConfig tc;
  tc.trace.sample_every = 1;
  tc.trace.ring_capacity = 4096;
  const auto hub = obs::Telemetry::make(tc);
  ServerConfig cfg;
  cfg.telemetry = hub;
  InferenceServer server(*pipeline_, cfg);
  const std::size_t n = windows_.size();
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(server.submit(windows_[i]));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);
  server.shutdown();

  const std::vector<obs::TraceSpan> spans = hub->tracer().recent();
  ASSERT_EQ(spans.size(), n);
  for (const obs::TraceSpan& s : spans) {
    EXPECT_GT(s.encode_ns, 0u);
    EXPECT_EQ(s.queue_ns + s.encode_ns + s.predict_ns + s.fulfill_ns,
              s.total_ns);
  }
}

TEST_F(ObsServingTest, RouterSharesOneHubWithRegistryAndExports) {
  const auto hub = obs::Telemetry::make();
  const std::string bytes = artifact();
  RegistryConfig rc;
  rc.telemetry = hub;
  auto registry = std::make_shared<ModelRegistry>(
      [bytes](const std::string&) {
        std::istringstream in(bytes, std::ios::binary);
        return ModelSnapshot::from_artifact(in, 1);
      },
      rc);
  MultiTenantConfig mc;
  mc.num_shards = 2;
  mc.telemetry = hub;
  MultiTenantServer server(registry, mc);

  const std::size_t n = queries_.size();
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(server.submit(i % 2 == 0 ? "a" : "b", query(i)));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().status, ServeStatus::kOk);

  const MultiTenantStats s = server.stats();
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.registry.loads, 2u);

  // One export surface shows the router AND the registry.
  const std::string prom = obs::to_prometheus(*hub);
  EXPECT_NE(prom.find("smore_requests_completed_total{plane=\"fleet\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("smore_registry_loads_total 2"), std::string::npos);
  EXPECT_NE(prom.find("smore_tenant_completed_total{tenant=\"a\"}"),
            std::string::npos);

  // tenant_stats() is a view over the same {tenant=...} series.
  const auto per_tenant = server.tenant_stats();
  ASSERT_EQ(per_tenant.size(), 2u);
  EXPECT_EQ(per_tenant[0].submitted + per_tenant[1].submitted, n);
  EXPECT_GT(per_tenant[0].latency.count(), 0u);
}

TEST_F(ObsServingTest, WriteTelemetryProducesParsableSnapshot) {
  const std::string bytes = artifact();
  auto registry = std::make_shared<ModelRegistry>(
      [bytes](const std::string&) {
        std::istringstream in(bytes, std::ios::binary);
        return ModelSnapshot::from_artifact(in, 1);
      });
  MultiTenantConfig mc;
  mc.telemetry = registry->telemetry();  // share the registry's private hub
  MultiTenantServer server(registry, mc);
  (void)server.submit("a", query(0)).get();

  const std::string path = ::testing::TempDir() + "smore_obs_snapshot.json";
  ASSERT_TRUE(server.write_telemetry(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  const std::optional<JsonValue> doc = JsonValue::parse(buffer.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->at("schema").as_string(), "smore.telemetry.v1");
  EXPECT_GT(doc->at("metrics").size(), 0u);
}

}  // namespace
}  // namespace smore
