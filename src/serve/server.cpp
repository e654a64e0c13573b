#include "serve/server.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/pipeline.hpp"

namespace smore {

namespace {

/// The façade's one tenant.
const std::string kTenant;

/// Snapshot-time gauges of the live generation (removed by the destructor).
const char* const kSnapshotGauges[] = {"smore_snapshot_version",
                                       "smore_live_domains"};
const obs::Labels kGaugeLabels{{"plane", "fleet"}};

}  // namespace

InferenceServer::InferenceServer(std::shared_ptr<const ModelSnapshot> boot,
                                 ServerConfig config)
    : config_(std::move(config)) {
  config_.num_workers = std::max<std::size_t>(1, config_.num_workers);
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  if (config_.telemetry == nullptr) config_.telemetry = obs::Telemetry::make();

  // The opener hands the boot snapshot over once: the tenant is acquired
  // here and never evicted (no byte budget), so no second load happens, and
  // the boot generation is freed once a publish replaces it.
  RegistryConfig rc;
  rc.telemetry = config_.telemetry;
  registry_ = std::make_shared<ModelRegistry>(
      [boot = std::move(boot)](const std::string&) mutable {
        return std::exchange(boot, nullptr);
      },
      rc);
  model_ = registry_->acquire(kTenant);  // throws on an unservable snapshot

  MultiTenantConfig mc;
  mc.num_shards = 1;
  mc.workers_per_shard = config_.num_workers;
  mc.max_batch = config_.max_batch;
  mc.shard_queue_capacity = config_.queue_capacity;
  mc.tenant_inflight_quota = 0;  // one tenant: only the queue bound sheds
  mc.adaptation = config_.adaptation;
  mc.adapt_min_batch = config_.adapt_min_batch;
  mc.adapt_buffer_capacity = config_.adapt_buffer_capacity;
  mc.adapt_poll_ms = config_.adapt_poll_ms;
  mc.lifecycle_config = config_.lifecycle_config;
  mc.telemetry = config_.telemetry;
  fleet_ = std::make_unique<MultiTenantServer>(registry_, mc);

  obs::MetricsRegistry& m = config_.telemetry->metrics();
  m.gauge_callback(kSnapshotGauges[0], kGaugeLabels, [model = model_] {
    return static_cast<double>(model->snapshot()->version);
  });
  m.gauge_callback(kSnapshotGauges[1], kGaugeLabels, [model = model_] {
    return static_cast<double>(model->snapshot()->model->num_domains());
  });
}

InferenceServer::InferenceServer(const Pipeline& pipeline, ServerConfig config,
                                 std::uint64_t boot_version)
    : InferenceServer(ModelSnapshot::make(pipeline, boot_version),
                      std::move(config)) {}

InferenceServer::~InferenceServer() {
  shutdown();
  obs::MetricsRegistry& m = config_.telemetry->metrics();
  for (const char* name : kSnapshotGauges) m.remove(name, kGaugeLabels);
}

std::future<ServeResult> InferenceServer::submit(std::vector<float> hv) {
  return fleet_->submit(kTenant, std::move(hv));
}

std::future<ServeResult> InferenceServer::submit(Window window) {
  return fleet_->submit(kTenant, std::move(window));
}

std::optional<std::future<ServeResult>> InferenceServer::try_submit(
    std::vector<float> hv, ServeStatus* shed_reason) {
  return fleet_->try_submit(kTenant, std::move(hv), shed_reason);
}

bool InferenceServer::publish(std::shared_ptr<const ModelSnapshot> snap) {
  return registry_->publish(kTenant, std::move(snap));
}

void InferenceServer::shutdown() { fleet_->shutdown(); }

ServerStats InferenceServer::stats() const {
  ServerStats s;
  static_cast<MultiTenantStats&>(s) = fleet_->stats();
  const auto live = model_->snapshot();
  s.snapshot_version = live->version;
  s.live_domains = live->model->num_domains();
  return s;
}

}  // namespace smore
