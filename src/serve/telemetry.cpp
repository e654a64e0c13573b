#include "serve/telemetry.hpp"

#include <utility>

#include "hdc/dispatch.hpp"

namespace smore {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

}  // namespace

ServeTelemetry::ServeTelemetry(std::shared_ptr<obs::Telemetry> hub,
                               std::size_t worker_stripes)
    : hub_(hub != nullptr ? std::move(hub) : obs::Telemetry::make()) {
  obs::MetricsRegistry& m = hub_->metrics();
  const obs::Labels p{{"plane", "fleet"}};
  submitted = m.counter("smore_requests_submitted_total", p);
  rejected = m.counter("smore_requests_rejected_total", p);
  const auto shed = [&](const char* reason) {
    return m.counter("smore_requests_shed_total",
                     {{"plane", "fleet"}, {"reason", reason}});
  };
  shed_queue_full = shed("queue-full");
  shed_quota = shed("tenant-quota");
  shed_shutdown = shed("shutting-down");
  load_failures = m.counter("smore_load_failures_total", p);
  completed = m.counter("smore_requests_completed_total", p);
  batches = m.counter("smore_batches_total", p);
  batched_rows = m.counter("smore_batched_rows_total", p);
  ood_flagged = m.counter("smore_ood_flagged_total", p);
  adapt_rounds = m.counter("smore_adaptation_rounds_total", p);
  adapt_absorbed = m.counter("smore_adaptation_absorbed_total", p);
  adapt_dropped = m.counter("smore_adaptation_dropped_total", p);
  adapt_overflow = m.counter("smore_adaptation_overflow_total", p);
  adapt_merged = m.counter("smore_adaptation_merged_total", p);
  adapt_evicted = m.counter("smore_adaptation_evicted_total", p);
  latency = m.histogram("smore_request_latency_seconds", p,
                        worker_stripes > 0 ? worker_stripes : 1);
  // Info-style gauge: which kernel tier this process dispatches to — the
  // "backend/kernel tier" fleet dimension, constant 1 with the tier as a
  // label (the Prometheus info-metric idiom).
  m.gauge("smore_kernel_tier_info",
          {{"plane", "fleet"},
           {"tier", kern::tier_name(kern::dispatch().tier)}})
      ->set(1.0);
}

TenantTelemetry ServeTelemetry::tenant(const std::string& name) {
  obs::MetricsRegistry& m = hub_->metrics();
  const obs::Labels l{{"tenant", name}};
  TenantTelemetry t;
  t.submitted = m.counter("smore_tenant_submitted_total", l);
  t.completed = m.counter("smore_tenant_completed_total", l);
  t.shed_queue = m.counter("smore_tenant_shed_total",
                           {{"tenant", name}, {"reason", "queue-full"}});
  t.shed_quota = m.counter("smore_tenant_shed_total",
                           {{"tenant", name}, {"reason", "tenant-quota"}});
  t.load_failures = m.counter("smore_tenant_load_failures_total", l);
  t.ood = m.counter("smore_tenant_ood_flagged_total", l);
  t.adapt_rounds = m.counter("smore_tenant_adaptation_rounds_total", l);
  t.adapt_absorbed = m.counter("smore_tenant_adaptation_absorbed_total", l);
  t.adapt_dropped = m.counter("smore_tenant_adaptation_dropped_total", l);
  t.adapt_overflow = m.counter("smore_tenant_adaptation_overflow_total", l);
  t.adapt_merged = m.counter("smore_tenant_adaptation_merged_total", l);
  t.adapt_evicted = m.counter("smore_tenant_adaptation_evicted_total", l);
  t.queue_wait = m.histogram("smore_tenant_queue_wait_seconds", l);
  t.service = m.histogram("smore_tenant_service_seconds", l);
  t.latency = m.histogram("smore_tenant_latency_seconds", l);
  return t;
}

void ServeTelemetry::record_shed(ServeStatus reason, std::string_view scope,
                                 const TenantTelemetry& tenant) {
  rejected->add(1);
  switch (reason) {
    case ServeStatus::kShedQueueFull:
      shed_queue_full->add(1);
      tenant.shed_queue->add(1);
      break;
    case ServeStatus::kShedTenantQuota:
      shed_quota->add(1);
      tenant.shed_quota->add(1);
      break;
    default: shed_shutdown->add(1); break;
  }
  hub_->emit(obs::EventType::kShed, scope, to_string(reason));
}

void ServeTelemetry::record_load_failure(const TenantTelemetry& tenant) {
  load_failures->add(1);
  tenant.load_failures->add(1);
}

void ServeTelemetry::record_adaptation_shed(std::string_view reason,
                                            std::string_view scope,
                                            const TenantTelemetry& tenant,
                                            std::uint64_t n) {
  adapt_dropped->add(n);
  tenant.adapt_dropped->add(n);
  hub_->emit(obs::EventType::kAdaptationShed, scope, reason,
             static_cast<std::int64_t>(n));
}

void ServeTelemetry::record_adaptation_round(std::string_view scope,
                                             const TenantTelemetry& tenant,
                                             std::uint64_t version,
                                             const LifecycleRoundStats& round) {
  adapt_rounds->add(1);
  tenant.adapt_rounds->add(1);
  adapt_absorbed->add(round.absorbed);
  tenant.adapt_absorbed->add(round.absorbed);
  adapt_merged->add(round.merged);
  tenant.adapt_merged->add(round.merged);
  adapt_evicted->add(round.evicted);
  tenant.adapt_evicted->add(round.evicted);
  hub_->emit(obs::EventType::kSnapshotPublish, scope, "adaptation",
             static_cast<std::int64_t>(version));
  for (const int id : round.merged_ids) {
    hub_->emit(obs::EventType::kLifecycleMerge, scope, "centroid-match", id);
  }
  for (const int id : round.enrolled_ids) {
    hub_->emit(obs::EventType::kLifecycleEnroll, scope, "novel-cluster", id);
  }
  for (const int id : round.evicted_ids) {
    hub_->emit(obs::EventType::kLifecycleEvict, scope, "domain-cap", id);
  }
}

void ServeTelemetry::record_batch(
    const BatchTimes& t,
    std::span<const std::chrono::steady_clock::time_point> submit_times,
    std::span<const std::uint8_t> ood_flags, std::span<const int> labels,
    std::uint64_t snapshot_version, std::uint32_t shard,
    std::string_view tenant_name, const TenantTelemetry& tenant) {
  const std::size_t n = submit_times.size();
  batches->add(1);
  batched_rows->add(n);
  completed->add(n);
  std::uint64_t flagged = 0;
  for (const std::uint8_t f : ood_flags) flagged += f != 0 ? 1 : 0;
  if (flagged != 0) ood_flagged->add(flagged);
  tenant.completed->add(n);
  if (flagged != 0) tenant.ood->add(flagged);

  const double service_s = seconds_between(t.batch_start, t.done);
  for (std::size_t i = 0; i < n; ++i) {
    const double queue_s = seconds_between(submit_times[i], t.batch_start);
    latency->record(queue_s + service_s);
    tenant.queue_wait->record(queue_s);
    tenant.service->record(service_s);
    tenant.latency->record(queue_s + service_s);

    obs::TraceSpan span;
    span.snapshot_version = snapshot_version;
    span.queue_ns = ns_between(submit_times[i], t.batch_start);
    span.encode_ns = ns_between(t.batch_start, t.encode_done);
    span.predict_ns = ns_between(t.encode_done, t.predict_done);
    span.fulfill_ns = ns_between(t.predict_done, t.done);
    span.total_ns =
        span.queue_ns + span.encode_ns + span.predict_ns + span.fulfill_ns;
    span.shard = shard;
    span.batch_rows = static_cast<std::uint32_t>(n);
    span.label = i < labels.size() ? labels[i] : -1;
    span.ood = i < ood_flags.size() ? ood_flags[i] : 0;
    span.set_tenant(tenant_name);
    hub_->tracer().record(span);
  }
}

}  // namespace smore
