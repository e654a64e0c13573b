#pragma once
// Telemetry: the process hub bundling one MetricsRegistry, one Tracer, and
// one EventLog behind a shared_ptr (DESIGN.md §14).
//
// Every serving-layer config (ServerConfig, MultiTenantConfig,
// RegistryConfig) carries a `std::shared_ptr<obs::Telemetry>`; passing the
// SAME hub to the router and its registry gives one unified export surface
// (fleet_top, Prometheus). A null pointer means "private hub": the component
// builds its own, so stats views always work and unit tests never collide on
// metric names.
//
// Cost model: everything records, always. Counters back the public stats
// structs and cost one relaxed fetch_add; histograms, trace spans and
// events are the rest. Their cost is part of every served latency the
// benchmark reports, and its traced run prices full-rate tracing as
// obs.trace_overhead_frac (perfbench/README.md). TracerConfig sets how
// often a span is kept, not whether one is cut.

#include <memory>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace smore::obs {

struct TelemetryConfig {
  TracerConfig trace;
  std::size_t event_capacity = 1024;
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {});

  static std::shared_ptr<Telemetry> make(TelemetryConfig config = {}) {
    return std::make_shared<Telemetry>(config);
  }

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }
  [[nodiscard]] EventLog& events() noexcept { return events_; }
  [[nodiscard]] const EventLog& events() const noexcept { return events_; }

  /// Append one event to the log — the call sites' one-liner.
  void emit(EventType type, std::string_view scope, std::string_view reason,
            std::int64_t value = 0) noexcept {
    events_.emit(type, scope, reason, value);
  }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
  EventLog events_;
};

}  // namespace smore::obs
