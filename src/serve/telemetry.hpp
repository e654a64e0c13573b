#pragma once
// ServeTelemetry: the serving plane's metric vocabulary and its ONE
// accounting-before-fulfillment implementation (DESIGN.md §14).
//
// All externally observable accounting must land BEFORE any promise is
// fulfilled, so a submitter that returns from get() and immediately reads
// stats() sees its own request counted. That block lives here once, as
// record_batch(), which also cuts the per-request trace spans from the same
// four timestamps (so queue+encode+predict+fulfill == total exactly) and
// feeds the latency histograms. MultiTenantServer (serve/router.hpp) is the
// only caller; the one-tenant InferenceServer façade reports through it.
//
// Metric handles are created once at construction / slot creation — the hot
// path never touches the registry map. Every counter, histogram and span is
// recorded for every request; the tracer alone decides which spans it keeps.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/domain_lifecycle.hpp"
#include "obs/telemetry.hpp"
#include "serve/status.hpp"

namespace smore {

/// Per-tenant metric handle bundle ({tenant=...} label set). Created once
/// per tenant slot; raw pointers stay valid for the hub's lifetime.
struct TenantTelemetry {
  obs::Counter* submitted = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* shed_queue = nullptr;
  obs::Counter* shed_quota = nullptr;
  obs::Counter* load_failures = nullptr;
  obs::Counter* ood = nullptr;
  obs::Counter* adapt_rounds = nullptr;
  obs::Counter* adapt_absorbed = nullptr;
  obs::Counter* adapt_dropped = nullptr;
  obs::Counter* adapt_overflow = nullptr;
  obs::Counter* adapt_merged = nullptr;
  obs::Counter* adapt_evicted = nullptr;
  obs::Histogram* queue_wait = nullptr;  ///< submit → batch start
  obs::Histogram* service = nullptr;     ///< batch start → fulfill
  obs::Histogram* latency = nullptr;     ///< submit → fulfill
};

/// The serving plane's handle bundle over an obs::Telemetry hub. Every
/// plane-level series carries the label {plane="fleet"}; per-tenant series
/// carry {tenant=...} (tenant "" for an InferenceServer). A null hub means
/// "private hub": stats views always work and unit tests never collide on
/// names.
class ServeTelemetry {
 public:
  ServeTelemetry(std::shared_ptr<obs::Telemetry> hub,
                 std::size_t worker_stripes);

  [[nodiscard]] obs::Telemetry& hub() noexcept { return *hub_; }
  [[nodiscard]] const std::shared_ptr<obs::Telemetry>& hub_ptr()
      const noexcept {
    return hub_;
  }

  /// Get-or-create the {tenant=name} handle bundle (call at slot creation,
  /// not per request — registration takes the registry mutex).
  [[nodiscard]] TenantTelemetry tenant(const std::string& name);

  /// One refusal: plane rejected + per-reason shed counter, the tenant's
  /// mirror counters, and exactly one kShed event carrying the reason,
  /// scoped to `scope` (the tenant).
  void record_shed(ServeStatus reason, std::string_view scope,
                   const TenantTelemetry& tenant);

  /// One admitted request whose artifact load failed (counters only — the
  /// registry emits the load-failure event; it made the call).
  void record_load_failure(const TenantTelemetry& tenant);

  /// `n` buffered OOD windows that will never reach a lifecycle round:
  /// plane + tenant dropped counters and exactly one kAdaptationShed event
  /// carrying the reason.
  void record_adaptation_shed(std::string_view reason, std::string_view scope,
                              const TenantTelemetry& tenant, std::uint64_t n);

  /// One PUBLISHED lifecycle round — call only after the publish CAS won, so
  /// the event log never claims changes a lost race threw away: plane +
  /// tenant round counters, one kSnapshotPublish event for `version`, and
  /// one lifecycle event per merged / enrolled / evicted domain.
  void record_adaptation_round(std::string_view scope,
                               const TenantTelemetry& tenant,
                               std::uint64_t version,
                               const LifecycleRoundStats& round);

  /// The four batch phase boundaries. `encode_done == batch_start` for a
  /// batch of pre-encoded queries (the encode span reads 0).
  struct BatchTimes {
    std::chrono::steady_clock::time_point batch_start;
    std::chrono::steady_clock::time_point encode_done;
    std::chrono::steady_clock::time_point predict_done;
    std::chrono::steady_clock::time_point done;
  };

  /// THE accounting-before-fulfillment block: batch/row/completed/ood
  /// counters (plane + tenant), latency histograms, and one trace span per
  /// request — all from the caller's timestamps, all before the caller
  /// touches a promise. Spans are parallel over the
  /// batch: submit_times[i], ood_flags[i], labels[i] describe request i.
  void record_batch(const BatchTimes& t,
                    std::span<const std::chrono::steady_clock::time_point>
                        submit_times,
                    std::span<const std::uint8_t> ood_flags,
                    std::span<const int> labels,
                    std::uint64_t snapshot_version, std::uint32_t shard,
                    std::string_view tenant_name,
                    const TenantTelemetry& tenant);

  // Plane-level handles ({plane="fleet"}), public so stats() can read them
  // back.
  obs::Counter* submitted = nullptr;
  obs::Counter* rejected = nullptr;  ///< all refusals (every shed reason)
  obs::Counter* shed_queue_full = nullptr;
  obs::Counter* shed_quota = nullptr;
  obs::Counter* shed_shutdown = nullptr;
  obs::Counter* load_failures = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* batches = nullptr;
  obs::Counter* batched_rows = nullptr;
  obs::Counter* ood_flagged = nullptr;
  obs::Counter* adapt_rounds = nullptr;
  obs::Counter* adapt_absorbed = nullptr;
  obs::Counter* adapt_dropped = nullptr;
  obs::Counter* adapt_overflow = nullptr;
  obs::Counter* adapt_merged = nullptr;
  obs::Counter* adapt_evicted = nullptr;
  obs::Histogram* latency = nullptr;  ///< submit → fulfill, plane-wide

 private:
  std::shared_ptr<obs::Telemetry> hub_;
};

}  // namespace smore
