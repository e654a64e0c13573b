#pragma once
// InferenceServer: one model served to many clients (DESIGN.md §9).
//
// A thin façade over the one serving plane, MultiTenantServer
// (serve/router.hpp): a single-model deployment is a fleet of one tenant.
// The façade boots a private one-tenant ModelRegistry whose opener hands
// over the boot snapshot, and forwards every call to a fleet with one shard
// of `num_workers` work-conserving batching workers and no tenant quota.
// Producers submit one encoded hypervector or one raw Window (encoded inside
// the batch by the live snapshot's encoder) and get a
// std::future<ServeResult>; submit() blocks on a full queue, try_submit()
// sheds. With `adaptation` on, OOD queries feed the bounded domain
// lifecycle (DESIGN.md §13), which publishes generations beside live
// traffic. Shutdown drains every in-flight request and fulfills every
// future.

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "core/domain_lifecycle.hpp"
#include "data/timeseries.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/snapshot.hpp"
#include "serve/status.hpp"

namespace smore {

class Pipeline;

/// Serving runtime knobs. The one scheduler knob, max_batch, caps how much
/// queued work one kernel pass fuses; there is no batch-formation timer
/// (the queue's pop is work-conserving, util/mpmc_queue.hpp). Which
/// representation answers queries is NOT a server knob: every snapshot
/// carries its own InferenceBackend (packed when quantized, float
/// otherwise) and the server just calls it.
struct ServerConfig {
  std::size_t max_batch = 64;        ///< coalesce at most this many requests
  std::size_t num_workers = 1;       ///< batching worker threads
  std::size_t queue_capacity = 1024; ///< request bound (backpressure point)

  /// Online adaptation: rounds of OOD queries run the bounded domain
  /// lifecycle (DESIGN.md §13), capped at lifecycle_config.max_domains.
  bool adaptation = false;
  std::size_t adapt_min_batch = 64;  ///< OOD windows per adaptation round
  std::size_t adapt_buffer_capacity = 1024;  ///< OOD side-buffer bound
  std::uint32_t adapt_poll_ms = 2;   ///< adaptation worker wake cadence
  LifecycleConfig lifecycle_config;  ///< bounded lifecycle knobs

  /// Telemetry hub (DESIGN.md §14), shared by the façade's registry and
  /// fleet ({plane="fleet"} and {tenant=""} series, trace spans, events).
  /// Null means a private hub — stats() always works and unit tests never
  /// collide on metric names. One façade per hub (registry metrics are
  /// keyed by name).
  std::shared_ptr<obs::Telemetry> telemetry;
};

/// The stats endpoint payload: the fleet's counters and latency
/// percentiles (a view over the telemetry hub, so stats() and the exporters
/// can never disagree) plus the live snapshot.
struct ServerStats : MultiTenantStats {
  std::uint64_t snapshot_version = 0;  ///< live generation id
  std::size_t live_domains = 0;        ///< K of the live snapshot
};

/// The single-model serving runtime. Construction spawns the worker
/// threads; destruction (or shutdown()) drains and joins them.
class InferenceServer {
 public:
  /// `boot` is the initial snapshot: non-null, with a backend that answers
  /// queries. Raw-window submission uses the snapshot's encoder (set when
  /// booted from a Pipeline, or passed to ModelSnapshot::make); without one,
  /// every request must be pre-encoded and submit(Window) throws
  /// std::logic_error. Throws std::invalid_argument on a null or
  /// inconsistent snapshot.
  explicit InferenceServer(std::shared_ptr<const ModelSnapshot> boot,
                           ServerConfig config = {});

  /// Boot straight from a deployable Pipeline: snapshot version
  /// `boot_version`, the pipeline's packed backend when quantized, and the
  /// pipeline's encoder (shared) for raw-window submission.
  explicit InferenceServer(const Pipeline& pipeline, ServerConfig config = {},
                           std::uint64_t boot_version = 1);
  /// Shuts down, then unregisters the snapshot gauges from the hub.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Submit one encoded hypervector; blocks while the queue is full
  /// (backpressure). Throws std::invalid_argument on dimension mismatch.
  /// After shutdown() it never blocks or throws: the returned future is
  /// already fulfilled with ServeStatus::kShuttingDown.
  std::future<ServeResult> submit(std::vector<float> hv);

  /// Submit one raw multi-sensor window, encoded inside the micro-batch by
  /// the snapshot's encoder (one encode_batch per batch, not per request).
  std::future<ServeResult> submit(Window window);

  /// Non-blocking submit: returns std::nullopt (and counts a rejection)
  /// instead of waiting when the queue is full — the load-shedding policy.
  /// When `shed_reason` is non-null it reports why a request was refused
  /// (kShedQueueFull vs kShuttingDown); untouched on acceptance.
  std::optional<std::future<ServeResult>> try_submit(
      std::vector<float> hv, ServeStatus* shed_reason = nullptr);

  /// Atomically swap the serving model. The snapshot must match the boot
  /// model's dimension (std::invalid_argument otherwise, and on null); in-
  /// flight batches finish on the generation they started with. Returns
  /// false when the live generation is already >= snap->version (the stale
  /// publisher loses; see TenantModel::publish).
  bool publish(std::shared_ptr<const ModelSnapshot> snap);

  /// The live snapshot (never null).
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> snapshot() const {
    return model_->snapshot();
  }

  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t dim() const noexcept { return model_->dim(); }

  /// Graceful shutdown: stop accepting, drain every queued request, fulfill
  /// every future, join all threads. Idempotent; the destructor calls it.
  void shutdown();

  /// Counters and latency percentiles since construction.
  [[nodiscard]] ServerStats stats() const;

  /// The telemetry hub this server reports into (never null — made at
  /// construction when the config left it unset). Exporters read it.
  [[nodiscard]] const std::shared_ptr<obs::Telemetry>& telemetry()
      const noexcept {
    return config_.telemetry;
  }

 private:
  ServerConfig config_;
  std::shared_ptr<ModelRegistry> registry_;
  std::shared_ptr<TenantModel> model_;  // the one tenant, pinned
  std::unique_ptr<MultiTenantServer> fleet_;
};

}  // namespace smore
