#pragma once
// MultiTenantServer: the serving plane — tenant routing, per-shard worker
// groups, and fair admission control over the ModelRegistry (DESIGN.md §9,
// §12).
//
// This is the ONE serving plane. A single-model deployment is a fleet of one
// tenant: InferenceServer (serve/server.hpp) is a thin façade that boots a
// one-tenant registry and forwards to this class. Many tenants, each with its
// own model, share one machine; three mechanisms make that safe:
//
//   * tenant → shard routing — a request is hashed by tenant id onto one of
//     `num_shards` shards. A shard is a thread slice that owns its own
//     bounded request queue and worker group, so tenants on different shards
//     never contend on a queue lock, and all of one tenant's traffic lands
//     where its batches can coalesce;
//   * per-tenant micro-batches — batches cannot mix tenants (each tenant has
//     its own model), so shard workers stage arrivals into per-tenant
//     pending groups and run ONE predict_batch_full per tenant-batch against
//     that tenant's pinned snapshot. Formation is work-conserving: an idle
//     worker blocks for the first arrival and takes whatever queued with it,
//     a busy one tops up without sleeping, and nothing waits for stragglers.
//     The batch pins the TenantModel: a registry eviction mid-batch cannot
//     free the model under the kernel;
//   * tenant-fair admission + drain — try_submit enforces a per-tenant
//     in-flight quota (admission control: a Zipf-head tenant that floods the
//     shard is shed with kShedTenantQuota while the tail is still admitted)
//     and workers drain pending tenant groups round-robin (one batch per
//     tenant per turn — service fairness: the head cannot starve the tail
//     inside the queue either). Round-robin is the only drain policy.
//
// Model residency (lazy load, single-flight, LRU under a byte budget) is the
// registry's job; the router only acquires. An artifact that fails to load
// fails THE REQUESTS that needed it — the returned future carries the
// loader's exception, per-request, never process-wide.
//
// A request is a pre-encoded hypervector or a raw Window. Windows are
// encoded inside the batch with the encoder carried by the tenant's pinned
// snapshot (the encoder travels inside the artifact): one encode_batch per
// window shape, so the per-window basis setup amortizes across the batch.
// With MultiTenantConfig::adaptation on, each tenant's OOD traffic drives
// its own bounded domain lifecycle (DESIGN.md §13) — flat per-tenant memory
// no matter how long its drift history runs. Shutdown is graceful and
// total: queues close, workers drain every pending group across all shards,
// every future is fulfilled, and late submits resolve immediately with
// kShuttingDown.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>  // std::once_flag only; locks go through util/mutex.hpp
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/domain_lifecycle.hpp"
#include "data/timeseries.hpp"
#include "hdc/hv_matrix.hpp"
#include "serve/adaptation.hpp"
#include "serve/registry.hpp"
#include "serve/status.hpp"
#include "serve/telemetry.hpp"
#include "util/annotations.hpp"
#include "util/latency.hpp"
#include "util/mpmc_queue.hpp"
#include "util/mutex.hpp"

namespace smore {

/// Fleet-serving knobs. max_batch caps how much queued work one kernel pass
/// fuses (batches are work-conserving, never timed); the rest is the shard
/// layout, the tenant quota, and the adaptation worker.
struct MultiTenantConfig {
  std::size_t num_shards = 1;        ///< independent queue+worker slices
  std::size_t workers_per_shard = 1; ///< batching workers per shard
  std::size_t max_batch = 64;        ///< per-tenant micro-batch cap
  std::size_t shard_queue_capacity = 1024;  ///< per-shard request bound

  /// Max in-flight requests per tenant before try_submit sheds with
  /// kShedTenantQuota (0 = unbounded). Blocking submit() bypasses the
  /// quota — backpressure already slows that producer down.
  std::size_t tenant_inflight_quota = 256;

  /// Per-tenant online adaptation: shard workers feed each tenant's OOD
  /// traffic into that tenant's own bounded side buffer, and ONE shared
  /// adaptation worker sweeps ready tenants, runs a bounded lifecycle round
  /// (DESIGN.md §13) on the tenant's clone, and republishes that tenant's
  /// generation. Always lifecycle-bounded:
  /// a fleet tenant's model size is a function of lifecycle_config, never
  /// of its traffic history. Cold (evicted) tenants are never reloaded just
  /// to adapt them — their buffered rounds are shed and counted.
  bool adaptation = false;
  std::size_t adapt_min_batch = 64;         ///< OOD windows per tenant round
  std::size_t adapt_buffer_capacity = 512;  ///< per-tenant side-buffer bound
  std::uint32_t adapt_poll_ms = 2;          ///< adaptation sweep cadence
  LifecycleConfig lifecycle_config;         ///< bounded lifecycle knobs

  /// Telemetry hub (DESIGN.md §14): every fleet counter/histogram lives in
  /// its MetricsRegistry, requests cut trace spans, and shed / publish /
  /// lifecycle occurrences emit events. Pass the SAME hub as
  /// RegistryConfig::telemetry for one unified export surface (fleet_top
  /// sees residency AND traffic); null means a private hub.
  std::shared_ptr<obs::Telemetry> telemetry;
};

/// Per-tenant counters + latency histograms. Slots are created on first
/// submit and never dropped — stats survive model eviction, so a tenant's
/// history spans its cold/warm cycles. A VIEW over the telemetry registry's
/// {tenant=...} series.
struct TenantServerStats {
  std::string tenant;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_tenant_quota = 0;
  std::uint64_t load_failures = 0;  ///< requests failed by artifact loads
  std::uint64_t ood_flagged = 0;
  std::uint64_t inflight = 0;  ///< gauge at the time of the stats call
  std::uint64_t adaptation_rounds = 0;   ///< generations this tenant published
  std::uint64_t adaptation_absorbed = 0; ///< OOD windows absorbed
  std::uint64_t adaptation_dropped = 0;  ///< OOD windows shed (all causes)
  std::uint64_t adaptation_overflow = 0; ///< …of which: side-buffer overflow
  std::uint64_t adaptation_merged = 0;   ///< lifecycle: clusters merged
  std::uint64_t adaptation_evicted = 0;  ///< lifecycle: domains evicted
  /// Histogram COPIES (mergeable): queue_wait is submit → batch start,
  /// service is batch start → fulfillment, latency is the end-to-end sum
  /// per request. Tail-tenant cohorts merge from these.
  LatencyHistogram queue_wait;
  LatencyHistogram service;
  LatencyHistogram latency;
};

/// Aggregate counters + the registry's residency stats.
struct MultiTenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  ///< all sheds + late submits
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_tenant_quota = 0;
  std::uint64_t load_failures = 0;
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_rows = 0;
  std::uint64_t ood_flagged = 0;
  std::uint64_t tenants_seen = 0;  ///< tenant slots ever created
  std::uint64_t adaptation_rounds = 0;   ///< tenant generations published
  std::uint64_t adaptation_absorbed = 0;
  std::uint64_t adaptation_dropped = 0;
  std::uint64_t adaptation_overflow = 0;
  std::uint64_t adaptation_merged = 0;   ///< lifecycle: clusters merged
  std::uint64_t adaptation_evicted = 0;  ///< lifecycle: domains evicted
  double mean_batch_fill = 0.0;
  LatencySummary latency;  ///< submit → fulfill, all tenants merged
  RegistryStats registry;
};

/// The fleet router. Construction spawns all shard workers; destruction (or
/// shutdown()) drains and joins them.
class MultiTenantServer {
 public:
  /// `registry` must be non-null (shared: benches/operators keep a handle
  /// for evict/publish). Throws std::invalid_argument otherwise.
  explicit MultiTenantServer(std::shared_ptr<ModelRegistry> registry,
                             MultiTenantConfig config = {});
  ~MultiTenantServer();

  MultiTenantServer(const MultiTenantServer&) = delete;
  MultiTenantServer& operator=(const MultiTenantServer&) = delete;

  /// Submit one encoded query for `tenant`; blocks on a full shard queue
  /// (backpressure). A cold tenant triggers the (single-flight) artifact
  /// load on THIS call. Load failure returns a future carrying the loader's
  /// exception; dimension mismatch throws std::invalid_argument; after
  /// shutdown() the future is already fulfilled with kShuttingDown.
  std::future<ServeResult> submit(const std::string& tenant,
                                  std::vector<float> hv);

  /// Submit one raw multi-sensor window for `tenant`, encoded inside the
  /// micro-batch by the encoder of the tenant's snapshot (one encode_batch
  /// per window shape, not per request). Throws std::logic_error when the
  /// tenant's snapshot carries no encoder; otherwise as submit(hv).
  std::future<ServeResult> submit(const std::string& tenant, Window window);

  /// Non-blocking submit: sheds instead of waiting. std::nullopt on a full
  /// shard queue (kShedQueueFull), an exhausted tenant quota
  /// (kShedTenantQuota), or after shutdown (kShuttingDown) —
  /// the reason lands in `*shed_reason` when non-null. A failed artifact
  /// load still returns a future (carrying the exception): the request was
  /// admitted, the tenant is broken — those are different signals.
  std::optional<std::future<ServeResult>> try_submit(
      const std::string& tenant, std::vector<float> hv,
      ServeStatus* shed_reason = nullptr);

  [[nodiscard]] const MultiTenantConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] ModelRegistry& registry() noexcept { return *registry_; }

  /// Graceful shutdown: close every shard queue, drain every pending tenant
  /// group, fulfill every future, join all workers. Idempotent; the
  /// destructor calls it.
  void shutdown();

  [[nodiscard]] MultiTenantStats stats() const;
  /// Per-tenant stats (histogram copies), sorted by tenant id.
  [[nodiscard]] std::vector<TenantServerStats> tenant_stats() const;

  /// The telemetry hub this fleet reports into (never null — private when
  /// the config left it unset). Exporters (obs/export.hpp) read it.
  [[nodiscard]] const std::shared_ptr<obs::Telemetry>& telemetry()
      const noexcept {
    return tel_->hub_ptr();
  }

  /// Write the JSON telemetry snapshot to `path` atomically (tmp + rename):
  /// the file fleet_top reads.
  bool write_telemetry(const std::string& path) const;

 private:
  /// Persistent per-tenant bookkeeping (never evicted; see
  /// TenantServerStats). Counters and histograms live in the telemetry
  /// registry ({tenant=...} series, handles bundled in `tel`); only the
  /// in-flight quota gauge and the adaptation side state are slot-local.
  struct TenantSlot {
    TenantSlot(std::string name, TenantTelemetry telemetry)
        : tenant(std::move(name)), tel(telemetry) {}
    const std::string tenant;
    const TenantTelemetry tel;  // handles stay valid for the hub's lifetime
    std::atomic<std::uint64_t> inflight{0};
    // This tenant's OOD side buffer + per-domain usage credit since its last
    // adaptation round (adaptation mode only; bounded by
    // adapt_buffer_capacity, overflow is counted and shed).
    Mutex adapt_m;
    std::vector<OodSample> ood_buffer SMORE_GUARDED_BY(adapt_m);
    std::map<int, double> usage SMORE_GUARDED_BY(adapt_m);
  };

  struct Request {
    std::shared_ptr<TenantSlot> slot;
    std::shared_ptr<TenantModel> model;  // pinned: eviction-safe
    std::vector<float> hv;         // encoded query (empty when window set)
    std::optional<Window> window;  // raw window, encoded in-batch
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point submit_time;
  };

  std::shared_ptr<TenantSlot> slot_of(const std::string& tenant);
  /// The tenant's shard queue (its traffic always lands on one shard).
  MpmcQueue<Request>& queue_of(const std::string& tenant);
  /// Shared submit path: admission, model pin, enqueue. Exactly one of `hv`
  /// (non-empty) and `window` carries the query.
  std::optional<std::future<ServeResult>> do_submit(
      const std::string& tenant, std::vector<float> hv,
      std::optional<Window> window, bool blocking, ServeStatus* shed_reason);
  void worker_loop(std::size_t shard_index, std::size_t worker_index);
  /// Run one tenant's micro-batch end to end.
  void process_batch(std::vector<Request>& batch, std::size_t worker_index);
  /// Encode the batch's window requests into their rows of `queries`. A
  /// shape group the encoder rejects marks only its own requests in
  /// `failed` (sized to the batch on first use).
  void encode_windows(std::vector<Request>& batch, HvMatrix& queries,
                      const ModelSnapshot& snap, const TenantSlot& slot,
                      std::vector<std::exception_ptr>& failed) const;
  /// Fail the requests marked in `failed` on their own promises and compact
  /// the survivors, with their rows of `queries`, to the front.
  void drop_failed(std::vector<Request>& batch, HvMatrix& queries,
                   const std::vector<std::exception_ptr>& failed,
                   TenantSlot& slot);
  /// The shared per-tenant adaptation sweep (one thread for the fleet).
  void adaptation_loop();
  /// One tenant's lifecycle round: clone → adapt → republish its generation.
  void run_tenant_round(TenantSlot& slot, std::vector<OodSample> round,
                        std::span<const std::pair<int, double>> usage);
  /// Every live slot (snapshot of the insert-only maps).
  [[nodiscard]] std::vector<std::shared_ptr<TenantSlot>> all_slots() const;

  MultiTenantConfig config_;
  std::shared_ptr<ModelRegistry> registry_;
  std::vector<std::unique_ptr<MpmcQueue<Request>>> queues_;  // per shard
  std::vector<std::thread> workers_;
  std::thread adaptation_thread_;
  Mutex adapt_wake_m_;
  CondVar adapt_cv_;
  bool adapt_stopping_ SMORE_GUARDED_BY(adapt_wake_m_) = false;

  // Tenant slots: sharded string → slot map, insert-only.
  static constexpr std::size_t kSlotShards = 16;
  struct SlotShard {
    Mutex m;
    std::unordered_map<std::string, std::shared_ptr<TenantSlot>> map
        SMORE_GUARDED_BY(m);
  };
  std::vector<std::unique_ptr<SlotShard>> slot_shards_;

  // Fleet-plane counters/histograms live in the telemetry hub ({plane=fleet}
  // series); stats() reads the same handles the hot path bumps.
  std::unique_ptr<ServeTelemetry> tel_;
  obs::Counter* tenants_seen_ = nullptr;  // slots ever created

  std::atomic<bool> shut_down_{false};
  std::once_flag shutdown_once_;
};

}  // namespace smore
