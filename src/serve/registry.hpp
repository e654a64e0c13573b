#pragma once
// ModelRegistry: the multi-tenant model plane (DESIGN.md §12).
//
// A fleet server hosts MANY tenants — each with its own deployable Pipeline
// artifact — but only a budgeted subset fits in memory. The registry owns
// the residency policy so the router (serve/router.hpp) never has to:
//
//   * lazy loading — a tenant's artifact is opened on its FIRST request,
//     not at boot; a fleet of thousands of mostly-idle tenants costs only
//     what its working set costs;
//   * single-flight warm-load — a thundering herd on a cold tenant runs ONE
//     artifact deserialization; every concurrent request joins that flight
//     (util/sharded_lru.hpp). A load FAILURE (missing file, corrupt
//     artifact) is delivered to the requests of that flight and NOT cached:
//     the tenant stays cold and a later request retries, so a bad deploy of
//     one tenant never poisons the registry;
//   * byte-budget LRU eviction — resident tenants are accounted by model
//     footprint; when a load would exceed the budget, the least-recently-
//     used tenants are dropped first. Eviction only drops the registry's
//     reference: a shard worker mid-batch holds its own shared_ptr and
//     finishes on the model it started with.
//
// Each resident tenant is a TenantModel: its own RCU swap point, so
// operators can publish a retrained generation for ONE tenant without
// touching the others.
// The budget accounts the boot footprint; published generations are assumed
// footprint-equivalent (same artifact, retrained weights). Note the
// eviction/publish race: a publish targets the CURRENTLY resident
// TenantModel instance — if the tenant was evicted and reloaded in between,
// the publish lands on the dead instance and is lost. That is the documented
// cost of keeping the hot path lock-free; operators re-publish after a
// deploy, they do not fire-and-forget across evictions.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "obs/telemetry.hpp"
#include "serve/snapshot.hpp"
#include "util/sharded_lru.hpp"

namespace smore {

/// Registry knobs. The byte budget is the whole policy: it bounds the sum of
/// resident model footprints (float model + packed model + encoder state as
/// materialized at load time), NOT process RSS — transient load buffers and
/// per-request state live outside. Encoder bases are lazily reconstructed
/// from (config, seed): a tenant that encodes raw windows after loading
/// grows its basis outside this budget (hv-submitting data planes never do),
/// so size the budget with headroom when serving raw windows per tenant.
struct RegistryConfig {
  /// Eviction threshold over resident model footprints. One tenant larger
  /// than the whole budget is still admitted (alone) — see ShardedLruCache.
  std::size_t byte_budget = std::numeric_limits<std::size_t>::max();
  std::size_t cache_shards = 8;  ///< lock shards of the residency cache
  /// Telemetry hub (DESIGN.md §14): residency metrics register here and
  /// load / evict / publish occurrences emit events. Pass the SAME hub as
  /// MultiTenantConfig::telemetry for one unified export surface; null means
  /// a private hub. One registry per hub (metrics are keyed by name only).
  std::shared_ptr<obs::Telemetry> telemetry;
};

/// Registry counters/gauges (the fleet-operations dashboard payload).
struct RegistryStats {
  std::uint64_t hits = 0;           ///< acquire() served by a resident model
  std::uint64_t misses = 0;         ///< acquire() that started a load
  std::uint64_t loads = 0;          ///< artifact loads completed
  std::uint64_t load_failures = 0;  ///< loads that threw (never cached)
  std::uint64_t evictions = 0;      ///< tenants dropped by the byte budget
  std::uint64_t single_flight_waits = 0;  ///< acquires that joined a flight
  std::size_t resident_tenants = 0;
  std::size_t resident_bytes = 0;
  std::size_t peak_resident_bytes = 0;
  std::size_t byte_budget = 0;
};

/// One resident tenant: the swap point between its serving workers and its
/// publishers (RCU over ModelSnapshot generations). Handed out as a
/// shared_ptr so in-flight work pins it across eviction.
class TenantModel {
 public:
  /// Throws std::invalid_argument when `boot` is null or lacks a model or a
  /// backend, or carries an encoder whose dimension is not the model's.
  TenantModel(std::string tenant, std::shared_ptr<const ModelSnapshot> boot);

  [[nodiscard]] const std::string& tenant() const noexcept { return tenant_; }

  /// The tenant's live snapshot (never null). Lock-free: one atomic
  /// shared_ptr load; readers never lock.
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> snapshot() const {
    return current_.load(std::memory_order_acquire);
  }

  /// Atomically replace the live snapshot IF `snap` is a newer generation
  /// (e.g. a retrain push or an adaptation round). Readers that already
  /// loaded the old generation finish on it; new loads see the new one.
  /// Returns false (and installs nothing) when the live version is already
  /// >= snap->version — a compare-and-swap loop, so two concurrent
  /// publishers cannot lose the newer one or regress the version. Throws
  /// std::invalid_argument when `snap` fails the boot checks or does not
  /// match the boot dimension.
  bool publish(std::shared_ptr<const ModelSnapshot> snap);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

 private:
  std::string tenant_;
  std::size_t dim_ = 0;
  std::atomic<std::shared_ptr<const ModelSnapshot>> current_;
};

/// Resident-memory cost of a snapshot: what the registry budget accounts.
[[nodiscard]] std::size_t snapshot_resident_bytes(const ModelSnapshot& snap);

/// The tenant → model map with lazy load, single-flight, and budgeted LRU.
class ModelRegistry {
 public:
  /// Opens one tenant's artifact by name and builds its boot snapshot. Run
  /// outside all registry locks (it deserializes a whole model); may throw —
  /// the exception surfaces to every request of that load's flight.
  using ArtifactOpener =
      std::function<std::shared_ptr<const ModelSnapshot>(const std::string&)>;

  /// Throws std::invalid_argument when `opener` is empty.
  explicit ModelRegistry(ArtifactOpener opener, RegistryConfig config = {});
  /// Unregisters this registry's callback metrics from the hub.
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The standard opener: tenant `t` lives at `<dir>/<t>.smore`. The file is
  /// probed first (Pipeline::probe — header/section-table validation with no
  /// payload allocation), then deserialized via ModelSnapshot::from_artifact
  /// with boot version 1.
  static ArtifactOpener directory_source(std::string dir);

  /// The resident tenant, loading its artifact (single-flight) when cold.
  /// Never null; throws what the opener threw when the load fails (the
  /// tenant stays cold — a later acquire retries).
  std::shared_ptr<TenantModel> acquire(const std::string& tenant);

  /// The resident tenant without loading; nullptr when cold or mid-load.
  [[nodiscard]] std::shared_ptr<TenantModel> resident(
      const std::string& tenant);

  /// Publish a new generation to a RESIDENT tenant. Returns false when the
  /// tenant is cold (nothing to publish onto — load-then-publish instead)
  /// or when the live generation is already newer.
  bool publish(const std::string& tenant,
               std::shared_ptr<const ModelSnapshot> snap);

  /// Drop a resident tenant (deploy rollback, manual unload). In-flight
  /// batches finish on their pinned model; the next acquire reloads.
  bool evict(const std::string& tenant);

  [[nodiscard]] const RegistryConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] RegistryStats stats() const;

  /// The hub this registry reports into (never null — private when the
  /// config left it unset).
  [[nodiscard]] const std::shared_ptr<obs::Telemetry>& telemetry()
      const noexcept {
    return tel_;
  }

 private:
  RegistryConfig config_;
  ArtifactOpener opener_;
  std::shared_ptr<obs::Telemetry> tel_;
  ShardedLruCache<TenantModel> cache_;
};

}  // namespace smore
