#pragma once
// DomainLifecycle: bounded continual adaptation (DESIGN.md §13).
//
// The serving stack enrolls OOD traffic as new pseudo-domains (the paper's
// Fig. 2 "Model Update" box), but enrollment alone grows the bank — and the
// O(K) per-query ensemble cost — linearly with stream length. This layer
// makes long-running adaptation O(1) in steady state by running every
// adaptation round through a fixed state machine:
//
//   enroll → cluster → merge → decay → evict
//
//   cluster  split the round's OOD buffer into k coherent pseudo-domains
//            (hdc/cluster.hpp) instead of one smeared blob;
//   merge    a cluster whose centroid is ≥ merge_threshold cosine-similar to
//            an existing UNPROTECTED descriptor bundles INTO it (wide
//            counters keep the repeated bundling lossless) — recurring drift
//            re-uses the pseudo-domain it enrolled, while the operator's
//            source domains are never polluted with pseudo-labeled traffic;
//   enroll   everything else becomes a new pseudo-domain at a fresh id;
//   decay    usage scores forget exponentially, so eviction ranks recent
//            traffic above history;
//   evict    while K > max_domains, drop the least-used / oldest descriptor
//            AND its class bank together (SmoreModel::remove_domain).
//
// The engine is deliberately a pure model-to-model transformation: it knows
// nothing about threads, snapshots, or servers. The serving plane clones the
// live model, runs one round, and publishes the result (serve/router.cpp,
// via serve/adaptation.hpp), so readers never observe intermediate states.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/smore.hpp"
#include "hdc/cluster.hpp"
#include "hdc/hv_matrix.hpp"

namespace smore {

/// Lifecycle policy knobs.
struct LifecycleConfig {
  /// Hard cap on K: after every round, descriptors beyond this are evicted
  /// (least-used first). The knob that makes serving cost O(1).
  std::size_t max_domains = 16;
  /// Bundle a cluster into an existing domain when its centroid's cosine to
  /// that descriptor reaches this; below it, enroll a new domain. In the
  /// serve path every candidate arrives through the OOD gate, so its best
  /// similarity is < δ* by construction — the threshold must sit BELOW the
  /// model's delta_star (default 0.65) or merging is unreachable and
  /// recurring drift re-enrolls forever. The merge band is
  /// [merge_threshold, δ*): too far to serve, close enough to be a known
  /// regime.
  double merge_threshold = 0.50;
  /// Per-round multiplier on every usage score (exponential forgetting).
  double usage_decay = 0.98;
  /// The first N bank positions are never evicted AND never merged into
  /// (typically the source domains the model was trained on — their class
  /// banks hold ground-truth labels, which pseudo-labeled merges would
  /// poison). Must leave at least one evictable position for the cap to be
  /// enforceable past N+1 enrolled domains.
  std::size_t protected_domains = 0;
  /// Round clustering (see hdc/cluster.hpp).
  ClusterConfig cluster;
};

/// What one lifecycle round did (serving stats, bench output, and the
/// telemetry event log — each id below becomes one lifecycle event when the
/// round's generation is published).
struct LifecycleRoundStats {
  std::size_t clusters = 0;      ///< coherent groups found in the round
  std::size_t enrolled_new = 0;  ///< clusters enrolled as new domains
  std::size_t merged = 0;        ///< clusters bundled into existing domains
  std::size_t evicted = 0;       ///< domains dropped by the cap
  std::size_t absorbed = 0;      ///< samples absorbed (all of them)
  std::vector<int> merged_ids;   ///< target domain id per merged cluster
  std::vector<int> enrolled_ids; ///< fresh domain id per enrolled cluster
  std::vector<int> evicted_ids;  ///< ids of the dropped domains
};

/// The lifecycle engine. Stateless between rounds beyond its config — all
/// durable state (usage, clocks, merge counts) lives in the model's
/// descriptor bank and serializes with it.
class DomainLifecycle {
 public:
  explicit DomainLifecycle(LifecycleConfig config) : config_(config) {}

  [[nodiscard]] const LifecycleConfig& config() const noexcept {
    return config_;
  }

  /// Run one adaptation round against `model` (must be trained; typically a
  /// clone of the live generation):
  ///   1. tick the bank clock, credit `usage` (id → served-query weight
  ///      since the last round), decay all usage scores;
  ///   2. cluster `samples` (one pseudo-label per row, parallel spans);
  ///   3. merge or enroll each cluster (every sample is absorbed — labeled
  ///      updates into the domain model, bundle into the descriptor);
  ///   4. evict down to max_domains.
  /// Throws std::invalid_argument on samples/labels size mismatch,
  /// std::logic_error on an untrained model.
  LifecycleRoundStats run_round(
      SmoreModel& model, HvView samples, std::span<const int> pseudo_labels,
      std::span<const std::pair<int, double>> usage = {});

 private:
  LifecycleConfig config_;
};

}  // namespace smore
