#pragma once
// Per-request trace spans with always-on tail sampling (DESIGN.md §14).
//
// Every served request is timed at four boundaries — admission → batch start
// (queue wait) → encode done → predict done → fulfill — and those numbers
// feed the latency histograms unconditionally. Full span detail is KEPT for
// (a) every 1-in-sample_every request and (b) every request slower than
// slow_threshold_seconds. Sampled spans and slow spans live in separate
// bounded rings so a flood of fast traffic wrapping the sampled ring cannot
// evict the slow tail — the whole point of tail sampling is that the worst
// requests survive.
//
// The spans of one request are cut from the same four timestamps, so
// queue+encode+predict+fulfill == total exactly (tests assert ≥99% to allow
// ns rounding). A span is a flat POD (fixed-size tenant field, no heap) so
// the rings stay lock-free.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "obs/ring.hpp"

namespace smore::obs {

/// One fully-detailed request record. Times are nanoseconds; total_ns is
/// end-to-end (submit → fulfill) and equals the four phase spans summed.
struct TraceSpan {
  std::uint64_t id = 0;                ///< monotone per tracer
  std::uint64_t snapshot_version = 0;  ///< model generation that served it
  std::uint64_t queue_ns = 0;          ///< submit → batch start
  std::uint64_t encode_ns = 0;         ///< batch start → encode done (0 when
                                       ///< the batch is all pre-encoded HVs)
  std::uint64_t predict_ns = 0;        ///< encode done → predict done
  std::uint64_t fulfill_ns = 0;        ///< predict done → accounting/fulfill
  std::uint64_t total_ns = 0;
  std::uint32_t shard = 0;
  std::uint32_t batch_rows = 0;  ///< size of the batch it rode in
  std::int32_t label = -1;       ///< predicted class
  std::uint8_t ood = 0;
  std::uint8_t slow = 0;  ///< kept because it crossed the slow threshold
  std::uint8_t sampled = 0;
  std::uint8_t pad_ = 0;
  char tenant[24] = {};  ///< "" for a one-tenant InferenceServer

  void set_tenant(std::string_view t) noexcept {
    const std::size_t n = t.size() < sizeof(tenant) - 1
                              ? t.size()
                              : sizeof(tenant) - 1;
    // An empty view may carry a null data(): memcpy from null is UB even
    // for zero bytes.
    if (n != 0) std::memcpy(tenant, t.data(), n);
    tenant[n] = '\0';
  }
};

struct TracerConfig {
  std::size_t ring_capacity = 1024;      ///< sampled spans kept
  std::size_t slow_ring_capacity = 256;  ///< slow spans kept
  std::uint32_t sample_every = 64;       ///< 1-in-N full-detail sampling
  double slow_threshold_seconds = 0.025;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config);

  [[nodiscard]] const TracerConfig& config() const noexcept { return config_; }

  /// Decide whether this request's detail is kept, and record it if so.
  /// `span.total_ns` must be filled; id/slow/sampled are assigned here.
  /// Lock-free; one fetch_add when the span is not kept.
  void record(TraceSpan span) noexcept;

  /// Requests seen (kept or not) — "every request timestamps".
  [[nodiscard]] std::uint64_t observed() const noexcept {
    return observed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t kept_dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// The slowest-N recent requests across both rings, total_ns descending.
  [[nodiscard]] std::vector<TraceSpan> slowest(std::size_t n) const;

  /// Everything currently resident (sampled + slow), id ascending.
  [[nodiscard]] std::vector<TraceSpan> recent() const;

 private:
  TracerConfig config_;
  PodRing<TraceSpan> sampled_;
  PodRing<TraceSpan> slow_;
  std::atomic<std::uint64_t> observed_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace smore::obs
