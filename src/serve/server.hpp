#pragma once
// InferenceServer: the micro-batching serving runtime (DESIGN.md §9).
//
// PRs 1-3 made every layer batch-first, but a deployed system receives
// *single* windows from many concurrent clients — nobody hands the server a
// WindowDataset. This is the component in between:
//
//   producers ──submit()──▶ MpmcQueue ──pop_batch()──▶ worker threads
//                (future)     (bounded,                  take what is queued,
//                              backpressure)             ≤ max_batch, no wait;
//                                                        one batched predict,
//                                                        fulfill futures
//
// Three actors, three mutation rates:
//   * producers submit one encoded hypervector (or one raw Window, encoded
//     inside the batch via Encoder::encode_batch) and get a
//     std::future<ServeResult>;
//   * batching workers drain the queue into micro-batches and run ONE
//     Encoder::encode_batch + ONE predict_batch_full per batch against an
//     immutable ModelSnapshot — the per-request costs (wakeups, kernel
//     setup, allocations) amortize across the batch, which is where the
//     ≥5× over per-request dispatch comes from (bench_serving). Batches
//     are work-conserving: a worker never waits for stragglers, so a batch
//     is whatever queued while the worker was busy (one request when idle,
//     up to max_batch under load);
//   * the adaptation worker drains OOD-flagged windows into a side buffer
//     and, once enough accumulate, clones the live model, enrolls them as a
//     new domain (descriptor absorb + pseudo-labeled OnlineHD updates — the
//     paper's Fig. 2 "Model Update" box, Sec 3.6), and publishes a new
//     snapshot. Enrollment of an unseen domain is concurrent with live
//     traffic: readers keep serving the old generation mid-publish.
//
// Backpressure: the queue is bounded. submit() blocks the producer when the
// server is saturated (latency, not memory growth); try_submit() refuses
// instead (load shedding). Shutdown is graceful: the queue closes, workers
// drain every in-flight request, and every future is fulfilled.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>  // std::once_flag only; locks go through util/mutex.hpp
#include <optional>
#include <thread>
#include <vector>

#include <map>

#include "core/domain_lifecycle.hpp"
#include "core/inference_backend.hpp"
#include "core/smore.hpp"
#include "data/timeseries.hpp"
#include "hdc/encoder_base.hpp"
#include "serve/adaptation.hpp"
#include "serve/snapshot.hpp"
#include "serve/status.hpp"
#include "serve/telemetry.hpp"
#include "util/annotations.hpp"
#include "util/latency.hpp"
#include "util/mpmc_queue.hpp"
#include "util/mutex.hpp"

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

  bool adaptation = false;           ///< run the online-adaptation worker
  std::size_t adapt_min_batch = 64;  ///< OOD windows per enrollment round
  std::size_t adapt_buffer_capacity = 1024;  ///< OOD side-buffer bound
  std::size_t adapt_max_domains = 16;  ///< stop enrolling beyond this K
  std::uint32_t adapt_poll_ms = 2;   ///< adaptation worker wake cadence

  /// Bounded domain lifecycle (DESIGN.md §13). Off: every adaptation round
  /// enrolls ONE new domain and rounds past adapt_max_domains are shed (the
  /// pre-lifecycle policy, kept for operators that consolidate manually).
  /// On: rounds are clustered, merged into similar existing domains, and the
  /// bank is evicted down to lifecycle_config.max_domains — adapt_max_domains
  /// is ignored, adaptation never stops, and K stays O(1) forever.
  bool lifecycle = false;
  LifecycleConfig lifecycle_config;  ///< knobs when `lifecycle` is on

  /// Telemetry hub (DESIGN.md §14): every counter/histogram below lives in
  /// its MetricsRegistry, requests cut trace spans, and publish / shed /
  /// lifecycle occurrences emit events. Null means a private hub — stats()
  /// always works and unit tests never collide on metric names.
  std::shared_ptr<obs::Telemetry> telemetry;
};

// ServeStatus and to_string(ServeStatus) live in serve/status.hpp (shared
// with the router and the telemetry layer).

/// Per-request response (the future's value). The non-status fields are
/// meaningful only when `status == ServeStatus::kOk`.
struct ServeResult {
  ServeStatus status = ServeStatus::kOk;
  int label = -1;
  bool is_ood = false;
  double max_similarity = 0.0;     ///< δ_max against the domain descriptors
  std::vector<double> weights;     ///< ensemble weights used (size K)
  double latency_seconds = 0.0;    ///< submit → fulfillment
  std::uint64_t snapshot_version = 0;  ///< model generation that answered
};

/// Counters + latency percentiles (the stats endpoint payload). A VIEW over
/// the server's metrics registry: every field is read back from the same
/// handles the hot path writes, so stats() and the exporters can never
/// disagree. `latency` is empty when the hub's histogram switch is off.
struct ServerStats {
  std::uint64_t submitted = 0;      ///< accepted into the queue
  std::uint64_t rejected = 0;       ///< try_submit refusals (queue full)
  std::uint64_t completed = 0;      ///< futures fulfilled with a value
  std::uint64_t batches = 0;        ///< batched predict passes
  std::uint64_t batched_rows = 0;   ///< requests across those passes
  std::uint64_t ood_flagged = 0;    ///< responses with is_ood
  std::uint64_t adaptation_rounds = 0;   ///< snapshots published by adaptation
  std::uint64_t adaptation_absorbed = 0; ///< OOD windows enrolled
  std::uint64_t adaptation_dropped = 0;  ///< OOD windows shed (all causes)
  std::uint64_t adaptation_overflow = 0; ///< …of which: side-buffer overflow
  std::uint64_t adaptation_merged = 0;   ///< lifecycle: clusters merged
  std::uint64_t adaptation_evicted = 0;  ///< lifecycle: domains evicted
  std::uint64_t snapshot_version = 0;    ///< live generation id
  std::size_t live_domains = 0;          ///< K of the live snapshot
  double mean_batch_fill = 0.0;     ///< batched_rows / batches
  LatencySummary latency;           ///< submit→fulfill percentiles
};

/// The serving runtime. Construction spawns the worker threads; destruction
/// (or shutdown()) drains and joins them.
class InferenceServer {
 public:
  /// `boot` is the initial snapshot (must be non-null; its backend answers
  /// queries). `encoder` may be null, in which case the snapshot's own
  /// encoder (set when booted from a Pipeline) is used; when neither exists
  /// every request must be pre-encoded and submit(Window) throws
  /// std::logic_error. The server shares ownership of the encoder — no
  /// "must outlive the server" contract. Throws std::invalid_argument on
  /// config/snapshot mismatch.
  InferenceServer(std::shared_ptr<const ModelSnapshot> boot,
                  std::shared_ptr<const Encoder> encoder,
                  ServerConfig config = {});

  /// Boot straight from a deployable Pipeline: snapshot version
  /// `boot_version`, the pipeline's packed backend when quantized, and the
  /// pipeline's encoder (shared) for raw-window submission.
  explicit InferenceServer(const Pipeline& pipeline, ServerConfig config = {},
                           std::uint64_t boot_version = 1);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Submit one encoded hypervector; blocks while the queue is full
  /// (backpressure). Throws std::invalid_argument on dimension mismatch.
  /// After shutdown() it never blocks or throws: the returned future is
  /// already fulfilled with ServeStatus::kShuttingDown.
  std::future<ServeResult> submit(std::vector<float> hv);

  /// Submit one raw multi-sensor window, encoded inside the micro-batch via
  /// the server's encoder (one encode_batch per batch, not per request).
  std::future<ServeResult> submit(Window window);

  /// Non-blocking submit: returns std::nullopt (and counts a rejection)
  /// instead of waiting when the queue is full — the load-shedding policy.
  /// When `shed_reason` is non-null it reports why a request was refused
  /// (kShedQueueFull vs kShuttingDown); untouched on acceptance.
  std::optional<std::future<ServeResult>> try_submit(
      std::vector<float> hv, ServeStatus* shed_reason = nullptr);

  /// Atomically swap the serving model. The snapshot must match the boot
  /// model's dimension; in-flight batches finish on the generation they
  /// started with. Returns false when the live generation is already
  /// >= snap->version (the stale publisher loses; see SnapshotRegistry).
  bool publish(std::shared_ptr<const ModelSnapshot> snap);

  /// The live snapshot (never null).
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> snapshot() const {
    return registry_.current();
  }

  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Graceful shutdown: stop accepting, drain every queued request, fulfill
  /// every future, join all threads. Idempotent; the destructor calls it.
  void shutdown();

  /// Counters and latency percentiles since construction.
  [[nodiscard]] ServerStats stats() const;

  /// The telemetry hub this server reports into (never null — private when
  /// the config left it unset). Exporters (obs/export.hpp) read it.
  [[nodiscard]] const std::shared_ptr<obs::Telemetry>& telemetry()
      const noexcept {
    return tel_->hub_ptr();
  }

 private:
  struct Request {
    std::vector<float> hv;          // encoded query (empty when window set)
    std::optional<Window> window;   // raw window to encode in-batch
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point submit_time;
  };

  // OodSample (the side-buffer element) lives in serve/adaptation.hpp,
  // shared with the multi-tenant router's per-tenant adaptation.

  /// Shared submit bookkeeping: stamp, push (blocking or refusing), count.
  /// nullopt only in non-blocking mode (full/closed queue, counted as a
  /// rejection, reason in *shed_reason); in blocking mode a post-shutdown
  /// submit yields a ready future carrying kShuttingDown.
  std::optional<std::future<ServeResult>> enqueue(Request req, bool blocking,
                                                  ServeStatus* shed_reason);
  void worker_loop(std::size_t worker_index);
  void adaptation_loop();
  /// Run one micro-batch: encode window-requests, predict, fulfill.
  void process_batch(std::vector<Request>& batch, std::size_t worker_index);
  /// publish() with the event reason ("operator" / "adaptation" / "boot").
  bool do_publish(std::shared_ptr<const ModelSnapshot> snap,
                  const char* reason);

  ServerConfig config_;
  std::size_t dim_ = 0;
  std::shared_ptr<const Encoder> encoder_;
  SnapshotRegistry registry_;
  MpmcQueue<Request> queue_;

  std::vector<std::thread> workers_;
  std::thread adaptation_thread_;

  // OOD side buffer (adaptation worker input). Bounded: overflow sheds the
  // newest sample and counts it — adaptation is best-effort by design.
  Mutex ood_mutex_;
  std::vector<OodSample> ood_buffer_ SMORE_GUARDED_BY(ood_mutex_);
  bool stopping_ SMORE_GUARDED_BY(ood_mutex_) = false;  // adaptation wake flag
  CondVar ood_cv_;

  // Served-query credit per domain id since the last lifecycle round (the
  // eviction policy's usage signal). Only written when lifecycle is on.
  Mutex usage_mutex_;
  std::map<int, double> usage_acc_ SMORE_GUARDED_BY(usage_mutex_);

  // Stats live in the telemetry hub: counter/histogram handles are created
  // once at construction (ServeTelemetry), stats() reads them back. The two
  // gauges are refreshed at publish and stats time (no callbacks — the hub
  // may outlive this server).
  std::unique_ptr<ServeTelemetry> tel_;
  obs::Gauge* version_gauge_ = nullptr;
  obs::Gauge* domains_gauge_ = nullptr;

  std::atomic<bool> shut_down_{false};
  std::once_flag shutdown_once_;
};

}  // namespace smore
