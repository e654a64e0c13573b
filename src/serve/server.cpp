#include "serve/server.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/pipeline.hpp"
#include "data/dataset.hpp"

namespace smore {

namespace {
/// Seconds between two steady_clock points.
double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

InferenceServer::InferenceServer(std::shared_ptr<const ModelSnapshot> boot,
                                 std::shared_ptr<const Encoder> encoder,
                                 ServerConfig config)
    : config_(config),
      encoder_(std::move(encoder)),
      queue_(std::max<std::size_t>(1, config.queue_capacity)) {
  if (boot == nullptr || boot->model == nullptr || boot->backend == nullptr) {
    throw std::invalid_argument("InferenceServer: null boot snapshot");
  }
  if (encoder_ == nullptr) {
    encoder_ = boot->encoder;  // Pipeline-boot snapshots carry one
  }
  if (encoder_ != nullptr && encoder_->dim() != boot->backend->dim()) {
    throw std::invalid_argument(
        "InferenceServer: encoder/model dimension mismatch");
  }
  dim_ = boot->backend->dim();

  config_.num_workers = std::max<std::size_t>(1, config_.num_workers);
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  tel_ = std::make_unique<ServeTelemetry>(config_.telemetry, "server",
                                          config_.num_workers);
  version_gauge_ = tel_->hub().metrics().gauge("smore_snapshot_version",
                                               {{"plane", "server"}});
  domains_gauge_ = tel_->hub().metrics().gauge("smore_live_domains",
                                               {{"plane", "server"}});
  const std::uint64_t boot_version = boot->version;
  const std::size_t boot_domains = boot->model->num_domains();
  registry_.publish(std::move(boot));
  version_gauge_->set(static_cast<double>(boot_version));
  domains_gauge_->set(static_cast<double>(boot_domains));
  tel_->hub().emit(obs::EventType::kSnapshotPublish, "server", "boot",
                   static_cast<std::int64_t>(boot_version));

  workers_.reserve(config_.num_workers);
  for (std::size_t w = 0; w < config_.num_workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  if (config_.adaptation) {
    adaptation_thread_ = std::thread([this] { adaptation_loop(); });
  }
}

InferenceServer::InferenceServer(const Pipeline& pipeline, ServerConfig config,
                                 std::uint64_t boot_version)
    : InferenceServer(ModelSnapshot::make(pipeline, boot_version),
                      pipeline.encoder_ptr(), config) {}

InferenceServer::~InferenceServer() { shutdown(); }

std::optional<std::future<ServeResult>> InferenceServer::enqueue(
    Request req, bool blocking, ServeStatus* shed_reason) {
  req.submit_time = std::chrono::steady_clock::now();
  std::future<ServeResult> fut = req.promise.get_future();
  const bool closed = shut_down_.load(std::memory_order_acquire);
  // On refusal the queue has already consumed (and destroyed) the moved
  // request, promise included — the rejection paths below must not touch
  // `req` or `fut` again. The refusal reason comes from the queue's own
  // atomic decision (QueuePush), never from a second racy closed() read.
  bool accepted = false;
  ServeStatus reason = ServeStatus::kShuttingDown;
  if (closed) {
    // Fast-path refusal before touching the queue.
  } else if (blocking) {
    // A blocking push only refuses when the queue closed mid-wait.
    accepted = queue_.push(std::move(req));
  } else {
    switch (queue_.try_push(std::move(req))) {
      case QueuePush::kAccepted: accepted = true; break;
      case QueuePush::kFull: reason = ServeStatus::kShedQueueFull; break;
      case QueuePush::kClosed: reason = ServeStatus::kShuttingDown; break;
    }
  }
  if (!accepted) {
    // A refused *blocking* push is a late submit racing shutdown. Resolve it
    // on the result plane (a distinct ServeStatus, not a thrown exception or
    // an indefinite block): producers racing a shutdown get a deterministic,
    // immediately-ready answer.
    tel_->record_shed(blocking ? ServeStatus::kShuttingDown : reason,
                      "server");
    if (blocking) {
      std::promise<ServeResult> late;
      ServeResult r;
      r.status = ServeStatus::kShuttingDown;
      late.set_value(std::move(r));
      return late.get_future();
    }
    if (shed_reason != nullptr) *shed_reason = reason;
    return std::nullopt;
  }
  tel_->submitted->add(1);
  return fut;
}

std::future<ServeResult> InferenceServer::submit(std::vector<float> hv) {
  if (hv.size() != dim_) {
    throw std::invalid_argument("InferenceServer::submit: dimension mismatch");
  }
  Request req;
  req.hv = std::move(hv);
  return *enqueue(std::move(req), /*blocking=*/true, nullptr);
}

std::future<ServeResult> InferenceServer::submit(Window window) {
  if (encoder_ == nullptr) {
    throw std::logic_error(
        "InferenceServer::submit(Window): server built without an encoder");
  }
  Request req;
  req.window = std::move(window);
  return *enqueue(std::move(req), /*blocking=*/true, nullptr);
}

std::optional<std::future<ServeResult>> InferenceServer::try_submit(
    std::vector<float> hv, ServeStatus* shed_reason) {
  if (hv.size() != dim_) {
    throw std::invalid_argument(
        "InferenceServer::try_submit: dimension mismatch");
  }
  Request req;
  req.hv = std::move(hv);
  return enqueue(std::move(req), /*blocking=*/false, shed_reason);
}

bool InferenceServer::publish(std::shared_ptr<const ModelSnapshot> snap) {
  return do_publish(std::move(snap), "operator");
}

bool InferenceServer::do_publish(std::shared_ptr<const ModelSnapshot> snap,
                                 const char* reason) {
  if (snap == nullptr || snap->model == nullptr || snap->backend == nullptr) {
    throw std::invalid_argument("InferenceServer::publish: null snapshot");
  }
  if (snap->backend->dim() != dim_) {
    throw std::invalid_argument(
        "InferenceServer::publish: dimension mismatch");
  }
  const std::uint64_t version = snap->version;
  const std::size_t domains = snap->model->num_domains();
  if (!registry_.publish(std::move(snap))) return false;
  // Exactly one publish event per generation that actually went live, at the
  // layer that decided it (the lost CAS is the caller's shed to report).
  version_gauge_->set(static_cast<double>(version));
  domains_gauge_->set(static_cast<double>(domains));
  tel_->hub().emit(obs::EventType::kSnapshotPublish, "server", reason,
                   static_cast<std::int64_t>(version));
  return true;
}

void InferenceServer::worker_loop(std::size_t worker_index) {
  std::vector<Request> batch;
  batch.reserve(config_.max_batch);
  for (;;) {
    batch.clear();
    if (queue_.pop_batch(batch, config_.max_batch) == 0) {
      return;  // closed and drained: every in-flight request was handed out
    }
    process_batch(batch, worker_index);
  }
}

void InferenceServer::process_batch(std::vector<Request>& batch,
                                    std::size_t worker_index) {
  const std::size_t n = batch.size();
  const auto batch_start = std::chrono::steady_clock::now();
  const auto snap = registry_.current();

  // Assemble the query block: pre-encoded rows are copied, raw windows are
  // grouped by shape and each group encoded with a single encode_batch —
  // the whole point of coalescing. Grouping (rather than one dataset for
  // all) keeps requests independent: a window the encoder rejects fails
  // only its own shape group, never a batch-mate.
  HvMatrix queries(n, dim_);
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
      window_groups;  // (channels, steps) -> batch rows
  for (std::size_t i = 0; i < n; ++i) {
    if (batch[i].window.has_value()) {
      window_groups[{batch[i].window->channels(), batch[i].window->steps()}]
          .push_back(i);
    } else {
      queries.set_row(i, batch[i].hv);
    }
  }
  std::vector<std::uint8_t> failed;  // lazily sized: rare path
  for (const auto& [shape, rows] : window_groups) {
    try {
      WindowDataset windows("serve", shape.first, shape.second);
      for (const std::size_t i : rows) windows.add(*batch[i].window);
      HvMatrix encoded;
      // A single batching worker owns the whole machine and uses the pool;
      // with several workers, each stays serial on the encode so concurrent
      // batches don't convoy on the shared global pool (the predict kernels
      // below parallelize internally either way).
      encoder_->encode_batch(windows, encoded,
                             /*parallel=*/config_.num_workers == 1);
      for (std::size_t j = 0; j < rows.size(); ++j) {
        queries.set_row(rows[j], encoded.row(j));
      }
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      if (failed.empty()) failed.assign(n, 0);
      for (const std::size_t i : rows) {
        batch[i].promise.set_exception(error);
        failed[i] = 1;
      }
    }
  }
  if (!failed.empty()) {
    // Compact to the surviving requests; their rows are already encoded in
    // `queries`, so compaction is a row copy.
    std::vector<Request> kept;
    kept.reserve(batch.size());
    HvMatrix kept_queries(n - static_cast<std::size_t>(
                                  std::count(failed.begin(), failed.end(), 1)),
                          dim_);
    for (std::size_t i = 0; i < n; ++i) {
      if (failed[i]) continue;
      kept_queries.set_row(kept.size(), queries.row(i));
      kept.push_back(std::move(batch[i]));
    }
    if (kept.empty()) return;
    batch = std::move(kept);
    queries = std::move(kept_queries);
  }
  const auto encode_done = std::chrono::steady_clock::now();

  SmoreBatchResult result;
  try {
    // One virtual call: the snapshot's backend knows its representation.
    result = snap->backend->predict_batch_full(queries.view());
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (auto& req : batch) req.promise.set_exception(error);
    return;
  }
  const auto predict_done = std::chrono::steady_clock::now();

  const std::size_t k = result.num_domains;
  const auto now = std::chrono::steady_clock::now();

  // Externally observable accounting lands before any promise is fulfilled:
  // a submitter that returns from get() and immediately reads stats() must
  // see its own request counted and its latency recorded. The shared
  // implementation (ServeTelemetry::record_batch) also cuts each request's
  // trace span from the same four timestamps.
  std::vector<std::chrono::steady_clock::time_point> submit_times;
  submit_times.reserve(batch.size());
  for (const Request& req : batch) submit_times.push_back(req.submit_time);
  tel_->record_batch({batch_start, encode_done, predict_done, now},
                     submit_times, result.ood, result.labels, snap->version,
                     static_cast<std::uint32_t>(worker_index),
                     /*tenant_name=*/{}, /*tenant=*/nullptr);

  // Usage credit for the eviction policy: each served query credits the
  // domain its ensemble weight peaked at. Accumulated batch-locally, flushed
  // once under the usage lock; drained by the next lifecycle round.
  if (config_.adaptation && config_.lifecycle && k > 0) {
    std::vector<double> pos_usage(k, 0.0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double* wrow = result.weights.data() + i * k;
      std::size_t best = 0;
      for (std::size_t c = 1; c < k; ++c) {
        if (wrow[c] > wrow[best]) best = c;
      }
      pos_usage[best] += 1.0;
    }
    const auto& ids = snap->model->descriptors().domain_ids();
    const MutexLock lock(usage_mutex_);
    for (std::size_t p = 0; p < k && p < ids.size(); ++p) {
      if (pos_usage[p] != 0.0) usage_acc_[ids[p]] += pos_usage[p];
    }
  }

  std::vector<OodSample> ood_samples;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ServeResult r;
    r.label = result.labels[i];
    r.is_ood = result.ood[i] != 0;
    r.max_similarity = result.max_similarity[i];
    r.weights.assign(result.weights.begin() + static_cast<std::ptrdiff_t>(i * k),
                     result.weights.begin() +
                         static_cast<std::ptrdiff_t>((i + 1) * k));
    r.latency_seconds = seconds_between(batch[i].submit_time, now);
    r.snapshot_version = snap->version;
    if (r.is_ood && config_.adaptation) {
      OodSample sample;
      const auto row = queries.row(i);
      sample.hv.assign(row.begin(), row.end());
      sample.pseudo_label = r.label;
      ood_samples.push_back(std::move(sample));
    }
    batch[i].promise.set_value(std::move(r));
  }

  if (!ood_samples.empty()) {
    std::size_t dropped = 0;
    bool ready = false;
    {
      const MutexLock lock(ood_mutex_);
      for (auto& sample : ood_samples) {
        if (ood_buffer_.size() >= config_.adapt_buffer_capacity) {
          ++dropped;  // best-effort: overload sheds adaptation, not serving
        } else {
          ood_buffer_.push_back(std::move(sample));
        }
      }
      ready = ood_buffer_.size() >= config_.adapt_min_batch;
    }
    if (dropped != 0) {
      tel_->adapt_dropped->add(dropped);
      tel_->adapt_overflow->add(dropped);
      tel_->hub().emit(obs::EventType::kAdaptationShed, "server",
                       "buffer-overflow", static_cast<std::int64_t>(dropped));
    }
    if (ready) ood_cv_.notify_one();
  }
}

void InferenceServer::adaptation_loop() {
  const std::chrono::milliseconds poll(std::max<std::uint32_t>(
      1, config_.adapt_poll_ms));
  for (;;) {
    std::vector<OodSample> round;
    {
      const MutexLock lock(ood_mutex_);
      // Timed wait for (stopping_ || buffer ready), written as an explicit
      // loop so the guarded reads stay under the lock the analysis sees; a
      // timeout just falls through to the re-check below (the poll cadence).
      const auto deadline = std::chrono::steady_clock::now() + poll;
      while (!stopping_ && ood_buffer_.size() < config_.adapt_min_batch) {
        if (ood_cv_.wait_until(ood_mutex_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (stopping_) {
        if (!ood_buffer_.empty()) {
          tel_->adapt_dropped->add(ood_buffer_.size());
          tel_->hub().emit(obs::EventType::kAdaptationShed, "server",
                           "shutdown",
                           static_cast<std::int64_t>(ood_buffer_.size()));
        }
        ood_buffer_.clear();
        return;
      }
      if (ood_buffer_.size() < config_.adapt_min_batch) continue;
      round = std::move(ood_buffer_);
      ood_buffer_.clear();
    }

    const auto snap = registry_.current();

    if (config_.lifecycle) {
      // Bounded lifecycle round (DESIGN.md §13): cluster → merge/enroll →
      // decay → evict on a clone, publish the result. The cap is enforced by
      // eviction, so rounds are never shed for model size.
      std::vector<std::pair<int, double>> usage;
      {
        const MutexLock lock(usage_mutex_);
        usage.assign(usage_acc_.begin(), usage_acc_.end());
        usage_acc_.clear();
      }
      const AdaptationOutcome out = run_lifecycle_round(
          *snap, round, usage, config_.lifecycle_config, snap->version + 1);
      if (out.next != nullptr && do_publish(out.next, "adaptation")) {
        tel_->adapt_rounds->add(1);
        tel_->adapt_absorbed->add(out.lifecycle.absorbed);
        tel_->adapt_merged->add(out.lifecycle.merged);
        tel_->adapt_evicted->add(out.lifecycle.evicted);
        // Lifecycle events only for the generation that actually went live:
        // a lost CAS means none of the round's merges/evictions exist.
        emit_lifecycle_events(tel_->hub(), "server", out.lifecycle);
      } else {
        // Lost the publish CAS to a newer operator generation: shed the
        // round rather than clobbering it (stale publisher loses).
        tel_->adapt_dropped->add(round.size());
        tel_->hub().emit(obs::EventType::kAdaptationShed, "server",
                         "publish-race",
                         static_cast<std::int64_t>(round.size()));
      }
      continue;
    }

    if (snap->model->num_domains() >= config_.adapt_max_domains) {
      // Enrollment cap reached: keep serving, shed the round (the policy is
      // bounded model growth; operators raise adapt_max_domains or push a
      // consolidated model).
      tel_->adapt_dropped->add(round.size());
      tel_->hub().emit(obs::EventType::kAdaptationShed, "server",
                       "domain-cap", static_cast<std::int64_t>(round.size()));
      continue;
    }

    // Enroll the round as ONE new domain: clone the live generation, absorb
    // every buffered window under its pseudo-label (descriptor bundling +
    // OnlineHD bootstrap/refine — the paper's "Model Update" box), and
    // publish. Readers never see the intermediate states.
    SmoreModel next = snap->model->clone();
    // The bank keeps ids sorted, but max_element keeps this correct even if
    // that invariant ever changes — colliding with an existing id would
    // silently merge the round into an unrelated domain.
    const auto& ids = next.descriptors().domain_ids();
    const int new_domain =
        ids.empty() ? 0 : *std::max_element(ids.begin(), ids.end()) + 1;
    for (const OodSample& sample : round) {
      next.absorb_labeled(sample.hv, sample.pseudo_label, new_domain);
    }
    // An operator may have published a newer generation while this round
    // was being built off `snap`; the CAS-guarded publish then refuses the
    // stale derivative and the round is shed rather than reverting the
    // operator's model. The new generation keeps the old one's shape:
    // re-quantized iff it was quantized (packed δ* carried over), same
    // shared encoder.
    if (do_publish(ModelSnapshot::next_generation(*snap, std::move(next),
                                                  snap->version + 1),
                   "adaptation")) {
      tel_->adapt_rounds->add(1);
      tel_->adapt_absorbed->add(round.size());
      tel_->hub().emit(obs::EventType::kLifecycleEnroll, "server",
                       "ood-round", new_domain);
    } else {
      tel_->adapt_dropped->add(round.size());
      tel_->hub().emit(obs::EventType::kAdaptationShed, "server",
                       "publish-race",
                       static_cast<std::int64_t>(round.size()));
    }
  }
}

void InferenceServer::shutdown() {
  std::call_once(shutdown_once_, [this] {
    shut_down_.store(true, std::memory_order_release);
    queue_.close();  // wakes workers; they drain and fulfill everything
    for (auto& w : workers_) w.join();
    {
      const MutexLock lock(ood_mutex_);
      stopping_ = true;
    }
    ood_cv_.notify_all();
    if (adaptation_thread_.joinable()) adaptation_thread_.join();
  });
}

ServerStats InferenceServer::stats() const {
  // A view over the telemetry registry: every counter is read back from the
  // same handle the hot path bumps, so stats() and the exporters can never
  // disagree.
  ServerStats s;
  s.submitted = tel_->submitted->value();
  s.rejected = tel_->rejected->value();
  s.completed = tel_->completed->value();
  s.batches = tel_->batches->value();
  s.batched_rows = tel_->batched_rows->value();
  s.ood_flagged = tel_->ood_flagged->value();
  s.adaptation_rounds = tel_->adapt_rounds->value();
  s.adaptation_absorbed = tel_->adapt_absorbed->value();
  s.adaptation_dropped = tel_->adapt_dropped->value();
  s.adaptation_overflow = tel_->adapt_overflow->value();
  s.adaptation_merged = tel_->adapt_merged->value();
  s.adaptation_evicted = tel_->adapt_evicted->value();
  s.snapshot_version = registry_.version();
  s.live_domains = registry_.current()->model->num_domains();
  s.mean_batch_fill =
      s.batches != 0
          ? static_cast<double>(s.batched_rows) / static_cast<double>(s.batches)
          : 0.0;
  s.latency = LatencySummary::from(tel_->latency->snapshot());
  // Keep the exporter's gauges fresh even when nobody published recently.
  version_gauge_->set(static_cast<double>(s.snapshot_version));
  domains_gauge_->set(static_cast<double>(s.live_domains));
  return s;
}

}  // namespace smore
