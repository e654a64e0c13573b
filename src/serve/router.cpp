#include "serve/router.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"

namespace smore {

namespace {
/// A future already fulfilled with just a status (late-submit path).
std::future<ServeResult> ready_status(ServeStatus status) {
  std::promise<ServeResult> p;
  ServeResult r;
  r.status = status;
  p.set_value(std::move(r));
  return p.get_future();
}

/// A future already fulfilled with an exception (artifact-load failure:
/// the error surfaces to THIS request, never process-wide).
std::future<ServeResult> ready_error(std::exception_ptr error) {
  std::promise<ServeResult> p;
  p.set_exception(std::move(error));
  return p.get_future();
}
}  // namespace

MultiTenantServer::MultiTenantServer(std::shared_ptr<ModelRegistry> registry,
                                     MultiTenantConfig config)
    : config_(config), registry_(std::move(registry)) {
  if (registry_ == nullptr) {
    throw std::invalid_argument("MultiTenantServer: null registry");
  }
  config_.num_shards = std::max<std::size_t>(1, config_.num_shards);
  config_.workers_per_shard = std::max<std::size_t>(1, config_.workers_per_shard);
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  config_.shard_queue_capacity =
      std::max<std::size_t>(1, config_.shard_queue_capacity);

  queues_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    queues_.push_back(
        std::make_unique<MpmcQueue<Request>>(config_.shard_queue_capacity));
  }
  slot_shards_.resize(kSlotShards);
  for (auto& s : slot_shards_) s = std::make_unique<SlotShard>();

  const std::size_t total = config_.num_shards * config_.workers_per_shard;
  tel_ = std::make_unique<ServeTelemetry>(config_.telemetry, total);
  tenants_seen_ = tel_->hub().metrics().counter("smore_tenants_seen_total",
                                                {{"plane", "fleet"}});
  workers_.reserve(total);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    for (std::size_t w = 0; w < config_.workers_per_shard; ++w) {
      const std::size_t index = s * config_.workers_per_shard + w;
      workers_.emplace_back([this, s, index] { worker_loop(s, index); });
    }
  }
  if (config_.adaptation) {
    config_.adapt_min_batch = std::max<std::size_t>(1, config_.adapt_min_batch);
    config_.adapt_buffer_capacity =
        std::max(config_.adapt_min_batch, config_.adapt_buffer_capacity);
    adaptation_thread_ = std::thread([this] { adaptation_loop(); });
  }
}

MultiTenantServer::~MultiTenantServer() { shutdown(); }

std::shared_ptr<MultiTenantServer::TenantSlot> MultiTenantServer::slot_of(
    const std::string& tenant) {
  SlotShard& shard =
      *slot_shards_[std::hash<std::string>{}(tenant) % kSlotShards];
  const MutexLock lock(shard.m);
  auto it = shard.map.find(tenant);
  if (it != shard.map.end()) return it->second;
  // The {tenant=...} metric bundle is created here, once per slot — the hot
  // path only ever touches the cached raw handles.
  auto slot = std::make_shared<TenantSlot>(tenant, tel_->tenant(tenant));
  shard.map.emplace(tenant, slot);
  tenants_seen_->add(1);
  return slot;
}

MpmcQueue<MultiTenantServer::Request>& MultiTenantServer::queue_of(
    const std::string& tenant) {
  // Same hash as the slot map, different modulus: one tenant's traffic
  // always lands on one shard, where its micro-batches coalesce.
  return *queues_[std::hash<std::string>{}(tenant) % queues_.size()];
}

std::optional<std::future<ServeResult>> MultiTenantServer::do_submit(
    const std::string& tenant, std::vector<float> hv,
    std::optional<Window> window, bool blocking, ServeStatus* shed_reason) {
  std::shared_ptr<TenantSlot> slot = slot_of(tenant);
  if (shut_down_.load(std::memory_order_acquire)) {
    tel_->record_shed(ServeStatus::kShuttingDown, tenant, slot->tel);
    if (blocking) return ready_status(ServeStatus::kShuttingDown);
    if (shed_reason != nullptr) *shed_reason = ServeStatus::kShuttingDown;
    return std::nullopt;
  }

  // Admission control: the in-flight count is bumped BEFORE the quota test
  // (fetch_add is the reservation; losers roll back) so concurrent
  // submitters cannot all pass the same reading. Blocking submit() skips
  // the test — the queue bound already applies backpressure to it — but
  // still counts, so its traffic is visible to concurrent try_submits.
  const std::uint64_t inflight =
      slot->inflight.fetch_add(1, std::memory_order_relaxed);
  if (!blocking && config_.tenant_inflight_quota != 0 &&
      inflight >= config_.tenant_inflight_quota) {
    slot->inflight.fetch_sub(1, std::memory_order_relaxed);
    tel_->record_shed(ServeStatus::kShedTenantQuota, tenant, slot->tel);
    if (shed_reason != nullptr) *shed_reason = ServeStatus::kShedTenantQuota;
    return std::nullopt;
  }

  // Resolve the model (cold tenants load here, single-flight). The loader's
  // exception is delivered on the request's own future — admission
  // succeeded, the TENANT is broken, and only its requests see that.
  std::shared_ptr<TenantModel> model;
  try {
    model = registry_->acquire(tenant);
  } catch (...) {
    slot->inflight.fetch_sub(1, std::memory_order_relaxed);
    // Counters only: the registry emitted the load-failure event (it made
    // the call, it knows the cause).
    tel_->record_load_failure(slot->tel);
    return ready_error(std::current_exception());
  }
  if (window.has_value() && model->snapshot()->encoder == nullptr) {
    slot->inflight.fetch_sub(1, std::memory_order_relaxed);
    throw std::logic_error(
        "MultiTenantServer::submit(Window): the snapshot of tenant " + tenant +
        " carries no encoder");
  }
  if (!window.has_value() && hv.size() != model->dim()) {
    slot->inflight.fetch_sub(1, std::memory_order_relaxed);
    throw std::invalid_argument(
        "MultiTenantServer::submit: dimension mismatch for tenant " + tenant);
  }

  Request req;
  req.slot = slot;
  req.model = std::move(model);
  req.hv = std::move(hv);
  req.window = std::move(window);
  req.submit_time = std::chrono::steady_clock::now();
  std::future<ServeResult> fut = req.promise.get_future();
  MpmcQueue<Request>& queue = queue_of(tenant);
  // On refusal the queue has already consumed the moved request (promise
  // included) — do not touch `req` or `fut` past this point on those paths.
  // The refusal reason is the queue's own atomic decision (QueuePush), not a
  // second racy closed() read that a concurrent shutdown could flip.
  bool accepted = false;
  ServeStatus reason = ServeStatus::kShuttingDown;
  if (blocking) {
    // A blocking push only refuses when the queue closed mid-wait.
    accepted = queue.push(std::move(req));
  } else {
    switch (queue.try_push(std::move(req))) {
      case QueuePush::kAccepted: accepted = true; break;
      case QueuePush::kFull: reason = ServeStatus::kShedQueueFull; break;
      case QueuePush::kClosed: reason = ServeStatus::kShuttingDown; break;
    }
  }
  if (!accepted) {
    slot->inflight.fetch_sub(1, std::memory_order_relaxed);
    tel_->record_shed(blocking ? ServeStatus::kShuttingDown : reason, tenant,
                      slot->tel);
    if (blocking) return ready_status(ServeStatus::kShuttingDown);
    if (shed_reason != nullptr) *shed_reason = reason;
    return std::nullopt;
  }
  slot->tel.submitted->add(1);
  tel_->submitted->add(1);
  return fut;
}

std::future<ServeResult> MultiTenantServer::submit(const std::string& tenant,
                                                   std::vector<float> hv) {
  return *do_submit(tenant, std::move(hv), std::nullopt, /*blocking=*/true,
                    nullptr);
}

std::future<ServeResult> MultiTenantServer::submit(const std::string& tenant,
                                                   Window window) {
  return *do_submit(tenant, {}, std::move(window), /*blocking=*/true, nullptr);
}

std::optional<std::future<ServeResult>> MultiTenantServer::try_submit(
    const std::string& tenant, std::vector<float> hv,
    ServeStatus* shed_reason) {
  return do_submit(tenant, std::move(hv), std::nullopt, /*blocking=*/false,
                   shed_reason);
}

void MultiTenantServer::worker_loop(std::size_t shard_index,
                                    std::size_t worker_index) {
  MpmcQueue<Request>& queue = *queues_[shard_index];

  // Worker-local staging: arrivals (any tenant, FIFO off the shard queue)
  // are grouped per tenant here, because a batch cannot mix tenants. The
  // rotation ring realizes drain fairness: one micro-batch per pending
  // tenant per turn. Invariant: a tenant is in the ring iff its group
  // exists (groups are erased when drained).
  struct Group {
    std::deque<Request> q;
  };
  std::unordered_map<std::string, Group> groups;
  std::deque<std::string> rotation;
  std::size_t pending = 0;
  std::vector<Request> incoming;
  std::vector<Request> batch;
  incoming.reserve(config_.max_batch);
  batch.reserve(config_.max_batch);

  for (;;) {
    incoming.clear();
    if (pending == 0) {
      // Idle: block for the first arrival and take whatever queued with it.
      // 0 means closed AND drained — with no pending work left, the shard
      // is fully served.
      if (queue.pop_batch(incoming, config_.max_batch) == 0) {
        return;
      }
    } else {
      // Work in hand: top up without sleeping, then keep draining. After
      // close this returns 0 and the loop finishes the pending groups —
      // graceful shutdown fulfills every future across all shards.
      queue.try_pop_batch(incoming, config_.max_batch);
    }
    for (Request& r : incoming) {
      Group& g = groups[r.slot->tenant];
      if (g.q.empty()) rotation.push_back(r.slot->tenant);
      g.q.push_back(std::move(r));
      ++pending;
    }

    std::string tenant = std::move(rotation.front());
    rotation.pop_front();
    auto git = groups.find(tenant);
    Group& g = git->second;
    batch.clear();
    const std::size_t take = std::min(config_.max_batch, g.q.size());
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(g.q.front()));
      g.q.pop_front();
    }
    pending -= take;
    if (g.q.empty()) {
      groups.erase(git);
    } else {
      rotation.push_back(tenant);  // back of the ring: others go first
    }
    process_batch(batch, worker_index);
  }
}

void MultiTenantServer::process_batch(std::vector<Request>& batch,
                                      std::size_t worker_index) {
  TenantSlot& slot = *batch.front().slot;
  // All requests of a batch share one tenant; the snapshot is grabbed once
  // (RCU read) and pins the model generation for the whole batch.
  const auto snap = batch.front().model->snapshot();
  const std::size_t dim = snap->backend->dim();
  const auto batch_start = std::chrono::steady_clock::now();
  auto encode_done = batch_start;  // pre-encoded batches: the span reads 0

  HvMatrix queries;
  SmoreBatchResult result;
  try {
    // The matrix fill sits inside the try: any residual bad row fails the
    // BATCH on its requests' promises, never the worker thread.
    queries = HvMatrix(batch.size(), dim);
    std::vector<std::exception_ptr> failed;  // per-request errors: rare path
    std::size_t mismatched = 0;
    bool has_windows = false;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].window.has_value()) {
        has_windows = true;  // its row comes from the encoder below
      } else if (batch[i].hv.size() == dim) {
        queries.set_row(i, batch[i].hv);
      } else {
        // One tenant's requests can still be pinned to DIFFERENT
        // TenantModel instances: evict + redeploy with a new dimension
        // while earlier requests sat queued. Each was validated only
        // against its own pinned model at submit, so a row may not fit this
        // batch's dim — a per-request error on its own promise; it must
        // never escape the worker thread.
        if (failed.empty()) failed.resize(batch.size());
        failed[i] = std::make_exception_ptr(std::invalid_argument(
            "MultiTenantServer: request for tenant " + slot.tenant +
            " was pinned to a model generation with a different dimension "
            "than its batch"));
        ++mismatched;
      }
    }
    if (mismatched != 0) {
      tel_->hub().emit(obs::EventType::kShed, slot.tenant, "dim-mismatch",
                       static_cast<std::int64_t>(mismatched));
    }
    if (has_windows) encode_windows(batch, queries, *snap, slot, failed);
    if (!failed.empty()) {
      drop_failed(batch, queries, failed, slot);
      if (batch.empty()) return;
    }
    if (has_windows) encode_done = std::chrono::steady_clock::now();
    result = snap->backend->predict_batch_full(
        queries.view().slice(0, batch.size()));
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    slot.inflight.fetch_sub(batch.size(), std::memory_order_relaxed);
    for (Request& req : batch) req.promise.set_exception(error);
    return;
  }

  const std::size_t n = batch.size();
  const std::size_t k = result.num_domains;
  const auto predict_done = std::chrono::steady_clock::now();

  if (config_.adaptation && k > 0) {
    // Feed this tenant's lifecycle: OOD rows into its bounded side buffer
    // (a pre-encoded hv is moved — the kernel consumed it above; a window
    // request's encoded row is copied), and one unit of usage credit to each
    // request's best-matching domain so decay/evict rank domains by what
    // this tenant's traffic actually exercises.
    std::vector<double> pos_usage(k, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double* w = result.weights.data() + i * k;
      std::size_t best = 0;
      for (std::size_t p = 1; p < k; ++p) {
        if (w[p] > w[best]) best = p;
      }
      pos_usage[best] += 1.0;
    }
    const std::vector<int>& ids = snap->model->descriptors().domain_ids();
    std::size_t overflow = 0;
    bool ready = false;
    {
      const MutexLock lock(slot.adapt_m);
      for (std::size_t p = 0; p < k && p < ids.size(); ++p) {
        if (pos_usage[p] != 0.0) slot.usage[ids[p]] += pos_usage[p];
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (result.ood[i] == 0) continue;
        if (slot.ood_buffer.size() >= config_.adapt_buffer_capacity) {
          ++overflow;
          continue;
        }
        const auto row = queries.row(i);
        slot.ood_buffer.push_back(
            OodSample{batch[i].window.has_value()
                          ? std::vector<float>(row.begin(), row.end())
                          : std::move(batch[i].hv),
                      result.labels[i]});
      }
      ready = slot.ood_buffer.size() >= config_.adapt_min_batch;
    }
    if (overflow != 0) {
      tel_->adapt_overflow->add(overflow);
      slot.tel.adapt_overflow->add(overflow);
      tel_->record_adaptation_shed("buffer-overflow", slot.tenant, slot.tel,
                                   overflow);
    }
    if (ready) adapt_cv_.notify_one();
  }
  const auto now = std::chrono::steady_clock::now();

  // ALL externally observable accounting lands before any promise is
  // fulfilled: a submitter that returns from get() and immediately reads
  // stats()/tenant_stats() must see its own request counted, its quota
  // reservation released, and its latency recorded. record_batch is the ONE
  // implementation of that invariant (counters, per-tenant histograms, trace
  // spans cut from these four timestamps).
  std::vector<std::chrono::steady_clock::time_point> submit_times;
  submit_times.reserve(n);
  for (const Request& req : batch) submit_times.push_back(req.submit_time);
  tel_->record_batch(
      {batch_start, encode_done, predict_done, now}, submit_times, result.ood,
      result.labels, snap->version,
      static_cast<std::uint32_t>(worker_index / config_.workers_per_shard),
      slot.tenant, slot.tel);
  slot.inflight.fetch_sub(n, std::memory_order_relaxed);

  for (std::size_t i = 0; i < n; ++i) {
    ServeResult r;
    r.status = ServeStatus::kOk;
    r.label = result.labels[i];
    r.is_ood = result.ood[i] != 0;
    r.max_similarity = result.max_similarity[i];
    r.weights.assign(
        result.weights.begin() + static_cast<std::ptrdiff_t>(i * k),
        result.weights.begin() + static_cast<std::ptrdiff_t>((i + 1) * k));
    r.latency_seconds =
        std::chrono::duration<double>(now - batch[i].submit_time).count();
    r.snapshot_version = snap->version;
    batch[i].promise.set_value(std::move(r));
  }
}

void MultiTenantServer::encode_windows(
    std::vector<Request>& batch, HvMatrix& queries, const ModelSnapshot& snap,
    const TenantSlot& slot, std::vector<std::exception_ptr>& failed) const {
  // Group windows by shape and encode each group with ONE encode_batch —
  // the point of coalescing. Grouping (rather than one dataset for all)
  // keeps requests independent: a window the encoder rejects fails only its
  // own shape group, never a batch-mate.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
      groups;  // (channels, steps) -> batch rows
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].window.has_value()) {
      groups[{batch[i].window->channels(), batch[i].window->steps()}]
          .push_back(i);
    }
  }
  // The fleet's only worker owns the whole machine and encodes with the
  // pool; with several workers each stays serial on the encode, so
  // concurrent batches do not convoy on the shared global pool (the predict
  // kernels parallelize internally either way).
  const bool parallel = config_.num_shards * config_.workers_per_shard == 1;
  for (const auto& [shape, rows] : groups) {
    try {
      if (snap.encoder == nullptr) {
        throw std::logic_error("MultiTenantServer: the snapshot of tenant " +
                               slot.tenant + " carries no encoder");
      }
      WindowDataset windows("serve", shape.first, shape.second);
      for (const std::size_t i : rows) windows.add(std::move(*batch[i].window));
      HvMatrix encoded;
      snap.encoder->encode_batch(windows, encoded, parallel);
      for (std::size_t j = 0; j < rows.size(); ++j) {
        queries.set_row(rows[j], encoded.row(j));
      }
    } catch (...) {
      if (failed.empty()) failed.resize(batch.size());
      for (const std::size_t i : rows) failed[i] = std::current_exception();
    }
  }
}

void MultiTenantServer::drop_failed(
    std::vector<Request>& batch, HvMatrix& queries,
    const std::vector<std::exception_ptr>& failed, TenantSlot& slot) {
  // Accounting before fulfillment (the invariant of process_batch): a
  // submitter whose future resolves must already see its quota released.
  const auto count = std::count_if(failed.begin(), failed.end(),
                                   [](const auto& e) { return e != nullptr; });
  slot.inflight.fetch_sub(static_cast<std::uint64_t>(count),
                          std::memory_order_relaxed);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (failed[i] != nullptr) {
      batch[i].promise.set_exception(failed[i]);
      continue;
    }
    if (kept != i) {
      const auto row = queries.row(i);
      std::copy(row.begin(), row.end(), queries.row(kept).begin());
      batch[kept] = std::move(batch[i]);
    }
    ++kept;
  }
  batch.resize(kept);
}

std::vector<std::shared_ptr<MultiTenantServer::TenantSlot>>
MultiTenantServer::all_slots() const {
  std::vector<std::shared_ptr<TenantSlot>> slots;
  for (const auto& shard : slot_shards_) {
    const MutexLock lock(shard->m);
    for (const auto& [tenant, slot] : shard->map) slots.push_back(slot);
  }
  return slots;
}

void MultiTenantServer::adaptation_loop() {
  const std::chrono::milliseconds poll(
      std::max<std::uint32_t>(1, config_.adapt_poll_ms));
  for (;;) {
    {
      const MutexLock lock(adapt_wake_m_);
      const auto deadline = std::chrono::steady_clock::now() + poll;
      while (!adapt_stopping_) {
        if (adapt_cv_.wait_until(adapt_wake_m_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (adapt_stopping_) break;
    }
    // Sweep every tenant with a ready round. One worker for the fleet: a
    // round is a clone + a few kernel calls over at most
    // adapt_buffer_capacity rows, and serialization across tenants keeps
    // adaptation from ever competing with serving for more than one core.
    for (const auto& slot : all_slots()) {
      std::vector<OodSample> round;
      std::vector<std::pair<int, double>> usage;
      {
        const MutexLock lock(slot->adapt_m);
        if (slot->ood_buffer.size() < config_.adapt_min_batch) continue;
        round.swap(slot->ood_buffer);
        usage.assign(slot->usage.begin(), slot->usage.end());
        slot->usage.clear();
      }
      run_tenant_round(*slot, std::move(round), usage);
    }
  }
  // Shutdown drain: buffered windows that never made a round are shed, not
  // silently forgotten — same honesty contract as the request counters.
  for (const auto& slot : all_slots()) {
    std::size_t remaining = 0;
    {
      const MutexLock lock(slot->adapt_m);
      remaining = slot->ood_buffer.size();
      slot->ood_buffer.clear();
      slot->usage.clear();
    }
    if (remaining != 0) {
      tel_->record_adaptation_shed("shutdown", slot->tenant, slot->tel,
                                   remaining);
    }
  }
}

bool MultiTenantServer::write_telemetry(const std::string& path) const {
  return obs::write_file_atomic(path,
                                obs::snapshot_json_text(*tel_->hub_ptr()));
}

void MultiTenantServer::run_tenant_round(
    TenantSlot& slot, std::vector<OodSample> round,
    std::span<const std::pair<int, double>> usage) {
  const std::shared_ptr<TenantModel> tm = registry_->resident(slot.tenant);
  if (tm == nullptr) {
    // Cold tenant: adaptation never pays an artifact reload for a tenant
    // whose traffic no longer keeps it resident. The round is shed.
    tel_->record_adaptation_shed("cold-tenant", slot.tenant, slot.tel,
                                 round.size());
    return;
  }
  const auto snap = tm->snapshot();
  // Rows collected against an older evict+redeploy generation may not fit
  // the current dimension; they are shed per-row, same as mismatched
  // requests in process_batch — never an exception out of this thread.
  const std::size_t dim = snap->backend->dim();
  const std::size_t mismatched = std::erase_if(
      round, [dim](const OodSample& s) { return s.hv.size() != dim; });
  if (mismatched != 0) {
    tel_->record_adaptation_shed("dim-mismatch", slot.tenant, slot.tel,
                                 mismatched);
  }
  if (round.empty()) return;
  try {
    const AdaptationOutcome out = run_lifecycle_round(
        *snap, round, usage, config_.lifecycle_config, snap->version + 1);
    if (out.next != nullptr && tm->publish(out.next)) {
      // Events only for the generation that actually went live (this plane
      // published, so this plane reports it).
      tel_->record_adaptation_round(slot.tenant, slot.tel, out.next->version,
                                    out.lifecycle);
    } else {
      // Lost the publish race (or the tenant republished concurrently):
      // stale-publisher-loses, the round is shed.
      tel_->record_adaptation_shed("publish-race", slot.tenant, slot.tel,
                                   round.size());
    }
  } catch (...) {
    // A lifecycle failure is this tenant's loss, never the fleet worker's:
    // the thread survives, the round is counted shed.
    tel_->record_adaptation_shed("round-failed", slot.tenant, slot.tel,
                                 round.size());
  }
}

void MultiTenantServer::shutdown() {
  std::call_once(shutdown_once_, [this] {
    shut_down_.store(true, std::memory_order_release);
    for (auto& queue : queues_) queue->close();
    for (auto& w : workers_) w.join();
    if (adaptation_thread_.joinable()) {
      {
        const MutexLock lock(adapt_wake_m_);
        adapt_stopping_ = true;
      }
      adapt_cv_.notify_all();
      adaptation_thread_.join();
    }
  });
}

MultiTenantStats MultiTenantServer::stats() const {
  // A view over the telemetry registry: every counter is read back from the
  // same handle the hot path bumps, so stats() and the exporters can never
  // disagree.
  MultiTenantStats s;
  s.submitted = tel_->submitted->value();
  s.rejected = tel_->rejected->value();
  s.shed_queue_full = tel_->shed_queue_full->value();
  s.shed_tenant_quota = tel_->shed_quota->value();
  s.load_failures = tel_->load_failures->value();
  s.completed = tel_->completed->value();
  s.batches = tel_->batches->value();
  s.batched_rows = tel_->batched_rows->value();
  s.ood_flagged = tel_->ood_flagged->value();
  s.tenants_seen = tenants_seen_->value();
  s.adaptation_rounds = tel_->adapt_rounds->value();
  s.adaptation_absorbed = tel_->adapt_absorbed->value();
  s.adaptation_dropped = tel_->adapt_dropped->value();
  s.adaptation_overflow = tel_->adapt_overflow->value();
  s.adaptation_merged = tel_->adapt_merged->value();
  s.adaptation_evicted = tel_->adapt_evicted->value();
  s.mean_batch_fill =
      s.batches != 0
          ? static_cast<double>(s.batched_rows) / static_cast<double>(s.batches)
          : 0.0;
  s.latency = LatencySummary::from(tel_->latency->snapshot());
  s.registry = registry_->stats();
  return s;
}

std::vector<TenantServerStats> MultiTenantServer::tenant_stats() const {
  std::vector<TenantServerStats> out;
  for (const auto& shard : slot_shards_) {
    const MutexLock lock(shard->m);
    for (const auto& [tenant, slot] : shard->map) {
      TenantServerStats t;
      t.tenant = tenant;
      t.submitted = slot->tel.submitted->value();
      t.completed = slot->tel.completed->value();
      t.shed_queue_full = slot->tel.shed_queue->value();
      t.shed_tenant_quota = slot->tel.shed_quota->value();
      t.load_failures = slot->tel.load_failures->value();
      t.ood_flagged = slot->tel.ood->value();
      t.inflight = slot->inflight.load(std::memory_order_relaxed);
      t.adaptation_rounds = slot->tel.adapt_rounds->value();
      t.adaptation_absorbed = slot->tel.adapt_absorbed->value();
      t.adaptation_dropped = slot->tel.adapt_dropped->value();
      t.adaptation_overflow = slot->tel.adapt_overflow->value();
      t.adaptation_merged = slot->tel.adapt_merged->value();
      t.adaptation_evicted = slot->tel.adapt_evicted->value();
      t.queue_wait = slot->tel.queue_wait->snapshot();
      t.service = slot->tel.service->snapshot();
      t.latency = slot->tel.latency->snapshot();
      out.push_back(std::move(t));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TenantServerStats& a, const TenantServerStats& b) {
              return a.tenant < b.tenant;
            });
  return out;
}

}  // namespace smore
