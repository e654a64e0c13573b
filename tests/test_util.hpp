#pragma once
// Shared fixtures/helpers for the test suite: tiny synthetic specs, linearly
// separable encoded datasets, numerical gradient checking for layers, and a
// gated serving backend that holds a worker mid-batch until the test says go.

#include <cmath>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/inference_backend.hpp"
#include "data/synthetic.hpp"
#include "hdc/hv_dataset.hpp"
#include "nn/tensor.hpp"
#include "serve/snapshot.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace smore::testing {

/// Tiny synthetic spec (fast to generate/encode) with `domains` domains of
/// one subject each.
inline SyntheticSpec tiny_spec(int activities = 3, int domains = 3,
                               std::size_t channels = 2,
                               std::size_t window_steps = 24,
                               std::size_t windows_per_domain = 30,
                               std::uint64_t seed = 0x7e57) {
  SyntheticSpec spec;
  spec.name = "tiny";
  spec.activities = activities;
  spec.subjects = domains;
  spec.subject_to_domain.resize(static_cast<std::size_t>(domains));
  for (int s = 0; s < domains; ++s) {
    spec.subject_to_domain[static_cast<std::size_t>(s)] = s;
  }
  spec.channels = channels;
  spec.window_steps = window_steps;
  spec.overlap = 0.0;
  spec.sample_rate_hz = 25.0;
  spec.domain_counts.assign(static_cast<std::size_t>(domains),
                            windows_per_domain);
  spec.seed = seed;
  return spec;
}

/// Linearly separable encoded dataset: class c of domain d clusters around a
/// distinct random bipolar prototype with small perturbations. `domain_skew`
/// rotates each domain's prototypes slightly, creating a controllable
/// distribution shift in hyperspace without the encoder in the loop.
inline HvDataset separable_hv_dataset(int classes, int domains,
                                      std::size_t per_cell, std::size_t dim,
                                      double noise = 0.4,
                                      double domain_skew = 0.0,
                                      std::uint64_t seed = 0xfeed) {
  Rng rng(seed);
  std::vector<std::vector<float>> prototypes;
  for (int c = 0; c < classes; ++c) {
    std::vector<float> p(dim);
    for (auto& x : p) x = rng.bipolar();
    prototypes.push_back(std::move(p));
  }
  // Per-domain skew directions.
  std::vector<std::vector<float>> skew;
  for (int d = 0; d < domains; ++d) {
    std::vector<float> s(dim);
    for (auto& x : s) x = rng.bipolar();
    skew.push_back(std::move(s));
  }

  HvDataset data(dim);
  std::vector<float> row(dim);
  for (int d = 0; d < domains; ++d) {
    for (int c = 0; c < classes; ++c) {
      for (std::size_t i = 0; i < per_cell; ++i) {
        for (std::size_t j = 0; j < dim; ++j) {
          row[j] = prototypes[static_cast<std::size_t>(c)][j] +
                   static_cast<float>(domain_skew) *
                       skew[static_cast<std::size_t>(d)][j] +
                   static_cast<float>(rng.normal(0.0, noise));
        }
        data.add(row, c, d);
      }
    }
  }
  return data;
}

/// Central-difference numerical gradient of `f` w.r.t. `x[i]`.
inline double numerical_grad(const std::function<double()>& f, float& x,
                             float eps = 1e-3f) {
  const float saved = x;
  x = saved + eps;
  const double hi = f();
  x = saved - eps;
  const double lo = f();
  x = saved;
  return (hi - lo) / (2.0 * static_cast<double>(eps));
}

/// A one-shot latch for GatedBackend. Until open(), every gated predict call
/// blocks inside the serving worker that made it, so requests submitted
/// meanwhile stay queued behind that batch — the deterministic way to build
/// a backlog or hold work in flight, with no timers.
class Gate {
 public:
  /// Release every held call and let all later calls through. Idempotent.
  void open() {
    {
      const MutexLock lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Block until `n` gated calls in total have reached the gate.
  void wait_for_callers(std::size_t n) {
    const MutexLock lock(m_);
    while (callers_ < n) cv_.wait(m_);
  }

  /// Called by GatedBackend: count the caller, then wait for open().
  void pass() {
    const MutexLock lock(m_);
    ++callers_;
    cv_.notify_all();
    while (!open_) cv_.wait(m_);
  }

 private:
  Mutex m_;
  CondVar cv_;
  bool open_ SMORE_GUARDED_BY(m_) = false;
  std::size_t callers_ SMORE_GUARDED_BY(m_) = 0;
};

/// Opens a gate when destroyed. Declared after the gated server, it runs
/// first on every exit from a test body, so a fatal assertion that returns
/// early never leaves the server's destructor joining a held worker.
class GateRelease {
 public:
  explicit GateRelease(Gate& gate) : gate_(gate) {}
  ~GateRelease() { gate_.open(); }
  GateRelease(const GateRelease&) = delete;
  GateRelease& operator=(const GateRelease&) = delete;

 private:
  Gate& gate_;
};

/// InferenceBackend decorator: predict_batch_full passes the gate, then
/// forwards to the wrapped backend (answers are unchanged).
class GatedBackend final : public InferenceBackend {
 public:
  GatedBackend(std::shared_ptr<const InferenceBackend> inner,
               std::shared_ptr<Gate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}

  [[nodiscard]] SmoreBatchResult predict_batch_full(
      HvView queries) const override {
    gate_->pass();
    return inner_->predict_batch_full(queries);
  }
  [[nodiscard]] std::size_t footprint_bytes() const noexcept override {
    return inner_->footprint_bytes();
  }
  [[nodiscard]] std::size_t dim() const noexcept override {
    return inner_->dim();
  }
  [[nodiscard]] std::size_t num_domains() const noexcept override {
    return inner_->num_domains();
  }
  [[nodiscard]] ServeBackend kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }

 private:
  std::shared_ptr<const InferenceBackend> inner_;
  std::shared_ptr<Gate> gate_;
};

/// A copy of `snap` that serves through a GatedBackend on `gate`.
inline std::shared_ptr<const ModelSnapshot> gated(
    const std::shared_ptr<const ModelSnapshot>& snap,
    std::shared_ptr<Gate> gate) {
  auto copy = std::make_shared<ModelSnapshot>(*snap);
  copy->backend =
      std::make_shared<const GatedBackend>(snap->backend, std::move(gate));
  return copy;
}

}  // namespace smore::testing
