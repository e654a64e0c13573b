// SMORE serving benchmark: three fixed workloads driven open-loop through the
// public serving APIs, every answer checked against a direct prediction,
// end-to-end metrics from an untraced run and a per-layer breakdown from a
// traced run of the same workload and seed.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --smoke          every workload at toy size, gate on
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Lines before it are the run record: the kernel tier and per-slot variants,
// the fixed workload constants, every phase's counts and percentiles with
// their sample support, and each workload's measured defining property.
// Workload constants live in kWorkloads below (BENCHMARK.json holds only the
// metric contract); metric names are stable — later changes cite them.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/binary_smore.hpp"
#include "core/inference_backend.hpp"
#include "core/pipeline.hpp"
#include "core/smore.hpp"
#include "data/synthetic.hpp"
#include "hdc/dispatch.hpp"
#include "hdc/encoder.hpp"
#include "hdc/hv_dataset.hpp"
#include "hdc/hv_matrix.hpp"
#include "hdc/ops_binary.hpp"
#include "loadgen.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "serve/adaptation.hpp"
#include "serve/backend.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using smore::HvDataset;
using smore::HvMatrix;
using smore::HvView;
using smore::ModelSnapshot;
using smore::Rng;
using smore::ServeResult;
using smore::SmoreBatchResult;
using smore::obs::JsonValue;

// ------------------------------------------------------------ constants

/// The fixed definition of one workload. Rates are requests per second;
/// the ladder is geometric: ladder_lo · ladder_step^i, i < ladder_rungs.
struct WorkloadSpec {
  const char* name;
  double light_rate;
  double heavy_rate;
  double ladder_lo;
  double ladder_step;
  int ladder_rungs;
  double limit_ms;  ///< p99 latency limit (capacity criterion + slo_frac)
};

// Rates keep the heavy phase well below capacity: on a shared host a
// preempted vCPU slows the CPU for seconds at a time, and near saturation
// queueing multiplies that into the median. Latency limits sit above the
// p99 that host noise alone produces, so a failed ladder rung means the
// server fell behind (a shed, or a backlog), not that the host hiccuped.
constexpr WorkloadSpec kWorkloads[] = {
    {"fleet-zipf", 10000, 40000, 50000, 1.06, 24, 10.0},
    {"edge-raw", 150, 400, 1500, 1.07, 24, 100.0},
    {"drift-adapt", 2000, 5000, 20000, 1.1, 24, 25.0},
};

/// Light/heavy slices per untraced run (see run_untraced).
constexpr int kRounds = 12;
/// Shares of --seconds for each metric's slices in the untraced run.
constexpr double kLightShare = 0.35;
constexpr double kHeavyShare = 0.55;
constexpr double kDirectShare = 0.10;

/// Sizes of the generated inputs and the program's configuration. `smoke`
/// shrinks every size so every workload runs in seconds.
struct Sizes {
  std::size_t dim = 2048;
  double uschad_scale = 0.03;  ///< USC-HAD-shaped data (6 ch × 126 steps)
  int heldout_domain = 0;      ///< the LODO fold's target domain
  std::size_t zipf_tenants = 64;
  std::size_t drift_tenants = 4;
  int drift_classes = 6;
  int drift_source_domains = 3;
  std::size_t drift_per_cell = 20;
  std::size_t drift_noise_pool = 512;
  double drift_segment_s = 0.25;  ///< world length per tenant
  std::size_t setup_repeats = 5;
};

Sizes sizes_for(bool smoke) {
  Sizes s;
  if (smoke) {
    s.dim = 512;
    s.uschad_scale = 0.01;
    s.zipf_tenants = 8;
    s.drift_per_cell = 8;
    s.drift_noise_pool = 64;
    s.drift_segment_s = 0.1;
    s.setup_repeats = 1;
  }
  return s;
}

// ------------------------------------------------------------ helpers

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Process peak resident set (VmHWM) in MiB; 0 where /proc is absent.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Host CPU jiffies {steal, total} from /proc/stat ({0, 0} where absent):
/// the share of time the hypervisor ran someone else on this VM's vCPUs.
std::pair<double, double> host_steal_jiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) return {0.0, 0.0};
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

std::uint32_t zipf_sample(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                            cdf.size() - 1));
}

std::vector<std::string> tenant_names(std::size_t n) {
  std::vector<std::string> out;
  char buf[32];
  for (std::size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "t%03zu", i);
    out.emplace_back(buf);
  }
  return out;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Rows [first, first + n) of a pool, wrapping around its end.
HvMatrix rows_of(HvView pool, std::size_t first, std::size_t n) {
  HvMatrix out(n, pool.dim);
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = pool.row((first + i) % pool.rows);
    std::copy(r.begin(), r.end(), out.row(i).begin());
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Served answer == the direct answer for query row `q` of `expected`,
/// bit for bit (label, OOD flag, δ_max, every ensemble weight).
bool matches(const ServeResult& r, const SmoreBatchResult& expected,
             std::size_t q) {
  const std::size_t k = expected.num_domains;
  if (r.label != expected.labels[q]) return false;
  if (r.is_ood != (expected.ood[q] != 0)) return false;
  if (!same_bits(r.max_similarity, expected.max_similarity[q])) return false;
  if (r.weights.size() != k) return false;
  for (std::size_t j = 0; j < k; ++j) {
    if (!same_bits(r.weights[j], expected.weights[q * k + j])) return false;
  }
  return true;
}

/// Answer invariants that hold for every generation: label in range, one
/// weight per live domain (K within the cap), every weight finite and
/// non-negative, and at least one positive — the ensemble is well-defined
/// (the default standardized-softmax weights are exp(z-score), unnormalized).
bool plausible(const ServeResult& r, int classes, std::size_t max_k) {
  if (r.label < 0 || r.label >= classes) return false;
  if (r.weights.empty() || r.weights.size() > max_k) return false;
  bool any_positive = false;
  for (const double w : r.weights) {
    if (!std::isfinite(w) || w < 0.0) return false;
    any_positive = any_positive || w > 0.0;
  }
  return any_positive;
}

// ------------------------------------------------------------ phases

/// Exact statistics of one phase.
struct PhaseStats {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  std::size_t scheduled = 0, sent = 0, ok = 0, shed = 0, failed = 0;
  std::size_t within_limit = 0;  ///< ok and latency <= limit
  std::size_t correct_label = 0;
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0;
  double p99_window_ms = 0.0;  ///< median window p99 (windowed_percentile)
  double late_p50_ms = 0.0, late_p99_ms = 0.0, late_max_ms = 0.0;
  double served_qps = 0.0;  ///< ok / (last completion - first due)
  double cpu_us_per_req = 0.0;  ///< program CPU (all but client threads) / ok
  bool aborted = false;
  std::size_t slices = 1;        ///< > 1: percentiles are slice medians
  std::size_t min_slice_ok = 0;  ///< support of each slice's percentiles

  [[nodiscard]] std::size_t failures() const { return shed + failed; }
};

PhaseStats summarize(const std::string& name, double rate, double seconds,
                     const std::vector<Sample>& samples, double limit_ms) {
  PhaseStats p;
  p.name = name;
  p.rate = rate;
  p.seconds = seconds;
  p.scheduled = samples.size();
  std::vector<double> lat;
  std::vector<double> late;
  std::int64_t first_due = 0, last_done = 0;
  bool any = false;
  for (const Sample& s : samples) {
    if (s.outcome == Outcome::kNotSent) {
      p.aborted = true;
      continue;
    }
    ++p.sent;
    late.push_back(s.lateness_ms());
    if (s.outcome == Outcome::kShed) ++p.shed;
    if (s.outcome == Outcome::kFailed) ++p.failed;
    if (s.outcome != Outcome::kOk) continue;
    ++p.ok;
    const double ms = s.latency_ms();
    lat.push_back(ms);
    if (ms <= limit_ms) ++p.within_limit;
    if (s.result.label == s.arrival.label) ++p.correct_label;
    if (!any || s.arrival.due_ns < first_due) first_due = s.arrival.due_ns;
    last_done = std::max(last_done, s.done_ns);
    any = true;
  }
  p.min_slice_ok = p.ok;
  if (!lat.empty()) {
    p.p99_window_ms = windowed_percentile(lat, 0.99);
    std::sort(lat.begin(), lat.end());
    p.p50_ms = percentile_sorted(lat, 0.50);
    p.p90_ms = percentile_sorted(lat, 0.90);
    p.p99_ms = percentile_sorted(lat, 0.99);
    p.p999_ms = percentile_sorted(lat, 0.999);
  }
  if (!late.empty()) {
    std::sort(late.begin(), late.end());
    p.late_p50_ms = percentile_sorted(late, 0.50);
    p.late_p99_ms = percentile_sorted(late, 0.99);
    p.late_max_ms = late.back();
  }
  if (any && last_done > first_due) {
    p.served_qps = static_cast<double>(p.ok) /
                   (static_cast<double>(last_done - first_due) * 1e-9);
  }
  return p;
}

JsonValue phase_json(const PhaseStats& p) {
  JsonValue o = JsonValue::object();
  o.set("phase", p.name);
  o.set("rate_per_s", p.rate);
  o.set("seconds", p.seconds);
  o.set("scheduled", static_cast<std::uint64_t>(p.scheduled));
  o.set("sent", static_cast<std::uint64_t>(p.sent));
  o.set("ok", static_cast<std::uint64_t>(p.ok));
  o.set("failed", static_cast<std::uint64_t>(p.failed));
  o.set("shed", static_cast<std::uint64_t>(p.shed));
  o.set("aborted", p.aborted);
  JsonValue pct = JsonValue::object();
  const std::pair<const char*, std::pair<double, double>> rows[] = {
      {"p50", {0.50, p.p50_ms}},
      {"p90", {0.90, p.p90_ms}},
      {"p99", {0.99, p.p99_ms}},
      {"p99.9", {0.999, p.p999_ms}}};
  std::string highest = "none";
  for (const auto& [label, qv] : rows) {
    const auto beyond = static_cast<std::uint64_t>(
        std::floor(static_cast<double>(p.min_slice_ok) * (1.0 - qv.first)));
    JsonValue e = JsonValue::object();
    e.set("ms", qv.second);
    e.set("samples", static_cast<std::uint64_t>(p.min_slice_ok));
    e.set("beyond", beyond);
    pct.set(label, std::move(e));
    if (beyond >= kTailSupport) highest = label;
  }
  o.set("latency_from_due", std::move(pct));
  o.set("slices", static_cast<std::uint64_t>(p.slices));
  o.set("p99_median_window_ms", p.p99_window_ms);
  o.set("highest_supported_percentile", highest);
  JsonValue late = JsonValue::object();
  late.set("p50_ms", p.late_p50_ms);
  late.set("p99_ms", p.late_p99_ms);
  late.set("max_ms", p.late_max_ms);
  o.set("generator_lateness", std::move(late));
  o.set("served_per_s", p.served_qps);
  o.set("program_cpu_us_per_request", p.cpu_us_per_req);
  return o;
}

void print_phase(const PhaseStats& p) {
  std::printf(
      "  %-12s rate %8.0f/s  sent %7zu ok %7zu shed %5zu failed %5zu | "
      "p50 %8.3f p99 %8.3f (window %8.3f) p99.9 %8.3f ms | late p99 "
      "%7.3f max %7.3f ms%s\n",
      p.name.c_str(), p.rate, p.sent, p.ok, p.shed, p.failed, p.p50_ms,
      p.p99_ms, p.p99_window_ms, p.p999_ms, p.late_p99_ms, p.late_max_ms,
      p.aborted ? "  [aborted]" : "");
  std::fflush(stdout);
}

// ------------------------------------------------------------ replays

using ReplayStep = std::function<std::pair<std::int64_t, std::size_t>()>;

/// µs per unit of each of repeated replays within `seconds` (at least five
/// of them). `step` prepares its inputs untimed and returns {kernel ns,
/// units}.
std::vector<double> replay_samples(double seconds, const ReplayStep& step) {
  std::vector<double> per_unit;
  const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (per_unit.size() < 5 ||
         (now_ns() < t_end && per_unit.size() < 200000)) {
    const auto [ns, units] = step();
    if (units > 0) {
      per_unit.push_back(static_cast<double>(ns) * 1e-3 /
                         static_cast<double>(units));
    }
  }
  return per_unit;
}

/// Quantile `q` of replay_samples (the median by default).
double replay_us_per_unit(double seconds, const ReplayStep& step,
                          double q = 0.5) {
  return percentile(replay_samples(seconds, step), q);
}

/// Quantile of per-call time that direct_qps reports, over every direct
/// call of the run (all slices pooled). A call the host preempted or
/// slowed (a descheduled thread, a neighbour's burst) is slower, never
/// faster, so the run's fast tail is what the code costs, and contention
/// over part of the run does not move it.
constexpr double kDirectQuantile = 0.05;

/// Runs `fn` and returns its duration in ns.
template <typename Fn>
std::int64_t timed_ns(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return now_ns() - t0;
}

/// The run's batch sizes, shuffled deterministically and cycled.
class BatchCycle {
 public:
  BatchCycle(std::vector<std::size_t> sizes, std::uint64_t seed)
      : sizes_(std::move(sizes)) {
    if (sizes_.empty()) sizes_.push_back(1);
    Rng rng(seed);
    for (std::size_t i = sizes_.size(); i > 1; --i) {
      std::swap(sizes_[i - 1], sizes_[rng.index(i)]);
    }
  }
  std::size_t next() { return sizes_[i_++ % sizes_.size()]; }

 private:
  std::vector<std::size_t> sizes_;
  std::size_t i_ = 0;
};

/// Replays the backend kernels over a query pool at the run's batch sizes:
/// the full predict, the descriptor similarity alone, and (packed
/// snapshots) the query sign-pack. Class similarity + ensemble is the
/// remainder of the full predict.
void replay_core(const ModelSnapshot& snap, HvView pool,
                 const std::vector<std::size_t>& batch_sizes, double seconds,
                 std::uint64_t seed, std::map<std::string, double>& m) {
  std::size_t offset = 0;
  auto next_rows = [&](BatchCycle& cycle) {
    const std::size_t n = cycle.next();
    offset += n;
    return rows_of(pool, offset, n);
  };
  BatchCycle predict_cycle(batch_sizes, seed);
  BatchCycle sim_cycle(batch_sizes, seed + 1);
  BatchCycle pack_cycle(batch_sizes, seed + 2);
  const double predict = replay_us_per_unit(seconds / 3, [&] {
    const HvMatrix q = next_rows(predict_cycle);
    return std::pair{timed_ns([&] {
                       (void)snap.backend->predict_batch_full(q.view());
                     }),
                     q.rows()};
  });
  double pack = 0.0;
  double sim = 0.0;
  if (snap.packed != nullptr) {
    pack = replay_us_per_unit(seconds / 3, [&] {
      const HvMatrix q = next_rows(pack_cycle);
      return std::pair{timed_ns([&] {
                         (void)smore::ops::sign_pack_matrix(q.view());
                       }),
                       q.rows()};
    });
    sim = replay_us_per_unit(seconds / 3, [&] {
      const HvMatrix q = next_rows(sim_cycle);
      const smore::BitMatrix bits = smore::ops::sign_pack_matrix(q.view());
      return std::pair{timed_ns([&] {
                         (void)snap.packed->similarities_batch(bits.view());
                       }),
                       q.rows()};
    });
  } else {
    sim = replay_us_per_unit(seconds / 3, [&] {
      const HvMatrix q = next_rows(sim_cycle);
      return std::pair{timed_ns([&] {
                         (void)snap.model->similarities_batch(q.view());
                       }),
                       q.rows()};
    });
  }
  m["core.predict_us_per_row"] = predict;
  m["hdc.sign_pack_us_per_row"] = pack;
  m["core.desc_sim_us_per_row"] = sim;
  m["core.class_ens_us_per_row"] = predict - pack - sim;
}

/// Direct (serverless) calls of `backend` over a query pool, max_batch rows
/// per call: the µs per row of each call. Each call's rows are first copied
/// into one batch, untimed, as a server's worker fills its batch from the
/// requests, so the kernel reads cache-warm rows as it does when served,
/// and the figure does not follow the host's memory traffic. The batch
/// starts on a cache line: the packed kernels ran up to 17% faster on it
/// than on the 16-byte alignment a heap block may have, so an alignment left
/// to the heap moved the ceiling from run to run by that much.
std::vector<double> direct_us_per_row(double seconds,
                                      const smore::InferenceBackend& backend,
                                      HvView pool, std::size_t max_batch) {
  constexpr std::size_t kLine = 64 / sizeof(float);
  std::vector<float> storage(max_batch * pool.dim + kLine);
  float* rows = storage.data();
  while (reinterpret_cast<std::uintptr_t>(rows) % 64 != 0) ++rows;
  const HvView batch(rows, max_batch, pool.dim);
  std::size_t first = 0;
  return replay_samples(seconds, [&] {
    for (std::size_t i = 0; i < max_batch; ++i) {
      const auto r = pool.row((first + i) % pool.rows);
      std::copy(r.begin(), r.end(), rows + i * pool.dim);
    }
    first = (first + max_batch) % pool.rows;
    return std::pair{
        timed_ns([&] { (void)backend.predict_batch_full(batch); }),
        max_batch};
  });
}

// ------------------------------------------------------------ workloads

/// Server-side counters of one phase (deltas of the plane's stats()).
struct Counters {
  std::uint64_t batches = 0, rows = 0, ood = 0;
  std::uint64_t adapt_rounds = 0, adapt_absorbed = 0, adapt_merged = 0,
                adapt_evicted = 0;
  std::uint64_t reg_hits = 0, reg_misses = 0;
  std::size_t reg_peak_bytes = 0;  ///< a high-water mark: not differenced

  [[nodiscard]] Counters minus(const Counters& b) const {
    Counters d = *this;
    d.batches -= b.batches;
    d.rows -= b.rows;
    d.ood -= b.ood;
    d.adapt_rounds -= b.adapt_rounds;
    d.adapt_absorbed -= b.adapt_absorbed;
    d.adapt_merged -= b.adapt_merged;
    d.adapt_evicted -= b.adapt_evicted;
    d.reg_hits -= b.reg_hits;
    d.reg_misses -= b.reg_misses;
    return d;
  }
};

Counters fleet_counters(const smore::MultiTenantServer& server) {
  const smore::MultiTenantStats s = server.stats();
  Counters c;
  c.batches = s.batches;
  c.rows = s.batched_rows;
  c.ood = s.ood_flagged;
  c.adapt_rounds = s.adaptation_rounds;
  c.adapt_absorbed = s.adaptation_absorbed;
  c.adapt_merged = s.adaptation_merged;
  c.adapt_evicted = s.adaptation_evicted;
  c.reg_hits = s.registry.hits;
  c.reg_misses = s.registry.misses;
  c.reg_peak_bytes = s.registry.peak_resident_bytes;
  return c;
}

/// What every workload provides to the phase runner and the metric code.
class Workload {
 public:
  Workload(const WorkloadSpec& spec, const Sizes& sizes, std::uint64_t seed)
      : spec_(spec), sizes_(sizes), seed_(seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }

  /// Build the deployable state from the generated inputs (fit, calibrate,
  /// quantize, artifact). Sets the core.* setup timings.
  virtual void prepare() = 0;
  /// (Re)start the server reporting into `hub` (null = the program's
  /// default telemetry) and answer its warm-up requests.
  virtual void start(std::shared_ptr<smore::obs::Telemetry> hub) = 0;
  /// Graceful shutdown of the server (state stays readable for the gate).
  virtual void stop() = 0;
  /// Called before each phase's schedule is drawn.
  virtual void new_phase() {}
  /// Traffic: tenant, query and ground truth of an arrival due at `t`.
  virtual void fill(Rng& rng, double t, Arrival& a) = 0;
  virtual SubmitFn submitter() = 0;
  /// Answers that fail the correctness gate. With `corrupt` one expected
  /// answer is altered first: the gate's self-check.
  virtual std::size_t mismatches(const std::vector<const Sample*>& answers,
                                 bool corrupt) = 0;
  /// Calls without a server, max_batch rows (windows) each, for `seconds`:
  /// the µs per row of each call.
  virtual std::vector<double> direct_us_per_row(double seconds) = 0;
  /// Tenant name as the trace spans carry it.
  [[nodiscard]] virtual std::string tenant_label(std::uint32_t t) const = 0;
  /// First tenant rank of the tail cohort (Zipf ranks T/2 .. T-1).
  [[nodiscard]] virtual std::uint32_t tail_rank() const = 0;
  [[nodiscard]] virtual Counters counters() const = 0;
  [[nodiscard]] virtual std::shared_ptr<smore::obs::Telemetry> hub() const = 0;
  /// Serving-state size of the live model(s) in bytes (computed).
  [[nodiscard]] virtual double state_bytes() const = 0;
  /// Per-layer replays at the run's batch sizes (traced run only).
  virtual void replay(const std::vector<std::size_t>& batch_sizes,
                      const std::vector<Sample>& heavy, double seconds,
                      std::map<std::string, double>& m) = 0;
  /// drift-adapt's adaptation latency over a phase; 0 elsewhere.
  virtual double adapt_ms(const std::vector<Sample>& samples) {
    (void)samples;
    return 0.0;
  }

  double fit_s = 0.0, calibrate_s = 0.0, quantize_s = 0.0;

 protected:
  WorkloadSpec spec_;
  Sizes sizes_;
  std::uint64_t seed_;
};

/// Query order over a pool of `n`: a seeded permutation cycled in arrival
/// order, so every held-out window is asked equally often and accuracy
/// measures the model, not which windows the draw happened to favour.
class QueryCycle {
 public:
  QueryCycle(std::size_t n, std::uint64_t seed) : order_(n) {
    std::iota(order_.begin(), order_.end(), 0U);
    Rng rng(seed);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.index(i)]);
    }
  }
  std::uint32_t next() { return order_[cursor_++ % order_.size()]; }

 private:
  std::vector<std::uint32_t> order_;
  std::size_t cursor_ = 0;
};

/// A USC-HAD-shaped leave-one-domain-out fold: the source domains train,
/// the held-out domain is the query stream.
struct LodoFold {
  smore::WindowDataset train;
  smore::WindowDataset heldout;
};

/// The fold's world (subjects, their shifts, the windows) is fixed; the
/// run seed drives the traffic drawn from it. A world per seed would swing
/// held-out accuracy between 0.2 and 0.8 — the fold's difficulty, not the
/// program's.
LodoFold make_fold(const Sizes& sizes) {
  const smore::WindowDataset all =
      smore::generate_dataset(smore::uschad_spec(sizes.uschad_scale));
  LodoFold f{smore::WindowDataset(all.name(), all.channels(), all.steps()),
             smore::WindowDataset(all.name(), all.channels(), all.steps())};
  for (const smore::Window& w : all.windows()) {
    (w.domain() == sizes.heldout_domain ? f.heldout : f.train).add(w);
  }
  return f;
}

smore::EncoderConfig encoder_config(const Sizes& sizes) {
  smore::EncoderConfig ec;
  ec.dim = sizes.dim;
  return ec;
}

/// fleet-zipf: MultiTenantServer over a ModelRegistry whose tenants all
/// deploy the fold's packed Pipeline artifact; the registry holds them all,
/// so the timed phases only take hot lookups. Queries are the held-out
/// domain, pre-encoded during setup.
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const WorkloadSpec& spec, const Sizes& sizes,
                std::uint64_t seed)
      : Workload(spec, sizes, seed),
        fold_(make_fold(sizes)),
        names_(tenant_names(sizes.zipf_tenants)),
        cdf_(zipf_cdf(sizes.zipf_tenants, 1.0)),
        order_(fold_.heldout.size(), seed) {}

  ~FleetWorkload() override { stop(); }

  void prepare() override {
    std::int64_t t = now_ns();
    pipeline_ = std::make_unique<smore::Pipeline>(
        std::make_shared<const smore::MultiSensorEncoder>(
            encoder_config(sizes_)),
        fold_.train.num_classes());
    pipeline_->fit(fold_.train);
    fit_s = seconds_since(t);
    t = now_ns();
    pipeline_->quantize();
    quantize_s = seconds_since(t);
    t = now_ns();
    pipeline_->calibrate(fold_.train);  // after quantize: both δ* scales
    calibrate_s = seconds_since(t);
    std::ostringstream out(std::ios::binary);
    pipeline_->save(out);
    artifact_ = std::make_shared<const std::string>(out.str());
    queries_ = pipeline_->encode(fold_.heldout);
    reference_ = load_snapshot();
    model_bytes_ = smore::snapshot_resident_bytes(*reference_);
    expected_.reset();
  }

  void start(std::shared_ptr<smore::obs::Telemetry> hub) override {
    stop();
    registry_ = std::make_shared<smore::ModelRegistry>(
        [artifact = artifact_](const std::string&) {
          std::istringstream in(*artifact, std::ios::binary);
          return ModelSnapshot::from_artifact(in, /*version=*/1);
        });
    smore::MultiTenantConfig cfg;
    cfg.telemetry = std::move(hub);
    server_ = std::make_unique<smore::MultiTenantServer>(registry_, cfg);
    const auto row = queries_.row(0);
    for (std::size_t r = 0; r < names_.size(); ++r) {
      (void)server_->submit(names_[r], {row.begin(), row.end()}).get();
    }
  }

  void stop() override {
    if (server_ != nullptr) server_->shutdown();
  }

  void fill(Rng& rng, double, Arrival& a) override {
    a.tenant = zipf_sample(cdf_, rng.uniform());
    a.query = order_.next();
    a.label = queries_.label(a.query);
  }

  /// The blocking submit(): a client that must not lose a request waits
  /// while the shard queue is full, and the wait is charged to every
  /// request it delays (latency runs from the due time). try_submit would
  /// shed whenever a host stall of a few tens of milliseconds fills the
  /// tenant quota at the heavy rate, and a failure count that follows the
  /// host's hiccups cannot be compared from run to run.
  SubmitFn submitter() override {
    return [this](const Arrival& a) {
      const auto row = queries_.row(a.query);
      return std::optional{
          server_->submit(names_[a.tenant], {row.begin(), row.end()})};
    };
  }

  std::size_t mismatches(const std::vector<const Sample*>& answers,
                         bool corrupt) override {
    if (!expected_) {
      expected_ = std::make_unique<SmoreBatchResult>(
          reference_->backend->predict_batch_full(queries_.view()));
    }
    SmoreBatchResult expected = *expected_;
    std::size_t bad = 0;
    bool corrupted = !corrupt;
    for (const Sample* a : answers) {
      const Sample& s = *a;
      if (s.outcome != Outcome::kOk) continue;
      const std::size_t q = s.arrival.query;
      if (!corrupted) {
        expected.labels[q] = (expected.labels[q] + 1) % pipeline_->num_classes();
        corrupted = true;
      }
      if (s.result.snapshot_version != 1 || !matches(s.result, expected, q)) {
        ++bad;
      }
    }
    return bad;
  }

  std::vector<double> direct_us_per_row(double seconds) override {
    return perfbench::direct_us_per_row(seconds, *reference_->backend,
                                        queries_.view(),
                                        smore::MultiTenantConfig{}.max_batch);
  }

  [[nodiscard]] std::string tenant_label(std::uint32_t t) const override {
    return names_[t];
  }
  [[nodiscard]] std::uint32_t tail_rank() const override {
    return static_cast<std::uint32_t>(names_.size() / 2);
  }
  [[nodiscard]] Counters counters() const override {
    return fleet_counters(*server_);
  }
  [[nodiscard]] std::shared_ptr<smore::obs::Telemetry> hub() const override {
    return server_->telemetry();
  }
  [[nodiscard]] double state_bytes() const override {
    return static_cast<double>(reference_->backend->footprint_bytes());
  }

  void replay(const std::vector<std::size_t>& batch_sizes,
              const std::vector<Sample>&, double seconds,
              std::map<std::string, double>& m) override {
    replay_core(*reference_, queries_.view(), batch_sizes, seconds * 0.5,
                seed_, m);
    // Setup encodes the held-out domain as one parallel batch.
    m["hdc.encode_us_per_window"] = replay_us_per_unit(seconds * 0.2, [&] {
      HvMatrix out(fold_.heldout.size(), pipeline_->dim());
      return std::pair{timed_ns([&] {
                         pipeline_->encoder().encode_batch(fold_.heldout, out,
                                                           true);
                       }),
                       fold_.heldout.size()};
    });
    std::vector<double> load_ms;
    const std::int64_t t_end =
        now_ns() + static_cast<std::int64_t>(seconds * 0.15 * 1e9);
    while (load_ms.size() < 5 || (now_ns() < t_end && load_ms.size() < 200)) {
      load_ms.push_back(1e-6 * static_cast<double>(timed_ns([&] {
        std::istringstream in(*artifact_, std::ios::binary);
        (void)smore::Pipeline::load(in);
      })));
    }
    m["core.load_ms_p50"] = median(load_ms);
    // Cold acquire through a fresh registry: probe-free load + snapshot.
    smore::ModelRegistry cold(
        [artifact = artifact_](const std::string&) {
          std::istringstream in(*artifact, std::ios::binary);
          return ModelSnapshot::from_artifact(in, 1);
        });
    std::vector<double> acquire_ms;
    const std::int64_t a_end =
        now_ns() + static_cast<std::int64_t>(seconds * 0.15 * 1e9);
    for (std::size_t i = 0; i < std::min<std::size_t>(names_.size(), 16) &&
                            (acquire_ms.size() < 5 || now_ns() < a_end);
         ++i) {
      acquire_ms.push_back(1e-6 * static_cast<double>(timed_ns([&] {
        (void)cold.acquire(names_[i]);
      })));
    }
    m["registry.cold_acquire_ms_p50"] = median(acquire_ms);
  }

 private:
  std::shared_ptr<const ModelSnapshot> load_snapshot() const {
    std::istringstream in(*artifact_, std::ios::binary);
    return ModelSnapshot::from_artifact(in, 1);
  }

  LodoFold fold_;
  std::vector<std::string> names_;
  std::vector<double> cdf_;
  QueryCycle order_;
  std::unique_ptr<smore::Pipeline> pipeline_;
  std::shared_ptr<const std::string> artifact_;
  HvDataset queries_;
  std::shared_ptr<const ModelSnapshot> reference_;
  std::size_t model_bytes_ = 0;
  std::unique_ptr<SmoreBatchResult> expected_;
  std::shared_ptr<smore::ModelRegistry> registry_;
  std::unique_ptr<smore::MultiTenantServer> server_;
};

/// edge-raw: one InferenceServer booted from the fold's float Pipeline;
/// raw windows are submitted one at a time and encoded inside each batch.
class EdgeWorkload final : public Workload {
 public:
  EdgeWorkload(const WorkloadSpec& spec, const Sizes& sizes,
               std::uint64_t seed)
      : Workload(spec, sizes, seed),
        fold_(make_fold(sizes)),
        order_(fold_.heldout.size(), seed) {
    for (std::size_t first = 0; first < fold_.heldout.size();
         first += smore::ServerConfig{}.max_batch) {
      smore::WindowDataset chunk(fold_.heldout.name(),
                                 fold_.heldout.channels(),
                                 fold_.heldout.steps());
      for (std::size_t i = first; i < fold_.heldout.size() &&
                                  i < first + smore::ServerConfig{}.max_batch;
           ++i) {
        chunk.add(fold_.heldout[i]);
      }
      chunks_.push_back(std::move(chunk));
    }
  }

  ~EdgeWorkload() override { stop(); }

  void prepare() override {
    std::int64_t t = now_ns();
    pipeline_ = std::make_unique<smore::Pipeline>(
        std::make_shared<const smore::MultiSensorEncoder>(
            encoder_config(sizes_)),
        fold_.train.num_classes());
    pipeline_->fit(fold_.train);
    fit_s = seconds_since(t);
    t = now_ns();
    pipeline_->calibrate(fold_.train);
    calibrate_s = seconds_since(t);
    quantize_s = 0.0;  // the edge plane serves the float backend
    expected_.reset();
  }

  void start(std::shared_ptr<smore::obs::Telemetry> hub) override {
    stop();
    smore::ServerConfig cfg;
    cfg.telemetry = std::move(hub);
    server_ = std::make_unique<smore::InferenceServer>(*pipeline_, cfg);
    snapshot_ = server_->snapshot();
    for (std::size_t i = 0; i < 16; ++i) {
      (void)server_->submit(fold_.heldout[i % fold_.heldout.size()]).get();
    }
  }

  void stop() override {
    if (server_ != nullptr) server_->shutdown();
  }

  void fill(Rng&, double, Arrival& a) override {
    a.query = order_.next();
    a.label = fold_.heldout[a.query].label();
  }

  SubmitFn submitter() override {
    return [this](const Arrival& a)
               -> std::optional<std::future<ServeResult>> {
      return server_->submit(fold_.heldout[a.query]);
    };
  }

  std::size_t mismatches(const std::vector<const Sample*>& answers,
                         bool corrupt) override {
    if (!expected_) {
      expected_ = std::make_unique<SmoreBatchResult>(
          snapshot_->backend->predict_batch_full(encoded().view()));
    }
    SmoreBatchResult expected = *expected_;
    std::size_t bad = 0;
    bool corrupted = !corrupt;
    for (const Sample* a : answers) {
      const Sample& s = *a;
      if (s.outcome != Outcome::kOk) continue;
      const std::size_t q = s.arrival.query;
      if (!corrupted) {
        expected.labels[q] = (expected.labels[q] + 1) % pipeline_->num_classes();
        corrupted = true;
      }
      if (s.result.snapshot_version != snapshot_->version ||
          !matches(s.result, expected, q)) {
        ++bad;
      }
    }
    return bad;
  }

  std::vector<double> direct_us_per_row(double seconds) override {
    std::size_t next_chunk = 0;
    return replay_samples(seconds, [&] {
      const smore::WindowDataset& chunk = chunks_[next_chunk++ % chunks_.size()];
      return std::pair{timed_ns([&] {
                         (void)pipeline_->predict_batch_full(chunk);
                       }),
                       chunk.size()};
    });
  }

  [[nodiscard]] std::string tenant_label(std::uint32_t) const override {
    return "";
  }
  [[nodiscard]] std::uint32_t tail_rank() const override { return 0; }
  [[nodiscard]] Counters counters() const override {
    const smore::ServerStats s = server_->stats();
    Counters c;
    c.batches = s.batches;
    c.rows = s.batched_rows;
    c.ood = s.ood_flagged;
    return c;
  }
  [[nodiscard]] std::shared_ptr<smore::obs::Telemetry> hub() const override {
    return server_->telemetry();
  }
  [[nodiscard]] double state_bytes() const override {
    return static_cast<double>(snapshot_->backend->footprint_bytes());
  }

  void replay(const std::vector<std::size_t>& batch_sizes,
              const std::vector<Sample>&, double seconds,
              std::map<std::string, double>& m) override {
    replay_core(*snapshot_, encoded().view(), batch_sizes, seconds * 0.4,
                seed_, m);
    // In-batch encoding at the run's batch sizes; the server encodes with
    // the pool when it runs one worker.
    BatchCycle cycle(batch_sizes, seed_ + 3);
    std::size_t offset = 0;
    m["hdc.encode_us_per_window"] = replay_us_per_unit(seconds * 0.4, [&] {
      const std::size_t n = cycle.next();
      smore::WindowDataset batch(fold_.heldout.name(), fold_.heldout.channels(),
                                 fold_.heldout.steps());
      for (std::size_t i = 0; i < n; ++i) {
        batch.add(fold_.heldout[(offset + i) % fold_.heldout.size()]);
      }
      offset += n;
      HvMatrix out(n, pipeline_->dim());
      return std::pair{timed_ns([&] {
                         pipeline_->encoder().encode_batch(
                             batch, out,
                             smore::ServerConfig{}.num_workers == 1);
                       }),
                       n};
    });
    std::ostringstream saved(std::ios::binary);
    pipeline_->save(saved);
    const std::string artifact = saved.str();
    std::vector<double> load_ms;
    const std::int64_t t_end =
        now_ns() + static_cast<std::int64_t>(seconds * 0.2 * 1e9);
    while (load_ms.size() < 5 || (now_ns() < t_end && load_ms.size() < 200)) {
      load_ms.push_back(1e-6 * static_cast<double>(timed_ns([&] {
        std::istringstream in(artifact, std::ios::binary);
        (void)smore::Pipeline::load(in);
      })));
    }
    m["core.load_ms_p50"] = median(load_ms);
  }

 private:
  const HvDataset& encoded() {
    if (encoded_.empty()) encoded_ = pipeline_->encode(fold_.heldout);
    return encoded_;
  }

  LodoFold fold_;
  QueryCycle order_;
  std::vector<smore::WindowDataset> chunks_;  ///< max_batch windows each
  std::unique_ptr<smore::Pipeline> pipeline_;
  std::unique_ptr<smore::InferenceServer> server_;
  std::shared_ptr<const ModelSnapshot> snapshot_;
  HvDataset encoded_;
  std::unique_ptr<SmoreBatchResult> expected_;
};

/// drift-adapt: the fleet plane with per-tenant bounded adaptation on.
/// bench_adaptation_lifecycle's construction in hypervector space — class
/// prototypes plus a per-world skew plus noise — so the class structure
/// survives every world. Each tenant's stream alternates between its source
/// worlds and never-seen worlds; onsets are staggered across tenants.
class DriftWorkload final : public Workload {
  /// The worlds (prototypes, skews, noise pool, training set) are fixed, as
  /// fleet-zipf's fold is; the run seed draws the traffic (arrival times,
  /// tenants, labels, noise rows). Worlds drawn per seed moved CPU per
  /// request by up to a tenth and accuracy by 1.5% between seeds: the
  /// scenario's difficulty, not the program's.
  static constexpr std::uint64_t kWorldSeed = 1;

 public:
  DriftWorkload(const WorkloadSpec& spec, const Sizes& sizes,
                std::uint64_t seed)
      : Workload(spec, sizes, seed),
        names_(tenant_names(sizes.drift_tenants)),
        dim_(sizes.dim),
        classes_(sizes.drift_classes),
        sources_(static_cast<std::uint32_t>(sizes.drift_source_domains)),
        noise_(sizes.drift_noise_pool, sizes.dim),
        train_(sizes.dim) {
    Rng rng(kWorldSeed);
    protos_.resize(static_cast<std::size_t>(classes_) * dim_);
    for (float& x : protos_) x = rng.bipolar();
    for (std::uint32_t s = 0; s < sources_; ++s) {
      std::vector<float> skew(dim_);
      for (float& x : skew) x = 0.5f * rng.bipolar();
      worlds_[s] = std::move(skew);
    }
    for (std::size_t i = 0; i < noise_.rows(); ++i) {
      for (float& x : noise_.row(i)) x = static_cast<float>(rng.normal(0.0, 0.4));
    }
    std::vector<float> row(dim_);
    for (std::uint32_t s = 0; s < sources_; ++s) {
      for (int c = 0; c < classes_; ++c) {
        for (std::size_t i = 0; i < sizes.drift_per_cell; ++i) {
          const float* p = protos_.data() + static_cast<std::size_t>(c) * dim_;
          for (std::size_t j = 0; j < dim_; ++j) {
            row[j] = p[j] + worlds_[s][j] +
                     static_cast<float>(rng.normal(0.0, 0.4));
          }
          train_.add(row, c, static_cast<int>(s));
        }
      }
    }
    // Direct-path pool: source worlds and unseen ones (phase 0's ids).
    pool_ = HvMatrix(sizes.drift_noise_pool, dim_);
    for (std::size_t i = 0; i < pool_.rows(); ++i) {
      Arrival a;
      a.tenant = static_cast<std::uint32_t>(i % names_.size());
      a.world = i % 2 == 0 ? static_cast<std::uint32_t>(i / 2 % sources_)
                           : new_world(a.tenant, static_cast<std::uint32_t>(i));
      a.label = static_cast<std::int32_t>(rng.index(
          static_cast<std::uint64_t>(classes_)));
      a.query = static_cast<std::uint32_t>(i % noise_.rows());
      build_row(a, pool_.row(i).data());
    }
  }

  ~DriftWorkload() override { stop(); }

  void prepare() override {
    std::int64_t t = now_ns();
    smore::SmoreModel model(classes_, dim_);
    model.fit(train_);
    fit_s = seconds_since(t);
    t = now_ns();
    model.calibrate_delta_star(train_, 0.05);
    calibrate_s = seconds_since(t);
    t = now_ns();
    // Quantize, then calibrate δ* on the Hamming scale.
    const auto made = ModelSnapshot::make(std::move(model), /*quantize=*/true,
                                          /*version=*/1);
    auto packed = std::make_shared<smore::BinarySmoreModel>(*made->packed);
    packed->calibrate_delta_star(train_, 0.05);
    auto boot = std::make_shared<ModelSnapshot>(*made);
    boot->packed = packed;
    boot->backend = smore::make_serving_backend(boot->model, packed);
    boot_ = std::move(boot);
    quantize_s = seconds_since(t);
  }

  void start(std::shared_ptr<smore::obs::Telemetry> hub) override {
    stop();
    registry_ = std::make_shared<smore::ModelRegistry>(
        [boot = boot_](const std::string&) { return boot; });
    smore::MultiTenantConfig cfg;
    cfg.adaptation = true;
    cfg.adapt_min_batch = kAdaptMinBatch;
    cfg.adapt_buffer_capacity = 4 * kAdaptMinBatch;
    cfg.lifecycle_config = lifecycle();
    cfg.telemetry = std::move(hub);
    server_ = std::make_unique<smore::MultiTenantServer>(registry_, cfg);
    last_version_.assign(names_.size(), 0);
    for (std::uint32_t t = 0; t < names_.size(); ++t) {
      Arrival a;
      a.tenant = t;
      a.world = t % sources_;
      a.label = static_cast<std::int32_t>(t % static_cast<std::uint32_t>(classes_));
      std::vector<float> row(dim_);
      build_row(a, row.data());
      (void)server_->submit(names_[t], std::move(row)).get();
    }
  }

  void stop() override {
    if (server_ != nullptr) server_->shutdown();
  }

  void new_phase() override { ++phase_; }

  void fill(Rng& rng, double t, Arrival& a) override {
    a.tenant = static_cast<std::uint32_t>(rng.index(names_.size()));
    const double stagger =
        static_cast<double>(a.tenant) / static_cast<double>(names_.size());
    const auto seg = static_cast<std::uint32_t>(
        std::floor(t / sizes_.drift_segment_s + stagger));
    a.world = seg % 2 == 0 ? (seg / 2 + a.tenant) % sources_
                           : new_world(a.tenant, seg);
    a.label = static_cast<std::int32_t>(
        rng.index(static_cast<std::uint64_t>(classes_)));
    a.query = static_cast<std::uint32_t>(rng.index(noise_.rows()));
  }

  SubmitFn submitter() override {
    return [this](const Arrival& a) {
      std::vector<float> row(dim_);
      build_row(a, row.data());
      // Blocking, as on fleet-zipf.
      return std::optional{server_->submit(names_[a.tenant], std::move(row))};
    };
  }

  /// Exact against the boot generation and each tenant's live one when the
  /// phase ended; invariants (label range, well-defined weights, K within
  /// the cap, versions never decreasing per tenant) for every answer.
  std::size_t mismatches(const std::vector<const Sample*>& answers,
                         bool corrupt) override {
    std::vector<std::shared_ptr<const ModelSnapshot>> final_gen;
    for (const std::string& name : names_) {
      const auto model = registry_->resident(name);
      final_gen.push_back(model != nullptr ? model->snapshot() : nullptr);
    }
    std::vector<std::uint64_t> last = last_version_;
    std::map<const ModelSnapshot*, std::vector<const Sample*>> exact;
    std::size_t bad = 0;
    for (const Sample* a : answers) {
      const Sample& s = *a;
      if (s.outcome != Outcome::kOk) continue;
      const std::uint64_t v = s.result.snapshot_version;
      if (!plausible(s.result, classes_, lifecycle().max_domains) ||
          v < last[s.arrival.tenant]) {
        ++bad;
        continue;
      }
      last[s.arrival.tenant] = v;
      const auto& fin = final_gen[s.arrival.tenant];
      if (v == boot_->version) {
        exact[boot_.get()].push_back(&s);
      } else if (fin != nullptr && v == fin->version) {
        exact[fin.get()].push_back(&s);
      }
    }
    bool corrupted = !corrupt;
    for (const auto& [snap, group] : exact) {
      constexpr std::size_t kChunk = 1024;
      for (std::size_t first = 0; first < group.size(); first += kChunk) {
        const std::size_t n = std::min(kChunk, group.size() - first);
        HvMatrix rows(n, dim_);
        for (std::size_t i = 0; i < n; ++i) {
          build_row(group[first + i]->arrival, rows.row(i).data());
        }
        SmoreBatchResult expected = snap->backend->predict_batch_full(rows.view());
        if (!corrupted) {
          expected.labels[0] = (expected.labels[0] + 1) % classes_;
          corrupted = true;
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (!matches(group[first + i]->result, expected, i)) ++bad;
        }
      }
    }
    if (!corrupt) last_version_ = std::move(last);
    return bad;
  }

  std::vector<double> direct_us_per_row(double seconds) override {
    return perfbench::direct_us_per_row(seconds, *boot_->backend,
                                        pool_.view(),
                                        smore::MultiTenantConfig{}.max_batch);
  }

  [[nodiscard]] std::string tenant_label(std::uint32_t t) const override {
    return names_[t];
  }
  [[nodiscard]] std::uint32_t tail_rank() const override {
    return static_cast<std::uint32_t>(names_.size() / 2);
  }
  [[nodiscard]] Counters counters() const override {
    return fleet_counters(*server_);
  }
  [[nodiscard]] std::shared_ptr<smore::obs::Telemetry> hub() const override {
    return server_->telemetry();
  }
  [[nodiscard]] double state_bytes() const override {
    double sum = 0.0;
    for (const std::string& name : names_) {
      const auto model = registry_->resident(name);
      if (model != nullptr) {
        sum += static_cast<double>(model->snapshot()->backend->footprint_bytes());
      }
    }
    return sum / static_cast<double>(names_.size());
  }

  void replay(const std::vector<std::size_t>& batch_sizes,
              const std::vector<Sample>& heavy, double seconds,
              std::map<std::string, double>& m) override {
    replay_core(*boot_, pool_.view(), batch_sizes, seconds * 0.5, seed_, m);
    // Lifecycle rounds as the stream fed them: each tenant's OOD answers,
    // kAdaptMinBatch at a time, applied to the boot generation.
    std::vector<std::vector<smore::OodSample>> buffers(names_.size());
    std::vector<std::vector<smore::OodSample>> rounds;
    for (const Sample& s : heavy) {
      if (s.outcome != Outcome::kOk || !s.result.is_ood) continue;
      auto& buf = buffers[s.arrival.tenant];
      smore::OodSample o;
      o.hv.resize(dim_);
      build_row(s.arrival, o.hv.data());
      o.pseudo_label = s.result.label;
      buf.push_back(std::move(o));
      if (buf.size() == kAdaptMinBatch) {
        rounds.push_back(std::move(buf));
        buf.clear();
      }
      if (rounds.size() == 32) break;
    }
    std::vector<double> round_ms;
    const std::int64_t t_end =
        now_ns() + static_cast<std::int64_t>(seconds * 0.5 * 1e9);
    for (std::size_t i = 0;
         !rounds.empty() && (round_ms.size() < 5 || now_ns() < t_end) &&
         round_ms.size() < 200;
         ++i) {
      const auto& round = rounds[i % rounds.size()];
      round_ms.push_back(1e-6 * static_cast<double>(timed_ns([&] {
        (void)smore::run_lifecycle_round(*boot_, round, {}, lifecycle(), 2);
      })));
    }
    m["adapt.round_ms_p50"] = round_ms.empty() ? 0.0 : median(round_ms);
  }

  /// Median over drift onsets of the time from a new world's first request
  /// until the tenant's served OOD share over a sliding window of
  /// kOodWindow answers falls to half its onset level. An onset that never
  /// recovers within its segment counts at the segment's last answer.
  double adapt_ms(const std::vector<Sample>& samples) override {
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<const Sample*>>
        onsets;
    for (const Sample& s : samples) {
      if (s.outcome == Outcome::kOk && s.arrival.world >= sources_) {
        onsets[{s.arrival.tenant, s.arrival.world}].push_back(&s);
      }
    }
    std::vector<double> out;
    for (const auto& [key, seq] : onsets) {
      if (seq.size() < 2 * kOodWindow) continue;
      std::size_t flagged = 0;
      for (std::size_t i = 0; i < kOodWindow; ++i) {
        flagged += seq[i]->result.is_ood ? 1 : 0;
      }
      if (flagged == 0) continue;
      const double onset = static_cast<double>(flagged);
      std::size_t i = kOodWindow;
      for (; i < seq.size(); ++i) {
        flagged += seq[i]->result.is_ood ? 1 : 0;
        flagged -= seq[i - kOodWindow]->result.is_ood ? 1 : 0;
        if (2.0 * static_cast<double>(flagged) <= onset) break;
      }
      const Sample& end = *seq[std::min(i, seq.size() - 1)];
      out.push_back(static_cast<double>(end.done_ns - seq.front()->arrival.due_ns) *
                    1e-6);
    }
    return out.empty() ? 0.0 : median(out);
  }

 private:
  static constexpr std::size_t kAdaptMinBatch = 64;
  static constexpr std::size_t kOodWindow = 16;

  [[nodiscard]] smore::LifecycleConfig lifecycle() const {
    smore::LifecycleConfig lc;
    lc.max_domains = 8;
    lc.merge_threshold = 0.50;
    lc.usage_decay = 0.95;
    lc.protected_domains = sources_;
    lc.cluster.max_clusters = 4;
    return lc;
  }

  /// A world id unique to (phase, tenant, segment); its skew is drawn once.
  std::uint32_t new_world(std::uint32_t tenant, std::uint32_t seg) {
    const std::uint32_t id =
        sources_ + (phase_ * 64 + tenant) * 4096 + seg % 4096;
    if (worlds_.find(id) == worlds_.end()) {
      Rng rng(kWorldSeed ^ (0x9e3779b97f4a7c15ULL * (id + 1)));
      std::vector<float> skew(dim_);
      for (float& x : skew) x = 1.2f * rng.bipolar();
      worlds_[id] = std::move(skew);
    }
    return id;
  }

  /// query = class prototype + world skew + a pooled noise row.
  void build_row(const Arrival& a, float* out) const {
    const float* p = protos_.data() + static_cast<std::size_t>(a.label) * dim_;
    const float* w = worlds_.at(a.world).data();
    const auto noise = noise_.row(a.query);
    for (std::size_t j = 0; j < dim_; ++j) out[j] = p[j] + w[j] + noise[j];
  }

  std::vector<std::string> names_;
  std::size_t dim_;
  int classes_;
  std::uint32_t sources_;
  std::vector<float> protos_;
  std::map<std::uint32_t, std::vector<float>> worlds_;
  HvMatrix noise_;
  HvDataset train_;
  HvMatrix pool_;
  std::uint32_t phase_ = 0;
  std::shared_ptr<const ModelSnapshot> boot_;
  std::shared_ptr<smore::ModelRegistry> registry_;
  std::unique_ptr<smore::MultiTenantServer> server_;
  std::vector<std::uint64_t> last_version_;  ///< per tenant, since start()
};

std::unique_ptr<Workload> make_workload(const WorkloadSpec& spec,
                                        const Sizes& sizes,
                                        std::uint64_t seed) {
  const std::string name = spec.name;
  if (name == "fleet-zipf") {
    return std::make_unique<FleetWorkload>(spec, sizes, seed);
  }
  if (name == "edge-raw") return std::make_unique<EdgeWorkload>(spec, sizes, seed);
  return std::make_unique<DriftWorkload>(spec, sizes, seed);
}

// ------------------------------------------------------------ runner

/// The correctness gate over every answer of a run. Each phase is checked
/// as soon as it ends; a corrupted expectation must then be caught, so the
/// gate cannot rot into a no-op.
struct GateResult {
  std::size_t answers = 0;
  std::size_t mismatches = 0;
  bool self_check_caught = true;
  [[nodiscard]] bool passed() const {
    return mismatches == 0 && self_check_caught;
  }
};

JsonValue gate_json(const GateResult& g) {
  JsonValue o = JsonValue::object();
  o.set("answers_checked", static_cast<std::uint64_t>(g.answers));
  o.set("mismatches", static_cast<std::uint64_t>(g.mismatches));
  o.set("self_check_caught_corruption", g.self_check_caught);
  o.set("passed", g.passed());
  return o;
}

struct PhaseRun {
  PhaseStats stats;
  double limit_ms = 0.0;
  std::vector<Sample> samples;  ///< ensemble weights released after the gate
  Counters delta;
  std::size_t max_k = 0;         ///< widest ensemble served (live K)
  std::uint64_t span_begin = 0;  ///< tracer ids [begin, end) of this phase
  std::uint64_t span_end = 0;
};

std::uint64_t phase_seed(std::uint64_t seed, const std::string& phase) {
  std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL;
  for (const char c : phase) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

PhaseRun run_phase(Workload& w, const std::string& name, double rate,
                   double seconds, std::uint64_t seed,
                   const LoadOptions& options, GateResult& gate) {
  w.new_phase();
  const std::vector<Arrival> schedule = poisson_schedule(
      rate, seconds, seed,
      [&](Rng& rng, double t, Arrival& a) { w.fill(rng, t, a); });
  PhaseRun run;
  const Counters before = w.counters();
  run.span_begin = w.hub()->tracer().observed();
  double client_cpu = 0.0;
  const double cpu0 = process_cpu_s();
  run.samples = run_open_loop(schedule, w.submitter(), options, &client_cpu);
  const double program_cpu = process_cpu_s() - cpu0 - client_cpu;
  run.span_end = w.hub()->tracer().observed();
  run.delta = w.counters().minus(before);
  run.limit_ms = w.spec().limit_ms;
  run.stats = summarize(name, rate, seconds, run.samples, run.limit_ms);
  run.stats.cpu_us_per_req =
      1e6 * program_cpu / static_cast<double>(std::max<std::size_t>(1, run.stats.ok));
  print_phase(run.stats);

  std::vector<const Sample*> answers;
  for (const Sample& s : run.samples) {
    if (s.outcome == Outcome::kOk) answers.push_back(&s);
  }
  if (!answers.empty()) {
    gate.answers += answers.size();
    gate.mismatches += w.mismatches(answers, /*corrupt=*/false);
    if (w.mismatches(answers, /*corrupt=*/true) == 0) {
      gate.self_check_caught = false;
    }
  }
  for (Sample& s : run.samples) {
    run.max_k = std::max(run.max_k, s.result.weights.size());
    std::vector<double>().swap(s.result.weights);
  }
  return run;
}

/// One phase made of slices: counts summed, every percentile, rate and cost
/// the median over slices (each slice's own exact value).
PhaseStats combine(const std::vector<PhaseStats>& slices,
                   const std::string& name) {
  PhaseStats out;
  out.name = name;
  out.slices = slices.size();
  out.min_slice_ok = slices.empty() ? 0 : slices.front().ok;
  auto med = [&](double PhaseStats::*field) {
    std::vector<double> v;
    for (const PhaseStats& p : slices) v.push_back(p.*field);
    return median(std::move(v));
  };
  for (const PhaseStats& p : slices) {
    out.rate = p.rate;
    out.seconds += p.seconds;
    out.scheduled += p.scheduled;
    out.sent += p.sent;
    out.ok += p.ok;
    out.shed += p.shed;
    out.failed += p.failed;
    out.within_limit += p.within_limit;
    out.correct_label += p.correct_label;
    out.aborted = out.aborted || p.aborted;
    out.min_slice_ok = std::min(out.min_slice_ok, p.ok);
  }
  out.p50_ms = med(&PhaseStats::p50_ms);
  out.p90_ms = med(&PhaseStats::p90_ms);
  out.p99_ms = med(&PhaseStats::p99_ms);
  out.p999_ms = med(&PhaseStats::p999_ms);
  out.p99_window_ms = med(&PhaseStats::p99_window_ms);
  out.late_p50_ms = med(&PhaseStats::late_p50_ms);
  out.late_p99_ms = med(&PhaseStats::late_p99_ms);
  out.late_max_ms = med(&PhaseStats::late_max_ms);
  out.served_qps = med(&PhaseStats::served_qps);
  out.cpu_us_per_req = med(&PhaseStats::cpu_us_per_req);
  return out;
}

/// Each workload's measured defining property, from one phase.
JsonValue property_json(const Workload& w, const PhaseRun& p) {
  JsonValue o = JsonValue::object();
  std::size_t ood = 0;
  for (const Sample& s : p.samples) {
    ood += s.outcome == Outcome::kOk && s.result.is_ood ? 1 : 0;
  }
  o.set("phase", p.stats.name);
  o.set("batch_fill_rows", p.delta.batches != 0
                               ? static_cast<double>(p.delta.rows) /
                                     static_cast<double>(p.delta.batches)
                               : 0.0);
  o.set("ood_share", p.stats.ok != 0 ? static_cast<double>(ood) /
                                           static_cast<double>(p.stats.ok)
                                     : 0.0);
  double enc = 0.0, pred = 0.0;
  for (const smore::obs::TraceSpan& sp : w.hub()->tracer().recent()) {
    if (sp.id < p.span_begin || sp.id >= p.span_end) continue;
    enc += static_cast<double>(sp.encode_ns);
    pred += static_cast<double>(sp.predict_ns);
  }
  o.set("encode_share_of_batch_work", enc + pred > 0.0 ? enc / (enc + pred) : 0.0);
  o.set("adaptation_rounds", p.delta.adapt_rounds);
  const std::uint64_t lookups = p.delta.reg_hits + p.delta.reg_misses;
  o.set("registry_hit_ratio", lookups != 0 ? static_cast<double>(p.delta.reg_hits) /
                                                 static_cast<double>(lookups)
                                           : 0.0);
  return o;
}

JsonValue kernel_json() {
  const smore::kern::Dispatch& d = smore::kern::dispatch();
  JsonValue o = JsonValue::object();
  o.set("tier", smore::kern::tier_name(d.tier));
  o.set("forced", d.forced);
  o.set("clamped", d.clamped);
  const char* env = std::getenv("SMORE_KERNEL");
  o.set("SMORE_KERNEL", env != nullptr ? env : "");
  JsonValue slots = JsonValue::object();
  for (std::size_t k = 0; k < smore::kern::kNumKernels; ++k) {
    const char* v = d.kernel_variant[k];
    slots.set(smore::kern::kernel_name(static_cast<smore::kern::Kernel>(k)),
              v != nullptr ? v : "");
  }
  o.set("variants", std::move(slots));
  return o;
}

JsonValue config_json(const WorkloadSpec& spec, const Sizes& sizes) {
  JsonValue o = JsonValue::object();
  o.set("light_rate_per_s", spec.light_rate);
  o.set("heavy_rate_per_s", spec.heavy_rate);
  JsonValue ladder = JsonValue::array();
  for (int i = 0; i < spec.ladder_rungs; ++i) {
    ladder.push_back(std::round(spec.ladder_lo * std::pow(spec.ladder_step, i)));
  }
  o.set("ladder_per_s", std::move(ladder));
  o.set("latency_limit_ms", spec.limit_ms);
  o.set("generator_threads", 1);
  o.set("collector_threads", 1);
  o.set("dim", static_cast<std::uint64_t>(sizes.dim));
  o.set("uschad_scale", sizes.uschad_scale);
  o.set("zipf_tenants", static_cast<std::uint64_t>(sizes.zipf_tenants));
  o.set("drift_tenants", static_cast<std::uint64_t>(sizes.drift_tenants));
  o.set("setup_repeats", static_cast<std::uint64_t>(sizes.setup_repeats));
  return o;
}

/// A metric as printed: value plus unit.
struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* better;  ///< "lower" / "higher" / "" for per-layer
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  JsonValue record = JsonValue::object();
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Latencies (arrival order) of the tail-tenant cohort's answered requests.
std::vector<double> tail_latencies(const Workload& w, const PhaseRun& p) {
  std::vector<double> out;
  for (const Sample& s : p.samples) {
    if (s.outcome == Outcome::kOk && s.arrival.tenant >= w.tail_rank()) {
      out.push_back(s.latency_ms());
    }
  }
  return out;
}

/// Capacity: binary search over the workload's fixed ladder for the highest
/// rung where p99 stays within the limit, nothing fails and no backlog
/// builds (an overloaded rung sheds, or its requests fall far behind). The
/// probes' answers pass through the gate like every other phase.
double capacity_search(Workload& w, double seconds, std::uint64_t seed,
                       GateResult& gate, JsonValue& record) {
  const WorkloadSpec& spec = w.spec();
  LoadOptions probe;
  probe.abort_on_failure = true;
  probe.abort_late_ns =
      static_cast<std::int64_t>(std::max(50.0, 2.0 * spec.limit_ms) * 1e6);
  // A failed rung is probed once more before the search moves down: a host
  // stall during one probe must not cap capacity for the whole run.
  const int max_probes =
      static_cast<int>(std::ceil(std::log2(spec.ladder_rungs + 1)));
  const int max_retries = 2;
  const double probe_s = seconds / (max_probes + max_retries);
  int retries = 0;
  bool retrying = false;
  JsonValue probe_list = JsonValue::array();
  int lo = -1, hi = spec.ladder_rungs;
  double capacity = 0.0, fallback = 0.0;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = spec.ladder_lo * std::pow(spec.ladder_step, mid);
    char name[48];
    std::snprintf(name, sizeof(name),
                  retrying ? "ladder@%.0f#2" : "ladder@%.0f", rate);
    const PhaseRun run =
        run_phase(w, name, rate, probe_s, phase_seed(seed, name), probe, gate);
    const PhaseStats& p = run.stats;
    const bool pass = !p.aborted && p.failures() == 0 &&
                      p.p99_window_ms <= spec.limit_ms;
    JsonValue pj = phase_json(p);
    pj.set("pass", pass);
    probe_list.push_back(std::move(pj));
    if (!pass && !retrying && retries < max_retries) {
      retrying = true;
      ++retries;
      continue;
    }
    retrying = false;
    if (pass) {
      lo = mid;
      capacity = p.served_qps;
    } else {
      hi = mid;
      fallback = p.served_qps;
    }
  }
  JsonValue ladder = JsonValue::object();
  ladder.set("probes", std::move(probe_list));
  ladder.set("highest_passing_rung", lo);
  ladder.set("below_ladder", lo < 0);
  record.set("capacity_search", std::move(ladder));
  return lo < 0 ? fallback : capacity;
}

/// The end-to-end run: program telemetry at its defaults.
RunResult run_untraced(Workload& w, const Sizes& sizes, double seconds,
                       std::uint64_t seed) {
  const WorkloadSpec& spec = w.spec();
  RunResult r;
  std::vector<double> setups;
  JsonValue setup_list = JsonValue::array();
  for (std::size_t i = 0; i < sizes.setup_repeats; ++i) {
    const std::int64_t t0 = now_ns();
    w.prepare();
    w.start(nullptr);
    setups.push_back(seconds_since(t0));
    setup_list.push_back(setups.back());
  }
  r.record.set("setup_s_each", std::move(setup_list));

  // Light, heavy and the serverless direct path alternate in kRounds
  // slices, and each metric is the median over its slices: on a shared
  // host, vCPU preemption comes in episodes of seconds that would otherwise
  // land on one phase only.
  GateResult gate;
  const LoadOptions fixed;
  std::vector<PhaseStats> light_slices, heavy_slices;
  std::vector<double> tail_p50s;
  std::vector<double> direct_us;  // every direct call of the run
  double direct_cpu = 0.0, direct_wall = 0.0;
  for (int i = 0; i < kRounds; ++i) {
    const std::string l = "light#" + std::to_string(i);
    const std::string h = "heavy#" + std::to_string(i);
    light_slices.push_back(run_phase(w, l, spec.light_rate,
                                     kLightShare * seconds / kRounds,
                                     phase_seed(seed, l), fixed, gate)
                               .stats);
    const PhaseRun heavy =
        run_phase(w, h, spec.heavy_rate, kHeavyShare * seconds / kRounds,
                  phase_seed(seed, h), fixed, gate);
    heavy_slices.push_back(heavy.stats);
    tail_p50s.push_back(percentile(tail_latencies(w, heavy), 0.5));
    // Read now: the default trace ring keeps only the latest sampled spans.
    if (i + 1 == kRounds) r.record.set("property", property_json(w, heavy));
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    const std::vector<double> calls =
        w.direct_us_per_row(kDirectShare * seconds / kRounds);
    direct_us.insert(direct_us.end(), calls.begin(), calls.end());
    direct_cpu += process_cpu_s() - cpu0;
    direct_wall += seconds_since(t0);
  }
  r.record.set("direct_cpu_share", direct_cpu / direct_wall);
  r.record.set("direct_calls", static_cast<std::uint64_t>(direct_us.size()));
  const PhaseStats light = combine(light_slices, "light");
  const PhaseStats heavy = combine(heavy_slices, "heavy");
  w.stop();
  r.record.set("gate", gate_json(gate));

  JsonValue phases = JsonValue::array();
  phases.push_back(phase_json(light));
  phases.push_back(phase_json(heavy));
  r.record.set("phases", std::move(phases));

  r.attempted = light.sent + heavy.sent;
  r.failed = light.failures() + heavy.failures();
  r.correct = gate.passed();
  r.metrics = {
      {"setup_s", median(setups), "s", "lower"},
      {"p50_ms_light", light.p50_ms, "ms", "lower"},
      {"p50_ms_heavy", heavy.p50_ms, "ms", "lower"},
      {"tail_p50_ms_heavy", median(tail_p50s), "ms", "lower"},
      {"cpu_us_per_req", heavy.cpu_us_per_req, "us", "lower"},
      {"slo_frac",
       ratio(static_cast<double>(light.within_limit + heavy.within_limit),
             static_cast<double>(r.attempted)),
       "ratio", "higher"},
      {"direct_qps", 1e6 / percentile(direct_us, kDirectQuantile), "rows/s",
       "higher"},
      {"peak_rss_mb", peak_rss_mib(), "MiB", "lower"},
      {"accuracy",
       ratio(static_cast<double>(light.correct_label + heavy.correct_label),
             static_cast<double>(light.ok + heavy.ok)),
       "ratio", "higher"},
  };
  return r;
}

/// The per-layer run: same workload, seed and rates, every request traced.
RunResult run_traced(Workload& w, double seconds, std::uint64_t seed) {
  const WorkloadSpec& spec = w.spec();
  RunResult r;
  w.prepare();
  const LoadOptions fixed;

  // Untraced reference phases, same schedules as the traced ones: the
  // tracing overhead, and the tail percentiles with telemetry as deployed.
  GateResult gate;
  w.start(nullptr);
  const PhaseRun base_light =
      run_phase(w, "light-untraced", spec.light_rate, 0.15 * seconds,
                phase_seed(seed, "light"), fixed, gate);
  const PhaseRun base = run_phase(w, "heavy-untraced", spec.heavy_rate,
                                  0.2 * seconds, phase_seed(seed, "heavy"),
                                  fixed, gate);
  const double capacity =
      capacity_search(w, 0.35 * seconds, seed, gate, r.record);
  w.stop();

  // Keep every span of the phase: sample all, one ring larger than the
  // phase, and no request routed to the (small) slow ring.
  smore::obs::TelemetryConfig tc;
  tc.trace.sample_every = 1;
  tc.trace.ring_capacity =
      static_cast<std::size_t>(spec.heavy_rate * 0.2 * seconds * 1.5) + 4096;
  tc.trace.slow_threshold_seconds = 3600.0;
  w.start(smore::obs::Telemetry::make(tc));
  const PhaseRun light = run_phase(w, "light", spec.light_rate, 0.15 * seconds,
                                   phase_seed(seed, "light"), fixed, gate);
  const PhaseRun heavy = run_phase(w, "heavy", spec.heavy_rate, 0.2 * seconds,
                                   phase_seed(seed, "heavy"), fixed, gate);
  std::vector<smore::obs::TraceSpan> spans;
  for (const smore::obs::TraceSpan& sp : w.hub()->tracer().recent()) {
    if (sp.id >= heavy.span_begin && sp.id < heavy.span_end) spans.push_back(sp);
  }
  w.stop();
  r.record.set("gate", gate_json(gate));
  r.record.set("property", property_json(w, heavy));
  r.record.set("spans_kept", static_cast<std::uint64_t>(spans.size()));
  r.record.set("spans_expected",
               static_cast<std::uint64_t>(heavy.span_end - heavy.span_begin));

  // Batch sizes as formed in the run: a batch of n rows left n spans.
  std::map<std::uint32_t, std::size_t> rows_by_size;
  for (const auto& sp : spans) ++rows_by_size[sp.batch_rows];
  std::vector<std::size_t> batch_sizes;
  for (const auto& [n, rows] : rows_by_size) {
    for (std::size_t b = 0; b < rows / std::max<std::uint32_t>(1, n); ++b) {
      batch_sizes.push_back(n);
    }
  }

  std::map<std::string, double> m;
  for (const char* name :
       {"core.predict_us_per_row", "core.desc_sim_us_per_row",
        "core.class_ens_us_per_row", "core.load_ms_p50",
        "hdc.encode_us_per_window", "hdc.sign_pack_us_per_row",
        "registry.cold_acquire_ms_p50", "adapt.round_ms_p50"}) {
    m[name] = 0.0;
  }
  w.replay(batch_sizes, heavy.samples, 0.15 * seconds, m);

  auto span_pct = [&](auto field, double q) {
    std::vector<double> v;
    for (const auto& sp : spans) v.push_back(static_cast<double>(sp.*field));
    return percentile(std::move(v), q);
  };
  std::vector<double> submit_us, handoff_us;
  std::size_t ood = 0;
  const std::size_t live_k = std::max(light.max_k, heavy.max_k);
  for (const Sample& s : heavy.samples) {
    if (s.outcome == Outcome::kNotSent) continue;
    submit_us.push_back(static_cast<double>(s.ret_ns - s.call_ns) * 1e-3);
    if (s.outcome != Outcome::kOk) continue;
    ood += s.result.is_ood ? 1 : 0;
    handoff_us.push_back(
        (static_cast<double>(s.done_ns - s.ret_ns) -
         static_cast<double>(std::llround(s.result.latency_seconds * 1e9))) *
        1e-3);
  }

  // Split of client latency around the p50: requests between p45 and p55,
  // each matched to its span by (tenant, server total), mean of each part.
  {
    std::vector<double> lat;
    for (const Sample& s : heavy.samples) {
      if (s.outcome == Outcome::kOk) lat.push_back(s.latency_ms());
    }
    std::sort(lat.begin(), lat.end());
    const double lo = percentile_sorted(lat, 0.45);
    const double hi = percentile_sorted(lat, 0.55);
    std::unordered_multimap<std::uint64_t, const smore::obs::TraceSpan*> by_total;
    for (const auto& sp : spans) by_total.emplace(sp.total_ns, &sp);
    double parts[7] = {};
    double band_sum = 0.0;
    std::size_t matched = 0, band = 0;
    for (const Sample& s : heavy.samples) {
      if (s.outcome != Outcome::kOk) continue;
      const double ms = s.latency_ms();
      if (ms < lo || ms > hi) continue;
      ++band;
      const auto total =
          static_cast<std::uint64_t>(std::llround(s.result.latency_seconds * 1e9));
      const std::string tenant = w.tenant_label(s.arrival.tenant);
      const auto [first, last] = by_total.equal_range(total);
      const smore::obs::TraceSpan* sp = nullptr;
      for (auto it = first; it != last; ++it) {
        if (tenant == it->second->tenant) sp = it->second;
      }
      if (sp == nullptr) continue;
      ++matched;
      band_sum += ms;
      parts[0] += s.lateness_ms();
      parts[1] += static_cast<double>(s.ret_ns - s.call_ns) * 1e-6;
      parts[2] += static_cast<double>(sp->queue_ns) * 1e-6;
      parts[3] += static_cast<double>(sp->encode_ns) * 1e-6;
      parts[4] += static_cast<double>(sp->predict_ns) * 1e-6;
      parts[5] += static_cast<double>(sp->fulfill_ns) * 1e-6;
      parts[6] += static_cast<double>(s.done_ns - s.ret_ns -
                                      static_cast<std::int64_t>(total)) *
                  1e-6;
    }
    JsonValue split = JsonValue::object();
    const char* names[7] = {"lateness", "submit", "queue", "encode",
                            "predict", "fulfill", "handoff"};
    double sum = 0.0;
    for (int i = 0; i < 7; ++i) {
      const double mean = matched != 0 ? parts[i] / static_cast<double>(matched) : 0.0;
      split.set(std::string(names[i]) + "_ms", mean);
      sum += mean;
    }
    split.set("sum_of_parts_ms", sum);
    split.set("band_mean_ms", matched != 0 ? band_sum / static_cast<double>(matched) : 0.0);
    split.set("p50_ms", heavy.stats.p50_ms);
    split.set("band_requests", static_cast<std::uint64_t>(band));
    split.set("band_matched_to_spans", static_cast<std::uint64_t>(matched));
    r.record.set("latency_split_p45_p55", std::move(split));
  }

  JsonValue phases = JsonValue::array();
  phases.push_back(phase_json(base_light.stats));
  phases.push_back(phase_json(base.stats));
  phases.push_back(phase_json(light.stats));
  phases.push_back(phase_json(heavy.stats));
  r.record.set("phases", std::move(phases));

  const Counters& d = heavy.delta;
  const double lookups = static_cast<double>(d.reg_hits + d.reg_misses);
  r.attempted = light.stats.sent + heavy.stats.sent;
  r.failed = light.stats.failures() + heavy.stats.failures();
  r.correct = gate.passed();
  r.metrics = {
      {"capacity_qps", capacity, "req/s", ""},
      {"p99_ms_light", base_light.stats.p99_window_ms, "ms", ""},
      {"p99_ms_heavy", base.stats.p99_window_ms, "ms", ""},
      {"tail_p99_ms_heavy", windowed_percentile(tail_latencies(w, base), 0.99),
       "ms", ""},
      {"gen.late_ms_p99", heavy.stats.late_p99_ms, "ms", ""},
      {"gen.sent", static_cast<double>(heavy.stats.sent), "count", ""},
      {"gen.ok", static_cast<double>(heavy.stats.ok), "count", ""},
      {"gen.failed", static_cast<double>(heavy.stats.failures()), "count", ""},
      {"serve.submit_us_p50", percentile(submit_us, 0.5), "us", ""},
      {"serve.queue_ms_p50", span_pct(&smore::obs::TraceSpan::queue_ns, 0.5) * 1e-6, "ms", ""},
      {"serve.queue_ms_p99", span_pct(&smore::obs::TraceSpan::queue_ns, 0.99) * 1e-6, "ms", ""},
      {"serve.fulfill_us_p50", span_pct(&smore::obs::TraceSpan::fulfill_ns, 0.5) * 1e-3, "us", ""},
      {"serve.handoff_us_p50", percentile(handoff_us, 0.5), "us", ""},
      {"serve.batch_rows_mean", ratio(static_cast<double>(d.rows), static_cast<double>(d.batches)), "rows", ""},
      {"serve.shed_frac", ratio(static_cast<double>(heavy.stats.shed), static_cast<double>(heavy.stats.sent)), "ratio", ""},
      {"core.predict_ms_p50", span_pct(&smore::obs::TraceSpan::predict_ns, 0.5) * 1e-6, "ms", ""},
      {"core.predict_us_per_row", m["core.predict_us_per_row"], "us", ""},
      {"core.desc_sim_us_per_row", m["core.desc_sim_us_per_row"], "us", ""},
      {"core.class_ens_us_per_row", m["core.class_ens_us_per_row"], "us", ""},
      {"core.ood_frac", ratio(static_cast<double>(ood), static_cast<double>(heavy.stats.ok)), "ratio", ""},
      {"core.live_domains_max", static_cast<double>(live_k), "count", ""},
      {"core.state_kib", w.state_bytes() / 1024.0, "KiB", ""},
      {"core.fit_s", w.fit_s, "s", ""},
      {"core.calibrate_s", w.calibrate_s, "s", ""},
      {"core.quantize_s", w.quantize_s, "s", ""},
      {"core.load_ms_p50", m["core.load_ms_p50"], "ms", ""},
      {"hdc.encode_ms_p50", span_pct(&smore::obs::TraceSpan::encode_ns, 0.5) * 1e-6, "ms", ""},
      {"hdc.encode_us_per_window", m["hdc.encode_us_per_window"], "us", ""},
      {"hdc.sign_pack_us_per_row", m["hdc.sign_pack_us_per_row"], "us", ""},
      {"registry.cold_acquire_ms_p50", m["registry.cold_acquire_ms_p50"], "ms", ""},
      {"registry.hit_frac", lookups > 0 ? static_cast<double>(d.reg_hits) / lookups : 0.0, "ratio", ""},
      {"registry.resident_mb_peak", static_cast<double>(d.reg_peak_bytes) / (1024.0 * 1024.0), "MiB", ""},
      {"adapt.rounds", static_cast<double>(d.adapt_rounds), "count", ""},
      {"adapt.absorbed_frac", ratio(static_cast<double>(d.adapt_absorbed), static_cast<double>(d.ood)), "ratio", ""},
      {"adapt.merged", static_cast<double>(d.adapt_merged), "count", ""},
      {"adapt.evicted", static_cast<double>(d.adapt_evicted), "count", ""},
      {"adapt.round_ms_p50", m["adapt.round_ms_p50"], "ms", ""},
      {"adapt_ms", w.adapt_ms(heavy.samples), "ms", ""},
      {"obs.trace_overhead_frac", ratio(heavy.stats.p50_ms, base.stats.p50_ms) - 1.0, "ratio", ""},
  };
  return r;
}

const WorkloadSpec* find_spec(const std::string& name) {
  for (const WorkloadSpec& s : kWorkloads) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

RunResult run(const WorkloadSpec& spec, const Sizes& sizes, std::uint64_t seed,
              double seconds, bool trace, const std::string& commit,
              const std::string& digest) {
  std::printf("[perfbench] workload %s  seed %llu  %.1f s  trace %d  kernel "
              "tier %s\n",
              spec.name, static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0,
              smore::kern::tier_name(smore::kern::dispatch().tier));
  std::fflush(stdout);
  const std::unique_ptr<Workload> w = make_workload(spec, sizes, seed);
  const auto steal0 = host_steal_jiffies();
  RunResult r = trace ? run_traced(*w, seconds, seed)
                      : run_untraced(*w, sizes, seconds, seed);
  const auto steal1 = host_steal_jiffies();
  r.record.set("host_steal_frac", ratio(steal1.first - steal0.first,
                                        steal1.second - steal0.second));
  r.record.set("workload", spec.name);
  r.record.set("seed", seed);
  r.record.set("trace", trace);
  r.record.set("seconds", seconds);
  r.record.set("kernel", kernel_json());
  r.record.set("hardware_threads",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  r.record.set("build_type", PERFBENCH_BUILD_TYPE);
  r.record.set("commit", commit);
  r.record.set("source_digest", digest);
  r.record.set("config", config_json(spec, sizes));
  return r;
}

JsonValue result_json(const RunResult& r) {
  JsonValue o = JsonValue::object();
  o.set("correct", r.correct);
  o.set("attempted", r.attempted);
  o.set("failed", r.failed);
  JsonValue metrics = JsonValue::object();
  for (const Metric& m : r.metrics) {
    JsonValue v = JsonValue::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  o.set("metrics", std::move(metrics));
  return o;
}

void print_metrics(const RunResult& r) {
  for (const Metric& m : r.metrics) {
    if (*m.better != '\0') {
      std::printf("  %-30s %14.6g %-7s (%s is better)\n", m.name.c_str(),
                  m.value, m.unit, m.better);
    } else {
      std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
}

int smoke(const std::string& commit, const std::string& digest) {
  const Sizes sizes = sizes_for(true);
  bool all_correct = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const WorkloadSpec& spec : kWorkloads) {
    for (const bool trace : {false, true}) {
      const RunResult r = run(spec, sizes, 1, 0.5, trace, commit, digest);
      print_metrics(r);
      std::printf("  gate: %s\n", r.record.at("gate").dump().c_str());
      all_correct = all_correct && r.correct;
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  RunResult total;
  total.correct = all_correct;
  total.attempted = attempted;
  total.failed = failed;
  std::printf("%s\n", result_json(total).dump().c_str());
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  smore::CliParser cli(
      "SMORE serving benchmark: open-loop workloads through the public "
      "serving APIs, every answer checked, end-to-end metrics (--trace 0) "
      "or the traced per-layer breakdown (--trace 1).");
  cli.flag_string("workload", "", "fleet-zipf | edge-raw | drift-adapt")
      .flag_int("seed", 1, "input seed (same seed, same inputs)")
      .flag_double("seconds", 10.0, "measured seconds per run")
      .flag_int("trace", 0, "1 = traced per-layer run")
      .flag_bool("smoke", false, "every workload at toy size, gate on")
      .flag_string("commit", "unknown", "commit id for the run record")
      .flag_string("source-digest", "unknown", "source hash for the record");
  if (!cli.parse(argc, argv)) return 2;
  try {
    const std::string commit = cli.get_string("commit");
    const std::string digest = cli.get_string("source-digest");
    if (cli.get_bool("smoke")) return perfbench::smoke(commit, digest);
    const perfbench::WorkloadSpec* spec =
        perfbench::find_spec(cli.get_string("workload"));
    const double seconds = cli.get_double("seconds");
    if (spec == nullptr || !(seconds > 0.0) || cli.get_int("seed") < 0) {
      std::fprintf(stderr, "perfbench: unknown workload or bad --seconds/--seed\n");
      return 2;
    }
    const perfbench::RunResult r = perfbench::run(
        *spec, perfbench::sizes_for(false),
        static_cast<std::uint64_t>(cli.get_int("seed")), seconds,
        cli.get_int("trace") != 0, commit, digest);
    std::printf("record: %s\n", r.record.dump().c_str());
    perfbench::print_metrics(r);
    std::printf("%s\n", perfbench::result_json(r).dump().c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
