// Domain-lifecycle bench: bounded continual adaptation keeps memory AND tail
// latency flat on a long drifting stream (DESIGN.md §13).
//
// The stream is `--cycles` repetitions of a three-phase drift schedule:
//
//   abrupt     a NEVER-seen world appears at full strength (fresh skew
//              vector each cycle — the stream never runs out of novelty);
//   gradual    the skew interpolates from that world toward world A over
//              the phase's windows (slow drift, the clustering stress case);
//   recurring  world A itself returns — the drift every deployment sees
//              again and again (night shift, weekend load, winter).
//
// Every phase preserves class structure (class prototypes + world skew +
// noise), so pseudo-labeled adaptation genuinely helps and accuracy against
// the true labels is measurable per phase.
//
// Two identical streaming runs over that schedule:
//
//   bounded    the lifecycle as deployed — cluster / merge / decay / evict
//              against lifecycle_config.max_domains;
//   unbounded  the same lifecycle with no cap and merging off (every
//              cluster enrolls as a new domain, nothing is evicted): K grows
//              with stream length, and with it the O(K) per-query ensemble
//              cost and the model footprint.
//
// Per measurement window the bench records client-observed p50/p99 (from
// LatencyHistogram::snapshot_and_reset), process RSS, live K, and the
// adaptation counters (including side-buffer overflow sheds). Acceptance,
// recorded as booleans in BENCH_adaptation_lifecycle.json:
//
//   * bounded bank never exceeds max_domains;
//   * bounded late-window RSS <= 1.1x its early window, p99 <= 1.2x;
//   * unbounded shows growth in both (the baseline the cap removes);
//   * bounded recurring-drift accuracy within 0.03 of unbounded.
//
// Scale note (DESIGN.md §7): single-core CI runs cannot hold microsecond
// tails steady, but the claim here is a SHAPE claim — flat-vs-growing across
// a 10x-longer stream — and the growing side is driven by K reaching the
// hundreds, which dwarfs scheduler noise. Run bounded first: RSS never
// shrinks, so ordering gives the flat run the colder allocator.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "bench_common.hpp"
#include "core/smore.hpp"
#include "hdc/hv_dataset.hpp"
#include "hdc/hv_matrix.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "util/cli.hpp"
#include "util/latency.hpp"
#include "util/rng.hpp"

namespace {
using namespace smore;

/// Resident set size in bytes (Linux); 0 where /proc is unavailable.
std::size_t rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long total = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

/// The drifting query generator: fixed class prototypes, per-world skew.
struct DriftWorlds {
  std::size_t dim = 0;
  int classes = 0;
  std::vector<std::vector<float>> class_protos;
  std::vector<float> skew_a;  // the recurring world
  double skew_scale = 1.2;
  double noise = 0.4;

  DriftWorlds(std::size_t d, int c, Rng& rng) : dim(d), classes(c) {
    for (int k = 0; k < c; ++k) {
      std::vector<float> p(d);
      for (auto& x : p) x = rng.bipolar();
      class_protos.push_back(std::move(p));
    }
    skew_a = fresh_skew(rng);
  }

  [[nodiscard]] std::vector<float> fresh_skew(Rng& rng) const {
    std::vector<float> s(dim);
    for (auto& x : s) x = rng.bipolar();
    return s;
  }

  /// One query of class `label` under skew s = (1-t)·from + t·to.
  void make_row(std::span<float> out, int label,
                const std::vector<float>& from, const std::vector<float>& to,
                double t, Rng& rng) const {
    const auto& p = class_protos[static_cast<std::size_t>(label)];
    for (std::size_t j = 0; j < dim; ++j) {
      const double s = (1.0 - t) * from[j] + t * to[j];
      out[j] = p[j] + static_cast<float>(skew_scale * s +
                                         rng.normal(0.0, noise));
    }
  }
};

/// In-distribution training set: same class prototypes, small per-domain
/// skew (the source domains), so the drift worlds above are genuinely OOD.
HvDataset make_train(const DriftWorlds& worlds, int domains,
                     std::size_t per_cell, Rng& rng) {
  HvDataset data(worlds.dim);
  std::vector<float> row(worlds.dim);
  for (int d = 0; d < domains; ++d) {
    std::vector<float> skew(worlds.dim);
    for (auto& x : skew) x = rng.bipolar();
    for (int c = 0; c < worlds.classes; ++c) {
      for (std::size_t i = 0; i < per_cell; ++i) {
        const auto& p = worlds.class_protos[static_cast<std::size_t>(c)];
        for (std::size_t j = 0; j < worlds.dim; ++j) {
          row[j] = p[j] + static_cast<float>(0.5 * skew[j] +
                                             rng.normal(0.0, worlds.noise));
        }
        data.add(row, c, d);
      }
    }
  }
  return data;
}

struct WindowRecord {
  std::string phase;
  LatencySummary latency;
  std::size_t rss = 0;
  std::size_t live_domains = 0;
  double accuracy = 0.0;
};

struct RunOutcome {
  std::vector<WindowRecord> windows;
  double recurring_accuracy = 0.0;  ///< mean over all recurring windows
  std::size_t max_domains_seen = 0;
  ServerStats final_stats;
};

struct StreamParams {
  std::size_t cycles = 24;
  std::size_t windows_per_phase = 2;
  std::size_t window_queries = 300;
  std::size_t inflight = 16;
};

/// One full streaming run against a fresh server built from `model`.
RunOutcome run_stream(const SmoreModel& model, const DriftWorlds& worlds,
                      const StreamParams& p, bool bounded,
                      std::size_t max_domains, std::size_t adapt_min_batch,
                      std::uint64_t seed) {
  ServerConfig cfg;
  cfg.max_batch = 8;
  cfg.num_workers = 1;
  cfg.adaptation = true;
  cfg.adapt_min_batch = adapt_min_batch;
  cfg.adapt_buffer_capacity = 4 * adapt_min_batch;
  cfg.adapt_poll_ms = 1;
  cfg.lifecycle_config.protected_domains = model.num_domains();
  cfg.lifecycle_config.cluster.max_clusters = 4;
  if (bounded) {
    cfg.lifecycle_config.max_domains = max_domains;
    // Below the calibrated δ*: OOD-gated candidates always have best
    // similarity < δ*, so a threshold above it would disable merging.
    cfg.lifecycle_config.merge_threshold = 0.50;
    cfg.lifecycle_config.usage_decay = 0.95;
  } else {
    // The unbounded baseline: no cap, and no cosine reaches the threshold.
    cfg.lifecycle_config.max_domains = std::numeric_limits<std::size_t>::max();
    cfg.lifecycle_config.merge_threshold = 2.0;
  }
  InferenceServer server(ModelSnapshot::make(model.clone(), false, 1), cfg);

  Rng rng(seed);
  RunOutcome out;
  LatencyHistogram hist;
  std::vector<float> skew_fresh;  // this cycle's abrupt world
  double recurring_acc_sum = 0.0;
  std::size_t recurring_windows = 0;

  auto run_window = [&](const char* phase, const std::vector<float>& from,
                        const std::vector<float>& to, double t0, double t1) {
    std::deque<std::pair<int, std::future<ServeResult>>> inflight;
    std::size_t correct = 0;
    std::size_t answered = 0;
    auto settle = [&](std::size_t keep) {
      while (inflight.size() > keep) {
        const ServeResult r = inflight.front().second.get();
        hist.record(r.latency_seconds);
        correct += r.label == inflight.front().first ? 1 : 0;
        ++answered;
        inflight.pop_front();
      }
    };
    std::vector<float> row(worlds.dim);
    for (std::size_t q = 0; q < p.window_queries; ++q) {
      const int label = static_cast<int>(
          rng() % static_cast<std::uint64_t>(worlds.classes));
      const double t =
          t0 + (t1 - t0) * (static_cast<double>(q) /
                            static_cast<double>(p.window_queries));
      worlds.make_row(row, label, from, to, t, rng);
      inflight.emplace_back(label, server.submit(std::vector<float>(row)));
      settle(p.inflight);
    }
    settle(0);

    WindowRecord w;
    w.phase = phase;
    w.latency = LatencySummary::from(hist.snapshot_and_reset());
    w.rss = rss_bytes();
    const ServerStats stats = server.stats();
    w.live_domains = stats.live_domains;
    w.accuracy = answered != 0
                     ? static_cast<double>(correct) /
                           static_cast<double>(answered)
                     : 0.0;
    out.max_domains_seen = std::max(out.max_domains_seen, w.live_domains);
    if (w.phase == "recurring") {
      recurring_acc_sum += w.accuracy;
      ++recurring_windows;
    }
    out.windows.push_back(std::move(w));
  };

  for (std::size_t cycle = 0; cycle < p.cycles; ++cycle) {
    skew_fresh = worlds.fresh_skew(rng);
    for (std::size_t w = 0; w < p.windows_per_phase; ++w) {
      run_window("abrupt", skew_fresh, skew_fresh, 0.0, 0.0);
    }
    for (std::size_t w = 0; w < p.windows_per_phase; ++w) {
      const double span = 1.0 / static_cast<double>(p.windows_per_phase);
      run_window("gradual", skew_fresh, worlds.skew_a,
                 static_cast<double>(w) * span,
                 static_cast<double>(w + 1) * span);
    }
    for (std::size_t w = 0; w < p.windows_per_phase; ++w) {
      run_window("recurring", worlds.skew_a, worlds.skew_a, 0.0, 0.0);
    }
  }

  server.shutdown();
  out.final_stats = server.stats();
  out.recurring_accuracy =
      recurring_windows != 0
          ? recurring_acc_sum / static_cast<double>(recurring_windows)
          : 0.0;
  return out;
}

/// Merging windows [begin, begin+n) of per-window summaries is impossible —
/// summaries aren't mergeable — so a cohort's p99 is the MEDIAN of its
/// windows' p99s (a single-core CI box throws multi-ms scheduler spikes into
/// individual windows; the median keeps the shape claim about the POLICY,
/// not the noise) and its RSS the cohort mean.
struct Cohort {
  double p99 = 0.0;
  double rss = 0.0;
};

Cohort cohort(const std::vector<WindowRecord>& windows, std::size_t begin,
              std::size_t n) {
  Cohort c;
  std::vector<double> p99s;
  double rss_sum = 0.0;
  for (std::size_t i = begin; i < begin + n && i < windows.size(); ++i) {
    p99s.push_back(windows[i].latency.p99_seconds);
    rss_sum += static_cast<double>(windows[i].rss);
  }
  if (p99s.empty()) return c;
  std::sort(p99s.begin(), p99s.end());
  c.p99 = p99s[p99s.size() / 2];
  c.rss = rss_sum / static_cast<double>(p99s.size());
  return c;
}

void print_run(const char* name, const RunOutcome& run) {
  std::printf("--- %s ---\n", name);
  std::printf("  %-4s %-10s %9s %9s %6s %8s %6s\n", "win", "phase",
              "p50(ms)", "p99(ms)", "K", "rss(MB)", "acc");
  for (std::size_t i = 0; i < run.windows.size(); ++i) {
    const WindowRecord& w = run.windows[i];
    std::printf("  %-4zu %-10s %9.3f %9.3f %6zu %8.1f %6.3f\n", i,
                w.phase.c_str(), 1e3 * w.latency.p50_seconds,
                1e3 * w.latency.p99_seconds, w.live_domains,
                static_cast<double>(w.rss) / (1024.0 * 1024.0), w.accuracy);
  }
  const ServerStats& s = run.final_stats;
  std::printf("  rounds=%llu absorbed=%llu merged=%llu evicted=%llu "
              "dropped=%llu (overflow=%llu) ood=%llu\n",
              static_cast<unsigned long long>(s.adaptation_rounds),
              static_cast<unsigned long long>(s.adaptation_absorbed),
              static_cast<unsigned long long>(s.adaptation_merged),
              static_cast<unsigned long long>(s.adaptation_evicted),
              static_cast<unsigned long long>(s.adaptation_dropped),
              static_cast<unsigned long long>(s.adaptation_overflow),
              static_cast<unsigned long long>(s.ood_flagged));
  std::fflush(stdout);
}

void emit_windows(std::FILE* f, const RunOutcome& run) {
  for (std::size_t i = 0; i < run.windows.size(); ++i) {
    const WindowRecord& w = run.windows[i];
    std::fprintf(f,
                 "      {\"window\": %zu, \"phase\": \"%s\", "
                 "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"live_domains\": %zu, "
                 "\"rss_bytes\": %zu, \"accuracy\": %.4f}%s\n",
                 i, w.phase.c_str(), 1e3 * w.latency.p50_seconds,
                 1e3 * w.latency.p99_seconds, w.live_domains, w.rss,
                 w.accuracy, i + 1 < run.windows.size() ? "," : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Domain-lifecycle bench: bounded vs unbounded continual adaptation on "
      "a long abrupt/gradual/recurring drift stream — flat memory and flat "
      "p99 vs monotone growth; emits BENCH_adaptation_lifecycle.json.");
  cli.flag_int("cycles", 24,
               "drift cycles (each: abrupt, gradual, recurring)")
      .flag_int("windows-per-phase", 2, "measurement windows per phase")
      .flag_int("window-queries", 300, "queries per measurement window")
      .flag_int("dim", 1024, "hyperdimension")
      .flag_int("classes", 4, "classes")
      .flag_int("domains", 3, "source domains")
      .flag_int("max-domains", 8, "lifecycle cap (bounded run)")
      .flag_int("adapt-min-batch", 64, "OOD windows per adaptation round")
      .flag_string("out", "BENCH_adaptation_lifecycle.json",
                   "JSON output path")
      .flag_int("seed", 42, "data seed");
  bench::add_smoke_flag(cli);
  if (!cli.parse(argc, argv)) return 1;

  StreamParams p;
  p.cycles = static_cast<std::size_t>(cli.get_int("cycles"));
  p.windows_per_phase =
      static_cast<std::size_t>(cli.get_int("windows-per-phase"));
  p.window_queries = static_cast<std::size_t>(cli.get_int("window-queries"));
  std::size_t dim = static_cast<std::size_t>(cli.get_int("dim"));
  const int classes = static_cast<int>(cli.get_int("classes"));
  const int domains = static_cast<int>(cli.get_int("domains"));
  std::size_t max_domains =
      static_cast<std::size_t>(cli.get_int("max-domains"));
  std::size_t adapt_min_batch =
      static_cast<std::size_t>(cli.get_int("adapt-min-batch"));
  if (cli.get_bool("smoke")) {
    p.cycles = 2;
    p.window_queries = 60;
    dim = 256;
    adapt_min_batch = 16;
  }
  const std::string out_path = cli.get_string("out");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  Rng rng(seed);
  const DriftWorlds worlds(dim, classes, rng);
  const HvDataset train = make_train(worlds, domains, 20, rng);
  SmoreModel model(classes, dim);
  model.fit(train);
  model.calibrate_delta_star(train, 0.05);

  const std::size_t total_windows = p.cycles * 3 * p.windows_per_phase;
  std::printf("[bench] %zu cycles x 3 phases x %zu windows x %zu queries "
              "(d=%zu, K0=%d, cap=%zu) per mode\n",
              p.cycles, p.windows_per_phase, p.window_queries, dim, domains,
              max_domains);

  // Bounded FIRST (see the scale note in the header).
  const RunOutcome bounded = run_stream(model, worlds, p, /*bounded=*/true,
                                        max_domains, adapt_min_batch, seed);
  print_run("bounded (lifecycle)", bounded);
  const RunOutcome unbounded =
      run_stream(model, worlds, p, /*bounded=*/false, max_domains,
                 adapt_min_batch, seed);
  print_run("unbounded (no cap, no merge)", unbounded);

  // Cohorts are whole cycles: early = cycle 2 (cycle 1 pays allocator and
  // snapshot warmup — RSS climbs regardless of policy while the heap grows
  // to steady state), late = the last cycle. Tiny runs (--smoke) fall back
  // to comparing the only cycle against itself.
  const std::size_t wpc = 3 * p.windows_per_phase;  // windows per cycle
  const std::size_t early_begin = total_windows > 2 * wpc ? wpc : 0;
  const Cohort b_early = cohort(bounded.windows, early_begin, wpc);
  const Cohort b_late =
      cohort(bounded.windows, bounded.windows.size() - wpc, wpc);
  const Cohort u_early = cohort(unbounded.windows, early_begin, wpc);
  const Cohort u_late =
      cohort(unbounded.windows, unbounded.windows.size() - wpc, wpc);

  const bool rss_supported = rss_bytes() != 0;
  const double b_p99_ratio = b_early.p99 > 0.0 ? b_late.p99 / b_early.p99 : 0.0;
  const double u_p99_ratio = u_early.p99 > 0.0 ? u_late.p99 / u_early.p99 : 0.0;
  const double b_rss_ratio = b_early.rss > 0.0 ? b_late.rss / b_early.rss : 0.0;
  const double u_rss_ratio = u_early.rss > 0.0 ? u_late.rss / u_early.rss : 0.0;
  const double acc_gap =
      bounded.recurring_accuracy - unbounded.recurring_accuracy;

  const bool pass_cap = bounded.max_domains_seen <= max_domains;
  const bool pass_flat_p99 = b_p99_ratio <= 1.2;
  const bool pass_flat_rss = !rss_supported || b_rss_ratio <= 1.1;
  const bool baseline_grows =
      unbounded.max_domains_seen > bounded.max_domains_seen &&
      u_p99_ratio > b_p99_ratio && (!rss_supported || u_rss_ratio > 1.1);
  const bool pass_accuracy = acc_gap >= -0.03;

  std::printf(
      "[accept] cap<=%zu: %s (saw %zu) | bounded p99 late/early %.2f "
      "(<=1.2: %s) | bounded rss late/early %.2f (<=1.1: %s) | unbounded "
      "grows (K %zu, p99 %.2fx, rss %.2fx): %s | recurring acc bounded %.3f "
      "vs unbounded %.3f (gap %+.3f >= -0.03: %s)\n",
      max_domains, pass_cap ? "PASS" : "FAIL", bounded.max_domains_seen,
      b_p99_ratio, pass_flat_p99 ? "PASS" : "FAIL", b_rss_ratio,
      pass_flat_rss ? "PASS" : "FAIL", unbounded.max_domains_seen,
      u_p99_ratio, u_rss_ratio, baseline_grows ? "PASS" : "FAIL",
      bounded.recurring_accuracy, unbounded.recurring_accuracy, acc_gap,
      pass_accuracy ? "PASS" : "FAIL");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"cycles\": %zu,\n"
      "  \"windows_per_phase\": %zu,\n"
      "  \"window_queries\": %zu,\n"
      "  \"dim\": %zu,\n"
      "  \"classes\": %d,\n"
      "  \"source_domains\": %d,\n"
      "  \"max_domains\": %zu,\n"
      "  \"adapt_min_batch\": %zu,\n"
      "  \"rss_supported\": %s,\n"
      "  \"bounded\": {\n"
      "    \"max_domains_seen\": %zu,\n"
      "    \"p99_late_over_early\": %.4f,\n"
      "    \"rss_late_over_early\": %.4f,\n"
      "    \"recurring_accuracy\": %.4f,\n"
      "    \"adaptation_rounds\": %llu,\n"
      "    \"adaptation_merged\": %llu,\n"
      "    \"adaptation_evicted\": %llu,\n"
      "    \"adaptation_overflow\": %llu,\n"
      "    \"windows\": [\n",
      p.cycles, p.windows_per_phase, p.window_queries, dim, classes, domains,
      max_domains, adapt_min_batch, rss_supported ? "true" : "false",
      bounded.max_domains_seen, b_p99_ratio, b_rss_ratio,
      bounded.recurring_accuracy,
      static_cast<unsigned long long>(bounded.final_stats.adaptation_rounds),
      static_cast<unsigned long long>(bounded.final_stats.adaptation_merged),
      static_cast<unsigned long long>(bounded.final_stats.adaptation_evicted),
      static_cast<unsigned long long>(
          bounded.final_stats.adaptation_overflow));
  emit_windows(f, bounded);
  std::fprintf(
      f,
      "    ]\n"
      "  },\n"
      "  \"unbounded\": {\n"
      "    \"max_domains_seen\": %zu,\n"
      "    \"p99_late_over_early\": %.4f,\n"
      "    \"rss_late_over_early\": %.4f,\n"
      "    \"recurring_accuracy\": %.4f,\n"
      "    \"adaptation_rounds\": %llu,\n"
      "    \"adaptation_overflow\": %llu,\n"
      "    \"windows\": [\n",
      unbounded.max_domains_seen, u_p99_ratio, u_rss_ratio,
      unbounded.recurring_accuracy,
      static_cast<unsigned long long>(unbounded.final_stats.adaptation_rounds),
      static_cast<unsigned long long>(
          unbounded.final_stats.adaptation_overflow));
  emit_windows(f, unbounded);
  std::fprintf(f,
               "    ]\n"
               "  },\n"
               "  \"accept\": {\n"
               "    \"bounded_bank_capped\": %s,\n"
               "    \"bounded_flat_p99\": %s,\n"
               "    \"bounded_flat_rss\": %s,\n"
               "    \"unbounded_baseline_grows\": %s,\n"
               "    \"recurring_accuracy_within_003\": %s\n"
               "  }\n"
               "}\n",
               pass_cap ? "true" : "false", pass_flat_p99 ? "true" : "false",
               pass_flat_rss ? "true" : "false",
               baseline_grows ? "true" : "false",
               pass_accuracy ? "true" : "false");
  std::fclose(f);
  std::printf("(json: %s)\n", out_path.c_str());
  return 0;
}
