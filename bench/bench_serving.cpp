// Serving-runtime throughput/latency: what micro-batching buys over
// per-request dispatch (DESIGN.md §9).
//
// Spawns an InferenceServer, drives it from `--producers` threads that each
// keep `--window` requests in flight (open-loop pipelined submission — the
// shape of real concurrent clients), and sweeps the scheduler knob:
//
//   batch=1   — the per-request baseline: every request pays its own queue
//               hop, worker wakeup, kernel setup, and result allocations;
//   batch=N   — micro-batching: those fixed costs amortize over up to N
//               requests that queued while the worker was busy, served by
//               ONE predict_batch_full pass (no formation timer).
//
// Reports queries/sec plus p50/p95/p99 submit→fulfill latency from the
// server's own LatencyHistogram, for the float and the packed backend, and
// the direct-batched ceiling (one predict over the whole set, no server).
// The serving PR's acceptance figure is micro-batched ≥ 5× the batch-size-1
// submit loop at 8 producers, 4096-d float.
//
// Scale note (same caveat as bench_common.hpp): that 5× is a SCHEDULING
// claim — it needs per-request dispatch overhead (worker wakeups, futex
// contention across cores, serialized single-query kernels) to dominate
// per-request compute, which holds on a multicore server (the paper's has
// 24 hardware threads) where micro-batches also fan out across `--workers`.
// This dev/CI environment exposes ONE core: every stage is compute-bound,
// the worker never sleeps under pipelined load, and the ratio is capped by
// ceiling_vs_batch1 = direct_qps / batch1_qps (~1.1-1.6× here) no matter
// the scheduler. The bench therefore reports the measured speedup AND the
// single-core ceiling so the comparison reads as a shape claim; rerun with
// real cores (e.g. --workers=4 --producers=8) for the paper-scale figure.
// Emits BENCH_serving.json for CI tracking.

#include <cstdio>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/smore.hpp"
#include "eval/timer.hpp"
#include "hdc/hv_matrix.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {
using namespace smore;

/// Linearly separable encoded dataset (no encoder in the loop: this bench
/// isolates scheduling + inference, like bench_binary_inference).
HvDataset make_train(int classes, int domains, std::size_t per_cell,
                     std::size_t dim, Rng& rng) {
  std::vector<std::vector<float>> prototypes;
  for (int c = 0; c < classes; ++c) {
    std::vector<float> p(dim);
    for (auto& x : p) x = rng.bipolar();
    prototypes.push_back(std::move(p));
  }
  HvDataset data(dim);
  std::vector<float> row(dim);
  for (int d = 0; d < domains; ++d) {
    for (int c = 0; c < classes; ++c) {
      for (std::size_t i = 0; i < per_cell; ++i) {
        for (std::size_t j = 0; j < dim; ++j) {
          row[j] = prototypes[static_cast<std::size_t>(c)][j] +
                   static_cast<float>(rng.normal(0.0, 0.5));
        }
        data.add(row, c, d);
      }
    }
  }
  return data;
}

struct RunResult {
  std::string label;
  std::string backend;
  std::size_t max_batch = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double mean_batch_fill = 0.0;
  LatencySummary latency;
};

/// Drive `total` requests through a server from `producers` open-loop
/// threads with `window` requests in flight each. The snapshot's own
/// backend (float or packed — it was built with or without quantization)
/// answers the queries; the server never knows which.
RunResult run_config(const char* label, std::size_t max_batch,
                     std::size_t workers,
                     const std::shared_ptr<const ModelSnapshot>& snap,
                     const HvMatrix& queries, std::size_t total,
                     std::size_t producers, std::size_t window,
                     const std::shared_ptr<obs::Telemetry>& hub = nullptr) {
  ServerConfig cfg;
  cfg.max_batch = max_batch;
  cfg.num_workers = workers;
  cfg.queue_capacity = std::max<std::size_t>(1024, producers * window * 2);
  cfg.telemetry = hub;  // shared across configs when --metrics-json is on
  InferenceServer server(snap, cfg);

  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t n = total / producers;
      std::deque<std::future<ServeResult>> inflight;
      for (std::size_t i = 0; i < n; ++i) {
        const auto row = queries.row((p * n + i) % queries.rows());
        inflight.push_back(server.submit({row.begin(), row.end()}));
        if (inflight.size() >= window) {
          inflight.front().get();
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        inflight.front().get();
        inflight.pop_front();
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = timer.seconds();
  server.shutdown();
  const ServerStats stats = server.stats();

  RunResult r;
  r.label = label;
  r.backend = snap->backend->name();
  r.max_batch = max_batch;
  r.seconds = seconds;
  r.qps = static_cast<double>(stats.completed) / seconds;
  r.mean_batch_fill = stats.mean_batch_fill;
  r.latency = stats.latency;
  std::printf("  %-28s %7zu q in %7.3f s  %9.0f q/s  fill %6.1f  "
              "p50 %7.3f ms  p95 %7.3f ms  p99 %7.3f ms\n",
              label, static_cast<std::size_t>(stats.completed), seconds, r.qps,
              r.mean_batch_fill, 1e3 * r.latency.p50_seconds,
              1e3 * r.latency.p95_seconds, 1e3 * r.latency.p99_seconds);
  std::fflush(stdout);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Serving-runtime bench: micro-batched vs per-request dispatch "
      "(queries/sec, p50/p95/p99) for the float and packed backends; emits "
      "BENCH_serving.json.");
  cli.flag_int("queries", 20000, "total requests per configuration")
      .flag_int("dim", 4096, "hyperdimension")
      .flag_int("classes", 6, "classes")
      .flag_int("domains", 4, "source domains")
      .flag_int("producers", 8, "producer threads")
      .flag_int("window", 64, "in-flight requests per producer")
      .flag_int("workers", 1, "batching worker threads")
      .flag_string("out", "BENCH_serving.json", "JSON output path")
      .flag_bool("metrics-json", false,
                 "embed the telemetry metrics snapshot (cumulative over all "
                 "configs) in the output JSON")
      .flag_int("seed", 42, "data seed");
  bench::add_smoke_flag(cli);
  if (!cli.parse(argc, argv)) return 1;

  auto total = static_cast<std::size_t>(cli.get_int("queries"));
  auto dim = static_cast<std::size_t>(cli.get_int("dim"));
  auto producers = static_cast<std::size_t>(cli.get_int("producers"));
  auto window = static_cast<std::size_t>(cli.get_int("window"));
  const auto workers = static_cast<std::size_t>(cli.get_int("workers"));
  const int classes = static_cast<int>(cli.get_int("classes"));
  const int domains = static_cast<int>(cli.get_int("domains"));
  if (cli.get_bool("smoke")) {
    total = 2000;
    dim = 512;
    window = 16;
  }
  const std::string out_path = cli.get_string("out");
  // One hub shared across every configuration: the embedded snapshot shows
  // cumulative fleet counters, the slow-span tail, and events for the whole
  // sweep (the per-config numbers stay in "configs").
  const std::shared_ptr<obs::Telemetry> hub =
      cli.get_bool("metrics-json") ? obs::Telemetry::make() : nullptr;

  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const HvDataset train = make_train(classes, domains, 20, dim, rng);
  SmoreModel model(classes, dim);
  model.fit(train);
  model.calibrate_delta_star(train, 0.05);

  // Query mix: mostly in-distribution rows, some noise (exercises the OOD
  // branch of the weights loop like real traffic would).
  HvMatrix queries(1024, dim);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    if (i % 8 == 7) {
      for (std::size_t j = 0; j < dim; ++j) {
        queries.row(i)[j] = static_cast<float>(rng.normal());
      }
    } else {
      queries.set_row(i, train.row(i % train.size()));
    }
  }

  const auto float_snap = ModelSnapshot::make(model.clone(), false, 1);
  const auto packed_snap = ModelSnapshot::make(model.clone(), true, 1);

  std::printf("[bench] %zu requests/config, d=%zu, K=%d, C=%d, %zu producers "
              "x window %zu, %zu worker(s)\n",
              total, dim, domains, classes, producers, window, workers);

  // Direct-batched ceiling: the whole request set as ONE batch, no server.
  double direct_s;
  {
    WallTimer t;
    std::size_t done = 0;
    while (done < total) {
      const std::size_t n = std::min(queries.rows(), total - done);
      (void)float_snap->model->predict_batch_full(queries.view().slice(0, n));
      done += n;
    }
    direct_s = t.seconds();
  }
  std::printf("  %-28s %7zu q in %7.3f s  %9.0f q/s  (no scheduling: upper "
              "bound)\n",
              "direct predict_batch_full", total, direct_s,
              static_cast<double>(total) / direct_s);

  std::vector<RunResult> results;
  // THE baseline of the acceptance figure: a batch-size-1 submit loop —
  // every producer submits one request and waits for its future before the
  // next (window=1), and the server coalesces nothing.
  results.push_back(run_config("float submit loop (batch=1)", 1, workers,
                               float_snap, queries, total, producers,
                               /*window=*/1, hub));
  results.push_back(run_config("float batch=1 pipelined", 1, workers,
                               float_snap, queries, total, producers, window, hub));
  results.push_back(run_config("float batch=8", 8, workers,
                               float_snap, queries, total, producers, window, hub));
  results.push_back(run_config("float batch=32", 32, workers,
                               float_snap, queries, total, producers, window, hub));
  results.push_back(run_config("float batch=64", 64, workers,
                               float_snap, queries, total, producers, window, hub));
  results.push_back(run_config("float batch=128", 128, workers,
                               float_snap, queries, total, producers, window, hub));
  results.push_back(run_config("packed batch=1 (baseline)", 1, workers,
                               packed_snap, queries, total, producers, window, hub));
  results.push_back(run_config("packed batch=64", 64, workers,
                               packed_snap, queries, total, producers, window, hub));

  // Acceptance figure: best float micro-batch vs the float submit loop.
  double best_float_qps = 0.0;
  for (const RunResult& r : results) {
    if (r.backend == "float" && r.max_batch > 1 && r.qps > best_float_qps) {
      best_float_qps = r.qps;
    }
  }
  const double baseline_qps = results.front().qps;
  const double direct_qps = static_cast<double>(total) / direct_s;
  const double speedup = best_float_qps / baseline_qps;
  const double ceiling = direct_qps / baseline_qps;
  std::printf("  micro-batched vs submit loop (float): %.2fx   "
              "single-core compute ceiling: %.2fx   (acceptance >= 5x needs "
              "multicore: see the scale note)\n",
              speedup, ceiling);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"queries_per_config\": %zu,\n"
               "  \"dim\": %zu,\n"
               "  \"classes\": %d,\n"
               "  \"domains\": %d,\n"
               "  \"producers\": %zu,\n"
               "  \"window\": %zu,\n"
               "  \"workers\": %zu,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"direct_batched_queries_per_second\": %.1f,\n"
               "  \"speedup_microbatch_vs_submit_loop_float\": %.3f,\n"
               "  \"single_core_ceiling_vs_submit_loop\": %.3f,\n"
               "  \"configs\": [\n",
               total, dim, classes, domains, producers, window, workers,
               std::thread::hardware_concurrency(), direct_qps, speedup,
               ceiling);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"max_batch\": %zu, "
                 "\"seconds\": %.6f, "
                 "\"queries_per_second\": %.1f, \"mean_batch_fill\": %.2f, "
                 "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"max_ms\": %.4f}%s\n",
                 r.backend.c_str(), r.max_batch, r.seconds,
                 r.qps, r.mean_batch_fill, 1e3 * r.latency.p50_seconds,
                 1e3 * r.latency.p95_seconds, 1e3 * r.latency.p99_seconds,
                 1e3 * r.latency.max_seconds,
                 i + 1 < results.size() ? "," : "");
  }
  if (hub != nullptr) {
    // The snapshot is already JSON: splice it in as a raw value.
    std::fprintf(f, "  ],\n  \"telemetry\": %s\n}\n",
                 obs::snapshot_json(*hub).dump(2).c_str());
  } else {
    std::fprintf(f, "  ]\n}\n");
  }
  std::fclose(f);
  std::printf("(json: %s)\n", out_path.c_str());
  return 0;
}
