// Fleet serving: many tenants, one process — registry + router end to end.
//
// A deployment is rarely one model: per-user/per-cohort .smore artifacts
// share a machine whose memory cannot hold them all. This example walks the
// multi-tenant layer (DESIGN.md §12) the way an operator meets it:
//   1. train THREE distinct tenant pipelines and deploy each as
//      <dir>/<tenant>.smore — the registry's directory layout;
//   2. boot a ModelRegistry budgeted for TWO resident models behind a
//      MultiTenantServer and watch the cold-start → warm
//      latency drop as lazy loads cache;
//   3. touch the third tenant: the LRU tenant is evicted to fit the
//      budget, transparently reloaded on its next request, and every
//      response stays correct throughout;
//   4. flood one tenant past its in-flight quota with try_submit: the
//      flooder is shed with kShedTenantQuota while another tenant's
//      traffic is still admitted untouched;
//   5. shut down gracefully and read the per-tenant scoreboard.
//
//   ./build/example_fleet_serving --dir=/tmp/smore_fleet

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "serve/registry.hpp"
#include "serve/router.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace smore;
  using Clock = std::chrono::steady_clock;

  CliParser cli("SMORE fleet serving: model registry (lazy load, LRU "
                "budget) + tenant-fair multi-tenant router.");
  cli.flag_string("dir", "/tmp/smore_fleet", "artifact directory")
      .flag_string("metrics-out", "",
                   "write the telemetry JSON snapshot here at exit (render "
                   "with tool_fleet_top --file=<path> --once)")
      .flag_int("dim", 1024, "hyperdimension")
      .flag_int("seed", 7, "base seed");
  if (!cli.parse(argc, argv)) return 1;
  const auto dim = static_cast<std::size_t>(cli.get_int("dim"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string dir = cli.get_string("dir");
  const std::string metrics_out = cli.get_string("metrics-out");

  // 1. Three tenants, three genuinely different models (different cohort
  // data AND different encoder seeds), one artifact each.
  std::filesystem::create_directories(dir);
  const std::vector<std::string> tenants{"cohort-a", "cohort-b", "cohort-c"};
  std::vector<HvDataset> queries;     // each tenant's own encoded windows
  std::vector<std::vector<int>> want; // ...and its model's direct labels
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const WindowDataset windows = generate_dataset(examples::demo_spec(
        tenants[t], /*activities=*/5, /*subjects=*/3, /*channels=*/6,
        /*window_steps=*/64, /*windows_per_subject=*/40,
        /*domain_shift=*/0.6, seed + t));
    Pipeline pipeline(examples::make_encoder(dim, seed + 100 * (t + 1)),
                      windows.num_classes());
    pipeline.fit(windows);
    pipeline.quantize();
    pipeline.calibrate(windows, 0.05);
    pipeline.save(dir + "/" + tenants[t] + ".smore");
    queries.push_back(pipeline.encode(windows));
    // The serving snapshot prefers the packed backend (the artifact is
    // quantized), so the ground truth for "same answer" is packed too.
    want.push_back(pipeline.predict_batch(windows, ServeBackend::kPacked));
  }
  std::printf("[deploy]   %zu artifacts in %s (d=%zu)\n", tenants.size(),
              dir.c_str(), dim);

  // 2. Registry budgeted for TWO resident models; fair router on top.
  std::size_t per_model;
  {
    std::ifstream in(dir + "/" + tenants[0] + ".smore", std::ios::binary);
    per_model = snapshot_resident_bytes(*ModelSnapshot::from_artifact(in, 1));
  }
  // One telemetry hub shared by registry AND router: loads, evictions,
  // per-tenant latency, and shed events all land in one exportable snapshot.
  const auto hub = obs::Telemetry::make();
  RegistryConfig rc;
  rc.byte_budget = 2 * per_model + per_model / 2;
  rc.telemetry = hub;
  auto registry = std::make_shared<ModelRegistry>(
      ModelRegistry::directory_source(dir), rc);
  MultiTenantConfig mc;
  mc.tenant_inflight_quota = 8;
  mc.telemetry = hub;
  MultiTenantServer server(registry, mc);
  std::printf("[boot]     budget %.0f KiB (~2 of %zu models, %.0f KiB "
              "each): residency is a cache, not a boot step\n",
              static_cast<double>(rc.byte_budget) / 1024.0, tenants.size(),
              static_cast<double>(per_model) / 1024.0);

  auto one = [&](std::size_t t, std::size_t i) {
    const auto row = queries[t].row(i);
    const auto start = Clock::now();
    const ServeResult r =
        server.submit(tenants[t], {row.begin(), row.end()}).get();
    const double ms = 1e-3 * static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start).count());
    return std::pair<ServeResult, double>(r, ms);
  };

  // Cold vs warm on the first two tenants (the budget holds both).
  for (std::size_t t = 0; t < 2; ++t) {
    const auto cold = one(t, 0);
    const auto warm = one(t, 1);
    std::printf("[%s] cold %6.2f ms (lazy artifact load) → warm %6.2f ms; "
                "labels match direct predict: %s\n",
                tenants[t].c_str(), cold.second, warm.second,
                (cold.first.label == want[t][0] &&
                 warm.first.label == want[t][1]) ? "yes" : "NO");
  }

  // 3. Third tenant overflows the budget: LRU (cohort-a) is evicted...
  const auto c = one(2, 0);
  std::printf("[%s] cold %6.2f ms → evicted the LRU tenant "
              "(resident %llu/%zu, evictions %llu)\n",
              tenants[2].c_str(), c.second,
              static_cast<unsigned long long>(
                  registry->stats().resident_tenants),
              tenants.size(),
              static_cast<unsigned long long>(registry->stats().evictions));
  // ...and the evicted tenant transparently reloads on its next request.
  const auto back = one(0, 2);
  std::printf("[%s] back %6.2f ms (reloaded on demand, label %s)\n",
              tenants[0].c_str(), back.second,
              back.first.label == want[0][2] ? "correct" : "WRONG");

  // 4. Admission control: flood cohort-b past its in-flight quota.
  std::size_t admitted = 0, shed = 0;
  std::vector<std::future<ServeResult>> inflight;
  for (std::size_t i = 0; i < 64; ++i) {
    ServeStatus reason{};
    auto fut = server.try_submit(
        tenants[1],
        {queries[1].row(i % queries[1].size()).begin(),
         queries[1].row(i % queries[1].size()).end()},
        &reason);
    if (fut.has_value()) {
      ++admitted;
      inflight.push_back(std::move(*fut));
    } else if (reason == ServeStatus::kShedTenantQuota) {
      ++shed;
    }
  }
  // The fleet is NOT full — another tenant's request sails through.
  const auto other = one(2, 1);
  for (auto& f : inflight) (void)f.get();
  std::printf("[fairness] flooded %s with 64 try_submits: %zu admitted, "
              "%zu shed (quota %zu) — while %s served in %5.2f ms\n",
              tenants[1].c_str(), admitted, shed, mc.tenant_inflight_quota,
              tenants[2].c_str(), other.second);

  // 5. Graceful drain, then the per-tenant scoreboard.
  server.shutdown();
  std::printf("[stats]    tenant        served  shed   p95 ms   loads=%llu "
              "evictions=%llu\n",
              static_cast<unsigned long long>(registry->stats().loads),
              static_cast<unsigned long long>(registry->stats().evictions));
  for (const TenantServerStats& t : server.tenant_stats()) {
    std::printf("           %-12s %6llu %5llu %8.2f\n", t.tenant.c_str(),
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.shed_tenant_quota),
                1e3 * t.latency.quantile(0.95));
  }
  if (!metrics_out.empty()) {
    if (obs::write_file_atomic(metrics_out, obs::snapshot_json_text(*hub))) {
      std::printf("[metrics]  snapshot → %s  (render: ./build/tool_fleet_top "
                  "--file=%s --once)\n",
                  metrics_out.c_str(), metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
  }
  return 0;
}
