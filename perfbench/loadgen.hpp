#pragma once
// Open-loop load generation with exact per-request timing.
//
// A phase is a precomputed schedule of arrivals (Poisson at a fixed rate).
// A generator thread waits for each arrival's due time and submits it; a
// collector thread watches every in-flight future and stamps its completion
// the moment it is seen ready. A request is timed from its DUE time, so a
// submit() that blocks (backpressure) is charged to every request it
// delays; and the fair drain completes requests out of submit order, so the
// collector never blocks on one future in submit order: it scans them all.
//
// Percentiles come from the exact per-request samples, never from a
// bucketed histogram.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <functional>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "serve/server.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// CPU seconds of the whole process (user + system, every thread) and of
/// the calling thread. Neither counts time the hypervisor gave someone else.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One scheduled request. `tenant`, `query` and `world` index the
/// workload's own tables; `label` is the ground truth.
struct Arrival {
  std::int64_t due_ns = 0;  ///< offset from the phase start
  std::uint32_t tenant = 0;
  std::uint32_t query = 0;
  std::uint32_t world = 0;
  std::int32_t label = -1;
};

enum class Outcome : std::uint8_t { kNotSent, kOk, kShed, kFailed };

/// One request as the client saw it. Times are ns from the phase start.
struct Sample {
  Arrival arrival;
  std::int64_t call_ns = 0;  ///< submit() entered
  std::int64_t ret_ns = 0;   ///< submit() returned
  std::int64_t done_ns = 0;  ///< future seen ready by the collector
  Outcome outcome = Outcome::kNotSent;
  smore::ServeResult result;

  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(done_ns - arrival.due_ns) * 1e-6;
  }
  [[nodiscard]] double lateness_ms() const {
    return static_cast<double>(call_ns - arrival.due_ns) * 1e-6;
  }
};

/// Submit one arrival: a future, or std::nullopt when the server shed it.
using SubmitFn = std::function<std::optional<std::future<smore::ServeResult>>(
    const Arrival&)>;

/// Poisson arrivals at `rate` per second for `seconds`; `fill` sets every
/// field but the due time (it sees the due time in seconds).
inline std::vector<Arrival> poisson_schedule(
    double rate, double seconds, std::uint64_t seed,
    const std::function<void(smore::Rng&, double, Arrival&)>& fill) {
  smore::Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t * 1e9);
    fill(rng, t, a);
    out.push_back(a);
  }
  return out;
}

struct LoadOptions {
  /// Stop sending once a request is this late (the phase has failed;
  /// remaining arrivals stay kNotSent). A safety valve on fixed-rate phases.
  std::int64_t abort_late_ns = 20'000'000'000;
  /// Stop sending at the first shed or failed request (ladder probes).
  bool abort_on_failure = false;
};

/// Client threads sleep instead of spinning wherever they can: a thread
/// that sleeps keeps its scheduler credit and runs promptly when it wakes,
/// while a spinning one competes as a CPU hog with the program's own pool
/// threads on a small box. A 1 ns timer slack makes those sleeps precise.
inline void precise_timers() {
#if defined(__linux__)
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

/// Wait until the absolute steady-clock time `target` (ns): sleep until
/// shortly before it, then spin the last few microseconds.
inline void wait_until_ns(std::int64_t target) {
  constexpr std::int64_t kSpin = 20'000;
  const std::int64_t left = target - now_ns();
  if (left > 2 * kSpin) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpin));
  }
  while (now_ns() < target) {
  }
}

/// Run one open-loop phase: a generator thread submits each arrival at its
/// due time, a collector thread stamps completions. Returns one Sample per
/// arrival, in schedule order; every sent request has completed when this
/// returns. `client_cpu_s` receives the CPU seconds both threads spent
/// outside submit() — the program's own work on the caller's thread (the
/// request's allocation and enqueue, a cold tenant's load) is not the
/// client's.
inline std::vector<Sample> run_open_loop(const std::vector<Arrival>& schedule,
                                         const SubmitFn& submit,
                                         const LoadOptions& options,
                                         double* client_cpu_s = nullptr) {
  const std::size_t n = schedule.size();
  std::vector<Sample> samples(n);
  std::vector<std::future<smore::ServeResult>> futures(n);
  for (std::size_t i = 0; i < n; ++i) samples[i].arrival = schedule[i];

  std::atomic<bool> generating{true};
  smore::Mutex handoff_m;
  smore::CondVar handoff_cv;
  std::vector<std::size_t> handoff;  // guarded by handoff_m
  std::atomic<bool> collector_idle{false};
  double generator_cpu = 0.0;
  double collector_cpu = 0.0;

  const std::int64_t t0 = now_ns() + 2'000'000;  // 2 ms to start threads

  auto generate = [&] {
    precise_timers();
    const double cpu0 = thread_cpu_s();
    double in_submit = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      Sample& s = samples[i];
      wait_until_ns(t0 + s.arrival.due_ns);
      s.call_ns = now_ns() - t0;
      if (s.call_ns - s.arrival.due_ns > options.abort_late_ns) break;
      try {
        const double submit_cpu0 = thread_cpu_s();
        std::optional<std::future<smore::ServeResult>> fut = submit(s.arrival);
        s.ret_ns = now_ns() - t0;
        in_submit += thread_cpu_s() - submit_cpu0;
        if (fut.has_value()) {
          futures[i] = std::move(*fut);
          {
            const smore::MutexLock lock(handoff_m);
            handoff.push_back(i);
          }
          if (collector_idle.load(std::memory_order_acquire)) {
            handoff_cv.notify_one();
          }
          continue;
        }
        s.outcome = Outcome::kShed;
        s.done_ns = s.ret_ns;
      } catch (...) {
        s.ret_ns = s.done_ns = now_ns() - t0;
        s.outcome = Outcome::kFailed;
      }
      if (options.abort_on_failure) break;
    }
    generator_cpu = thread_cpu_s() - cpu0 - in_submit;
    generating.store(false, std::memory_order_release);
    handoff_cv.notify_one();
  };

  // The collector sleeps on the oldest in-flight future (woken when it is
  // fulfilled, or after kPoll) and then stamps every future found ready, so
  // a request completed out of order — the fair drain reorders tenants — is
  // seen within kPoll.
  auto collect = [&] {
    precise_timers();
    const double cpu0 = thread_cpu_s();
    constexpr auto kPoll = std::chrono::microseconds(20);
    std::vector<std::size_t> pending;
    std::vector<std::size_t> fresh;
    for (;;) {
      const bool done_sending = !generating.load(std::memory_order_acquire);
      {
        const smore::MutexLock lock(handoff_m);
        if (pending.empty() && handoff.empty() && !done_sending) {
          collector_idle.store(true, std::memory_order_release);
          handoff_cv.wait_for(handoff_m, std::chrono::milliseconds(1));
          collector_idle.store(false, std::memory_order_release);
        }
        fresh.swap(handoff);
      }
      pending.insert(pending.end(), fresh.begin(), fresh.end());
      fresh.clear();
      if (!pending.empty()) (void)futures[pending.front()].wait_for(kPoll);
      std::size_t kept = 0;
      for (const std::size_t i : pending) {
        std::future<smore::ServeResult>& f = futures[i];
        if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          pending[kept++] = i;
          continue;
        }
        Sample& s = samples[i];
        s.done_ns = now_ns() - t0;
        try {
          s.result = f.get();
          s.outcome = s.result.status == smore::ServeStatus::kOk
                          ? Outcome::kOk
                          : Outcome::kFailed;
        } catch (...) {
          s.outcome = Outcome::kFailed;
        }
      }
      pending.resize(kept);
      if (done_sending && pending.empty()) {
        const smore::MutexLock lock(handoff_m);
        if (handoff.empty()) break;
      }
    }
    collector_cpu = thread_cpu_s() - cpu0;
  };

  std::thread collector(collect);
  std::thread generator(generate);
  generator.join();
  collector.join();
  if (client_cpu_s != nullptr) *client_cpu_s = generator_cpu + collector_cpu;
  return samples;
}

/// Nearest-rank percentile of an ascending-sorted sample (q in [0, 1]).
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, q);
}

/// Samples needed beyond a percentile before it is reported as supported.
inline constexpr std::size_t kTailSupport = 10;

/// A tail percentile that a host stall cannot swing: the phase (samples in
/// arrival order) is cut into up to ten consecutive windows of at least 200
/// requests, the exact percentile is taken in each window, and the median
/// window's value is reported. A stall of a few milliseconds — a preempted
/// vCPU on a shared host — lands in one or two windows and moves the median
/// window little; a slower program moves every window.
inline double windowed_percentile(const std::vector<double>& in_order,
                                  double q) {
  constexpr std::size_t kMaxWindows = 10;
  constexpr std::size_t kMinPerWindow = 200;
  if (in_order.empty()) return 0.0;
  const std::size_t windows = std::clamp<std::size_t>(
      in_order.size() / kMinPerWindow, 1, kMaxWindows);
  std::vector<double> per_window;
  const std::size_t len = in_order.size() / windows;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = in_order.begin() + static_cast<std::ptrdiff_t>(w * len);
    const auto end = w + 1 == windows
                         ? in_order.end()
                         : begin + static_cast<std::ptrdiff_t>(len);
    per_window.push_back(percentile(std::vector<double>(begin, end), q));
  }
  return percentile(per_window, 0.5);
}

}  // namespace perfbench
