// Unit tests for the serving-runtime utilities that do not need a model:
// the latency histogram and the bounded MPMC request queue.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "util/latency.hpp"
#include "util/mpmc_queue.hpp"

namespace smore {
namespace {

using namespace std::chrono_literals;

TEST(LatencyHistogram, EmptyReportsZeros) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
  EXPECT_EQ(h.mean_seconds(), 0.0);
}

TEST(LatencyHistogram, ExactStatsSurviveBucketing) {
  LatencyHistogram h;
  h.record(1e-3);
  h.record(5e-3);
  h.record(20e-3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 20e-3);
  EXPECT_NEAR(h.mean_seconds(), (1e-3 + 5e-3 + 20e-3) / 3.0, 1e-12);
}

TEST(LatencyHistogram, PercentilesWithinBucketResolution) {
  // 99 observations at ~1 ms and one at ~100 ms: p50 must sit at 1 ms and
  // p99 still at 1 ms (rank 99 of 100), while the max reports 100 ms.
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.record(1e-3);
  h.record(100e-3);
  // Buckets are ~9% wide; allow 10% relative slack.
  EXPECT_NEAR(h.p50(), 1e-3, 1e-4);
  EXPECT_NEAR(h.p99(), 1e-3, 1e-4);
  EXPECT_NEAR(h.quantile(1.0), 100e-3, 1e-12);  // exact max
  EXPECT_NEAR(h.quantile(0.0), 1e-3, 1e-12);    // exact min
}

TEST(LatencyHistogram, TailPercentileFindsTheSlowRequests) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.record(2e-3);
  for (int i = 0; i < 10; ++i) h.record(50e-3);
  EXPECT_NEAR(h.p50(), 2e-3, 2e-4);
  EXPECT_NEAR(h.p95(), 50e-3, 5e-3);
  EXPECT_NEAR(h.p99(), 50e-3, 5e-3);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram combined;
  for (int i = 0; i < 50; ++i) {
    const double fast = 1e-4 * (1 + i % 7);
    const double slow = 1e-2 * (1 + i % 3);
    a.record(fast);
    b.record(slow);
    combined.record(fast);
    combined.record(slow);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.min_seconds(), combined.min_seconds());
  EXPECT_DOUBLE_EQ(a.max_seconds(), combined.max_seconds());
  EXPECT_DOUBLE_EQ(a.mean_seconds(), combined.mean_seconds());
  EXPECT_DOUBLE_EQ(a.p50(), combined.p50());
  EXPECT_DOUBLE_EQ(a.p99(), combined.p99());
}

TEST(LatencyHistogram, OutOfRangeValuesClampToEdgeBuckets) {
  LatencyHistogram h;
  h.record(-1.0);    // floor bucket
  h.record(1e-9);    // below 1 µs → floor bucket
  h.record(1e6);     // above range → ceiling bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(-1.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1e6),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, BucketMidpointsAreMonotonic) {
  for (std::size_t b = 1; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_LT(LatencyHistogram::bucket_mid(b - 1),
              LatencyHistogram::bucket_mid(b));
  }
}

// ---------------------------------------------------------------- MpmcQueue

TEST(MpmcQueue, ZeroCapacityThrows) {
  EXPECT_THROW(MpmcQueue<int>(0), std::invalid_argument);
}

TEST(MpmcQueue, PopBatchReturnsUpToMaxBatchInFifoOrder) {
  MpmcQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(i));
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.pop_batch(out, 100), 6u);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(out.back(), 9);
}

TEST(MpmcQueue, TryPushRefusesWhenFull) {
  MpmcQueue<int> q(2);
  EXPECT_EQ(q.try_push(1), QueuePush::kAccepted);
  EXPECT_EQ(q.try_push(2), QueuePush::kAccepted);
  // The refusal names its reason — the queue's own atomic decision, which
  // shed-reason reporting relies on (no racy closed() re-read).
  EXPECT_EQ(q.try_push(3), QueuePush::kFull);
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 1), 1u);
  EXPECT_EQ(q.try_push(3), QueuePush::kAccepted);  // capacity freed
}

TEST(MpmcQueue, CloseDrainsThenReportsExhaustion) {
  MpmcQueue<int> q(8);
  ASSERT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.push(8));      // refused after close
  EXPECT_EQ(q.try_push(9), QueuePush::kClosed);
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 4), 1u);  // drains the remainder
  EXPECT_EQ(out, std::vector<int>{7});
  EXPECT_EQ(q.pop_batch(out, 4), 0u);  // exhausted
}

TEST(MpmcQueue, PopBatchReturnsWhatIsQueuedWithoutWaitingForMore) {
  // Work-conserving: the pop takes the two queued items and returns. The
  // producer pushes only after the pop has returned, so a pop that waited
  // for more work (or for max_batch) would never come back.
  MpmcQueue<int> q(8);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::promise<void> popped;
  std::thread producer([&q, ready = popped.get_future()] {
    ready.wait();
    q.push(3);
  });
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 8), 2u);
  popped.set_value();
  producer.join();
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.size(), 1u);
}

TEST(MpmcQueue, PopBatchTakesAtMostMaxBatchFromAFullerQueue) {
  // A full ring with a producer blocked behind it: the pop takes max_batch
  // and leaves the rest queued; the capacity it frees releases the producer.
  MpmcQueue<int> q(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.push(i));
  std::thread producer([&q] { EXPECT_TRUE(q.push(4)); });
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 2), 2u);
  producer.join();
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.size(), 3u);
}

TEST(MpmcQueue, BlockedPushWakesWhenCapacityFrees) {
  MpmcQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(2);  // blocks until the consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(2ms);
  EXPECT_FALSE(pushed.load());
  std::vector<int> out;
  EXPECT_GE(q.pop_batch(out, 1), 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(MpmcQueue, ManyProducersOneConsumerLosesNothing) {
  MpmcQueue<int> q(32);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> out;
  while (out.size() < kProducers * kPerProducer) {
    q.pop_batch(out, 16);
  }
  for (auto& t : producers) t.join();
  std::vector<bool> seen(kProducers * kPerProducer, false);
  for (const int v : out) {
    ASSERT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

}  // namespace
}  // namespace smore
