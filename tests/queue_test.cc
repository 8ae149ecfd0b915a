#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "queue/mpmc_queue.h"

namespace nomad {
namespace {

// ---------- MpmcQueue ----------

TEST(MpmcQueueTest, FifoSingleThread) {
  MpmcQueue<int> q;
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Size(), 3u);
  EXPECT_EQ(q.TryPop().value(), 1);
  EXPECT_EQ(q.TryPop().value(), 2);
  EXPECT_EQ(q.TryPop().value(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpmcQueueTest, StressAllElementsDeliveredOnce) {
  MpmcQueue<int> q;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  std::atomic<int> consumed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load() < kProducers * kPerProducer) {
        auto v = q.TryPop();
        if (v.has_value()) {
          seen[static_cast<size_t>(*v)].fetch_add(1);
          consumed.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(MpmcQueueTest, PerProducerOrderPreserved) {
  // One producer, one consumer: strict FIFO even under concurrency.
  MpmcQueue<int> q;
  constexpr int kN = 20000;
  std::thread producer([&q] {
    for (int i = 0; i < kN; ++i) q.Push(i);
  });
  int expected = 0;
  while (expected < kN) {
    auto v = q.TryPop();
    if (v.has_value()) {
      EXPECT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
}

// ---------- MpmcQueue batch operations ----------

TEST(MpmcQueueBatchTest, PushBatchPopBatchFifoSingleThread) {
  MpmcQueue<int> q;
  const int first[] = {1, 2, 3};
  q.PushBatch(first, 3);
  q.Push(4);
  const int second[] = {5, 6};
  q.PushBatch(second, 2);
  EXPECT_EQ(q.Size(), 6u);

  int out[4] = {0, 0, 0, 0};
  EXPECT_EQ(q.TryPopBatch(out, 4), 4u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(out[2], 3);
  EXPECT_EQ(out[3], 4);
  // Batch pop interoperates with single pop and drains short.
  EXPECT_EQ(q.TryPop().value(), 5);
  EXPECT_EQ(q.TryPopBatch(out, 4), 1u);
  EXPECT_EQ(out[0], 6);
  EXPECT_EQ(q.TryPopBatch(out, 4), 0u);
  EXPECT_TRUE(q.Empty());
}

TEST(MpmcQueueBatchTest, PushBatchZeroIsNoop) {
  MpmcQueue<int> q;
  q.PushBatch(nullptr, 0);
  EXPECT_TRUE(q.Empty());
}

TEST(MpmcQueueBatchTest, StressBatchedProducersConsumersNoLoss) {
  // 4 producers push batches of varying size, 4 consumers drain in batches:
  // every element must be delivered exactly once.
  MpmcQueue<int> q;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 6000;
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  std::atomic<int> consumed{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      int batch[7];
      int fill = 0;
      int flushed = 0;
      for (int i = 0; i < kPerProducer; ++i) {
        batch[fill++] = p * kPerProducer + i;
        // Cycle the flush size 1..7 so batches interleave at all boundaries.
        if (fill == 1 + (flushed % 7)) {
          q.PushBatch(batch, static_cast<size_t>(fill));
          fill = 0;
          ++flushed;
        }
      }
      if (fill > 0) q.PushBatch(batch, static_cast<size_t>(fill));
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int out[5];
      while (consumed.load() < kProducers * kPerProducer) {
        const size_t n = q.TryPopBatch(out, 5);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        for (size_t i = 0; i < n; ++i) {
          seen[static_cast<size_t>(out[i])].fetch_add(1);
        }
        consumed.fetch_add(static_cast<int>(n));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
  EXPECT_TRUE(q.Empty());
}

TEST(MpmcQueueBatchTest, BatchedSingleConsumerPreservesPerProducerFifo) {
  // Batches from each producer are contiguous pushes, so with one consumer
  // the values of any single producer must come out in ascending order.
  MpmcQueue<int> q;
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 8000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      int batch[8];
      int fill = 0;
      for (int i = 0; i < kPerProducer; ++i) {
        batch[fill++] = p * kPerProducer + i;
        if (fill == 8) {
          q.PushBatch(batch, 8);
          fill = 0;
        }
      }
      if (fill > 0) q.PushBatch(batch, static_cast<size_t>(fill));
    });
  }
  std::vector<int> last_from(kProducers, -1);
  std::vector<int> seen(kProducers * kPerProducer, 0);
  int total = 0;
  int out[16];
  while (total < kProducers * kPerProducer) {
    const size_t n = q.TryPopBatch(out, 16);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      const int v = out[i];
      ++seen[static_cast<size_t>(v)];
      const int producer = v / kPerProducer;
      EXPECT_GT(v, last_from[static_cast<size_t>(producer)]);
      last_from[static_cast<size_t>(producer)] = v;
      ++total;
    }
  }
  for (auto& t : producers) t.join();
  for (int s : seen) EXPECT_EQ(s, 1);
}

}  // namespace
}  // namespace nomad
