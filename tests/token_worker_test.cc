// TokenWorkers (nomad/token_worker.h) as a unit: token conservation under
// the local hop and under a hop that takes tokens off the rank, the update
// cap, clean shutdown, and NUMA placement on a synthetic two-node topology.

#include "nomad/token_worker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/shard.h"
#include "sched/schedule.h"
#include "test_util.h"

namespace nomad {
namespace {

/// One rank's training state for a pool under test (squared loss, f64).
struct Fixture {
  explicit Fixture(int workers, NumaPolicy numa = NumaPolicy::kOff)
      : ds(MakeTestDataset(200, 40, 3000, 71)),
        options(Options(workers, numa)),
        partition(UserPartition::ByRows(ds.rows, workers)),
        shards(ColumnShards::Build(ds.train, partition)),
        schedule(std::move(
            MakeSchedule(options.schedule, options.alpha, options.beta)
                .value())),
        kernel(*schedule, /*loss=*/nullptr, options.lambda, options.rank),
        counts(ds.train.nnz()) {
    InitFactorsT<double>(ds, options, &w, &h);
  }

  static TrainOptions Options(int workers, NumaPolicy numa) {
    TrainOptions o = FastTrainOptions(/*epochs=*/1, workers);
    o.numa_policy = numa;
    return o;
  }

  TokenWorkers<double>::Run Run() {
    return {options, /*world=*/1, /*rank=*/0, partition, shards, kernel, w,
            h, counts, /*registry=*/nullptr, /*metrics_rank=*/-1};
  }

  Dataset ds;
  TrainOptions options;
  UserPartition partition;
  ColumnShards shards;
  std::unique_ptr<StepSchedule> schedule;
  UpdateKernelT<double> kernel;
  StepCounts counts;
  FactorMatrixT<double> w;
  FactorMatrixT<double> h;
};

/// Polls `done` for up to ten seconds.
bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Every token id in [0, n) exactly once.
void ExpectEachTokenOnce(std::vector<int32_t> tokens, int32_t n) {
  std::sort(tokens.begin(), tokens.end());
  ASSERT_EQ(tokens.size(), static_cast<size_t>(n));
  for (int32_t j = 0; j < n; ++j) {
    EXPECT_EQ(tokens[static_cast<size_t>(j)], j);
  }
}

TEST(TokenWorkersTest, LocalHopKeepsEveryTokenInExactlyOneQueue) {
  Fixture f(/*workers=*/4);
  TokenWorkers<double> pool(f.Run(), NumaTopology::SingleNode());
  pool.Start(LocalHop{});
  for (int round = 1; round <= 3; ++round) {
    const int64_t before = pool.updates();
    ASSERT_TRUE(WaitFor([&] { return pool.updates() > before; }));
    pool.Pause();
    std::vector<int32_t> queued;
    pool.Drain(&queued);
    ExpectEachTokenOnce(queued, f.ds.cols);
    for (size_t i = 0; i < queued.size(); ++i) {
      pool.Push(static_cast<int>(i % 4), queued[i]);
    }
    pool.Resume();
  }
  pool.Stop();
  EXPECT_EQ(pool.updates(), f.counts.TotalUpdates());
}

/// Takes every other token a worker offers off the rank, then fails every
/// other send, which keeps that token on the rank; records what it sent.
struct HalfRemoteHop {
  std::mutex* mu;
  std::vector<int32_t>* sent;
  int offered = 0;
  int taken = 0;
  int32_t token = -1;

  bool Take(int32_t j, Rng* /*rng*/) {
    if (offered++ % 2 == 0) return false;
    token = j;
    return true;
  }
  bool Send() {
    if (taken++ % 2 == 0) return false;
    std::lock_guard<std::mutex> lock(*mu);
    sent->push_back(token);
    return true;
  }
};

TEST(TokenWorkersTest, TokensTakenOffTheRankPlusQueuedAreEveryTokenOnce) {
  Fixture f(/*workers=*/4);
  std::mutex mu;
  std::vector<int32_t> sent;
  TokenWorkers<double> pool(f.Run(), NumaTopology::SingleNode());
  pool.Start(HalfRemoteHop{&mu, &sent});
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return sent.size() >= 8;
  }));
  pool.Pause();
  std::vector<int32_t> all;
  pool.Drain(&all);
  EXPECT_LT(all.size(), static_cast<size_t>(f.ds.cols));
  {
    std::lock_guard<std::mutex> lock(mu);
    all.insert(all.end(), sent.begin(), sent.end());
  }
  ExpectEachTokenOnce(all, f.ds.cols);
  pool.Stop();
}

/// Keeps every token and counts the offers, i.e. the token visits.
struct CountingHop {
  std::atomic<int64_t>* offers;

  bool Take(int32_t /*j*/, Rng* /*rng*/) {
    offers->fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  bool Send() { return true; }
};

TEST(TokenWorkersTest, CapOfZeroCirculatesTokensWithoutUpdating) {
  Fixture f(/*workers=*/4);
  const FactorMatrixT<double> w0 = f.w;
  const FactorMatrixT<double> h0 = f.h;
  std::atomic<int64_t> offers{0};
  TokenWorkers<double> pool(f.Run(), NumaTopology::SingleNode());
  pool.SetCap(0);
  pool.Start(CountingHop{&offers});
  ASSERT_TRUE(WaitFor([&] { return offers.load() >= 20 * f.ds.cols; }));
  pool.Stop();
  EXPECT_EQ(pool.updates(), 0);
  EXPECT_EQ(f.counts.TotalUpdates(), 0);
  EXPECT_EQ(f.w.MaxAbsDiff(w0), 0.0);
  EXPECT_EQ(f.h.MaxAbsDiff(h0), 0.0);
}

TEST(TokenWorkersTest, StopThenDestructionJoinsCleanly) {
  Fixture f(/*workers=*/4);
  {
    TokenWorkers<double> pool(f.Run(), NumaTopology::SingleNode());
    pool.Start(LocalHop{});
    ASSERT_TRUE(WaitFor([&] { return pool.updates() > 0; }));
    pool.Stop();
    const int64_t stopped_at = pool.updates();
    pool.Stop();  // idempotent
    EXPECT_EQ(pool.updates(), stopped_at);
    EXPECT_EQ(pool.TakeBatchStats().size(), 4u);
  }
  {
    // A parked pool is stopped by its destructor alone.
    TokenWorkers<double> pool(f.Run(), NumaTopology::SingleNode());
    pool.Start(LocalHop{});
    pool.Pause();
  }
}

TEST(TokenWorkersTest, PlacementFollowsTheNumaPolicy) {
  // CPU ids need not exist here: nothing is started, so nothing is pinned,
  // and binding pages to a node the host lacks just fails quietly.
  const NumaTopology two_nodes = NumaTopology::ForCpus({{0, 1}, {2, 3}});
  const std::vector<std::vector<int>> by_node = {{0, 1}, {0, 1}, {2, 3},
                                                 {2, 3}};
  {
    Fixture f(/*workers=*/4, NumaPolicy::kAuto);
    TokenWorkers<double> pool(f.Run(), two_nodes);
    EXPECT_EQ(pool.worker_cpus(), by_node);
    EXPECT_TRUE(pool.router().numa_aware());
  }
  {
    Fixture f(/*workers=*/4, NumaPolicy::kInterleave);
    TokenWorkers<double> pool(f.Run(), two_nodes);
    EXPECT_EQ(pool.worker_cpus(), by_node);
    EXPECT_FALSE(pool.router().numa_aware());
  }
  {
    Fixture f(/*workers=*/4, NumaPolicy::kOff);
    TokenWorkers<double> pool(f.Run(), two_nodes);
    EXPECT_TRUE(pool.worker_cpus().empty());
    EXPECT_FALSE(pool.router().numa_aware());
  }
}

}  // namespace
}  // namespace nomad
