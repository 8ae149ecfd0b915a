// TokenWorkers (nomad/token_worker.h) as a unit: token conservation under
// the local hop and under a hop that takes tokens off the rank, the update
// cap, clean shutdown, and NUMA placement on a synthetic two-node topology;
// and the column visit its workers run (UpdateKernelT::ApplyColumn) against
// a plain loop of per-rating updates.

#include "nomad/token_worker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/shard.h"
#include "sched/schedule.h"
#include "solver/sgd_kernel.h"
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

/// The hop of a rank without peers: every token stays on the rank.
struct LocalHop {
  bool Take(int32_t /*token*/, Rng* /*rng*/) { return false; }
  bool Send() { return true; }  // unreached
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

/// Bit-for-bit equality of the k entries of every row.
template <typename Real>
bool SameBits(const FactorMatrixT<Real>& a, const FactorMatrixT<Real>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int64_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.Row(i), b.Row(i),
                    sizeof(Real) * static_cast<size_t>(a.cols())) != 0) {
      return false;
    }
  }
  return true;
}

/// A column visit against a plain loop of Apply() over the same ratings,
/// for column lengths around the prefetch distance. Each column's entries
/// sit in a buffer exactly n long, so ASan flags a read past its end.
template <typename Real>
void ExpectColumnVisitIsTheApplyLoop() {
  constexpr int32_t kD = kRowPrefetchDistance;
  constexpr int kUsers = 300;
  constexpr int kRank = 20;  // rows of 3 lines at f64, 2 at f32
  const TrainOptions options = FastTrainOptions();
  const std::unique_ptr<StepSchedule> schedule =
      std::move(MakeSchedule(options.schedule, options.alpha, options.beta)
                    .value());
  const UpdateKernelT<Real> kernel(*schedule, /*loss=*/nullptr,
                                   options.lambda, kRank);
  Rng rng(29);
  for (const int32_t n : {0, 1, kD - 1, kD, kD + 1, 3 * kD + 1, 200}) {
    SCOPED_TRACE(n);
    std::vector<ColumnShards::Entry> column;  // capacity may exceed n
    for (int32_t t = 0; t < n; ++t) {
      column.push_back({static_cast<int32_t>(rng.NextBelow(kUsers)),
                        static_cast<float>(rng.Uniform(1.0, 5.0)),
                        /*csc_pos=*/2 * t + 1});
    }
    // Exactly n long: ASan flags a read of entries[n] or beyond.
    const std::vector<ColumnShards::Entry> entries(column.begin(),
                                                   column.end());
    FactorMatrixT<Real> w(kUsers, kRank);
    FactorMatrixT<Real> h(/*rows=*/1, kRank);
    w.InitUniform(&rng);
    h.InitUniform(&rng);
    const int64_t nnz = 2 * static_cast<int64_t>(n) + 1;
    StepCounts counts(nnz);
    for (const ColumnShards::Entry& e : entries) {
      for (uint64_t c = rng.NextBelow(3); c > 0; --c) {
        counts.NextCount(e.csc_pos);
      }
    }
    FactorMatrixT<Real> w_loop = w;
    FactorMatrixT<Real> h_loop = h;
    StepCounts counts_loop = counts;

    kernel.ApplyColumn(entries.data(), n, &counts, &w, h.Row(0));
    for (const ColumnShards::Entry& e : entries) {
      kernel.Apply(e.value, &counts_loop, e.csc_pos, w_loop.Row(e.row),
                   h_loop.Row(0));
    }
    EXPECT_TRUE(SameBits(w, w_loop));
    EXPECT_TRUE(SameBits(h, h_loop));
    for (int64_t pos = 0; pos < nnz; ++pos) {
      EXPECT_EQ(counts.CountAt(pos), counts_loop.CountAt(pos)) << pos;
    }
  }
}

TEST(ColumnVisitTest, IsAPlainApplyLoopAtF64) {
  ExpectColumnVisitIsTheApplyLoop<double>();
}

TEST(ColumnVisitTest, IsAPlainApplyLoopAtF32) {
  ExpectColumnVisitIsTheApplyLoop<float>();
}

}  // namespace
}  // namespace nomad
