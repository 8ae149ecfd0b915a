// Serializability property (paper Sec. 1, 4.3): every NOMAD execution is
// equivalent to *some* serial ordering of SGD updates. Two complementary
// checks:
//
//  1. The simulated distributed NOMAD logs its token-processing order; a
//     serial replay of that log through the same kernel must reproduce the
//     factors bit-exactly. This verifies that the concurrent-looking
//     execution (128 virtual workers, batched messages, circulation) never
//     interleaves updates *within* a token and never lets two workers touch
//     one h_j concurrently.
//
//  2. The one worker loop both threaded solvers run (nomad/token_worker.h)
//     carries an always-on owner-table CAS assertion (one owner per item
//     token at any instant) — exercised here under maximum thread
//     pressure, shared-memory and distributed. Ownership + worker-private
//     w rows is exactly the paper's serializability argument.

#include <gtest/gtest.h>

#include "data/shard.h"
#include "net/dist_nomad.h"
#include "nomad/nomad_solver.h"
#include "sim/solvers/sim_nomad.h"
#include "solver/sgd_kernel.h"
#include "test_util.h"

namespace nomad {
namespace {

TEST(SerializabilityTest, SimNomadReplaysSeriallyBitExact) {
  const Dataset ds = MakeTestDataset(200, 40, 4000, 61);

  SimOptions options;
  options.train = FastTrainOptions(/*epochs=*/3);
  options.cluster.machines = 4;
  options.cluster.cores = 4;
  options.cluster.compute_cores = 2;
  options.network = CommodityNetwork();
  options.eval_interval = 1e-4;
  std::vector<std::pair<int, int32_t>> log;
  options.process_log = &log;

  SimNomadSolver solver;
  auto result = solver.Train(ds, options).value();
  ASSERT_FALSE(log.empty());

  // Serial replay: identical initialization, shards, schedule and counts;
  // process tokens in the logged order.
  FactorMatrix w;
  FactorMatrix h;
  InitFactors(ds, options.train, &w, &h);
  const int workers = options.cluster.machines * options.cluster.compute_cores;
  const UserPartition partition =
      UserPartition::ByRatings(ds.train, workers);
  const ColumnShards shards = ColumnShards::Build(ds.train, partition);
  StepCounts counts(ds.train.nnz());
  auto schedule = MakeSchedule(options.train.schedule, options.train.alpha,
                               options.train.beta);
  ASSERT_TRUE(schedule.ok());
  int64_t replayed = 0;
  for (const auto& [worker, item] : log) {
    int32_t n = 0;
    const ColumnShards::Entry* entries = shards.ColEntries(worker, item, &n);
    double* hj = h.Row(item);
    for (int32_t t = 0; t < n; ++t) {
      ScheduledSgdUpdate(entries[t].value, *schedule.value(), &counts,
                         entries[t].csc_pos, options.train.lambda,
                         w.Row(entries[t].row), hj, options.train.rank);
    }
    replayed += n;
  }
  EXPECT_EQ(replayed, result.train.total_updates);
  EXPECT_EQ(w.MaxAbsDiff(result.train.w), 0.0);
  EXPECT_EQ(h.MaxAbsDiff(result.train.h), 0.0);
}

TEST(SerializabilityTest, SimNomadReplayBitExactUnderWorkerBatching) {
  // Same replay property with batched token processing: draining several
  // tokens per busy period reorders *between* tokens but never interleaves
  // within one, so the logged order must still replay bit-exactly.
  const Dataset ds = MakeTestDataset(200, 40, 4000, 62);

  SimOptions options;
  options.train = FastTrainOptions(/*epochs=*/3);
  options.cluster.machines = 4;
  options.cluster.cores = 4;
  options.cluster.compute_cores = 2;
  options.network = CommodityNetwork();
  options.eval_interval = 1e-4;
  options.worker_batch_size = 4;
  std::vector<std::pair<int, int32_t>> log;
  options.process_log = &log;

  SimNomadSolver solver;
  auto result = solver.Train(ds, options).value();
  ASSERT_FALSE(log.empty());

  FactorMatrix w;
  FactorMatrix h;
  InitFactors(ds, options.train, &w, &h);
  const int workers = options.cluster.machines * options.cluster.compute_cores;
  const UserPartition partition =
      UserPartition::ByRatings(ds.train, workers);
  const ColumnShards shards = ColumnShards::Build(ds.train, partition);
  StepCounts counts(ds.train.nnz());
  auto schedule = MakeSchedule(options.train.schedule, options.train.alpha,
                               options.train.beta);
  ASSERT_TRUE(schedule.ok());
  int64_t replayed = 0;
  for (const auto& [worker, item] : log) {
    int32_t n = 0;
    const ColumnShards::Entry* entries = shards.ColEntries(worker, item, &n);
    double* hj = h.Row(item);
    for (int32_t t = 0; t < n; ++t) {
      ScheduledSgdUpdate(entries[t].value, *schedule.value(), &counts,
                         entries[t].csc_pos, options.train.lambda,
                         w.Row(entries[t].row), hj, options.train.rank);
    }
    replayed += n;
  }
  EXPECT_EQ(replayed, result.train.total_updates);
  EXPECT_EQ(w.MaxAbsDiff(result.train.w), 0.0);
  EXPECT_EQ(h.MaxAbsDiff(result.train.h), 0.0);
}

TEST(SerializabilityTest, OwnershipInvariantHoldsUnderThreadPressure) {
  // The owner-table CAS in the worker loop aborts the process if two
  // workers ever hold the same token. Run with many threads on few items to
  // maximize contention; surviving the run is the assertion. The 2-rank
  // job adds remote hand-offs and the driver pushing received tokens in.
  const Dataset ds = MakeTestDataset(300, 12, 1500, 63);
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/6, /*workers=*/8);
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().total_updates, 0);

  net::DistNomadOptions dist;
  dist.train = FastTrainOptions(/*epochs=*/6, /*workers=*/4);
  for (auto& rank : net::TrainLoopbackWorld(ds, dist, /*world=*/2)) {
    ASSERT_TRUE(rank.ok()) << rank.status().ToString();
    EXPECT_GT(rank.value().total_updates, 0);
  }
}

TEST(SerializabilityTest, StepCountsEqualProcessedRatings) {
  // Each (i,j) must be updated exactly as many times as its column was
  // processed by its owner — a consequence of serializable ownership.
  const Dataset ds = MakeTestDataset(100, 10, 1000, 65);
  SimOptions options;
  options.train = FastTrainOptions(/*epochs=*/2);
  options.cluster.machines = 2;
  options.cluster.compute_cores = 2;
  options.network = HpcNetwork();
  options.eval_interval = 1e-4;
  std::vector<std::pair<int, int32_t>> log;
  options.process_log = &log;
  SimNomadSolver solver;
  auto result = solver.Train(ds, options).value();

  // Count from the log how many ratings each worker/item visit covered.
  const int workers = options.cluster.machines * options.cluster.compute_cores;
  const UserPartition partition =
      UserPartition::ByRatings(ds.train, workers);
  const ColumnShards shards = ColumnShards::Build(ds.train, partition);
  int64_t expected_updates = 0;
  for (const auto& [worker, item] : log) {
    int32_t n = 0;
    shards.ColEntries(worker, item, &n);
    expected_updates += n;
  }
  EXPECT_EQ(expected_updates, result.train.total_updates);
}

}  // namespace
}  // namespace nomad
