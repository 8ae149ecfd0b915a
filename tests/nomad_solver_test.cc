#include "nomad/nomad_solver.h"

#include <gtest/gtest.h>

#include "net/wire_format.h"
#include "nomad/batch_controller.h"

#include "test_util.h"

namespace nomad {
namespace {

TEST(NomadSolverTest, ConvergesOnPlantedData) {
  const Dataset ds = MakeTestDataset();
  NomadSolver solver;
  const TrainOptions options = FastTrainOptions();
  const double initial = InitialRmse(ds, options);
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TrainResult& r = result.value();
  EXPECT_EQ(r.solver_name, "nomad");
  EXPECT_LT(r.trace.FinalRmse(), 0.45);
  EXPECT_LT(r.trace.FinalRmse(), 0.6 * initial);
  EXPECT_GT(r.total_updates, 0);
}

TEST(NomadSolverTest, SingleWorkerWorks) {
  const Dataset ds = MakeTestDataset();
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/8, /*workers=*/1);
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().trace.FinalRmse(), 0.6);
}

TEST(NomadSolverTest, MoreWorkersThanItems) {
  // 6 items, 8 workers: some workers must idle without deadlock.
  const Dataset ds = MakeTestDataset(100, 6, 500, 21);
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/5, /*workers=*/8);
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().total_updates, 0);
}

TEST(NomadSolverTest, LeastLoadedRoutingConverges) {
  const Dataset ds = MakeTestDataset();
  NomadSolver solver;
  TrainOptions options = FastTrainOptions();
  options.routing = Routing::kLeastLoaded;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().trace.FinalRmse(), 0.45);
}

TEST(NomadSolverTest, PartitionByRowsAlsoWorks) {
  const Dataset ds = MakeTestDataset();
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/8);
  options.partition_by_ratings = false;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().trace.FinalRmse(), 0.6);
}

TEST(NomadSolverTest, StopsByUpdateBudget) {
  const Dataset ds = MakeTestDataset();
  NomadSolver solver;
  TrainOptions options = FastTrainOptions();
  options.max_epochs = -1;
  options.max_updates = 5000;
  options.eval_every_updates = 2000;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().total_updates, 5000);
  // Overshoot is bounded by roughly one eval window plus in-flight tokens.
  EXPECT_LT(result.value().total_updates, 5000 + ds.train.nnz());
}

// The driver requests a trace point once eval_every_updates have been
// applied since the last one; how far past that the workers run depends on
// when it wakes, so only the spacing's lower bound is fixed.
TEST(NomadSolverTest, TracePointsAreAtLeastEvalEveryApart) {
  const Dataset ds = MakeTestDataset();
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/12);
  options.eval_every_updates = 1500;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& pts = result.value().trace.points();
  ASSERT_FALSE(pts.empty());
  int64_t previous = 0;
  for (size_t i = 0; i + 1 < pts.size(); ++i) {  // the final one may stop
    EXPECT_GE(pts[i].updates - previous, options.eval_every_updates) << i;
    previous = pts[i].updates;
  }
}

// A world of one sends no frame, so the wire format's k ceiling (which
// DistNomadSolver enforces) does not apply.
TEST(NomadSolverTest, TrainsAboveTheWireCeiling) {
  const Dataset ds = MakeTestDataset(40, 10, 200, 5);
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/1, /*workers=*/2);
  options.rank = net::kMaxWireK + 1;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().total_updates, 0);
  EXPECT_EQ(result.value().h.cols(), net::kMaxWireK + 1);
}

TEST(NomadSolverTest, TraceIsMonotoneInTimeAndUpdates) {
  const Dataset ds = MakeTestDataset();
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/6);
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok());
  const auto& pts = result.value().trace.points();
  ASSERT_GE(pts.size(), 2u);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].seconds, pts[i - 1].seconds);
    EXPECT_GE(pts[i].updates, pts[i - 1].updates);
  }
}

TEST(NomadSolverTest, RecordsObjectiveWhenAsked) {
  const Dataset ds = MakeTestDataset();
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/3);
  options.record_objective = true;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok());
  for (const auto& pt : result.value().trace.points()) {
    EXPECT_GT(pt.objective, 0.0);
  }
}

TEST(NomadSolverTest, RejectsBadOptions) {
  const Dataset ds = MakeTestDataset(50, 10, 200, 3);
  NomadSolver solver;
  TrainOptions options = FastTrainOptions();
  options.rank = 0;
  EXPECT_FALSE(solver.Train(ds, options).ok());
  options = FastTrainOptions();
  options.num_workers = 0;
  EXPECT_FALSE(solver.Train(ds, options).ok());
  options = FastTrainOptions();
  options.lambda = -1.0;
  EXPECT_FALSE(solver.Train(ds, options).ok());
  options = FastTrainOptions();
  options.max_epochs = -1;  // no stopping criterion at all
  options.max_updates = -1;
  options.max_seconds = -1;
  EXPECT_FALSE(solver.Train(ds, options).ok());
  options = FastTrainOptions();
  options.schedule = "nope";
  EXPECT_FALSE(solver.Train(ds, options).ok());
}

TEST(NomadSolverTest, NumaPoliciesReachRmseParity) {
  // numa=auto must not change what is computed, only where it is placed:
  // on a single-node host it is the identical code path to numa=off, and
  // on a multi-node host placement/pinning/routing-bias still performs the
  // same per-token updates. NOMAD's async interleaving makes runs
  // non-bit-identical, so parity is asserted on converged test RMSE.
  const Dataset ds = MakeTestDataset();
  NomadSolver solver;
  TrainOptions options = FastTrainOptions();
  options.numa_policy = NumaPolicy::kOff;
  auto off = solver.Train(ds, options);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  options.numa_policy = NumaPolicy::kAuto;
  auto aut = solver.Train(ds, options);
  ASSERT_TRUE(aut.ok()) << aut.status().ToString();
  options.numa_policy = NumaPolicy::kInterleave;
  auto inter = solver.Train(ds, options);
  ASSERT_TRUE(inter.ok()) << inter.status().ToString();

  EXPECT_LT(off.value().trace.FinalRmse(), 0.45);
  EXPECT_LT(aut.value().trace.FinalRmse(), 0.45);
  EXPECT_LT(inter.value().trace.FinalRmse(), 0.45);
  EXPECT_NEAR(aut.value().trace.FinalRmse(), off.value().trace.FinalRmse(),
              0.05);
  EXPECT_NEAR(inter.value().trace.FinalRmse(), off.value().trace.FinalRmse(),
              0.05);
}

TEST(NomadSolverTest, AutoTokenBatchReachesRmseParity) {
  // token_batch_mode=auto changes only how many tokens a worker drains per
  // queue lock, never which updates a token's processing performs — so an
  // auto run must converge like the fixed default (token_batch_size=8).
  // NOMAD's async interleaving makes runs non-bit-identical; parity is
  // asserted on converged test RMSE, as in the NUMA-policy parity test.
  const Dataset ds = MakeTestDataset();
  NomadSolver solver;
  TrainOptions options = FastTrainOptions();
  options.token_batch_size = 8;
  auto fixed = solver.Train(ds, options);
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  options.token_batch_mode = TokenBatchMode::kAuto;
  auto adaptive = solver.Train(ds, options);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();

  EXPECT_LT(fixed.value().trace.FinalRmse(), 0.45);
  EXPECT_LT(adaptive.value().trace.FinalRmse(), 0.45);
  EXPECT_NEAR(adaptive.value().trace.FinalRmse(),
              fixed.value().trace.FinalRmse(), 0.05);

  // Both modes report per-worker batch stats; the auto run's batches must
  // respect the EffectiveMaxBatch hoarding clamp (60 items / (2*4) = 7).
  const int cap = EffectiveMaxBatch(ds.cols, options.num_workers,
                                    options.max_token_batch);
  ASSERT_EQ(adaptive.value().worker_batch.size(), 4u);
  ASSERT_EQ(fixed.value().worker_batch.size(), 4u);
  for (const WorkerBatchStats& s : adaptive.value().worker_batch) {
    EXPECT_GE(s.min_batch_seen, 1);
    EXPECT_LE(s.max_batch_seen, cap);
    EXPECT_GT(s.rounds, 0);
    ASSERT_FALSE(s.trajectory.empty());
    EXPECT_GE(s.mean_batch, 1.0);
    EXPECT_LE(s.mean_batch, static_cast<double>(cap));
  }
  for (const WorkerBatchStats& s : fixed.value().worker_batch) {
    EXPECT_EQ(s.final_batch, EffectiveMaxBatch(ds.cols, 4, 8));
    EXPECT_EQ(s.grows, 0);
    EXPECT_EQ(s.shrinks, 0);
  }
}

TEST(NomadSolverTest, AutoModeRejectsBadMaxTokenBatch) {
  const Dataset ds = MakeTestDataset(50, 10, 200, 3);
  NomadSolver solver;
  TrainOptions options = FastTrainOptions();
  options.token_batch_mode = TokenBatchMode::kAuto;
  options.max_token_batch = 0;
  EXPECT_FALSE(solver.Train(ds, options).ok());
}

TEST(NomadSolverTest, StopsByWallClock) {
  const Dataset ds = MakeTestDataset();
  NomadSolver solver;
  TrainOptions options = FastTrainOptions();
  options.max_epochs = -1;
  options.max_seconds = 0.2;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok());
  // Generous bound: the run must terminate promptly (seconds, not minutes).
  EXPECT_LT(result.value().total_seconds, 5.0);
}

}  // namespace
}  // namespace nomad
