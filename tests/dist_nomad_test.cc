#include "net/dist_nomad.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "net/fault_transport.h"
#include "net/loopback_transport.h"
#include "net/tcp_transport.h"
#include "net/wire_format.h"
#include "nomad/nomad_solver.h"
#include "test_util.h"

namespace nomad {
namespace net {
namespace {

/// Runs one rank per thread over the given transports and returns all
/// ranks' results (index = rank). Any rank's error fails the test.
std::vector<TrainResult> RunWorld(const Dataset& ds,
                                  const DistNomadOptions& options,
                                  std::vector<Transport*> transports) {
  const int world = static_cast<int>(transports.size());
  std::vector<TrainResult> results(static_cast<size_t>(world));
  std::vector<std::thread> ranks;
  std::atomic<bool> ok{true};
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      DistNomadSolver solver;
      auto result =
          solver.Train(ds, options, transports[static_cast<size_t>(r)]);
      if (!result.ok()) {
        ok.store(false);
        ADD_FAILURE() << "rank " << r << ": " << result.status().ToString();
        return;
      }
      results[static_cast<size_t>(r)] = std::move(result).value();
    });
  }
  for (auto& t : ranks) t.join();
  EXPECT_TRUE(ok.load());
  return results;
}

/// Loopback worlds go through the shared library harness (the same one the
/// CLI and bench use); any rank's error fails the test.
std::vector<TrainResult> RunLoopbackWorld(const Dataset& ds,
                                          const DistNomadOptions& options,
                                          int world) {
  auto results = TrainLoopbackWorld(ds, options, world);
  std::vector<TrainResult> ok;
  for (int r = 0; r < world; ++r) {
    EXPECT_TRUE(results[static_cast<size_t>(r)].ok())
        << "rank " << r << ": "
        << results[static_cast<size_t>(r)].status().ToString();
    if (!results[static_cast<size_t>(r)].ok()) return {};
    ok.push_back(std::move(results[static_cast<size_t>(r)]).value());
  }
  return ok;
}

DistNomadOptions DistOptions(int epochs = 15, int workers = 2) {
  DistNomadOptions o;
  o.train = FastTrainOptions(epochs, workers);
  return o;
}

TEST(DistNomadTest, SingleRankMatchesSharedMemoryBehavior) {
  const Dataset ds = MakeItemRichDataset();
  auto results = RunLoopbackWorld(ds, DistOptions(), 1);
  ASSERT_EQ(results.size(), 1u);
  const TrainResult& r = results[0];
  EXPECT_EQ(r.solver_name, "dist_nomad");
  EXPECT_GT(r.total_updates, 0);
  EXPECT_LT(r.trace.FinalRmse(), 0.45);
  // No peers: nothing may cross the transport.
  ASSERT_EQ(r.rank_traffic.size(), 1u);
  EXPECT_EQ(r.rank_traffic[0].tokens_sent, 0);
  EXPECT_EQ(r.rank_traffic[0].bytes_sent, 0);
}

// The acceptance bar of the distributed layer: a 4-rank loopback run must
// land within 1e-3 test RMSE of the single-rank shared-memory solver.
//
// 1e-3 is far below the seed-to-seed spread of a fast test run (different
// SGD paths on a non-convex problem land ~1e-2 apart when the schedule
// freezes before convergence), so this configuration is chosen to anneal
// both executions into the same noise ball: a well-specified model (rank =
// planted rank), a denser planted dataset, and a slow-then-deep schedule
// (alpha 0.15, beta 2e-3, 400 epochs — final per-rating step ~9e-3). At
// that point the remaining RMSE (~0.126) is a property of the data, and
// measured single-vs-dist gaps stay under ~5e-4 across repeated trials.
TEST(DistNomadTest, FourRankLoopbackReachesSingleRankRmseParity) {
  SyntheticConfig config;
  config.name = "parity-planted";
  config.rows = 600;
  config.cols = 300;
  config.nnz = 24000;
  config.true_rank = 4;
  config.noise_std = 0.1;
  config.test_fraction = 0.15;
  config.seed = 90;
  auto generated = GenerateSynthetic(config);
  ASSERT_TRUE(generated.ok());
  const Dataset ds = std::move(generated).value();

  TrainOptions opt = FastTrainOptions(/*epochs=*/400, /*workers=*/2);
  opt.rank = 4;
  opt.lambda = 0.02;
  opt.alpha = 0.15;
  opt.beta = 0.002;

  NomadSolver single;
  auto single_result = single.Train(ds, opt);
  ASSERT_TRUE(single_result.ok()) << single_result.status().ToString();
  const double single_rmse = single_result.value().trace.FinalRmse();

  DistNomadOptions dist_opt;
  dist_opt.train = opt;
  auto results = RunLoopbackWorld(ds, dist_opt, 4);
  ASSERT_EQ(results.size(), 4u);
  const double dist_rmse = results[0].trace.FinalRmse();

  EXPECT_LT(single_rmse, 0.14);
  EXPECT_LT(dist_rmse, 0.14);
  EXPECT_NEAR(dist_rmse, single_rmse, 1e-3);
}

TEST(DistNomadTest, EveryRankReportsTheSameTrace) {
  const Dataset ds = MakeItemRichDataset();
  auto results = RunLoopbackWorld(ds, DistOptions(/*epochs=*/5), 3);
  ASSERT_EQ(results.size(), 3u);
  const auto& pts0 = results[0].trace.points();
  ASSERT_FALSE(pts0.empty());
  for (int r = 1; r < 3; ++r) {
    const auto& pts = results[static_cast<size_t>(r)].trace.points();
    ASSERT_EQ(pts.size(), pts0.size()) << "rank " << r;
    for (size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(pts[i].test_rmse, pts0[i].test_rmse) << "rank " << r;
      EXPECT_EQ(pts[i].updates, pts0[i].updates) << "rank " << r;
    }
  }
}

TEST(DistNomadTest, TokenConservationAcrossRanks) {
  const Dataset ds = MakeItemRichDataset();
  auto results = RunLoopbackWorld(ds, DistOptions(/*epochs=*/6), 4);
  ASSERT_EQ(results.size(), 4u);
  // Rank 0 gathers every rank's traffic row at the final barrier. Tokens
  // are conserved: every token one rank sent, another received.
  ASSERT_EQ(results[0].rank_traffic.size(), 4u);
  int64_t sent = 0;
  int64_t received = 0;
  for (const RankTrafficStats& t : results[0].rank_traffic) {
    sent += t.tokens_sent;
    received += t.tokens_received;
    EXPECT_GT(t.tokens_sent, 0) << "rank " << t.rank << " never sent";
    EXPECT_GT(t.bytes_sent, 0);
  }
  EXPECT_EQ(sent, received);
  // Non-zero ranks report (at least) themselves.
  for (int r = 1; r < 4; ++r) {
    ASSERT_EQ(results[static_cast<size_t>(r)].rank_traffic.size(), 1u);
    EXPECT_EQ(results[static_cast<size_t>(r)].rank_traffic[0].rank, r);
  }
}

TEST(DistNomadTest, RankZeroGathersTheFullModel) {
  const Dataset ds = MakeItemRichDataset();
  auto results = RunLoopbackWorld(ds, DistOptions(/*epochs=*/8), 2);
  ASSERT_EQ(results.size(), 2u);
  const TrainResult& r0 = results[0];
  ASSERT_EQ(r0.w.rows(), ds.rows);
  ASSERT_EQ(r0.h.rows(), ds.cols);
  // The gathered model must actually predict: recompute RMSE from the
  // returned factors and compare with the final trace point every rank
  // agreed on.
  const double recomputed = Rmse(ds.test, r0.w, r0.h);
  EXPECT_NEAR(recomputed, r0.trace.FinalRmse(), 1e-9);
}

TEST(DistNomadTest, F32PrecisionTrainsToParity) {
  const Dataset ds = MakeItemRichDataset();
  DistNomadOptions o = DistOptions(/*epochs=*/20);
  o.train.precision = Precision::kF32;
  auto results = RunLoopbackWorld(ds, o, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].precision, Precision::kF32);
  EXPECT_LT(results[0].trace.FinalRmse(), 0.45);
}

TEST(DistNomadTest, ExplicitRemoteFractionAndAutoBatchingWork) {
  const Dataset ds = MakeItemRichDataset();
  DistNomadOptions o = DistOptions(/*epochs=*/10);
  o.remote_token_fraction = 0.1;  // mostly-local circulation
  o.train.token_batch_mode = TokenBatchMode::kAuto;
  auto results = RunLoopbackWorld(ds, o, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_LT(results[0].trace.FinalRmse(), 0.6);
  ASSERT_EQ(results[0].worker_batch.size(), 2u);
  EXPECT_GT(results[0].worker_batch[0].rounds, 0);
}

TEST(DistNomadTest, RejectsBadOptions) {
  const Dataset ds = MakeTestDataset();
  auto fabric = MakeLoopbackFabric(1);
  DistNomadSolver solver;
  DistNomadOptions o = DistOptions();
  EXPECT_EQ(solver.Train(ds, o, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  o.remote_token_fraction = 1.5;
  EXPECT_EQ(solver.Train(ds, o, fabric[0].get()).status().code(),
            StatusCode::kInvalidArgument);
  o = DistOptions();
  o.train.record_objective = true;
  EXPECT_EQ(solver.Train(ds, o, fabric[0].get()).status().code(),
            StatusCode::kInvalidArgument);
  o = DistOptions();
  o.train.rank = -1;
  EXPECT_EQ(solver.Train(ds, o, fabric[0].get()).status().code(),
            StatusCode::kInvalidArgument);
  // Above the wire-format ceiling: must be rejected up front, not abort at
  // the first remote hand-off's frame encoder.
  o = DistOptions();
  o.train.rank = kMaxWireK + 1;
  EXPECT_EQ(solver.Train(ds, o, fabric[0].get()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DistNomadTest, EmptyTrainingSetEvaluatesAndReturns) {
  Dataset ds = MakeTestDataset();
  ds.train = SparseMatrix::Build(ds.rows, ds.cols, {}).value();
  auto results = RunLoopbackWorld(ds, DistOptions(), 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].total_updates, 0);
  ASSERT_EQ(results[0].trace.size(), 1u);
}

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

/// The annealed parity dataset + schedule (see the parity test above):
/// fault-free seed-to-seed spread is well under 1e-3, so RMSE deltas at
/// that scale are attributable to the thing under test, not SGD noise.
Dataset AnnealedDataset(const char* name) {
  SyntheticConfig config;
  config.name = name;
  config.rows = 600;
  config.cols = 300;
  config.nnz = 24000;
  config.true_rank = 4;
  config.noise_std = 0.1;
  config.test_fraction = 0.15;
  config.seed = 90;
  auto generated = GenerateSynthetic(config);
  NOMAD_CHECK(generated.ok());
  return std::move(generated).value();
}

DistNomadOptions AnnealedOptions() {
  DistNomadOptions o;
  o.train = FastTrainOptions(/*epochs=*/400, /*workers=*/2);
  o.train.rank = 4;
  o.train.lambda = 0.02;
  o.train.alpha = 0.15;
  o.train.beta = 0.002;
  return o;
}

// The codec acceptance bar: a 4-rank run with bf16 quantization + delta
// rows must land within 1e-3 test RMSE of the uncompressed run — the
// double-accumulating kernels tolerate low-precision *storage*, and this
// pins it — while spending measurably fewer transport bytes per token.
TEST(DistNomadCodecTest, Bf16DeltaMatchesUncompressedRmseWithFewerBytes) {
  const Dataset ds = AnnealedDataset("codec-parity-planted");
  DistNomadOptions o = AnnealedOptions();

  auto plain = RunLoopbackWorld(ds, o, 4);
  ASSERT_EQ(plain.size(), 4u);
  const double plain_rmse = plain[0].trace.FinalRmse();

  o.wire_codec = WireCodecSpec::Parse("bf16+delta").value();
  auto coded = RunLoopbackWorld(ds, o, 4);
  ASSERT_EQ(coded.size(), 4u);
  const double coded_rmse = coded[0].trace.FinalRmse();

  EXPECT_LT(plain_rmse, 0.14);
  EXPECT_NEAR(coded_rmse, plain_rmse, 1e-3);

  // rank_traffic counts post-codec transport bytes, so the savings show up
  // directly. At k=4/f64, bf16 alone halves a token frame (48 -> 24 bytes)
  // and deltas shrink repeat h-row broadcasts further; control traffic is
  // untouched, so demand a conservative 25% overall reduction here and
  // leave the calibrated >= 2x bytes-per-token bar to bench_dist_traffic
  // at realistic k.
  int64_t plain_bytes = 0, plain_tokens = 0;
  int64_t coded_bytes = 0, coded_tokens = 0;
  ASSERT_EQ(plain[0].rank_traffic.size(), 4u);
  ASSERT_EQ(coded[0].rank_traffic.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    plain_bytes += plain[0].rank_traffic[static_cast<size_t>(r)].bytes_sent;
    plain_tokens += plain[0].rank_traffic[static_cast<size_t>(r)].tokens_sent;
    coded_bytes += coded[0].rank_traffic[static_cast<size_t>(r)].bytes_sent;
    coded_tokens += coded[0].rank_traffic[static_cast<size_t>(r)].tokens_sent;
  }
  ASSERT_GT(plain_tokens, 0);
  ASSERT_GT(coded_tokens, 0);
  const double plain_bpt =
      static_cast<double>(plain_bytes) / static_cast<double>(plain_tokens);
  const double coded_bpt =
      static_cast<double>(coded_bytes) / static_cast<double>(coded_tokens);
  EXPECT_LT(coded_bpt, 0.75 * plain_bpt)
      << "plain " << plain_bpt << " bytes/token vs coded " << coded_bpt;
}

// Batching composes with quantization on a real protocol run: the driver's
// per-pump FlushAll keeps buffered tokens from stalling the conservation
// census, and every trace barrier still agrees across ranks.
TEST(DistNomadCodecTest, BatchedCodecRunStaysConservedAndConverges) {
  const Dataset ds = MakeItemRichDataset();
  DistNomadOptions o = DistOptions(/*epochs=*/10);
  o.wire_codec = WireCodecSpec::Parse("bf16+delta+batch").value();
  auto results = RunLoopbackWorld(ds, o, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_LT(results[0].trace.FinalRmse(), 0.6);
  ASSERT_EQ(results[0].rank_traffic.size(), 3u);
  int64_t sent = 0, received = 0;
  for (const RankTrafficStats& t : results[0].rank_traffic) {
    sent += t.tokens_sent;
    received += t.tokens_received;
  }
  EXPECT_EQ(sent, received);
}

TEST(DistNomadCodecTest, RejectsContradictoryCodecSpec) {
  const Dataset ds = MakeTestDataset();
  auto fabric = MakeLoopbackFabric(1);
  DistNomadSolver solver;
  DistNomadOptions o = DistOptions();
  o.wire_codec.bf16 = true;
  o.wire_codec.f16 = true;
  EXPECT_EQ(solver.Train(ds, o, fabric[0].get()).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------------

/// Heartbeat knobs fast enough for tests: detection well under a second,
/// but several intervals of slack so a scheduler hiccup cannot kill a
/// healthy rank.
HeartbeatOptions TestHeartbeat() {
  HeartbeatOptions hb;
  hb.interval_seconds = 0.02;
  hb.timeout_seconds = 0.25;
  return hb;
}

/// Runs a `world`-rank loopback job with liveness detection on and `plan`
/// applied to its target rank(s). Per-rank Results — errors allowed (a
/// killed rank is *supposed* to fail).
std::vector<Result<TrainResult>> RunFaultyWorld(const Dataset& ds,
                                                const DistNomadOptions& o,
                                                int world,
                                                const FaultPlan& plan) {
  auto fabric = MakeLoopbackFabric(world, TestHeartbeat());
  ApplyFaultPlan(&fabric, plan);
  return TrainWorld(ds, o, &fabric);
}

// The tentpole acceptance test: 4 ranks, rank 2 is killed at ~50% of its
// send budget, and the surviving 3 ranks must recover — re-own the lost
// tokens, adopt rank 2's users — and still land within 2e-3 test RMSE of
// the fault-free run. Uses the annealed parity configuration (see above):
// fault-free seed-to-seed spread there is well under 1e-3, so 2e-3 only
// passes if recovery actually preserves the optimization.
TEST(DistNomadFaultTest, KilledRankIsRecoveredToFaultFreeRmse) {
  SyntheticConfig config;
  config.name = "faults-planted";
  config.rows = 600;
  config.cols = 300;
  config.nnz = 24000;
  config.true_rank = 4;
  config.noise_std = 0.1;
  config.test_fraction = 0.15;
  config.seed = 90;
  auto generated = GenerateSynthetic(config);
  ASSERT_TRUE(generated.ok());
  const Dataset ds = std::move(generated).value();

  DistNomadOptions o;
  o.train = FastTrainOptions(/*epochs=*/400, /*workers=*/2);
  o.train.rank = 4;
  o.train.lambda = 0.02;
  o.train.alpha = 0.15;
  o.train.beta = 0.002;

  auto clean = RunLoopbackWorld(ds, o, 4);
  ASSERT_EQ(clean.size(), 4u);
  const double clean_rmse = clean[0].trace.FinalRmse();
  EXPECT_TRUE(clean[0].dead_ranks.empty());
  ASSERT_EQ(clean[0].rank_traffic.size(), 4u);

  FaultPlan plan;
  plan.target_rank = 2;
  // Token sends dominate a rank's send count, so half the fault-free token
  // tally kills rank 2 at roughly 50% progress — deterministically, unlike
  // a wall-clock trigger.
  plan.kill_after_sends = clean[0].rank_traffic[2].tokens_sent / 2;
  auto faulted = RunFaultyWorld(ds, o, 4, plan);
  ASSERT_EQ(faulted.size(), 4u);

  // The killed rank fails; every survivor succeeds and reports the death.
  EXPECT_FALSE(faulted[2].ok());
  for (int r : {0, 1, 3}) {
    ASSERT_TRUE(faulted[static_cast<size_t>(r)].ok())
        << "rank " << r << ": "
        << faulted[static_cast<size_t>(r)].status().ToString();
    EXPECT_EQ(faulted[static_cast<size_t>(r)].value().dead_ranks,
              std::vector<int>{2})
        << "rank " << r;
  }
  const double faulted_rmse = faulted[0].value().trace.FinalRmse();
  EXPECT_LT(clean_rmse, 0.14);
  EXPECT_NEAR(faulted_rmse, clean_rmse, 2e-3);
}

// The codec survives the recovery path: rank 2 is killed at ~50% with
// bf16+delta on, which forces every surviving channel's delta state
// through the kLeaseSync flush — any stale baseline surviving the flush
// would corrupt regranted rows and show up as an RMSE excursion. Reaching
// the final barrier at all proves token conservation stayed exact: rank 0
// blocks every census until the re-owned tokens are all accounted for.
TEST(DistNomadFaultTest, KilledRankWithDeltaCodecRecoversCleanly) {
  const Dataset ds = AnnealedDataset("codec-faults-planted");
  DistNomadOptions o = AnnealedOptions();
  o.wire_codec = WireCodecSpec::Parse("bf16+delta").value();

  auto clean = RunLoopbackWorld(ds, o, 4);
  ASSERT_EQ(clean.size(), 4u);
  const double clean_rmse = clean[0].trace.FinalRmse();
  ASSERT_EQ(clean[0].rank_traffic.size(), 4u);

  FaultPlan plan;
  plan.target_rank = 2;
  plan.kill_after_sends = clean[0].rank_traffic[2].tokens_sent / 2;
  auto faulted = RunFaultyWorld(ds, o, 4, plan);
  ASSERT_EQ(faulted.size(), 4u);

  EXPECT_FALSE(faulted[2].ok());
  for (int r : {0, 1, 3}) {
    ASSERT_TRUE(faulted[static_cast<size_t>(r)].ok())
        << "rank " << r << ": "
        << faulted[static_cast<size_t>(r)].status().ToString();
    EXPECT_EQ(faulted[static_cast<size_t>(r)].value().dead_ranks,
              std::vector<int>{2})
        << "rank " << r;
  }
  const double faulted_rmse = faulted[0].value().trace.FinalRmse();
  EXPECT_LT(clean_rmse, 0.14);
  EXPECT_NEAR(faulted_rmse, clean_rmse, 2e-3);
}

// Death at the nastiest protocol point: rank 1 dies right after sending
// its first kTraceSync — inside a barrier, between kBarrierEnter and
// kResume, with rank 0 waiting on its held-token report. Recovery must
// abort the barrier and continue with the survivors.
TEST(DistNomadFaultTest, DeathDuringTraceBarrierIsRecovered) {
  const Dataset ds = MakeItemRichDataset();
  FaultPlan plan;
  plan.target_rank = 1;
  plan.kill_on_kind = static_cast<int>(ControlKind::kTraceSync);
  plan.kill_on_kind_count = 1;
  auto results = RunFaultyWorld(ds, DistOptions(/*epochs=*/10), 3, plan);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[1].ok());
  for (int r : {0, 2}) {
    ASSERT_TRUE(results[static_cast<size_t>(r)].ok())
        << "rank " << r << ": "
        << results[static_cast<size_t>(r)].status().ToString();
    EXPECT_EQ(results[static_cast<size_t>(r)].value().dead_ranks,
              std::vector<int>{1});
  }
  EXPECT_LT(results[0].value().trace.FinalRmse(), 0.6);
}

// Transient faults below the death threshold: 5% of every rank's sends
// fail with kUnavailable, and token frames are sporadically duplicated and
// re-ordered. Retry/backoff plus the version counters must absorb all of
// it — every rank finishes, nobody is declared dead, and training still
// converges.
TEST(DistNomadFaultTest, SeededDropsDupsAndDelaysAreAbsorbed) {
  const Dataset ds = MakeItemRichDataset();
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.02;
  plan.delay_rate = 0.02;
  plan.target_rank = -1;  // every rank misbehaves

  auto fabric = MakeLoopbackFabric(4, TestHeartbeat());
  ApplyFaultPlan(&fabric, plan);
  std::vector<const FaultInjectingTransport*> faulty;
  for (const auto& t : fabric) {
    faulty.push_back(static_cast<const FaultInjectingTransport*>(t.get()));
  }
  auto results = TrainWorld(ds, DistOptions(/*epochs=*/10), &fabric);
  ASSERT_EQ(results.size(), 4u);
  int64_t drops = 0;
  for (const auto* t : faulty) drops += t->fault_stats().drops;
  EXPECT_GT(drops, 0) << "plan injected nothing; the test is vacuous";
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(results[static_cast<size_t>(r)].ok())
        << "rank " << r << ": "
        << results[static_cast<size_t>(r)].status().ToString();
    EXPECT_TRUE(results[static_cast<size_t>(r)].value().dead_ranks.empty());
  }
  EXPECT_LT(results[0].value().trace.FinalRmse(), 0.6);
}

// Satellite 1: the distributed update budget must stop like the
// shared-memory solver stops — close to max_updates, not overshooting by
// an epoch. Rank 0 leases per-rank quotas at every barrier, so the global
// tally lands in the same window as the single-process run.
TEST(DistNomadFaultTest, UpdateBudgetLeaseMatchesSharedMemorySemantics) {
  const Dataset ds = MakeItemRichDataset();
  const int64_t budget = 2 * ds.train.nnz();  // stop mid-run, ~2 epochs in

  TrainOptions single_opt = FastTrainOptions(/*epochs=*/50, /*workers=*/2);
  single_opt.max_updates = budget;
  NomadSolver single;
  auto single_result = single.Train(ds, single_opt);
  ASSERT_TRUE(single_result.ok()) << single_result.status().ToString();

  DistNomadOptions o;
  o.train = single_opt;
  auto results = RunLoopbackWorld(ds, o, 3);
  ASSERT_EQ(results.size(), 3u);

  // Both runs must reach the budget and neither may overshoot it by more
  // than a small fraction of an epoch (the per-worker race window).
  const int64_t slack = ds.train.nnz() / 4;
  EXPECT_GE(single_result.value().total_updates, budget);
  EXPECT_LT(single_result.value().total_updates, budget + slack);
  EXPECT_GE(results[0].total_updates, budget);
  EXPECT_LT(results[0].total_updates, budget + slack)
      << "distributed run overshot the update budget";
}

// End-to-end over real sockets: 2 ranks on 127.0.0.1, each in its own
// thread with its own TcpTransport — the same wiring dist_nomad_cli uses
// across processes.
TEST(DistNomadTest, TwoRankTcpTrainsEndToEnd) {
  const Dataset ds = MakeItemRichDataset();
  std::vector<std::unique_ptr<TcpTransport>> mesh;
  std::vector<TcpPeer> peers(2);
  for (int r = 0; r < 2; ++r) {
    TcpOptions topts;
    topts.hello_k = 8;
    auto t = TcpTransport::Listen(r, 2, /*port=*/0, topts);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    peers[static_cast<size_t>(r)] = {"127.0.0.1", t.value()->listen_port()};
    mesh.push_back(std::move(t).value());
  }
  std::vector<std::thread> establishers;
  for (int r = 0; r < 2; ++r) {
    establishers.emplace_back([&, r] {
      const Status s = mesh[static_cast<size_t>(r)]->Establish(peers);
      EXPECT_TRUE(s.ok()) << "rank " << r << ": " << s.ToString();
    });
  }
  for (auto& t : establishers) t.join();

  auto results = RunWorld(ds, DistOptions(/*epochs=*/10),
                          {mesh[0].get(), mesh[1].get()});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_LT(results[0].trace.FinalRmse(), 0.45);
  ASSERT_EQ(results[0].rank_traffic.size(), 2u);
  EXPECT_GT(results[0].rank_traffic[1].tokens_sent, 0);
  for (auto& t : mesh) EXPECT_TRUE(t->Close().ok());
}

// The benchmark's own wiring: 2 ranks x 2 workers over real sockets with
// bf16+delta, so each rank's workers share one codec sender per peer. Every
// token one rank sent must reach the other.
TEST(DistNomadTest, TwoRankTcpWithDeltaCodecConservesTokens) {
  const Dataset ds = MakeItemRichDataset();
  DistNomadOptions o = DistOptions(/*epochs=*/10);
  o.wire_codec = WireCodecSpec::Parse("bf16+delta").value();
  std::vector<std::unique_ptr<TcpTransport>> mesh;
  std::vector<TcpPeer> peers(2);
  for (int r = 0; r < 2; ++r) {
    TcpOptions topts;
    topts.hello_k = 8;
    topts.hello_codec = o.wire_codec.ToByte();
    auto t = TcpTransport::Listen(r, 2, /*port=*/0, topts);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    peers[static_cast<size_t>(r)] = {"127.0.0.1", t.value()->listen_port()};
    mesh.push_back(std::move(t).value());
  }
  std::vector<std::thread> establishers;
  for (int r = 0; r < 2; ++r) {
    establishers.emplace_back([&, r] {
      const Status s = mesh[static_cast<size_t>(r)]->Establish(peers);
      EXPECT_TRUE(s.ok()) << "rank " << r << ": " << s.ToString();
    });
  }
  for (auto& t : establishers) t.join();

  auto results = RunWorld(ds, o, {mesh[0].get(), mesh[1].get()});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_LT(results[0].trace.FinalRmse(), 0.45);
  ASSERT_EQ(results[0].rank_traffic.size(), 2u);
  int64_t sent = 0, received = 0;
  for (const RankTrafficStats& t : results[0].rank_traffic) {
    EXPECT_GT(t.tokens_sent, 0) << "rank " << t.rank << " never sent";
    sent += t.tokens_sent;
    received += t.tokens_received;
  }
  EXPECT_EQ(sent, received);
  for (auto& t : mesh) EXPECT_TRUE(t->Close().ok());
}

}  // namespace
}  // namespace net
}  // namespace nomad
