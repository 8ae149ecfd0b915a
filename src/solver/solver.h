#ifndef NOMAD_SOLVER_SOLVER_H_
#define NOMAD_SOLVER_SOLVER_H_

#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "data/dataset.h"
#include "eval/trace.h"
#include "linalg/factor_matrix.h"
#include "obs/timeseries.h"
#include "util/numa_topology.h"
#include "util/status.h"

/// The library namespace: solvers, data, linear algebra, evaluation, and
/// the concurrency/placement utilities beneath them.
namespace nomad {

/// How NOMAD routes a token after processing it (paper Sec. 3.1 vs 3.3).
enum class Routing {
  kUniform,      ///< Algorithm 1 line 22: uniform random worker.
  kLeastLoaded,  ///< Sec. 3.3 dynamic load balancing: prefer shorter queues.
};

/// How the NOMAD token-batch size is chosen (see nomad/batch_controller.h).
enum class TokenBatchMode {
  kFixed,  ///< Every pop requests TrainOptions::token_batch_size tokens.
  kAuto,   ///< Each worker's BatchController adapts the batch at runtime
           ///< inside [1, max_token_batch] from queue depth, pop hit rate,
           ///< and idle backoffs (AIMD rule).
};

/// "fixed" / "auto".
const char* TokenBatchModeName(TokenBatchMode mode);

/// Parses "fixed" and "auto" (with "adaptive" accepted as an alias for
/// auto, and the empty string as the kFixed default, mirroring
/// ParsePrecision); anything else is InvalidArgument.
Result<TokenBatchMode> ParseTokenBatchMode(const std::string& name);

/// Storage precision of the factor matrices during training. f32 halves the
/// memory traffic over the circulating factor rows — the bottleneck the
/// paper's Sec. 3.5 layout work targets — and doubles the SIMD lanes per
/// update; evaluation metrics accumulate in double either way, and the
/// returned TrainResult factors are always widened to double.
enum class Precision {
  kF64,  ///< double storage (the historical default).
  kF32,  ///< float storage, f32 SGD arithmetic.
};

/// "f64" / "f32".
const char* PrecisionName(Precision precision);

/// Invokes fn with a zero of the storage type `precision` selects and
/// returns its result: fn(float{}) for kF32, fn(double{}) for kF64. Every
/// solver's Train dispatches its templated implementation through this
/// (TrainImpl<decltype(zero)>), so adding a storage precision means
/// extending this one switch, not eight solver files.
template <typename Fn>
auto DispatchPrecision(Precision precision, Fn&& fn) {
  return precision == Precision::kF32 ? fn(float{}) : fn(double{});
}

/// Parses "f32"/"float32"/"float"/"single" and "f64"/"float64"/"double";
/// anything else is InvalidArgument.
Result<Precision> ParsePrecision(const std::string& name);

/// Options shared by every solver. Solver-specific fields are grouped and
/// ignored by solvers they do not apply to.
struct TrainOptions {
  // -- Model (Table 1) --

  /// k: latent dimensionality of W (m×k) and H (n×k).
  int rank = 16;
  /// λ: L2 regularization weight of Eq. (1).
  double lambda = 0.05;
  /// Separable loss ℓ(pred, a): "squared" (the paper's setting, fast path),
  /// "absolute", "huber", or "logistic" (ratings in {-1,+1}). Supported by
  /// the SGD-family solvers (nomad, serial_sgd, hogwild); the closed-form
  /// baselines (ALS, CCD++) are squared-loss by construction and reject
  /// other values.
  std::string loss = "squared";

  // -- Step-size schedule, Eq. (11) (SGD family) --

  /// α: initial step size of the Eq. (11) schedule.
  double alpha = 0.012;
  /// β: step-decay rate of the Eq. (11) schedule.
  double beta = 0.05;
  /// Schedule name ("paper-t1.5", see MakeSchedule for the full list).
  std::string schedule = "paper-t1.5";
  /// Bold-driver step adaptation; DSGD/DSGD++ default to this in the paper.
  bool bold_driver = false;

  // -- Parallelism --

  /// p: worker threads (NOMAD workers, Hogwild threads, DSGD strata, …).
  int num_workers = 4;
  /// NUMA placement of workers and factor memory (NOMAD): kAuto pins
  /// workers to nodes, binds each worker's w-row partition to its node,
  /// interleaves the circulated H pages, and biases token routing toward
  /// intra-node hand-offs; kOff is the topology-blind historical behavior;
  /// kInterleave only spreads factor pages round-robin. Single-node hosts
  /// are unaffected by any value (see util/numa_topology.h).
  NumaPolicy numa_policy = NumaPolicy::kAuto;

  // -- Stopping --
  // Whichever criterion triggers first ends training; negative disables.

  /// Wall-clock training budget in seconds (evaluation pauses excluded).
  double max_seconds = -1.0;
  /// Total single-rating SGD update budget.
  int64_t max_updates = -1;
  /// Epoch budget; one epoch ≈ one pass over the training ratings.
  int max_epochs = 10;

  // -- Evaluation cadence --

  /// NOMAD evaluates every `eval_every_updates` updates (default: once per
  /// epoch-equivalent; a distributed rank requests a trace point after its
  /// share of them); epoch-based solvers evaluate once per epoch
  /// regardless.
  int64_t eval_every_updates = -1;
  /// Also record the Eq. (1) objective J(W,H) at every trace point.
  bool record_objective = false;

  // -- Initialization --

  /// Seed for the common Uniform(0, 1/sqrt(k)) starting point.
  uint64_t seed = 1;

  // -- Numerics --

  /// Storage precision of W and H while training (all SGD-family solvers,
  /// ALS, and CCD++ honor this; the cluster simulators are f64-only).
  Precision precision = Precision::kF64;

  // -- Observability --

  /// Metrics registry the run instruments itself through (obs/metrics.h):
  /// per-worker token/update counters, queue-depth and batch gauges, and —
  /// for distributed runs — per-rank traffic, retry, and recovery series.
  /// nullptr uses the process-wide obs::MetricsRegistry::Default(), which
  /// the CLIs expose over HTTP with --metrics-port; tests and benches pass
  /// their own registry for isolation. NOMAD_METRICS=off disables the
  /// default registry entirely (instrumentation becomes no-op branches).
  /// Must outlive the Train call. NOMAD-family solvers honor this; the
  /// baselines ignore it.
  obs::MetricsRegistry* metrics = nullptr;
  /// Run timeline the solver records into at every trace point (and that
  /// the background sampler fills between them): each row carries the
  /// registry deltas for its window (obs/timeseries.h). nullptr keeps a
  /// solver-private timeline — TrainResult::timeline is populated either
  /// way; passing one is only needed to observe the run live (the CLIs
  /// attach it to the metrics server's /timeseries endpoint). Must outlive
  /// the Train call.
  obs::RunTimeline* timeline = nullptr;
  /// Background sampler period in milliseconds; > 0 runs a sampler thread
  /// on the run's timeline for the stretches between trace points
  /// (CLI: --metrics-sample-ms). 0 disables (the default): the timeline
  /// then advances only at trace points.
  int metrics_sample_ms = 0;

  // -- NOMAD-specific --

  /// Token routing policy (uniform vs Sec. 3.3 least-loaded).
  Routing routing = Routing::kUniform;
  /// Tokens a worker drains from its queue per lock acquisition (and the
  /// granularity of the batched hand-off back out). 1 reproduces the
  /// paper's token-at-a-time Algorithm 1; larger values amortize queue
  /// locking over the batch without changing the updates performed. In
  /// auto mode this is the starting batch each worker's controller adapts
  /// from. Both modes are clamped by EffectiveMaxBatch (a worker never
  /// drains more than half the average per-worker item share per pop).
  int token_batch_size = 8;
  /// kFixed keeps token_batch_size for the whole run; kAuto lets each
  /// worker's BatchController adapt the batch per hand-off round (CLI:
  /// --token-batch=auto). Per-worker adaptation stats are returned in
  /// TrainResult::worker_batch.
  TokenBatchMode token_batch_mode = TokenBatchMode::kFixed;
  /// Auto-mode ceiling: the controller may grow the batch up to
  /// min(max_token_batch, EffectiveMaxBatch). Ignored in fixed mode.
  int max_token_batch = 32;
  /// Footnote 1: partition users by rating count instead of row count —
  /// better balanced under power-law user degrees.
  bool partition_by_ratings = true;
  /// Footnote 2: make the *user* parameters w_i nomadic and partition the
  /// items instead. Usually worse (m >> n means more tokens to circulate)
  /// but supported for matrices that are wider than tall.
  bool nomadic_rows = false;

  // -- FPSGD**-specific --

  /// p' = fpsgd_grid_factor * p + 1 blocks per grid side.
  int fpsgd_grid_factor = 2;

  // -- CCD++-specific --

  /// Inner iterations per rank-one subproblem.
  int ccd_inner_iters = 1;
};

/// What one worker's token-batch controller did over a NOMAD run (see
/// nomad/batch_controller.h for the AIMD rule that produces these).
/// Returned for both token-batch modes; a fixed-mode run reports constant
/// trajectories, so downstream tooling reads one shape either way.
struct WorkerBatchStats {
  int worker = -1;         ///< Worker index the stats belong to.
  int final_batch = 0;     ///< Batch size at the end of the run.
  int min_batch_seen = 0;  ///< Smallest batch the worker ever used.
  int max_batch_seen = 0;  ///< Largest batch the worker ever used.
  int64_t rounds = 0;      ///< Hand-off rounds observed.
  int64_t grows = 0;       ///< Additive increases that changed the batch.
  int64_t shrinks = 0;     ///< Multiplicative decreases that changed the
                           ///< batch (a shrink at the floor counts as
                           ///< neither).
  int64_t backoffs = 0;    ///< Idle-backoff notifications received.
  double mean_batch = 0.0;  ///< Round-weighted mean batch size.
  /// Adaptation trajectory: (round index, new batch) at every change,
  /// capped at BatchControllerConfig::trajectory_limit entries. Entry 0 is
  /// (0, initial batch).
  std::vector<std::pair<int64_t, int>> trajectory;
};

/// What one rank of a distributed NOMAD run moved over the transport (see
/// net/dist_nomad.h). Mirrors the WorkerBatchStats pattern: rank 0's
/// TrainResult carries one entry per rank (gathered at the final barrier),
/// every other rank's carries its own entry only, and shared-memory solvers
/// leave the vector empty.
struct RankTrafficStats {
  int rank = -1;                ///< Rank the row belongs to.
  int64_t tokens_sent = 0;      ///< Item tokens handed to remote ranks.
  int64_t tokens_received = 0;  ///< Item tokens received from remote ranks.
  int64_t bytes_sent = 0;       ///< Transport bytes out (tokens + control).
  int64_t bytes_received = 0;   ///< Transport bytes in (tokens + control).
};

/// Everything a training run produces. The factors are always returned in
/// double (a float-precision run widens its result), so model persistence
/// and downstream evaluation are precision-agnostic; `precision` records
/// what the storage was during training.
struct TrainResult {
  FactorMatrix w;                         ///< Trained user factors (m×k).
  FactorMatrix h;                         ///< Trained item factors (n×k).
  Trace trace;                            ///< Per-trace-point RMSE/objective.
  int64_t total_updates = 0;              ///< Single-rating SGD updates run.
  double total_seconds = 0.0;             ///< Training time, eval excluded.
  std::string solver_name;                ///< Solver::Name() of the run.
  Precision precision = Precision::kF64;  ///< Storage used while training.
  /// Per-worker token-batch adaptation stats (NOMAD only; empty for the
  /// baselines). One entry per worker, indexed by worker id.
  std::vector<WorkerBatchStats> worker_batch;
  /// Per-rank transport traffic of a distributed run (empty for the
  /// shared-memory solvers; see RankTrafficStats for who carries what).
  std::vector<RankTrafficStats> rank_traffic;
  /// Ranks declared dead and recovered from during a distributed run
  /// (always empty for shared-memory solvers and fault-free jobs).
  std::vector<int> dead_ranks;
  /// Run timeline rows (trace points + sampler rows, oldest first): the
  /// per-window registry deltas behind the RMSE-vs-time and
  /// updates/s-vs-time curves. Dumped as JSONL by the CLIs' --trace-out;
  /// see obs/timeseries.h for the row schema.
  std::vector<obs::TimelinePoint> timeline;
};

/// Interface implemented by NOMAD and by every baseline. Implementations
/// are stateless between Train calls; all run state lives on the stack of
/// Train.
class Solver {
 public:
  virtual ~Solver() = default;  ///< Solvers are owned via unique_ptr.

  /// Registry name of the solver ("nomad", "hogwild", "als", …).
  virtual std::string Name() const = 0;

  /// Trains a factorization of ds.train, tracing test RMSE on ds.test.
  /// Returns InvalidArgument for malformed options (rank <= 0 etc.).
  virtual Result<TrainResult> Train(const Dataset& ds,
                                    const TrainOptions& options) = 0;
};

/// Validates option fields common to all solvers.
Status ValidateCommonOptions(const TrainOptions& options);

/// Initializes W and H with the standard Uniform(0, 1/sqrt(k)) entries
/// (Sec. 5.1), seeded deterministically from options.seed so every solver
/// starts from the identical point — as in the paper's experiments. The
/// draws are made in double and rounded to Real, so an f32 run and an f64
/// run with the same seed start from the same point up to rounding.
template <typename Real>
void InitFactorsT(const Dataset& ds, const TrainOptions& options,
                  FactorMatrixT<Real>* w, FactorMatrixT<Real>* h) {
  *w = FactorMatrixT<Real>(ds.rows, options.rank);
  *h = FactorMatrixT<Real>(ds.cols, options.rank);
  Rng rng(options.seed);
  w->InitUniform(&rng);
  h->InitUniform(&rng);
}

/// Double-precision spelling kept for existing callers (tests, simulators).
void InitFactors(const Dataset& ds, const TrainOptions& options,
                 FactorMatrix* w, FactorMatrix* h);

/// Moves trained factors into the result, widening f32 storage to the
/// result's double matrices. The moved-from matrices are consumed.
template <typename Real>
void StoreTrainedFactors(FactorMatrixT<Real>&& w, FactorMatrixT<Real>&& h,
                         TrainResult* result) {
  if constexpr (std::is_same_v<Real, double>) {
    result->w = std::move(w);
    result->h = std::move(h);
  } else {
    result->w = w.template Cast<double>();
    result->h = h.template Cast<double>();
  }
}

}  // namespace nomad

#endif  // NOMAD_SOLVER_SOLVER_H_
