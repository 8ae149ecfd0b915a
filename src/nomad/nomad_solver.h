#ifndef NOMAD_NOMAD_NOMAD_SOLVER_H_
#define NOMAD_NOMAD_NOMAD_SOLVER_H_

#include "solver/solver.h"

namespace nomad {

/// The paper's contribution (Algorithm 1): shared-memory NOMAD.
///
/// Users are partitioned statically across `num_workers` worker threads;
/// item parameter rows h_j circulate between workers as tokens through
/// per-worker concurrent queues. A worker that pops token j runs SGD
/// updates over its locally-stored ratings Ω̄_j^{(q)} — touching only its
/// own w_i rows and the h_j it exclusively owns while holding the token —
/// then pushes the token to another worker chosen by the routing policy.
/// The workers are the TokenWorkers pool (nomad/token_worker.h) with every
/// token kept local — the same worker loop DistNomadSolver runs in each
/// rank; this solver adds the driver that paces trace points and budgets.
///
/// Properties (Sec. 1): non-blocking, decentralized, lock-free updates
/// (queue hand-off aside), fully asynchronous, and serializable — every
/// execution is equivalent to some serial SGD update ordering, which the
/// serializability test verifies by replay.
///
/// On multi-socket hosts, `TrainOptions::numa_policy` additionally controls
/// hardware-conscious placement (util/numa_topology.h): workers pinned to
/// NUMA nodes, each worker's w-row partition bound to its node, the
/// circulated H pages interleaved, and token routing biased toward
/// intra-node hand-offs. Single-node hosts and `numa=off` run the
/// placement-free historical path, so results there are unaffected.
class NomadSolver final : public Solver {
 public:
  /// Always "nomad".
  std::string Name() const override { return "nomad"; }

  /// Runs Algorithm 1 on ds.train with `options.num_workers` threads,
  /// tracing test RMSE at the configured cadence. See TrainOptions for the
  /// NOMAD-specific knobs (routing, token_batch_size/token_batch_mode,
  /// numa_policy, …). Under token_batch_mode=auto each worker adapts its
  /// hand-off batch at runtime (nomad/batch_controller.h); the per-worker
  /// adaptation is returned in TrainResult::worker_batch.
  Result<TrainResult> Train(const Dataset& ds,
                            const TrainOptions& options) override;
};

}  // namespace nomad

#endif  // NOMAD_NOMAD_NOMAD_SOLVER_H_
