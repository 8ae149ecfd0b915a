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
/// Shared-memory NOMAD is the distributed algorithm on one machine, so this
/// solver is one rank of DistNomadSolver's driver in a world of 1
/// (net/dist_nomad.h, TrainRank): the same TokenWorkers pool
/// (nomad/token_worker.h), trace points that pause the workers, evaluate
/// on a thread pool pinned like them and resume them, and no frame sent.
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
  /// adaptation is returned in TrainResult::worker_batch. No peer, no
  /// traffic: TrainResult::rank_traffic stays empty.
  Result<TrainResult> Train(const Dataset& ds,
                            const TrainOptions& options) override;
};

}  // namespace nomad

#endif  // NOMAD_NOMAD_NOMAD_SOLVER_H_
