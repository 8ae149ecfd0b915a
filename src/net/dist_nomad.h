#ifndef NOMAD_NET_DIST_NOMAD_H_
#define NOMAD_NET_DIST_NOMAD_H_

#include <memory>
#include <vector>

#include "net/codec.h"
#include "net/transport.h"
#include "solver/solver.h"

namespace nomad {
namespace net {

/// Options of a distributed NOMAD rank. Every rank of a job must be
/// constructed with identical values (same dataset, same TrainOptions,
/// same remote fraction) — the protocol validates k/precision via the
/// transport hello but trusts the rest, exactly like an MPI job trusts its
/// launch script.
struct DistNomadOptions {
  /// The per-rank training configuration: `num_workers` worker threads per
  /// rank, and all the usual NOMAD knobs (routing, token batching, NUMA
  /// placement, precision) apply *within* the rank unchanged.
  /// `record_objective` is not yet supported distributed.
  TrainOptions train;
  /// Probability that a processed token leaves for a uniformly random
  /// remote rank instead of re-entering the local router. Negative (the
  /// default) selects (world-1)/world — the paper's Algorithm 2 behavior
  /// of a uniformly random worker across the whole cluster, which keeps
  /// the stationary token distribution identical to the single-process
  /// solver. Smaller values trade global mixing for less network traffic.
  double remote_token_fraction = -1.0;
  /// How many times a failed (Unavailable) send is retried — with
  /// exponential backoff — before the sender gives up: a worker keeps the
  /// token local, the driver escalates. Absorbs transient transport drops
  /// (see net/fault_transport.h) without any acknowledgement protocol.
  int send_retry_limit = 5;
  /// Wire-codec stages (net/codec.h) stacked over the transport: bf16/f16
  /// payload quantization, delta rows against the receiver's last-seen
  /// copy, batch coalescing. Every rank of a job must run the same spec —
  /// the TCP hello refuses mismatched peers; loopback trusts the launch,
  /// like the rest of these options. Default: none (frames unchanged).
  WireCodecSpec wire_codec;
};

/// Multi-process NOMAD with failure recovery (docs/ARCHITECTURE.md,
/// "Failure model"): when the transport detects a dead peer — heartbeat
/// timeout or TCP connection loss — rank 0 declares the death, survivors
/// quiesce and flush their channels, the tokens lost with the dead rank
/// are re-materialized from the freshest surviving h-row copies and
/// redistributed, the dead rank's user partition is adopted by the
/// survivors, and training resumes degraded. Rank 0's death is fatal
/// (non-goal), as is a world reduced to nothing.
///
/// Multi-process NOMAD (paper Sec. 2.2, Algorithm 2): users are partitioned
/// across ranks (and across each rank's workers), item tokens circulate
/// both within a rank — through the unchanged MpmcQueue + TokenRouter hot
/// path — and between ranks through a net::Transport carrying the token's
/// h_j row on the wire.
///
/// Each rank runs the TokenWorkers pool (nomad/token_worker.h) with a
/// remote hop, and the calling thread is the rank's driver: it pumps the
/// transport (inbound tokens are written into the local H and enqueued),
/// and trace points are coordinated barriers (rank 0 collects held-token
/// counts until every circulating token is accounted for, all ranks
/// exchange current h rows, each evaluates its own user range on a thread
/// pool pinned like its workers, and rank 0 aggregates the global RMSE —
/// so every rank returns the same trace). At the final barrier rank 0
/// additionally gathers the w-row partitions, so its TrainResult holds the
/// complete model; every rank's result holds the full (current) H.
/// docs/ARCHITECTURE.md, "Distributed layer", walks through the protocol.
///
/// This is the one NOMAD driver: a world of 1 is shared-memory NOMAD, and
/// NomadSolver trains through TrainRank as that world's only rank.
class DistNomadSolver {
 public:
  /// Trains rank `transport->rank()`'s share of the factorization, using
  /// `transport` (already established, world = transport->world()) for
  /// cross-rank token hand-offs and barriers. Blocks until the whole job
  /// finishes. The transport is left open; the caller owns Close().
  /// Returns InvalidArgument for malformed options, and at any world for
  /// k above the wire format's kMaxWireK and for record_objective (the
  /// objective needs all of W on one rank); NomadSolver supports both.
  Result<TrainResult> Train(const Dataset& ds, const DistNomadOptions& options,
                            Transport* transport);
};

/// The per-rank entry DistNomadSolver::Train reaches after its wire-level
/// checks: validates the common options, applies `nomadic_rows`, and runs
/// this rank's share of the job on the calling thread. NomadSolver calls
/// it with the only endpoint of a world of 1, which sends no frame — so
/// there k may exceed kMaxWireK, and `record_objective` is honored.
Result<TrainResult> TrainRank(const Dataset& ds,
                              const DistNomadOptions& options,
                              Transport* transport);

/// Convenience harness shared by the CLI, the bench, and the tests: runs a
/// `world`-rank job rank-per-thread over a fresh loopback fabric and
/// returns one Result per rank (index = rank). Blocks until every rank
/// finishes; a failing rank's error is returned in its slot, so callers
/// only differ in how they report a bad Result. Rank 0's result carries
/// the gathered model and the full traffic table.
std::vector<Result<TrainResult>> TrainLoopbackWorld(
    const Dataset& ds, const DistNomadOptions& options, int world);

/// Like TrainLoopbackWorld, but over caller-provided endpoints (one per
/// rank, already wired to each other) — the seam that lets tests, the CLI,
/// and the fault bench hand in a heartbeat-enabled loopback fabric with
/// some endpoints wrapped in a FaultInjectingTransport. Blocks until every
/// rank finishes; endpoints stay open (the caller owns Close()).
std::vector<Result<TrainResult>> TrainWorld(
    const Dataset& ds, const DistNomadOptions& options,
    std::vector<std::unique_ptr<Transport>>* endpoints);

}  // namespace net
}  // namespace nomad

#endif  // NOMAD_NET_DIST_NOMAD_H_
