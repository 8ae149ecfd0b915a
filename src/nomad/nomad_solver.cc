#include "nomad/nomad_solver.h"

#include "net/dist_nomad.h"
#include "net/loopback_transport.h"

namespace nomad {

Result<TrainResult> NomadSolver::Train(const Dataset& ds,
                                       const TrainOptions& options) {
  // The only rank of a world of one: the distributed driver with no peer
  // to send a frame to, on the caller's thread.
  auto fabric = net::MakeLoopbackFabric(1);
  net::DistNomadOptions one_rank;
  one_rank.train = options;
  auto result = net::TrainRank(ds, one_rank, fabric[0].get());
  if (result.ok()) {
    result.value().solver_name = Name();
    result.value().rank_traffic.clear();
  }
  return result;
}

}  // namespace nomad
