#include "sim/solvers/sim_nomad.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "data/shard.h"
#include "nomad/batch_controller.h"
#include "obs/timeseries.h"
#include "sim/event_queue.h"
#include "solver/sgd_kernel.h"
#include "util/rng.h"

namespace nomad {

namespace {

struct Token {
  int32_t item = 0;
  int8_t local_visits_left = 0;  // remaining intra-machine circulation hops
};

}  // namespace

Result<SimResult> SimNomadSolver::Train(const Dataset& ds,
                                        const SimOptions& options) {
  NOMAD_RETURN_IF_ERROR(ValidateCommonOptions(options.train));
  const TrainOptions& train = options.train;
  const ClusterConfig& cluster = options.cluster;
  const NetworkModel& net = options.network;
  if (cluster.machines <= 0 || cluster.compute_cores <= 0) {
    return Status::InvalidArgument("cluster must have machines and cores");
  }
  if (options.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (options.worker_batch_size <= 0) {
    return Status::InvalidArgument("worker_batch_size must be positive");
  }
  if (options.worker_batch_auto && options.worker_max_batch <= 0) {
    return Status::InvalidArgument(
        "worker_max_batch must be positive with worker_batch_auto");
  }
  auto schedule = MakeSchedule(train.schedule, train.alpha, train.beta);
  if (!schedule.ok()) return schedule.status();
  const StepSchedule& sched = *schedule.value();

  const int num_machines = cluster.machines;
  const int cores = cluster.compute_cores;
  const int num_workers = num_machines * cores;
  const int k = train.rank;
  // The simulator trains squared loss in f64.
  const UpdateKernel kernel(sched, /*loss=*/nullptr, train.lambda, k);

  SimResult result;
  result.train.solver_name = Name();
  // The simulator has no registry instrumentation (virtual time makes
  // wall-clock cells meaningless), but its trace points still enter a
  // timeline so every TrainResult exposes the same timeline shape; rows
  // carry empty deltas. An external timeline (options.train.timeline) is
  // honored so --trace-out works for `simulate` too.
  obs::RunTimeline local_timeline(nullptr);
  obs::RunTimeline* const timeline = train.timeline != nullptr
                                         ? train.timeline
                                         : &local_timeline;
  InitFactors(ds, train, &result.train.w, &result.train.h);
  FactorMatrix& w = result.train.w;
  FactorMatrix& h = result.train.h;

  const UserPartition partition =
      train.partition_by_ratings
          ? UserPartition::ByRatings(ds.train, num_workers)
          : UserPartition::ByRows(ds.rows, num_workers);
  const ColumnShards shards = ColumnShards::Build(ds.train, partition);
  StepCounts counts(ds.train.nnz());

  EventQueue eq;
  Rng rng(train.seed ^ 0x51D0ACEULL);

  // Per-worker state.
  std::vector<std::deque<Token>> queue(static_cast<size_t>(num_workers));
  std::vector<char> busy(static_cast<size_t>(num_workers), 0);
  // Adaptive batching mirror of the shared-memory token_batch_mode=auto:
  // one controller per simulated worker, same AIMD rule, same
  // EffectiveMaxBatch hoarding clamp, fed from the virtual queues.
  std::vector<BatchController> controllers;
  if (options.worker_batch_auto) {
    BatchControllerConfig cc;
    cc.max_batch =
        EffectiveMaxBatch(ds.cols, num_workers, options.worker_max_batch);
    cc.initial_batch = std::min(options.worker_batch_size, cc.max_batch);
    controllers.assign(static_cast<size_t>(num_workers),
                       BatchController(cc));
  }
  // Per-machine communication state.
  std::vector<double> sender_free(static_cast<size_t>(num_machines), 0.0);
  // outbox[src * M + dst]: tokens (with target worker) awaiting batch send.
  struct Outgoing {
    int dest_worker;
    Token token;
  };
  std::vector<std::vector<Outgoing>> outbox(
      static_cast<size_t>(num_machines) * static_cast<size_t>(num_machines));
  std::vector<uint64_t> outbox_generation(outbox.size(), 0);

  int64_t total_updates = 0;
  const int64_t epoch_updates = std::max<int64_t>(ds.train.nnz(), 1);
  const int64_t max_updates =
      train.max_updates > 0
          ? train.max_updates
          : (train.max_epochs > 0 ? train.max_epochs * epoch_updates : -1);
  const double max_seconds = train.max_seconds;
  bool stopping = false;

  const auto machine_of = [cores](int worker) { return worker / cores; };

  // Queue-size probe for least-loaded routing: total tokens queued on a
  // machine (matches the paper's piggybacked queue-size payload).
  const auto machine_load = [&](int m) {
    size_t load = 0;
    for (int c = 0; c < cores; ++c) {
      load += queue[static_cast<size_t>(m * cores + c)].size();
    }
    return load;
  };

  // Forward declarations of the event handlers as std::functions so they
  // can schedule each other.
  std::function<void(int, SimTime)> try_start;

  const auto deliver = [&](int worker, Token token, SimTime at) {
    queue[static_cast<size_t>(worker)].push_back(token);
    try_start(worker, at);
  };

  // Flushes outbox[src->dst] into one network message.
  const auto flush = [&](int src, int dst, SimTime now) {
    auto& box = outbox[static_cast<size_t>(src) * num_machines +
                       static_cast<size_t>(dst)];
    if (box.empty()) return;
    std::vector<Outgoing> batch;
    batch.swap(box);
    outbox_generation[static_cast<size_t>(src) * num_machines +
                      static_cast<size_t>(dst)]++;
    const double bytes = TokenBytes(k) * static_cast<double>(batch.size());
    const double start = std::max(now, sender_free[static_cast<size_t>(src)]);
    const double occupancy = net.OccupancySeconds(bytes);
    sender_free[static_cast<size_t>(src)] = start + occupancy;
    const double arrival = start + net.inter_latency + occupancy;
    result.messages += 1;
    result.bytes += bytes;
    eq.Schedule(arrival, [&, batch = std::move(batch)](SimTime at) {
      for (const Outgoing& out : batch) deliver(out.dest_worker, out.token, at);
    });
  };

  // Routes a token after worker `src` finished processing it.
  const auto route = [&](int src, Token token, SimTime now) {
    const int src_machine = machine_of(src);
    if (options.circulate && token.local_visits_left > 0 && cores > 1) {
      token.local_visits_left--;
      int local = static_cast<int>(rng.NextBelow(
          static_cast<uint64_t>(cores - 1)));
      if (src_machine * cores + local >= src) ++local;  // skip self
      const int dest = src_machine * cores + local;
      eq.Schedule(now + net.intra_latency,
                  [&, dest, token](SimTime at) { deliver(dest, token, at); });
      return;
    }
    // Network hop (or local re-scatter when there is a single machine).
    int dst_machine = src_machine;
    if (num_machines > 1) {
      const auto pick = [&] {
        int m = static_cast<int>(
            rng.NextBelow(static_cast<uint64_t>(num_machines - 1)));
        if (m >= src_machine) ++m;
        return m;
      };
      dst_machine = pick();
      if (train.routing == Routing::kLeastLoaded) {
        const int other = pick();
        if (machine_load(other) < machine_load(dst_machine)) {
          dst_machine = other;
        }
      }
    }
    token.local_visits_left =
        options.circulate ? static_cast<int8_t>(cores - 1) : 0;
    const int dst_worker =
        dst_machine * cores +
        static_cast<int>(rng.NextBelow(static_cast<uint64_t>(cores)));
    if (dst_machine == src_machine) {
      eq.Schedule(now + net.intra_latency, [&, dst_worker, token](SimTime at) {
        deliver(dst_worker, token, at);
      });
      return;
    }
    auto& box = outbox[static_cast<size_t>(src_machine) * num_machines +
                       static_cast<size_t>(dst_machine)];
    box.push_back(Outgoing{dst_worker, token});
    if (static_cast<int>(box.size()) >= options.batch_size) {
      flush(src_machine, dst_machine, now);
    } else if (box.size() == 1) {
      // Arm the flush timer for this batch generation.
      const uint64_t gen =
          outbox_generation[static_cast<size_t>(src_machine) * num_machines +
                            static_cast<size_t>(dst_machine)];
      eq.Schedule(now + options.flush_delay,
                  [&, src_machine, dst_machine, gen](SimTime at) {
                    if (outbox_generation[static_cast<size_t>(src_machine) *
                                              num_machines +
                                          static_cast<size_t>(dst_machine)] ==
                        gen) {
                      flush(src_machine, dst_machine, at);
                    }
                  });
    }
  };

  // Applies one token's updates (logging first, as the replay contract
  // requires) and returns how many ratings it covered.
  const auto process_token = [&](int worker, const Token& token) {
    if (options.process_log != nullptr) {
      options.process_log->emplace_back(worker, token.item);
    }
    int32_t count = 0;
    const ColumnShards::Entry* entries =
        shards.ColEntries(worker, token.item, &count);
    kernel.ApplyColumn(entries, count, &counts, &w, h.Row(token.item));
    total_updates += count;
    return count;
  };

  // Takes the final trace point when the update budget is exhausted.
  const auto budget_stop = [&](SimTime at) {
    stopping = true;
    TracePoint pt;
    pt.seconds = at;
    pt.updates = total_updates;
    pt.test_rmse = Rmse(ds.test, w, h);
    if (train.record_objective) {
      pt.objective = Objective(ds.train, w, h, train.lambda);
    }
    result.train.trace.Add(pt);
    timeline->RecordTrace(pt);
  };

  try_start = [&](int worker, SimTime now) {
    if (stopping || busy[static_cast<size_t>(worker)] ||
        queue[static_cast<size_t>(worker)].empty()) {
      return;
    }
    busy[static_cast<size_t>(worker)] = 1;
    auto& wq = queue[static_cast<size_t>(worker)];
    const int machine = machine_of(worker);

    if (!options.worker_batch_auto && options.worker_batch_size == 1) {
      // Token-at-a-time fast path (the default and the paper's Algorithm
      // 1): scalar event captures, no per-event allocation.
      const Token token = wq.front();
      wq.pop_front();
      int32_t n = 0;
      shards.ColEntries(worker, token.item, &n);
      const double work =
          n > 0 ? n * cluster.UpdateSeconds(machine, k)
                : 0.1 * cluster.UpdateSeconds(machine, k);
      eq.Schedule(now + work, [&, worker, token, work](SimTime at) {
        result.busy_seconds += work;  // counted at completion so utilization
                                      // never includes in-flight work
        busy[static_cast<size_t>(worker)] = 0;
        process_token(worker, token);
        if (max_updates > 0 && total_updates >= max_updates && !stopping) {
          budget_stop(at);
          return;
        }
        route(worker, token, at);
        try_start(worker, at);
      });
      return;
    }

    // Drain up to the configured (or controller-chosen) batch of queued
    // tokens into one busy period — the virtual-time analogue of the
    // shared-memory TryPopBatch hand-off.
    const int want = options.worker_batch_auto
                         ? controllers[static_cast<size_t>(worker)].batch()
                         : options.worker_batch_size;
    std::vector<Token> batch;
    while (!wq.empty() && static_cast<int>(batch.size()) < want) {
      batch.push_back(wq.front());
      wq.pop_front();
    }
    if (options.worker_batch_auto) {
      // The simulator never observes an empty pop (try_start only runs on
      // a non-empty queue) and has no idle backoff, so the controller sees
      // the depth and hit-rate signals only.
      controllers[static_cast<size_t>(worker)].Observe(
          static_cast<size_t>(want), batch.size(), wq.size());
    }
    // Per-token costs, so an early budget stop mid-batch can charge (and
    // timestamp) only the tokens whose updates were actually applied.
    std::vector<double> works(batch.size());
    double total_work = 0.0;
    for (size_t b = 0; b < batch.size(); ++b) {
      int32_t n = 0;
      shards.ColEntries(worker, batch[b].item, &n);
      // A token with no local ratings still costs a queue pop/push; charge
      // a tenth of one rating update for the handling.
      works[b] = n > 0 ? n * cluster.UpdateSeconds(machine, k)
                       : 0.1 * cluster.UpdateSeconds(machine, k);
      total_work += works[b];
    }
    eq.Schedule(now + total_work,
                [&, worker, batch = std::move(batch),
                 works = std::move(works), total_work](SimTime at) {
      busy[static_cast<size_t>(worker)] = 0;
      const SimTime start = at - total_work;
      double done_work = 0.0;
      for (size_t b = 0; b < batch.size(); ++b) {
        const Token& token = batch[b];
        done_work += works[b];
        process_token(worker, token);
        if (max_updates > 0 && total_updates >= max_updates && !stopping) {
          // Budget exhausted: take the final trace point right here instead
          // of waiting for the next evaluation tick, charging only the
          // applied tokens' work. Unprocessed tokens of the batch stay
          // unlogged so a serial replay of the log remains bit-exact.
          result.busy_seconds += done_work;
          budget_stop(start + done_work);
          return;
        }
        route(worker, token, at);
      }
      result.busy_seconds += total_work;  // counted at completion so
                                          // utilization never includes
                                          // in-flight work
      try_start(worker, at);
    });
  };

  // Degenerate inputs (no items or no ratings) would never reach an
  // update-count stopping criterion; trace once and return.
  if (ds.cols == 0 || ds.train.nnz() == 0) {
    TracePoint pt;
    pt.test_rmse = Rmse(ds.test, w, h);
    result.train.trace.Add(pt);
    timeline->RecordTrace(pt);
    result.train.timeline = timeline->Points();
    return result;
  }

  // Initial token scatter (Algorithm 1 lines 7-10).
  for (int32_t j = 0; j < ds.cols; ++j) {
    const int worker =
        static_cast<int>(rng.NextBelow(static_cast<uint64_t>(num_workers)));
    Token token{j, options.circulate ? static_cast<int8_t>(cores - 1)
                                     : static_cast<int8_t>(0)};
    queue[static_cast<size_t>(worker)].push_back(token);
  }
  for (int q = 0; q < num_workers; ++q) try_start(q, 0.0);

  // Evaluation ticks.
  std::function<void(SimTime)> eval_tick = [&](SimTime at) {
    TracePoint pt;
    pt.seconds = at;
    pt.updates = total_updates;
    pt.test_rmse = Rmse(ds.test, w, h);
    if (train.record_objective) {
      pt.objective = Objective(ds.train, w, h, train.lambda);
    }
    result.train.trace.Add(pt);
    timeline->RecordTrace(pt);
    const bool done = (max_updates > 0 && total_updates >= max_updates) ||
                      (max_seconds > 0 && at >= max_seconds);
    if (done) {
      stopping = true;
      return;
    }
    eq.Schedule(at + options.eval_interval, eval_tick);
  };
  eq.Schedule(options.eval_interval, eval_tick);

  while (!stopping && eq.RunOne()) {
  }

  result.train.total_updates = total_updates;
  result.train.total_seconds = eq.now();
  result.train.timeline = timeline->Points();
  if (options.worker_batch_auto) {
    result.worker_batch.reserve(controllers.size());
    for (int q = 0; q < num_workers; ++q) {
      result.worker_batch.push_back(
          controllers[static_cast<size_t>(q)].Stats(q));
    }
  }
  return result;
}

}  // namespace nomad
