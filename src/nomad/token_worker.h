#ifndef NOMAD_NOMAD_TOKEN_WORKER_H_
#define NOMAD_NOMAD_TOKEN_WORKER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/shard.h"
#include "linalg/factor_matrix.h"
#include "nomad/batch_controller.h"
#include "nomad/pause_gate.h"
#include "nomad/row_ownership.h"
#include "nomad/token_router.h"
#include "obs/metrics.h"
#include "obs/solver_metrics.h"
#include "queue/mpmc_queue.h"
#include "solver/sgd_kernel.h"
#include "solver/solver.h"
#include "util/aligned.h"
#include "util/numa_topology.h"
#include "util/rng.h"

namespace nomad {

/// One rank's NOMAD workers and the one worker loop (Algorithm 1) that
/// the NOMAD driver (net/dist_nomad.cc) runs in every rank, NomadSolver's
/// world of one included. Users are partitioned over
/// `world × p` global workers; local worker q of rank r is global worker
/// r·p + q. Each worker drains a batch of item tokens from its queue,
/// asserts exclusive ownership of each, applies the SGD updates of its
/// ratings (UpdateKernelT::ApplyColumn) while the rank is under its update
/// cap, offers the token to the hop policy, and routes what stays on the
/// rank to the local queues.
///
/// The hop policy is the remote half of the hybrid layout (Sec. 3.4), a
/// template argument of Start() rather than a virtual call; every worker
/// runs its own copy. `bool Take(int32_t j, Rng*)` runs while the worker
/// still owns j and returns true when j leaves the rank (the policy has
/// serialized h_j by then); the worker releases j and calls `bool Send()`,
/// whose false keeps j on the rank after all.
///
/// The driver thread paces: Pause() parks every worker between rounds,
/// when none holds a token. Push(), Drain() and AssignGlobals() are for
/// parked or not yet started workers.
template <typename Real>
class TokenWorkers {
 public:
  /// The run a pool trains. Everything is borrowed and must outlive the
  /// pool; the workers write `w`, `h` and `counts` while they run.
  struct Run {
    const TrainOptions& options;  ///< p, routing, batching, seed, NUMA.
    int world;                    ///< Ranks in the job (1: shared memory).
    int rank;                     ///< This rank, in [0, world).
    const UserPartition& partition;  ///< Over all world·p global workers.
    const ColumnShards& shards;      ///< Built from `partition`.
    const UpdateKernelT<Real>& kernel;  ///< The SGD update.
    FactorMatrixT<Real>& w;          ///< One row per user.
    FactorMatrixT<Real>& h;          ///< One row per item token.
    StepCounts& counts;              ///< Per-rating step counts.
    obs::MetricsRegistry* registry;  ///< Null: no metrics.
    int metrics_rank;                ///< `rank` label; -1 leaves it off.
  };

  /// Places the workers on `topology` (callers pass NumaTopology::Detect(),
  /// or SingleNode() under NumaPolicy::kOff), creates their queues and
  /// scatters the item tokens (Algorithm 1 lines 7-10).
  TokenWorkers(const Run& run, const NumaTopology& topology)
      : run_(run),
        p_(run.options.num_workers),
        router_(run.options.routing, p_),
        gate_(p_),
        owner_(run.h.rows()),
        globals_(static_cast<size_t>(p_)),
        batch_stats_(static_cast<size_t>(p_)) {
    const int global_workers = run.world * p_;
    const int32_t cols = static_cast<int32_t>(run.h.rows());
    // Fixed and auto batching share the EffectiveMaxBatch hoarding clamp,
    // and auto starts from the fixed default.
    auto_batch_ = run.options.token_batch_mode == TokenBatchMode::kAuto;
    fixed_batch_ =
        EffectiveMaxBatch(cols, global_workers, run.options.token_batch_size);
    max_batch_ = auto_batch_ ? EffectiveMaxBatch(cols, global_workers,
                                                 run.options.max_token_batch)
                             : fixed_batch_;
    controller_config_.max_batch = max_batch_;
    controller_config_.initial_batch = std::min(fixed_batch_, max_batch_);

    for (int q = 0; q < p_; ++q) {
      queues_.push_back(std::make_unique<MpmcQueue<int32_t>>());
      globals_[static_cast<size_t>(q)].push_back(run.rank * p_ + q);
    }
    Place(topology);
    if (run.registry != nullptr) {
      obs::Labels labels;
      if (run.metrics_rank >= 0) {
        labels.emplace_back("rank", std::to_string(run.metrics_rank));
      }
      router_.AttachMetrics(
          run.registry->GetCounter("nomad_router_local_picks_total", labels),
          run.registry->GetCounter("nomad_router_remote_picks_total", labels));
    }
    // Every rank draws the same global sequence and keeps the tokens that
    // land on its own workers, so at world = 1 this is the shared-memory
    // scatter, draw for draw.
    Rng scatter(run.options.seed ^ 0xA5A5A5A5ULL);
    for (int32_t j = 0; j < cols; ++j) {
      const int g = static_cast<int>(
          scatter.NextBelow(static_cast<uint64_t>(global_workers)));
      if (g / p_ == run.rank) queues_[static_cast<size_t>(g % p_)]->Push(j);
    }
  }

  TokenWorkers(const TokenWorkers&) = delete;             ///< Not copyable.
  TokenWorkers& operator=(const TokenWorkers&) = delete;  ///< Not copyable.

  /// Stops and joins the workers.
  ~TokenWorkers() { Stop(); }

  /// Starts the p worker threads, each with its own copy of `hop`. Once.
  template <typename Hop>
  void Start(const Hop& hop) {
    threads_.reserve(static_cast<size_t>(p_));
    for (int q = 0; q < p_; ++q) {
      threads_.emplace_back([this, q, hop] { Work(q, hop); });
    }
  }

  /// Returns once every worker is parked between rounds (after Start()).
  void Pause() { gate_.Pause(); }

  /// Releases the parked workers.
  void Resume() { gate_.Resume(); }

  /// Ends the workers after their current round and joins them (a parked
  /// worker wakes to exit). Idempotent.
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    gate_.Resume();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  /// SGD updates applied so far.
  int64_t updates() const { return updates_.load(std::memory_order_relaxed); }

  /// Sets the absolute update cap (default: none): at or past it, tokens
  /// keep circulating but no worker applies an update. Workers check it per
  /// token, so overshoot stays bounded by p × (ratings of one column)
  /// however rarely the driver runs.
  void SetCap(int64_t cap) { cap_.store(cap, std::memory_order_relaxed); }

  /// Hands token j to worker q's queue.
  void Push(int q, int32_t j) { queues_[static_cast<size_t>(q)]->Push(j); }

  /// Moves every queued token into `out`, queue by queue.
  void Drain(std::vector<int32_t>* out) {
    for (auto& queue : queues_) {
      while (auto token = queue->TryPop()) out->push_back(*token);
    }
  }

  /// Replaces the global workers whose shard entries each local worker
  /// processes (`globals[q]` for worker q).
  void AssignGlobals(std::vector<std::vector<int>> globals) {
    globals_ = std::move(globals);
  }

  /// Worker → the CPUs it is pinned to; empty when placement is off.
  const std::vector<std::vector<int>>& worker_cpus() const {
    return worker_cpus_;
  }

  /// The local router (NUMA-aware only under NumaPolicy::kAuto).
  const TokenRouter& router() const { return router_; }

  /// The workers' batch adaptation, complete once Stop() has returned.
  std::vector<WorkerBatchStats> TakeBatchStats() {
    return std::move(batch_stats_);
  }

 private:
  /// NUMA placement, on a multi-node topology with the policy on: workers
  /// pinned to their node's CPUs and the circulated H pages interleaved.
  /// kAuto binds each worker's w-row partition to its node and biases
  /// routing toward the sender's node; kInterleave interleaves W too and
  /// keeps routing topology-blind (its point is bandwidth, not locality).
  void Place(const NumaTopology& topology) {
    const NumaPolicy policy = run_.options.numa_policy;
    if (policy == NumaPolicy::kOff || !topology.multi_node()) return;
    const std::vector<int> worker_node = topology.AssignWorkers(p_);
    worker_cpus_.resize(static_cast<size_t>(p_));
    for (int q = 0; q < p_; ++q) {
      worker_cpus_[static_cast<size_t>(q)] =
          topology.node(worker_node[static_cast<size_t>(q)]).cpus;
    }
    std::vector<int> node_ids;  // kernel ids, for the mbind node masks
    for (const NumaNode& n : topology.nodes()) node_ids.push_back(n.id);
    const auto bytes = [](const FactorMatrixT<Real>& m, int64_t rows) {
      return static_cast<size_t>(rows) * static_cast<size_t>(m.stride()) *
             sizeof(Real);
    };
    InterleaveMemory(run_.h.Row(0), bytes(run_.h, run_.h.rows()), node_ids);
    if (policy == NumaPolicy::kInterleave) {
      InterleaveMemory(run_.w.Row(0), bytes(run_.w, run_.w.rows()), node_ids);
      return;
    }
    for (int q = 0; q < p_; ++q) {
      const int32_t begin = run_.partition.Begin(run_.rank * p_ + q);
      const int32_t end = run_.partition.End(run_.rank * p_ + q);
      if (end <= begin) continue;
      BindMemoryToNode(run_.w.Row(begin), bytes(run_.w, end - begin),
                       topology.node(worker_node[static_cast<size_t>(q)]).id);
    }
    router_.MakeNumaAware(worker_node);
  }

  // `hop` is copied onto the worker's own stack: the per-hop state it
  // writes must not share a cache line with another worker's.
  template <typename Hop>
  void Work(int q, Hop hop) {
    if (!worker_cpus_.empty()) {
      PinCurrentThreadToCpus(worker_cpus_[static_cast<size_t>(q)]);
    }
    // Seeded by global worker id: no two workers of a job share a stream.
    Rng rng(run_.options.seed +
            7919ULL * static_cast<uint64_t>(run_.rank * p_ + q + 1));
    BatchController controller(controller_config_);
    const auto batch = [&] {
      return auto_batch_ ? controller.batch() : fixed_batch_;
    };
    // The single accumulation path behind both the live scrape and this
    // run's WorkerBatchStats (Finish() views the same registry cells).
    obs::WorkerObs wobs =
        obs::WorkerObs::Create(run_.registry, run_.metrics_rank, q, batch());
    MpmcQueue<int32_t>& queue = *queues_[static_cast<size_t>(q)];
    std::vector<int32_t> tokens(static_cast<size_t>(max_batch_));
    std::vector<int> dests(static_cast<size_t>(max_batch_));
    // Per-destination hand-off buffers: tokens bound for the same queue
    // leave in one PushBatch (one lock acquisition per destination).
    std::vector<std::vector<int32_t>> outbound(static_cast<size_t>(p_));
    for (auto& buf : outbound) buf.reserve(static_cast<size_t>(max_batch_));
    // Queue sizes are advisory (Sec. 3.3): the probe takes no lock.
    const TokenRouter::SizeProbe probe = [this](int d) {
      return queues_[static_cast<size_t>(d)]->SizeEstimate();
    };
    int idle_streak = 0;
    // Hot-path latency histograms: two clock reads per round, none at all
    // under NOMAD_METRICS=off. wait_start spans from the end of the
    // previous round to the next non-empty pop.
    using LatencyClock = std::chrono::steady_clock;
    const bool timed = wobs.enabled();
    LatencyClock::time_point wait_start =
        timed ? LatencyClock::now() : LatencyClock::time_point();
    while (!stop_.load(std::memory_order_relaxed)) {
      gate_.CheckIn();
      // Re-check after a pause: the driver may have taken the final trace
      // point, and no update may follow it.
      if (stop_.load(std::memory_order_relaxed)) break;
      const int want = batch();
      const size_t got =
          queue.TryPopBatch(tokens.data(), static_cast<size_t>(want));
      if (got == 0) {
        // Empty queue: yield a few times first (a token usually arrives
        // within a scheduling quantum), then back off exponentially so an
        // idle worker stops hammering its queue's mutex and the memory bus.
        if (idle_streak < 4) {
          std::this_thread::yield();
        } else {
          // One scheduling gap is one starvation signal, given at the
          // yield→sleep escalation.
          if (idle_streak == 4) {
            if (auto_batch_) controller.NoteIdleBackoff();
            wobs.NoteBackoff(batch());
          }
          const int shift = std::min(idle_streak - 4, 7);  // 1..128 µs
          std::this_thread::sleep_for(std::chrono::microseconds(1 << shift));
        }
        ++idle_streak;
        continue;
      }
      idle_streak = 0;
      LatencyClock::time_point work_start;
      if (timed) {
        work_start = LatencyClock::now();
        wobs.ObserveQueueWaitSeconds(
            std::chrono::duration<double>(work_start - wait_start).count());
      }
      const size_t depth = auto_batch_ || timed ? queue.SizeEstimate() : 0;
      if (auto_batch_) controller.Observe(static_cast<size_t>(want), got, depth);
      // Sampling the batch after every controller interaction keeps the
      // registry view bit-identical to controller.Stats().
      wobs.ObserveRound(static_cast<size_t>(want), got, depth, batch());
      size_t kept = 0;  // tokens staying on this rank, compacted in front
      for (size_t b = 0; b < got; ++b) {
        const int32_t j = tokens[b];
        owner_.AcquireOrDie(j, q);  // a failure is a broken invariant
        // Past the cap the token hops on unprocessed: circulation must not
        // stall, and the driver is on its way to pause everyone.
        if (updates_.load(std::memory_order_relaxed) <
            cap_.load(std::memory_order_relaxed)) {
          Real* hj = run_.h.Row(j);
          int32_t applied = 0;
          for (int g : globals_[static_cast<size_t>(q)]) {
            int32_t n = 0;
            const ColumnShards::Entry* entries =
                run_.shards.ColEntries(g, j, &n);
            run_.kernel.ApplyColumn(entries, n, &run_.counts, &run_.w, hj);
            applied += n;
          }
          if (applied > 0) {
            updates_.fetch_add(applied, std::memory_order_relaxed);
            wobs.NoteUpdates(applied);
          }
        }
        const bool leaving = hop.Take(j, &rng);
        owner_.Release(j);
        if (!leaving || !hop.Send()) tokens[kept++] = j;
      }
      if (kept > 0) {
        router_.PickBatch(q, &rng, probe, static_cast<int>(kept),
                          dests.data());
        for (size_t b = 0; b < kept; ++b) {
          outbound[static_cast<size_t>(dests[b])].push_back(tokens[b]);
        }
        for (int d = 0; d < p_; ++d) {
          auto& buf = outbound[static_cast<size_t>(d)];
          if (buf.empty()) continue;
          queues_[static_cast<size_t>(d)]->PushBatch(buf.data(), buf.size());
          buf.clear();
        }
        wobs.NotePushed(static_cast<int64_t>(kept));
      }
      if (timed) {
        const LatencyClock::time_point round_end = LatencyClock::now();
        wobs.ObserveServiceSeconds(
            std::chrono::duration<double>(round_end - work_start).count() /
            static_cast<double>(got));
        wait_start = round_end;
      }
    }
    batch_stats_[static_cast<size_t>(q)] =
        wobs.Finish(auto_batch_ ? &controller : nullptr, fixed_batch_);
  }

  const Run run_;
  const int p_;
  bool auto_batch_ = false;
  int fixed_batch_ = 1;
  int max_batch_ = 1;
  BatchControllerConfig controller_config_;
  std::vector<std::unique_ptr<MpmcQueue<int32_t>>> queues_;
  TokenRouter router_;
  std::vector<std::vector<int>> worker_cpus_;  ///< Empty: unpinned.
  PauseGate gate_;
  /// Asserts the single-ownership invariant behind NOMAD's lock-freedom
  /// and serializability: no two workers ever hold one token at once.
  RowOwnership owner_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> cap_{std::numeric_limits<int64_t>::max()};
  /// globals_[q]: the global workers whose shard entries worker q
  /// processes. Changed only while the workers are parked.
  std::vector<std::vector<int>> globals_;
  std::vector<WorkerBatchStats> batch_stats_;  ///< Slot q written by worker q.
  /// Bumped by every worker per token, so alone on its cache line: the
  /// members read per token above stay cached in every worker.
  alignas(kCacheLineBytes) std::atomic<int64_t> updates_{0};
  alignas(kCacheLineBytes) std::vector<std::thread> threads_;
};

}  // namespace nomad

#endif  // NOMAD_NOMAD_TOKEN_WORKER_H_
