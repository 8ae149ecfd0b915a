#include "net/dist_nomad.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/shard.h"
#include "eval/metrics.h"
#include "net/codec.h"
#include "net/loopback_transport.h"
#include "net/wire_format.h"
#include "nomad/token_worker.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sched/schedule.h"
#include "solver/sgd_kernel.h"
#include "util/logging.h"
#include "util/numa_topology.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace nomad {
namespace net {

namespace {

/// Version headroom added when a lost token is re-granted: the dead rank
/// may have advanced the token's hop counter past what any survivor saw,
/// and the re-granted version must dominate every counter that could still
/// be in flight. Tokens hop a handful of times per epoch, so a million is
/// unreachable headroom for any real run (and the wire-level regrant flag
/// makes receivers accept the reset unconditionally anyway).
constexpr uint32_t kRegrantVersionBump = 1u << 20;

/// One rank's training run for one storage precision. The workers are the
/// NomadSolver's TokenWorkers with a RemoteHop; what is new is the driver,
/// which pumps the transport and coordinates the cross-rank barrier
/// protocol of docs/ARCHITECTURE.md ("Distributed layer").
template <typename Real>
class RankRun {
 public:
  RankRun(const Dataset& ds, const DistNomadOptions& options,
          Transport* transport, const UpdateKernelT<Real>& kernel,
          CodecTransport* codec = nullptr)
      : ds_(ds),
        o_(options),
        opt_(options.train),
        transport_(transport),
        codec_(codec),
        world_(transport->world()),
        rank_(transport->rank()),
        p_(options.train.num_workers),
        k_(options.train.rank),
        kernel_(kernel),
        counts_(ds.train.nnz()),
        driver_rng_(options.train.seed ^ 0xD157D157ULL),
        version_(static_cast<size_t>(ds.cols)) {}

  Result<TrainResult> Run() {
    Setup();
    wall_.Restart();
    workers_->Start(RemoteHop(this));
    const Status driver = DriveToCompletion();
    workers_->Stop();
    NOMAD_RETURN_IF_ERROR(driver);

    TrainResult result;
    result.solver_name = "dist_nomad";
    result.precision = opt_.precision;
    if (timeline_ != nullptr) {
      timeline_->StopSampler();
      result.timeline = timeline_->Points();
    }
    result.trace = std::move(trace_);
    result.total_updates = global_updates_;
    result.total_seconds = global_seconds_;
    result.worker_batch = workers_->TakeBatchStats();
    result.rank_traffic = std::move(rank_traffic_);
    for (int r = 0; r < world_; ++r) {
      if (!IsLive(r)) result.dead_ranks.push_back(r);
    }
    StoreTrainedFactors(std::move(w_), std::move(h_), &result);
    return result;
  }

 private:
  // ---- setup ----

  void Setup() {
    InitFactorsT<Real>(ds_, opt_, &w_, &h_);
    const int global_workers = world_ * p_;
    partition_ = opt_.partition_by_ratings
                     ? UserPartition::ByRatings(ds_.train, global_workers)
                     : UserPartition::ByRows(ds_.rows, global_workers);
    shards_ = ColumnShards::Build(ds_.train, partition_);

    // Global-worker ownership starts at the static partition and grows when
    // this rank adopts a dead rank's workers during recovery; evaluation
    // and the final gather walk every owned global's user range.
    dead_.assign(static_cast<size_t>(world_), 0);
    seen_hrow_ids_.assign(static_cast<size_t>(world_), {});
    my_globals_.clear();
    for (int q = 0; q < p_; ++q) my_globals_.push_back(rank_ * p_ + q);

    remote_prob_ = o_.remote_token_fraction;
    if (remote_prob_ < 0) {
      remote_prob_ = static_cast<double>(world_ - 1) /
                     static_cast<double>(world_);
    }
    if (world_ == 1) remote_prob_ = 0.0;

    local_epoch_updates_ = 0;
    for (int q = 0; q < p_; ++q) {
      local_epoch_updates_ += shards_.WorkerNnz(rank_ * p_ + q);
    }
    local_epoch_updates_ = std::max<int64_t>(local_epoch_updates_, 1);
    next_threshold_ = local_epoch_updates_;

    // Sized up front: a fast peer's h-row broadcast can land while this
    // rank is still in the conservation phase of the same barrier, so Pump
    // must be able to count it at any time.
    hrow_received_.assign(static_cast<size_t>(world_), 0);
    wrow_received_.assign(static_cast<size_t>(world_), 0);

    // Observability handles. Every series carries rank="r" so a loopback
    // world sharing one process-wide registry keeps the ranks apart.
    obs::MetricsRegistry* resolved = obs::ResolveRegistry(opt_.metrics);
    registry_ = resolved->enabled() ? resolved : &fallback_registry_;
    const obs::Labels rl = {{"rank", std::to_string(rank_)}};
    tokens_sent_ = registry_->GetCounter("nomad_dist_tokens_sent_total", rl);
    tokens_received_ =
        registry_->GetCounter("nomad_dist_tokens_received_total", rl);
    tokens_sent0_ = tokens_sent_.Value();
    tokens_received0_ = tokens_received_.Value();
    send_retries_ =
        registry_->GetCounter("nomad_dist_send_retries_total", rl);
    heartbeat_misses_ =
        registry_->GetCounter("nomad_dist_heartbeat_misses_total", rl);
    regrants_ = registry_->GetCounter("nomad_dist_regrants_total", rl);
    stale_tokens_ =
        registry_->GetCounter("nomad_dist_stale_tokens_total", rl);
    dead_frames_ = registry_->GetCounter("nomad_dist_dead_frames_total", rl);
    tx_frames_.resize(static_cast<size_t>(world_));
    tx_bytes_.resize(static_cast<size_t>(world_));
    rx_frames_.resize(static_cast<size_t>(world_));
    rx_bytes_.resize(static_cast<size_t>(world_));
    peer_alive_.resize(static_cast<size_t>(world_));
    for (int r = 0; r < world_; ++r) {
      if (r == rank_) continue;  // self slots stay null handles
      obs::Labels pl = rl;
      pl.emplace_back("peer", std::to_string(r));
      tx_frames_[static_cast<size_t>(r)] =
          registry_->GetCounter("nomad_dist_tx_frames_total", pl);
      tx_bytes_[static_cast<size_t>(r)] =
          registry_->GetCounter("nomad_dist_tx_bytes_total", pl);
      rx_frames_[static_cast<size_t>(r)] =
          registry_->GetCounter("nomad_dist_rx_frames_total", pl);
      rx_bytes_[static_cast<size_t>(r)] =
          registry_->GetCounter("nomad_dist_rx_bytes_total", pl);
      peer_alive_[static_cast<size_t>(r)] =
          registry_->GetGauge("nomad_dist_peer_alive", pl);
      peer_alive_[static_cast<size_t>(r)].Set(1);
    }
    recovery_generation_ =
        registry_->GetGauge("nomad_dist_recovery_generation", rl);
    barrier_epoch_ = registry_->GetGauge("nomad_dist_barrier_epoch", rl);
    updates_per_second_ =
        registry_->GetGauge("nomad_dist_updates_per_second", rl);
    transport_bytes_sent_ =
        registry_->GetGauge("nomad_dist_transport_bytes_sent", rl);
    transport_bytes_received_ =
        registry_->GetGauge("nomad_dist_transport_bytes_received", rl);
    transport_msgs_sent_ =
        registry_->GetGauge("nomad_dist_transport_messages_sent", rl);
    transport_msgs_received_ =
        registry_->GetGauge("nomad_dist_transport_messages_received", rl);
    pump_latency_ = registry_->GetHistogram(
        "nomad_dist_pump_round_latency_seconds", obs::kLatencyBounds, rl);
    own_timeline_.Bind(registry_);
    timeline_ = (rank_ == 0 && opt_.timeline != nullptr) ? opt_.timeline
                                                         : &own_timeline_;
    if (opt_.metrics_sample_ms > 0) {
      timeline_->StartSampler(opt_.metrics_sample_ms);
    }

    // This rank's workers, and its tokens of the global scatter.
    workers_ = std::make_unique<TokenWorkers<Real>>(
        typename TokenWorkers<Real>::Run{opt_, world_, rank_, partition_,
                                         shards_, kernel_, w_, h_, counts_,
                                         registry_, rank_},
        opt_.numa_policy == NumaPolicy::kOff ? NumaTopology::SingleNode()
                                             : NumaTopology::Detect());
    // Budget lease: with a hard max_updates budget B, each rank starts with
    // an equal share as its local cap; rank 0 re-leases the remainder at
    // every barrier (kResume.held), so the job stops within a token batch
    // of B instead of overshooting by up to an epoch.
    if (opt_.max_updates > 0) {
      const int64_t base = opt_.max_updates / world_;
      const int64_t extra = rank_ < opt_.max_updates % world_ ? 1 : 0;
      workers_->SetCap(base + extra);
    }
  }

  // ---- the remote hand-off ----

  /// The workers' hop policy (nomad/token_worker.h), the remote half of the
  /// hybrid layout (Sec. 3.4). Each worker has its own copy and `frame`.
  struct RemoteHop {
    explicit RemoteHop(RankRun* r) : run(r) {}

    RankRun* run;
    std::vector<uint8_t> frame;
    int dest = -1;

    /// Flips the remote coin for token j and draws a live peer. The token
    /// is serialized while the worker still owns it: the frame is the
    /// hand-off, and nobody may touch the row mid-encode.
    bool Take(int32_t j, Rng* rng) {
      RankRun& r = *run;
      if (r.world_ == 1 || rng->NextDouble() >= r.remote_prob_) return false;
      dest = r.DrawPeer(rng);
      // Route around latched-dead ranks. The mask is advisory (a stale read
      // only costs a failed send), and redrawing keeps the pick uniform over
      // the survivors.
      if (r.world_ <= 64) {
        const uint64_t mask = r.dead_mask_.load(std::memory_order_relaxed);
        for (int tries = 0; tries < 4 && ((mask >> dest) & 1); ++tries) {
          dest = r.DrawPeer(rng);
        }
        if ((mask >> dest) & 1) return false;  // no live remote drawn
      }
      const uint32_t v = r.version_[static_cast<size_t>(j)].fetch_add(
                             1u, std::memory_order_relaxed) +
                         1u;
      EncodeFactorRow<Real>(MsgType::kToken, j, v, r.h_.Row(j), r.k_, &frame);
      return true;
    }

    /// Sends the frame. A peer unreachable through the retries leaves the
    /// token local (a lost frame would wedge the next barrier's census);
    /// the peer itself is the recovery layer's problem.
    bool Send() {
      if (!run->SendWithRetry(dest, frame).ok()) return false;
      run->tokens_sent_.Inc();
      return true;
    }
  };

  /// A uniformly random rank other than this one.
  int DrawPeer(Rng* rng) const {
    const int d =
        static_cast<int>(rng->NextBelow(static_cast<uint64_t>(world_ - 1)));
    return d >= rank_ ? d + 1 : d;
  }

  // ---- transport pump ----

  /// Drains every pending frame: tokens land in the local queues (or the
  /// barrier-held list), h/w rows are applied, control frames queue up for
  /// the protocol code. Returns an error on an undecodable frame. Each
  /// round is timed into the pump latency histogram — Pump runs on the
  /// driver/protocol path (every wait loop), never inside a worker's
  /// token loop, so the two clock reads cost nothing the paper's hot path
  /// would notice.
  Status Pump() {
    const auto t0 = std::chrono::steady_clock::now();
    const Status s = PumpFrames();
    pump_latency_.Observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    return s;
  }

  Status PumpFrames() {
    if (codec_ != nullptr) {
      // Push out (and keep retrying) any coalesced token batches: every
      // wait loop of the protocol pumps, so buffered tokens never stall a
      // barrier's conservation census. A flush that keeps failing is a
      // peer-liveness problem — the death watch owns those, so the status
      // is advisory here.
      (void)codec_->FlushAll();
    }
    std::vector<uint8_t>& frame = rx_frame_;
    int src = -1;
    while (transport_->TryReceive(&frame, &src)) {
      if (src >= 0 && src < world_) {
        rx_frames_[static_cast<size_t>(src)].Inc();
        rx_bytes_[static_cast<size_t>(src)].Inc(
            static_cast<int64_t>(frame.size()));
      }
      if (src >= 0 && src < world_ && dead_[static_cast<size_t>(src)]) {
        // Leftovers of a latched-dead rank (loopback inboxes outlive the
        // death; TCP can hand over buffered frames). They must not
        // resurrect tokens the recovery already re-granted.
        dead_frames_.Inc();
        continue;
      }
      auto type = PeekType(frame.data(), frame.size());
      if (!type.ok()) return type.status();
      switch (type.value()) {
        case MsgType::kToken:
        case MsgType::kHRow: {
          auto view = DecodeFactorRow<Real>(frame.data(), frame.size());
          if (!view.ok()) return view.status();
          const FactorRowView<Real>& row = view.value();
          if (row.k != k_ || row.id >= ds_.cols) {
            return Status::InvalidArgument(
                "factor row shape mismatch from rank " + std::to_string(src));
          }
          const size_t j = static_cast<size_t>(row.id);
          if (type.value() == MsgType::kToken) {
            const bool regrant = (row.flags & kFactorRowFlagRegrant) != 0;
            if (regrant) {
              // Authoritative re-materialization of a token lost with a
              // dead rank: accept unconditionally, version reset included.
              regrants_.Inc();
            } else if (row.version <=
                       version_[j].load(std::memory_order_relaxed)) {
              // Exclusive ownership makes the hop counter strictly
              // monotone, so a version that does not advance is a replayed
              // or duplicated frame (an injected fault, or a retried send
              // whose first copy did arrive). The live token is elsewhere;
              // discard this copy.
              stale_tokens_.Inc();
              break;
            }
            version_[j].store(row.version, std::memory_order_relaxed);
            std::copy(row.values, row.values + k_, h_.Row(row.id));
            tokens_received_.Inc();
            if (in_barrier_) {
              held_.push_back(row.id);
            } else {
              workers_->Push(static_cast<int>(driver_rng_.NextBelow(
                                 static_cast<uint64_t>(p_))),
                             row.id);
            }
          } else {
            // State broadcast, not a hand-off: the holder's copy is
            // canonical, and its version can equal ours (the token may not
            // have moved since the last barrier). A *stale* broadcast — a
            // replay from a barrier a death aborted — is skipped but still
            // counted, since the sender's kHRowDone count includes it.
            if (row.version >= version_[j].load(std::memory_order_relaxed)) {
              version_[j].store(row.version, std::memory_order_relaxed);
              std::copy(row.values, row.values + k_, h_.Row(row.id));
            }
            ++hrow_received_[static_cast<size_t>(src)];
            if (record_hrow_ids_) {
              seen_hrow_ids_[static_cast<size_t>(src)].push_back(row.id);
            }
          }
          break;
        }
        case MsgType::kWRow: {
          auto view = DecodeFactorRow<Real>(frame.data(), frame.size());
          if (!view.ok()) return view.status();
          const FactorRowView<Real>& row = view.value();
          if (row.k != k_ || row.id >= ds_.rows || rank_ != 0) {
            return Status::InvalidArgument(
                "unexpected w-row from rank " + std::to_string(src));
          }
          std::copy(row.values, row.values + k_, w_.Row(row.id));
          ++wrow_received_[static_cast<size_t>(src)];
          break;
        }
        case MsgType::kControl: {
          auto ctrl = DecodeControl(frame.data(), frame.size());
          if (!ctrl.ok()) return ctrl.status();
          // The wire codec cannot know the world size, so the rank field is
          // bounds-checked here — every barrier phase indexes world-sized
          // tables with it, and a desynced or hostile peer must produce a
          // clean error, not an out-of-bounds write.
          if (ctrl.value().rank < 0 || ctrl.value().rank >= world_) {
            return Status::InvalidArgument(
                "control frame claims rank " +
                std::to_string(ctrl.value().rank) + " outside world " +
                std::to_string(world_));
          }
          if (ctrl.value().kind == ControlKind::kLeaseSync) {
            // Recovery flush marker: per-channel FIFO makes it the exact
            // boundary between the sender's pre-death traffic and its
            // census re-broadcast, so the sender's h-row bookkeeping resets
            // *here* — not in a later phase, which would also wipe census
            // frames that arrived in the same drain as the marker.
            hrow_received_[static_cast<size_t>(src)] = 0;
            if (record_hrow_ids_) {
              seen_hrow_ids_[static_cast<size_t>(src)].clear();
            }
            for (auto it = ctrl_q_.begin(); it != ctrl_q_.end();) {
              if (it->kind == ControlKind::kHRowDone && it->rank == src) {
                it = ctrl_q_.erase(it);  // predates the marker: stale
              } else {
                ++it;
              }
            }
          }
          ctrl_q_.push_back(ctrl.value());
          break;
        }
        case MsgType::kBatch:
          // Bundles are unwrapped inside a negotiated CodecTransport; one
          // surfacing raw means the sender runs a batch codec and this
          // rank does not. The TCP hello prevents that; loopback trusts
          // the launch, so report the misconfiguration cleanly.
          return Status::InvalidArgument(
              "batch frame from rank " + std::to_string(src) +
              " without a negotiated wire codec");
        case MsgType::kHello:
          return Status::InvalidArgument("unexpected hello mid-run");
      }
    }
    return Status::OK();
  }

  /// Pops the first queued control frame of `kind`; other kinds stay put
  /// (e.g. an early next-epoch BarrierRequest waits for the outer loop).
  bool TakeCtrl(ControlKind kind, ControlFrame* out) {
    for (auto it = ctrl_q_.begin(); it != ctrl_q_.end(); ++it) {
      if (it->kind == kind) {
        *out = *it;
        ctrl_q_.erase(it);
        return true;
      }
    }
    return false;
  }

  // ---- liveness bookkeeping + fault-aware sends ----

  bool IsLive(int r) const { return dead_[static_cast<size_t>(r)] == 0; }

  int LiveCount() const {
    int live = 0;
    for (int r = 0; r < world_; ++r) live += IsLive(r) ? 1 : 0;
    return live;
  }

  std::vector<int> LiveRanks() const {
    std::vector<int> live;
    for (int r = 0; r < world_; ++r) {
      if (IsLive(r)) live.push_back(r);
    }
    return live;
  }

  void LatchDead(int r) {
    if (r < 0 || r >= world_ || r == rank_ || !IsLive(r)) return;
    dead_[static_cast<size_t>(r)] = 1;
    peer_alive_[static_cast<size_t>(r)].Set(0);
    if (world_ <= 64) {
      dead_mask_.fetch_or(1ull << r, std::memory_order_relaxed);
    }
    NOMAD_LOG(kWarning) << "dist_nomad rank " << rank_ << ": rank " << r
                        << " latched dead";
  }

  /// Reads the transport's liveness verdict for `r`, counting each dead
  /// verdict as a heartbeat miss — the scrapeable trail of the failure
  /// detector's decisions. Call sites either sit behind IsLive (so a
  /// latched death counts once, not once per poll) or abort the rank on
  /// the spot (the rank-0-is-dead checks).
  bool PeerDead(int r) {
    if (transport_->peer_status(r) != PeerStatus::kDead) return false;
    heartbeat_misses_.Inc();
    return true;
  }

  /// Sends with bounded retry + exponential backoff on transient
  /// (Unavailable) failures; any other error — and exhausted retries —
  /// surfaces to the caller.
  Status SendWithRetry(int dest, const std::vector<uint8_t>& buf) {
    const int limit = std::max(0, o_.send_retry_limit);
    Status s;
    for (int attempt = 0;; ++attempt) {
      s = transport_->Send(dest, buf);  // copy: retries reuse the bytes
      if (s.ok()) {
        tx_frames_[static_cast<size_t>(dest)].Inc();
        tx_bytes_[static_cast<size_t>(dest)].Inc(
            static_cast<int64_t>(buf.size()));
      }
      if (s.ok() || attempt >= limit ||
          s.code() != StatusCode::kUnavailable) {
        return s;
      }
      send_retries_.Inc();
      std::this_thread::sleep_for(
          std::chrono::microseconds(100u << (attempt < 6 ? attempt : 6)));
    }
  }

  Status SendCtrl(int dest, const ControlFrame& frame) {
    std::vector<uint8_t> buf;
    EncodeControl(frame, &buf);
    return SendWithRetry(dest, buf);
  }

  /// Broadcast to the live ranks only. A peer that stays Unavailable
  /// through all retries is presumed dying: rank 0 latches it dead on the
  /// spot (the heartbeat verdict confirms shortly) and reports Unavailable
  /// so the caller escalates to recovery; other ranks skip it and leave
  /// the declaration to rank 0 — unless the unreachable peer is rank 0
  /// itself, which is unrecoverable.
  Status BroadcastLive(const std::vector<uint8_t>& buf) {
    Status escalate = Status::OK();
    for (int r = 0; r < world_; ++r) {
      if (r == rank_ || !IsLive(r)) continue;
      Status s = SendWithRetry(r, buf);
      if (s.ok()) continue;
      if (s.code() != StatusCode::kUnavailable) return s;
      if (rank_ == 0) {
        LatchDead(r);
        death_pending_ = true;
        escalate = s;
      } else if (r == 0) {
        return Status::IOError(
            "rank " + std::to_string(rank_) +
            ": rank 0 is unreachable — unrecoverable, aborting");
      }
    }
    return escalate;
  }

  Status BroadcastCtrl(const ControlFrame& frame) {
    std::vector<uint8_t> buf;
    EncodeControl(frame, &buf);
    return BroadcastLive(buf);
  }

  /// The driver's death watch, polled in every wait loop. Rank 0 reads the
  /// transport's liveness verdicts and is the only authority that declares
  /// a death; everyone else learns through its kDeathNotice frames. While
  /// a death is pending recovery this keeps returning Unavailable, which
  /// unwinds whatever protocol phase is running back to DriveToCompletion.
  Status CheckDeaths() {
    if (world_ == 1) return Status::OK();
    if (rank_ == 0) {
      for (int r = 1; r < world_; ++r) {
        if (IsLive(r) && PeerDead(r)) {
          LatchDead(r);
          death_pending_ = true;
        }
      }
    } else {
      if (PeerDead(0)) {
        return Status::IOError(
            "rank " + std::to_string(rank_) +
            ": rank 0 is unreachable — unrecoverable, aborting");
      }
      ControlFrame notice;
      while (TakeCtrl(ControlKind::kDeathNotice, &notice)) {
        LatchDead(static_cast<int>(notice.count));
        notice_gen_ = std::max(notice_gen_, static_cast<int>(notice.epoch));
        notice_epoch_ = std::max<int64_t>(notice_epoch_, notice.held);
        death_pending_ = true;
      }
    }
    if (death_pending_) {
      return Status::Unavailable("rank death pending recovery");
    }
    return Status::OK();
  }

  /// Recovery-phase variant of the death watch: a death that generation
  /// `gen` does not cover restarts the recovery with the larger dead set,
  /// again via Unavailable.
  Status CheckRecoveryInterrupt(int gen) {
    if (rank_ == 0) {
      bool fresh = false;
      for (int r = 1; r < world_; ++r) {
        if (IsLive(r) && PeerDead(r)) {
          LatchDead(r);
          fresh = true;
        }
      }
      return fresh ? Status::Unavailable("death during recovery")
                   : Status::OK();
    }
    if (PeerDead(0)) {
      return Status::IOError(
          "rank " + std::to_string(rank_) +
          ": rank 0 is unreachable — unrecoverable, aborting");
    }
    bool newer = false;
    ControlFrame notice;
    while (TakeCtrl(ControlKind::kDeathNotice, &notice)) {
      LatchDead(static_cast<int>(notice.count));
      notice_epoch_ = std::max<int64_t>(notice_epoch_, notice.held);
      if (notice.epoch > notice_gen_) notice_gen_ = notice.epoch;
      if (notice.epoch > gen) newer = true;
    }
    return newer ? Status::Unavailable("newer recovery generation")
                 : Status::OK();
  }

  /// Drops every queued control frame of a protocol phase a death aborted;
  /// only recovery-plane kinds survive. Runs after the flush barrier, when
  /// everything the purged frames were part of has provably arrived.
  void PurgeStaleCtrl() {
    std::deque<ControlFrame> keep;
    for (const ControlFrame& f : ctrl_q_) {
      // kHRowDone survives too: a survivor that raced through the flush
      // barrier may already have finished its census re-broadcast, and its
      // done-frame must not be lost (pre-marker ones were erased when the
      // marker was pumped).
      if (f.kind == ControlKind::kDeathNotice ||
          f.kind == ControlKind::kLeaseSync ||
          f.kind == ControlKind::kTokenRegrant ||
          f.kind == ControlKind::kHRowDone) {
        keep.push_back(f);
      }
    }
    ctrl_q_.swap(keep);
  }

  /// The contiguous user-row ranges this rank owns: its static partition
  /// slice plus everything adopted from dead ranks. Evaluation and the
  /// final gather walk these.
  std::vector<std::pair<int32_t, int32_t>> OwnedRowRanges() const {
    std::vector<std::pair<int32_t, int32_t>> ranges;
    for (int g : my_globals_) {
      const int32_t b = partition_.Begin(g);
      const int32_t e = partition_.End(g);
      if (e <= b) continue;
      if (!ranges.empty() && ranges.back().second == b) {
        ranges.back().second = e;
      } else {
        ranges.emplace_back(b, e);
      }
    }
    return ranges;
  }

  static void Nap() {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  // ---- the driver ----

  Status DriveToCompletion() {
    bool finished = false;
    while (!finished) {
      const Status step = DriveStep(&finished);
      if (!step.ok()) {
        // A detected death unwinds whatever phase was running as
        // Unavailable; recovery re-establishes the invariants and the loop
        // goes on degraded. Every other error is fatal for this rank.
        if (death_pending_ && step.code() == StatusCode::kUnavailable &&
            world_ > 1) {
          NOMAD_RETURN_IF_ERROR(RunRecovery());
          continue;
        }
        return step;
      }
      if (!finished) Nap();
    }
    return Status::OK();
  }

  Status DriveStep(bool* finished) {
    NOMAD_RETURN_IF_ERROR(Pump());
    NOMAD_RETURN_IF_ERROR(CheckDeaths());
    const int64_t done = workers_->updates();
    const bool out_of_time =
        opt_.max_seconds > 0 &&
        train_seconds_ + wall_.ElapsedSeconds() >= opt_.max_seconds;
    const bool out_of_budget =
        opt_.max_updates > 0 &&
        done >= workers_->cap();
    if (rank_ == 0) {
      bool requested = done >= next_threshold_ || out_of_time ||
                       out_of_budget || barrier_after_recovery_;
      ControlFrame req;
      while (TakeCtrl(ControlKind::kBarrierRequest, &req)) {
        if (req.epoch >= epoch_) requested = true;  // stale ones drop
      }
      if (requested) {
        barrier_after_recovery_ = false;
        ControlFrame enter;
        enter.kind = ControlKind::kBarrierEnter;
        enter.rank = 0;
        enter.epoch = epoch_;
        NOMAD_RETURN_IF_ERROR(BroadcastCtrl(enter));
        NOMAD_RETURN_IF_ERROR(RunBarrier(finished));
      }
    } else {
      if ((done >= next_threshold_ || out_of_time || out_of_budget) &&
          !request_sent_) {
        ControlFrame req;
        req.kind = ControlKind::kBarrierRequest;
        req.rank = rank_;
        req.epoch = epoch_;
        NOMAD_RETURN_IF_ERROR(SendCtrl(0, req));
        request_sent_ = true;
      }
      ControlFrame enter;
      if (TakeCtrl(ControlKind::kBarrierEnter, &enter)) {
        // Rank 0's epoch is authoritative: a recovery can leave survivors
        // an epoch apart (some saw the aborted barrier's kResume, some had
        // it purged), so adopt rather than assert.
        epoch_ = enter.epoch;
        NOMAD_RETURN_IF_ERROR(RunBarrier(finished));
      }
    }
    return Status::OK();
  }

  /// One coordinated trace barrier; sets *finished when training is over
  /// (and the final gather has completed). See docs/ARCHITECTURE.md for
  /// the message flow.
  Status RunBarrier(bool* finished) {
    Quiesce();
    barrier_epoch_.Set(epoch_);

    // Phase 1 — conservation: rank 0 waits until every circulating token
    // is parked somewhere (sum of held counts == n ⇔ nothing in flight).
    NOMAD_RETURN_IF_ERROR(AwaitConservation());

    // Phase 2 — h-row exchange: every rank broadcasts the rows it holds,
    // so every rank evaluates against the full current H.
    NOMAD_RETURN_IF_ERROR(ExchangeHeldRows());

    // Phase 3 — evaluation + trace point. Rank 0 aggregates the partial
    // sums and tells everyone whether to continue.
    bool stop = false;
    NOMAD_RETURN_IF_ERROR(EvaluateAndDecide(&stop));

    if (!stop) {
      Rng rescatter(opt_.seed ^ (0xBEEF0000ULL + static_cast<uint64_t>(
                                                     epoch_)));
      for (int32_t j : held_) {
        workers_->Push(
            static_cast<int>(rescatter.NextBelow(static_cast<uint64_t>(p_))),
            j);
      }
      held_.clear();
      in_barrier_ = false;
      request_sent_ = false;
      ++epoch_;
      next_threshold_ = workers_->updates() + local_epoch_updates_;
      wall_.Restart();
      workers_->Resume();
      *finished = false;
      return Status::OK();
    }

    // Phase 4 — final gather: w-row partitions converge on rank 0, which
    // then releases everyone.
    NOMAD_RETURN_IF_ERROR(GatherFinalModel());
    *finished = true;
    return Status::OK();
  }

  /// Parks the workers and herds every local token into held_; idempotent,
  /// so an aborted barrier and the recovery that follows it compose.
  void Quiesce() {
    if (in_barrier_) return;
    workers_->Pause();
    train_seconds_ += wall_.ElapsedSeconds();
    in_barrier_ = true;
    workers_->Drain(&held_);
  }

  Status AwaitConservation() {
    const int32_t n = ds_.cols;
    if (rank_ == 0) {
      std::vector<int64_t> rank_held(static_cast<size_t>(world_), -1);
      for (;;) {
        NOMAD_RETURN_IF_ERROR(Pump());
        NOMAD_RETURN_IF_ERROR(CheckDeaths());
        ControlFrame sync;
        while (TakeCtrl(ControlKind::kTraceSync, &sync)) {
          rank_held[static_cast<size_t>(sync.rank)] = sync.held;
        }
        rank_held[0] = static_cast<int64_t>(held_.size());
        int64_t sum = 0;
        bool all = true;
        for (int r = 0; r < world_; ++r) {
          if (!IsLive(r)) continue;  // a dead rank's tokens were re-granted
          const int64_t c = rank_held[static_cast<size_t>(r)];
          if (c < 0) {
            all = false;
            break;
          }
          sum += c;
        }
        if (all && sum == n) break;
        NOMAD_CHECK(sum <= n) << "token duplication: " << sum << " held of "
                              << n;
        Nap();
      }
      ControlFrame go;
      go.kind = ControlKind::kEvalStart;
      go.rank = 0;
      go.epoch = epoch_;
      return BroadcastCtrl(go);
    }
    int64_t reported = -1;
    for (;;) {
      NOMAD_RETURN_IF_ERROR(Pump());
      NOMAD_RETURN_IF_ERROR(CheckDeaths());
      if (static_cast<int64_t>(held_.size()) != reported) {
        reported = static_cast<int64_t>(held_.size());
        ControlFrame sync;
        sync.kind = ControlKind::kTraceSync;
        sync.rank = rank_;
        sync.epoch = epoch_;
        sync.held = reported;
        NOMAD_RETURN_IF_ERROR(SendCtrl(0, sync));
      }
      ControlFrame go;
      if (TakeCtrl(ControlKind::kEvalStart, &go)) return Status::OK();
      Nap();
    }
  }

  /// Broadcasts this rank's held h-rows to the live ranks and waits for
  /// everyone else's. `recovery_gen` < 0 is the normal barrier phase;
  /// >= 0 runs it as the recovery's re-own census (generation-aware
  /// interrupt checks, and rank 0 records the ids it sees).
  Status ExchangeHeldRows(int recovery_gen = -1) {
    if (world_ == 1) return Status::OK();
    std::vector<uint8_t> frame;
    for (int32_t j : held_) {
      EncodeFactorRow<Real>(
          MsgType::kHRow, j,
          version_[static_cast<size_t>(j)].load(std::memory_order_relaxed),
          h_.Row(j), k_, &frame);
      NOMAD_RETURN_IF_ERROR(BroadcastLive(frame));
    }
    ControlFrame done;
    done.kind = ControlKind::kHRowDone;
    done.rank = rank_;
    done.epoch = epoch_;
    done.count = static_cast<int64_t>(held_.size());
    NOMAD_RETURN_IF_ERROR(BroadcastCtrl(done));
    std::vector<int64_t> expected(static_cast<size_t>(world_), -1);
    expected[static_cast<size_t>(rank_)] = 0;
    for (;;) {
      NOMAD_RETURN_IF_ERROR(Pump());
      NOMAD_RETURN_IF_ERROR(recovery_gen >= 0
                                ? CheckRecoveryInterrupt(recovery_gen)
                                : CheckDeaths());
      ControlFrame f;
      while (TakeCtrl(ControlKind::kHRowDone, &f)) {
        expected[static_cast<size_t>(f.rank)] = f.count;
      }
      bool complete = true;
      for (int r = 0; r < world_; ++r) {
        if (!IsLive(r)) continue;  // nothing will come from a dead rank
        if (expected[static_cast<size_t>(r)] < 0 ||
            hrow_received_[static_cast<size_t>(r)] <
                expected[static_cast<size_t>(r)]) {
          complete = false;
          break;
        }
      }
      if (complete) {
        // This exchange's rows are all accounted for; reset for the next.
        hrow_received_.assign(static_cast<size_t>(world_), 0);
        return Status::OK();
      }
      Nap();
    }
  }

  Status EvaluateAndDecide(bool* stop) {
    double sq = 0.0;
    int64_t cnt = 0;
    for (const auto& range : OwnedRowRanges()) {
      for (int32_t i = range.first; i < range.second; ++i) {
        const int32_t nnz = ds_.test.RowNnz(i);
        const int32_t* cols = ds_.test.RowCols(i);
        const float* vals = ds_.test.RowVals(i);
        const Real* wi = w_.Row(i);
        for (int32_t t = 0; t < nnz; ++t) {
          const Real* hj = h_.Row(cols[t]);
          double pred = 0.0;
          for (int d = 0; d < k_; ++d) {
            pred += static_cast<double>(wi[d]) * static_cast<double>(hj[d]);
          }
          const double err = pred - static_cast<double>(vals[t]);
          sq += err * err;
          ++cnt;
        }
      }
    }
    const TransportStats tstats = transport_->stats();
    // The transport gauges are set ONLY here, from the same stats snapshot
    // the kPartialEval frame carries — the final scraped values and
    // rank_traffic's bytes are therefore bit-identical at every barrier.
    transport_bytes_sent_.Set(static_cast<double>(tstats.bytes_sent));
    transport_bytes_received_.Set(
        static_cast<double>(tstats.bytes_received));
    transport_msgs_sent_.Set(static_cast<double>(tstats.messages_sent));
    transport_msgs_received_.Set(
        static_cast<double>(tstats.messages_received));
    ControlFrame mine;
    mine.kind = ControlKind::kPartialEval;
    mine.rank = rank_;
    mine.epoch = epoch_;
    mine.sq_err = sq;
    mine.count = cnt;
    mine.updates = workers_->updates();
    mine.seconds = train_seconds_;
    // Per-run registry deltas: rank_traffic is a view over the same
    // counters the scrape endpoint serves.
    mine.tokens_sent = tokens_sent_.Value() - tokens_sent0_;
    mine.tokens_received = tokens_received_.Value() - tokens_received0_;
    mine.bytes_sent = tstats.bytes_sent;
    mine.bytes_received = tstats.bytes_received;

    if (rank_ == 0) {
      std::vector<ControlFrame> evals(static_cast<size_t>(world_));
      std::vector<bool> have(static_cast<size_t>(world_), false);
      evals[0] = mine;
      have[0] = true;
      int missing = LiveCount() - 1;
      while (missing > 0) {
        NOMAD_RETURN_IF_ERROR(Pump());
        NOMAD_RETURN_IF_ERROR(CheckDeaths());
        ControlFrame f;
        while (TakeCtrl(ControlKind::kPartialEval, &f)) {
          if (!have[static_cast<size_t>(f.rank)]) {
            have[static_cast<size_t>(f.rank)] = true;
            --missing;
          }
          evals[static_cast<size_t>(f.rank)] = f;
        }
        if (missing > 0) Nap();
      }
      double sq_total = 0.0;
      int64_t cnt_total = 0;
      int64_t updates_total = 0;
      rank_traffic_.clear();
      for (int r = 0; r < world_; ++r) {
        if (!have[static_cast<size_t>(r)]) continue;  // dead rank: no report
        const ControlFrame& f = evals[static_cast<size_t>(r)];
        sq_total += f.sq_err;
        cnt_total += f.count;
        updates_total += f.updates;
        RankTrafficStats t;
        t.rank = f.rank;
        t.tokens_sent = f.tokens_sent;
        t.tokens_received = f.tokens_received;
        t.bytes_sent = f.bytes_sent;
        t.bytes_received = f.bytes_received;
        rank_traffic_.push_back(t);
      }
      const double rmse =
          cnt_total > 0 ? std::sqrt(sq_total / static_cast<double>(cnt_total))
                        : 0.0;
      global_updates_ = updates_total;
      global_seconds_ = train_seconds_;
      updates_per_second_.Set(
          global_seconds_ > 0.0
              ? static_cast<double>(global_updates_) / global_seconds_
              : 0.0);
      TracePoint pt;
      pt.seconds = train_seconds_;
      pt.updates = updates_total;
      pt.test_rmse = rmse;
      trace_.Add(pt);
      timeline_->RecordTrace(pt);
      const int64_t max_updates =
          opt_.max_updates > 0
              ? opt_.max_updates
              : (opt_.max_epochs > 0
                     ? opt_.max_epochs * std::max<int64_t>(
                                             ds_.train.nnz(), 1)
                     : -1);
      *stop = (max_updates > 0 && updates_total >= max_updates) ||
              (opt_.max_seconds > 0 && train_seconds_ >= opt_.max_seconds);
      ControlFrame resume;
      resume.kind = ControlKind::kResume;
      resume.rank = 0;
      resume.epoch = epoch_;
      resume.flag = *stop ? 1 : 0;
      resume.updates = updates_total;
      resume.sq_err = rmse;
      resume.seconds = train_seconds_;
      // With a hard max_updates budget, re-lease what remains of it across
      // the live ranks as absolute per-rank caps (kResume.held): each
      // rank's workers stop at their cap and request the next barrier, so
      // the job lands within a token batch of the budget instead of
      // overshooting by up to an epoch.
      const bool lease = opt_.max_updates > 0 && !*stop;
      const std::vector<int> live = LiveRanks();
      const int64_t remaining =
          lease ? std::max<int64_t>(opt_.max_updates - updates_total, 0) : 0;
      const int64_t nlive = static_cast<int64_t>(live.size());
      int64_t share_index = 0;
      for (int r : live) {
        resume.held = -1;
        if (lease) {
          const int64_t share =
              remaining / nlive + (share_index < remaining % nlive ? 1 : 0);
          resume.held = evals[static_cast<size_t>(r)].updates + share;
          ++share_index;
        }
        if (r == 0) {
          if (resume.held >= 0) workers_->SetCap(resume.held);
          continue;
        }
        NOMAD_RETURN_IF_ERROR(SendCtrl(r, resume));
      }
      return Status::OK();
    }

    NOMAD_RETURN_IF_ERROR(SendCtrl(0, mine));
    // Own traffic row, so non-zero ranks still report themselves.
    rank_traffic_.clear();
    RankTrafficStats t;
    t.rank = rank_;
    t.tokens_sent = mine.tokens_sent;
    t.tokens_received = mine.tokens_received;
    t.bytes_sent = mine.bytes_sent;
    t.bytes_received = mine.bytes_received;
    rank_traffic_.push_back(t);
    for (;;) {
      NOMAD_RETURN_IF_ERROR(Pump());
      NOMAD_RETURN_IF_ERROR(CheckDeaths());
      ControlFrame f;
      if (TakeCtrl(ControlKind::kResume, &f)) {
        TracePoint pt;
        pt.seconds = f.seconds;
        pt.updates = f.updates;
        pt.test_rmse = f.sq_err;
        trace_.Add(pt);
        timeline_->RecordTrace(pt);
        global_updates_ = f.updates;
        global_seconds_ = f.seconds;
        updates_per_second_.Set(
            global_seconds_ > 0.0
                ? static_cast<double>(global_updates_) / global_seconds_
                : 0.0);
        if (f.held >= 0) workers_->SetCap(f.held);
        *stop = f.flag != 0;
        return Status::OK();
      }
      Nap();
    }
  }

  Status GatherFinalModel() {
    if (world_ == 1) return Status::OK();
    if (rank_ == 0) {
      std::vector<int64_t> expected(static_cast<size_t>(world_), -1);
      expected[0] = 0;
      for (;;) {
        NOMAD_RETURN_IF_ERROR(Pump());
        // Training is over, so a rank dying here gets no recovery: latch
        // it, keep whatever w rows it managed to send (this rank's W holds
        // deterministic initial values for the rest), and move on.
        for (int r = 1; r < world_; ++r) {
          if (IsLive(r) && PeerDead(r)) {
            LatchDead(r);
          }
        }
        ControlFrame f;
        while (TakeCtrl(ControlKind::kWDone, &f)) {
          expected[static_cast<size_t>(f.rank)] = f.count;
        }
        bool complete = true;
        for (int r = 0; r < world_; ++r) {
          if (!IsLive(r)) continue;
          if (expected[static_cast<size_t>(r)] < 0 ||
              wrow_received_[static_cast<size_t>(r)] <
                  expected[static_cast<size_t>(r)]) {
            complete = false;
            break;
          }
        }
        if (complete) break;
        Nap();
      }
      ControlFrame bye;
      bye.kind = ControlKind::kShutdown;
      bye.rank = 0;
      bye.epoch = epoch_;
      return BroadcastCtrl(bye);
    }
    std::vector<uint8_t> frame;
    int64_t rows_sent = 0;
    for (const auto& range : OwnedRowRanges()) {
      for (int32_t i = range.first; i < range.second; ++i) {
        EncodeFactorRow<Real>(MsgType::kWRow, i, 0u, w_.Row(i), k_, &frame);
        NOMAD_RETURN_IF_ERROR(SendWithRetry(0, frame));
        ++rows_sent;
      }
    }
    ControlFrame done;
    done.kind = ControlKind::kWDone;
    done.rank = rank_;
    done.epoch = epoch_;
    done.count = rows_sent;
    NOMAD_RETURN_IF_ERROR(SendCtrl(0, done));
    for (;;) {
      NOMAD_RETURN_IF_ERROR(Pump());
      // Check for the shutdown frame BEFORE the liveness verdict: rank 0
      // closes its transport right after broadcasting kShutdown, so the
      // frame and the connection teardown race — TCP delivers the frame
      // first, but one Pump() can surface both at once.
      ControlFrame f;
      if (TakeCtrl(ControlKind::kShutdown, &f)) return Status::OK();
      if (PeerDead(0)) {
        return Status::IOError(
            "rank " + std::to_string(rank_) +
            ": rank 0 is unreachable — unrecoverable, aborting");
      }
      Nap();
    }
  }

  // ---- failure recovery ----

  /// Recovers from the latched deaths: detection → notice → channel flush
  /// → token re-own census → re-grant → partition adoption → resume
  /// (docs/ARCHITECTURE.md, "Failure model"). If another rank dies while
  /// recovery is running, the attempt unwinds (Unavailable) and restarts
  /// with the larger dead set — every step re-derives its state from a
  /// fresh census, so a half-finished attempt leaves nothing to undo.
  Status RunRecovery() {
    for (;;) {
      const Status attempt = RunRecoveryOnce();
      if (attempt.ok()) {
        death_pending_ = false;
        return Status::OK();
      }
      if (attempt.code() != StatusCode::kUnavailable) return attempt;
    }
  }

  Status RunRecoveryOnce() {
    // 0. Quiesce. Inbound tokens herd into held_ from here on; a barrier a
    //    death aborted mid-phase left the workers parked already.
    Quiesce();

    // 1. Announce. Rank 0 (the only death authority) broadcasts the full
    //    dead set under a fresh generation; re-announcing earlier deaths
    //    is idempotent (latching is) and makes restarts self-contained.
    //    The notice carries rank 0's barrier epoch — survivors whose
    //    kResume was lost with the abort re-sync from it.
    int gen = 0;
    if (rank_ == 0) {
      gen = ++recovery_gen_;
      ControlFrame notice;
      notice.kind = ControlKind::kDeathNotice;
      notice.rank = 0;
      notice.epoch = gen;
      notice.held = epoch_;
      for (int d = 0; d < world_; ++d) {
        if (IsLive(d)) continue;
        notice.count = d;
        NOMAD_RETURN_IF_ERROR(BroadcastCtrl(notice));
      }
    } else {
      gen = notice_gen_;
    }
    recovery_generation_.Set(gen);
    NOMAD_LOG(kWarning) << "dist_nomad rank " << rank_
                        << ": recovery generation " << gen << " ("
                        << (world_ - LiveCount()) << " dead, "
                        << LiveCount() << " live)";

    // 2. Flush. Every survivor broadcasts a kLeaseSync marker and waits
    //    for every live peer's marker of this generation. Frames are FIFO
    //    per (sender, receiver) channel, so once a peer's marker is here,
    //    everything it sent before pausing is too — the held-token census
    //    below is exact, with no acknowledgement protocol. Pump() resets a
    //    sender's h-row bookkeeping the moment its marker is processed, so
    //    census traffic from survivors racing ahead of this rank is
    //    counted, while pre-death leftovers are not. Recording starts
    //    before the marker goes out: a racing peer's census rows can
    //    arrive in the same drain as its marker.
    if (rank_ == 0) {
      record_hrow_ids_ = true;
      for (auto& ids : seen_hrow_ids_) ids.clear();
    }
    {
      ControlFrame marker;
      marker.kind = ControlKind::kLeaseSync;
      marker.rank = rank_;
      marker.epoch = gen;
      marker.held = static_cast<int64_t>(held_.size());
      NOMAD_RETURN_IF_ERROR(BroadcastCtrl(marker));
      std::vector<char> marked(static_cast<size_t>(world_), 0);
      marked[static_cast<size_t>(rank_)] = 1;
      for (;;) {
        NOMAD_RETURN_IF_ERROR(Pump());
        NOMAD_RETURN_IF_ERROR(CheckRecoveryInterrupt(gen));
        ControlFrame f;
        while (TakeCtrl(ControlKind::kLeaseSync, &f)) {
          if (f.epoch == gen) marked[static_cast<size_t>(f.rank)] = 1;
          // markers of older generations are leftovers of a superseded
          // attempt; drop them
        }
        bool all = true;
        for (int r = 0; r < world_; ++r) {
          if (IsLive(r) && !marked[static_cast<size_t>(r)]) {
            all = false;
            break;
          }
        }
        if (all) break;
        Nap();
      }
    }

    // 3. Reset the aborted protocol: everything those purged frames were
    //    part of has provably arrived. The h-row counters were already
    //    reset per sender by its marker — a wholesale reset here would
    //    wipe census traffic from survivors that raced ahead.
    PurgeStaleCtrl();
    request_sent_ = false;

    // 4. Re-own census: survivors re-broadcast their held h-rows (which
    //    also re-syncs H everywhere); rank 0 records the ids, so the set
    //    of tokens that died with the dead ranks — held there, or in
    //    flight to or from them — is exactly the complement.
    {
      const Status census = ExchangeHeldRows(gen);
      if (!census.ok()) {
        record_hrow_ids_ = false;
        return census;
      }
      record_hrow_ids_ = false;
    }

    // 5. Re-grant. Rank 0 re-materializes each missing token from its own
    //    (census-fresh) h-row copy, with a version reset far above any
    //    counter the dead rank could have produced and the wire-level
    //    regrant flag that makes receivers accept the reset. Distribution
    //    is round-robin over the live ranks; the per-channel FIFO makes
    //    the kTokenRegrant notice that follows the tokens double as their
    //    delivery receipt. A restart after a partial re-grant is safe: the
    //    next census sees the re-granted tokens as held and only fills
    //    what is still missing.
    if (rank_ == 0) {
      std::vector<char> seen(static_cast<size_t>(ds_.cols), 0);
      for (const auto& ids : seen_hrow_ids_) {
        for (int32_t id : ids) seen[static_cast<size_t>(id)] = 1;
      }
      for (int32_t j : held_) seen[static_cast<size_t>(j)] = 1;
      const std::vector<int> live = LiveRanks();
      std::vector<int64_t> granted(static_cast<size_t>(world_), 0);
      std::vector<uint8_t> fbuf;
      int64_t missing = 0;
      size_t slot = 0;
      for (int32_t j = 0; j < ds_.cols; ++j) {
        if (seen[static_cast<size_t>(j)]) continue;
        ++missing;
        const uint32_t v =
            version_[static_cast<size_t>(j)].load(std::memory_order_relaxed) +
            kRegrantVersionBump;
        version_[static_cast<size_t>(j)].store(v, std::memory_order_relaxed);
        const int dest = live[slot++ % live.size()];
        if (dest == rank_) {
          held_.push_back(j);
        } else {
          EncodeFactorRow<Real>(MsgType::kToken, j, v, h_.Row(j), k_, &fbuf,
                                kFactorRowFlagRegrant);
          NOMAD_RETURN_IF_ERROR(SendWithRetry(dest, fbuf));
        }
        ++granted[static_cast<size_t>(dest)];
      }
      NOMAD_LOG(kWarning) << "dist_nomad rank 0: re-granted " << missing
                          << " lost tokens across " << live.size()
                          << " survivors";
      ControlFrame receipt;
      receipt.kind = ControlKind::kTokenRegrant;
      receipt.rank = 0;
      receipt.epoch = gen;
      receipt.updates = missing;
      for (int r : live) {
        if (r == rank_) continue;
        receipt.count = granted[static_cast<size_t>(r)];
        NOMAD_RETURN_IF_ERROR(SendCtrl(r, receipt));
      }
    } else {
      for (;;) {
        NOMAD_RETURN_IF_ERROR(Pump());
        NOMAD_RETURN_IF_ERROR(CheckRecoveryInterrupt(gen));
        ControlFrame f;
        bool receipted = false;
        while (TakeCtrl(ControlKind::kTokenRegrant, &f)) {
          if (f.epoch == gen) receipted = true;
        }
        if (receipted) break;
        Nap();
      }
      epoch_ = static_cast<int>(std::max<int64_t>(epoch_, notice_epoch_));
    }

    // 6. Rebalance: adopt the dead ranks' global workers (deterministic,
    //    message-free — every rank computes the same assignment from the
    //    shared dead set) and re-derive the epoch pacing.
    RecomputeOwnership();

    // 7. Resume degraded. Tokens re-scatter deterministically; rank 0
    //    schedules an immediate barrier so the post-recovery RMSE lands in
    //    the trace (the visible recovery dip).
    Rng rescatter(opt_.seed ^ (0xFEED0000ULL + static_cast<uint64_t>(gen)));
    for (int32_t j : held_) {
      workers_->Push(
          static_cast<int>(rescatter.NextBelow(static_cast<uint64_t>(p_))), j);
    }
    held_.clear();
    in_barrier_ = false;
    request_sent_ = false;
    next_threshold_ = workers_->updates() + local_epoch_updates_;
    if (rank_ == 0) barrier_after_recovery_ = true;
    wall_.Restart();
    workers_->Resume();
    return Status::OK();
  }

  /// Redistributes every dead rank's global workers over the survivors:
  /// global worker g of a dead rank goes to the (slot mod live)-th live
  /// rank, spread round-robin over that rank's local workers. Pure
  /// function of the shared dead set, so all ranks agree without a
  /// message. Workers must be parked.
  void RecomputeOwnership() {
    std::vector<std::vector<int>> worker_globals(static_cast<size_t>(p_));
    my_globals_.clear();
    for (int q = 0; q < p_; ++q) {
      worker_globals[static_cast<size_t>(q)].push_back(rank_ * p_ + q);
      my_globals_.push_back(rank_ * p_ + q);
    }
    const std::vector<int> live = LiveRanks();
    size_t slot = 0;
    for (int r = 0; r < world_; ++r) {
      if (IsLive(r)) continue;
      for (int q = 0; q < p_; ++q) {
        const int g = r * p_ + q;
        const int adopter = live[slot % live.size()];
        const int local_worker =
            static_cast<int>((slot / live.size()) % static_cast<size_t>(p_));
        ++slot;
        if (adopter != rank_) continue;
        worker_globals[static_cast<size_t>(local_worker)].push_back(g);
        my_globals_.push_back(g);
      }
    }
    workers_->AssignGlobals(std::move(worker_globals));
    std::sort(my_globals_.begin(), my_globals_.end());
    local_epoch_updates_ = 0;
    for (int g : my_globals_) local_epoch_updates_ += shards_.WorkerNnz(g);
    local_epoch_updates_ = std::max<int64_t>(local_epoch_updates_, 1);
  }

  // ---- immutable run parameters ----
  const Dataset& ds_;
  const DistNomadOptions& o_;
  const TrainOptions& opt_;
  Transport* transport_;
  CodecTransport* codec_ = nullptr;  ///< Non-null iff wire_codec is on:
                                     ///< transport_ viewed as its codec
                                     ///< stack, for the driver's flushes.
  const int world_;
  const int rank_;
  const int p_;
  const int k_;
  const UpdateKernelT<Real>& kernel_;

  // ---- model + data layout ----
  FactorMatrixT<Real> w_;
  FactorMatrixT<Real> h_;
  UserPartition partition_;
  ColumnShards shards_;
  StepCounts counts_;
  double remote_prob_ = 0.0;
  int64_t local_epoch_updates_ = 1;

  /// Latched-dead ranks as a bit mask for the workers' remote routing
  /// (advisory; a world over 64 ranks falls back to retry-only). Written
  /// by the driver, read by workers.
  std::atomic<uint64_t> dead_mask_{0};

  // ---- driver/protocol state (driver thread only) ----
  Rng driver_rng_;
  // Hop versions are atomic for one reason: an injected duplicate/delayed
  // frame for token j can reach the driver's stale-discard check while a
  // local worker (the current owner) is bumping version_[j] for its own
  // hand-off. All accesses are relaxed — the counter only grows, and the
  // discard check only needs "≥ the value this rank already accepted",
  // which the driver itself wrote; ownership hand-offs synchronize
  // through the queues and the transport.
  std::vector<std::atomic<uint32_t>> version_;
  std::deque<ControlFrame> ctrl_q_;
  std::vector<uint8_t> rx_frame_;  // pump receive buffer, kept across rounds
  std::vector<int32_t> held_;
  std::vector<int64_t> hrow_received_;
  std::vector<int64_t> wrow_received_;
  bool in_barrier_ = false;
  bool request_sent_ = false;
  int epoch_ = 0;
  int64_t next_threshold_ = 0;
  std::vector<char> dead_;        ///< Latched death verdicts, by rank.
  bool death_pending_ = false;    ///< A latched death awaits recovery.
  int recovery_gen_ = 0;          ///< Rank 0: recovery generations issued.
  int notice_gen_ = 0;            ///< Others: newest kDeathNotice generation.
  int64_t notice_epoch_ = 0;      ///< Others: rank 0's epoch off the notice.
  bool record_hrow_ids_ = false;  ///< Rank 0 census: Pump logs h-row ids.
  std::vector<std::vector<int32_t>> seen_hrow_ids_;  ///< indexed by sender
  std::vector<int> my_globals_;   ///< Global workers this rank owns.
  bool barrier_after_recovery_ = false;
  Stopwatch wall_;
  double train_seconds_ = 0.0;
  Trace trace_;
  int64_t global_updates_ = 0;
  double global_seconds_ = 0.0;
  std::vector<RankTrafficStats> rank_traffic_;

  // ---- observability (obs/metrics.h; handles created in Setup) ----
  // TrainResult::rank_traffic is a view over these cells (kPartialEval
  // frames carry the per-run counter deltas), so the accounting must never
  // degrade: when the resolved registry is disabled (NOMAD_METRICS=off),
  // the run counts into this private registry instead — same cost as the
  // plain atomics it replaced, just nothing scrapes it.
  obs::MetricsRegistry fallback_registry_{true};
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter tokens_sent_;       ///< Tokens handed to remote ranks.
  obs::Counter tokens_received_;   ///< Tokens accepted from remote ranks.
  int64_t tokens_sent0_ = 0;       ///< Start values: the counters may be
  int64_t tokens_received0_ = 0;   ///< warm from an earlier run.
  obs::Counter send_retries_;      ///< Extra send attempts after Unavailable.
  obs::Counter heartbeat_misses_;  ///< Dead verdicts read off the transport.
  obs::Counter regrants_;          ///< Re-granted tokens accepted.
  obs::Counter stale_tokens_;      ///< Replayed/duplicate tokens discarded.
  obs::Counter dead_frames_;       ///< Frames from latched-dead ranks dropped.
  // Per-peer solver-payload traffic (what this rank's protocol put on the
  // wire, excluding transport framing and heartbeats), indexed by peer
  // rank; the self slot stays a null handle.
  std::vector<obs::Counter> tx_frames_, tx_bytes_, rx_frames_, rx_bytes_;
  std::vector<obs::Gauge> peer_alive_;   ///< 1 live, 0 latched dead.
  obs::Gauge recovery_generation_;       ///< Newest recovery generation run.
  obs::Gauge barrier_epoch_;             ///< Epoch of the last barrier.
  obs::Gauge updates_per_second_;        ///< Global rate at the last barrier.
  // Whole-transport cumulative stats (framing and heartbeats included),
  // snapshotted in EvaluateAndDecide from the same TransportStats read
  // that fills the kPartialEval frame — which keeps the scraped values and
  // rank_traffic's bytes bit-identical at every barrier.
  obs::Gauge transport_bytes_sent_, transport_bytes_received_;
  obs::Gauge transport_msgs_sent_, transport_msgs_received_;
  /// Pump-round latency (nomad_dist_pump_round_latency_seconds): how long
  /// one full drain of the transport takes — the dist layer's third
  /// hot-path histogram next to the worker service/wait pair.
  obs::Histogram pump_latency_;
  /// Run timeline (obs/timeseries.h): rank 0 records the global trace it
  /// coordinates; every other rank records the kResume echoes it applies.
  /// A caller-provided timeline (opt_.timeline) is honored on rank 0 only —
  /// in loopback worlds all ranks share one TrainOptions, and the live
  /// /timeseries view should carry the coordinator's rows, not an
  /// interleaving of every rank's.
  obs::RunTimeline own_timeline_;
  obs::RunTimeline* timeline_ = nullptr;

  /// The rank's workers (nomad/token_worker.h): queues, router, gate,
  /// ownership, update counter and budget-lease cap. Last, so their
  /// threads never outlive a member they use.
  std::unique_ptr<TokenWorkers<Real>> workers_;
};

template <typename Real>
Result<TrainResult> TrainImpl(const Dataset& ds,
                              const DistNomadOptions& options,
                              Transport* transport) {
  auto schedule = MakeSchedule(options.train.schedule, options.train.alpha,
                               options.train.beta);
  if (!schedule.ok()) return schedule.status();
  auto loss = ResolveLoss(options.train.loss);
  if (!loss.ok()) return loss.status();

  // Degenerate problems have no tokens to circulate; evaluate the starting
  // point locally (every rank holds the full dataset) and skip the
  // protocol entirely — all ranks take this branch consistently.
  if (ds.train.nnz() == 0 || ds.cols == 0) {
    TrainResult result;
    result.solver_name = "dist_nomad";
    result.precision = options.train.precision;
    FactorMatrixT<Real> w;
    FactorMatrixT<Real> h;
    InitFactorsT<Real>(ds, options.train, &w, &h);
    TracePoint pt;
    pt.test_rmse = Rmse(ds.test, w, h);
    result.trace.Add(pt);
    obs::RunTimeline degenerate_timeline(nullptr);
    obs::RunTimeline* const timeline =
        options.train.timeline != nullptr && transport->rank() == 0
            ? options.train.timeline
            : &degenerate_timeline;
    timeline->RecordTrace(pt);
    result.timeline = timeline->Points();
    StoreTrainedFactors(std::move(w), std::move(h), &result);
    return result;
  }

  const UpdateKernelT<Real> kernel(*schedule.value(), loss.value().get(),
                                   options.train.lambda, options.train.rank);
  // With a wire codec negotiated, the rank sees its transport through a
  // CodecTransport stack — quantize/delta/batch on send, restore on
  // receive — so the protocol code above runs unchanged. The decorator
  // borrows the endpoint; Close() stays the caller's, as documented.
  std::unique_ptr<CodecTransport> codec;
  if (options.wire_codec.enabled()) {
    CodecOptions copts;
    copts.spec = options.wire_codec;
    copts.native = WirePrecisionOf<Real>();
    copts.columns = ds.cols;
    obs::MetricsRegistry* registry = obs::ResolveRegistry(options.train.metrics);
    copts.registry = registry->enabled() ? registry : nullptr;
    copts.metrics_rank = transport->rank();
    codec = std::make_unique<CodecTransport>(transport, copts);
  }
  RankRun<Real> run(ds, options, codec ? codec.get() : transport, kernel,
                    codec.get());
  return run.Run();
}

}  // namespace

Result<TrainResult> DistNomadSolver::Train(const Dataset& ds,
                                           const DistNomadOptions& options,
                                           Transport* transport) {
  if (transport == nullptr) {
    return Status::InvalidArgument("transport must not be null");
  }
  NOMAD_RETURN_IF_ERROR(ValidateCommonOptions(options.train));
  if (options.train.rank > kMaxWireK) {
    // Enforced here rather than at the first remote hand-off, where the
    // frame encoder would abort the whole job mid-training.
    return Status::InvalidArgument(
        "rank " + std::to_string(options.train.rank) +
        " exceeds the wire-format ceiling of " + std::to_string(kMaxWireK));
  }
  if (options.remote_token_fraction > 1.0) {
    return Status::InvalidArgument("remote_token_fraction must be <= 1");
  }
  if (options.wire_codec.bf16 && options.wire_codec.f16) {
    return Status::InvalidArgument(
        "wire_codec: bf16 and f16 quantization are mutually exclusive");
  }
  if (options.train.record_objective) {
    return Status::InvalidArgument(
        "record_objective is not supported by dist_nomad yet");
  }
  if (options.train.nomadic_rows) {
    // Footnote 2, same trick as the shared-memory solver: every rank
    // transposes consistently and swaps the factors back.
    const Dataset transposed = Transpose(ds);
    DistNomadOptions inner = options;
    inner.train.nomadic_rows = false;
    auto result = Train(transposed, inner, transport);
    if (!result.ok()) return result.status();
    TrainResult swapped = std::move(result).value();
    std::swap(swapped.w, swapped.h);
    return swapped;
  }
  return DispatchPrecision(options.train.precision, [&](auto zero) {
    return TrainImpl<decltype(zero)>(ds, options, transport);
  });
}

std::vector<Result<TrainResult>> TrainWorld(
    const Dataset& ds, const DistNomadOptions& options,
    std::vector<std::unique_ptr<Transport>>* endpoints) {
  const int world = static_cast<int>(endpoints->size());
  std::vector<Result<TrainResult>> results(
      static_cast<size_t>(world), Status::Internal("rank did not run"));
  std::vector<std::thread> ranks;
  ranks.reserve(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      DistNomadSolver solver;
      results[static_cast<size_t>(r)] = solver.Train(
          ds, options, (*endpoints)[static_cast<size_t>(r)].get());
    });
  }
  for (auto& t : ranks) t.join();
  return results;
}

std::vector<Result<TrainResult>> TrainLoopbackWorld(
    const Dataset& ds, const DistNomadOptions& options, int world) {
  auto fabric = MakeLoopbackFabric(world);
  return TrainWorld(ds, options, &fabric);
}

}  // namespace net
}  // namespace nomad
