// The two training workloads.
//
// train-shm-netflix: NomadSolver on netflix-mini at scale 4 (96k users x
//   7.7k items, 3.4M training ratings). About 140 ratings per token visit,
//   so the SGD kernel does most of the work; the net layers are bypassed.
// train-tcp2-yahoo: DistNomadSolver with 2 ranks x 2 workers in this
//   process, each rank on its own TcpTransport over 127.0.0.1, under the
//   bf16+delta codec, on yahoo-mini at scale 4 (64k x 20k, ~700k ratings).
//   About 10 ratings per token visit and half of all hand-offs cross
//   ranks: queue, router, codec, transport, pump and barrier dominate.
//
// Each run repeats a fixed-budget training job while time is left. The
// traced run alternates untraced (registry off) and traced (registry on)
// jobs and replays each layer's public calls over the workload's own data.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/shard.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "nomad/nomad_solver.h"
#include "nomad/row_ownership.h"
#include "nomad/token_router.h"
#include "net/codec.h"
#include "net/dist_nomad.h"
#include "net/tcp_transport.h"
#include "net/wire_format.h"
#include "queue/mpmc_queue.h"
#include "sched/schedule.h"
#include "solver/sgd_kernel.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using nomad::Dataset;
using nomad::TrainOptions;
using nomad::TrainResult;
namespace net = nomad::net;
namespace obs = nomad::obs;

// One training workload's fixed shape.
struct TrainSpec {
  std::string name;
  nomad::SyntheticConfig data;
  TrainOptions train;
  int ranks = 1;            // 1 = NomadSolver, 2 = DistNomadSolver over TCP
  std::string codec;        // wire codec of the dist workload
  double rmse_target = 0;   // time_to_rmse_s threshold (near half budget)
  double rmse_bound = 0;    // final_rmse quality gate
  int datasets = 1;         // datasets drawn from the seed; jobs rotate
};

// The simulator's calibration in bench/bench_common.h (MakeSimOptions):
// update_seconds_per_dim = 4e-7 / rank, i.e. 0.4 us per update.
constexpr double kSimSecondsPerUpdate = 4e-7;

TrainSpec ShmSpec(const RunOptions& o) {
  TrainSpec s;
  s.name = "train-shm-netflix";
  s.data = nomad::NetflixMiniConfig(o.tiny ? 0.1 : 4.0);
  s.train.rank = 32;
  s.train.max_epochs = o.tiny ? 4 : 20;
  s.train.num_workers = std::min(4, o.nproc);
  s.train.alpha = 0.12;
  s.train.beta = 0.005;
  s.train.lambda = 0.02;
  s.rmse_target = o.tiny ? 0.40 : 0.170;
  s.rmse_bound = o.tiny ? 0.45 : 0.165;
  return s;
}

TrainSpec Tcp2Spec(const RunOptions& o) {
  TrainSpec s;
  s.name = "train-tcp2-yahoo";
  s.data = nomad::YahooMiniConfig(o.tiny ? 0.1 : 4.0);
  s.ranks = 2;
  s.codec = "bf16+delta";
  s.train.rank = 32;
  s.train.max_epochs = o.tiny ? 4 : 10;
  s.train.num_workers = std::max(1, std::min(4, o.nproc) / 2);  // per rank
  s.train.alpha = 0.03;
  s.train.beta = 0.005;
  s.train.lambda = 0.04;
  // Each seed's curve sits up to 0.002 higher or lower. With yahoo-mini's
  // tuned step (0.08) the curve is flat after epoch 2, so that offset moved
  // the crossing by +-20%; at 0.03 it descends over the whole budget
  // (0.366, 0.354, 0.348, 0.344, 0.342, ... 0.337) and the target sits
  // where it is still steep.
  s.rmse_target = o.tiny ? 0.60 : 0.351;
  s.rmse_bound = o.tiny ? 0.70 : 0.350;
  // One yahoo-mini draw converges up to 0.005 above or below another, which
  // moves the updates to the target by +-30%. Jobs rotate over three draws
  // from the seed and the run reports their mean; generation is cheap here.
  s.datasets = 3;
  return s;
}

std::string Describe(const TrainSpec& s, uint64_t seed) {
  return Fmt("%s data=%s %dx%d nnz=%lld seed=%llu k=%d f64 a=%g b=%g l=%g "
             "epochs=%d workers=%d ranks=%d codec=%s batch=%d target=%g "
             "bound=%g datasets=%d",
             s.name.c_str(), s.data.name.c_str(), s.data.rows, s.data.cols,
             static_cast<long long>(s.data.nnz),
             static_cast<unsigned long long>(seed), s.train.rank,
             s.train.alpha, s.train.beta, s.train.lambda, s.train.max_epochs,
             s.train.num_workers, s.ranks, s.codec.c_str(),
             s.train.token_batch_size, s.rmse_target, s.rmse_bound,
             s.datasets);
}

// Updates after which test RMSE first reaches `target`, interpolated
// linearly between the bracketing trace points; < 0 when never reached.
double UpdatesToRmse(const nomad::Trace& trace, double target) {
  const auto& p = trace.points();
  for (size_t i = 1; i < p.size(); ++i) {
    if (p[i].test_rmse > target) continue;
    const double drop = p[i - 1].test_rmse - p[i].test_rmse;
    const double frac =
        drop > 0 ? (p[i - 1].test_rmse - target) / drop : 1.0;
    return static_cast<double>(p[i - 1].updates) +
           std::clamp(frac, 0.0, 1.0) *
               static_cast<double>(p[i].updates - p[i - 1].updates);
  }
  return -1.0;
}

// One fixed-budget training job and what the benchmark reads off it.
struct Job {
  bool ok = false;
  std::string error;
  TrainResult result;
  double wall_s = 0.0;
  int64_t transport_bytes = 0;     // both ranks, framing + control included
  int64_t transport_messages = 0;  // frames handed to the transports
  double cpu_s = 0.0;              // process CPU time over the job
  double token_send_s = 0.0;       // time in Send() for token frames (traced)
  int64_t token_sends = 0;
};

double ProcessCpuSeconds() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         1e-6 * (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

// Times Send() on the real transport, below the codec, inside a real job:
// the span around the transport layer's hand-off of token frames.
class TimedTransport final : public net::Transport {
 public:
  explicit TimedTransport(std::unique_ptr<net::Transport> base)
      : base_(std::move(base)) {}
  int rank() const override { return base_->rank(); }
  int world() const override { return base_->world(); }
  nomad::Status Send(int dest, std::vector<uint8_t> frame) override {
    const bool token =
        !frame.empty() &&
        (frame[0] == static_cast<uint8_t>(net::MsgType::kToken) ||
         frame[0] == static_cast<uint8_t>(net::MsgType::kBatch));
    const auto t0 = std::chrono::steady_clock::now();
    nomad::Status s = base_->Send(dest, std::move(frame));
    if (token) {
      token_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count(),
                          std::memory_order_relaxed);
      token_sends_.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }
  bool TryReceive(std::vector<uint8_t>* frame, int* src) override {
    return base_->TryReceive(frame, src);
  }
  net::TransportStats stats() const override { return base_->stats(); }
  net::PeerStatus peer_status(int peer) const override {
    return base_->peer_status(peer);
  }
  nomad::Status Close() override { return base_->Close(); }

  double token_send_s() const { return token_ns_.load() * 1e-9; }
  int64_t token_sends() const { return token_sends_.load(); }

 private:
  std::unique_ptr<net::Transport> base_;
  std::atomic<int64_t> token_ns_{0};
  std::atomic<int64_t> token_sends_{0};
};

std::vector<std::unique_ptr<net::TcpTransport>> ConnectMesh(
    const TrainSpec& spec, const net::WireCodecSpec& codec) {
  std::vector<std::unique_ptr<net::TcpTransport>> mesh;
  std::vector<net::TcpPeer> peers(static_cast<size_t>(spec.ranks));
  for (int r = 0; r < spec.ranks; ++r) {
    net::TcpOptions topts;
    topts.hello_k = spec.train.rank;
    topts.hello_codec = codec.ToByte();
    auto t = net::TcpTransport::Listen(r, spec.ranks, /*port=*/0, topts);
    NOMAD_CHECK(t.ok()) << t.status().ToString();
    peers[static_cast<size_t>(r)] = {"127.0.0.1", t.value()->listen_port()};
    mesh.push_back(std::move(t).value());
  }
  std::vector<std::thread> establishers;
  std::vector<nomad::Status> status(static_cast<size_t>(spec.ranks));
  for (int r = 0; r < spec.ranks; ++r) {
    establishers.emplace_back([&, r] {
      status[static_cast<size_t>(r)] =
          mesh[static_cast<size_t>(r)]->Establish(peers);
    });
  }
  for (auto& t : establishers) t.join();
  for (const auto& s : status) NOMAD_CHECK(s.ok()) << s.ToString();
  return mesh;
}

Job RunJob(const Dataset& ds, const TrainSpec& spec,
           obs::MetricsRegistry* registry, bool time_sends = false) {
  Job job;
  TrainOptions train = spec.train;
  train.metrics = registry;
  const double cpu0 = ProcessCpuSeconds();
  if (spec.ranks == 1) {
    const double t0 = Now();
    auto result = nomad::NomadSolver().Train(ds, train);
    job.wall_s = Now() - t0;
    job.cpu_s = ProcessCpuSeconds() - cpu0;
    job.ok = result.ok();
    if (!job.ok) {
      job.error = result.status().ToString();
      return job;
    }
    job.result = std::move(result).value();
    return job;
  }
  net::DistNomadOptions options;
  options.train = train;
  options.wire_codec = net::WireCodecSpec::Parse(spec.codec).value();
  auto mesh = ConnectMesh(spec, options.wire_codec);
  std::vector<std::unique_ptr<net::Transport>> endpoints;
  int64_t bytes0 = 0, msgs0 = 0;
  std::vector<TimedTransport*> timed;
  for (auto& t : mesh) {
    bytes0 += t->stats().bytes_sent;
    msgs0 += t->stats().messages_sent;
    if (time_sends) {
      auto wrapped = std::make_unique<TimedTransport>(std::move(t));
      timed.push_back(wrapped.get());
      endpoints.push_back(std::move(wrapped));
    } else {
      endpoints.push_back(std::move(t));
    }
  }
  const double t0 = Now();
  auto results = net::TrainWorld(ds, options, &endpoints);
  job.wall_s = Now() - t0;
  job.cpu_s = ProcessCpuSeconds() - cpu0;
  for (auto& e : endpoints) {
    job.transport_bytes += e->stats().bytes_sent;
    job.transport_messages += e->stats().messages_sent;
    (void)e->Close();
  }
  job.transport_bytes -= bytes0;
  job.transport_messages -= msgs0;
  for (const TimedTransport* t : timed) {
    job.token_send_s += t->token_send_s();
    job.token_sends += t->token_sends();
  }
  job.ok = true;
  for (auto& r : results) {
    if (!r.ok()) {
      job.ok = false;
      job.error = r.status().ToString();
    }
  }
  if (job.ok) job.result = std::move(results[0]).value();
  return job;
}

// Records the gates every job must pass.
void GateJob(const Dataset& ds, const TrainSpec& spec, const Job& job,
             Report* report) {
  report->attempted += 1;
  if (!job.ok) {
    report->failed += 1;
    report->Gate("train_job", false, job.error);
    return;
  }
  const TrainResult& r = job.result;
  const double final_rmse = r.trace.FinalRmse();
  const double reeval = nomad::Rmse(ds.test, r.w, r.h);
  // The shared-memory trace and the re-evaluation differ only in
  // summation order; a dist rank-0 model holds h rows some of which
  // crossed the bf16 wire at the final barrier.
  const double tol = spec.ranks == 1 ? 1e-9 : 1e-3;
  report->Gate("model_reevaluates_to_trace",
               std::abs(reeval - final_rmse) <= tol * final_rmse,
               Fmt("re-evaluated %.9f vs traced %.9f", reeval, final_rmse));
  report->Gate("final_rmse_within_bound", final_rmse <= spec.rmse_bound,
               Fmt("final RMSE %.5f, bound %.5f", final_rmse,
                   spec.rmse_bound));
  report->Gate("rmse_target_reached",
               UpdatesToRmse(r.trace, spec.rmse_target) > 0.0,
               Fmt("target %.4f", spec.rmse_target));
  if (spec.ranks > 1) {
    int64_t sent = 0, received = 0;
    for (const auto& t : r.rank_traffic) {
      sent += t.tokens_sent;
      received += t.tokens_received;
    }
    report->Gate("tokens_conserved",
                 sent == received && sent > 0 &&
                     static_cast<int>(r.rank_traffic.size()) == spec.ranks,
                 Fmt("%lld tokens sent, %lld received over %zu ranks",
                     static_cast<long long>(sent),
                     static_cast<long long>(received),
                     r.rank_traffic.size()));
  }
}

Dataset Generate(const TrainSpec& spec, uint64_t seed, double* seconds) {
  nomad::SyntheticConfig config = spec.data;
  config.seed = seed;
  const double t0 = Now();
  auto ds = nomad::GenerateSynthetic(config);
  *seconds = Now() - t0;
  NOMAD_CHECK(ds.ok()) << ds.status().ToString();
  return std::move(ds).value();
}

// -------------------------------------------------------------------------
// Layer replays: timed calls into the public functions of each module,
// over the workload's own data and shapes.

int TotalWorkers(const TrainSpec& spec) {
  return spec.train.num_workers * spec.ranks;
}

// UpdateKernelT::Apply over the workload's shards, one thread per worker.
// Round r gives worker q the columns j with (j + r) % p == q, so every
// (worker, column) pair is visited once per epoch and no two threads ever
// hold the same h row — the ownership NOMAD's tokens guarantee.
double ReplaySgdNsPerUpdate(const Dataset& ds, const TrainSpec& spec,
                            const nomad::ColumnShards& shards) {
  const int p = TotalWorkers(spec);
  nomad::FactorMatrix w, h;
  nomad::InitFactors(ds, spec.train, &w, &h);
  auto schedule = nomad::MakeSchedule(spec.train.schedule, spec.train.alpha,
                                      spec.train.beta);
  NOMAD_CHECK(schedule.ok());
  const nomad::UpdateKernel kernel(*schedule.value(), nullptr,
                                   spec.train.lambda, spec.train.rank);
  nomad::StepCounts counts(ds.train.nnz());
  std::vector<int32_t> order(static_cast<size_t>(ds.cols));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(99));

  const int epochs = 2;  // the first warms caches and pages
  std::vector<double> busy(static_cast<size_t>(p), 0.0);
  std::vector<int64_t> updates(static_cast<size_t>(p), 0);
  std::barrier sync(p);
  std::vector<std::thread> threads;
  for (int q = 0; q < p; ++q) {
    threads.emplace_back([&, q] {
      for (int e = 0; e < epochs; ++e) {
        for (int r = 0; r < p; ++r) {
          sync.arrive_and_wait();
          const double t0 = Now();
          int64_t done = 0;
          for (const int32_t j : order) {
            if ((j + r) % p != q) continue;
            int32_t n = 0;
            const auto* entries = shards.ColEntries(q, j, &n);
            double* hj = h.Row(j);
            for (int32_t t = 0; t < n; ++t) {
              kernel.Apply(entries[t].value, &counts, entries[t].csc_pos,
                           w.Row(entries[t].row), hj);
            }
            done += n;
          }
          if (e == epochs - 1) {
            busy[static_cast<size_t>(q)] += Now() - t0;
            updates[static_cast<size_t>(q)] += done;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double total_busy = std::accumulate(busy.begin(), busy.end(), 0.0);
  const int64_t total_updates =
      std::accumulate(updates.begin(), updates.end(), int64_t{0});
  return total_updates > 0 ? total_busy * 1e9 / total_updates : 0.0;
}

// MpmcQueue TryPopBatch + PushBatch at the workload's batch size and p.
double ReplayQueueNsPerToken(const TrainSpec& spec, int32_t cols) {
  const int p = spec.train.num_workers;
  const int batch = spec.train.token_batch_size;
  std::vector<std::unique_ptr<nomad::MpmcQueue<int32_t>>> queues;
  for (int q = 0; q < p; ++q) {
    queues.push_back(std::make_unique<nomad::MpmcQueue<int32_t>>());
  }
  for (int32_t j = 0; j < cols; ++j) {
    queues[static_cast<size_t>(j % p)]->Push(j);
  }
  std::vector<int32_t> buf(static_cast<size_t>(batch));
  const int64_t target = 4'000'000;
  int64_t moved = 0;
  const double t0 = Now();
  for (int64_t round = 0; moved < target; ++round) {
    const int q = static_cast<int>(round % p);
    const size_t got =
        queues[static_cast<size_t>(q)]->TryPopBatch(buf.data(), buf.size());
    queues[static_cast<size_t>((q + 1) % p)]->PushBatch(buf.data(), got);
    moved += static_cast<int64_t>(got) + (got == 0);
  }
  return (Now() - t0) * 1e9 / static_cast<double>(moved);
}

double ReplayRouteNsPerToken(const TrainSpec& spec) {
  const int p = spec.train.num_workers;
  const int batch = spec.train.token_batch_size;
  nomad::TokenRouter router(spec.train.routing, p);
  nomad::Rng rng(7);
  std::vector<int> out(static_cast<size_t>(batch));
  const auto probe = [](int) { return size_t{0}; };
  const nomad::TokenRouter::SizeProbe size_probe = probe;
  const int64_t rounds = 1'000'000;
  int64_t sink = 0;
  const double t0 = Now();
  for (int64_t i = 0; i < rounds; ++i) {
    router.PickBatch(static_cast<int>(i % p), &rng, size_probe, batch,
                     out.data());
    sink += out[0];
  }
  const double ns = (Now() - t0) * 1e9 / static_cast<double>(rounds * batch);
  return sink >= 0 ? ns : 0.0;
}

double ReplayOwnershipNsPerToken(int32_t cols) {
  nomad::RowOwnership owner(cols);
  std::vector<int32_t> order(static_cast<size_t>(cols));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(5));
  const int passes = std::max(1, 4'000'000 / std::max(cols, 1));
  const double t0 = Now();
  for (int pass = 0; pass < passes; ++pass) {
    for (const int32_t j : order) {
      owner.AcquireOrDie(j, pass & 3);
      owner.Release(j);
    }
  }
  return (Now() - t0) * 1e9 / (static_cast<double>(passes) * cols);
}

double ReplayRmseSeconds(const Dataset& ds, const TrainResult& r, int p) {
  nomad::ThreadPool pool(p);
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    const double t0 = Now();
    const double rmse = nomad::Rmse(ds.test, r.w, r.h, &pool);
    times.push_back(Now() - t0);
    NOMAD_CHECK(rmse > 0);
  }
  return Median(times);
}

// A token-sized row that drifts a little per hop, as SGD moves h_j.
struct DriftingRows {
  DriftingRows(int32_t cols, int k) : k(k), rows(static_cast<size_t>(cols)) {
    std::mt19937_64 rng(3);
    std::normal_distribution<double> dist(0.0, 0.2);
    for (auto& row : rows) {
      row.resize(static_cast<size_t>(k));
      for (double& v : row) v = dist(rng);
    }
  }
  const double* Hop(int32_t j) {
    auto& row = rows[static_cast<size_t>(j)];
    row[static_cast<size_t>(step++ % k)] *= 1.01;
    return row.data();
  }
  int k;
  int64_t step = 0;
  std::vector<std::vector<double>> rows;
};

void ReplayWire(const TrainSpec& spec, int32_t cols, Report* report) {
  const int k = spec.train.rank;
  DriftingRows rows(cols, k);
  std::vector<uint8_t> frame;
  const int n = 400'000;
  double encode = 0, decode = 0;
  int64_t sink = 0;
  for (int i = 0; i < n; ++i) {
    const int32_t j = i % cols;
    const double* row = rows.Hop(j);
    const double t0 = Now();
    net::EncodeFactorRow<double>(net::MsgType::kToken, j,
                                 static_cast<uint32_t>(i), row, k, &frame);
    const double t1 = Now();
    auto view = net::DecodeFactorRow<double>(frame.data(), frame.size());
    const double t2 = Now();
    NOMAD_CHECK(view.ok());
    sink += view.value().id;
    encode += t1 - t0;
    decode += t2 - t1;
  }
  report->Layer("wire.encode_ns_per_row", encode * 1e9 / n, "ns");
  report->Layer("wire.decode_ns_per_row", decode * 1e9 / n, "ns");
  NOMAD_CHECK(sink >= 0);
}

// A Transport that keeps what is sent and hands it back on receive, so
// the codec replay times the codec alone.
class TapeTransport final : public net::Transport {
 public:
  int rank() const override { return 0; }
  int world() const override { return 2; }
  nomad::Status Send(int, std::vector<uint8_t> frame) override {
    tape_.push_back(std::move(frame));
    return nomad::Status::OK();
  }
  bool TryReceive(std::vector<uint8_t>* frame, int* src) override {
    if (next_ >= tape_.size()) return false;
    *frame = std::move(tape_[next_++]);
    *src = 1;
    return true;
  }
  net::TransportStats stats() const override { return {}; }
  nomad::Status Close() override { return nomad::Status::OK(); }

  std::vector<std::vector<uint8_t>> tape_;
  size_t next_ = 0;
};

// CodecTransport Send / TryReceive under the workload's codec, over a
// transport that only records frames, with rows that drift between hops.
void ReplayCodec(const TrainSpec& spec, int32_t cols, Report* report) {
  const int k = spec.train.rank;
  net::CodecOptions copts;
  copts.spec = net::WireCodecSpec::Parse(spec.codec).value();
  TapeTransport tape;
  const int n = 200'000;
  tape.tape_.reserve(n);
  DriftingRows rows(cols, k);
  std::vector<uint32_t> version(static_cast<size_t>(cols), 0);
  std::vector<std::vector<uint8_t>> frames(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int32_t j = static_cast<int32_t>(i % cols);
    const uint32_t v = ++version[static_cast<size_t>(j)];
    net::EncodeFactorRow<double>(net::MsgType::kToken, j, v, rows.Hop(j), k,
                                 &frames[static_cast<size_t>(i)]);
  }
  double encode = 0, decode = 0;
  {
    net::CodecTransport tx(&tape, copts);
    const double t0 = Now();
    for (int i = 0; i < n; ++i) {
      NOMAD_CHECK(tx.Send(1, std::move(frames[static_cast<size_t>(i)])).ok());
    }
    encode = Now() - t0;
  }
  {
    net::CodecTransport rx(&tape, copts);
    std::vector<uint8_t> got;
    int src = -1;
    int received = 0;
    const double t0 = Now();
    while (rx.TryReceive(&got, &src)) ++received;
    decode = Now() - t0;
    NOMAD_CHECK(received == n) << received << " of " << n << " decoded";
  }
  report->Layer("codec.encode_ns_per_token", encode * 1e9 / n, "ns");
  report->Layer("codec.decode_ns_per_token", decode * 1e9 / n, "ns");
}

// A token-sized ping-pong over a TcpTransport pair.
void ReplayRtt(const TrainSpec& spec, double frame_bytes, Report* report) {
  auto mesh = ConnectMesh(spec, net::WireCodecSpec());
  const size_t size = static_cast<size_t>(std::max(16.0, frame_bytes));
  std::vector<uint8_t> frame(size, 0);
  frame[0] = static_cast<uint8_t>(net::MsgType::kToken);
  std::vector<uint8_t> got;
  int src = -1;
  std::vector<double> rtt;
  for (int i = 0; i < 2000; ++i) {
    const double t0 = Now();
    NOMAD_CHECK(mesh[0]->Send(1, frame).ok());
    while (!mesh[1]->TryReceive(&got, &src)) {
    }
    NOMAD_CHECK(mesh[1]->Send(0, got).ok());
    while (!mesh[0]->TryReceive(&got, &src)) {
    }
    rtt.push_back((Now() - t0) * 1e6);
  }
  for (auto& t : mesh) (void)t->Close();
  report->Layer("transport.rtt_us", Median(rtt), "us");
}

// -------------------------------------------------------------------------

// Per-layer metrics of the traced run, and the parts-add-up check.
void TraceTrain(const Dataset& ds, const TrainSpec& spec,
                const RunOptions& options, double generate_s,
                Report* report) {
  const int p = TotalWorkers(spec);
  // Untraced (registry off) and traced (registry on) jobs alternate; the
  // traced job's registry feeds the per-layer numbers.
  std::vector<double> off_wall_per_update, on_wall_per_update;
  std::unique_ptr<obs::MetricsRegistry> registry;
  Job traced;
  const double budget = options.seconds * 0.7;
  const double t_start = Now();
  for (int i = 0; i < 8; ++i) {
    if (i >= 4 && Now() - t_start > budget) break;
    const bool on = i % 2 == 1;
    auto reg = std::make_unique<obs::MetricsRegistry>(/*enabled=*/on);
    Job job = RunJob(ds, spec, reg.get(), /*time_sends=*/on);
    GateJob(ds, spec, job, report);
    if (!job.ok) return;
    const double per_update =
        job.wall_s / static_cast<double>(job.result.total_updates);
    (on ? on_wall_per_update : off_wall_per_update).push_back(per_update);
    if (on) {
      registry = std::move(reg);
      traced = std::move(job);
    }
  }
  const double off = Median(off_wall_per_update);
  const double on = Median(on_wall_per_update);
  const obs::MetricsSnapshot snap = registry->Snapshot();
  const TrainResult& r = traced.result;
  const double updates = static_cast<double>(r.total_updates);
  const double popped = snap.SumByName("nomad_worker_tokens_popped_total");
  const double rounds = snap.SumByName("nomad_worker_rounds_total");
  const double backoffs = snap.SumByName("nomad_worker_batch_backoffs_total");
  const MergedHistogram wait =
      MergeHistogram(snap, "nomad_worker_queue_wait_latency_seconds");
  const MergedHistogram service =
      MergeHistogram(snap, "nomad_worker_service_latency_seconds");
  const double busy_s = service.Mean() * popped;  // observed per token
  const double points = static_cast<double>(r.trace.size());

  // data
  report->Layer("data.generate_s", generate_s, "s");
  double shard_s = 0.0;
  nomad::ColumnShards shards;
  {
    std::vector<double> times;
    for (int i = 0; i < 3; ++i) {
      const double t0 = Now();
      const auto partition = nomad::UserPartition::ByRatings(ds.train, p);
      shards = nomad::ColumnShards::Build(ds.train, partition);
      times.push_back(Now() - t0);
    }
    shard_s = Median(times);
  }
  report->Layer("data.shard_build_s", shard_s, "s");

  // linalg / solver
  const double sgd_ns = ReplaySgdNsPerUpdate(ds, spec, shards);
  report->Layer("linalg.sgd_ns_per_update", sgd_ns, "ns");
  report->Layer("linalg.sgd_share",
                busy_s > 0 ? sgd_ns * 1e-9 * updates / busy_s : 0.0,
                "fraction");

  // queue
  const double queue_ns = ReplayQueueNsPerToken(spec, ds.cols);
  report->Layer("queue.push_pop_ns_per_token", queue_ns, "ns");
  report->Layer("queue.wait_p50_us", wait.QuantileOf(0.5) * 1e6, "us");
  report->Layer("queue.wait_p99_us", wait.QuantileOf(0.99) * 1e6, "us");
  report->Layer("queue.tokens_per_pop", rounds > 0 ? popped / rounds : 0.0,
                "count");
  report->Layer("queue.empty_pop_ratio", rounds > 0 ? backoffs / rounds : 0.0,
                "fraction");

  // nomad
  const double route_ns = ReplayRouteNsPerToken(spec);
  const double own_ns = ReplayOwnershipNsPerToken(ds.cols);
  report->Layer("nomad.route_ns_per_token", route_ns, "ns");
  report->Layer("nomad.ownership_ns_per_token", own_ns, "ns");
  report->Layer("nomad.service_p50_us", service.QuantileOf(0.5) * 1e6, "us");
  report->Layer("nomad.updates_per_token_visit",
                popped > 0 ? updates / popped : 0.0, "count");

  // eval
  const double rmse_s = ReplayRmseSeconds(ds, r, p);
  const double pause_s = traced.wall_s - r.total_seconds;
  report->Layer("eval.rmse_s", rmse_s, "s");
  report->Layer("eval.pause_share", pause_s / traced.wall_s, "fraction");

  // net
  double codec_ns = 0.0, tokens_sent = 0.0;
  if (spec.ranks > 1) {
    ReplayWire(spec, ds.cols, report);
    ReplayCodec(spec, ds.cols, report);
    for (const auto& t : r.rank_traffic) tokens_sent += t.tokens_sent;
    const double raw = snap.SumByName("nomad_dist_codec_raw_bytes_total");
    const double coded = snap.SumByName("nomad_dist_codec_coded_bytes_total");
    const double hits = snap.SumByName("nomad_dist_codec_delta_hits_total");
    const double full = snap.SumByName("nomad_dist_codec_delta_full_total");
    const double bytes_per_token =
        tokens_sent > 0 ? traced.transport_bytes / tokens_sent : 0.0;
    report->Layer("codec.bytes_per_token", bytes_per_token, "B");
    report->Layer("codec.compression_ratio", coded > 0 ? raw / coded : 0.0,
                  "ratio");
    report->Layer("codec.delta_hit_ratio",
                  hits + full > 0 ? hits / (hits + full) : 0.0, "fraction");
    report->Layer("transport.send_ns_per_frame",
                  traced.token_sends > 0
                      ? traced.token_send_s * 1e9 / traced.token_sends
                      : 0.0,
                  "ns");
    ReplayRtt(spec, coded > 0 && tokens_sent > 0 ? coded / tokens_sent : 64.0,
              report);
    report->Layer("transport.frames_per_token",
                  tokens_sent > 0 ? traced.transport_messages / tokens_sent
                                  : 0.0,
                  "count");
    report->Layer("transport.send_retries",
                  snap.SumByName("nomad_dist_send_retries_total"), "count");
    const MergedHistogram pump =
        MergeHistogram(snap, "nomad_dist_pump_round_latency_seconds");
    report->Layer("dist.pump_round_p50_us", pump.QuantileOf(0.5) * 1e6, "us");
    report->Layer("dist.pump_round_p99_us", pump.QuantileOf(0.99) * 1e6,
                  "us");
    // The pause at a trace point is the barrier protocol plus evaluation;
    // each rank evaluates its own half of the users.
    const double barrier_s =
        std::max(0.0, pause_s / points - rmse_s / spec.ranks);
    report->Layer("dist.barrier_s", barrier_s, "s");
    report->Layer("dist.barrier_share", barrier_s * points / traced.wall_s,
                  "fraction");
    report->Layer("dist.remote_token_fraction",
                  popped > 0 ? tokens_sent / popped : 0.0, "fraction");
    // A worker hands a remote token off by encoding the row, running the
    // codec and queueing the frame on the transport.
    codec_ns = report->layers["wire.encode_ns_per_row"].value +
               report->layers["codec.encode_ns_per_token"].value +
               report->layers["transport.send_ns_per_frame"].value;
  }

  // Parts add up, per update, in worker-thread seconds: p workers live for
  // the whole job, each either busy on a popped batch (the registry's
  // service histogram) or waiting for one (its queue-wait histogram, which
  // also holds trace-point pauses); shard building precedes the workers.
  // The busy part is then split into the replayed layer costs times their
  // counts; what they leave unexplained is time a busy worker was not
  // running its own layer code (descheduled, cache-cold rows).
  const double total = p * traced.wall_s / updates;
  const double busy = busy_s / updates;
  const double parts_wait = wait.sum / updates;
  const double parts_setup = p * shard_s / updates;
  const double unaccounted = 1.0 - (busy + parts_wait + parts_setup) / total;
  const double busy_sgd = sgd_ns * 1e-9;
  const double busy_handoff =
      (queue_ns + route_ns + own_ns) * 1e-9 * popped / updates;
  const double busy_remote = codec_ns * 1e-9 * tokens_sent / updates;
  const double busy_other = busy - busy_sgd - busy_handoff - busy_remote;
  const double saturation = traced.cpu_s / (options.nproc * traced.wall_s);
  report->Layer("addup.unaccounted_share", unaccounted, "fraction");
  report->Layer("addup.busy_unexplained_share", busy_other / busy, "fraction");
  report->Layer("addup.cpu_saturation", saturation, "fraction");
  report->Layer("addup.trace_overhead_share", (on - off) / off, "fraction");
  constexpr double kTolerance = 0.25;
  // Smoke-test sizes are too small for the accounting to settle.
  report->Gate("parts_add_up",
               options.tiny || std::abs(unaccounted) <= kTolerance,
               Fmt("per update: %.1f ns worker time = busy %.1f (sgd %.1f + "
                   "hand-off %.1f + remote send %.1f + unexplained %.1f) + "
                   "wait %.1f + shards %.1f + unaccounted %.1f%% (tolerance "
                   "%.0f%%); process CPU %.0f%% of %d cores",
                   total * 1e9, busy * 1e9, busy_sgd * 1e9,
                   busy_handoff * 1e9, busy_remote * 1e9, busy_other * 1e9,
                   parts_wait * 1e9, parts_setup * 1e9, 100 * unaccounted,
                   100 * kTolerance, 100 * saturation, options.nproc));
  report->Note(report->gates.back().detail);
  report->Note(Fmt("trace overhead: %.2f%% (wall per update %.3f ns traced, "
                   "%.3f ns untraced, medians of %zu/%zu jobs)",
                   100 * (on - off) / off, on * 1e9, off * 1e9,
                   on_wall_per_update.size(), off_wall_per_update.size()));

  // Sec. 3.2 calibration: a = seconds per update per dimension, c =
  // seconds per remote token; the simulator assumes 0.4 us per update.
  const int k = spec.train.rank;
  const double a = sgd_ns * 1e-9 / k;
  report->Layer("calib.a_s_per_update_dim", a, "s");
  report->Layer("calib.a_vs_simulator", a / (kSimSecondsPerUpdate / k),
                "ratio");
  std::string c_text = "no remote tokens in this workload";
  if (spec.ranks > 1) {
    const double c = (codec_ns +
                      report->layers["codec.decode_ns_per_token"].value +
                      report->layers["wire.decode_ns_per_row"].value) *
                     1e-9;
    report->Layer("calib.c_s_per_remote_token", c, "s");
    c_text = Fmt("c = %.3g s per remote token (wire + codec encode and "
                 "decode, transport send), one-way latency %.3g s; per visit "
                 "a*k*(updates/visit) = %.3g s vs c = %.3g s",
                 c, report->layers["transport.rtt_us"].value * 0.5e-6,
                 a * k * updates / std::max(popped, 1.0), c);
  }
  report->Note(Fmt("Sec. 3.2 calibration: a = %.3g s per update per "
                   "dimension (simulator: 4e-7/k = %.3g, ratio %.2f); %s",
                   a, kSimSecondsPerUpdate / k,
                   a / (kSimSecondsPerUpdate / k), c_text.c_str()));
}

Report RunTrain(const TrainSpec& spec, const RunOptions& options) {
  Report report;
  report.config = Describe(spec, options.seed);

  // Set-up: generate the inputs (and connect the mesh) several times.
  std::vector<double> setup, generate;
  std::vector<Dataset> datasets(static_cast<size_t>(spec.datasets));
  for (int i = 0; i < 3; ++i) {
    double gen_s = 0.0;
    const double t0 = Now();
    for (int d = 0; d < spec.datasets; ++d) {
      double one_s = 0.0;
      datasets[static_cast<size_t>(d)] =
          Generate(spec, options.seed + 1000003ULL * d, &one_s);
      gen_s += one_s;
    }
    if (spec.ranks > 1) {
      auto mesh = ConnectMesh(spec, net::WireCodecSpec::Parse(spec.codec)
                                        .value());
      for (auto& t : mesh) (void)t->Close();
    }
    setup.push_back(Now() - t0);
    generate.push_back(gen_s);
  }
  report.E2e("setup_s", Median(setup), "s");

  if (options.trace) {
    TraceTrain(datasets[0], spec, options, Median(generate), &report);
    return report;
  }

  obs::MetricsRegistry registry;
  std::vector<double> ups, final_rmse;
  std::vector<std::vector<double>> to_target(datasets.size());
  Job last;
  const double t_start = Now();
  for (size_t j = 0; j < 2 * datasets.size() || Now() - t_start < options.seconds;
       ++j) {
    if (ups.size() >= 50) break;
    const Dataset& ds = datasets[j % datasets.size()];
    Job job = RunJob(ds, spec, &registry);
    GateJob(ds, spec, job, &report);
    if (!job.ok) break;
    const TrainResult& r = job.result;
    ups.push_back(static_cast<double>(r.total_updates) / r.total_seconds);
    to_target[j % datasets.size()].push_back(
        UpdatesToRmse(r.trace, spec.rmse_target));
    final_rmse.push_back(r.trace.FinalRmse());
    last = std::move(job);
  }
  if (!last.ok) return report;
  const double updates_total =
      registry.Snapshot().SumByName("nomad_worker_updates_total");
  const double popped_total =
      registry.Snapshot().SumByName("nomad_worker_tokens_popped_total");
  // Time to the target at the run's update rate: the updates the model
  // needed (a property of the data and the algorithm, nearly the same in
  // every job on one dataset; averaged over the datasets) over the rate
  // the jobs sustained.
  const double rate = UpperQuartile(ups);
  double updates_to_target = 0.0;
  for (const auto& per_dataset : to_target) {
    updates_to_target += Median(per_dataset) / to_target.size();
  }
  report.E2e("updates_per_s", rate, "1/s");
  report.E2e("time_to_rmse_s", updates_to_target / rate, "s");
  report.E2e("final_rmse", Median(final_rmse), "rmse");
  if (spec.ranks > 1) {
    report.E2e("wire_bytes_per_update",
               static_cast<double>(last.transport_bytes) /
                   static_cast<double>(last.result.total_updates),
               "B");
  } else {
    // Shared memory moves no bytes over a wire; a hand-off passes the
    // token's h row (k doubles) to the next worker.
    report.E2e("wire_bytes_per_update",
               popped_total * spec.train.rank * sizeof(double) /
                   std::max(updates_total, 1.0),
               "B");
  }
  std::string trace_text;
  for (const auto& pt : last.result.trace.points()) {
    trace_text += Fmt(" %.3fs:%.4f", pt.seconds, pt.test_rmse);
  }
  report.Note("last job's test RMSE by training clock:" + trace_text);
  report.Note(Fmt("%zu training jobs of %d epochs: updates/s upper quartile "
                  "%.4g (min %.4g, median %.4g, max %.4g); RMSE %.3f after "
                  "%.4g updates (mean over datasets of the median); final "
                  "RMSE median %.5f",
                  ups.size(), spec.train.max_epochs, rate,
                  *std::min_element(ups.begin(), ups.end()), Median(ups),
                  *std::max_element(ups.begin(), ups.end()),
                  spec.rmse_target, updates_to_target, Median(final_rmse)));
  return report;
}

}  // namespace

Report RunTrainShm(const RunOptions& options) {
  return RunTrain(ShmSpec(options), options);
}

Report RunTrainTcp2(const RunOptions& options) {
  return RunTrain(Tcp2Spec(options), options);
}

}  // namespace perfbench
