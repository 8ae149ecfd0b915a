// dist_nomad_cli — launcher for multi-process distributed NOMAD.
//
// Two modes:
//
//   Loopback (one process, rank-per-thread; tests/CI/single host):
//     dist_nomad_cli --world=4 --preset netflix --scale 0.1 --epochs 10
//
//   TCP (one process per rank; --peers lists every rank's host:port in
//   rank order, and every process must be given the same dataset flags;
//   an indented line continues the command above it):
//     dist_nomad_cli --rank=0 --world=2 --peers=127.0.0.1:9600,127.0.0.1:9601
//                    --preset netflix --scale 0.1
//     dist_nomad_cli --rank=1 --world=2 --peers=127.0.0.1:9600,127.0.0.1:9601
//                    --preset netflix --scale 0.1
//
// NOTE: --rank is the *process rank*; the latent dimensionality flag is
// --k here (unlike nomad_cli's --rank), since both meanings collide.
//
// Other flags: --input/--preset/--scale/--test-fraction (dataset, as in
// nomad_cli), --k, --lambda, --alpha, --beta, --workers (per rank),
// --epochs, --max-seconds, --seed, --precision, --token-batch,
// --max-token-batch, --numa, --remote-fraction (cross-rank hand-off
// probability, default uniform-global), --model (rank 0 saves the gathered
// model there).
//
// Wire codec: --wire-codec selects the payload-compression stages stacked
// over the transport (net/codec.h): "none" (default) or "+"-joined stages
// out of bf16|f16|delta|batch, e.g. --wire-codec=bf16+delta. Every rank of
// a job must pass the same value; the TCP handshake refuses mismatches.
//
// Observability: --metrics-port N exports the process metrics registry
// over HTTP while training (Prometheus text; N=0 binds an ephemeral port,
// printed at startup). In loopback mode one endpoint serves every rank —
// the rank="r" labels keep the series apart; in TCP mode each process
// serves its own rank (give each a distinct port). --trace-out FILE makes
// rank 0 write the coordinator's run timeline as JSONL after training;
// --metrics-sample-ms N adds background sampler rows between trace points
// and makes the endpoint's /timeseries live during the run. See
// docs/OBSERVABILITY.md for the metric reference and JSONL schema.
//
// Fault tolerance: --heartbeat-interval / --heartbeat-timeout (seconds)
// turn on liveness detection, which lets the job survive rank deaths (the
// survivors re-own the dead rank's tokens and users and continue
// degraded). --fault-plan injects a deterministic fault schedule (see
// net/fault_transport.h), e.g.
//   --fault-plan=rank=2,kill-after-seconds=1.5      kill rank 2 mid-run
//   --fault-plan=drop=0.05,seed=7                   5% send drops, all ranks
// In loopback mode the plan targets the in-process endpoint(s); in TCP
// mode it applies when this process's --rank matches (or always, if the
// plan names no rank).

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/dist_nomad.h"
#include "net/fault_transport.h"
#include "net/loopback_transport.h"
#include "net/tcp_transport.h"
#include "obs/metrics_server.h"
#include "obs/timeseries.h"
#include "solver/model.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nomad {
namespace {

using net::DistNomadOptions;
using net::DistNomadSolver;
using net::FaultPlan;
using net::HeartbeatOptions;
using net::TcpPeer;
using net::TcpTransport;
using net::Transport;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

// Same dataset flags as nomad_cli, via the shared bench_common helper —
// a dist-trained model must be evaluable by nomad_cli on the same split.
Result<Dataset> LoadInput(const Flags& flags) {
  return bench::LoadDatasetFromFlags(flags);
}

Result<DistNomadOptions> OptionsFromFlags(const Flags& flags) {
  DistNomadOptions o;
  TrainOptions& t = o.train;
  t.rank = static_cast<int>(flags.GetInt("k", 16));
  t.lambda = flags.GetDouble("lambda", 0.05);
  t.alpha = flags.GetDouble("alpha", 0.05);
  t.beta = flags.GetDouble("beta", 0.01);
  t.loss = flags.GetString("loss", "squared");
  t.num_workers = static_cast<int>(flags.GetInt("workers", 2));
  const std::string token_batch = flags.GetString("token-batch", "8");
  if (!token_batch.empty() &&
      token_batch.find_first_not_of("0123456789") == std::string::npos) {
    t.token_batch_size = static_cast<int>(flags.GetInt("token-batch", 8));
  } else {
    auto mode = ParseTokenBatchMode(token_batch);
    if (!mode.ok()) return mode.status();
    t.token_batch_mode = mode.value();
  }
  t.max_token_batch = static_cast<int>(flags.GetInt("max-token-batch", 32));
  t.max_epochs = static_cast<int>(flags.GetInt("epochs", 10));
  t.max_seconds = flags.GetDouble("max-seconds", -1.0);
  t.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  auto precision = ParsePrecision(flags.GetString("precision", "f64"));
  if (!precision.ok()) return precision.status();
  t.precision = precision.value();
  auto numa = ParseNumaPolicy(flags.GetString("numa", "auto"));
  if (!numa.ok()) return numa.status();
  t.numa_policy = numa.value();
  o.remote_token_fraction = flags.GetDouble("remote-fraction", -1.0);
  auto codec = net::WireCodecSpec::Parse(flags.GetString("wire-codec", "none"));
  if (!codec.ok()) return codec.status();
  o.wire_codec = codec.value();
  return o;
}

void PrintResult(const TrainResult& r, int rank) {
  if (rank != 0) return;  // one report per job; rank 0 has the global view
  for (const TracePoint& p : r.trace.points()) {
    std::printf("  %.2fs  %12lld updates  test RMSE %.4f\n", p.seconds,
                static_cast<long long>(p.updates), p.test_rmse);
  }
}

/// The satellite traffic table: one row per rank (all ranks at rank 0,
/// just itself elsewhere), mirroring the worker-batch printout.
void PrintTrafficTable(const TrainResult& r) {
  if (r.rank_traffic.empty()) return;
  std::printf("rank   tokens_sent   tokens_recv     bytes_sent     bytes_recv\n");
  for (const RankTrafficStats& t : r.rank_traffic) {
    std::printf("%4d  %12lld  %12lld  %13s  %13s\n", t.rank,
                static_cast<long long>(t.tokens_sent),
                static_cast<long long>(t.tokens_received),
                HumanBytes(static_cast<uint64_t>(t.bytes_sent)).c_str(),
                HumanBytes(static_cast<uint64_t>(t.bytes_received)).c_str());
  }
}

/// One parseable line for harnesses comparing codec configurations (the CI
/// dist-smoke asserts bytes/token strictly decreases as stages are added).
/// Bytes are the transport's own count — framing, control plane, and codec
/// savings all included — so the ratio reflects what actually hit the wire.
void PrintCodecSummary(const TrainResult& r, const net::WireCodecSpec& spec) {
  int64_t tokens = 0;
  int64_t bytes = 0;
  for (const RankTrafficStats& t : r.rank_traffic) {
    tokens += t.tokens_sent;
    bytes += t.bytes_sent;
  }
  if (tokens <= 0) return;
  std::printf(
      "wire-codec %s: tokens_sent=%lld bytes_sent=%lld bytes_per_token=%.1f\n",
      spec.ToString().c_str(), static_cast<long long>(tokens),
      static_cast<long long>(bytes),
      static_cast<double>(bytes) / static_cast<double>(tokens));
}

int FinishRankZero(const Flags& flags, TrainResult result) {
  PrintTrafficTable(result);
  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) {
    const Status s = obs::WriteTimelineJsonl(result.timeline, trace_out);
    if (!s.ok()) return Fail(s.ToString());
    std::printf("timeline (%zu rows) written to %s\n",
                result.timeline.size(), trace_out.c_str());
  }
  const std::string model_path = flags.GetString("model");
  if (!model_path.empty()) {
    Model model{std::move(result.w), std::move(result.h)};
    const Status s = SaveModel(model, model_path);
    if (!s.ok()) return Fail(s.ToString());
    std::printf("model saved to %s\n", model_path.c_str());
  }
  return 0;
}

/// Heartbeat flags; off by default, and --fault-plan with a kill schedule
/// requires them (a killed rank is only survivable when peers can detect
/// the death).
HeartbeatOptions HeartbeatFromFlags(const Flags& flags) {
  HeartbeatOptions hb;
  hb.interval_seconds = flags.GetDouble("heartbeat-interval", 0.0);
  hb.timeout_seconds = flags.GetDouble("heartbeat-timeout", 0.0);
  return hb;
}

/// Starts the scrape endpoint when --metrics-port is given (0 = ephemeral,
/// the bound port is printed). Serves the process Default() registry; the
/// solvers label every series with rank="r", so one loopback endpoint
/// cleanly serves the whole world.
Result<std::unique_ptr<obs::MetricsServer>> MaybeServeMetrics(
    const Flags& flags) {
  if (!flags.Has("metrics-port")) {
    return std::unique_ptr<obs::MetricsServer>();
  }
  auto server = obs::MetricsServer::Start(
      static_cast<int>(flags.GetInt("metrics-port", 0)));
  if (server.ok()) {
    std::printf("metrics on http://127.0.0.1:%d/metrics\n",
                server.value()->port());
  }
  return server;
}

int RunLoopback(const Flags& flags, const Dataset& ds,
                const DistNomadOptions& options, int world,
                const FaultPlan* plan) {
  std::printf("loopback world=%d (%d workers/rank) on %s\n", world,
              options.train.num_workers, ds.name.c_str());
  // Rank 0 (the coordinator thread) records into this timeline; attaching
  // it to the scrape endpoint makes /timeseries live while training.
  // Declared before the server so it outlives the serving thread.
  obs::RunTimeline timeline(obs::ResolveRegistry(nullptr));
  auto metrics_server = MaybeServeMetrics(flags);
  if (!metrics_server.ok()) return Fail(metrics_server.status().ToString());
  DistNomadOptions opts = options;
  opts.train.timeline = &timeline;
  opts.train.metrics_sample_ms =
      static_cast<int>(flags.GetInt("metrics-sample-ms", 0));
  if (metrics_server.value() != nullptr) {
    metrics_server.value()->AttachTimeline(&timeline);
  }
  const HeartbeatOptions hb = HeartbeatFromFlags(flags);
  auto fabric = hb.enabled() ? net::MakeLoopbackFabric(world, hb)
                             : net::MakeLoopbackFabric(world);
  if (plan != nullptr) net::ApplyFaultPlan(&fabric, *plan);
  auto results = net::TrainWorld(ds, opts, &fabric);
  for (int r = 0; r < world; ++r) {
    if (results[static_cast<size_t>(r)].ok()) continue;
    // A rank the fault plan killed is *supposed* to fail; the job result
    // is the survivors'. Any other rank error is a real failure.
    const bool planned_death =
        plan != nullptr && plan->kills() &&
        (plan->target_rank < 0 || plan->target_rank == r) && r != 0;
    if (!planned_death) {
      return Fail("rank " + std::to_string(r) + ": " +
                  results[static_cast<size_t>(r)].status().ToString());
    }
    std::printf("rank %d died by fault plan: %s\n", r,
                results[static_cast<size_t>(r)].status().message().c_str());
  }
  if (!results[0].ok()) return Fail(results[0].status().ToString());
  for (int r : results[0].value().dead_ranks) {
    std::printf("rank %d was declared dead and recovered from\n", r);
  }
  PrintResult(results[0].value(), 0);
  PrintCodecSummary(results[0].value(), options.wire_codec);
  return FinishRankZero(flags, std::move(results[0]).value());
}

int RunTcp(const Flags& flags, const Dataset& ds,
           const DistNomadOptions& options, int rank, int world,
           const FaultPlan* plan) {
  const std::string peers_flag = flags.GetString("peers");
  const std::vector<std::string_view> specs = SplitFields(peers_flag, ",");
  if (static_cast<int>(specs.size()) != world) {
    return Fail("--peers must list exactly world=" + std::to_string(world) +
                " host:port entries");
  }
  std::vector<TcpPeer> peers;
  for (const std::string_view spec : specs) {
    auto peer = net::ParseTcpPeer(std::string(spec));
    if (!peer.ok()) return Fail(peer.status().ToString());
    peers.push_back(peer.value());
  }
  net::TcpOptions topts;
  topts.hello_k = options.train.rank;
  topts.hello_f32 = options.train.precision == Precision::kF32;
  topts.hello_codec = options.wire_codec.ToByte();
  topts.connect_timeout_seconds =
      flags.GetDouble("connect-timeout", 30.0);
  topts.heartbeat = HeartbeatFromFlags(flags);
  auto listened = TcpTransport::Listen(
      rank, world, peers[static_cast<size_t>(rank)].port, topts);
  if (!listened.ok()) return Fail(listened.status().ToString());
  std::printf("rank %d/%d listening on port %d, connecting mesh...\n", rank,
              world, listened.value()->listen_port());
  const Status established = listened.value()->Establish(peers);
  if (!established.ok()) return Fail(established.ToString());
  std::unique_ptr<Transport> transport = std::move(listened).value();
  if (plan != nullptr && (plan->target_rank < 0 || plan->target_rank == rank)) {
    std::printf("rank %d runs under fault plan\n", rank);
    transport = std::make_unique<net::FaultInjectingTransport>(
        std::move(transport), *plan);
  }
  std::printf("mesh up; training %s (%d workers/rank)\n", ds.name.c_str(),
              options.train.num_workers);
  // The solver honours an external timeline on rank 0 only (the
  // coordinator owns the trace), so only rank 0's endpoint gets a live
  // /timeseries; other ranks' endpoints answer 404 there.
  obs::RunTimeline timeline(obs::ResolveRegistry(nullptr));
  auto metrics_server = MaybeServeMetrics(flags);
  if (!metrics_server.ok()) return Fail(metrics_server.status().ToString());
  DistNomadOptions opts = options;
  opts.train.metrics_sample_ms =
      static_cast<int>(flags.GetInt("metrics-sample-ms", 0));
  if (rank == 0) {
    opts.train.timeline = &timeline;
    if (metrics_server.value() != nullptr) {
      metrics_server.value()->AttachTimeline(&timeline);
    }
  }
  DistNomadSolver solver;
  auto result = solver.Train(ds, opts, transport.get());
  if (!result.ok()) return Fail(result.status().ToString());
  for (int r : result.value().dead_ranks) {
    std::printf("rank %d was declared dead and recovered from\n", r);
  }
  PrintResult(result.value(), rank);
  if (rank == 0) PrintCodecSummary(result.value(), options.wire_codec);
  const Status closed = transport->Close();
  if (!closed.ok()) return Fail(closed.ToString());
  if (rank == 0) return FinishRankZero(flags, std::move(result).value());
  PrintTrafficTable(result.value());  // non-zero ranks report themselves
  return 0;
}

int Usage() {
  std::printf(
      "usage: dist_nomad_cli --world=N [--rank=R --peers=h:p,...] "
      "(--input <file> | --preset <name>) [flags]\n"
      "see the header of tools/dist_nomad_cli.cc for the full flag list\n");
  return 1;
}

// The union of every flag this CLI accepts; ExpectKnown turns the
// silent-typo failure mode (`--metrics-prot`) into a startup error.
const std::vector<std::string> kKnownFlags = {
    // dataset flags (bench::LoadDatasetFromFlags contract)
    "input", "preset", "scale", "one-based", "test-fraction", "seed",
    // training
    "k", "rank", "lambda", "alpha", "beta", "loss", "workers",
    "token-batch", "max-token-batch", "epochs", "max-seconds", "precision",
    "numa", "model", "metrics-port", "trace-out", "metrics-sample-ms",
    // distributed topology + fault tolerance
    "world", "peers", "remote-fraction", "wire-codec", "connect-timeout",
    "heartbeat-interval", "heartbeat-timeout", "fault-plan"};

int Run(int argc, char** argv) {
  Flags flags;
  NOMAD_CHECK(flags.Parse(argc, argv).ok());  // Parse skips argv[0] itself
  const Status known = flags.ExpectKnown(kKnownFlags);
  if (!known.ok()) return Fail(known.ToString());
  const int world = static_cast<int>(flags.GetInt("world", 0));
  if (world < 1) return Usage();
  auto ds = LoadInput(flags);
  if (!ds.ok()) return Fail(ds.status().ToString());
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status().ToString());
  FaultPlan plan;
  bool have_plan = false;
  const std::string plan_spec = flags.GetString("fault-plan");
  if (!plan_spec.empty()) {
    auto parsed = net::ParseFaultPlan(plan_spec);
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    plan = parsed.value();
    have_plan = true;
    if (plan.kills() && !HeartbeatFromFlags(flags).enabled()) {
      return Fail(
          "a killing --fault-plan needs --heartbeat-interval: without "
          "liveness detection the survivors would hang, not recover");
    }
  }
  if (!flags.Has("rank")) {
    return RunLoopback(flags, ds.value(), options.value(), world,
                       have_plan ? &plan : nullptr);
  }
  const int rank = static_cast<int>(flags.GetInt("rank", -1));
  if (rank < 0 || rank >= world) {
    return Fail("--rank must be in [0, world)");
  }
  return RunTcp(flags, ds.value(), options.value(), rank, world,
                have_plan ? &plan : nullptr);
}

}  // namespace
}  // namespace nomad

int main(int argc, char** argv) {
  using namespace nomad;
  if (argc < 2) return Usage();
  return Run(argc, argv);
}
