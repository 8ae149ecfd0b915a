// nomad_cli — command-line front end to the library.
//
// Subcommands:
//   train     train a model on a ratings file (or synthetic preset) and
//             save it
//   evaluate  report RMSE/MAE of a saved model on a ratings file
//   topn      print the top-N recommendations for a user from a saved model
//   simulate  run one simulated-cluster training and print its trace
//   watch     live terminal dashboard over another process's /metrics
//   solvers   list available solver names
//
// Examples (an indented line continues the command above it):
//   nomad_cli train --input ratings.txt --model out.nomad --solver nomad
//             --rank 32 --epochs 15 --precision f32 --numa auto
//   nomad_cli train --preset netflix --scale 0.1 --model out.nomad
//   nomad_cli train --preset netflix --metrics-port 9090   # live scrape
//   nomad_cli train --preset netflix --trace-out run.jsonl
//             --metrics-sample-ms 250                      # run timeline
//   nomad_cli evaluate --input ratings.txt --model out.nomad
//   nomad_cli topn --model out.nomad --user 42 --n 10
//   nomad_cli simulate --preset yahoo --machines 32 --network commodity
//   nomad_cli watch --endpoint 127.0.0.1:9090              # refreshing
//   nomad_cli watch --endpoint :9090 --once                # one frame, CI
//
// --metrics-port N exports the process metrics registry over HTTP during
// training (Prometheus text format; N=0 binds an ephemeral port, printed
// at startup). --trace-out FILE writes the run timeline as JSONL;
// --metrics-sample-ms N adds background sampler rows between trace points.
// See docs/OBSERVABILITY.md for the metric reference and JSONL schema.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "bench_common.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "obs/metrics_server.h"
#include "obs/timeseries.h"
#include "obs/watch.h"
#include "sim/cluster.h"
#include "solver/model.h"
#include "solver/registry.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace nomad {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

// The union of every flag any subcommand accepts; ExpectKnown turns the
// silent-typo failure mode (`--metrics-prot`) into a startup error.
const std::vector<std::string> kKnownFlags = {
    // dataset flags (bench::LoadDatasetFromFlags contract)
    "input", "preset", "scale", "one-based", "test-fraction", "seed",
    // training
    "rank", "lambda", "alpha", "beta", "loss", "workers", "token-batch",
    "max-token-batch", "epochs", "max-seconds", "bold-driver", "precision",
    "numa", "solver", "model", "metrics-port",
    // timeline (train / simulate)
    "trace-out", "metrics-sample-ms",
    // topn
    "user", "n",
    // simulate
    "machines", "network",
    // watch
    "endpoint", "once", "interval-ms", "frames"};

// Dataset flags are shared with dist_nomad_cli through bench_common so
// both CLIs always produce identical train/test splits from identical
// flags.
Result<Dataset> LoadInput(const Flags& flags) {
  return bench::LoadDatasetFromFlags(flags);
}

Result<TrainOptions> OptionsFromFlags(const Flags& flags) {
  TrainOptions o;
  o.rank = static_cast<int>(flags.GetInt("rank", 16));
  o.lambda = flags.GetDouble("lambda", 0.05);
  o.alpha = flags.GetDouble("alpha", 0.05);
  o.beta = flags.GetDouble("beta", 0.01);
  o.loss = flags.GetString("loss", "squared");
  o.num_workers = static_cast<int>(flags.GetInt("workers", 4));
  // --token-batch takes a number (fixed batch) or "auto" (per-worker
  // runtime autotuning, nomad/batch_controller.h); --max-token-batch caps
  // what auto mode may grow to.
  const std::string token_batch = flags.GetString("token-batch", "8");
  if (!token_batch.empty() &&
      token_batch.find_first_not_of("0123456789") == std::string::npos) {
    o.token_batch_size = static_cast<int>(flags.GetInt("token-batch", 8));
  } else {
    auto mode = ParseTokenBatchMode(token_batch);
    if (!mode.ok()) return mode.status();
    o.token_batch_mode = mode.value();
  }
  o.max_token_batch = static_cast<int>(flags.GetInt("max-token-batch", 32));
  o.max_epochs = static_cast<int>(flags.GetInt("epochs", 10));
  o.max_seconds = flags.GetDouble("max-seconds", -1.0);
  o.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  o.bold_driver = flags.GetBool("bold-driver", false);
  auto precision = ParsePrecision(flags.GetString("precision", "f64"));
  if (!precision.ok()) return precision.status();
  o.precision = precision.value();
  auto numa = ParseNumaPolicy(flags.GetString("numa", "auto"));
  if (!numa.ok()) return numa.status();
  o.numa_policy = numa.value();
  return o;
}

int CmdSolvers() {
  std::printf("shared-memory solvers:\n");
  for (const auto& name : SolverNames()) std::printf("  %s\n", name.c_str());
  std::printf("simulated distributed solvers:\n");
  for (const auto& name : SimSolverNames()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

/// Starts the scrape endpoint when --metrics-port is given (0 = ephemeral,
/// the bound port is printed). Serves the process Default() registry — the
/// one a solver instruments when TrainOptions::metrics is null — so under
/// NOMAD_METRICS=off the exposition is empty by design.
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

int CmdTrain(const Flags& flags) {
  auto ds = LoadInput(flags);
  if (!ds.ok()) return Fail(ds.status().ToString());
  const std::string solver_name = flags.GetString("solver", "nomad");
  auto solver = MakeSolver(solver_name);
  if (!solver.ok()) return Fail(solver.status().ToString());
  auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status().ToString());
  // The CLI owns the run timeline (over the same registry the solver
  // instruments) so the scrape endpoint can serve /timeseries while the
  // run is still going; the solver records into it at every trace point.
  // Declared before the server so it outlives the serving thread.
  obs::RunTimeline timeline(obs::ResolveRegistry(nullptr));
  auto metrics_server = MaybeServeMetrics(flags);
  if (!metrics_server.ok()) return Fail(metrics_server.status().ToString());
  options.value().timeline = &timeline;
  options.value().metrics_sample_ms =
      static_cast<int>(flags.GetInt("metrics-sample-ms", 0));
  if (metrics_server.value() != nullptr) {
    metrics_server.value()->AttachTimeline(&timeline);
  }
  std::printf("training %s (%s) on %s (%lld train / %lld test ratings)\n",
              solver_name.c_str(),
              PrecisionName(options.value().precision),
              ds.value().name.c_str(),
              static_cast<long long>(ds.value().train_nnz()),
              static_cast<long long>(ds.value().test_nnz()));
  auto result = solver.value()->Train(ds.value(), options.value());
  if (!result.ok()) return Fail(result.status().ToString());
  for (const TracePoint& p : result.value().trace.points()) {
    std::printf("  %.2fs  %12lld updates  test RMSE %.4f\n", p.seconds,
                static_cast<long long>(p.updates), p.test_rmse);
  }
  if (options.value().token_batch_mode == TokenBatchMode::kAuto) {
    for (const WorkerBatchStats& s : result.value().worker_batch) {
      std::printf(
          "  worker %d: token batch %d final (mean %.1f, range [%d, %d], "
          "%lld grows / %lld shrinks over %lld rounds)\n",
          s.worker, s.final_batch, s.mean_batch, s.min_batch_seen,
          s.max_batch_seen, static_cast<long long>(s.grows),
          static_cast<long long>(s.shrinks),
          static_cast<long long>(s.rounds));
    }
  }
  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) {
    const Status s =
        obs::WriteTimelineJsonl(result.value().timeline, trace_out);
    if (!s.ok()) return Fail(s.ToString());
    std::printf("timeline (%zu rows) written to %s\n",
                result.value().timeline.size(), trace_out.c_str());
  }
  const std::string model_path = flags.GetString("model");
  if (!model_path.empty()) {
    Model model{std::move(result.value().w), std::move(result.value().h)};
    const Status s = SaveModel(model, model_path);
    if (!s.ok()) return Fail(s.ToString());
    std::printf("model saved to %s\n", model_path.c_str());
  }
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  auto model = LoadModel(flags.GetString("model"));
  if (!model.ok()) return Fail(model.status().ToString());
  auto ds = LoadInput(flags);
  if (!ds.ok()) return Fail(ds.status().ToString());
  const Model& m = model.value();
  if (m.users() < ds.value().rows || m.items() < ds.value().cols) {
    return Fail("model is smaller than the dataset's index space");
  }
  std::printf("test  RMSE %.4f   MAE %.4f   sign-accuracy %.4f\n",
              Rmse(ds.value().test, m.w, m.h), Mae(ds.value().test, m),
              SignAccuracy(ds.value().test, m));
  std::printf("train RMSE %.4f\n", Rmse(ds.value().train, m.w, m.h));
  return 0;
}

int CmdTopN(const Flags& flags) {
  auto model = LoadModel(flags.GetString("model"));
  if (!model.ok()) return Fail(model.status().ToString());
  const int32_t user = static_cast<int32_t>(flags.GetInt("user", 0));
  const int n = static_cast<int>(flags.GetInt("n", 10));
  if (user < 0 || user >= model.value().users()) {
    return Fail("user id out of range");
  }
  std::printf("top-%d items for user %d:\n", n, user);
  for (const ScoredItem& item : TopN(model.value(), user, n)) {
    std::printf("  item %-8d score %+.4f\n", item.item, item.score);
  }
  return 0;
}

int CmdSimulate(const Flags& flags) {
  const std::string preset = flags.GetString("preset", "netflix");
  const std::string solver_name = flags.GetString("solver", "sim_nomad");
  const int machines = static_cast<int>(flags.GetInt("machines", 8));
  const int rank = static_cast<int>(flags.GetInt("rank", 16));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 10));
  const bool commodity =
      flags.GetString("network", "hpc") == "commodity";
  const Dataset ds =
      bench::GetDataset(preset, flags.GetDouble("scale", 0.25));
  SimOptions options = bench::MakeSimOptions(
      commodity ? bench::Preset::kCommodity : bench::Preset::kHpc, preset,
      solver_name, machines, rank, epochs);
  // The simulator runs in virtual time with no registry instrumentation,
  // so its timeline rows carry trace fields with empty deltas.
  obs::RunTimeline timeline(nullptr);
  options.train.timeline = &timeline;
  auto solver = MakeSimSolver(solver_name);
  if (!solver.ok()) return Fail(solver.status().ToString());
  auto result = solver.value()->Train(ds, options);
  if (!result.ok()) return Fail(result.status().ToString());
  const SimResult& r = result.value();
  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) {
    const Status s = obs::WriteTimelineJsonl(r.train.timeline, trace_out);
    if (!s.ok()) return Fail(s.ToString());
    std::printf("timeline (%zu rows) written to %s\n",
                r.train.timeline.size(), trace_out.c_str());
  }
  std::printf("%s on %s, %d machines (%s network):\n", solver_name.c_str(),
              ds.name.c_str(), machines, commodity ? "commodity" : "hpc");
  for (const TracePoint& p : r.train.trace.points()) {
    std::printf("  vt=%.5fs  %12lld updates  test RMSE %.4f\n", p.seconds,
                static_cast<long long>(p.updates), p.test_rmse);
  }
  std::printf("network: %lld messages, %s\n",
              static_cast<long long>(r.messages),
              HumanBytes(static_cast<uint64_t>(r.bytes)).c_str());
  if (r.busy_seconds > 0) {
    std::printf("worker utilization: %.1f%%\n",
                100.0 * r.Utilization(machines *
                                      options.cluster.compute_cores));
  }
  return 0;
}

/// `watch` — live dashboard over another process's scrape endpoint.
/// --once renders exactly one frame (CI smoke); --frames N stops after N.
int CmdWatch(const Flags& flags) {
  obs::WatchOptions options;
  options.endpoint = flags.GetString("endpoint", "127.0.0.1:9090");
  options.interval_ms = static_cast<int>(flags.GetInt("interval-ms", 1000));
  options.frames = static_cast<int>(flags.GetInt("frames", 0));
  options.once = flags.GetBool("once", false);
  return obs::RunWatch(options);
}

int Usage() {
  std::printf(
      "usage: nomad_cli <train|evaluate|topn|simulate|watch|solvers> "
      "[flags]\n"
      "see the header of tools/nomad_cli.cc for examples\n");
  return 1;
}

}  // namespace
}  // namespace nomad

int main(int argc, char** argv) {
  using namespace nomad;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags;
  NOMAD_CHECK(flags.Parse(argc - 1, argv + 1).ok());
  const Status known = flags.ExpectKnown(kKnownFlags);
  if (!known.ok()) return Fail(known.ToString());
  if (command == "solvers") return CmdSolvers();
  if (command == "train") return CmdTrain(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "topn") return CmdTopN(flags);
  if (command == "simulate") return CmdSimulate(flags);
  if (command == "watch") return CmdWatch(flags);
  return Usage();
}
