// The serve-rw workload: reads beside writes on the same rows.
//
// A ServeEngine over 20k users x 20k items (k=32) behind a ServeServer.
// Open-loop top-N queries with Zipf-skewed users run over a few pipelined
// connections at fixed rates while rating writes stream at one fixed rate
// through RatingIngest. This exercises the scan kernel, the seqlocks,
// cache invalidation, the ingest CAS path and the line-protocol server;
// the training layers sit idle.
//
// The factors start where training would (uniform in [0, 1/sqrt(k))) and
// a burst of a planted dataset's ratings is first folded in by the ingest
// path's ApplyRating, so the run also reports how fast the live model
// absorbs new ratings (updates_per_s, time_to_rmse_s, final_rmse).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "linalg/score_ops.h"
#include "serve/row_sync.h"
#include "serve_load.h"
#include "solver/solver.h"
#include "util/logging.h"

namespace perfbench {
namespace {

using nomad::Dataset;
namespace obs = nomad::obs;

struct ServeSpec {
  nomad::SyntheticConfig data;
  int rank = 32;
  ServePlan plan;
  int64_t chunk = 20000;     // ratings per ingest chunk between evaluations
  int passes = 4;            // passes of the burst over the ratings
  int datasets = 3;          // planted datasets drawn from the seed
  double rmse_target = 0.0;  // time_to_rmse_s threshold of the burst
  double rmse_bound = 0.0;   // final_rmse quality gate
  double burst_share = 0.3;  // share of --seconds for the apply burst
};

ServeSpec Spec(const RunOptions& o) {
  ServeSpec s;
  s.data.name = "serve-rw";
  s.data.rows = o.tiny ? 2000 : 20000;
  s.data.cols = o.tiny ? 2000 : 20000;
  s.data.nnz = o.tiny ? 40000 : 400000;
  s.data.true_rank = 10;
  s.data.noise_std = 0.1;
  s.data.test_fraction = 0.1;
  s.chunk = o.tiny ? 4000 : 20000;
  // The live model's held-out RMSE falls steeply over the first ~100k
  // ratings (0.417, 0.387, 0.375, 0.368, 0.363, 0.360 per 20k) and then
  // flattens near 0.33; seeds differ by ~0.002, so the target sits early,
  // where that moves the crossing least.
  s.rmse_target = o.tiny ? 0.39 : 0.38;
  s.rmse_bound = o.tiny ? 0.45 : 0.350;
  s.plan.ref_qps = o.tiny ? 500 : 1000;
  s.plan.ref_seconds = o.tiny ? 2.0 : 6.0;
  s.plan.write_qps = 1000;
  s.plan.ladder = o.tiny ? std::vector<double>{500}
                         : std::vector<double>{1000, 2000, 3000, 4000, 5000,
                                               6000, 8000};
  s.plan.rung_seconds = 2.0;
  s.plan.slo_p99_ms = 10.0;
  s.plan.appliers = 2;
  s.plan.query_conns = std::max(1, std::min(4, o.nproc) - 1);
  return s;
}

std::string Describe(const ServeSpec& s, uint64_t seed) {
  std::string ladder;
  for (double r : s.plan.ladder) ladder += Fmt("%g,", r);
  return Fmt("serve-rw %dx%d nnz=%lld seed=%llu k=%d ref=%g/%gs writes=%g "
             "ladder=%s rung=%gs slo=%gms zipf=%g appliers=%d conns=%d "
             "chunk=%lld passes=%d datasets=%d target=%g bound=%g",
             s.data.rows, s.data.cols, static_cast<long long>(s.data.nnz),
             static_cast<unsigned long long>(seed), s.rank, s.plan.ref_qps,
             s.plan.ref_seconds, s.plan.write_qps, ladder.c_str(),
             s.plan.rung_seconds, s.plan.slo_p99_ms, s.plan.zipf_s,
             s.plan.appliers, s.plan.query_conns,
             static_cast<long long>(s.chunk), s.passes, s.datasets,
             s.rmse_target, s.rmse_bound);
}

nomad::Model InitialModel(const Dataset& ds, int rank, uint64_t seed) {
  nomad::TrainOptions options;
  options.rank = rank;
  options.seed = seed;
  nomad::Model model;
  nomad::InitFactors(ds, options, &model.w, &model.h);
  return model;
}

struct BurstResult {
  double ratings_to_target = -1.0;  // interpolated between chunks
  double final_rmse = 0.0;
  std::vector<double> chunk_rates;  // ratings per second of each chunk
};

// Folds the training ratings into the live model in chunks with the
// ingest path's appliers (ServeEngine::ApplyRating from plan.appliers
// threads), evaluating the quiesced model between chunks.
BurstResult RunApplyBurst(nomad::serve::ServeEngine* engine,
                          const Dataset& ds, const ServeSpec& spec,
                          double budget_s, uint64_t seed, Report* report) {
  struct Rating {
    int32_t user, item;
    float value;
  };
  std::vector<Rating> ratings;
  ratings.reserve(static_cast<size_t>(ds.train.nnz()));
  for (int32_t i = 0; i < ds.rows; ++i) {
    const int32_t* cols = ds.train.RowCols(i);
    const float* values = ds.train.RowVals(i);
    for (int32_t t = 0; t < ds.train.RowNnz(i); ++t) {
      ratings.push_back({i, cols[t], values[t]});
    }
  }
  std::shuffle(ratings.begin(), ratings.end(), std::mt19937_64(seed));

  BurstResult burst;
  const int appliers = spec.plan.appliers;
  double clock = 0.0;
  int64_t applied = 0;
  int64_t failed = 0;
  double prev_rmse = nomad::Rmse(ds.test, engine->QuiescedModel().w,
                                 engine->QuiescedModel().h);
  int64_t prev_applied = 0;
  double rmse = prev_rmse;
  std::string trajectory = Fmt("0:%.4f", rmse);
  const double t_start = Now();
  const size_t total = ratings.size() * static_cast<size_t>(spec.passes);
  for (size_t begin = 0; begin < total;
       begin += static_cast<size_t>(spec.chunk)) {
    if (applied > 0 && Now() - t_start > budget_s) break;
    const size_t end =
        std::min(total, begin + static_cast<size_t>(spec.chunk));
    std::atomic<int64_t> chunk_failed{0};
    const double t0 = Now();
    std::vector<std::thread> threads;
    for (int a = 0; a < appliers; ++a) {
      threads.emplace_back([&, a] {
        for (size_t i = begin + static_cast<size_t>(a); i < end;
             i += static_cast<size_t>(appliers)) {
          const Rating& r = ratings[i % ratings.size()];
          if (!engine->ApplyRating(r.user, r.item, r.value, a).ok()) {
            chunk_failed.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double dt = Now() - t0;
    clock += dt;
    burst.chunk_rates.push_back(static_cast<double>(end - begin) / dt);
    applied += static_cast<int64_t>(end - begin);
    failed += chunk_failed.load();
    const nomad::Model model = engine->QuiescedModel();
    rmse = nomad::Rmse(ds.test, model.w, model.h);
    if (burst.ratings_to_target < 0 && rmse <= spec.rmse_target) {
      const double drop = prev_rmse - rmse;
      const double frac =
          drop > 0 ? (prev_rmse - spec.rmse_target) / drop : 1.0;
      burst.ratings_to_target =
          prev_applied + std::clamp(frac, 0.0, 1.0) * (applied - prev_applied);
    }
    prev_rmse = rmse;
    prev_applied = applied;
    trajectory += Fmt(" %lld:%.4f", static_cast<long long>(applied), rmse);
  }
  report->attempted += applied;
  report->failed += failed;
  burst.final_rmse = rmse;
  report->Gate("rmse_target_reached", burst.ratings_to_target > 0,
               Fmt("apply burst RMSE %.5f after %lld ratings, target %.3f",
                   rmse, static_cast<long long>(applied), spec.rmse_target));
  report->Gate("final_rmse_within_bound", rmse <= spec.rmse_bound,
               Fmt("final RMSE %.5f, bound %.3f", rmse, spec.rmse_bound));
  report->Note(Fmt("apply burst: %lld ratings in %.3f s (%.4g/s), RMSE "
                   "reached %.3f after %.0f ratings, final %.5f",
                   static_cast<long long>(applied), clock, applied / clock,
                   spec.rmse_target, burst.ratings_to_target, rmse));
  report->Note("apply burst RMSE by ratings applied: " + trajectory);
  return burst;
}

// The burst on each of the seed's datasets (the first on the served
// engine, the others on fresh engines). The rate is the upper quartile of
// all per-chunk rates (see UpperQuartile), and the time to the target RMSE
// is the ratings it took, averaged over the datasets, over that rate: a
// stalled chunk early on does not decide it, and one draw converging a
// little faster than another moves it less.
void RunApplyBursts(ServeStack* stack, const std::vector<Dataset>& datasets,
                    const ServeSpec& spec, const RunOptions& options,
                    Report* report) {
  std::vector<double> rates;
  double to_target = 0.0;
  double final_rmse = 0.0;
  for (size_t d = 0; d < datasets.size(); ++d) {
    std::unique_ptr<nomad::serve::ServeEngine> fresh;
    nomad::serve::ServeEngine* engine = stack->engine.get();
    if (d > 0) {
      auto created = nomad::serve::ServeEngine::Create(
          InitialModel(datasets[d], spec.rank, options.seed),
          nomad::serve::ServeOptions());
      NOMAD_CHECK(created.ok()) << created.status().ToString();
      fresh = std::move(created).value();
      engine = fresh.get();
    }
    const BurstResult burst = RunApplyBurst(
        engine, datasets[d], spec,
        options.seconds * spec.burst_share / datasets.size(),
        options.seed + d, report);
    rates.insert(rates.end(), burst.chunk_rates.begin(),
                 burst.chunk_rates.end());
    to_target += burst.ratings_to_target / datasets.size();
    final_rmse += burst.final_rmse / datasets.size();
  }
  const double rate = UpperQuartile(rates);
  report->E2e("updates_per_s", rate, "1/s");
  report->E2e("time_to_rmse_s", to_target / rate, "s");
  report->E2e("final_rmse", final_rmse, "rmse");
}

// Per-layer metrics of the serve path and the parts-add-up for one query.
void TraceServe(const Dataset& ds, const ServeSpec& spec,
                const RunOptions& options, Report* report) {
  obs::MetricsRegistry registry;
  ServeStack on = StartServeStack(InitialModel(ds, spec.rank, options.seed),
                                  spec.plan, &registry);
  ServeStack off = StartServeStack(InitialModel(ds, spec.rank, options.seed),
                                   spec.plan, nullptr);
  const ZipfSampler users(on.engine->users(), spec.plan.zipf_s);
  LoadSpec load;
  load.query_qps = spec.plan.ref_qps;
  load.write_qps = spec.plan.write_qps;
  load.query_conns = spec.plan.query_conns;
  load.n = spec.plan.n;
  load.seconds = 0.5;
  RunLoad(&on, users, load, options.seed);  // warm both caches
  RunLoad(&off, users, load, options.seed);

  // Untraced (no registry) and traced windows alternate at the reference
  // rate; the registry deltas over the traced windows feed the layers.
  const obs::MetricsSnapshot before = registry.Snapshot();
  std::vector<double> on_mean, off_mean, lateness;
  std::vector<double> latency;
  std::vector<double> probe_us;  // HandleCommand under the traced load
  size_t max_depth = 0;
  const int windows = options.tiny ? 2 : 4;
  load.seconds = std::max(0.3, options.seconds * 0.25 / windows);
  for (int i = 0; i < windows; ++i) {
    const bool traced = i % 2 == 1;
    // During traced windows a probe times HandleCommand every 5 ms beside
    // the load: the handling cost under the load's own contention.
    std::atomic<bool> stop_probe{false};
    std::thread probe;
    if (traced) {
      probe = std::thread([&, i] {
        std::mt19937_64 prng(options.seed + 31 + static_cast<uint64_t>(i));
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        while (!stop_probe.load()) {
          const std::string line =
              Fmt("topn %d %d", users.Sample(unit(prng)), spec.plan.n);
          const double t0 = Now();
          on.server->HandleCommand(line);
          probe_us.push_back((Now() - t0) * 1e6);
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
    }
    LoadResult r = RunLoad(traced ? &on : &off, users, load,
                           options.seed + 100 + i);
    if (traced) {
      stop_probe.store(true);
      probe.join();
    }
    report->attempted += r.queries_sent + r.writes_sent;
    report->failed += r.queries_failed + r.writes_failed;
    (traced ? on_mean : off_mean).push_back(r.MeanLatencyMs());
    if (traced) {
      lateness.insert(lateness.end(), r.lateness_ms.begin(),
                      r.lateness_ms.end());
      latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
      max_depth = std::max(max_depth, r.max_queue_depth);
    }
  }
  const obs::MetricsSnapshot window = registry.Snapshot().DeltaSince(before);
  const double queries = window.SumByName("nomad_serve_queries_total");
  const double hits = window.SumByName("nomad_serve_cache_hits_total");
  const double torn = window.SumByName("nomad_serve_torn_row_retries_total");
  const double applied = window.SumByName("nomad_serve_ratings_applied_total");
  const double conflicts =
      window.SumByName("nomad_serve_ingest_conflicts_total");
  const double hit_ratio = queries > 0 ? hits / queries : 0.0;

  nomad::serve::ServeEngine* engine = on.engine.get();
  const nomad::Model model = engine->QuiescedModel();
  const int k = model.rank();
  const int64_t items = model.items();
  std::mt19937_64 rng(options.seed);

  // linalg: the scan kernel over every item row.
  {
    std::vector<double> out(static_cast<size_t>(items));
    std::vector<double> times;
    for (int i = 0; i < 200; ++i) {
      const double* query = model.w.Row(static_cast<int64_t>(rng() % model.users()));
      const double t0 = Now();
      nomad::ScoreRows<double>(query, model.h, 0, items, out.data());
      times.push_back((Now() - t0) * 1e9 / static_cast<double>(items));
    }
    report->Layer("linalg.score_ns_per_row", Median(times), "ns");
  }

  // serve: top-N with and without the cache, and a seqlock row snapshot.
  std::vector<double> uncached, cached;
  for (int i = 0; i < 400; ++i) {
    const auto u = users.Sample(std::uniform_real_distribution<double>()(rng));
    const std::vector<int32_t> exclude = {static_cast<int32_t>(rng() % items)};
    double t0 = Now();
    NOMAD_CHECK(engine->TopN(u, spec.plan.n, exclude).ok());
    uncached.push_back((Now() - t0) * 1e6);
    NOMAD_CHECK(engine->TopN(u, spec.plan.n).ok());
    t0 = Now();
    NOMAD_CHECK(engine->TopN(u, spec.plan.n).ok());
    cached.push_back((Now() - t0) * 1e6);
  }
  report->Layer("serve.topn_us_uncached", Median(uncached), "us");
  report->Layer("serve.topn_us_cached", Median(cached), "us");
  report->Layer("serve.cache_hit_ratio", hit_ratio, "fraction");
  report->Layer("serve.torn_retry_ratio", queries > 0 ? torn / queries : 0.0,
                "fraction");
  {
    std::vector<std::atomic<uint32_t>> versions(
        static_cast<size_t>(model.users()));
    std::vector<double> row(static_cast<size_t>(k));
    const int64_t n = 2'000'000;
    int64_t retries = 0;
    const double t0 = Now();
    for (int64_t i = 0; i < n; ++i) {
      const int64_t u = (i * 7919) % model.users();
      retries += nomad::serve::SnapshotRow(versions[static_cast<size_t>(u)],
                                           model.w.Row(u), k, row.data());
    }
    report->Layer("serve.snapshot_row_ns", (Now() - t0) * 1e9 / n, "ns");
    NOMAD_CHECK(retries == 0);
  }

  // server: HandleCommand cost under load (the probe), and quiesced,
  // cached and uncached (a rating for the user first kills its cache
  // entry); then the socket around it.
  std::vector<double> handle_cached, handle_uncached;
  for (int i = 0; i < 400; ++i) {
    const auto u = users.Sample(std::uniform_real_distribution<double>()(rng));
    const std::string line = Fmt("topn %d %d", u, spec.plan.n);
    NOMAD_CHECK(engine->ApplyRating(u, static_cast<int32_t>(rng() % items),
                                    0.1, /*applier=*/0)
                    .ok());
    double t0 = Now();
    std::string answer = on.server->HandleCommand(line);
    handle_uncached.push_back((Now() - t0) * 1e6);
    t0 = Now();
    answer = on.server->HandleCommand(line);
    handle_cached.push_back((Now() - t0) * 1e6);
    NOMAD_CHECK(answer.rfind("ok ", 0) == 0) << answer;
  }
  const double handle_c = Median(handle_cached);
  const double handle_u = Median(handle_uncached);
  const double handle_load = WindowedMean(probe_us, 100);
  report->Layer("server.handle_us", handle_load, "us");
  // The socket and line protocol alone: `ping` at the reference rate, with
  // the same connections and writes, costs no engine work.
  double socket_us = 0.0;
  {
    LoadSpec ping = load;
    ping.ping = true;
    const LoadResult r = RunLoad(&on, users, ping, options.seed + 7);
    socket_us = r.MeanLatencyMs() * 1e3;
  }
  report->Layer("server.socket_us", socket_us, "us");

  // ingest: one ApplyRating, conflicts, queue depth.
  {
    std::vector<double> times;
    for (int i = 0; i < 2000; ++i) {
      const auto u = static_cast<int32_t>(rng() % model.users());
      const auto j = static_cast<int32_t>(rng() % items);
      const double t0 = Now();
      NOMAD_CHECK(engine->ApplyRating(u, j, 0.2, /*applier=*/0).ok());
      times.push_back((Now() - t0) * 1e6);
    }
    report->Layer("ingest.apply_us", Median(times), "us");
  }
  report->Layer("ingest.conflict_ratio", applied > 0 ? conflicts / applied : 0,
                "fraction");
  report->Layer("ingest.queue_depth_max", static_cast<double>(max_depth),
                "count");
  report->Layer("loadgen.late_p99_ms", Quantile(lateness, 0.99), "ms");

  // Parts add up, per query: mean latency at the reference rate against
  // the socket round trip plus the handling cost under the same load.
  const double mean_on = WindowedMean(latency, 1000) * 1e3;  // us
  const double parts = socket_us + handle_load;
  const double unaccounted = mean_on > 0 ? 1.0 - parts / mean_on : 1.0;
  const double off_ms = Median(off_mean);
  const double on_ms = Median(on_mean);
  report->Layer("addup.unaccounted_share", unaccounted, "fraction");
  report->Layer("addup.trace_overhead_share", (on_ms - off_ms) / off_ms,
                "fraction");
  constexpr double kTolerance = 0.25;
  // Smoke-test sizes are too small for the accounting to settle.
  report->Gate("parts_add_up",
               options.tiny || std::abs(unaccounted) <= kTolerance,
               Fmt("per query: %.1f us mean latency = socket %.1f + handle "
                   "%.1f + unaccounted %.1f%% (tolerance %.0f%%); quiesced "
                   "handle: cached %.1f, uncached %.1f, hit ratio %.3f under "
                   "load",
                   mean_on, socket_us, handle_load, 100 * unaccounted,
                   100 * kTolerance, handle_c, handle_u, hit_ratio));
  report->Note(report->gates.back().detail);
  report->Note(Fmt("trace overhead: %.2f%% (mean latency %.4f ms traced, "
                   "%.4f ms untraced)",
                   100 * (on_ms - off_ms) / off_ms, on_ms, off_ms));
}

}  // namespace

Report RunServeRw(const RunOptions& options) {
  const ServeSpec spec = Spec(options);
  Report report;
  report.config = Describe(spec, options.seed);

  // Set-up, several times: generate the planted ratings, build the model,
  // start engine + ingest + server.
  std::vector<double> setup;
  std::vector<Dataset> datasets(static_cast<size_t>(spec.datasets));
  ServeStack stack;
  for (int i = 0; i < 5; ++i) {
    stack.Stop();
    const double t0 = Now();
    for (int d = 0; d < spec.datasets; ++d) {
      nomad::SyntheticConfig config = spec.data;
      config.seed = options.seed + 1000003ULL * d;
      auto generated = nomad::GenerateSynthetic(config);
      NOMAD_CHECK(generated.ok()) << generated.status().ToString();
      datasets[static_cast<size_t>(d)] = std::move(generated).value();
    }
    stack = StartServeStack(InitialModel(datasets[0], spec.rank, options.seed),
                            spec.plan, nullptr);
    setup.push_back(Now() - t0);
  }
  report.E2e("setup_s", Median(setup), "s");

  if (options.trace) {
    TraceServe(datasets[0], spec, options, &report);
  } else {
    RunApplyBursts(&stack, datasets, spec, options, &report);
  }
  const LoadResult ref = RunServePhase(&stack, spec.plan, options, &report);
  report.E2e("wire_bytes_per_update",
             ref.writes_sent > 0 ? static_cast<double>(ref.write_wire_bytes) /
                                       static_cast<double>(ref.writes_sent)
                                 : 0.0,
             "B");
  return report;
}

}  // namespace perfbench
