// Open-loop load over the serve line protocol, and the serve phase every
// workload runs on its model: a reference-rate window and a rate ladder.
#ifndef PERFBENCH_DRIVER_SERVE_LOAD_H_
#define PERFBENCH_DRIVER_SERVE_LOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "serve/server.h"
#include "solver/model.h"

namespace perfbench {

/// Zipf(s) sampler over [0, n) by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s);
  /// Maps a uniform u in [0, 1) to a rank.
  int32_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
};

/// One open-loop window: queries and rating writes sent on fixed
/// schedules, each query timed from when it was due.
struct LoadSpec {
  double query_qps = 1000.0;
  double write_qps = 0.0;
  double seconds = 1.0;
  int query_conns = 3;  ///< Plus one connection for writes when write_qps > 0.
  int n = 10;           ///< Items per top-N query.
  bool ping = false;    ///< Send `ping` instead of `topn`: the socket alone.
};

struct LoadResult {
  std::vector<double> latency_ms;    ///< Answered queries, due -> answer.
  std::vector<double> lateness_ms;   ///< Per query: send time - due time.
  std::vector<double> staleness_ms;  ///< Per write: send -> user_version.
  int64_t queries_sent = 0;
  int64_t queries_failed = 0;  ///< `err` answers plus unanswered queries.
  int64_t writes_sent = 0;
  int64_t writes_failed = 0;   ///< `err` answers, unanswered, never visible.
  int64_t write_wire_bytes = 0;  ///< Write requests + answers, newlines too.
  size_t max_queue_depth = 0;

  /// Mean query latency over 1000-query windows (see WindowedMean).
  double MeanLatencyMs() const;
};

/// Engine, ingest and line-protocol server over one model. The server and
/// the ingest borrow the engine, so teardown runs server, ingest, engine.
struct ServeStack {
  ServeStack() = default;
  ServeStack(ServeStack&&) = default;
  ServeStack& operator=(ServeStack&& other) {
    Stop();
    engine = std::move(other.engine);
    ingest = std::move(other.ingest);
    server = std::move(other.server);
    return *this;
  }
  ~ServeStack() { Stop(); }

  void Stop() {
    server.reset();
    ingest.reset();
    engine.reset();
  }

  std::unique_ptr<nomad::serve::ServeEngine> engine;
  std::unique_ptr<nomad::serve::RatingIngest> ingest;
  std::unique_ptr<nomad::serve::ServeServer> server;
};

/// The serve phase's shape: rates, windows and the latency limit.
struct ServePlan {
  double ref_qps = 1000.0;     ///< Reference rate of serve.query_p50/p99_ms.
  double ref_seconds = 2.0;
  double write_qps = 500.0;    ///< Fixed rating-write rate (all windows).
  std::vector<double> ladder;  ///< Increasing query rates.
  double rung_seconds = 1.0;
  double slo_p99_ms = 5.0;
  int n = 10;
  double zipf_s = 0.9;
  int appliers = 1;
  int query_conns = 3;
};

/// Starts a stack serving `model`; `registry` may be null (no-op metrics).
ServeStack StartServeStack(nomad::Model model, const ServePlan& plan,
                           nomad::obs::MetricsRegistry* registry);

/// Runs one window against `stack` and waits until every write it sent
/// has been applied.
LoadResult RunLoad(ServeStack* stack, const ZipfSampler& users,
                   const LoadSpec& spec, uint64_t seed);

/// The serve phase: a reference window (serve.query_p50_ms,
/// serve.query_p99_ms, ingest.staleness_p50_ms, ingest.staleness_p99_ms),
/// then the ladder (serve.max_qps_at_slo), then the parity gate on the
/// quiesced factors. Counts every query and write into report->attempted /
/// failed. Returns the reference window.
LoadResult RunServePhase(ServeStack* stack, const ServePlan& plan,
                         const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SERVE_LOAD_H_
