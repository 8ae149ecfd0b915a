#include "obs/timeseries.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/dist_nomad.h"
#include "nomad/nomad_solver.h"
#include "obs/metrics.h"
#include "obs/solver_metrics.h"

#include "test_util.h"

namespace nomad {
namespace {

using obs::MetricsRegistry;
using obs::RunTimeline;
using obs::TimelineKind;
using obs::TimelinePoint;

TracePoint MakeTrace(double seconds, int64_t updates, double rmse) {
  TracePoint pt;
  pt.seconds = seconds;
  pt.updates = updates;
  pt.test_rmse = rmse;
  return pt;
}

TEST(RunTimelineTest, RingDropsOldestAndCountsEvictions) {
  RunTimeline timeline(nullptr, /*capacity=*/4);
  for (int i = 0; i < 7; ++i) {
    timeline.RecordTrace(MakeTrace(i, i * 100, 1.0));
  }
  EXPECT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline.dropped(), 3);
  const std::vector<TimelinePoint> points = timeline.Points();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points.front().updates, 300);  // rows 0..2 evicted
  EXPECT_EQ(points.back().updates, 600);
}

TEST(RunTimelineTest, TraceRowsCarryWindowedRegistryDeltas) {
  MetricsRegistry reg;
  obs::Counter c = reg.GetCounter("t_total", {{"w", "0"}});
  obs::Gauge g = reg.GetGauge("t_level");
  c.Inc(5);
  RunTimeline timeline(&reg);  // base taken here: the 5 is pre-window
  c.Inc(3);
  g.Set(2.0);
  timeline.RecordTrace(MakeTrace(1.0, 10, 0.9));
  c.Inc(4);
  timeline.RecordTrace(MakeTrace(2.0, 20, 0.8));
  timeline.RecordTrace(MakeTrace(3.0, 30, 0.7));  // quiet window

  const std::vector<TimelinePoint> points = timeline.Points();
  ASSERT_EQ(points.size(), 3u);
  ASSERT_EQ(points[0].deltas.size(), 1u);
  EXPECT_EQ(points[0].deltas[0].first, "t_total{w=\"0\"}");
  EXPECT_DOUBLE_EQ(points[0].deltas[0].second, 3.0);
  ASSERT_EQ(points[0].gauges.size(), 1u);
  EXPECT_EQ(points[0].gauges[0].first, "t_level");
  ASSERT_EQ(points[1].deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(points[1].deltas[0].second, 4.0);
  // Zero-delta series are dropped; the gauge level persists.
  EXPECT_TRUE(points[2].deltas.empty());
  ASSERT_EQ(points[2].gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(points[2].gauges[0].second, 2.0);
  EXPECT_EQ(points[0].kind, TimelineKind::kTrace);
  EXPECT_EQ(points[0].updates, 10);
  EXPECT_DOUBLE_EQ(points[0].test_rmse, 0.9);
}

TEST(RunTimelineTest, HistogramDeltasArriveAsCountAndSum) {
  MetricsRegistry reg;
  obs::Histogram h = reg.GetHistogram("lat_seconds", {0.1, 1.0});
  RunTimeline timeline(&reg);
  h.Observe(0.05);
  h.Observe(0.5);
  timeline.RecordTrace(MakeTrace(1.0, 1, 1.0));
  const std::vector<TimelinePoint> points = timeline.Points();
  ASSERT_EQ(points.size(), 1u);
  ASSERT_EQ(points[0].deltas.size(), 2u);
  EXPECT_EQ(points[0].deltas[0].first, "lat_seconds_count");
  EXPECT_DOUBLE_EQ(points[0].deltas[0].second, 2.0);
  EXPECT_EQ(points[0].deltas[1].first, "lat_seconds_sum");
  EXPECT_DOUBLE_EQ(points[0].deltas[1].second, 0.55);
}

TEST(RunTimelineTest, NullRegistryRowsKeepTraceFieldsOnly) {
  RunTimeline timeline(nullptr);
  timeline.RecordTrace(MakeTrace(1.5, 42, 0.8));
  timeline.RecordSample();
  const std::vector<TimelinePoint> points = timeline.Points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].kind, TimelineKind::kTrace);
  EXPECT_EQ(points[0].updates, 42);
  EXPECT_TRUE(points[0].deltas.empty());
  EXPECT_EQ(points[1].kind, TimelineKind::kSample);
  EXPECT_EQ(points[1].updates, 0);
  EXPECT_GE(points[1].seconds, 0.0);
}

TEST(RunTimelineTest, DisabledRegistryRowsAreQuietToo) {
  MetricsRegistry reg(/*enabled=*/false);
  RunTimeline timeline(&reg);
  timeline.RecordTrace(MakeTrace(1.0, 7, 1.0));
  ASSERT_EQ(timeline.Points().size(), 1u);
  EXPECT_TRUE(timeline.Points()[0].deltas.empty());
}

TEST(RunTimelineTest, SamplerProducesRowsAndStopsCleanly) {
  MetricsRegistry reg;
  obs::Counter c = reg.GetCounter("busy_total");
  RunTimeline timeline(&reg);
  timeline.StartSampler(5);
  timeline.StartSampler(5);  // second start is a no-op
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (timeline.size() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    c.Inc();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  timeline.StopSampler();
  timeline.StopSampler();  // idempotent
  const size_t after_stop = timeline.size();
  EXPECT_GE(after_stop, 3u);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(timeline.size(), after_stop);  // really stopped
  for (const TimelinePoint& pt : timeline.Points()) {
    EXPECT_EQ(pt.kind, TimelineKind::kSample);
  }
}

TEST(RunTimelineTest, BindResetsBaseAndClock) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("a_total").Inc(10);
  RunTimeline timeline(&a);
  b.GetCounter("b_total").Inc(7);
  timeline.Bind(&b);  // the 7 becomes pre-window history
  b.GetCounter("b_total").Inc(2);
  timeline.RecordTrace(MakeTrace(1.0, 1, 1.0));
  const std::vector<TimelinePoint> points = timeline.Points();
  ASSERT_EQ(points.size(), 1u);
  ASSERT_EQ(points[0].deltas.size(), 1u);
  EXPECT_EQ(points[0].deltas[0].first, "b_total");
  EXPECT_DOUBLE_EQ(points[0].deltas[0].second, 2.0);
}

TEST(TimelineJsonTest, RowAndDocumentSchemas) {
  TimelinePoint pt;
  pt.kind = TimelineKind::kTrace;
  pt.seconds = 1.5;
  pt.updates = 1000;
  pt.test_rmse = 0.875;
  pt.deltas.emplace_back("c_total", 42.0);
  pt.gauges.emplace_back("depth{w=\"0\"}", 3.0);
  EXPECT_EQ(obs::TimelinePointJson(pt),
            "{\"kind\":\"trace\",\"seconds\":1.5,\"updates\":1000,"
            "\"test_rmse\":0.875,\"objective\":0,"
            "\"deltas\":{\"c_total\":42},"
            "\"gauges\":{\"depth{w=\\\"0\\\"}\":3}}");

  TimelinePoint sample;
  sample.kind = TimelineKind::kSample;
  sample.seconds = 0.25;
  EXPECT_EQ(obs::TimelinePointJson(sample),
            "{\"kind\":\"sample\",\"seconds\":0.25,\"deltas\":{},"
            "\"gauges\":{}}");

  RunTimeline timeline(nullptr, /*capacity=*/2);
  timeline.RecordTrace(MakeTrace(1.0, 1, 1.0));
  timeline.RecordTrace(MakeTrace(2.0, 2, 0.9));
  timeline.RecordTrace(MakeTrace(3.0, 3, 0.8));  // evicts the first
  const std::string doc = timeline.ToJson();
  EXPECT_NE(doc.find("\"capacity\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"dropped\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"points\":[{"), std::string::npos);
  EXPECT_EQ(doc.find("\"updates\":1"), std::string::npos);  // evicted row
}

TEST(TimelineJsonTest, JsonlRoundTripsThroughAFile) {
  RunTimeline timeline(nullptr);
  timeline.RecordTrace(MakeTrace(1.0, 100, 0.9375));
  timeline.RecordSample();
  timeline.RecordTrace(MakeTrace(2.0, 200, 0.875));
  const std::string path = ::testing::TempDir() + "/timeline_test.jsonl";
  ASSERT_TRUE(obs::WriteTimelineJsonl(timeline.Points(), path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"kind\":\"trace\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"updates\":100"), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"sample\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"test_rmse\":0.875"), std::string::npos);
  // Every line is a self-contained object.
  for (const std::string& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
  std::remove(path.c_str());
  EXPECT_FALSE(
      obs::WriteTimelineJsonl(timeline.Points(), "/nonexistent-dir/x.jsonl")
          .ok());
}

// Integration: a real NOMAD run returns its timeline on TrainResult, one
// kTrace row per trace point carrying worker-counter deltas, and the
// worker latency histograms (service + queue wait) saw observations.
TEST(TimelineSolverTest, TrainResultCarriesTimelineAndLatencies) {
  const Dataset ds = MakeTestDataset();
  MetricsRegistry reg;
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/4);
  options.metrics = &reg;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TrainResult& r = result.value();
  ASSERT_EQ(r.timeline.size(), r.trace.points().size());
  int64_t delta_updates = 0;
  for (size_t i = 0; i < r.timeline.size(); ++i) {
    EXPECT_EQ(r.timeline[i].kind, TimelineKind::kTrace);
    EXPECT_EQ(r.timeline[i].updates, r.trace.points()[i].updates);
    for (const auto& [series, value] : r.timeline[i].deltas) {
      if (series.rfind("nomad_worker_updates_total", 0) == 0) {
        delta_updates += static_cast<int64_t>(value);
      }
    }
  }
  // The windowed deltas tile the run: they sum to the cumulative total.
  EXPECT_EQ(delta_updates, r.total_updates);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  int64_t service_count = 0;
  int64_t wait_count = 0;
  for (const obs::MetricSample& s : snap.samples()) {
    if (s.name == "nomad_worker_service_latency_seconds") {
      service_count += s.count;
      EXPECT_GE(s.sum, 0.0);
    }
    if (s.name == "nomad_worker_queue_wait_latency_seconds") {
      wait_count += s.count;
    }
  }
  EXPECT_GT(service_count, 0);
  EXPECT_GT(wait_count, 0);
}

// An externally supplied timeline is honored (the CLI path: the caller
// owns it so /timeseries can serve mid-run) and the sampler interleaves
// kSample rows with the trace rows. The run is budgeted in wall time, 20
// sampler periods: an epoch budget on this dataset can end within one.
TEST(TimelineSolverTest, ExternalTimelineAndSamplerInterleave) {
  const Dataset ds = MakeTestDataset();
  MetricsRegistry reg;
  RunTimeline timeline(&reg);
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/-1);
  options.max_seconds = 0.02;
  options.metrics = &reg;
  options.timeline = &timeline;
  options.metrics_sample_ms = 1;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().timeline.size(), timeline.Points().size());
  size_t traces = 0;
  size_t samples = 0;
  for (const TimelinePoint& pt : result.value().timeline) {
    (pt.kind == TimelineKind::kTrace ? traces : samples)++;
  }
  EXPECT_EQ(traces, result.value().trace.points().size());
  EXPECT_GT(samples, 0u);  // the 1 ms sampler fired at least once
}

// Distributed: rank 0's result carries the coordinator timeline and the
// pump-round latency histogram observed every transport pump.
TEST(TimelineSolverTest, DistTimelineAndPumpLatency) {
  const Dataset ds = MakeTestDataset(200, 40, 2000, 11);
  MetricsRegistry reg;
  net::DistNomadOptions options;
  options.train = FastTrainOptions(/*epochs=*/3, /*workers=*/2);
  options.train.metrics = &reg;
  auto results = net::TrainLoopbackWorld(ds, options, /*world=*/2);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  const TrainResult& r0 = results[0].value();
  EXPECT_EQ(r0.timeline.size(), r0.trace.points().size());
  ASSERT_FALSE(r0.timeline.empty());
  const obs::MetricsSnapshot snap = reg.Snapshot();
  int64_t pump_count = 0;
  for (const obs::MetricSample& s : snap.samples()) {
    if (s.name == "nomad_dist_pump_round_latency_seconds") {
      pump_count += s.count;
    }
  }
  EXPECT_GT(pump_count, 0);
}

}  // namespace
}  // namespace nomad
