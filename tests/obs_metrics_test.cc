#include "obs/metrics.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/dist_nomad.h"
#include "nomad/nomad_solver.h"
#include "obs/metrics_server.h"
#include "obs/solver_metrics.h"
#include "obs/timeseries.h"

#include "test_util.h"

namespace nomad {
namespace {

using obs::Labels;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

TEST(MetricsRegistryTest, CounterRegistrationIsIdempotent) {
  MetricsRegistry reg;
  obs::Counter a = reg.GetCounter("c_total", {{"w", "1"}});
  obs::Counter b = reg.GetCounter("c_total", {{"w", "1"}});
  ASSERT_TRUE(a.valid());
  a.Inc(3);
  b.Inc(4);
  EXPECT_EQ(a.Value(), 7);  // same cell behind both handles
  EXPECT_EQ(b.Value(), 7);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  obs::Counter a = reg.GetCounter("c_total", {{"a", "1"}, {"b", "2"}});
  obs::Counter b = reg.GetCounter("c_total", {{"b", "2"}, {"a", "1"}});
  a.Inc();
  b.Inc();
  EXPECT_EQ(a.Value(), 2);
  EXPECT_EQ(reg.Snapshot().samples().size(), 1u);
}

TEST(MetricsRegistryTest, KindConflictYieldsNullHandle) {
  MetricsRegistry reg;
  ASSERT_TRUE(reg.GetCounter("series").valid());
  EXPECT_FALSE(reg.GetGauge("series").valid());
  EXPECT_FALSE(reg.GetHistogram("series", {1.0}).valid());
}

TEST(MetricsRegistryTest, DisabledRegistryHandsOutNoOps) {
  MetricsRegistry reg(/*enabled=*/false);
  obs::Counter c = reg.GetCounter("c_total");
  obs::Gauge g = reg.GetGauge("g");
  obs::Histogram h = reg.GetHistogram("h", {1.0, 2.0});
  EXPECT_FALSE(c.valid());
  EXPECT_FALSE(g.valid());
  EXPECT_FALSE(h.valid());
  c.Inc(5);  // all no-ops, no crash
  g.Set(1.0);
  h.Observe(1.0);
  EXPECT_EQ(c.Value(), 0);
  EXPECT_TRUE(reg.Snapshot().samples().empty());
  EXPECT_TRUE(reg.RenderText().empty());
}

TEST(MetricsRegistryTest, InvalidHistogramBoundsRejected) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.GetHistogram("h1", {}).valid());            // empty
  EXPECT_FALSE(reg.GetHistogram("h2", {1.0, 1.0}).valid());    // not strict
  EXPECT_FALSE(reg.GetHistogram("h3", {2.0, 1.0}).valid());    // decreasing
  EXPECT_TRUE(reg.GetHistogram("h4", {1.0, 2.0}).valid());
}

// The tentpole's concurrency claim: per-worker padded cells under 8
// threads of relaxed increments lose nothing (run under TSan in CI).
TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  obs::Counter shared = reg.GetCounter("shared_total");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Registration from worker threads must also be safe.
      obs::Counter mine =
          reg.GetCounter("per_worker_total", {{"worker", std::to_string(t)}});
      obs::Counter shared_again = reg.GetCounter("shared_total");
      for (int i = 0; i < kPerThread; ++i) {
        mine.Inc();
        shared_again.Inc();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shared.Value(), int64_t{kThreads} * kPerThread);
  const MetricsSnapshot snap = reg.Snapshot();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.CounterValue("per_worker_total",
                                {{"worker", std::to_string(t)}}),
              kPerThread);
  }
  EXPECT_EQ(snap.SumByName("per_worker_total"),
            static_cast<double>(int64_t{kThreads} * kPerThread));
}

TEST(MetricsRegistryTest, HistogramBucketBoundaries) {
  MetricsRegistry reg;
  obs::Histogram h = reg.GetHistogram("h", {1.0, 2.0, 4.0});
  // `le` semantics: a value equal to a bound lands IN that bound's bucket.
  h.Observe(0.5);  // le=1
  h.Observe(1.0);  // le=1 (boundary)
  h.Observe(1.5);  // le=2
  h.Observe(2.0);  // le=2 (boundary)
  h.Observe(4.0);  // le=4 (boundary)
  h.Observe(9.0);  // +Inf
  EXPECT_EQ(h.Count(), 6);
  const MetricsSnapshot snap = reg.Snapshot();  // Find points into this
  const obs::MetricSample* s = snap.Find("h");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->buckets.size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(s->buckets[0], 2);
  EXPECT_EQ(s->buckets[1], 2);
  EXPECT_EQ(s->buckets[2], 1);
  EXPECT_EQ(s->buckets[3], 1);
  EXPECT_EQ(s->count, 6);
  EXPECT_DOUBLE_EQ(s->sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 9.0);
}

// RenderText is deterministic (sorted by name, then labels), so the whole
// exposition can be golden-matched.
TEST(MetricsRegistryTest, ScrapeFormatGolden) {
  MetricsRegistry reg;
  reg.GetCounter("app_requests_total", {{"code", "200"}}).Inc(3);
  reg.GetCounter("app_requests_total", {{"code", "500"}}).Inc(1);
  reg.GetGauge("app_temperature").Set(36.5);
  obs::Histogram h = reg.GetHistogram("app_latency", {1.0, 2.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(9.0);
  const std::string expected =
      "# TYPE app_latency histogram\n"
      "app_latency_bucket{le=\"1\"} 1\n"
      "app_latency_bucket{le=\"2\"} 2\n"
      "app_latency_bucket{le=\"+Inf\"} 3\n"
      "app_latency_sum 11\n"
      "app_latency_count 3\n"
      "# TYPE app_requests_total counter\n"
      "app_requests_total{code=\"200\"} 3\n"
      "app_requests_total{code=\"500\"} 1\n"
      "# TYPE app_temperature gauge\n"
      "app_temperature 36.5\n";
  EXPECT_EQ(reg.RenderText(), expected);
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  EXPECT_EQ(obs::RenderLabels({{"path", "a\\b\"c\nd"}}),
            "{path=\"a\\\\b\\\"c\\nd\"}");
  EXPECT_EQ(obs::RenderLabels({}), "");
}

/// Minimal scrape client: one blocking GET against 127.0.0.1:port.
std::string HttpGet(int port, const std::string& path = "/metrics") {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

TEST(MetricsServerTest, ServesScrapeOnEphemeralPort) {
  MetricsRegistry reg;
  reg.GetCounter("smoke_total").Inc(42);
  auto server = obs::MetricsServer::Start(0, &reg);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_GT(server.value()->port(), 0);
  const std::string response = HttpGet(server.value()->port());
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  EXPECT_NE(response.find("smoke_total 42"), std::string::npos);
  // Scrapes see live updates, and the server survives several requests.
  reg.GetCounter("smoke_total").Inc(1);
  EXPECT_NE(HttpGet(server.value()->port()).find("smoke_total 43"),
            std::string::npos);
  server.value()->Stop();  // idempotent with the destructor's Stop
}

// Regression: WriteAll used raw write(), so a scraper that hung up
// mid-request killed the whole process with SIGPIPE. The lethal sequence
// is deterministic: the client sends a request WITHOUT the terminating
// blank line and resets the connection (SO_LINGER zero-timeout close()
// sends RST instead of FIN). The server's header loop reads the partial
// request, finds no terminator, reads again — and that second read
// consumes the pending ECONNRESET. The very next write() on the socket
// then fails with EPIPE, which raises SIGPIPE; with raw write() the
// default disposition terminates the process. send(MSG_NOSIGNAL) turns
// the same EPIPE into a plain error return.
TEST(MetricsServerTest, ClientHangupMidResponseDoesNotKillProcess) {
  MetricsRegistry reg;
  reg.GetCounter("smoke_total").Inc(7);
  auto server = obs::MetricsServer::Start(0, &reg);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  // Half a request: no "\r\n\r\n", so the server keeps reading for more.
  const char request[] = "GET /metrics HTTP/1.0\r\n";
  ASSERT_GT(send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL), 0);
  struct linger lg = {1, 0};
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  close(fd);  // RST; the server's read loop will consume the reset

  // The process must survive the EPIPE write and still serve scrapes.
  const std::string response = HttpGet(port);
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("smoke_total 7"), std::string::npos);
}

// Satellite: unknown paths get a well-formed 404 (with Content-Length, so
// `curl --fail` behaves), while / and /metrics both serve the exposition.
TEST(MetricsServerTest, UnknownPathGets404WithContentLength) {
  MetricsRegistry reg;
  reg.GetCounter("smoke_total").Inc(5);
  auto server = obs::MetricsServer::Start(0, &reg);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();

  const std::string missing = HttpGet(port, "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);
  EXPECT_NE(missing.find("Content-Length:"), std::string::npos);
  // The advertised length matches the body the server actually sent.
  const size_t header_end = missing.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  const size_t cl = missing.find("Content-Length: ");
  const size_t body_len = missing.size() - (header_end + 4);
  EXPECT_EQ(std::stoul(missing.substr(cl + 16)), body_len);

  // Root is an alias for /metrics; a query string doesn't change routing.
  EXPECT_NE(HttpGet(port, "/").find("smoke_total 5"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/metrics?x=1").find("smoke_total 5"),
            std::string::npos);
  // 200s carry Content-Length too.
  EXPECT_NE(HttpGet(port, "/metrics").find("Content-Length:"),
            std::string::npos);
}

TEST(MetricsServerTest, TimeseriesEndpointNeedsAnAttachedTimeline) {
  MetricsRegistry reg;
  auto server = obs::MetricsServer::Start(0, &reg);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  EXPECT_NE(HttpGet(port, "/timeseries").find("404 Not Found"),
            std::string::npos);

  obs::RunTimeline timeline(&reg);
  reg.GetCounter("tick_total").Inc(3);
  timeline.RecordSample();
  server.value()->AttachTimeline(&timeline);
  const std::string response = HttpGet(port, "/timeseries");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"tick_total\":3"), std::string::npos);
  server.value()->AttachTimeline(nullptr);  // detach before timeline dies
  EXPECT_NE(HttpGet(port, "/timeseries").find("404 Not Found"),
            std::string::npos);
}

// Satellite: one bucket layout per metric name, fixed at first
// registration — a second registration with different bounds (same or new
// label set) must not silently alias onto the wrong buckets.
TEST(MetricsRegistryTest, HistogramBoundsAreFixedPerName) {
  MetricsRegistry reg;
  ASSERT_TRUE(reg.GetHistogram("lat", {1.0, 2.0}, {{"w", "0"}}).valid());
  // Same key, same bounds: fine (idempotent registration).
  EXPECT_TRUE(reg.GetHistogram("lat", {1.0, 2.0}, {{"w", "0"}}).valid());
  // Same key, different bounds: rejected.
  EXPECT_FALSE(reg.GetHistogram("lat", {1.0, 4.0}, {{"w", "0"}}).valid());
  // New label set under the same name, different bounds: also rejected.
  EXPECT_FALSE(reg.GetHistogram("lat", {1.0, 4.0}, {{"w", "1"}}).valid());
  // New label set, matching bounds: fine.
  EXPECT_TRUE(reg.GetHistogram("lat", {1.0, 2.0}, {{"w", "1"}}).valid());
}

TEST(MetricsTest, LogSpacedBoundsShape) {
  const std::vector<double> b = obs::LogSpacedBounds(1e-6, 1.0, 3);
  ASSERT_FALSE(b.empty());
  EXPECT_DOUBLE_EQ(b.front(), 1e-6);
  EXPECT_DOUBLE_EQ(b.back(), 1.0);
  // 6 decades * 3 per decade + the final hi bound.
  EXPECT_EQ(b.size(), 19u);
  for (size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);
  // Valid histogram bounds as-is.
  MetricsRegistry reg;
  EXPECT_TRUE(reg.GetHistogram("h", b).valid());
  // Degenerate inputs yield {} rather than a broken layout.
  EXPECT_TRUE(obs::LogSpacedBounds(0.0, 1.0, 3).empty());
  EXPECT_TRUE(obs::LogSpacedBounds(1.0, 1.0, 3).empty());
  EXPECT_TRUE(obs::LogSpacedBounds(1e-3, 1.0, 0).empty());
}

// Satellite: SumByName across mixed label sets, including the unlabelled
// series under the same name.
TEST(MetricsSnapshotTest, SumByNameMixesLabelSets) {
  MetricsRegistry reg;
  reg.GetCounter("mixed_total").Inc(1);
  reg.GetCounter("mixed_total", {{"w", "0"}}).Inc(2);
  reg.GetCounter("mixed_total", {{"w", "1"}, {"rank", "3"}}).Inc(4);
  reg.GetGauge("mixed_total_other").Set(100.0);  // different name: excluded
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_DOUBLE_EQ(snap.SumByName("mixed_total"), 7.0);
  EXPECT_DOUBLE_EQ(snap.SumByName("absent_total"), 0.0);
}

// Satellite: Find must locate series whose label VALUES contain the
// characters the exposition escapes (quote, backslash, newline).
TEST(MetricsSnapshotTest, FindHandlesEscapedLabelValues) {
  MetricsRegistry reg;
  const Labels nasty = {{"path", "a\\b\"c\nd"}};
  reg.GetCounter("esc_total", nasty).Inc(9);
  const MetricsSnapshot snap = reg.Snapshot();
  const obs::MetricSample* s = snap.Find("esc_total", nasty);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->value, 9.0);
  EXPECT_EQ(snap.CounterValue("esc_total", nasty), 9);
  // A value differing only in escape-sensitive characters is a different
  // series.
  EXPECT_EQ(snap.Find("esc_total", {{"path", "a\\b\"c d"}}), nullptr);
}

// Satellite: the delta-between-snapshots primitive RunTimeline builds on.
TEST(MetricsSnapshotTest, DeltaSinceWindowsCountersAndHistograms) {
  MetricsRegistry reg;
  obs::Counter c = reg.GetCounter("c_total");
  obs::Gauge g = reg.GetGauge("g");
  obs::Histogram h = reg.GetHistogram("h", {1.0, 2.0});
  c.Inc(10);
  g.Set(5.0);
  h.Observe(0.5);
  const MetricsSnapshot base = reg.Snapshot();
  c.Inc(3);
  g.Set(7.0);
  h.Observe(1.5);
  h.Observe(9.0);
  reg.GetCounter("born_total").Inc(2);  // born inside the window
  const MetricsSnapshot delta = reg.Snapshot().DeltaSince(base);
  // Counter: windowed difference; newborn series keep their full value.
  EXPECT_EQ(delta.CounterValue("c_total"), 3);
  EXPECT_EQ(delta.CounterValue("born_total"), 2);
  // Gauge: level, not difference.
  EXPECT_DOUBLE_EQ(delta.GaugeValue("g"), 7.0);
  // Histogram: windowed buckets, count and sum.
  const obs::MetricSample* hd = delta.Find("h");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->count, 2);
  EXPECT_DOUBLE_EQ(hd->sum, 1.5 + 9.0);
  ASSERT_EQ(hd->buckets.size(), 3u);
  EXPECT_EQ(hd->buckets[0], 0);  // the base's 0.5 subtracted out
  EXPECT_EQ(hd->buckets[1], 1);
  EXPECT_EQ(hd->buckets[2], 1);
  // An empty base (different-registry degenerate) passes everything
  // through.
  const MetricsSnapshot full = reg.Snapshot().DeltaSince(MetricsSnapshot());
  EXPECT_EQ(full.CounterValue("c_total"), 13);
}

// The rewiring claim of the tentpole: TrainResult::worker_batch is a view
// over the registry, so the scraped aggregates and the returned stats must
// agree EXACTLY — same cells, same arithmetic.
TEST(ObsSolverTest, RegistryTotalsMatchTrainResultViews) {
  const Dataset ds = MakeTestDataset();
  MetricsRegistry reg;
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/6);
  options.token_batch_mode = TokenBatchMode::kAuto;
  options.metrics = &reg;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TrainResult& r = result.value();
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(r.worker_batch.size(), 4u);
  int64_t updates_sum = 0;
  int64_t pushed_sum = 0;
  for (const WorkerBatchStats& s : r.worker_batch) {
    const Labels l = obs::WorkerLabels(-1, s.worker);
    EXPECT_EQ(snap.CounterValue("nomad_worker_rounds_total", l), s.rounds);
    EXPECT_EQ(snap.CounterValue("nomad_worker_batch_grows_total", l),
              s.grows);
    EXPECT_EQ(snap.CounterValue("nomad_worker_batch_shrinks_total", l),
              s.shrinks);
    EXPECT_EQ(snap.CounterValue("nomad_worker_batch_backoffs_total", l),
              s.backoffs);
    EXPECT_EQ(snap.GaugeValue("nomad_worker_token_batch", l), s.final_batch);
    EXPECT_EQ(snap.GaugeValue("nomad_worker_batch_min", l), s.min_batch_seen);
    EXPECT_EQ(snap.GaugeValue("nomad_worker_batch_max", l), s.max_batch_seen);
    // Bit-identical mean: same integer sum, same division.
    ASSERT_GT(s.rounds, 0);
    EXPECT_EQ(s.mean_batch,
              static_cast<double>(snap.CounterValue(
                  "nomad_worker_batch_round_sum", l)) /
                  static_cast<double>(s.rounds));
    updates_sum += snap.CounterValue("nomad_worker_updates_total", l);
    pushed_sum += snap.CounterValue("nomad_worker_tokens_pushed_total", l);
    // Every popped token is pushed back somewhere on this solver.
    EXPECT_EQ(snap.CounterValue("nomad_worker_tokens_popped_total", l),
              snap.CounterValue("nomad_worker_tokens_pushed_total", l));
  }
  EXPECT_EQ(updates_sum, r.total_updates);
  EXPECT_GT(pushed_sum, 0);
  // The router saw every hand-off; topology-blind means all-local.
  EXPECT_EQ(snap.CounterValue("nomad_router_local_picks_total"), pushed_sum);
  EXPECT_EQ(snap.CounterValue("nomad_router_remote_picks_total"), 0);
}

// Fixed mode reports through the same registry view (rounds now real
// rather than zero; grows/shrinks stay zero by construction).
TEST(ObsSolverTest, FixedModeViewsStayConstantShaped) {
  const Dataset ds = MakeTestDataset();
  MetricsRegistry reg;
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/4);
  options.metrics = &reg;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MetricsSnapshot snap = reg.Snapshot();
  for (const WorkerBatchStats& s : result.value().worker_batch) {
    EXPECT_EQ(s.grows, 0);
    EXPECT_EQ(s.shrinks, 0);
    EXPECT_EQ(s.final_batch, s.min_batch_seen);
    EXPECT_EQ(s.final_batch, s.max_batch_seen);
    EXPECT_GT(s.rounds, 0);  // the view now reports real rounds
    EXPECT_EQ(snap.CounterValue("nomad_worker_rounds_total",
                                obs::WorkerLabels(-1, s.worker)),
              s.rounds);
  }
}

// NOMAD_METRICS=off equivalent: a disabled registry must not degrade the
// returned stats — Finish() falls back to the controller.
TEST(ObsSolverTest, DisabledRegistryKeepsTrainResultIntact) {
  const Dataset ds = MakeTestDataset();
  MetricsRegistry reg(/*enabled=*/false);
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/4);
  options.token_batch_mode = TokenBatchMode::kAuto;
  options.metrics = &reg;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const WorkerBatchStats& s : result.value().worker_batch) {
    EXPECT_GT(s.rounds, 0);
    EXPECT_GE(s.min_batch_seen, 1);
    EXPECT_FALSE(s.trajectory.empty());
  }
  EXPECT_TRUE(reg.Snapshot().samples().empty());
}

// The dist workers under a disabled registry: they count nowhere (fixed
// mode then reports the constant shape, rounds 0), while rank_traffic,
// which the private fallback registry backs, stays intact.
TEST(ObsSolverTest, DisabledRegistryKeepsDistTrainResultIntact) {
  const Dataset ds = MakeTestDataset(200, 40, 2000, 11);
  MetricsRegistry reg(/*enabled=*/false);
  net::DistNomadOptions options;
  options.train = FastTrainOptions(/*epochs=*/3, /*workers=*/2);
  options.train.metrics = &reg;
  auto results = net::TrainLoopbackWorld(ds, options, /*world=*/2);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
  for (const auto& result : results) {
    ASSERT_EQ(result.value().worker_batch.size(), 2u);
    for (const WorkerBatchStats& s : result.value().worker_batch) {
      EXPECT_EQ(s.rounds, 0);
    }
  }
  const std::vector<RankTrafficStats>& traffic =
      results[0].value().rank_traffic;
  ASSERT_EQ(traffic.size(), 2u);
  int64_t sent = 0;
  int64_t received = 0;
  for (const RankTrafficStats& t : traffic) {
    sent += t.tokens_sent;
    received += t.tokens_received;
  }
  EXPECT_GT(sent, 0);
  EXPECT_EQ(sent, received);
  EXPECT_TRUE(reg.Snapshot().samples().empty());
}

// NomadSolver is the dist driver's world of one, yet keeps the
// shared-memory surface: no nomad_dist_* series reach the caller's
// registry, and the update rate is nomad_updates_per_second.
TEST(ObsSolverTest, SharedMemoryRunRegistersNoDistSeries) {
  const Dataset ds = MakeTestDataset();
  MetricsRegistry reg;
  NomadSolver solver;
  TrainOptions options = FastTrainOptions(/*epochs=*/3);
  options.metrics = &reg;
  auto result = solver.Train(ds, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MetricsSnapshot snap = reg.Snapshot();
  for (const obs::MetricSample& s : snap.samples()) {
    EXPECT_NE(s.name.rfind("nomad_dist_", 0), 0u) << s.name;
  }
  EXPECT_GT(snap.GaugeValue("nomad_updates_per_second"), 0.0);
  EXPECT_TRUE(result.value().rank_traffic.empty());
}

// Distributed: rank_traffic is a view over the rank-labeled dist counters.
TEST(ObsSolverTest, DistRankTrafficMatchesRegistry) {
  const Dataset ds = MakeTestDataset(200, 40, 2000, 11);
  MetricsRegistry reg;
  net::DistNomadOptions options;
  options.train = FastTrainOptions(/*epochs=*/3, /*workers=*/2);
  options.train.metrics = &reg;
  auto results = net::TrainLoopbackWorld(ds, options, /*world=*/2);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  const MetricsSnapshot snap = reg.Snapshot();
  const std::vector<RankTrafficStats>& traffic =
      results[0].value().rank_traffic;
  ASSERT_EQ(traffic.size(), 2u);
  int64_t sent_total = 0;
  int64_t received_total = 0;
  for (const RankTrafficStats& t : traffic) {
    const Labels rl = {{"rank", std::to_string(t.rank)}};
    EXPECT_EQ(snap.CounterValue("nomad_dist_tokens_sent_total", rl),
              t.tokens_sent);
    EXPECT_EQ(snap.CounterValue("nomad_dist_tokens_received_total", rl),
              t.tokens_received);
    sent_total += t.tokens_sent;
    received_total += t.tokens_received;
  }
  EXPECT_GT(sent_total, 0);
  // Loopback delivers everything: global conservation of remote hand-offs.
  EXPECT_EQ(sent_total, received_total);
  // Per-worker series carry both rank and worker labels.
  EXPECT_GT(snap.CounterValue("nomad_worker_updates_total",
                              obs::WorkerLabels(0, 0)),
            0);
  // No faults injected: the failure-plane series exist and sit at zero.
  EXPECT_EQ(snap.CounterValue("nomad_dist_regrants_total",
                              {{"rank", "0"}}),
            0);
  EXPECT_EQ(snap.GaugeValue("nomad_dist_peer_alive",
                            {{"peer", "1"}, {"rank", "0"}}),
            1.0);
}

}  // namespace
}  // namespace nomad
