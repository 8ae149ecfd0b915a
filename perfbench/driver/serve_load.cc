#include "serve_load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>

#include "util/logging.h"

namespace perfbench {
namespace {

using nomad::serve::RatingIngest;
using nomad::serve::ServeEngine;

// Sleeps until steady time `t` (seconds, as Now()).
void SleepUntil(double t) {
  const double dt = t - Now();
  if (dt > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(dt));
  }
}

// Wake-ups within microseconds, not the default 50 µs timer slack: the
// generator's own lateness would otherwise show up as query latency.
void TightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  NOMAD_CHECK(fd >= 0) << "socket";
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  NOMAD_CHECK(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)) == 0)
      << "connect to serve port " << port;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads '\n'-terminated lines from `fd` into `on_line` until `done()` or
// the deadline; returns false on EOF or error.
template <typename OnLine, typename Done>
bool ReadLines(int fd, double deadline, OnLine on_line, Done done) {
  std::string pending;
  char buf[8192];
  while (!done() && Now() < deadline) {
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, 20) <= 0) continue;
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    pending.append(buf, static_cast<size_t>(n));
    size_t start = 0;
    size_t nl;
    while ((nl = pending.find('\n', start)) != std::string::npos) {
      on_line(std::string_view(pending).substr(start, nl - start));
      start = nl + 1;
    }
    pending.erase(0, start);
  }
  return true;
}

// One pipelined connection: a sender on a fixed schedule and a receiver
// matching answers to due times in FIFO order.
struct Channel {
  int fd = -1;
  std::mutex mu;
  std::deque<double> due;  // guarded by mu
  std::atomic<bool> sender_done{false};
};

constexpr double kDrainSeconds = 2.0;

}  // namespace

ZipfSampler::ZipfSampler(int64_t n, double s) {
  cdf_.resize(static_cast<size_t>(std::max<int64_t>(n, 1)));
  double total = 0.0;
  for (size_t i = 0; i < cdf_.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

int32_t ZipfSampler::Sample(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int32_t>(
      std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                       cdf_.size() - 1));
}

double LoadResult::MeanLatencyMs() const {
  return WindowedMean(latency_ms, 1000);
}

ServeStack StartServeStack(nomad::Model model, const ServePlan& plan,
                           nomad::obs::MetricsRegistry* registry) {
  ServeStack stack;
  nomad::serve::ServeOptions options;
  options.metrics = registry;
  auto engine = ServeEngine::Create(std::move(model), options);
  NOMAD_CHECK(engine.ok()) << engine.status().ToString();
  stack.engine = std::move(engine).value();
  stack.ingest =
      std::make_unique<RatingIngest>(stack.engine.get(), plan.appliers);
  nomad::serve::ServerOptions server_options;
  server_options.threads = plan.query_conns + 1;  // one handler per connection
  auto server = nomad::serve::ServeServer::Start(
      stack.engine.get(), stack.ingest.get(), server_options);
  NOMAD_CHECK(server.ok()) << server.status().ToString();
  stack.server = std::move(server).value();
  return stack;
}

LoadResult RunLoad(ServeStack* stack, const ZipfSampler& users,
                   const LoadSpec& spec, uint64_t seed) {
  ServeEngine* engine = stack->engine.get();
  RatingIngest* ingest = stack->ingest.get();
  const int port = stack->server->port();
  const int items = static_cast<int>(engine->items());
  LoadResult result;
  std::mutex result_mu;
  // (due or send time, milliseconds), put in time order at the end.
  std::vector<std::pair<double, double>> timed_latency, timed_staleness;

  const int conns = spec.query_conns;
  std::vector<std::unique_ptr<Channel>> channels;
  for (int c = 0; c < conns; ++c) {
    channels.push_back(std::make_unique<Channel>());
    channels.back()->fd = Connect(port);
  }
  const double t0 = Now() + 0.005;
  const double t_end = t0 + spec.seconds;
  const double deadline = t_end + kDrainSeconds;

  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    Channel* ch = channels[static_cast<size_t>(c)].get();
    threads.emplace_back([&, ch, c] {  // sender
      TightTimerSlack();
      std::mt19937_64 rng(seed * 7919 + static_cast<uint64_t>(c));
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      std::vector<double> lateness;
      int64_t sent = 0;
      for (int64_t i = c;; i += conns) {
        const double due = t0 + static_cast<double>(i) / spec.query_qps;
        if (due >= t_end) break;
        SleepUntil(due);
        const std::string line =
            spec.ping ? std::string("ping\n")
                      : "topn " + std::to_string(users.Sample(unit(rng))) +
                            " " + std::to_string(spec.n) + "\n";
        {
          std::lock_guard<std::mutex> lock(ch->mu);
          ch->due.push_back(due);
        }
        lateness.push_back((Now() - due) * 1e3);
        ++sent;
        if (!SendAll(ch->fd, line)) break;
      }
      ch->sender_done.store(true);
      std::lock_guard<std::mutex> lock(result_mu);
      result.queries_sent += sent;
      result.lateness_ms.insert(result.lateness_ms.end(), lateness.begin(),
                                lateness.end());
    });
    threads.emplace_back([&, ch] {  // receiver
      std::vector<std::pair<double, double>> latency;  // (due, ms)
      int64_t failed = 0;
      auto done = [&] {
        std::lock_guard<std::mutex> lock(ch->mu);
        return ch->sender_done.load() && ch->due.empty();
      };
      ReadLines(
          ch->fd, deadline,
          [&](std::string_view line) {
            const double now = Now();
            double due;
            {
              std::lock_guard<std::mutex> lock(ch->mu);
              if (ch->due.empty()) {
                ++failed;  // an answer nobody asked for
                return;
              }
              due = ch->due.front();
              ch->due.pop_front();
            }
            if (line.substr(0, 3) == "ok ") {
              latency.emplace_back(due, (now - due) * 1e3);
            } else {
              ++failed;
            }
          },
          done);
      while (!ch->sender_done.load()) SleepUntil(Now() + 0.001);
      {
        std::lock_guard<std::mutex> lock(ch->mu);
        failed += static_cast<int64_t>(ch->due.size());  // unanswered
        ch->due.clear();
      }
      std::lock_guard<std::mutex> lock(result_mu);
      result.queries_failed += failed;
      timed_latency.insert(timed_latency.end(), latency.begin(),
                           latency.end());
    });
  }

  // Rating writes: one connection on its own schedule. The watcher times
  // each write from its send until the user's version shows it.
  struct PendingWrite {
    int32_t user;
    uint64_t target_version;
    double sent_at;
  };
  std::mutex pending_mu;
  std::vector<PendingWrite> pending;  // guarded by pending_mu
  Channel writes;
  if (spec.write_qps > 0.0) {
    writes.fd = Connect(port);
    threads.emplace_back([&] {  // write sender
      TightTimerSlack();
      std::mt19937_64 rng(seed * 104729 + 17);
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      std::unordered_map<int32_t, uint64_t> next_version;
      int64_t sent = 0;
      int64_t bytes = 0;
      for (int64_t i = 0;; ++i) {
        const double due = t0 + static_cast<double>(i) / spec.write_qps;
        if (due >= t_end) break;
        SleepUntil(due);
        const int32_t u = users.Sample(unit(rng));
        const int32_t j = static_cast<int32_t>(rng() % items);
        const double v = 2.0 * unit(rng) - 1.0;
        auto it = next_version.find(u);
        if (it == next_version.end()) {
          it = next_version.emplace(u, engine->user_version(u)).first;
        }
        const uint64_t target = ++it->second;
        {
          std::lock_guard<std::mutex> lock(writes.mu);
          writes.due.push_back(due);
        }
        const double sent_at = Now();
        {
          std::lock_guard<std::mutex> lock(pending_mu);
          pending.push_back({u, target, sent_at});
        }
        ++sent;
        const std::string line = Fmt("rate %d %d %.6f\n", u, j, v);
        bytes += static_cast<int64_t>(line.size());
        if (!SendAll(writes.fd, line)) break;
      }
      writes.sender_done.store(true);
      std::lock_guard<std::mutex> lock(result_mu);
      result.writes_sent += sent;
      result.write_wire_bytes += bytes;
    });
    threads.emplace_back([&] {  // write receiver
      int64_t failed = 0;
      int64_t bytes = 0;
      auto done = [&] {
        std::lock_guard<std::mutex> lock(writes.mu);
        return writes.sender_done.load() && writes.due.empty();
      };
      ReadLines(
          writes.fd, deadline,
          [&](std::string_view line) {
            {
              std::lock_guard<std::mutex> lock(writes.mu);
              if (!writes.due.empty()) writes.due.pop_front();
            }
            bytes += static_cast<int64_t>(line.size()) + 1;
            if (line.substr(0, 3) != "ok ") ++failed;
          },
          done);
      while (!writes.sender_done.load()) SleepUntil(Now() + 0.001);
      std::lock_guard<std::mutex> lock(result_mu);
      result.writes_failed += failed;
      result.write_wire_bytes += bytes;
    });
    threads.emplace_back([&] {  // staleness watcher
      TightTimerSlack();
      std::vector<std::pair<double, double>> staleness;  // (sent, ms)
      size_t max_depth = 0;
      for (;;) {
        const double now = Now();
        bool idle;
        {
          std::lock_guard<std::mutex> lock(pending_mu);
          auto keep = pending.begin();
          for (auto it = pending.begin(); it != pending.end(); ++it) {
            if (engine->user_version(it->user) >= it->target_version) {
              staleness.emplace_back(it->sent_at, (now - it->sent_at) * 1e3);
            } else {
              *keep++ = *it;
            }
          }
          pending.erase(keep, pending.end());
          idle = pending.empty();
        }
        max_depth = std::max(max_depth, ingest->QueueDepth());
        if ((idle && writes.sender_done.load()) || now > deadline) break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      std::lock_guard<std::mutex> lock(result_mu);
      timed_staleness = std::move(staleness);
      result.max_queue_depth = max_depth;
    });
  }

  for (auto& t : threads) t.join();
  for (auto& ch : channels) close(ch->fd);
  if (writes.fd >= 0) close(writes.fd);
  {
    std::lock_guard<std::mutex> lock(pending_mu);
    result.writes_failed += static_cast<int64_t>(pending.size());
  }
  ingest->Drain();
  for (auto* timed : {&timed_latency, &timed_staleness}) {
    std::sort(timed->begin(), timed->end());
    auto& out = timed == &timed_latency ? result.latency_ms
                                        : result.staleness_ms;
    for (const auto& [t, ms] : *timed) out.push_back(ms);
  }
  return result;
}

namespace {

// Gate: top-N served by the engine and by the socket equals offline TopN
// on the quiesced factors, bit for bit, for a sweep of users.
void CheckServeParity(ServeStack* stack, const ServePlan& plan,
                      Report* report) {
  ServeEngine* engine = stack->engine.get();
  stack->ingest->Drain();
  // Kill every cached answer: an entry survives at most
  // cache_staleness_limit (256) applied ratings, so the socket path below
  // rescores from the quiesced factors like the offline TopN does.
  for (int i = 0; i <= 256; ++i) {
    NOMAD_CHECK(engine->ApplyRating(0, i % static_cast<int>(engine->items()),
                                    0.5, /*applier=*/0)
                    .ok());
  }
  const nomad::Model offline = engine->QuiescedModel();
  const int fd = Connect(stack->server->port());
  int checked = 0;
  int mismatches = 0;
  std::string first_mismatch;
  const int64_t stride = std::max<int64_t>(1, engine->users() / 40);
  for (int64_t u = 1; u < engine->users(); u += stride) {
    const auto user = static_cast<int32_t>(u);
    const std::vector<nomad::ScoredItem> expected =
        nomad::TopN(offline, user, plan.n);
    // Engine path, uncached: identical exclude lists on both sides.
    const std::vector<int32_t> exclude = {static_cast<int32_t>(u % 7)};
    auto served = engine->TopN(user, plan.n, exclude);
    bool ok = served.ok() &&
              served.value().items == nomad::TopN(offline, user, plan.n,
                                                  exclude);
    // Socket path: the line the server must print for the offline answer.
    std::string want = "ok " + std::to_string(u) + " " +
                       std::to_string(expected.size());
    for (const nomad::ScoredItem& s : expected) {
      want += Fmt(" %d:%.6f", s.item, s.score);
    }
    std::string got;
    if (SendAll(fd, "topn " + std::to_string(u) + " " +
                        std::to_string(plan.n) + "\n")) {
      ReadLines(
          fd, Now() + 5.0,
          [&](std::string_view line) { got = std::string(line); },
          [&] { return !got.empty(); });
    }
    ok = ok && got == want;
    ++checked;
    if (!ok) {
      ++mismatches;
      if (first_mismatch.empty()) first_mismatch = "user " + std::to_string(u);
    }
  }
  close(fd);
  report->attempted += checked;
  report->Gate("serve_parity", mismatches == 0,
               Fmt("%d users checked, %d mismatches%s%s", checked, mismatches,
                   first_mismatch.empty() ? "" : ", first ",
                   first_mismatch.c_str()));
}

}  // namespace

LoadResult RunServePhase(ServeStack* stack, const ServePlan& plan,
                         const RunOptions& options, Report* report) {
  const ZipfSampler users(stack->engine->users(), plan.zipf_s);
  LoadSpec spec;
  spec.query_conns = plan.query_conns;
  spec.n = plan.n;
  spec.write_qps = plan.write_qps;

  // Warm-up: fills the candidate cache and the server's handler threads.
  spec.query_qps = plan.ref_qps;
  spec.seconds = std::min(0.5, plan.ref_seconds / 4);
  RunLoad(stack, users, spec, options.seed + 1);

  spec.seconds = plan.ref_seconds;
  const LoadResult ref = RunLoad(stack, users, spec, options.seed + 2);
  report->attempted += ref.queries_sent + ref.writes_sent;
  report->failed += ref.queries_failed + ref.writes_failed;
  // p50 over the same one-second-scale windows as p99.
  report->Layer("serve.query_p50_ms",
                WindowedQuantile(ref.latency_ms, 0.5, 1000), "ms");
  report->Layer("serve.query_p99_ms", WindowedQuantile(ref.latency_ms, 0.99),
                "ms");
  report->Layer("ingest.staleness_p50_ms",
                WindowedQuantile(ref.staleness_ms, 0.5, 1000), "ms");
  report->Layer("ingest.staleness_p99_ms",
                WindowedQuantile(ref.staleness_ms, 0.99), "ms");
  report->Gate("query_p99_samples",
               QuantileValid(ref.latency_ms.size(), 0.99),
               Fmt("%zu answered queries at %.0f/s", ref.latency_ms.size(),
                   plan.ref_qps));
  report->Gate("staleness_p99_samples",
               QuantileValid(ref.staleness_ms.size(), 0.99),
               Fmt("%zu writes seen at %.0f/s", ref.staleness_ms.size(),
                   plan.write_qps));
  report->Note(Fmt("reference window: %.0f q/s + %.0f writes/s for %.1fs: "
                   "%zu queries, p50 %.3f ms, p99 %.3f ms; generator "
                   "lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms",
                   plan.ref_qps, plan.write_qps, plan.ref_seconds,
                   ref.latency_ms.size(), Quantile(ref.latency_ms, 0.5),
                   Quantile(ref.latency_ms, 0.99),
                   Quantile(ref.lateness_ms, 0.5),
                   Quantile(ref.lateness_ms, 0.99),
                   Quantile(ref.lateness_ms, 1.0)));

  // Ladder: every rung runs; the result is the highest rate whose p99
  // meets the limit with no failures, so a host stall that fails one lower
  // rung does not end the climb. When the rung above it failed on p99, the
  // rate is interpolated log-linearly in p99 towards it, so the metric
  // moves continuously.
  std::vector<double> p99s(plan.ladder.size(), 0.0);
  std::vector<bool> passed(plan.ladder.size(), false);
  spec.seconds = plan.rung_seconds;
  for (size_t r = 0; r < plan.ladder.size(); ++r) {
    spec.query_qps = plan.ladder[r];
    const LoadResult rung = RunLoad(stack, users, spec, options.seed + 10 + r);
    report->attempted += rung.queries_sent + rung.writes_sent;
    report->failed += rung.queries_failed + rung.writes_failed;
    p99s[r] = WindowedQuantile(rung.latency_ms, 0.99);
    passed[r] = QuantileValid(rung.latency_ms.size(), 0.99) &&
                p99s[r] <= plan.slo_p99_ms && rung.queries_failed == 0 &&
                rung.writes_failed == 0;
    report->Note(Fmt("ladder %.0f q/s: p99 %.3f ms over %zu queries, "
                     "lateness p99 %.3f ms, %lld failed -> %s",
                     plan.ladder[r], p99s[r], rung.latency_ms.size(),
                     Quantile(rung.lateness_ms, 0.99),
                     static_cast<long long>(rung.queries_failed),
                     passed[r] ? "meets" : "misses"));
  }
  double max_qps = 0.0;
  for (size_t r = plan.ladder.size(); r-- > 0;) {
    if (!passed[r]) continue;
    max_qps = plan.ladder[r];
    if (r + 1 < plan.ladder.size() && p99s[r + 1] > plan.slo_p99_ms &&
        p99s[r] > 0.0) {
      const double frac = std::log(plan.slo_p99_ms / p99s[r]) /
                          std::log(p99s[r + 1] / p99s[r]);
      max_qps *= std::pow(plan.ladder[r + 1] / plan.ladder[r],
                          std::clamp(frac, 0.0, 1.0));
    }
    break;
  }
  report->Layer("serve.max_qps_at_slo", max_qps, "1/s");
  report->Gate("ladder_some_rung", max_qps > 0.0,
               Fmt("p99 limit %.1f ms; %.0f q/s", plan.slo_p99_ms, max_qps));

  CheckServeParity(stack, plan, report);
  return ref;
}

}  // namespace perfbench
