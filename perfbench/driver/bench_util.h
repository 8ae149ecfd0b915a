// Shared pieces of the perf benchmark driver: the result record every
// workload fills, order statistics, and readers for the registry series
// the library already exports.
#ifndef PERFBENCH_DRIVER_BENCH_UTIL_H_
#define PERFBENCH_DRIVER_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Steady-clock seconds since an arbitrary epoch.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Command-line selection of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< Measured time budget of the run.
  bool trace = false;     ///< Per-layer run instead of the end-to-end run.
  bool tiny = false;      ///< Smoke-test sizes (seconds-scale, not measured).
  int nproc = 1;          ///< Hardware threads the load may use.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct GateResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one workload run reports. `e2e` feeds the untraced run's
/// output, `layers` the traced run's; `notes` are printed for people.
struct Report {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::vector<GateResult> gates;
  std::vector<std::string> notes;
  /// Every parameter the workload ran with; hashed into the manifest.
  std::string config;
  int64_t attempted = 0;  ///< Operations issued (queries, writes, runs).
  int64_t failed = 0;     ///< Operations that failed or were refused.

  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
  /// Records one check of gate `name`. Repeated checks (one per training
  /// job, say) fold into one gate that fails if any check failed and keeps
  /// the detail of the first failure, or else of the latest check.
  void Gate(const std::string& name, bool ok, const std::string& detail) {
    for (GateResult& g : gates) {
      if (g.name != name) continue;
      if (g.ok) g.detail = detail;
      g.ok = g.ok && ok;
      return;
    }
    gates.push_back({name, ok, detail});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Median (mean of the middle pair for even sizes); 0 for an empty set.
double Median(std::vector<double> v);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
double Quantile(std::vector<double> v, double q);

/// Lower and upper quartile (nearest rank); 0 for an empty set. The
/// benchmark runs on shared virtual machines whose host stalls a core for
/// milliseconds at random: interference only ever slows a measurement, so
/// throughputs over repeated jobs are reported as the upper quartile and
/// times as the lower quartile, which discounts the jobs a stall hit.
inline double LowerQuartile(std::vector<double> v) { return Quantile(v, 0.25); }
inline double UpperQuartile(std::vector<double> v) { return Quantile(v, 0.75); }

/// Quantile q of time-ordered samples cut into consecutive windows of
/// `window` samples (at least enough for q to be valid: ten beyond it);
/// the lower quartile of the per-window quantiles is returned. A tail the
/// program produces shows in every window; a host stall that hits some
/// windows does not decide the result. Fewer than two windows: the plain
/// quantile.
double WindowedQuantile(const std::vector<double>& ordered, double q,
                        size_t window = 0);

/// Mean of time-ordered samples, taken the same way: the lower quartile of
/// the means of consecutive `window`-sample windows.
double WindowedMean(const std::vector<double>& ordered, size_t window);

/// A quantile is only reported when at least ten samples lie beyond it.
inline bool QuantileValid(size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// One histogram series summed over every label set of its name.
struct MergedHistogram {
  std::vector<double> bounds;
  std::vector<int64_t> buckets;  // bounds.size() + 1, +Inf last
  int64_t count = 0;
  double sum = 0.0;

  /// Quantile by log-linear interpolation inside the bucket holding it.
  double QuantileOf(double q) const;
  double Mean() const { return count > 0 ? sum / count : 0.0; }
};

MergedHistogram MergeHistogram(const nomad::obs::MetricsSnapshot& snap,
                               const std::string& name);

/// printf into a std::string.
std::string Fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// Workload entry points (one per BENCHMARK.json workload).
Report RunTrainShm(const RunOptions& options);
Report RunTrainTcp2(const RunOptions& options);
Report RunServeRw(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_UTIL_H_
