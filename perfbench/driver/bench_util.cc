#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

namespace {

// Lower quartile of `stat` over consecutive windows of `window` samples
// (the last window takes the remainder); `stat` of everything when there
// are fewer than two windows.
template <typename Stat>
double OverWindows(const std::vector<double>& ordered, size_t window,
                   Stat stat) {
  const size_t windows = ordered.size() / std::max<size_t>(window, 1);
  if (windows < 2) return stat(ordered);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin =
        ordered.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows
                         ? ordered.end()
                         : begin + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(stat(std::vector<double>(begin, end)));
  }
  return LowerQuartile(per_window);
}

}  // namespace

double WindowedQuantile(const std::vector<double>& ordered, double q,
                        size_t window) {
  window = std::max(window, static_cast<size_t>(std::ceil(
                                10.0 / std::max(1e-9, 1.0 - q) - 1e-9)));
  return OverWindows(ordered, window, [q](const std::vector<double>& v) {
    return Quantile(v, q);
  });
}

double WindowedMean(const std::vector<double>& ordered, size_t window) {
  return OverWindows(ordered, window, [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  });
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double MergedHistogram::QuantileOf(double q) const {
  if (count <= 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    const double in_bucket = static_cast<double>(buckets[b]);
    if (seen + in_bucket >= target && in_bucket > 0.0) {
      if (b >= bounds.size()) return bounds.back();  // +Inf bucket
      const double hi = bounds[b];
      const double lo = b == 0 ? hi / 2.0 : bounds[b - 1];
      const double frac = (target - seen) / in_bucket;
      return lo * std::pow(hi / lo, frac);
    }
    seen += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

MergedHistogram MergeHistogram(const nomad::obs::MetricsSnapshot& snap,
                               const std::string& name) {
  MergedHistogram merged;
  for (const nomad::obs::MetricSample& s : snap.samples()) {
    if (s.name != name || s.type != nomad::obs::MetricType::kHistogram) {
      continue;
    }
    if (merged.bounds.empty()) {
      merged.bounds = s.bounds;
      merged.buckets.assign(s.buckets.size(), 0);
    }
    if (s.buckets.size() != merged.buckets.size()) continue;
    for (size_t b = 0; b < s.buckets.size(); ++b) {
      merged.buckets[b] += s.buckets[b];
    }
    merged.count += s.count;
    merged.sum += s.sum;
  }
  return merged;
}

std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace perfbench
