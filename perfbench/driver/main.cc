// perfbench: runs one workload of the repository's benchmark and prints one
// JSON object (the last stdout line) holding its end-to-end metrics, its
// per-layer metrics, the correctness gates and the run manifest.
// perfbench/run.py builds this binary and turns that object into the
// benchmark's result line; see perfbench/README.md for the metric
// definitions.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny 1]

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>

#include "bench_util.h"
#include "linalg/simd_ops.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += Fmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonMetrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + Fmt("%.17g", m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

// FNV-1a, enough to tell two option sets apart in a manifest.
std::string HashHex(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return Fmt("%016llx", static_cast<unsigned long long>(h));
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny 1]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--tiny") {
      options.tiny = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags come in pairs");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  options.nproc = std::max(1u, std::thread::hardware_concurrency());

  std::function<Report(const RunOptions&)> run;
  if (options.workload == "train-shm-netflix") {
    run = RunTrainShm;
  } else if (options.workload == "train-tcp2-yahoo") {
    run = RunTrainTcp2;
  } else if (options.workload == "serve-rw") {
    run = RunServeRw;
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  // A fixed mmap threshold: glibc otherwise raises it after the first
  // large free, so freed model-sized buffers would stay resident and
  // peak_rss_mb would depend on thread timing rather than on live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Report report = run(options);
  report.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  for (auto* metrics : {&report.e2e, &report.layers}) {
    for (const auto& [name, m] : *metrics) {
      if (!std::isfinite(m.value)) {
        report.Gate("finite_metrics", false, name + " is not finite");
      }
    }
  }

  std::string manifest = "{";
  manifest += "\"workload\": " + JsonString(options.workload);
  manifest += ", \"seed\": " + std::to_string(options.seed);
  manifest += ", \"seconds\": " + Fmt("%.17g", options.seconds);
  manifest += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  manifest += ", \"tiny\": " + std::string(options.tiny ? "true" : "false");
  manifest += ", \"nproc\": " + std::to_string(options.nproc);
  manifest += ", \"compiler\": " + JsonString("g++ " __VERSION__);
  manifest += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  manifest += ", \"cxx_flags\": " + JsonString(PERFBENCH_CXX_FLAGS);
  manifest += ", \"simd_f64\": " +
              JsonString(nomad::simd::ActiveTable<double>().isa);
  manifest += ", \"simd_f32\": " +
              JsonString(nomad::simd::ActiveTable<float>().isa);
  manifest += ", \"precision\": \"f64\"";
  manifest += ", \"config\": " + JsonString(report.config);
  manifest += ", \"options_hash\": " + JsonString(HashHex(report.config));
  manifest += "}";

  std::string gates = "[";
  bool all_ok = true;
  for (size_t i = 0; i < report.gates.size(); ++i) {
    const GateResult& g = report.gates[i];
    all_ok = all_ok && g.ok;
    if (i > 0) gates += ", ";
    gates += "{\"name\": " + JsonString(g.name) +
             ", \"ok\": " + (g.ok ? "true" : "false") +
             ", \"detail\": " + JsonString(g.detail) + "}";
  }
  gates += "]";
  std::string notes = "[";
  for (size_t i = 0; i < report.notes.size(); ++i) {
    if (i > 0) notes += ", ";
    notes += JsonString(report.notes[i]);
  }
  notes += "]";

  std::printf(
      "{\"manifest\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"gates\": %s, \"e2e\": %s, \"layers\": %s, \"notes\": %s}\n",
      manifest.c_str(), static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), gates.c_str(),
      JsonMetrics(report.e2e).c_str(), JsonMetrics(report.layers).c_str(),
      notes.c_str());
  std::fflush(stdout);
  return all_ok && report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
