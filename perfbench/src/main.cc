// The perfbench binary. Usually started by perfbench/run.py, which builds it:
//
//   perfbench --workload serve_hot|reorg_online|restart --seed N
//             --seconds S --trace 0|1 --data-dir DIR [--trace-dir DIR]
//             [--git-rev REV]
//   perfbench --list-metrics
//
// Prints a stamp line, report lines, and as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name:
// {"value": v, "unit": u}, ...}} — the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. Exits non-zero, printing no result,
// when the run cannot be carried out.

#include <malloc.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as exactly `v`.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string MetricsJson(const std::vector<perfbench::MetricDef>& defs,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& d : defs) {
    if (out.size() > 1) out += ", ";
    out += JsonString(d.name) + ": {\"value\": " +
           JsonNumber(values.at(d.name)) + ", \"unit\": " +
           JsonString(d.unit) + "}";
  }
  return out + "}";
}

int Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      std::string out = "{\"workloads\": [";
      for (size_t w = 0; w < perfbench::WorkloadNames().size(); ++w) {
        out += (w ? ", " : "") + JsonString(perfbench::WorkloadNames()[w]);
      }
      out += "], \"end_to_end\": [";
      bool first = true;
      for (const auto& d : perfbench::EndToEndMetrics()) {
        out += (first ? "" : ", ") + JsonString(d.name);
        first = false;
      }
      out += "], \"per_layer\": [";
      first = true;
      for (const auto& d : perfbench::PerLayerMetrics()) {
        out += (first ? "" : ", ") + JsonString(d.name);
        first = false;
      }
      std::printf("%s]}\n", out.c_str());
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = v == "1";
    } else if (a == "--data-dir") {
      cfg.data_dir = v;
      have_dir = true;
    } else if (a == "--trace-dir") {
      cfg.trace_dir = v;
    } else if (a == "--git-rev") {
      cfg.git_rev = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_dir) {
    return Usage("--workload and --data-dir are required");
  }
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");

  // glibc raises its mmap threshold after the first large free, after which
  // large blocks come from the heap and may stay resident once freed; peak
  // RSS then depends on allocation order and varies from run to run.
  // Pinning the threshold at glibc's default returns every large block to
  // the OS when it is freed, so rss_mb tracks live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const perfbench::RunResult res = perfbench::RunWorkload(cfg);
  if (!res.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", res.error.c_str());
    return 1;
  }
  std::string stamp = "{\"stamp\": {\"malloc_mmap_threshold\": \"131072\"";
  for (const auto& [key, value] : res.stamp) {
    stamp += ", " + JsonString(key) + ": " + JsonString(value);
  }
  std::printf("%s}}\n", stamp.c_str());
  for (const std::string& line : res.report) std::printf("%s\n", line.c_str());
  const auto& defs = cfg.trace ? perfbench::PerLayerMetrics()
                               : perfbench::EndToEndMetrics();
  if (cfg.trace) {
    for (const auto& d : defs) {
      std::printf("layer %s = %s %s\n", d.name,
                  JsonNumber(res.metrics.at(d.name)).c_str(), d.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              MetricsJson(defs, res.metrics).c_str());
  return 0;
}
