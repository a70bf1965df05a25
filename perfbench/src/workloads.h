// The benchmark's three workloads and the metrics they report.
//
// Every workload runs in rounds on fresh files. A round sets up a tree,
// runs its measured phases, crashes the process image (DataDirEnv::Crash +
// destroying the database without its closing flush), times the reopen
// (restart recovery) and checks the recovered contents against a shadow of
// every acknowledged write. Every end-to-end metric is therefore measured in
// every workload; what differs is the tree and which phase is the workload's
// point:
//
//  serve_hot     4 hash partitions on 4 executor lanes, a compact (fill 0.9)
//                tree that fits the buffer pool; one closed-loop client runs
//                90% Get / 5% Update / 5% Scan(<=50). Afterwards every
//                partition is reorganized (little to do on a compact tree),
//                then crash + recovery of the window's log.
//  reorg_online  one partition holding an aged sparse tree several times the
//                pool (aged once per run, copied into each round); the
//                client runs 70% Get / 10% Update / 5% Insert / 5% Delete /
//                10% Scan closed-loop for 1.5 s, then on at 2000 ops/s while
//                the reorganizer runs its three passes; the window ends with
//                the last pass. Then crash + recovery of the
//                reorganization's log.
//  restart       one partition, a sparse tree several times the pool:
//                checkpoint, a burst of committed 50-op update transactions
//                and a completed pass 1, then crash; the point is the timed
//                Database::Open. Afterwards the client (reorg_online's mix)
//                serves the recovered tree for a fixed window and the tree is
//                reorganized.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Rounds run in fresh subdirectories of this directory.
  std::string data_dir;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_dir;
  /// Recorded in the stamp only.
  std::string git_rev;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<std::string>& WorkloadNames();
/// What the untraced run reports.
const std::vector<MetricDef>& EndToEndMetrics();
/// What the traced run reports.
const std::vector<MetricDef>& PerLayerMetrics();

/// Metric names are [A-Za-z0-9_.-]+, start with a letter or digit, and are
/// at most 64 characters long.
bool ValidMetricName(const std::string& name);

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Exactly the declared metrics of the run's mode, by name.
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> stamp;
  /// Human-readable report lines (printed before the result line).
  std::vector<std::string> report;
  /// Non-empty when the run could not be carried out at all.
  std::string error;
};

RunResult RunWorkload(const RunConfig& cfg);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
