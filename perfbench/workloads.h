// The benchmark's workloads.  Each runs a warm-up pass, then timed passes
// for the requested number of seconds, gates every pass on correctness,
// and reports its end-to-end metrics (untraced) or per-layer metrics
// (traced run, which also times a short untraced run for the overhead).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// nproc: engine shards, trial threads.
  int threads = 1;
  /// Directory for capture files (inside the benchmark's checkout).
  std::string work_dir;
};

struct WorkloadResult {
  FailureLedger ledger;
  /// Gate failures that are not per-operation (e.g. a pinned fingerprint).
  std::vector<std::string> gate_failures;
  std::vector<Metric> metrics;
  /// Workload sizes for the provenance block.
  std::vector<std::pair<std::string, double>> sizes;
  /// Human-readable report lines.
  std::vector<std::string> notes;

  [[nodiscard]] bool correct() const {
    return gate_failures.empty() && ledger.failed() == 0;
  }
};

[[nodiscard]] WorkloadResult RunOutbreakHitlist(const RunOptions& options);
[[nodiscard]] WorkloadResult RunStudyNatFaults(const RunOptions& options);
[[nodiscard]] WorkloadResult RunIngestFleet(const RunOptions& options);

/// End-to-end metric names, in report order (every workload reports all).
[[nodiscard]] const std::vector<std::string>& EndToEndMetricNames();
/// Per-layer metric names, in report order (every workload reports all).
[[nodiscard]] const std::vector<std::string>& PerLayerMetricNames();

}  // namespace perfbench
