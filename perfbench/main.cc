// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads N] [--work-dir DIR] [--commit SHA]
//
// Runs one workload (outbreak-hitlist, study-nat-faults, ingest-fleet) and
// prints report lines, one `provenance {...}` line, and as its last line
// the result object {correct, attempted, failed, metrics}.  With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// perfbench/run.py builds this program and is the intended entry point.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "fixtures.h"
#include "obs/json_writer.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload outbreak-hitlist|study-nat-faults|"
               "ingest-fleet --seed N --seconds S --trace 0|1 [--threads N] "
               "[--work-dir DIR] [--commit SHA]\n");
  return 2;
}

std::string BuildType() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "optimized, NDEBUG";
#elif defined(__OPTIMIZE__)
  return "optimized, assertions on";
#else
  return "unoptimized";
#endif
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  int threads = 0;
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return Usage();
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(seconds > 0.0)) return Usage();
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      trace = value[0] - '0';
    } else if (std::strcmp(flag, "--threads") == 0) {
      threads = static_cast<int>(std::strtol(value, &end, 10));
      if (end == value || *end != '\0' || threads < 1) return Usage();
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      work_dir = value;
    } else if (std::strcmp(flag, "--commit") == 0) {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || seconds <= 0.0 || trace < 0) return Usage();
  if (threads == 0) threads = HardwareThreads();

  RunOptions options;
  options.seed = seed;
  options.seconds = seconds;
  options.trace = trace == 1;
  options.threads = threads;
  options.work_dir = work_dir;
  std::filesystem::create_directories(work_dir);

  WorkloadResult result;
  try {
    if (workload == "outbreak-hitlist") {
      result = RunOutbreakHitlist(options);
    } else if (workload == "study-nat-faults") {
      result = RunStudyNatFaults(options);
    } else if (workload == "ingest-fleet") {
      result = RunIngestFleet(options);
    } else {
      return Usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), error.what());
    return 1;
  }

  for (const std::string& note : result.notes) {
    std::printf("%s: %s\n", workload.c_str(), note.c_str());
  }
  for (const auto& [reason, count] : result.ledger.reasons()) {
    std::printf("%s: FAILED %" PRIu64 " x %s\n", workload.c_str(), count,
                reason.c_str());
  }
  for (const std::string& failure : result.gate_failures) {
    std::printf("%s: GATE %s\n", workload.c_str(), failure.c_str());
  }
  std::printf("%s: failed_ratio %.6g (%" PRIu64 " of %" PRIu64
              " operations)\n",
              workload.c_str(), result.ledger.failed_ratio(),
              result.ledger.failed(), result.ledger.attempted());

  hotspots::obs::JsonWriter provenance;
  provenance.BeginObject();
  provenance.KV("workload", workload);
  provenance.KV("seed", seed);
  provenance.KV("nproc", static_cast<std::uint64_t>(HardwareThreads()));
  provenance.KV("threads", static_cast<std::uint64_t>(threads));
  provenance.KV("compiler", Compiler());
  provenance.KV("build", BuildType());
  provenance.KV("commit", commit);
  provenance.KV("trace", options.trace);
  provenance.Key("seconds").Value(seconds);
  provenance.Key("sizes").BeginObject();
  for (const auto& [name, value] : result.sizes) {
    provenance.Key(name).Value(value);
  }
  provenance.EndObject();
  provenance.EndObject();
  std::string line = provenance.str();
  for (char& c : line) {
    if (c == '\n') c = ' ';
  }
  std::printf("provenance %s\n", line.c_str());

  const auto& names =
      options.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  bool complete = true;
  std::string metrics = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric* found = nullptr;
    for (const Metric& metric : result.metrics) {
      if (metric.name == names[i]) found = &metric;
    }
    double value = found != nullptr ? found->value : 0.0;
    if (found == nullptr || !std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s %s\n", names[i].c_str(),
                   found == nullptr ? "missing" : "not finite");
      complete = false;
      value = 0.0;
    }
    char entry[256];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", names[i].c_str(), value,
                  found != nullptr ? found->unit.c_str() : "");
    metrics += entry;
  }
  metrics += "}";
  const bool correct = result.correct() && complete;
  std::uint64_t attempted = result.ledger.attempted();
  if (attempted == 0) attempted = 1;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, result.ledger.failed(),
              metrics.c_str());
  std::fflush(stdout);
  return complete ? 0 : 1;
}
