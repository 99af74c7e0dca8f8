// Isolated per-layer timings: each layer's public entry point, called on
// its own over a probe sample recorded from the workload's traced run, so
// the per-operation cost can be multiplied by the run's operation count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/schedule.h"
#include "sim/observer.h"
#include "sim/population.h"
#include "sim/targeting.h"
#include "telescope/telescope.h"
#include "topology/reachability.h"

namespace perfbench {

/// What the engine-layer timings need from a workload.
struct EngineLayerInputs {
  const hotspots::sim::Population* population = nullptr;
  const hotspots::sim::Worm* worm = nullptr;
  const hotspots::topology::Reachability* reachability = nullptr;
  /// Builds a fresh copy of the workload's sensor fleet.
  std::function<hotspots::telescope::Telescope()> make_fleet;
  /// Fault schedule whose verdict path is timed.
  const hotspots::fault::FaultSchedule* faults = nullptr;
  std::uint64_t engine_seed = 0;
};

/// Median nanoseconds per call of each layer's entry point.
struct EngineLayerCosts {
  double next_target_ns = 0.0;    ///< HostScanner::NextTarget, per probe.
  double decide_ns = 0.0;         ///< Reachability::Decide, per probe.
  double victim_lookup_ns = 0.0;  ///< Population::FindInSite, per delivered.
  double observe_ns = 0.0;        ///< Telescope::Observe, per delivered.
  double verdict_ns = 0.0;        ///< DeliveryFaults::ShardProbeVerdict.
  std::uint64_t sample_probes = 0;
  std::uint64_t sample_delivered = 0;
};

[[nodiscard]] EngineLayerCosts TimeEngineLayers(
    const std::vector<hotspots::sim::ProbeEvent>& sample,
    const EngineLayerInputs& inputs);

/// Costs of the trace layer over one capture file.
struct TraceLayerCosts {
  double decode_ns = 0.0;  ///< StreamDecoder::Feed + NextBatch, per record.
  double read_ns = 0.0;    ///< TraceReader::NextBatch pull, per record.
  double bytes_per_record = 0.0;
  std::uint64_t records = 0;
};

[[nodiscard]] TraceLayerCosts TimeTraceLayer(const std::string& trace_path);

/// Writes `events` as a full-fidelity capture at `trace_path`; returns the
/// wall seconds the writer took (Finish included).
double WriteCapture(const std::string& trace_path,
                    const std::vector<hotspots::sim::ProbeEvent>& events,
                    std::uint64_t seed);

}  // namespace perfbench
