// Workload inputs of the repository benchmark, generated from the
// benchmark's `--seed` argument: the program only ever sees what these
// builders produce.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/detection_study.h"
#include "core/scenario.h"
#include "fault/schedule.h"
#include "net/prefix.h"
#include "sim/engine.h"
#include "telescope/telescope.h"
#include "topology/filtering.h"
#include "topology/reachability.h"
#include "worms/codered2.h"
#include "worms/hitlist.h"

namespace perfbench {

/// The seed at which the outbreak workload reproduces the repository's
/// standing hot-path fixture (micro_hotpath at scale 1.0) exactly, and so
/// its pinned fingerprint.
inline constexpr std::uint64_t kDefaultSeed = 0;
inline constexpr std::uint64_t kPinnedOutbreakFingerprint =
    0xa61f6298509ab9ecull;

/// Seeds of one workload instance.  The population is always the fixture's;
/// the default seed maps the rest to the constants the repository's benches
/// use, and every other seed derives fresh placement, outbreak and fault
/// seeds.
struct WorkloadSeeds {
  std::uint64_t population = 0;
  std::uint64_t placement = 0;
  std::uint64_t engine = 0;
  std::uint64_t faults = 0;
};
[[nodiscard]] WorkloadSeeds SeedsFor(std::uint64_t seed,
                                     std::uint64_t population_default,
                                     std::uint64_t placement_default,
                                     std::uint64_t engine_default);

/// Set-up cost of building a fixture, by layer.
struct SetupTimes {
  double core_build_s = 0.0;       ///< ScenarioBuilder::BuildClustered.
  double core_placement_s = 0.0;   ///< Hit-list selection and sensor placement.
  double telescope_build_s = 0.0;  ///< Building the sensor fleet once.
};

/// The hit-list outbreak of the hot-path fixture: clustered population with
/// 15 % behind one shared-site NAT, the greedy 1000-/16 hit-list worm, one
/// /24 darknet per populated /16 (unique sources and per-/24 counts,
/// threshold 5), two full /16 ACLs and one partial, 0.001 loss.
struct OutbreakFixture {
  WorkloadSeeds seeds;
  hotspots::core::Scenario scenario;
  hotspots::core::HitListSelection selection;
  std::unique_ptr<hotspots::worms::HitListWorm> worm;
  std::vector<hotspots::net::Prefix> sensor_blocks;
  hotspots::telescope::SensorOptions sensor_options;
  hotspots::topology::IngressAclSet acls;
  std::unique_ptr<hotspots::topology::Reachability> reachability;
  hotspots::sim::EngineConfig engine_config;
  SetupTimes setup;

  [[nodiscard]] hotspots::telescope::Telescope MakeTelescope() const;
};

[[nodiscard]] std::unique_ptr<OutbreakFixture> BuildOutbreakFixture(
    double scale, std::uint64_t seed);

/// The repository's output fingerprint of one outbreak run: the RunResult
/// series and delivery counts plus every sensor's counts, alert time and
/// per-/24 histogram (the same digest micro_hotpath reports).
[[nodiscard]] std::uint64_t OutbreakFingerprint(
    const hotspots::sim::RunResult& result,
    const hotspots::telescope::Telescope& scope);

/// A fig5c-style Monte-Carlo detection study: CodeRedII, 15 % of hosts
/// behind 192.168/16, random and 192/8 sensor placements, under a
/// hotspots.faults.v2 schedule of Gilbert-Elliott burst loss and /8 group
/// outages.
struct StudyFixture {
  WorkloadSeeds seeds;
  hotspots::core::Scenario scenario;
  hotspots::worms::CodeRed2Worm worm;
  std::string fault_spec;
  hotspots::fault::FaultSchedule faults;
  struct Placement {
    std::string name;
    std::vector<hotspots::net::Prefix> sensors;
  };
  std::vector<Placement> placements;  ///< [0] random, [1] 192/8.
  int trials_per_placement = 0;
  SetupTimes setup;

  /// Monte-Carlo configuration of one placement's study (engine shards
  /// pinned to 1, trial threads as given).
  [[nodiscard]] hotspots::core::MonteCarloStudyConfig StudyConfig(
      const Placement& placement, int threads) const;
};

[[nodiscard]] std::unique_ptr<StudyFixture> BuildStudyFixture(
    std::uint64_t seed, int trial_threads);

/// Order-insensitive digest of a Monte-Carlo study's per-trial outcomes.
[[nodiscard]] std::uint64_t StudyDigest(
    const hotspots::core::MonteCarloDetectionSummary& summary);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double PeakRssMb();

/// Hardware threads available to the benchmark (at least 1).
[[nodiscard]] int HardwareThreads();

}  // namespace perfbench
