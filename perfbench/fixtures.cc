#include "fixtures.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "core/placement.h"
#include "harness.h"
#include "prng/splitmix.h"
#include "prng/xoshiro.h"
#include "trace/format.h"

namespace perfbench {

using namespace hotspots;

WorkloadSeeds SeedsFor(std::uint64_t seed, std::uint64_t population_default,
                       std::uint64_t placement_default,
                       std::uint64_t engine_default) {
  WorkloadSeeds seeds;
  // The population is the workload's fixed fixture: its structure sets how
  // much work an outbreak is, so drawing it per seed would measure the
  // population instead of the program.
  seeds.population = population_default;
  if (seed == kDefaultSeed) {
    seeds.placement = placement_default;
    seeds.engine = engine_default;
    seeds.faults = 0xFA17;
    return seeds;
  }
  prng::SplitMix64 stream{prng::Mix64(seed ^ 0x9E3779B97F4A7C15ull)};
  seeds.placement = stream.Next();
  seeds.engine = stream.Next();
  seeds.faults = stream.Next();
  return seeds;
}

namespace {

double Since(Clock::time_point t0) { return Seconds(t0, Clock::now()); }

core::ClusteredPopulationConfig NatPopulation(double scale,
                                              std::uint64_t seed) {
  core::ClusteredPopulationConfig config;
  config.total_hosts = static_cast<std::uint32_t>(134'586 * scale) + 1000;
  config.nonempty_slash16s = std::max(200, static_cast<int>(4481 * scale));
  config.slash8_clusters = 47;
  config.nat_fraction = 0.15;  // Section 5.3's NAT share.
  config.nat_site_mode = core::NatSiteMode::kSharedSite;
  config.seed = seed;
  return config;
}

}  // namespace

telescope::Telescope OutbreakFixture::MakeTelescope() const {
  telescope::Telescope scope{sensor_options};
  int id = 0;
  for (const auto& block : sensor_blocks) {
    scope.AddSensor("S" + std::to_string(id++), block);
  }
  scope.Build();
  return scope;
}

std::unique_ptr<OutbreakFixture> BuildOutbreakFixture(double scale,
                                                      std::uint64_t seed) {
  auto fixture = std::make_unique<OutbreakFixture>();
  fixture->seeds = SeedsFor(seed, 0xF16B, 0x5E45, 0xBEEF);

  auto t0 = Clock::now();
  core::ScenarioBuilder builder;
  fixture->scenario =
      builder.BuildClustered(NatPopulation(scale, fixture->seeds.population));
  fixture->setup.core_build_s = Since(t0);

  t0 = Clock::now();
  const core::Scenario& scenario = fixture->scenario;
  fixture->selection = core::GreedyHitList(scenario, 1000);
  fixture->worm =
      std::make_unique<worms::HitListWorm>(fixture->selection.prefixes);
  // One /24 darknet in an unoccupied /24 of every populated /16.
  prng::Xoshiro256 placement_rng{fixture->seeds.placement};
  for (const auto& cluster : scenario.slash16_clusters) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::uint32_t s24 = (cluster.prefix.first().value() >> 8) |
                                placement_rng.UniformBelow(256);
      if (scenario.occupied_slash24s.count(s24) != 0) continue;
      fixture->sensor_blocks.push_back(net::Prefix{net::Ipv4{s24 << 8}, 24});
      break;
    }
  }
  // Upstream ACLs: two fully covered hit-list /16s and one /22 slice.
  const auto& prefixes = fixture->selection.prefixes;
  fixture->acls.Block(net::Prefix{prefixes[2].first(), 16});
  fixture->acls.Block(net::Prefix{prefixes[7].first(), 16});
  fixture->acls.Block(net::Prefix{prefixes[11].first(), 22});
  fixture->acls.Build();
  fixture->reachability = std::make_unique<topology::Reachability>(
      nullptr, &fixture->scenario.nats, &fixture->acls, 0.001);
  fixture->setup.core_placement_s = Since(t0);

  fixture->sensor_options.track_unique_sources = true;
  fixture->sensor_options.track_per_slash24 = true;
  fixture->sensor_options.alert_threshold = 5;
  t0 = Clock::now();
  (void)fixture->MakeTelescope();
  fixture->setup.telescope_build_s = Since(t0);

  sim::EngineConfig& engine = fixture->engine_config;
  engine.scan_rate = 10.0;
  engine.end_time = 2500.0;
  engine.sample_interval = 25.0;
  engine.seed = fixture->seeds.engine;
  engine.stop_at_infected_fraction = 0.995 * fixture->selection.coverage;
  engine.max_probes = 20'000'000;
  return fixture;
}

std::uint64_t OutbreakFingerprint(const sim::RunResult& result,
                                  const telescope::Telescope& scope) {
  trace::Fingerprint fingerprint;
  for (const auto& point : result.series) {
    fingerprint.MixDouble(point.time);
    fingerprint.Mix(point.infected);
    fingerprint.Mix(point.probes);
  }
  for (const std::uint64_t count : result.delivery_counts) {
    fingerprint.Mix(count);
  }
  fingerprint.Mix(result.total_probes);
  fingerprint.Mix(result.final_infected);
  for (std::size_t i = 0; i < scope.size(); ++i) {
    const auto& sensor = scope.sensor(static_cast<int>(i));
    fingerprint.Mix(sensor.probe_count());
    fingerprint.Mix(sensor.UniqueSourceCount());
    fingerprint.MixDouble(sensor.alert_time().value_or(-1.0));
    for (const auto& row : sensor.Histogram()) {
      if (row.stats.probes == 0) continue;
      fingerprint.Mix(row.slash24);
      fingerprint.Mix(row.stats.probes);
      fingerprint.Mix(row.stats.unique_sources);
    }
  }
  return fingerprint.hash;
}

// ---------------------------------------------------------------------------

core::MonteCarloStudyConfig StudyFixture::StudyConfig(
    const Placement& placement, int threads) const {
  core::MonteCarloStudyConfig mc;
  mc.trials = trials_per_placement;
  mc.master_seed = seeds.engine;
  mc.threads = threads;
  mc.label = placement.name;
  mc.study.engine.scan_rate = 10.0;
  mc.study.engine.end_time = 1500.0;
  mc.study.engine.sample_interval = 15.0;
  // Figure 5c's ordering is read at 20 % infected; the rest of the
  // outbreak would only multiply the probe count.
  mc.study.engine.stop_at_infected_fraction = 0.25;
  // Trials run in parallel; one outbreak stays on one thread whatever the
  // environment says.
  mc.study.engine.shards = 1;
  mc.study.alert_threshold = 5;
  mc.study.seed_infections = 25;
  mc.study.faults = &faults;
  // Fail-fast trials would abort the study; quarantine keeps the loss
  // countable.
  mc.quarantine_failures = true;
  return mc;
}

std::unique_ptr<StudyFixture> BuildStudyFixture(std::uint64_t seed,
                                                int trial_threads) {
  constexpr double kScale = 0.05;
  auto fixture = std::make_unique<StudyFixture>();
  fixture->seeds = SeedsFor(seed, 0xF16C, 0x9A7C, 0xCC);

  auto t0 = Clock::now();
  core::ScenarioBuilder builder;
  fixture->scenario =
      builder.BuildClustered(NatPopulation(kScale, fixture->seeds.population));
  fixture->setup.core_build_s = Since(t0);

  t0 = Clock::now();
  prng::Xoshiro256 rng{fixture->seeds.placement};
  const int fleet = static_cast<int>(10'000 * kScale) + 100;
  fixture->placements.push_back(
      {"random", core::PlaceRandomSensors(fixture->scenario, fleet, rng)});
  fixture->placements.push_back({"192/8", core::PlaceSensorsAcross192(rng)});
  fixture->setup.core_placement_s = Since(t0);

  t0 = Clock::now();
  for (const auto& placement : fixture->placements) {
    (void)core::MakeAlertingTelescope(placement.sensors, 5);
  }
  fixture->setup.telescope_build_s = Since(t0);

  // Bursty loss (about one tick in eleven in the lossy state) plus one
  // shared outage window per /8 group of sensors.
  fixture->fault_spec = "seed:" + std::to_string(fixture->seeds.faults) +
                        ";gilbert:0.002:0.3:0.02:0.2"
                        ";groupoutages:8:0.05:1500";
  fixture->faults = fault::ParseFaultSpec(fixture->fault_spec);
  // Enough trials per thread that one long outbreak does not decide the
  // study's wall time on its own.
  fixture->trials_per_placement = 8 * trial_threads;
  return fixture;
}

std::uint64_t StudyDigest(const core::MonteCarloDetectionSummary& summary) {
  trace::Fingerprint digest;
  for (const core::DetectionOutcome& trial : summary.trials) {
    for (const auto& point : trial.run.series) {
      digest.MixDouble(point.time);
      digest.Mix(point.infected);
      digest.Mix(point.probes);
    }
    for (const std::uint64_t count : trial.run.delivery_counts) {
      digest.Mix(count);
    }
    digest.Mix(trial.run.total_probes);
    digest.Mix(trial.run.fault_injected_drops);
    digest.Mix(trial.run.fault_duplicates);
    digest.Mix(trial.outage_missed_probes);
    for (const double time : trial.alert_times) digest.MixDouble(time);
  }
  return digest.hash;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int HardwareThreads() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online > 0) return static_cast<int>(online);
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
