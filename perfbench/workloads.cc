#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "core/placement.h"
#include "fault/delivery.h"
#include "fault/inject.h"
#include "fixtures.h"
#include "ingest.h"
#include "layers.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/study.h"
#include "trace/replay.h"
#include "trace/writer.h"

namespace perfbench {

using namespace hotspots;

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "setup_s",           "throughput_per_s",     "serial_throughput_per_s",
      "op_p50_ms",         "op_tail_ms",           "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "sim.steps",              "sim.shard_busy_s",
      "sim.join_wait_s",        "sim.imbalance",
      "sim.narrow_steps",       "sim.commit_s",
      "sim.serial_fraction",    "sim.sharded_probes_per_s",
      "sim.speedup",
      "sim.victim_lookup_ns",   "sim.victim_lookup_s",
      "worms.next_target_ns",   "worms.targeting_s",
      "topology.decide_ns",     "topology.decide_s",
      "topology.delivered_ratio", "telescope.prefold_s",
      "telescope.merge_s",      "telescope.finalize_s",
      "telescope.observe_ns",   "telescope.fold_s",
      "telescope.events",       "telescope.sensor_hit_ratio",
      "telescope.unique_sources", "detect.trw_fold_s",
      "fault.verdict_ns",       "fault.injected_drops",
      "fault.duplicates",       "fault.outage_missed",
      "sim.study.speedup",      "sim.study.queue_wait_s",
      "core.scenario_copy_s",   "core.build_s",
      "core.placement_s",       "telescope.build_s",
      "trace.capture_s",        "trace.bytes_per_record",
      "trace.decode_ns",        "trace.read_ns",
      "serve.closed_loop_records_per_s",
      "serve.fold_busy_ratio",  "serve.runs_per_block",
      "serve.ack_p50_ms",       "serve.backpressure_pauses",
      "serve.generator_late_s", "serve.render_ms",
      "serve.scrape_wait_ms",   "serve.fold_latency_p50_ms",
      "serve.fold_latency_p90_ms", "serve.scrape_p50_ms",
      "serve.scrape_p90_ms",    "obs.metrics_read_p50_ms",
      "obs.metrics_read_p75_ms", "bench.tracing_overhead_ratio",
      "bench.residual_s",       "bench.warmup_s"};
  return names;
}

namespace {

/// Keeps rendered documents observable so timed renders are not elided.
volatile std::size_t g_render_sink = 0;

std::string Format(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  return buffer;
}

double Since(Clock::time_point t0) { return Seconds(t0, Clock::now()); }

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

/// One read of the program's metrics, as a --metrics-out sidecar or a
/// /metrics poll reads them: publish the fleet's gauges (when given), take
/// a registry snapshot and render it.
double TimeMetricsRead(const telescope::Telescope* fleet, double sim_seconds) {
  const auto t0 = Clock::now();
  if (fleet != nullptr) fleet->PublishSensorMetrics(sim_seconds);
  const std::string json =
      obs::SnapshotToJson(obs::Registry::Global().TakeSnapshot());
  g_render_sink = g_render_sink + json.size();
  return Since(t0);
}

/// The end-to-end numbers every workload reports.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> throughput;
  std::vector<double> serial_throughput;
  double op_p50_s = 0.0;
  double op_tail_s = 0.0;
};

void AddEndToEnd(WorkloadResult& result, const EndToEnd& e2e) {
  auto& m = result.metrics;
  m.push_back({"setup_s", Median(e2e.setup_s), "s"});
  m.push_back({"throughput_per_s", Median(e2e.throughput), "1/s"});
  m.push_back(
      {"serial_throughput_per_s", Median(e2e.serial_throughput), "1/s"});
  m.push_back({"op_p50_ms", e2e.op_p50_s * 1e3, "ms"});
  m.push_back({"op_tail_ms", e2e.op_tail_s * 1e3, "ms"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  result.notes.push_back(Format(
      "end-to-end: %zu set-ups, %zu timed passes", e2e.setup_s.size(),
      e2e.throughput.size()));
}

/// Serve-layer numbers of one pair of ingest sessions (closed loop, then
/// open loop with /metrics polling).
struct ServeLayer {
  double closed_loop_records_per_s = 0.0;  ///< ACK-bounded.
  double fold_busy_ratio = 0.0;
  double runs_per_block = 0.0;
  double ack_p50_ms = 0.0;
  double backpressure_pauses = 0.0;
  double generator_late_s = 0.0;
  double render_ms = 0.0;
  double scrape_wait_ms = 0.0;
  double telescope_fold_s = 0.0;
  double trw_fold_s = 0.0;
  // The open loop as a feed sees it: scheduled send to folded, and
  // /metrics round trips.
  double fold_latency_p50_ms = 0.0;
  double fold_latency_p90_ms = 0.0;
  double scrape_p50_ms = 0.0;
  double scrape_p90_ms = 0.0;
};

ServeLayer ServeLayerOf(const SessionReport& closed, const IngestStack& stack,
                        const SessionReport& open) {
  ServeLayer serve;
  const double wall = closed.load.wall_seconds;
  serve.closed_loop_records_per_s = closed.load.records_per_sec;
  serve.fold_busy_ratio = wall > 0.0 ? closed.fold_busy_s / wall : 0.0;
  serve.runs_per_block =
      closed.blocks_folded == 0
          ? 0.0
          : static_cast<double>(closed.fold_runs) /
                static_cast<double>(closed.blocks_folded);
  serve.ack_p50_ms = Median(closed.load.ack_latency_seconds) * 1e3;
  serve.backpressure_pauses = open.backpressure_pauses;
  serve.generator_late_s = open.generator_late_s;
  serve.render_ms = open.median_render_ms;
  serve.scrape_wait_ms =
      std::max(0.0, Median(open.scrape_s) * 1e3 - open.median_render_ms);
  if (stack.fleet_timer() != nullptr) {
    serve.telescope_fold_s = stack.fleet_timer()->busy_s();
  }
  if (stack.trw_timer() != nullptr) {
    serve.trw_fold_s = stack.trw_timer()->busy_s();
  }
  serve.fold_latency_p50_ms = Quantile(open.fold_latency_s, 0.5) * 1e3;
  serve.fold_latency_p90_ms = Quantile(open.fold_latency_s, 0.9) * 1e3;
  serve.scrape_p50_ms = Quantile(open.scrape_s, 0.5) * 1e3;
  serve.scrape_p90_ms = Quantile(open.scrape_s, 0.9) * 1e3;
  return serve;
}

/// Liveness space of the TRW gateway: every /24 holding a public host.
net::IntervalSet LiveSpace(const core::Scenario& scenario) {
  net::IntervalSet live;
  for (const std::uint32_t s24 : scenario.occupied_slash24s) {
    live.Add(net::Prefix{net::Ipv4{s24 << 8}, 24});
  }
  live.Build();
  return live;
}

/// Gates an ingest session: every record sent is folded, no sequence gap,
/// no refused connection.  Records are the operations.
void GateSession(const SessionReport& session, std::uint64_t expected_records,
                 FailureLedger& ledger) {
  ledger.Attempt(expected_records);
  if (session.load_failed) {
    ledger.Fail("refused or failed connection: " + session.load_error,
                expected_records);
    return;
  }
  if (session.records_folded < expected_records) {
    ledger.Fail("records not folded",
                expected_records - session.records_folded);
  }
  if (session.load.records_sent != expected_records) {
    ledger.Fail("records not sent",
                expected_records > session.load.records_sent
                    ? expected_records - session.load.records_sent
                    : 1);
  }
  if (session.sequence_gaps != 0) {
    ledger.Fail("sequence gaps", session.sequence_gaps);
  }
}

/// A short closed-then-open pair of ingest sessions over `corpus`, for the
/// serve-layer numbers of workloads whose end-to-end path has no daemon.
ServeLayer ProbeServeLayer(const serve::CorpusIndex& corpus,
                           const std::function<telescope::Telescope()>& fleet,
                           const net::IntervalSet& live, double seconds,
                           FailureLedger& ledger) {
  SessionOptions closed;
  closed.connections = 2;
  IngestStack closed_stack{fleet(), live, /*traced=*/true};
  SessionReport first = RunIngestSession(corpus, closed_stack, closed);
  GateSession(first, corpus.total_records(), ledger);
  const double rate = first.load.records_per_sec;
  closed.loops = static_cast<std::uint32_t>(std::clamp(
      std::ceil(0.5 * seconds * rate /
                static_cast<double>(corpus.total_records())),
      1.0, 1000.0));
  IngestStack timed_stack{fleet(), live, /*traced=*/true};
  SessionReport timed = RunIngestSession(corpus, timed_stack, closed);
  GateSession(timed, corpus.total_records() * closed.loops, ledger);

  SessionOptions open = closed;
  open.connections = 1;  // As the ingest workload's open loop.
  open.rate = std::max(1.0, 0.5 * timed.load.records_per_sec);
  open.scrape_interval_s = 0.01;
  open.idle_reads = 30;
  IngestStack open_stack{fleet(), live, /*traced=*/false};
  SessionReport paced = RunIngestSession(corpus, open_stack, open);
  GateSession(paced, corpus.total_records() * open.loops, ledger);
  return ServeLayerOf(timed, timed_stack, paced);
}

/// Everything the per-layer report needs.
struct LayerReport {
  // Decorated engine run at the workload's shard count.
  StepTimings steps;
  double run_wall_s = 0.0;
  double prefold_s = 0.0;
  double merge_s = 0.0;
  double finalize_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t sensor_hits = 0;
  std::uint64_t unique_sources = 0;
  double sharded_probes_per_s = 0.0;
  double speedup = 0.0;
  // Isolated costs and the closure against a measured 1-shard run.
  EngineLayerCosts costs;
  std::uint64_t closure_probes = 0;
  std::uint64_t closure_delivered = 0;
  double closure_measured_s = 0.0;
  double closure_observer_s = 0.0;  ///< Decorated fold time of that run.
  std::uint64_t closure_verdicts = 0;  ///< Fault-hook verdicts drawn.
  // Counts the program returns.
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicates = 0;
  std::uint64_t outage_missed = 0;
  double study_speedup = 0.0;
  double study_queue_wait_s = 0.0;
  double scenario_copy_s = 0.0;
  // Set-up layers (medians over the run's set-ups).
  double core_build_s = 0.0;
  double core_placement_s = 0.0;
  double telescope_build_s = 0.0;
  // Trace layer.
  double trace_capture_s = 0.0;
  TraceLayerCosts trace;
  ServeLayer serve;
  double tracing_overhead_ratio = 0.0;
  double warmup_s = 0.0;
  /// Raw metric reads, each as a /metrics poll or a sidecar write reads:
  /// publish the fleet's gauges, snapshot the registry, render it.  They
  /// follow the host's shared-cache pressure (bimodal, up to 1.6x apart
  /// within a second), so they are a layer number, not an end-to-end one.
  std::vector<double> metrics_reads_s;
};

void AddPerLayer(WorkloadResult& result, const LayerReport& r) {
  auto& m = result.metrics;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double targeting_s =
      r.costs.next_target_ns * 1e-9 * static_cast<double>(r.closure_probes);
  const double decide_s =
      r.costs.decide_ns * 1e-9 * static_cast<double>(r.closure_probes);
  const double victim_s = r.costs.victim_lookup_ns * 1e-9 *
                          static_cast<double>(r.closure_delivered);
  const double fault_s =
      r.costs.verdict_ns * 1e-9 * static_cast<double>(r.closure_verdicts);
  const double predicted =
      targeting_s + decide_s + victim_s + fault_s + r.closure_observer_s;
  const double residual = r.closure_measured_s - predicted;

  m.push_back({"sim.steps", static_cast<double>(r.steps.steps), "count"});
  m.push_back({"sim.shard_busy_s", r.steps.shard_busy_s, "s"});
  m.push_back({"sim.join_wait_s", r.steps.join_wait_s, "s"});
  m.push_back({"sim.imbalance", ratio(r.steps.max_busy_s, r.steps.mean_busy_s),
               "ratio"});
  m.push_back(
      {"sim.narrow_steps", static_cast<double>(r.steps.narrow_steps), "count"});
  m.push_back({"sim.commit_s", r.steps.commit_s, "s"});
  m.push_back({"sim.serial_fraction",
               ratio(r.run_wall_s - r.steps.parallel_window_s, r.run_wall_s),
               "ratio"});
  m.push_back({"sim.sharded_probes_per_s", r.sharded_probes_per_s, "1/s"});
  m.push_back({"sim.speedup", r.speedup, "ratio"});
  m.push_back({"sim.victim_lookup_ns", r.costs.victim_lookup_ns, "ns"});
  m.push_back({"sim.victim_lookup_s", victim_s, "s"});
  m.push_back({"worms.next_target_ns", r.costs.next_target_ns, "ns"});
  m.push_back({"worms.targeting_s", targeting_s, "s"});
  m.push_back({"topology.decide_ns", r.costs.decide_ns, "ns"});
  m.push_back({"topology.decide_s", decide_s, "s"});
  m.push_back({"topology.delivered_ratio",
               ratio(static_cast<double>(r.delivered),
                     static_cast<double>(r.events)),
               "ratio"});
  m.push_back({"telescope.prefold_s", r.prefold_s, "s"});
  m.push_back({"telescope.merge_s", r.merge_s, "s"});
  m.push_back({"telescope.finalize_s", r.finalize_s, "s"});
  m.push_back({"telescope.observe_ns", r.costs.observe_ns, "ns"});
  m.push_back({"telescope.fold_s", r.serve.telescope_fold_s, "s"});
  m.push_back({"telescope.events", static_cast<double>(r.events), "count"});
  m.push_back({"telescope.sensor_hit_ratio",
               ratio(static_cast<double>(r.sensor_hits),
                     static_cast<double>(r.delivered)),
               "ratio"});
  m.push_back({"telescope.unique_sources",
               static_cast<double>(r.unique_sources), "count"});
  m.push_back({"detect.trw_fold_s", r.serve.trw_fold_s, "s"});
  m.push_back({"fault.verdict_ns", r.costs.verdict_ns, "ns"});
  m.push_back(
      {"fault.injected_drops", static_cast<double>(r.fault_drops), "count"});
  m.push_back(
      {"fault.duplicates", static_cast<double>(r.fault_duplicates), "count"});
  m.push_back(
      {"fault.outage_missed", static_cast<double>(r.outage_missed), "count"});
  m.push_back({"sim.study.speedup", r.study_speedup, "ratio"});
  m.push_back({"sim.study.queue_wait_s", r.study_queue_wait_s, "s"});
  m.push_back({"core.scenario_copy_s", r.scenario_copy_s, "s"});
  m.push_back({"core.build_s", r.core_build_s, "s"});
  m.push_back({"core.placement_s", r.core_placement_s, "s"});
  m.push_back({"telescope.build_s", r.telescope_build_s, "s"});
  m.push_back({"trace.capture_s", r.trace_capture_s, "s"});
  m.push_back({"trace.bytes_per_record", r.trace.bytes_per_record, "B"});
  m.push_back({"trace.decode_ns", r.trace.decode_ns, "ns"});
  m.push_back({"trace.read_ns", r.trace.read_ns, "ns"});
  m.push_back({"serve.closed_loop_records_per_s",
               r.serve.closed_loop_records_per_s, "1/s"});
  m.push_back({"serve.fold_busy_ratio", r.serve.fold_busy_ratio, "ratio"});
  m.push_back({"serve.runs_per_block", r.serve.runs_per_block, "ratio"});
  m.push_back({"serve.ack_p50_ms", r.serve.ack_p50_ms, "ms"});
  m.push_back(
      {"serve.backpressure_pauses", r.serve.backpressure_pauses, "count"});
  m.push_back({"serve.generator_late_s", r.serve.generator_late_s, "s"});
  m.push_back({"serve.render_ms", r.serve.render_ms, "ms"});
  m.push_back({"serve.scrape_wait_ms", r.serve.scrape_wait_ms, "ms"});
  m.push_back(
      {"serve.fold_latency_p50_ms", r.serve.fold_latency_p50_ms, "ms"});
  m.push_back(
      {"serve.fold_latency_p90_ms", r.serve.fold_latency_p90_ms, "ms"});
  m.push_back({"serve.scrape_p50_ms", r.serve.scrape_p50_ms, "ms"});
  m.push_back({"serve.scrape_p90_ms", r.serve.scrape_p90_ms, "ms"});
  m.push_back({"obs.metrics_read_p50_ms",
               Quantile(r.metrics_reads_s, 0.5) * 1e3, "ms"});
  m.push_back({"obs.metrics_read_p75_ms",
               Quantile(r.metrics_reads_s, 0.75) * 1e3, "ms"});
  m.push_back(
      {"bench.tracing_overhead_ratio", r.tracing_overhead_ratio, "ratio"});
  m.push_back({"bench.residual_s", residual, "s"});
  m.push_back({"bench.warmup_s", r.warmup_s, "s"});

  result.notes.push_back(Format(
      "closure (1-shard run, %" PRIu64 " probes, %" PRIu64
      " delivered): measured %.4f s; predicted targeting %.4f + decide %.4f"
      " + victim lookup %.4f + fault %.4f + observer fold %.4f = %.4f s;"
      " residual %.4f s (%.1f%%)",
      r.closure_probes, r.closure_delivered, r.closure_measured_s,
      targeting_s, decide_s, victim_s, fault_s, r.closure_observer_s,
      predicted, residual,
      r.closure_measured_s > 0.0 ? 100.0 * residual / r.closure_measured_s
                                 : 0.0));
  result.notes.push_back(Format(
      "isolated layer timings on a recorded sample of %" PRIu64
      " probes (%" PRIu64 " delivered)",
      r.costs.sample_probes, r.costs.sample_delivered));
  result.notes.push_back(Format(
      "tracing overhead: traced / untraced wall = %.4f",
      r.tracing_overhead_ratio));
}

/// Sensor totals of a fleet: (recorded probes, unique sources).
std::pair<std::uint64_t, std::uint64_t> FleetTotals(
    const telescope::Telescope& fleet) {
  std::uint64_t hits = 0;
  std::uint64_t sources = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    hits += fleet.sensor(static_cast<int>(i)).probe_count();
    sources += fleet.sensor(static_cast<int>(i)).UniqueSourceCount();
  }
  return {hits, sources};
}

void FillFromTimer(LayerReport& report, const TimingObserver& timer,
                   const telescope::Telescope& fleet,
                   const sim::RunResult& run, double wall) {
  report.steps = timer.steps();
  report.run_wall_s = wall;
  report.sharded_probes_per_s = static_cast<double>(run.total_probes) / wall;
  report.prefold_s = timer.shard_batch_s();
  report.merge_s = timer.merge_s();
  report.finalize_s = timer.finalize_s();
  report.events = timer.events();
  report.delivered = run.delivery_counts[static_cast<std::size_t>(
      topology::Delivery::kDelivered)];
  const auto [hits, sources] = FleetTotals(fleet);
  report.sensor_hits = hits;
  report.unique_sources = sources;
}

// ---------------------------------------------------------------------------
// outbreak-hitlist

struct OutbreakRun {
  sim::RunResult result;
  double seconds = 0.0;
  std::uint64_t fingerprint = 0;
};

OutbreakRun RunOutbreak(const OutbreakFixture& fixture,
                        const sim::EngineConfig& config,
                        const telescope::Telescope& fleet,
                        sim::ProbeObserver& observer) {
  sim::Population population = fixture.scenario.population;  // Run-owned.
  sim::Engine engine{population, *fixture.worm, *fixture.reachability,
                     &fixture.scenario.nats, config};
  engine.SeedRandomInfections(25);
  OutbreakRun run;
  const auto t0 = Clock::now();
  run.result = engine.Run(observer);
  run.seconds = Since(t0);
  run.fingerprint = OutbreakFingerprint(run.result, fleet);
  return run;
}

OutbreakRun RunOutbreak(const OutbreakFixture& fixture, int shards,
                        const telescope::Telescope& fleet,
                        sim::ProbeObserver& observer) {
  sim::EngineConfig config = fixture.engine_config;
  config.shards = shards;
  return RunOutbreak(fixture, config, fleet, observer);
}

/// The workload's outbreak run as a small Monte-Carlo study instead: one
/// shard per trial, `threads` trial threads, 2 x threads trials of the
/// outbreak's first `max_probes` probes.  This is the trial-level
/// counterpart of the shard speedup.
void MeasureTrialParallelism(const OutbreakFixture& fixture, int threads,
                             std::uint64_t max_probes, LayerReport& layers) {
  sim::StudyOptions options;
  options.threads = threads;
  options.master_seed = 0x7E1A15;
  const sim::StudyTelemetry telemetry = sim::RunTrials(
      options, 2 * threads, [&](int, std::uint64_t seed) {
        sim::EngineConfig config = fixture.engine_config;
        config.seed = seed;
        config.shards = 1;
        config.max_probes = max_probes;
        telescope::Telescope fleet = fixture.MakeTelescope();
        (void)RunOutbreak(fixture, config, fleet, fleet);
      });
  layers.study_speedup =
      telemetry.TotalTrialSeconds() / telemetry.wall_seconds;
  layers.study_queue_wait_s = Median(telemetry.trial_queue_wait_seconds);
}

double ProbesPerSecond(const OutbreakRun& run) {
  return run.seconds > 0.0
             ? static_cast<double>(run.result.total_probes) / run.seconds
             : 0.0;
}

/// Builds the fixture `count` times (the set-up metric is the median) and
/// returns the last build plus per-layer set-up medians.
std::unique_ptr<OutbreakFixture> BuildOutbreakRepeatedly(
    double scale, std::uint64_t seed, int count, std::vector<double>& total_s,
    LayerReport& layers) {
  std::vector<double> build, placement, telescope_build;
  std::unique_ptr<OutbreakFixture> fixture;
  for (int i = 0; i < count; ++i) {
    fixture.reset();
    const auto t0 = Clock::now();
    fixture = BuildOutbreakFixture(scale, seed);
    total_s.push_back(Since(t0));
    build.push_back(fixture->setup.core_build_s);
    placement.push_back(fixture->setup.core_placement_s);
    telescope_build.push_back(fixture->setup.telescope_build_s);
  }
  layers.core_build_s = Median(build);
  layers.core_placement_s = Median(placement);
  layers.telescope_build_s = Median(telescope_build);
  return fixture;
}

void GateOutbreak(const OutbreakRun& run, std::uint64_t reference,
                  FailureLedger& ledger) {
  ledger.Attempt();
  if (!sim::EngineAudit::ConservationHolds(run.result)) {
    ledger.Fail("conservation");
  } else if (run.fingerprint != reference) {
    ledger.Fail("fingerprint");
  }
}

}  // namespace

WorkloadResult RunOutbreakHitlist(const RunOptions& options) {
  WorkloadResult result;
  EndToEnd e2e;
  LayerReport layers;
  const int shards = options.threads;
  std::unique_ptr<OutbreakFixture> fixture = BuildOutbreakRepeatedly(
      1.0, options.seed, 7, e2e.setup_s, layers);
  const OutbreakFixture& f = *fixture;
  result.sizes = {{"hosts", static_cast<double>(f.scenario.population.size())},
                  {"slash16s", static_cast<double>(f.scenario.slash16_clusters.size())},
                  {"sensors", static_cast<double>(f.sensor_blocks.size())},
                  {"max_probes", static_cast<double>(f.engine_config.max_probes)},
                  {"shards", static_cast<double>(shards)}};

  // Warm-up: one untimed pass, kept for reporting and as the reference
  // output every later pass must reproduce.
  telescope::Telescope warm_fleet = f.MakeTelescope();
  const OutbreakRun warm = RunOutbreak(f, shards, warm_fleet, warm_fleet);
  layers.warmup_s = warm.seconds;
  const std::uint64_t reference = warm.fingerprint;
  GateOutbreak(warm, reference, result.ledger);
  if (options.seed == kDefaultSeed && reference != kPinnedOutbreakFingerprint) {
    result.gate_failures.push_back(
        Format("fingerprint %016" PRIx64 " != pinned %016" PRIx64, reference,
               kPinnedOutbreakFingerprint));
  }
  result.notes.push_back(Format(
      "warm-up pass: %.4f s, %" PRIu64 " probes, fingerprint %016" PRIx64,
      warm.seconds, warm.result.total_probes, reference));

  // Timed passes: the outbreak as a batch of nproc concurrent single-shard
  // runs, then alone on one shard.  The sharded run (the warm-up above and
  // the traced run) is not timed end to end: its per-step fork-join wakes
  // every worker thousands of times per run, and on a shared VM those
  // wake-ups follow the neighbours' load, which moved its probes/s by 40 %
  // between identical runs.  Independent runs scale without that barrier.
  const int min_passes = options.trace ? 2 : 3;
  std::vector<double> run_walls;
  std::vector<double> serial_walls;
  std::vector<double> batch_walls;
  const auto start = Clock::now();
  while (static_cast<int>(serial_walls.size()) < min_passes ||
         (!options.trace && Since(start) < options.seconds)) {
    std::vector<OutbreakRun> batch(static_cast<std::size_t>(shards));
    sim::StudyOptions concurrent;
    concurrent.threads = shards;
    const sim::StudyTelemetry telemetry =
        sim::RunTrials(concurrent, shards, [&](int run, std::uint64_t) {
          telescope::Telescope fleet = f.MakeTelescope();
          batch[static_cast<std::size_t>(run)] = RunOutbreak(f, 1, fleet, fleet);
        });
    std::uint64_t batch_probes = 0;
    for (const OutbreakRun& run : batch) {
      GateOutbreak(run, reference, result.ledger);
      batch_probes += run.result.total_probes;
      run_walls.push_back(run.seconds);
    }
    batch_walls.push_back(telemetry.wall_seconds);
    telescope::Telescope serial_fleet = f.MakeTelescope();
    const OutbreakRun serial = RunOutbreak(f, 1, serial_fleet, serial_fleet);
    GateOutbreak(serial, reference, result.ledger);
    for (int i = 0; i < 10; ++i) {
      layers.metrics_reads_s.push_back(
          TimeMetricsRead(&serial_fleet, serial.result.end_time));
    }
    serial_walls.push_back(serial.seconds);
    e2e.throughput.push_back(static_cast<double>(batch_probes) /
                             telemetry.wall_seconds);
    e2e.serial_throughput.push_back(ProbesPerSecond(serial));
  }
  e2e.op_p50_s = Median(run_walls);
  e2e.op_tail_s = Quantile(run_walls, 0.9);
  std::string walls;
  for (std::size_t i = 0; i < serial_walls.size(); ++i) {
    walls += Format(" %.4f/%.4f", batch_walls[i], serial_walls[i]);
  }
  result.notes.push_back(Format(
      "timed passes (batch of %d single-shard runs / 1 run, s):%s", shards,
      walls.c_str()));
  result.sizes.push_back(
      {"probes", static_cast<double>(warm.result.total_probes)});
  result.sizes.push_back({"concurrent_runs", static_cast<double>(shards)});
  if (!options.trace) {
    AddEndToEnd(result, e2e);
    return result;
  }

  // ---- Traced run: the outbreak at nproc shards untraced (its rate and
  // the tracing overhead's base), decorated, then decorated at 1 shard.
  std::vector<double> sharded_walls;
  for (int i = 0; i < 2; ++i) {
    telescope::Telescope fleet = f.MakeTelescope();
    const OutbreakRun sharded = RunOutbreak(f, shards, fleet, fleet);
    GateOutbreak(sharded, reference, result.ledger);
    sharded_walls.push_back(sharded.seconds);
  }
  telescope::Telescope traced_fleet = f.MakeTelescope();
  TimingObserver timer{traced_fleet, /*sample_every=*/64};
  const OutbreakRun traced = RunOutbreak(f, shards, traced_fleet, timer);
  GateOutbreak(traced, reference, result.ledger);
  FillFromTimer(layers, timer, traced_fleet, traced.result, traced.seconds);
  layers.sharded_probes_per_s =
      static_cast<double>(traced.result.total_probes) / Median(sharded_walls);
  layers.speedup = layers.sharded_probes_per_s / Median(e2e.serial_throughput);
  layers.tracing_overhead_ratio = traced.seconds / Median(sharded_walls);
  const std::vector<sim::ProbeEvent> sample = timer.TakeSample();

  telescope::Telescope closure_fleet = f.MakeTelescope();
  TimingObserver closure_timer{closure_fleet};
  const OutbreakRun closure = RunOutbreak(f, 1, closure_fleet, closure_timer);
  GateOutbreak(closure, reference, result.ledger);
  layers.closure_measured_s = closure.seconds;
  layers.closure_observer_s = closure_timer.busy_s();
  layers.closure_probes = closure.result.total_probes;
  layers.closure_delivered = closure.result.delivery_counts[0];
  layers.fault_drops = closure.result.fault_injected_drops;
  layers.fault_duplicates = closure.result.fault_duplicates;
  layers.outage_missed = closure_fleet.OutageMissedProbes();

  // Isolated layers on the recorded sample.  The outbreak has no fault
  // hook, so the verdict path is timed under the study's schedule.
  const fault::FaultSchedule faults = fault::ParseFaultSpec(
      "seed:1;gilbert:0.002:0.3:0.02:0.2;groupoutages:8:0.05:1500");
  EngineLayerInputs inputs;
  inputs.population = &f.scenario.population;
  inputs.worm = f.worm.get();
  inputs.reachability = f.reachability.get();
  inputs.make_fleet = [&f] { return f.MakeTelescope(); };
  inputs.faults = &faults;
  inputs.engine_seed = f.engine_config.seed;
  layers.costs = TimeEngineLayers(sample, inputs);

  const auto t0 = Clock::now();
  const core::Scenario copy = f.scenario;
  layers.scenario_copy_s = 2.0 * Since(t0);  // Two runs copy it per pass.
  (void)copy;
  MeasureTrialParallelism(f, shards, 2'000'000, layers);

  // Trace and serve layers over a capture of the sample.
  const std::string sample_path = options.work_dir + "/outbreak-sample.trace";
  const double write_s = WriteCapture(sample_path, sample, f.engine_config.seed);
  layers.trace_capture_s = write_s * static_cast<double>(closure.result.total_probes) /
                           static_cast<double>(sample.size());
  layers.trace = TimeTraceLayer(sample_path);
  const serve::CorpusIndex corpus{sample_path};
  layers.serve = ProbeServeLayer(corpus, [&f] { return f.MakeTelescope(); },
                                 LiveSpace(f.scenario), 1.0, result.ledger);
  AddPerLayer(result, layers);
  return result;
}

// ---------------------------------------------------------------------------
// study-nat-faults

namespace {

struct StudyPass {
  double wall_s = 0.0;  ///< Σ over the placements' studies.
  std::uint64_t probes = 0;
  double trial_total_s = 0.0;
  std::vector<double> trial_s;
  std::vector<double> queue_wait_s;
  std::vector<std::uint64_t> digests;
  std::vector<double> alerted_at_20;  ///< Per placement, mean over trials.
  int lost_trials = 0;
  int trials = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_duplicates = 0;
  std::uint64_t outage_missed = 0;
  core::MonteCarloDetectionSummary first;  ///< The first placement's study.
};

StudyPass RunStudyPass(const StudyFixture& fixture, int threads) {
  StudyPass pass;
  for (const auto& placement : fixture.placements) {
    core::MonteCarloDetectionSummary summary =
        core::RunDetectionStudyMonteCarlo(fixture.scenario, fixture.worm,
                                          placement.sensors,
                                          fixture.StudyConfig(placement, threads));
    const sim::StudyTelemetry& telemetry = summary.telemetry;
    pass.wall_s += telemetry.wall_seconds;
    pass.probes += summary.total_probes;
    pass.trial_total_s += telemetry.TotalTrialSeconds();
    pass.trial_s.insert(pass.trial_s.end(), telemetry.trial_wall_seconds.begin(),
                        telemetry.trial_wall_seconds.end());
    pass.queue_wait_s.insert(pass.queue_wait_s.end(),
                             telemetry.trial_queue_wait_seconds.begin(),
                             telemetry.trial_queue_wait_seconds.end());
    pass.digests.push_back(StudyDigest(summary));
    pass.lost_trials += summary.lost_trials;
    pass.trials += telemetry.trials;
    double at20 = 0.0;
    for (const core::DetectionOutcome& trial : summary.trials) {
      at20 += trial.AlertedFractionWhenInfected(0.20);
      pass.fault_drops += trial.run.fault_injected_drops;
      pass.fault_duplicates += trial.run.fault_duplicates;
      pass.outage_missed += trial.outage_missed_probes;
    }
    pass.alerted_at_20.push_back(
        summary.trials.empty() ? 0.0
                               : at20 / static_cast<double>(summary.trials.size()));
    if (pass.digests.size() == 1) pass.first = std::move(summary);
  }
  return pass;
}

void GateStudyPass(const StudyPass& pass, const std::vector<std::uint64_t>& reference,
                   FailureLedger& ledger, std::vector<std::string>& notes) {
  ledger.Attempt(static_cast<std::uint64_t>(pass.trials));
  if (pass.lost_trials > 0) {
    ledger.Fail("quarantined trials", static_cast<std::uint64_t>(pass.lost_trials));
  }
  if (pass.digests != reference) {
    ledger.Fail("digest mismatch", static_cast<std::uint64_t>(pass.trials));
  }
  // Figure 5c's ordering: the 192/8 placement out-alerts random placement
  // by the time 20 % of the vulnerable population is infected.
  if (!(pass.alerted_at_20[1] > pass.alerted_at_20[0])) {
    ledger.Fail("fig5c ordering", static_cast<std::uint64_t>(pass.trials));
    notes.push_back(Format("fig5c ordering violated: 192/8 %.4f <= random %.4f",
                           pass.alerted_at_20[1], pass.alerted_at_20[0]));
  }
}

/// The fleet one study trial builds (RunDetectionStudy's construction).
telescope::Telescope MakeTrialFleet(const StudyFixture& fixture,
                                    const StudyFixture::Placement& placement) {
  telescope::Telescope fleet = core::MakeAlertingTelescope(placement.sensors, 5);
  fleet.SetThreatRequiresHandshake(fixture.worm.requires_handshake());
  fault::ApplySensorOutages(fixture.faults, fleet);
  return fleet;
}

/// Trial 0 of a placement's study rebuilt outside the Monte-Carlo runner,
/// as RunDetectionStudy builds it, so a decorator can wrap its fleet.
OutbreakRun RunTrialReplica(const StudyFixture& fixture, int shards,
                            sim::ProbeObserver& observer) {
  const core::MonteCarloStudyConfig mc =
      fixture.StudyConfig(fixture.placements[0], 1);
  core::Scenario scenario = fixture.scenario;
  scenario.population.ResetAllToVulnerable();
  std::optional<fault::DeliveryFaults> delivery;
  if (fixture.faults.HasDeliveryFaults()) delivery.emplace(fixture.faults);
  const topology::NatDirectory* nats =
      scenario.nats.size() > 0 ? &scenario.nats : nullptr;
  const topology::Reachability reachability{nullptr, nats, nullptr, 0.0};
  sim::EngineConfig config = mc.study.engine;
  config.seed = sim::TrialSeeds(mc.master_seed, 1)[0];
  config.shards = shards;
  sim::Engine engine{scenario.population, fixture.worm, reachability, nats,
                     config};
  if (delivery) engine.SetDeliveryFaults(&*delivery);
  engine.SeedRandomInfections(mc.study.seed_infections);
  OutbreakRun run;
  const auto t0 = Clock::now();
  run.result = engine.Run(observer);
  run.seconds = Since(t0);
  return run;
}

}  // namespace

WorkloadResult RunStudyNatFaults(const RunOptions& options) {
  WorkloadResult result;
  EndToEnd e2e;
  LayerReport layers;
  const int threads = options.threads;
  std::unique_ptr<StudyFixture> fixture;
  {
    std::vector<double> build, placement, telescope_build;
    for (int i = 0; i < 21; ++i) {
      fixture.reset();
      const auto t0 = Clock::now();
      fixture = BuildStudyFixture(options.seed, threads);
      e2e.setup_s.push_back(Since(t0));
      build.push_back(fixture->setup.core_build_s);
      placement.push_back(fixture->setup.core_placement_s);
      telescope_build.push_back(fixture->setup.telescope_build_s);
    }
    layers.core_build_s = Median(build);
    layers.core_placement_s = Median(placement);
    layers.telescope_build_s = Median(telescope_build);
  }
  const StudyFixture& f = *fixture;
  result.sizes = {
      {"hosts", static_cast<double>(f.scenario.population.size())},
      {"sensors_random", static_cast<double>(f.placements[0].sensors.size())},
      {"sensors_192", static_cast<double>(f.placements[1].sensors.size())},
      {"trials_per_placement", static_cast<double>(f.trials_per_placement)},
      {"trial_threads", static_cast<double>(threads)},
      {"engine_shards", 1.0}};
  result.notes.push_back("fault schedule: " + f.fault_spec);

  const StudyPass warm = RunStudyPass(f, threads);
  layers.warmup_s = warm.wall_s;
  const std::vector<std::uint64_t> reference = warm.digests;
  GateStudyPass(warm, reference, result.ledger, result.notes);
  result.notes.push_back(Format(
      "warm-up pass: %.4f s, %" PRIu64 " probes, alerted at 20%% infected: "
      "random %.4f, 192/8 %.4f",
      warm.wall_s, warm.probes, warm.alerted_at_20[0], warm.alerted_at_20[1]));
  result.sizes.push_back({"probes_per_pass", static_cast<double>(warm.probes)});

  const int min_passes = options.trace ? 1 : 3;
  std::vector<double> pass_walls;
  std::vector<double> trial_s;
  StudyPass last;
  const auto start = Clock::now();
  while (static_cast<int>(pass_walls.size()) < min_passes ||
         (!options.trace && Since(start) < options.seconds)) {
    last = RunStudyPass(f, threads);
    GateStudyPass(last, reference, result.ledger, result.notes);
    for (int i = 0; i < 50; ++i) {
      layers.metrics_reads_s.push_back(TimeMetricsRead(nullptr, 0.0));
    }
    pass_walls.push_back(last.wall_s);
    e2e.throughput.push_back(static_cast<double>(last.probes) / last.wall_s);
    e2e.serial_throughput.push_back(static_cast<double>(last.probes) /
                                    last.trial_total_s);
    trial_s.insert(trial_s.end(), last.trial_s.begin(), last.trial_s.end());
  }
  // A trial's latency, and the study's: its answer waits for the slowest
  // trials.
  e2e.op_p50_s = Median(trial_s);
  e2e.op_tail_s = Median(pass_walls);
  std::string walls;
  for (const double wall : pass_walls) walls += Format(" %.4f", wall);
  result.notes.push_back(Format("timed study passes (s):%s", walls.c_str()));
  result.notes.push_back(Format("trial p90 %.4f s, max %.4f s, median pass %.4f s",
                                Quantile(trial_s, 0.9), Max(trial_s), Median(pass_walls)));
  if (!options.trace) {
    AddEndToEnd(result, e2e);
    return result;
  }

  // ---- Traced run: counts from the study, then trial 0 of the random
  // placement rebuilt with a decorated fleet.
  layers.study_speedup = last.trial_total_s / last.wall_s;
  layers.study_queue_wait_s = Median(last.queue_wait_s);
  layers.speedup = layers.study_speedup;
  layers.fault_drops = last.fault_drops;
  layers.fault_duplicates = last.fault_duplicates;
  layers.outage_missed = last.outage_missed;
  {
    const auto t0 = Clock::now();
    const core::Scenario copy = f.scenario;
    layers.scenario_copy_s = Since(t0) * static_cast<double>(last.trials);
    (void)copy;
  }

  // Trial 0 of the random placement, rebuilt: untraced (the overhead
  // reference, checked against the study's own trial 0), decorated on one
  // shard (closure), and decorated at nproc shards (shard timings).
  const auto& random = f.placements[0];
  {
    telescope::Telescope warm_fleet = MakeTrialFleet(f, random);
    (void)RunTrialReplica(f, 1, warm_fleet);  // Pages the replica in.
  }
  telescope::Telescope plain_fleet = MakeTrialFleet(f, random);
  const OutbreakRun plain = RunTrialReplica(f, 1, plain_fleet);
  telescope::Telescope closure_fleet = MakeTrialFleet(f, random);
  TimingObserver closure_timer{closure_fleet};
  const OutbreakRun closure = RunTrialReplica(f, 1, closure_timer);
  telescope::Telescope wide_fleet = MakeTrialFleet(f, random);
  TimingObserver wide_timer{wide_fleet, /*sample_every=*/16};
  const OutbreakRun wide = RunTrialReplica(f, threads, wide_timer);
  const sim::RunResult& trial0 = last.first.trials[0].run;
  result.ledger.Attempt(3);
  if (plain.result.total_probes != trial0.total_probes ||
      plain.result.delivery_counts != trial0.delivery_counts) {
    result.ledger.Fail("trial replica differs from study trial 0");
  }
  if (closure.result.delivery_counts != trial0.delivery_counts) {
    result.ledger.Fail("decorated trial differs");
  }
  if (wide.result.delivery_counts != trial0.delivery_counts) {
    result.ledger.Fail("sharded trial differs");
  }
  layers.tracing_overhead_ratio = closure.seconds / plain.seconds;
  FillFromTimer(layers, wide_timer, wide_fleet, wide.result, wide.seconds);
  layers.closure_measured_s = closure.seconds;
  layers.closure_observer_s = closure_timer.busy_s();
  layers.closure_probes = closure.result.total_probes;
  layers.closure_delivered =
      closure.result.delivery_counts[0] - closure.result.fault_duplicates;
  layers.closure_verdicts =
      layers.closure_delivered + closure.result.fault_injected_drops;
  const std::vector<sim::ProbeEvent> sample = wide_timer.TakeSample();

  const topology::Reachability reachability{
      nullptr, f.scenario.nats.size() > 0 ? &f.scenario.nats : nullptr, nullptr,
      0.0};
  EngineLayerInputs inputs;
  inputs.population = &f.scenario.population;
  inputs.worm = &f.worm;
  inputs.reachability = &reachability;
  inputs.make_fleet = [&random] {
    return core::MakeAlertingTelescope(random.sensors, 5);
  };
  inputs.faults = &f.faults;
  inputs.engine_seed = f.seeds.engine;
  layers.costs = TimeEngineLayers(sample, inputs);

  const std::string sample_path = options.work_dir + "/study-sample.trace";
  const double write_s = WriteCapture(sample_path, sample, f.seeds.engine);
  layers.trace_capture_s = write_s *
                           static_cast<double>(closure.result.total_probes) /
                           static_cast<double>(sample.size());
  layers.trace = TimeTraceLayer(sample_path);
  const serve::CorpusIndex corpus{sample_path};
  layers.serve = ProbeServeLayer(
      corpus, [&random] { return core::MakeAlertingTelescope(random.sensors, 5); },
      LiveSpace(f.scenario), 1.0, result.ledger);
  AddPerLayer(result, layers);
  return result;
}

// ---------------------------------------------------------------------------
// ingest-fleet

namespace {

/// Offered load of the open-loop phase, records/s: about a third of the
/// closed-loop rate the daemon sustains on a 4-vCPU x86-64 VM, so queueing
/// stays far from saturation.  Fixed, so every commit is judged at the same
/// offered load.
constexpr double kOpenLoopRate = 2.0e6;
constexpr std::uint32_t kConnections = 1;
/// Corpus capture: the outbreak fixture at this scale, capped at this many
/// probes.
constexpr double kCorpusScale = 0.1;
constexpr std::uint64_t kCorpusProbes = 2'000'000;

struct Corpus {
  std::unique_ptr<OutbreakFixture> fixture;
  std::unique_ptr<serve::CorpusIndex> index;
  sim::RunResult run;
  double capture_busy_s = 0.0;  ///< Decorated writer (traced set-up only).
  std::vector<sim::ProbeEvent> sample;
  LayerReport engine_layers;
};

Corpus CaptureCorpus(std::uint64_t seed, int shards, const std::string& path,
                     bool traced) {
  Corpus corpus;
  corpus.fixture = BuildOutbreakFixture(kCorpusScale, seed);
  OutbreakFixture& f = *corpus.fixture;
  f.engine_config.max_probes = kCorpusProbes;
  f.engine_config.shards = shards;
  telescope::Telescope fleet = f.MakeTelescope();
  trace::TraceWriterOptions writer_options;
  writer_options.seed = f.engine_config.seed;
  writer_options.scenario_fingerprint = seed;
  trace::TraceWriter writer{path, writer_options};
  sim::Population population = f.scenario.population;
  sim::Engine engine{population, *f.worm, *f.reachability, &f.scenario.nats,
                     f.engine_config};
  engine.SeedRandomInfections(25);
  if (traced) {
    TimingObserver timer{fleet, /*sample_every=*/8};
    TimingObserver timed_writer{writer};
    const auto t0 = Clock::now();
    corpus.run = engine.Run({&timer, &timed_writer});
    writer.Finish();
    const double wall = Since(t0);
    corpus.capture_busy_s = timed_writer.busy_s();
    FillFromTimer(corpus.engine_layers, timer, fleet, corpus.run, wall);
    corpus.sample = timer.TakeSample();
  } else {
    corpus.run = engine.Run({&fleet, &writer});
    writer.Finish();
  }
  corpus.index = std::make_unique<serve::CorpusIndex>(path);
  return corpus;
}

/// In-memory comparison of two fleets' sensor state.
bool SameFleetState(const telescope::Telescope& a, const telescope::Telescope& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.sensor(static_cast<int>(i));
    const auto& y = b.sensor(static_cast<int>(i));
    if (x.probe_count() != y.probe_count() ||
        x.UniqueSourceCount() != y.UniqueSourceCount() ||
        x.alert_time() != y.alert_time()) {
      return false;
    }
  }
  return true;
}

}  // namespace

WorkloadResult RunIngestFleet(const RunOptions& options) {
  WorkloadResult result;
  EndToEnd e2e;
  LayerReport layers;
  std::filesystem::create_directories(options.work_dir);
  const std::string path = options.work_dir + "/ingest-corpus.trace";

  // Set-up: scenario, fleet and a full-fidelity capture, seven times.
  Corpus corpus;
  {
    std::vector<double> build, placement, telescope_build;
    constexpr int kSetups = 7;
    for (int i = 0; i < kSetups; ++i) {
      corpus = Corpus{};
      const auto t0 = Clock::now();
      // One shard: a sharded capture's per-step fork-join followed the
      // host's load (set-up moved by 30 % between otherwise equal runs);
      // the corpus is the same at any shard count.
      const bool traced = options.trace && i == kSetups - 1;
      corpus = CaptureCorpus(options.seed, traced ? options.threads : 1, path,
                             traced);
      e2e.setup_s.push_back(Since(t0));
      build.push_back(corpus.fixture->setup.core_build_s);
      placement.push_back(corpus.fixture->setup.core_placement_s);
      telescope_build.push_back(corpus.fixture->setup.telescope_build_s);
    }
    layers.core_build_s = Median(build);
    layers.core_placement_s = Median(placement);
    layers.telescope_build_s = Median(telescope_build);
  }
  const OutbreakFixture& f = *corpus.fixture;
  const serve::CorpusIndex& index = *corpus.index;
  const std::uint64_t records = index.total_records();
  const net::IntervalSet live = LiveSpace(f.scenario);
  const auto make_fleet = [&f] { return f.MakeTelescope(); };
  result.sizes = {{"hosts", static_cast<double>(f.scenario.population.size())},
                  {"sensors", static_cast<double>(f.sensor_blocks.size())},
                  {"corpus_records", static_cast<double>(records)},
                  {"corpus_blocks", static_cast<double>(index.blocks().size())},
                  {"connections_closed_loop", static_cast<double>(kConnections)},
                  {"connections_open_loop", 1.0},
                  {"open_loop_rate", kOpenLoopRate}};

  // Warm-up: one closed-loop session over the corpus once.
  SessionOptions closed;
  closed.connections = kConnections;
  double closed_rate = 0.0;
  {
    IngestStack stack{make_fleet(), live, false};
    const SessionReport warm = RunIngestSession(index, stack, closed);
    GateSession(warm, records, result.ledger);
    layers.warmup_s = warm.load.wall_seconds;
    closed_rate = warm.load.records_per_sec;
    result.notes.push_back(Format(
        "warm-up session: %.4f s, %.0f records/s", warm.load.wall_seconds,
        warm.load.records_per_sec));
  }

  // The measured window runs in rounds, so a burst of interference on the
  // host lands in one round's samples instead of a whole phase:
  //   A  closed, unthrottled loop over kConnections feeds;
  //   B  open loop at the fixed rate over one feed, /metrics polled every
  //      20 ms, then metric reads with the daemon idle.  One feed, because
  //      with several the fold's global order holds each stripe's blocks
  //      behind the others', and per-block latency then follows the
  //      senders' relative jitter, not the daemon;
  //   R  embedded replay of A's looped stream into an identical stack,
  //      whose sensor gauges the daemon's /metrics must match bit for bit.
  const int rounds = options.trace ? 2 : 10;
  const double share = (options.trace ? 2.0 : options.seconds) * 0.2 / rounds;
  const auto loops_for = [&](double rate) {
    return static_cast<std::uint32_t>(std::clamp(
        std::round(share * rate / static_cast<double>(records)), 1.0, 1e4));
  };
  closed.loops = loops_for(closed_rate);
  SessionOptions open;
  open.connections = 1;
  open.rate = kOpenLoopRate;
  open.scrape_interval_s = 0.02;
  open.idle_reads = 30;
  open.loops = loops_for(kOpenLoopRate);
  std::vector<SessionReport> phase_a;
  std::vector<std::unique_ptr<IngestStack>> phase_a_stacks;
  std::vector<double> latency_s;
  std::vector<double> scrape_s;
  // Per-round quantiles; each end-to-end latency is the median over rounds,
  // so one disturbed round cannot move it.
  std::vector<double> round_p50, round_p90;
  std::vector<double> closed_rates;
  SessionReport paced;
  std::size_t gauges = 0;
  for (int round = 0; round < rounds; ++round) {
    auto stack =
        std::make_unique<IngestStack>(make_fleet(), live, options.trace);
    phase_a.push_back(RunIngestSession(index, *stack, closed));
    GateSession(phase_a.back(), records * closed.loops, result.ledger);
    // The daemon's ingest capacity: records over the fold thread's busy
    // time.  The ACK-bounded wall rate also counts the fold's idle gaps
    // while decode and hand-off catch up, and those followed the host's
    // load (the rate moved by 40 % between otherwise equal runs); it is
    // reported per layer.
    e2e.throughput.push_back(static_cast<double>(records * closed.loops) /
                             phase_a.back().fold_busy_s);
    closed_rates.push_back(phase_a.back().load.records_per_sec);
    const std::vector<std::string> daemon_gauges =
        SensorGaugeEntries(phase_a.back().final_metrics);

    IngestStack open_stack{make_fleet(), live, false};
    paced = RunIngestSession(index, open_stack, open);
    GateSession(paced, records * open.loops, result.ledger);
    latency_s.insert(latency_s.end(), paced.fold_latency_s.begin(),
                     paced.fold_latency_s.end());
    scrape_s.insert(scrape_s.end(), paced.scrape_s.begin(),
                    paced.scrape_s.end());
    round_p50.push_back(Quantile(paced.fold_service_s, 0.5));
    round_p90.push_back(Quantile(paced.fold_service_s, 0.9));
    layers.metrics_reads_s.insert(layers.metrics_reads_s.end(),
                                  paced.render_s.begin(), paced.render_s.end());
    result.ledger.Attempt(paced.scrape_s.size() + paced.scrape_failures);
    if (paced.scrape_failures > 0) {
      result.ledger.Fail("failed /metrics polls", paced.scrape_failures);
    }

    IngestStack replay_stack{make_fleet(), live, false};
    const auto t0 = Clock::now();
    for (std::uint32_t loop = 0; loop < closed.loops; ++loop) {
      (void)trace::ReplayFile(path, replay_stack.tee());
    }
    const double wall = Since(t0);
    e2e.serial_throughput.push_back(
        static_cast<double>(records * closed.loops) / wall);
    replay_stack.fleet().PublishSensorMetrics();
    const std::vector<std::string> replay_gauges = SensorGaugeEntries(
        obs::SnapshotToJson(obs::Registry::Global().TakeSnapshot()));
    result.ledger.Attempt();
    if (replay_gauges.empty() || replay_gauges != daemon_gauges ||
        !SameFleetState(replay_stack.fleet(), stack->fleet())) {
      result.ledger.Fail("daemon gauges differ from embedded replay");
    }
    gauges = daemon_gauges.size();
    result.notes.push_back(Format(
        "round %d: A %.0f records/s (%.0f per fold-busy s); B fold service "
        "p50 %.4f ms, p90 %.4f ms; fold latency p50 %.4f ms, p90 %.4f ms, "
        "p99 %.4f ms; idle read p50 %.4f ms, p75 %.4f ms; GET /metrics p50 "
        "%.4f ms, p90 %.4f ms; generator late %.4f s; R %.0f records/s",
        round, closed_rates.back(), e2e.throughput.back(),
        round_p50.back() * 1e3, round_p90.back() * 1e3,
        Quantile(paced.fold_latency_s, 0.5) * 1e3,
        Quantile(paced.fold_latency_s, 0.9) * 1e3,
        Quantile(paced.fold_latency_s, 0.99) * 1e3,
        Quantile(paced.render_s, 0.5) * 1e3,
        Quantile(paced.render_s, 0.75) * 1e3,
        Quantile(paced.scrape_s, 0.5) * 1e3,
        Quantile(paced.scrape_s, 0.9) * 1e3, paced.generator_late_s,
        e2e.serial_throughput.back()));
    if (options.trace) phase_a_stacks.push_back(std::move(stack));
  }
  // End to end, the daemon's own per-block service time (how long the fold
  // holds the observer lock): on a shared VM the feed's view (scheduled
  // send to folded, GET round trips) follows the neighbours' load through
  // every thread wake-up, so it is reported per layer.
  e2e.op_p50_s = Median(round_p50);
  e2e.op_tail_s = Median(round_p90);
  result.notes.push_back(Format(
      "%d rounds: A %u connections x %u loops; B 1 connection x %u loops at "
      "%.0f records/s, %zu blocks, %zu polls; %zu sensor gauges compared",
      rounds, kConnections, closed.loops, open.loops, kOpenLoopRate,
      latency_s.size(), scrape_s.size(), gauges));
  result.sizes.push_back({"phase_a_loops", static_cast<double>(closed.loops)});
  result.sizes.push_back({"phase_b_loops", static_cast<double>(open.loops)});
  if (!options.trace) {
    AddEndToEnd(result, e2e);
    return result;
  }

  // ---- Traced run: engine layers from the decorated capture run, serve
  // layers from the decorated phase-A stacks, isolated layers on the
  // capture sample, trace layers over the corpus.
  LayerReport& engine = corpus.engine_layers;
  layers.steps = engine.steps;
  layers.run_wall_s = engine.run_wall_s;
  layers.sharded_probes_per_s = engine.sharded_probes_per_s;
  layers.prefold_s = engine.prefold_s;
  layers.merge_s = engine.merge_s;
  layers.finalize_s = engine.finalize_s;
  layers.events = engine.events;
  layers.delivered = engine.delivered;
  layers.sensor_hits = engine.sensor_hits;
  layers.unique_sources = engine.unique_sources;
  layers.speedup = Median(closed_rates) / Median(e2e.serial_throughput);
  layers.trace_capture_s = corpus.capture_busy_s;
  layers.trace = TimeTraceLayer(path);
  layers.serve = ServeLayerOf(phase_a[0], *phase_a_stacks[0], paced);
  layers.serve.closed_loop_records_per_s = Median(closed_rates);
  layers.serve.fold_latency_p50_ms = Quantile(latency_s, 0.5) * 1e3;
  layers.serve.fold_latency_p90_ms = Quantile(latency_s, 0.9) * 1e3;
  layers.serve.scrape_p50_ms = Quantile(scrape_s, 0.5) * 1e3;
  layers.serve.scrape_p90_ms = Quantile(scrape_s, 0.9) * 1e3;
  {
    // The traced phase-A sessions against an untraced one of equal size.
    IngestStack plain{make_fleet(), live, false};
    const SessionReport untraced = RunIngestSession(index, plain, closed);
    GateSession(untraced, records * closed.loops, result.ledger);
    std::vector<double> traced_walls;
    for (const SessionReport& session : phase_a) {
      traced_walls.push_back(session.load.wall_seconds);
    }
    layers.tracing_overhead_ratio =
        Median(traced_walls) / untraced.load.wall_seconds;
  }

  const fault::FaultSchedule faults = fault::ParseFaultSpec(
      "seed:1;gilbert:0.002:0.3:0.02:0.2;groupoutages:8:0.05:1500");
  EngineLayerInputs inputs;
  inputs.population = &f.scenario.population;
  inputs.worm = f.worm.get();
  inputs.reachability = f.reachability.get();
  inputs.make_fleet = make_fleet;
  inputs.faults = &faults;
  inputs.engine_seed = f.engine_config.seed;
  layers.costs = TimeEngineLayers(corpus.sample, inputs);
  {
    // Closure against the capture's outbreak replayed on one shard with a
    // decorated fleet (no writer): the engine-side share of set-up.
    telescope::Telescope fleet = f.MakeTelescope();
    TimingObserver timer{fleet};
    const OutbreakRun run = RunOutbreak(f, 1, fleet, timer);
    result.ledger.Attempt();
    if (run.result.delivery_counts != corpus.run.delivery_counts) {
      result.ledger.Fail("1-shard corpus outbreak differs");
    }
    layers.closure_measured_s = run.seconds;
    layers.closure_observer_s = timer.busy_s();
    layers.closure_probes = run.result.total_probes;
    layers.closure_delivered = run.result.delivery_counts[0];
    const auto t0 = Clock::now();
    const core::Scenario copy = f.scenario;
    layers.scenario_copy_s = Since(t0);
    (void)copy;
  }
  MeasureTrialParallelism(f, options.threads, kCorpusProbes, layers);
  AddPerLayer(result, layers);
  return result;
}

}  // namespace perfbench
