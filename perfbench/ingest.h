// In-process ingest sessions against the telescope daemon
// (serve::TelescopeServer on loopback), measured from outside: load from
// serve::RunLoad, fold progress from a timing decorator around the
// daemon's observer stack, and /metrics round trips from an HTTP client.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "detect/probe_stream.h"
#include "harness.h"
#include "net/interval_set.h"
#include "serve/load_client.h"
#include "sim/observer.h"
#include "telescope/telescope.h"

namespace perfbench {

/// The daemon's analysis state, composed as telescope_server composes it:
/// a sensor fleet and a TRW gateway behind one TeeObserver.  `outer`
/// decorates the whole tee (fold progress and busy time); with `traced`
/// each child is decorated too, for per-child fold times.
class IngestStack {
 public:
  IngestStack(hotspots::telescope::Telescope fleet,
              hotspots::net::IntervalSet live_space, bool traced);

  IngestStack(const IngestStack&) = delete;
  IngestStack& operator=(const IngestStack&) = delete;

  [[nodiscard]] hotspots::telescope::Telescope& fleet() { return fleet_; }
  [[nodiscard]] TimingObserver& outer() { return *outer_; }
  [[nodiscard]] hotspots::sim::TeeObserver& tee() { return tee_; }
  /// Per-child decorators (null unless traced).
  [[nodiscard]] const TimingObserver* fleet_timer() const {
    return fleet_timer_.get();
  }
  [[nodiscard]] const TimingObserver* trw_timer() const {
    return trw_timer_.get();
  }

 private:
  hotspots::telescope::Telescope fleet_;
  hotspots::detect::TrwGatewayObserver trw_;
  std::unique_ptr<TimingObserver> fleet_timer_;
  std::unique_ptr<TimingObserver> trw_timer_;
  hotspots::sim::TeeObserver tee_;
  std::unique_ptr<TimingObserver> outer_;
};

struct SessionOptions {
  std::uint32_t connections = 2;
  std::uint32_t loops = 1;
  /// Aggregate records/s; 0 runs the closed, unthrottled loop.
  double rate = 0.0;
  /// Seconds between GET /metrics polls during the load; 0 disables them.
  double scrape_interval_s = 0.0;
  /// In-process MetricsJson() reads after the last ACK, with the daemon
  /// idle: the read's own cost, free of lock waits and scheduling noise.
  int idle_reads = 0;
};

struct SessionReport {
  hotspots::serve::LoadReport load;
  bool load_failed = false;
  std::string load_error;
  std::uint64_t records_folded = 0;
  std::uint64_t blocks_folded = 0;
  std::uint64_t sequence_gaps = 0;
  /// Raw per-block latencies from scheduled send to folded (open loop).
  std::vector<double> fold_latency_s;
  /// Raw per-block fold service times: the outer decorator's busy time
  /// between consecutive block completions (open loop).
  std::vector<double> fold_service_s;
  /// Raw /metrics round trips taken during the load.
  std::vector<double> scrape_s;
  /// Raw in-process MetricsJson() times of the idle reads.
  std::vector<double> render_s;
  std::uint64_t scrape_failures = 0;
  /// The /metrics body fetched after the last ACK.
  std::string final_metrics;
  double backpressure_pauses = 0.0;
  /// Open loop: send wall time minus the schedule's duration.
  double generator_late_s = 0.0;
  double fold_busy_s = 0.0;       ///< The outer decorator's busy time.
  std::uint64_t fold_runs = 0;    ///< Same-timestamp runs folded.
  double median_render_ms = 0.0;  ///< Isolated MetricsJson() after the load.
};

/// Serves one session on an ephemeral loopback port and drives `options`'
/// load over `corpus` into `stack`.  The stack must not have served
/// another session (the daemon's fold state starts empty).
[[nodiscard]] SessionReport RunIngestSession(
    const hotspots::serve::CorpusIndex& corpus, IngestStack& stack,
    const SessionOptions& options);

/// Round trip of one `GET <path>` against 127.0.0.1:`port`; returns the
/// response body, or nullopt on any failure.
[[nodiscard]] std::optional<std::string> HttpGet(std::uint16_t port,
                                                 const std::string& path);

/// The `"telescope.sensor.*"` gauge entries of a hotspots.metrics.v1
/// document, verbatim and in document order.
[[nodiscard]] std::vector<std::string> SensorGaugeEntries(
    const std::string& metrics_json);

/// The numeric value of metric `name` in a hotspots.metrics.v1 document
/// (0 when absent).
[[nodiscard]] double MetricValue(const std::string& metrics_json,
                                 const std::string& name);

/// Per-block record counts of an indexed corpus.
[[nodiscard]] std::vector<std::uint32_t> BlockRecords(
    const hotspots::serve::CorpusIndex& corpus);

}  // namespace perfbench
