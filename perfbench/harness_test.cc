// Tests of the benchmark's own measurement code.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "fixtures.h"
#include "harness.h"
#include "ingest.h"
#include "layers.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/load_client.h"
#include "trace/replay.h"

namespace perfbench {
namespace {

using namespace hotspots;

TEST(QuantileTest, KnownInputs) {
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
  EXPECT_DOUBLE_EQ(Quantile({7.0}, 0.99), 7.0);
  // Order does not matter; type-7 interpolation between order statistics.
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.25), 1.75);
  std::vector<double> hundred;
  for (int i = 1; i <= 101; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(Quantile(hundred, 0.99), 100.0);
  EXPECT_DOUBLE_EQ(Median(hundred), 51.0);
}

TEST(FailureLedgerTest, CountsAndRatio) {
  FailureLedger ledger;
  EXPECT_EQ(ledger.failed_ratio(), 0.0);
  ledger.Attempt(10);
  ledger.Fail("gap", 2);
  ledger.Fail("gap", 1);
  ledger.Fail("refused", 0);  // No-op: nothing failed.
  EXPECT_EQ(ledger.attempted(), 10u);
  EXPECT_EQ(ledger.failed(), 3u);
  EXPECT_DOUBLE_EQ(ledger.failed_ratio(), 0.3);
  ASSERT_EQ(ledger.reasons().size(), 1u);
  EXPECT_EQ(ledger.reasons().at("gap"), 3u);
  // A gate can never fail more work than was attempted.
  ledger.Fail("fingerprint", 100);
  EXPECT_EQ(ledger.failed(), 10u);
  EXPECT_DOUBLE_EQ(ledger.failed_ratio(), 1.0);
}

TEST(LoadScheduleTest, StripedLoopedCorpus) {
  // Five blocks over two connections: c0 carries blocks 0, 2, 4 (10 + 30 +
  // 50 records), c1 blocks 1, 3 (20 + 40).  Aggregate 20 records/s, so
  // each connection paces at 10 records/s.
  const LoadSchedule schedule{{10, 20, 30, 40, 50}, 2, 3, 20.0};
  EXPECT_EQ(schedule.blocks(), 15u);
  EXPECT_DOUBLE_EQ(schedule.ScheduledSend(0), 0.0);
  EXPECT_DOUBLE_EQ(schedule.ScheduledSend(1), 0.0);
  EXPECT_DOUBLE_EQ(schedule.ScheduledSend(2), 1.0);   // After block 0.
  EXPECT_DOUBLE_EQ(schedule.ScheduledSend(3), 2.0);   // After block 1.
  EXPECT_DOUBLE_EQ(schedule.ScheduledSend(4), 4.0);   // After 0 and 2.
  // Second loop: each stripe first replays its whole first-loop stripe.
  EXPECT_DOUBLE_EQ(schedule.ScheduledSend(5), 9.0);   // c0: 90 records.
  EXPECT_DOUBLE_EQ(schedule.ScheduledSend(6), 6.0);   // c1: 60 records.
  EXPECT_DOUBLE_EQ(schedule.ScheduledSend(9), 13.0);  // c0: 90 + 40.
  EXPECT_DOUBLE_EQ(schedule.ScheduledSend(14), 2 * 9.0 + 4.0);
  EXPECT_EQ(schedule.RecordsThrough(0), 10u);
  EXPECT_EQ(schedule.RecordsThrough(4), 150u);
  EXPECT_EQ(schedule.RecordsThrough(5), 160u);
  EXPECT_EQ(schedule.RecordsThrough(14), 450u);
  EXPECT_DOUBLE_EQ(schedule.Duration(), 27.0);  // c0: 3 x 90 / 10.
  EXPECT_THROW((LoadSchedule{{1}, 0, 1, 1.0}), std::invalid_argument);
}

/// A mergeable observer that records which protocol calls reached it.
class ProbeLog final : public sim::ProbeObserver,
                       public sim::MergeableObserver {
 public:
  explicit ProbeLog(bool wants_spans) : wants_spans_(wants_spans) {}
  void OnProbe(const sim::ProbeEvent&) override { ++probes; }
  sim::MergeableObserver* AsMergeable() override { return this; }
  std::unique_ptr<sim::ObserverShardState> ForkShardState(int) override {
    ++forks;
    return std::make_unique<sim::ObserverShardState>();
  }
  void OnShardBatch(sim::ObserverShardState&,
                    std::span<const sim::ProbeEvent> events) override {
    shard_events += events.size();
  }
  void MergeShardStates(std::span<sim::ObserverShardState* const>) override {
    ++merges;
  }
  void FinalizeShardStates(
      std::span<sim::ObserverShardState* const> states) override {
    finalized_states += states.size();
  }
  bool WantsSerialSpans() const override { return wants_spans_; }
  void OnCommittedSpan(std::span<const sim::ProbeEvent> events) override {
    committed += events.size();
  }

  bool wants_spans_;
  int probes = 0, forks = 0, merges = 0;
  std::size_t shard_events = 0, finalized_states = 0, committed = 0;
};

class SerialOnly final : public sim::ProbeObserver {
 public:
  void OnProbe(const sim::ProbeEvent&) override {}
};

TEST(TimingObserverTest, ForwardsTheMergeableProtocol) {
  SerialOnly serial;
  TimingObserver serial_timer{serial};
  EXPECT_EQ(serial_timer.AsMergeable(), nullptr);

  ProbeLog log{/*wants_spans=*/true};
  TimingObserver timer{log, /*sample_every=*/2};
  ASSERT_EQ(timer.AsMergeable(), &timer);
  EXPECT_TRUE(timer.WantsSerialSpans());
  ProbeLog no_spans{/*wants_spans=*/false};
  EXPECT_FALSE(TimingObserver{no_spans}.WantsSerialSpans());

  auto s0 = timer.ForkShardState(0);
  auto s1 = timer.ForkShardState(1);
  const std::vector<sim::ProbeEvent> events(5);
  timer.OnShardBatch(*s0, events);
  timer.OnShardBatch(*s1, std::span(events).first(2));
  std::vector<sim::ObserverShardState*> states = {s0.get(), s1.get()};
  timer.MergeShardStates(states);
  timer.OnShardBatch(*s0, events);  // Narrow step: shard 1 idle.
  timer.MergeShardStates(states);
  timer.OnCommittedSpan(events);
  timer.FinalizeShardStates(states);
  EXPECT_EQ(log.forks, 2);
  EXPECT_EQ(log.shard_events, 12u);
  EXPECT_EQ(log.merges, 2);
  EXPECT_EQ(log.finalized_states, 2u);
  EXPECT_EQ(log.committed, 5u);
  EXPECT_EQ(timer.steps().steps, 2u);
  EXPECT_EQ(timer.steps().narrow_steps, 1u);
  EXPECT_EQ(timer.shard_batches(), 3u);
  EXPECT_EQ(timer.events(), 12u);
  s0.reset();
  s1.reset();
  // Totals survive the states, and every second event each shard folded
  // is sampled (shard 0: 10 events, shard 1: 2).
  EXPECT_EQ(timer.events(), 12u);
  EXPECT_EQ(timer.TakeSample().size(), 6u);
}

TEST(TimingObserverTest, LeavesTheOutbreakFingerprintUnchanged) {
  auto fixture = BuildOutbreakFixture(0.02, 7);
  fixture->engine_config.max_probes = 400'000;
  const auto run = [&](int shards, bool decorated) {
    sim::Population population = fixture->scenario.population;
    sim::EngineConfig config = fixture->engine_config;
    config.shards = shards;
    sim::Engine engine{population, *fixture->worm, *fixture->reachability,
                       &fixture->scenario.nats, config};
    engine.SeedRandomInfections(25);
    telescope::Telescope fleet = fixture->MakeTelescope();
    TimingObserver timer{fleet, 16};
    const sim::RunResult result =
        decorated ? engine.Run(timer) : engine.Run(fleet);
    if (decorated) {
      EXPECT_GT(timer.steps().steps, 0u);
      EXPECT_FALSE(timer.TakeSample().empty());
    }
    return OutbreakFingerprint(result, fleet);
  };
  const std::uint64_t plain = run(1, false);
  EXPECT_EQ(run(1, true), plain);
  EXPECT_EQ(run(3, true), plain);
}

TEST(TimingObserverTest, LeavesTheIngestGaugesUnchanged) {
  auto fixture = BuildOutbreakFixture(0.02, 9);
  fixture->engine_config.max_probes = 200'000;
  sim::Population population = fixture->scenario.population;
  sim::Engine engine{population, *fixture->worm, *fixture->reachability,
                     &fixture->scenario.nats, fixture->engine_config};
  engine.SeedRandomInfections(25);
  sim::RecordingObserver recorder;
  (void)engine.Run(recorder);
  const auto dir = std::filesystem::path{"perfbench_test_work"};
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "corpus.trace").string();
  (void)WriteCapture(path, recorder.events(), 1);
  const serve::CorpusIndex corpus{path};

  net::IntervalSet live;
  live.Add(net::Prefix{net::Ipv4{10u << 24}, 8});
  live.Build();
  IngestStack traced{fixture->MakeTelescope(), live, /*traced=*/true};
  SessionOptions options;
  options.loops = 2;
  const SessionReport session = RunIngestSession(corpus, traced, options);
  ASSERT_FALSE(session.load_failed) << session.load_error;
  EXPECT_EQ(session.records_folded, 2 * corpus.total_records());
  EXPECT_GT(traced.fleet_timer()->events(), 0u);
  const std::vector<std::string> daemon = SensorGaugeEntries(session.final_metrics);
  ASSERT_FALSE(daemon.empty());

  telescope::Telescope embedded = fixture->MakeTelescope();
  (void)trace::ReplayFile(path, embedded);
  (void)trace::ReplayFile(path, embedded);
  embedded.PublishSensorMetrics();
  EXPECT_EQ(SensorGaugeEntries(
                obs::SnapshotToJson(obs::Registry::Global().TakeSnapshot())),
            daemon);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
