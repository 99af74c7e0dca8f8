// Measurement primitives of the repository benchmark.
//
// Everything here observes the program from outside: the timing decorators
// wrap the public observer interfaces the benchmark hands to the engine and
// to the ingest daemon, and the helpers turn raw samples into the numbers
// the benchmark reports.  Nothing in this file reaches into the program's
// own stage timers or spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/observer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double Seconds(Clock::time_point t0,
                                    Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// Raw-sample statistics.

/// Quantile `q` in [0, 1] of raw samples, by linear interpolation between
/// the two nearest order statistics (the "linear" / type-7 definition).
/// NaN when `samples` is empty.
[[nodiscard]] double Quantile(std::vector<double> samples, double q);

[[nodiscard]] inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

// ---------------------------------------------------------------------------
// Failure accounting: every operation the benchmark attempts is counted,
// and every operation a correctness gate rejects is counted as failed.

class FailureLedger {
 public:
  void Attempt(std::uint64_t count = 1) { attempted_ += count; }
  /// Records `count` failed operations, attributed to `reason`.
  void Fail(const std::string& reason, std::uint64_t count = 1);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  /// Never more than attempted(): a gate cannot fail work never tried.
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] double failed_ratio() const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& reasons() const {
    return reasons_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> reasons_;
};

// ---------------------------------------------------------------------------
// Open-loop schedule of a striped, looped corpus.
//
// The load generator sends block i of the corpus on connection
// i % connections, loops the corpus `loops` times, and paces each
// connection so that a block is due once the records before it on that
// connection have been sent at the per-connection rate.  The fold restores
// global order (loop * blocks + i), so the k-th folded block is sequence k.

class LoadSchedule {
 public:
  LoadSchedule(std::vector<std::uint32_t> block_records,
               std::uint32_t connections, std::uint32_t loops,
               double aggregate_rate);

  [[nodiscard]] std::uint64_t blocks() const { return cumulative_.size(); }
  /// Seconds after load start at which global sequence `sequence` is due.
  [[nodiscard]] double ScheduledSend(std::uint64_t sequence) const;
  /// Records folded once global sequence `sequence` has been folded.
  [[nodiscard]] std::uint64_t RecordsThrough(std::uint64_t sequence) const {
    return cumulative_[sequence];
  }
  /// Seconds the whole schedule takes (the last block on each connection).
  [[nodiscard]] double Duration() const;

 private:
  std::vector<std::uint32_t> block_records_;
  std::uint32_t connections_;
  std::uint32_t loops_;
  double per_connection_rate_;
  /// Records of every connection's stripe within one corpus loop.
  std::vector<std::uint64_t> stripe_records_;
  /// Records before block i on its own connection, within one loop.
  std::vector<std::uint64_t> before_in_stripe_;
  /// Global running record count through each sequence.
  std::vector<std::uint64_t> cumulative_;
};

// ---------------------------------------------------------------------------
// Timing decorator.
//
// Wraps a ProbeObserver (optionally mergeable) and forwards every call
// unchanged, so the wrapped run is the run that would have happened
// without it.  Each call is timed with one clock pair; on the engine's
// sharded path the decorator also records, per step, when each shard's
// pre-fold finished and when the merge started.  Optionally it keeps every
// `sample_every`-th event it folds, the probe sample the isolated layer
// timings replay.

struct StepTimings {
  std::uint64_t steps = 0;         ///< Merges seen.
  std::uint64_t narrow_steps = 0;  ///< Steps with fewer active shards than forked.
  double shard_busy_s = 0.0;       ///< Σ over steps and active shards.
  /// Σ worker time idle at the join: (slowest shard done − shard done)
  /// for active shards, the whole window for shards with no work.
  double join_wait_s = 0.0;
  double max_busy_s = 0.0;         ///< Σ over steps of the slowest shard.
  double mean_busy_s = 0.0;        ///< Σ over steps of the mean active shard.
  double commit_s = 0.0;           ///< Σ (merge entry − slowest shard done).
  double parallel_window_s = 0.0;  ///< Σ (slowest shard done − step start).
};

class TimingObserver final : public hotspots::sim::ProbeObserver,
                             public hotspots::sim::MergeableObserver {
 public:
  /// `sample_every` 0 keeps no sample.
  explicit TimingObserver(hotspots::sim::ProbeObserver& inner,
                          std::uint64_t sample_every = 0);

  void OnAttach() override;
  void OnProbe(const hotspots::sim::ProbeEvent& event) override;
  void OnProbeBatch(std::span<const hotspots::sim::ProbeEvent> events) override;
  [[nodiscard]] hotspots::sim::MergeableObserver* AsMergeable() override;

  [[nodiscard]] std::unique_ptr<hotspots::sim::ObserverShardState>
  ForkShardState(int shard) override;
  void OnShardBatch(hotspots::sim::ObserverShardState& state,
                    std::span<const hotspots::sim::ProbeEvent> events) override;
  void MergeShardStates(
      std::span<hotspots::sim::ObserverShardState* const> states) override;
  void FinalizeShardStates(
      std::span<hotspots::sim::ObserverShardState* const> states) override;
  [[nodiscard]] bool WantsSerialSpans() const override;
  void OnCommittedSpan(
      std::span<const hotspots::sim::ProbeEvent> events) override;

  /// Σ time inside the forwarded calls, by kind.
  [[nodiscard]] double batch_s() const { return batch_s_; }
  [[nodiscard]] double shard_batch_s() const;
  [[nodiscard]] double merge_s() const { return merge_s_; }
  [[nodiscard]] double finalize_s() const { return finalize_s_; }
  [[nodiscard]] double committed_span_s() const { return committed_s_; }
  /// Everything above: the wrapped observer's total busy time.
  [[nodiscard]] double busy_s() const;
  [[nodiscard]] std::uint64_t events() const;
  [[nodiscard]] std::uint64_t shard_batches() const;
  [[nodiscard]] const StepTimings& steps() const { return steps_; }
  /// The recorded sample, shard-major per step (sharded path) or in
  /// emission order (batch path).
  [[nodiscard]] std::vector<hotspots::sim::ProbeEvent> TakeSample();

  /// Invoked after every forwarded OnShardBatch with the running count of
  /// events folded through that path; the ingest benchmark maps the count
  /// to corpus blocks.  Called on the thread that ran the batch.
  void set_fold_progress(std::function<void(std::uint64_t)> fn) {
    fold_progress_ = std::move(fn);
  }

 private:
  class State;

  hotspots::sim::ProbeObserver& inner_;
  hotspots::sim::MergeableObserver* inner_mergeable_;
  const std::uint64_t sample_every_;
  std::function<void(std::uint64_t)> fold_progress_;

  double batch_s_ = 0.0;
  double merge_s_ = 0.0;
  double finalize_s_ = 0.0;
  double committed_s_ = 0.0;
  std::uint64_t batch_events_ = 0;
  std::uint64_t folded_events_ = 0;
  std::uint64_t sample_counter_ = 0;
  std::vector<hotspots::sim::ProbeEvent> sample_;

  /// Forked states (owned by the caller; kept here for end-of-run reads).
  std::vector<State*> states_;
  std::vector<hotspots::sim::ObserverShardState*> scratch_;
  /// Totals of states already released, so reads survive a new fork.
  double released_shard_batch_s_ = 0.0;
  std::uint64_t released_events_ = 0;
  std::uint64_t released_batches_ = 0;
  Clock::time_point step_start_{};
  StepTimings steps_;
};

}  // namespace perfbench
