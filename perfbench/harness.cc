#include "harness.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace perfbench {

using hotspots::sim::ObserverShardState;
using hotspots::sim::ProbeEvent;

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double weight = position - static_cast<double>(lower);
  return samples[lower] + weight * (samples[upper] - samples[lower]);
}

// ---------------------------------------------------------------------------

void FailureLedger::Fail(const std::string& reason, std::uint64_t count) {
  if (count == 0) return;
  failed_ += count;
  reasons_[reason] += count;
}

std::uint64_t FailureLedger::failed() const {
  return std::min(failed_, attempted_);
}

double FailureLedger::failed_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed()) /
                               static_cast<double>(attempted_);
}

// ---------------------------------------------------------------------------

LoadSchedule::LoadSchedule(std::vector<std::uint32_t> block_records,
                           std::uint32_t connections, std::uint32_t loops,
                           double aggregate_rate)
    : block_records_(std::move(block_records)),
      connections_(connections),
      loops_(loops),
      per_connection_rate_(connections == 0 ? 0.0
                                            : aggregate_rate / connections) {
  if (connections_ == 0 || loops_ == 0 || !(per_connection_rate_ > 0.0)) {
    throw std::invalid_argument(
        "LoadSchedule: connections, loops and rate must be positive");
  }
  stripe_records_.assign(connections_, 0);
  before_in_stripe_.resize(block_records_.size());
  for (std::size_t i = 0; i < block_records_.size(); ++i) {
    std::uint64_t& stripe = stripe_records_[i % connections_];
    before_in_stripe_[i] = stripe;
    stripe += block_records_[i];
  }
  const std::size_t total = block_records_.size() * loops_;
  cumulative_.resize(total);
  std::uint64_t running = 0;
  for (std::size_t sequence = 0; sequence < total; ++sequence) {
    running += block_records_[sequence % block_records_.size()];
    cumulative_[sequence] = running;
  }
}

double LoadSchedule::ScheduledSend(std::uint64_t sequence) const {
  const std::size_t blocks = block_records_.size();
  const std::uint64_t loop = sequence / blocks;
  const std::size_t index = static_cast<std::size_t>(sequence % blocks);
  const std::uint64_t before =
      loop * stripe_records_[index % connections_] + before_in_stripe_[index];
  return static_cast<double>(before) / per_connection_rate_;
}

double LoadSchedule::Duration() const {
  const std::uint64_t longest =
      *std::max_element(stripe_records_.begin(), stripe_records_.end());
  return static_cast<double>(longest * loops_) / per_connection_rate_;
}

// ---------------------------------------------------------------------------

class TimingObserver::State final : public ObserverShardState {
 public:
  State(TimingObserver& owner, std::unique_ptr<ObserverShardState> inner)
      : owner_(owner), inner_(std::move(inner)) {}

  ~State() override {
    // Forked states die on the serial path (end of an engine run, or the
    // fold pipeline's teardown); their totals outlive them in the owner.
    owner_.released_shard_batch_s_ += shard_batch_s;
    owner_.released_events_ += events;
    owner_.released_batches_ += batches;
    owner_.sample_.insert(owner_.sample_.end(), sample.begin(), sample.end());
    auto& live = owner_.states_;
    live.erase(std::remove(live.begin(), live.end(), this), live.end());
  }

  State(const State&) = delete;
  State& operator=(const State&) = delete;

  TimingObserver& owner_;
  std::unique_ptr<ObserverShardState> inner_;
  double shard_batch_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t sample_counter = 0;
  std::vector<ProbeEvent> sample;
  bool done_this_step = false;
  Clock::time_point done{};
};

TimingObserver::TimingObserver(hotspots::sim::ProbeObserver& inner,
                               std::uint64_t sample_every)
    : inner_(inner),
      inner_mergeable_(inner.AsMergeable()),
      sample_every_(sample_every) {}

void TimingObserver::OnAttach() {
  inner_.OnAttach();
  step_start_ = Clock::now();
}

void TimingObserver::OnProbe(const ProbeEvent& event) {
  OnProbeBatch(std::span<const ProbeEvent>(&event, 1));
}

void TimingObserver::OnProbeBatch(std::span<const ProbeEvent> events) {
  if (sample_every_ != 0) {
    for (const ProbeEvent& event : events) {
      if (++sample_counter_ % sample_every_ == 0) sample_.push_back(event);
    }
  }
  const auto t0 = Clock::now();
  inner_.OnProbeBatch(events);
  batch_s_ += Seconds(t0, Clock::now());
  batch_events_ += events.size();
}

hotspots::sim::MergeableObserver* TimingObserver::AsMergeable() {
  return inner_mergeable_ != nullptr ? this : nullptr;
}

std::unique_ptr<ObserverShardState> TimingObserver::ForkShardState(int shard) {
  auto state =
      std::make_unique<State>(*this, inner_mergeable_->ForkShardState(shard));
  states_.push_back(state.get());
  step_start_ = Clock::now();
  return state;
}

void TimingObserver::OnShardBatch(ObserverShardState& state,
                                  std::span<const ProbeEvent> events) {
  auto& timed = static_cast<State&>(state);
  if (sample_every_ != 0) {
    for (const ProbeEvent& event : events) {
      if (++timed.sample_counter % sample_every_ == 0) {
        timed.sample.push_back(event);
      }
    }
  }
  const auto t0 = Clock::now();
  inner_mergeable_->OnShardBatch(*timed.inner_, events);
  const auto t1 = Clock::now();
  timed.shard_batch_s += Seconds(t0, t1);
  timed.events += events.size();
  ++timed.batches;
  timed.done_this_step = true;
  timed.done = t1;
  if (fold_progress_) {
    folded_events_ += events.size();
    fold_progress_(folded_events_);
  }
}

void TimingObserver::MergeShardStates(
    std::span<ObserverShardState* const> states) {
  const auto entry = Clock::now();
  std::size_t active = 0;
  Clock::time_point last_done = step_start_;
  double busy_sum = 0.0;
  double busy_max = 0.0;
  for (ObserverShardState* state : states) {
    auto& timed = static_cast<State&>(*state);
    if (!timed.done_this_step) continue;
    ++active;
    const double busy = Seconds(step_start_, timed.done);
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
    last_done = std::max(last_done, timed.done);
  }
  ++steps_.steps;
  if (active < states.size()) ++steps_.narrow_steps;
  if (active > 0) {
    for (ObserverShardState* state : states) {
      auto& timed = static_cast<State&>(*state);
      if (!timed.done_this_step) continue;
      steps_.join_wait_s += Seconds(timed.done, last_done);
      timed.done_this_step = false;
    }
    // The pool dispatches every worker each step; one with an empty slice
    // returns at once and idles until the slowest shard is done.
    steps_.join_wait_s += static_cast<double>(states.size() - active) *
                          Seconds(step_start_, last_done);
    steps_.shard_busy_s += busy_sum;
    steps_.max_busy_s += busy_max;
    steps_.mean_busy_s += busy_sum / static_cast<double>(active);
    steps_.commit_s += Seconds(last_done, entry);
    steps_.parallel_window_s += Seconds(step_start_, last_done);
  }

  scratch_.clear();
  for (ObserverShardState* state : states) {
    scratch_.push_back(static_cast<State&>(*state).inner_.get());
  }
  inner_mergeable_->MergeShardStates(scratch_);
  const auto exit = Clock::now();
  merge_s_ += Seconds(entry, exit);
  step_start_ = exit;
}

void TimingObserver::FinalizeShardStates(
    std::span<ObserverShardState* const> states) {
  const auto t0 = Clock::now();
  scratch_.clear();
  for (ObserverShardState* state : states) {
    scratch_.push_back(static_cast<State&>(*state).inner_.get());
  }
  inner_mergeable_->FinalizeShardStates(scratch_);
  finalize_s_ += Seconds(t0, Clock::now());
}

bool TimingObserver::WantsSerialSpans() const {
  return inner_mergeable_ != nullptr && inner_mergeable_->WantsSerialSpans();
}

void TimingObserver::OnCommittedSpan(std::span<const ProbeEvent> events) {
  const auto t0 = Clock::now();
  inner_mergeable_->OnCommittedSpan(events);
  committed_s_ += Seconds(t0, Clock::now());
}

double TimingObserver::shard_batch_s() const {
  double total = released_shard_batch_s_;
  for (const State* state : states_) total += state->shard_batch_s;
  return total;
}

double TimingObserver::busy_s() const {
  return batch_s_ + shard_batch_s() + merge_s_ + finalize_s_ + committed_s_;
}

std::uint64_t TimingObserver::events() const {
  std::uint64_t total = batch_events_ + released_events_;
  for (const State* state : states_) total += state->events;
  return total;
}

std::uint64_t TimingObserver::shard_batches() const {
  std::uint64_t total = released_batches_;
  for (const State* state : states_) total += state->batches;
  return total;
}

std::vector<ProbeEvent> TimingObserver::TakeSample() {
  std::vector<ProbeEvent> sample = std::move(sample_);
  sample_.clear();
  for (State* state : states_) {
    sample.insert(sample.end(), state->sample.begin(), state->sample.end());
    state->sample.clear();
  }
  return sample;
}

}  // namespace perfbench
