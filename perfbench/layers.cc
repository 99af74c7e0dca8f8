#include "layers.h"

#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "fault/delivery.h"
#include "harness.h"
#include "net/special_ranges.h"
#include "prng/xoshiro.h"
#include "serve/load_client.h"
#include "trace/reader.h"
#include "trace/stream_decoder.h"
#include "trace/writer.h"

namespace perfbench {

using namespace hotspots;

namespace {

/// Keeps results observable so timed loops are not optimised away.
volatile std::uint64_t g_sink = 0;

/// Runs `op` (which performs `ops_per_pass` operations) in repeated
/// passes until at least `min_seconds` elapsed and at least `min_passes`
/// ran; returns the median nanoseconds per operation over passes.
double TimePerOp(const std::function<void()>& op, std::uint64_t ops_per_pass,
                 double min_seconds = 0.05, int min_passes = 5) {
  if (ops_per_pass == 0) return 0.0;
  std::vector<double> per_op;
  const auto start = Clock::now();
  while (static_cast<int>(per_op.size()) < min_passes ||
         Seconds(start, Clock::now()) < min_seconds) {
    const auto t0 = Clock::now();
    op();
    per_op.push_back(Seconds(t0, Clock::now()) * 1e9 /
                     static_cast<double>(ops_per_pass));
    if (per_op.size() >= 1000) break;
  }
  return Median(per_op);
}

}  // namespace

EngineLayerCosts TimeEngineLayers(const std::vector<sim::ProbeEvent>& sample,
                                  const EngineLayerInputs& inputs) {
  if (sample.empty()) {
    throw std::runtime_error("layer timings need a non-empty probe sample");
  }
  const sim::Population& population = *inputs.population;
  EngineLayerCosts costs;
  costs.sample_probes = sample.size();

  std::vector<sim::ProbeEvent> delivered;
  for (const sim::ProbeEvent& event : sample) {
    if (event.delivery == topology::Delivery::kDelivered) {
      delivered.push_back(event);
    }
  }
  costs.sample_delivered = delivered.size();

  // Targeting: scanners of the sample's first distinct sources, called
  // round-robin so per-scanner state interleaves as in a step.
  {
    std::vector<std::unique_ptr<sim::HostScanner>> scanners;
    std::unordered_set<sim::HostId> seen;
    prng::Xoshiro256 entropy{inputs.engine_seed ^ 0x7A29E7ull};
    for (const sim::ProbeEvent& event : sample) {
      if (scanners.size() >= 256) break;
      if (!seen.insert(event.src_host).second) continue;
      scanners.push_back(inputs.worm->MakeScanner(
          population.host(event.src_host), entropy.Next()));
    }
    prng::Xoshiro256 rng{inputs.engine_seed};
    const std::uint64_t ops = sample.size();
    costs.next_target_ns = TimePerOp(
        [&] {
          std::uint64_t checksum = 0;
          std::size_t next = 0;
          for (std::uint64_t i = 0; i < ops; ++i) {
            checksum += scanners[next]->NextTarget(rng).value();
            if (++next == scanners.size()) next = 0;
          }
          g_sink = g_sink + checksum;
        },
        ops);
  }

  // Decide: the sample's (source, destination) pairs.
  {
    std::vector<topology::Probe> probes;
    probes.reserve(sample.size());
    for (const sim::ProbeEvent& event : sample) {
      const sim::Host& host = population.host(event.src_host);
      topology::Probe probe;
      probe.src = host.address;
      probe.dst = event.dst;
      probe.src_site = host.nat_site;
      probe.src_org = host.org;
      probes.push_back(probe);
    }
    prng::Xoshiro256 rng{inputs.engine_seed + 1};
    costs.decide_ns = TimePerOp(
        [&] {
          std::uint64_t checksum = 0;
          for (const topology::Probe& probe : probes) {
            checksum += static_cast<std::uint64_t>(
                inputs.reachability->Decide(probe, rng));
          }
          g_sink = g_sink + checksum;
        },
        probes.size());
  }

  if (!delivered.empty()) {
    // Victim lookup, with the engine's prefetch distance.
    std::vector<std::pair<topology::SiteId, net::Ipv4>> keys;
    keys.reserve(delivered.size());
    for (const sim::ProbeEvent& event : delivered) {
      const sim::Host& host = population.host(event.src_host);
      keys.emplace_back(
          net::IsPrivate(event.dst) ? host.nat_site : topology::kPublicSite,
          event.dst);
    }
    costs.victim_lookup_ns = TimePerOp(
        [&] {
          constexpr std::size_t kPrefetchAhead = 8;
          std::uint64_t checksum = 0;
          for (std::size_t i = 0; i < keys.size(); ++i) {
            if (i + kPrefetchAhead < keys.size()) {
              const auto& [site, dst] = keys[i + kPrefetchAhead];
              population.PrefetchFind(site, dst);
            }
            checksum += population.FindInSite(keys[i].first, keys[i].second);
          }
          g_sink = g_sink + checksum;
        },
        keys.size());

    // Observe: a fresh fleet per pass, so every pass records into the same
    // empty state the run started from.
    std::vector<double> observe_ns;
    const auto start = Clock::now();
    while (observe_ns.size() < 5 || Seconds(start, Clock::now()) < 0.05) {
      telescope::Telescope fleet = inputs.make_fleet();
      const auto t0 = Clock::now();
      for (const sim::ProbeEvent& event : delivered) {
        fleet.Observe(event.time, event.src_address, event.dst);
      }
      observe_ns.push_back(Seconds(t0, Clock::now()) * 1e9 /
                           static_cast<double>(delivered.size()));
      if (observe_ns.size() >= 200) break;
    }
    costs.observe_ns = Median(observe_ns);

    // Fault verdicts on delivered probes, as the sharded engine draws them.
    fault::DeliveryFaults faults{*inputs.faults};
    faults.OnRunStart(inputs.engine_seed);
    faults.BeginStep(0.0);
    prng::Xoshiro256 stream{faults.ShardStreamSalt()};
    costs.verdict_ns = TimePerOp(
        [&] {
          std::uint64_t checksum = 0;
          for (const sim::ProbeEvent& event : delivered) {
            const auto outcome = faults.ShardProbeVerdict(
                event.time, event.dst, topology::Delivery::kDelivered,
                stream);
            checksum += static_cast<std::uint64_t>(outcome.verdict) +
                        (outcome.duplicate ? 7 : 0);
          }
          g_sink = g_sink + checksum;
        },
        delivered.size());
  }
  return costs;
}

double WriteCapture(const std::string& trace_path,
                    const std::vector<sim::ProbeEvent>& events,
                    std::uint64_t seed) {
  trace::TraceWriterOptions options;
  options.seed = seed;
  const auto t0 = Clock::now();
  trace::TraceWriter writer{trace_path, options};
  writer.OnAttach();
  constexpr std::size_t kBatch = 1024;
  for (std::size_t i = 0; i < events.size(); i += kBatch) {
    const std::size_t take = std::min(kBatch, events.size() - i);
    writer.OnProbeBatch(std::span<const sim::ProbeEvent>(&events[i], take));
  }
  writer.Finish();
  return Seconds(t0, Clock::now());
}

TraceLayerCosts TimeTraceLayer(const std::string& trace_path) {
  TraceLayerCosts costs;
  const serve::CorpusIndex corpus{trace_path};
  costs.records = corpus.total_records();
  if (costs.records == 0) return costs;
  costs.bytes_per_record = static_cast<double>(corpus.bytes().size()) /
                           static_cast<double>(costs.records);
  const std::span<const std::uint8_t> bytes{corpus.bytes()};
  costs.decode_ns = TimePerOp(
      [&] {
        trace::StreamDecoder decoder{"perfbench"};
        constexpr std::size_t kChunk = 64 * 1024;  // Socket-read sized.
        std::uint64_t records = 0;
        for (std::size_t offset = 0; offset < bytes.size(); offset += kChunk) {
          decoder.Feed(
              bytes.subspan(offset, std::min(kChunk, bytes.size() - offset)));
          for (auto batch = decoder.NextBatch(); !batch.empty();
               batch = decoder.NextBatch()) {
            records += batch.size();
          }
        }
        g_sink = g_sink + records;
      },
      costs.records, 0.05, 3);
  costs.read_ns = TimePerOp(
      [&] {
        trace::TraceReader reader{trace_path};
        std::uint64_t records = 0;
        for (auto batch = reader.NextBatch(); !batch.empty();
             batch = reader.NextBatch()) {
          records += batch.size();
        }
        g_sink = g_sink + records;
      },
      costs.records, 0.05, 3);
  return costs;
}

}  // namespace perfbench
