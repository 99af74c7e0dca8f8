#include "ingest.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "serve/server.h"

namespace perfbench {

using namespace hotspots;

IngestStack::IngestStack(telescope::Telescope fleet,
                         net::IntervalSet live_space, bool traced)
    : fleet_(std::move(fleet)), trw_(std::move(live_space)) {
  if (traced) {
    fleet_timer_ = std::make_unique<TimingObserver>(fleet_);
    trw_timer_ = std::make_unique<TimingObserver>(trw_);
    tee_.Add(fleet_timer_.get());
    tee_.Add(trw_timer_.get());
  } else {
    tee_.Add(&fleet_);
    tee_.Add(&trw_);
  }
  outer_ = std::make_unique<TimingObserver>(tee_);
  outer_->OnAttach();
}

std::optional<std::string> HttpGet(std::uint16_t port,
                                   const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof address) == 0;
  if (ok) {
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    std::size_t sent = 0;
    while (ok && sent < request.size()) {
      const ssize_t n =
          ::send(fd, request.data() + sent, request.size() - sent, 0);
      if (n <= 0) ok = false;
      else sent += static_cast<std::size_t>(n);
    }
    char buffer[16384];
    while (ok) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n < 0) ok = false;
      if (n <= 0) break;
      response.append(buffer, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  if (!ok || response.compare(0, 12, "HTTP/1.0 200") != 0 ||
      body == std::string::npos) {
    return std::nullopt;
  }
  return response.substr(body + 4);
}

std::vector<std::string> SensorGaugeEntries(const std::string& metrics_json) {
  std::vector<std::string> entries;
  const std::string needle = "\"telescope.sensor.";
  std::size_t pos = metrics_json.find("\"gauges\"");
  while (pos != std::string::npos) {
    pos = metrics_json.find(needle, pos);
    if (pos == std::string::npos) break;
    const std::size_t end = metrics_json.find_first_of(",}\n", pos);
    entries.push_back(metrics_json.substr(pos, end - pos));
    pos = end;
  }
  return entries;
}

double MetricValue(const std::string& metrics_json, const std::string& name) {
  const std::string needle = "\"" + name + "\"";
  std::size_t pos = metrics_json.find(needle);
  if (pos == std::string::npos) return 0.0;
  pos = metrics_json.find(':', pos + needle.size());
  if (pos == std::string::npos) return 0.0;
  return std::strtod(metrics_json.c_str() + pos + 1, nullptr);
}

std::vector<std::uint32_t> BlockRecords(const serve::CorpusIndex& corpus) {
  std::vector<std::uint32_t> records;
  records.reserve(corpus.blocks().size());
  for (const auto& block : corpus.blocks()) records.push_back(block.records);
  return records;
}

SessionReport RunIngestSession(const serve::CorpusIndex& corpus,
                               IngestStack& stack,
                               const SessionOptions& options) {
  SessionReport report;
  std::optional<LoadSchedule> schedule;
  std::vector<Clock::time_point> folded_at;
  if (options.rate > 0.0) {
    schedule.emplace(BlockRecords(corpus), options.connections, options.loops,
                     options.rate);
    folded_at.resize(schedule->blocks());
  }
  // Fold progress → completion time of each global sequence (the fold is
  // in global order, so the running record count names the block).
  std::uint64_t next_block = 0;
  double busy_at_last_block = stack.outer().busy_s();
  if (schedule) {
    stack.outer().set_fold_progress([&](std::uint64_t folded) {
      const auto now = Clock::now();
      while (next_block < schedule->blocks() &&
             folded >= schedule->RecordsThrough(next_block)) {
        folded_at[next_block++] = now;
        const double busy = stack.outer().busy_s();
        report.fold_service_s.push_back(busy - busy_at_last_block);
        busy_at_last_block = busy;
      }
    });
  } else {
    stack.outer().set_fold_progress({});
  }

  const double pauses_before =
      static_cast<double>(obs::Registry::Global()
                              .GetCounter("serve.ingest.backpressure_pauses")
                              .Value());
  const double busy_before = stack.outer().busy_s();
  const std::uint64_t runs_before = stack.outer().shard_batches();

  serve::ServerOptions server_options;
  serve::TelescopeServer server{stack.outer(), server_options};
  telescope::Telescope& fleet = stack.fleet();
  server.set_before_snapshot([&fleet] { fleet.PublishSensorMetrics(); });
  server.set_alert_probe([&fleet] { return fleet.AlertedCount() > 0; });
  server.Bind();
  std::thread server_thread{[&server] { server.Run(); }};

  std::atomic<bool> stop_scraping{false};
  std::thread scraper;
  if (options.scrape_interval_s > 0.0) {
    scraper = std::thread{[&] {
      const auto interval =
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(options.scrape_interval_s));
      auto next = Clock::now() + interval;
      while (!stop_scraping.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_until(next);
        next += interval;
        if (stop_scraping.load(std::memory_order_relaxed)) break;
        const auto t0 = Clock::now();
        const auto body = HttpGet(server.port(), "/metrics");
        if (body) report.scrape_s.push_back(Seconds(t0, Clock::now()));
        else ++report.scrape_failures;
      }
    }};
  }

  serve::LoadOptions load;
  load.port = server.port();
  load.connections = options.connections;
  load.loops = options.loops;
  load.rate = options.rate;
  const auto load_start = Clock::now();
  try {
    report.load = serve::RunLoad(corpus, load);
  } catch (const std::exception& error) {
    report.load_failed = true;
    report.load_error = error.what();
  }
  stop_scraping.store(true, std::memory_order_relaxed);
  if (scraper.joinable()) scraper.join();

  if (const auto body = HttpGet(server.port(), "/metrics")) {
    report.final_metrics = *body;
  }
  for (int i = 0; i < options.idle_reads; ++i) {
    const auto t0 = Clock::now();
    const std::string rendered = server.MetricsJson();
    report.render_s.push_back(Seconds(t0, Clock::now()));
    if (rendered.empty()) break;
  }
  report.median_render_ms = Median(report.render_s) * 1e3;

  server.RequestShutdown();
  server_thread.join();

  const serve::FoldPipeline& fold = server.fold();
  report.records_folded = fold.records_folded();
  report.blocks_folded = fold.blocks_folded();
  report.sequence_gaps = fold.sequence_gaps();
  report.backpressure_pauses =
      MetricValue(report.final_metrics, "serve.ingest.backpressure_pauses") -
      pauses_before;
  report.fold_busy_s = stack.outer().busy_s() - busy_before;
  report.fold_runs = stack.outer().shard_batches() - runs_before;
  if (schedule) {
    for (std::uint64_t k = 0; k < next_block; ++k) {
      report.fold_latency_s.push_back(Seconds(load_start, folded_at[k]) -
                                      schedule->ScheduledSend(k));
    }
    if (!report.load_failed) {
      report.generator_late_s =
          report.load.wall_seconds - schedule->Duration();
    }
  }
  stack.outer().set_fold_progress({});
  return report;
}

}  // namespace perfbench
