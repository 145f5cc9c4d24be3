// Time-series telemetry cost: (1) how much a background TimeseriesCollector
// sampling every 5ms slows a hot metrics-update path (4 writer threads
// hammering a counter + latency histogram on the sampled registry), and
// (2) how many kGetTimeseries wire scrapes per second a live serving stack
// answers while the collector keeps filling its ring. Persists
// ts_collector_overhead_pct and ts_scrape_qps into BENCH_perf.json.
//
// Both numbers stay meaningful in a -DVFLFIA_METRICS=OFF build: counters and
// gauges remain live there (only histogram recording compiles out), so the
// hammer loop still exercises the contended path the collector snapshots.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "exp/bench_json.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "models/logistic_regression.h"
#include "net/channel.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "serve/prediction_server.h"
#include "serve/server_channel.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kWriterThreads = 4;
constexpr std::size_t kOpsPerThread = 2'000'000;

void Die(const vfl::core::Status& status, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::abort();
}

/// Ops/second of kWriterThreads hammering one counter + one histogram on
/// `registry`. The collector (when armed) samples this same registry.
double HammerOpsPerSec(vfl::obs::MetricsRegistry& registry) {
  vfl::obs::Counter* counter = registry.GetCounter("bench.ops", "ops");
  vfl::obs::LatencyHistogram* hist = registry.GetHistogram("bench.ns", "ns");
  std::vector<std::thread> writers;
  writers.reserve(kWriterThreads);
  const Clock::time_point start = Clock::now();
  for (std::size_t t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([counter, hist, t] {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        counter->Add(1);
        hist->Record((t + 1) * 100 + i % 1000);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(kWriterThreads * kOpsPerThread) / elapsed;
}

}  // namespace

int main() {
  std::printf("obs timeseries bench: %zu writers x %zu ops\n", kWriterThreads,
              kOpsPerThread);

  // --- collector overhead on the hot update path ---------------------------
  double base_ops = 0.0, sampled_ops = 0.0;
  {
    vfl::obs::MetricsRegistry registry;
    base_ops = HammerOpsPerSec(registry);
  }
  {
    vfl::obs::MetricsRegistry registry;
    vfl::obs::TimeseriesCollectorOptions options;
    options.period = std::chrono::milliseconds(5);
    options.ring_capacity = 1024;
    options.registry = &registry;
    vfl::obs::TimeseriesCollector collector(options);
    if (const auto s = collector.Start(); !s.ok()) Die(s, "collector start");
    sampled_ops = HammerOpsPerSec(registry);
    collector.Stop();
    std::printf("collector sampled %llu frames during the hammer run\n",
                static_cast<unsigned long long>(
                    collector.ring().total_frames()));
  }
  const double overhead_pct =
      base_ops > 0.0
          ? std::max(0.0, (base_ops - sampled_ops) / base_ops * 100.0)
          : 0.0;
  std::printf("update path: %.0f ops/s bare, %.0f ops/s sampled -> "
              "%.2f%% overhead\n",
              base_ops, sampled_ops, overhead_pct);

  // --- wire scrape throughput against a live stack -------------------------
  vfl::obs::MetricsRegistry registry;
  vfl::core::Rng rng(13);
  vfl::la::Matrix weights(6, 3);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights.data()[i] = rng.Gaussian();
  }
  vfl::models::LogisticRegression lr;
  lr.SetParameters(std::move(weights), std::vector<double>(3, 0.0));
  vfl::la::Matrix x(64, 6);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Uniform();
  const vfl::fed::FeatureSplit split =
      vfl::fed::FeatureSplit::TailFraction(6, 0.5);
  const vfl::fed::VflScenario scenario =
      vfl::fed::MakeTwoPartyScenario(x, split, &lr);

  vfl::serve::PredictionServerConfig server_config;
  server_config.num_threads = 2;
  server_config.metrics = &registry;
  std::unique_ptr<vfl::serve::PredictionServer> backend =
      vfl::serve::MakeScenarioServer(scenario, server_config);

  vfl::obs::TimeseriesCollectorOptions collect;
  collect.period = std::chrono::milliseconds(5);
  collect.ring_capacity = 256;
  collect.registry = &registry;
  vfl::obs::TimeseriesCollector collector(collect);
  if (const auto s = collector.Start(); !s.ok()) Die(s, "collector start");

  vfl::net::NetServerConfig net_config;
  net_config.metrics = &registry;
  net_config.timeseries = &collector.ring();
  vfl::net::NetServer server(backend.get(), net_config);
  if (const auto s = server.Start(); !s.ok()) Die(s, "server start");

  constexpr std::size_t kScrapes = 400;
  // Bound each response: the full 256-frame ring times a registry of
  // histograms would dominate the measurement with payload bytes.
  constexpr std::uint32_t kFramesPerScrape = 16;
  const Clock::time_point start = Clock::now();
  std::size_t frames_seen = 0;
  for (std::size_t i = 0; i < kScrapes; ++i) {
    const auto frames =
        vfl::net::ScrapeTimeseries(server.port(), kFramesPerScrape);
    if (!frames.ok()) Die(frames.status(), "scrape");
    frames_seen += frames->size();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double scrape_qps = static_cast<double>(kScrapes) / elapsed;
  std::printf("scrape: %zu kGetTimeseries round trips in %.2fs -> %.0f "
              "scrapes/s (%zu frames returned)\n",
              kScrapes, elapsed, scrape_qps, frames_seen);
  server.Stop();
  collector.Stop();

  vfl::exp::BenchJsonSink perf;
  perf.Record("ts_collector_overhead_pct", overhead_pct, "pct");
  perf.Record("ts_scrape_qps", scrape_qps, "qps");
  const vfl::core::Status flushed = perf.Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "BENCH_perf.json flush failed: %s\n",
                 flushed.ToString().c_str());
    return 1;
  }
  std::printf("recorded ts_collector_overhead_pct + ts_scrape_qps -> %s\n",
              perf.path().c_str());
  return scrape_qps > 0.0 ? 0 : 1;
}
