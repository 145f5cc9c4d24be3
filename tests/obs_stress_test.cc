// Observability concurrency stress: hammers the lock-free instrument paths
// from many threads while readers snapshot continuously — the QueryAuditor's
// contention-free CountersSnapshot() against concurrent Admit/RecordServed
// traffic, registry Snapshot() against live counter writers, and a shared
// LatencyHistogram under record+snapshot races. Run under TSan/ASan in CI;
// the assertions pin exactness once writers quiesce.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "serve/query_auditor.h"

namespace vfl {
namespace {

TEST(ObsStressTest, AuditorCountersSnapshotNeverBlocksAdmission) {
  serve::QueryAuditorConfig config;
  config.default_query_budget = 0;  // unlimited: every Admit succeeds
  config.max_audit_events = 64;     // tiny ring: force constant eviction
  config.metrics = nullptr;         // global registry; counters still exact
  serve::QueryAuditor auditor(config);

  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kOpsPerWriter = 20000;
  std::vector<std::uint64_t> client_ids;
  client_ids.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    std::string name = "w";
    name += std::to_string(w);
    client_ids.push_back(auditor.RegisterClient(name));
  }

  std::atomic<bool> stop{false};
  // Reader thread: scrape the counters as fast as possible while admission
  // traffic is in full flight. Totals must only ever move forward.
  std::thread reader([&auditor, &stop] {
    std::uint64_t last_admitted = 0, last_served = 0, last_dropped = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const serve::AuditorCounters counters = auditor.CountersSnapshot();
      EXPECT_GE(counters.admitted, last_admitted);
      EXPECT_GE(counters.served, last_served);
      EXPECT_GE(counters.dropped_events, last_dropped);
      EXPECT_EQ(counters.denied, 0u);
      last_admitted = counters.admitted;
      last_served = counters.served;
      last_dropped = counters.dropped_events;
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&auditor, id = client_ids[w]] {
      for (std::uint64_t i = 0; i < kOpsPerWriter; ++i) {
        ASSERT_TRUE(auditor.Admit(id, 2).ok());
        auditor.RecordServed(id, 2);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Writers quiesced: the lock-free totals are exact and agree with the
  // mutex-guarded per-client records.
  const serve::AuditorCounters counters = auditor.CountersSnapshot();
  EXPECT_EQ(counters.admitted, kWriters * kOpsPerWriter * 2);
  EXPECT_EQ(counters.served, kWriters * kOpsPerWriter * 2);
  EXPECT_EQ(counters.denied, 0u);
  std::uint64_t per_client_admitted = 0;
  for (const serve::ClientAuditRecord& record : auditor.AuditLog()) {
    per_client_admitted += record.admitted;
  }
  EXPECT_EQ(per_client_admitted, counters.admitted);
  // 2 events per op (admit+serve logged per call) through a 64-slot ring:
  // nearly all were evicted, and every eviction was counted.
  EXPECT_GT(auditor.dropped_events(), 0u);
  EXPECT_LE(auditor.RecentEvents().size(), config.max_audit_events);
}

TEST(ObsStressTest, DeniedTrafficCountsUnderConcurrency) {
  serve::QueryAuditorConfig config;
  config.default_query_budget = 100;
  config.max_audit_events = 0;  // event logging off; aggregates remain
  serve::QueryAuditor auditor(config);
  const std::uint64_t id = auditor.RegisterClient("flood");

  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&auditor, id] {
      for (int i = 0; i < 1000; ++i) {
        if (auditor.Admit(id, 1).ok()) auditor.RecordServed(id, 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const serve::AuditorCounters counters = auditor.CountersSnapshot();
  EXPECT_EQ(counters.admitted, 100u);
  EXPECT_EQ(counters.served, 100u);
  EXPECT_EQ(counters.denied, kThreads * 1000 - 100);
  EXPECT_EQ(counters.dropped_events, 0u);
}

TEST(ObsStressTest, RegistrySnapshotRacesWithCounterWriters) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("stress.count", "ops");
  obs::LatencyHistogram* hist = registry.GetHistogram("stress.lat", "ns");

  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kOpsPerWriter = 50000;
  std::atomic<bool> stop{false};
  std::thread reader([&registry, &stop] {
    std::int64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snapshot = registry.Snapshot();
      const std::int64_t value = snapshot.ValueOf("stress.count");
      EXPECT_GE(value, last);
      last = value;
      const obs::HistogramSnapshot lat = snapshot.HistogramOf("stress.lat");
      std::uint64_t total = 0;
      for (const std::uint64_t b : lat.buckets) total += b;
      EXPECT_EQ(total, lat.count);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([counter, hist] {
      for (std::uint64_t i = 0; i < kOpsPerWriter; ++i) {
        counter->Add(1);
        hist->Record(i & 0xffff);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(registry.Snapshot().ValueOf("stress.count"),
            static_cast<std::int64_t>(kWriters * kOpsPerWriter));
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(hist->Snapshot().count, kWriters * kOpsPerWriter);
  }
}

}  // namespace
}  // namespace vfl
