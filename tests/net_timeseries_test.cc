// kGetTimeseries end to end: a live stack (collector ring -> NetServer ->
// ScrapeTimeseries) must hand the scraper frames bit-identical to the
// server's retained ring, honor max_frames (newest N, oldest first), answer
// kFailedPrecondition when no ring is wired, and surface a hung server as a
// typed kDeadlineExceeded instead of blocking forever.
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "models/logistic_regression.h"
#include "net/channel.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "serve/server_channel.h"

namespace vfl::net {
namespace {

using core::StatusCode;

class NetTimeseriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Rng rng(17);
    la::Matrix weights(6, 3);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      weights.data()[i] = rng.Gaussian();
    }
    lr_.SetParameters(std::move(weights), std::vector<double>(3, 0.0));
    la::Matrix x(20, 6);
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Uniform();
    split_ = fed::FeatureSplit::TailFraction(6, 0.5);
    scenario_ = fed::MakeTwoPartyScenario(x, split_, &lr_);

    serve::PredictionServerConfig config;
    config.num_threads = 2;
    config.metrics = &registry_;
    backend_ = serve::MakeScenarioServer(scenario_, config);

    obs::TimeseriesCollectorOptions collect;
    collect.ring_capacity = 64;
    collect.registry = &registry_;
    collector_ = std::make_unique<obs::TimeseriesCollector>(collect);

    NetServerConfig net_config;
    net_config.metrics = &registry_;
    net_config.timeseries = &collector_->ring();
    server_ = std::make_unique<NetServer>(backend_.get(), net_config);
    const core::Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  /// Deterministic frames: manual samples at scripted instants (the
  /// background sampler stays off so the ring holds exactly these).
  void SampleFrames(std::size_t count) {
    obs::Counter* requests =
        registry_.GetCounter("test.requests", "requests");
    for (std::size_t i = 1; i <= count; ++i) {
      requests->Add(static_cast<std::int64_t>(i) * 3);
      collector_->SampleAt(i * 1'000'000'000ull);
    }
  }

  obs::MetricsRegistry registry_;
  models::LogisticRegression lr_;
  fed::FeatureSplit split_;
  fed::VflScenario scenario_;
  std::unique_ptr<serve::PredictionServer> backend_;
  std::unique_ptr<obs::TimeseriesCollector> collector_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(NetTimeseriesTest, ScrapeReturnsRingBitIdentical) {
  SampleFrames(5);
  const auto scraped = ScrapeTimeseries(server_->port());
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  const std::vector<obs::TimeseriesFrame> ring = collector_->ring().Frames();
  ASSERT_EQ(scraped->size(), ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ((*scraped)[i], ring[i]) << "frame " << i;
    EXPECT_EQ(obs::EncodeTimeseriesFrame((*scraped)[i]),
              obs::EncodeTimeseriesFrame(ring[i]))
        << "frame " << i;
  }
}

TEST_F(NetTimeseriesTest, MaxFramesReturnsNewestOldestFirst) {
  SampleFrames(6);
  const auto scraped = ScrapeTimeseries(server_->port(), 2);
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  ASSERT_EQ(scraped->size(), 2u);
  EXPECT_EQ((*scraped)[0].seq, 5u);
  EXPECT_EQ((*scraped)[1].seq, 6u);

  // Asking for more than retained returns everything, capped.
  const auto all = ScrapeTimeseries(server_->port(), 100);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 6u);
}

TEST_F(NetTimeseriesTest, EmptyRingScrapesToZeroFrames) {
  const auto scraped = ScrapeTimeseries(server_->port());
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  EXPECT_TRUE(scraped->empty());
}

TEST_F(NetTimeseriesTest, ServerWithoutRingAnswersFailedPrecondition) {
  NetServerConfig bare_config;
  bare_config.metrics = &registry_;  // stats wired, timeseries NOT
  NetServer bare(backend_.get(), bare_config);
  ASSERT_TRUE(bare.Start().ok());
  const auto scraped = ScrapeTimeseries(bare.port());
  ASSERT_FALSE(scraped.ok());
  EXPECT_EQ(scraped.status().code(), StatusCode::kFailedPrecondition);
}

TEST(NetTimeseriesTimeoutTest, HungServerSurfacesDeadlineExceeded) {
  // A listener that accepts connections and then never reads nor writes.
  auto listener = Listener::BindLoopback(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const std::uint16_t port = listener->port();
  std::thread hang([&listener] {
    auto conn = listener->Accept();
    if (!conn.ok()) return;
    // Hold the socket open, answering nothing, until the listener closes.
    (void)listener->Accept();
  });

  ScrapeOptions options;
  options.timeout = std::chrono::milliseconds(100);
  const auto scraped = ScrapeTimeseries(port, 0, options);
  ASSERT_FALSE(scraped.ok());
  EXPECT_EQ(scraped.status().code(), StatusCode::kDeadlineExceeded);

  listener->Shutdown();
  hang.join();
}

}  // namespace
}  // namespace vfl::net
