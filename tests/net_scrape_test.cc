// End-to-end observability integration: a NetServer wired to a private
// MetricsRegistry and a capturing trace sink serves a scripted workload —
// one hello, K well-formed predicts, one budget denial, J garbage frames —
// and a kGetStats wire scrape must return counters that match the script
// EXACTLY (accounting for the scrape's own frame in net.frames_in). Also
// pins the layered counters (serve.*, auditor), per-request trace lines, and
// that the scraped snapshot equals the server registry's own, point for
// point.
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "models/logistic_regression.h"
#include "net/channel.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server_channel.h"

namespace vfl::net {
namespace {

using core::StatusCode;

constexpr std::size_t kPredicts = 5;       // well-formed predict round trips
constexpr std::size_t kGarbageFrames = 3;  // framed garbage, one per conn
constexpr std::size_t kIdsPerPredict = 3;

/// Reads the unsigned integer that follows `key` in a JSON span line.
std::uint64_t FieldOf(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  return at == std::string::npos ? 0
                                 : std::stoull(line.substr(at + key.size()));
}

/// Stage name -> nanoseconds, from a span line's "stages_ns" object.
std::map<std::string, std::uint64_t> StagesOf(const std::string& line) {
  const std::string key = "\"stages_ns\":{";
  std::map<std::string, std::uint64_t> stages;
  std::size_t at = line.find(key);
  if (at == std::string::npos) return stages;
  at += key.size();
  const std::size_t close = line.find('}', at);
  while (at < close) {
    const std::size_t colon = line.find(':', at);
    const std::size_t end = line.find_first_of(",}", colon);
    stages[line.substr(at + 1, colon - at - 2)] =
        std::stoull(line.substr(colon + 1, end - colon - 1));
    at = end + 1;
  }
  return stages;
}

class NetScrapeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Rng rng(5);
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
    config.max_batch_size = 8;
    config.cache_capacity = 0;  // every reveal goes through the model path
    // Budget covers exactly the scripted predicts; the denial request is
    // rejected all-or-nothing.
    config.auditor.default_query_budget = kPredicts * kIdsPerPredict;
    config.metrics = &registry_;
    backend_ = serve::MakeScenarioServer(scenario_, config);

    NetServerConfig net_config;
    net_config.metrics = &registry_;
    net_config.trace_sink = &trace_;
    server_ = std::make_unique<NetServer>(backend_.get(), net_config);
    const core::Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  Socket Connect() {
    core::StatusOr<Socket> conn = ConnectLoopback(server_->port());
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    return std::move(*conn);
  }

  std::uint64_t Handshake(Socket& conn) {
    HelloRequest hello;
    hello.request_id = 1;
    hello.client_name = "scripted";
    EXPECT_TRUE(conn.SendAll(EncodeHello(hello)).ok());
    auto frame = conn.RecvFrame(kDefaultMaxFrameBytes);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    auto message = DecodeFrame(frame->data(), frame->size());
    EXPECT_TRUE(message.ok()) << message.status().ToString();
    const auto* ok = std::get_if<HelloResponse>(&*message);
    EXPECT_NE(ok, nullptr);
    return ok == nullptr ? 0 : ok->client_id;
  }

  /// One predict round trip; expects scores on success, a status frame with
  /// `expect_code` otherwise.
  void Predict(Socket& conn, std::uint64_t client_id, std::uint64_t req_id,
               StatusCode expect_code = StatusCode::kOk) {
    PredictRequest request;
    request.request_id = req_id;
    request.client_id = client_id;
    for (std::size_t i = 0; i < kIdsPerPredict; ++i) {
      request.sample_ids.push_back((req_id + i) % 20);
    }
    ASSERT_TRUE(conn.SendAll(EncodePredict(request)).ok());
    auto frame = conn.RecvFrame(kDefaultMaxFrameBytes);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    auto message = DecodeFrame(frame->data(), frame->size());
    ASSERT_TRUE(message.ok()) << message.status().ToString();
    if (expect_code == StatusCode::kOk) {
      const auto* scores = std::get_if<ScoresResponse>(&*message);
      ASSERT_NE(scores, nullptr);
      EXPECT_EQ(scores->scores.rows(), kIdsPerPredict);
    } else {
      const auto* failure = std::get_if<StatusResponse>(&*message);
      ASSERT_NE(failure, nullptr);
      EXPECT_EQ(failure->status.code(), expect_code);
    }
  }

  /// A handler records a request's latency after writing its response, so a
  /// descheduled handler can lag its client. Waits in process (adding no
  /// wire traffic) until `histogram` holds `count` samples, or 5 s pass.
  void AwaitLatencySamples(const char* histogram, std::uint64_t count) {
    if (!obs::kMetricsEnabled) return;
    for (int waited_ms = 0; waited_ms < 5000; ++waited_ms) {
      if (registry_.Snapshot().HistogramOf(histogram).count >= count) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Sends one framed garbage payload (valid length prefix, bytes that fail
  /// decode) and waits for the typed rejection, so its counters are
  /// committed before the test scrapes.
  void SendGarbageFrame() {
    Socket conn = Connect();
    std::string garbage;
    garbage.push_back(32);
    garbage.append(3, '\0');
    garbage.append(32, '\x5a');
    ASSERT_TRUE(conn.SendAll(garbage).ok());
    auto frame = conn.RecvFrame(kDefaultMaxFrameBytes);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    auto message = DecodeFrame(frame->data(), frame->size());
    ASSERT_TRUE(message.ok()) << message.status().ToString();
    const auto* rejection = std::get_if<StatusResponse>(&*message);
    ASSERT_NE(rejection, nullptr);
    EXPECT_EQ(rejection->status.code(), StatusCode::kInvalidArgument);
  }

  obs::MetricsRegistry registry_;
  obs::CapturingTraceSink trace_;
  models::LogisticRegression lr_;
  fed::FeatureSplit split_;
  fed::VflScenario scenario_;
  std::unique_ptr<serve::PredictionServer> backend_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(NetScrapeTest, ScrapedCountersMatchScriptedWorkloadExactly) {
  Socket conn = Connect();
  const std::uint64_t client_id = Handshake(conn);
  for (std::size_t k = 0; k < kPredicts; ++k) {
    Predict(conn, client_id, 2 + k);
  }
  // Budget exhausted: the next predict is denied in full.
  Predict(conn, client_id, 100, StatusCode::kResourceExhausted);
  for (std::size_t j = 0; j < kGarbageFrames; ++j) SendGarbageFrame();
  AwaitLatencySamples("net.hello_ns", 1);
  AwaitLatencySamples("net.predict_ns", kPredicts + 1);

  const core::StatusOr<obs::MetricsSnapshot> scraped =
      ScrapeStats(server_->port());
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();

  // Wire-layer counters, exact per the script. The scrape's own connection
  // and request frame were accepted/read before the snapshot, so they count
  // in connections_accepted and frames_in — but the scrape's response, its
  // latency sample, and its frame_out postdate the snapshot.
  EXPECT_EQ(scraped->ValueOf("net.connections_accepted"),
            static_cast<std::int64_t>(1 + kGarbageFrames + 1));
  EXPECT_EQ(scraped->ValueOf("net.requests_served"),
            static_cast<std::int64_t>(kPredicts));
  EXPECT_EQ(scraped->ValueOf("net.requests_failed"), 1);
  EXPECT_EQ(scraped->ValueOf("net.decode_rejects"),
            static_cast<std::int64_t>(kGarbageFrames));
  EXPECT_EQ(scraped->ValueOf("net.protocol_errors"),
            static_cast<std::int64_t>(kGarbageFrames));
  EXPECT_EQ(scraped->ValueOf("net.frames_in"),
            static_cast<std::int64_t>(1 + kPredicts + 1 + kGarbageFrames + 1));
  EXPECT_EQ(scraped->ValueOf("net.frames_out"),
            static_cast<std::int64_t>(1 + kPredicts + 1 + kGarbageFrames));

  // Latency histograms: one hello, kPredicts + 1 denied predict; the stats
  // request itself records after the snapshot.
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(scraped->HistogramOf("net.hello_ns").count, 1u);
    EXPECT_EQ(scraped->HistogramOf("net.predict_ns").count, kPredicts + 1);
    EXPECT_EQ(scraped->HistogramOf("net.stats_ns").count, 0u);
  }

  // Serving layer (same registry): revealed rows and auditor verdicts.
  EXPECT_EQ(scraped->ValueOf("serve.predictions_served"),
            static_cast<std::int64_t>(kPredicts * kIdsPerPredict));
  EXPECT_EQ(scraped->ValueOf("serve.auditor.admitted"),
            static_cast<std::int64_t>(kPredicts * kIdsPerPredict));
  EXPECT_EQ(scraped->ValueOf("serve.auditor.served"),
            static_cast<std::int64_t>(kPredicts * kIdsPerPredict));
  EXPECT_EQ(scraped->ValueOf("serve.auditor.denied"),
            static_cast<std::int64_t>(kIdsPerPredict));
  // The denial flagged the client (budget detector), and every served
  // prediction sampled the sliding-window rate statistic — the detection
  // instruments flow through the same wire scrape.
  EXPECT_EQ(scraped->ValueOf("serve.auditor.flagged_clients"), 1);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(scraped->HistogramOf("serve.auditor.window_rate").count,
              kPredicts * kIdsPerPredict);
  }

  // The wire snapshot agrees with the in-process stats() view — one
  // counting path, two read paths.
  const NetServerStats direct = server_->stats();
  EXPECT_EQ(scraped->ValueOf("net.requests_served"),
            static_cast<std::int64_t>(direct.requests_served));
  EXPECT_EQ(scraped->ValueOf("net.decode_rejects"),
            static_cast<std::int64_t>(direct.decode_rejects));

  // Traces: one span per request that carried a request id. Stop() joins the
  // handlers first so every span has flushed.
  server_->Stop();
  std::size_t hello_lines = 0, predict_lines = 0, stats_lines = 0;
  for (const std::string& line : trace_.lines()) {
    if (line.find("\"kind\":\"hello\"") != std::string::npos) ++hello_lines;
    if (line.find("\"kind\":\"predict\"") != std::string::npos) {
      ++predict_lines;
    }
    if (line.find("\"kind\":\"get_stats\"") != std::string::npos) {
      ++stats_lines;
    }
  }
  EXPECT_EQ(hello_lines, 1u);
  EXPECT_EQ(predict_lines, kPredicts + 1);
  EXPECT_EQ(stats_lines, 1u);
}

TEST_F(NetScrapeTest, PredictSpanExcludesClientIdleTime) {
  // The client idles between its hello and its predict. A request starts when
  // its length prefix arrives, so that think time is in neither the read
  // stage nor the span, and the stages never sum past total_ns.
  constexpr std::uint64_t kIdleNs = 30'000'000;
  Socket conn = Connect();
  const std::uint64_t client_id = Handshake(conn);
  std::this_thread::sleep_for(std::chrono::nanoseconds(kIdleNs));
  Predict(conn, client_id, 2);
  server_->Stop();  // joins the handlers, so every span has flushed

  std::string span;
  for (const std::string& line : trace_.lines()) {
    if (line.find("\"kind\":\"predict\"") != std::string::npos) span = line;
  }
  ASSERT_FALSE(span.empty());
  const std::map<std::string, std::uint64_t> stages = StagesOf(span);
  ASSERT_EQ(stages.count("read"), 1u) << span;
  EXPECT_LT(stages.at("read"), kIdleNs) << span;
  std::uint64_t staged = 0;
  for (const auto& [name, ns] : stages) staged += ns;
  EXPECT_LE(staged, FieldOf(span, "\"total_ns\":")) << span;
}

TEST_F(NetScrapeTest, ScrapeEqualsTheServerRegistrySnapshot) {
  Socket conn = Connect();
  const std::uint64_t client_id = Handshake(conn);
  for (std::size_t k = 0; k < kPredicts; ++k) {
    Predict(conn, client_id, 2 + k);
  }
  AwaitLatencySamples("net.hello_ns", 1);
  AwaitLatencySamples("net.predict_ns", kPredicts);

  const core::StatusOr<obs::MetricsSnapshot> scraped =
      ScrapeStats(server_->port());
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  AwaitLatencySamples("net.stats_ns", 1);
  const obs::MetricsSnapshot local = registry_.Snapshot();

  // The server snapshots before answering, so the scrape's own response
  // frame and latency sample are the only difference.
  ASSERT_EQ(scraped->points.size(), local.points.size());
  for (std::size_t i = 0; i < local.points.size(); ++i) {
    const obs::MetricPoint& got = scraped->points[i];
    const obs::MetricPoint& want = local.points[i];
    ASSERT_EQ(got.name, want.name);
    EXPECT_EQ(got.type, want.type) << want.name;
    if (want.name == "net.frames_out") {
      EXPECT_EQ(got.value + 1, want.value);
      continue;
    }
    if (want.name == "net.stats_ns") {
      EXPECT_EQ(got.hist.count, 0u);
      EXPECT_EQ(want.hist.count, obs::kMetricsEnabled ? 1u : 0u);
      continue;
    }
    EXPECT_EQ(got.value, want.value) << want.name;
    EXPECT_EQ(got.hist.count, want.hist.count) << want.name;
    EXPECT_EQ(got.hist.sum, want.hist.sum) << want.name;
    EXPECT_EQ(got.hist.buckets, want.hist.buckets) << want.name;
  }
}

TEST_F(NetScrapeTest, FailedTimeseriesReplyRecordsItsWriteStage) {
  // The fixture wires no collector, so kGetTimeseries is answered with
  // kFailedPrecondition. That reply is written like any other: its span has
  // a write stage, and the stages never sum past total_ns.
  Socket conn = Connect();
  GetTimeseriesRequest request;
  request.request_id = 9;
  ASSERT_TRUE(conn.SendAll(EncodeGetTimeseries(request)).ok());
  auto frame = conn.RecvFrame(kDefaultMaxFrameBytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto message = DecodeFrame(frame->data(), frame->size());
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  const auto* failure = std::get_if<StatusResponse>(&*message);
  ASSERT_NE(failure, nullptr);
  EXPECT_EQ(failure->status.code(), StatusCode::kFailedPrecondition);
  server_->Stop();  // joins the handlers, so every span has flushed

  std::string span;
  for (const std::string& line : trace_.lines()) {
    if (line.find("\"kind\":\"get_timeseries\"") != std::string::npos) {
      span = line;
    }
  }
  ASSERT_FALSE(span.empty());
  const std::map<std::string, std::uint64_t> stages = StagesOf(span);
  EXPECT_EQ(stages.count("write"), 1u) << span;
  std::uint64_t staged = 0;
  for (const auto& [name, ns] : stages) staged += ns;
  EXPECT_LE(staged, FieldOf(span, "\"total_ns\":")) << span;
}

TEST_F(NetScrapeTest, ScrapeOfIdleServerDecodesAndIsStable) {
  const core::StatusOr<obs::MetricsSnapshot> first =
      ScrapeStats(server_->port());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->ValueOf("net.requests_served"), 0);
  // The first scrape's own traffic is visible to the second scrape.
  AwaitLatencySamples("net.stats_ns", 1);
  const core::StatusOr<obs::MetricsSnapshot> second =
      ScrapeStats(server_->port());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->ValueOf("net.frames_in"),
            first->ValueOf("net.frames_in") + 1);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(second->HistogramOf("net.stats_ns").count, 1u);
  }
}

TEST_F(NetScrapeTest, MetricsOffBuildStillCountsEverything) {
  // Counters and gauges stay live in VFLFIA_METRICS=OFF builds (only
  // histograms/timings compile out), so this assertion holds in BOTH build
  // modes — which is exactly the point.
  Socket conn = Connect();
  const std::uint64_t client_id = Handshake(conn);
  Predict(conn, client_id, 2);
  const core::StatusOr<obs::MetricsSnapshot> scraped =
      ScrapeStats(server_->port());
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  EXPECT_EQ(scraped->ValueOf("net.requests_served"), 1);
  EXPECT_EQ(scraped->ValueOf("serve.predictions_served"),
            static_cast<std::int64_t>(kIdsPerPredict));
}

}  // namespace
}  // namespace vfl::net
