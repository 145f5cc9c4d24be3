// NetServer wire-robustness coverage driven over raw sockets: garbage,
// truncated, and oversized frames must produce a typed status frame (or a
// clean close) and never wedge or crash the server — and the server must
// keep serving well-formed clients afterwards.
#include "net/server.h"

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "models/logistic_regression.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/server_channel.h"

namespace vfl::net {
namespace {

using core::StatusCode;

class NetServerTest : public ::testing::Test {
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
    backend_ = serve::MakeScenarioServer(scenario_, config);
    server_ = std::make_unique<NetServer>(backend_.get());
    const core::Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  Socket Connect() {
    core::StatusOr<Socket> conn = ConnectLoopback(server_->port());
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    return std::move(*conn);
  }

  /// Hello handshake on `conn`; returns the assigned client id.
  std::uint64_t Handshake(Socket& conn) {
    HelloRequest hello;
    hello.request_id = 1;
    hello.client_name = "test";
    EXPECT_TRUE(conn.SendAll(EncodeHello(hello)).ok());
    auto frame = conn.RecvFrame(kDefaultMaxFrameBytes);
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    auto message = DecodeFrame(frame->data(), frame->size());
    EXPECT_TRUE(message.ok()) << message.status().ToString();
    const auto* ok = std::get_if<HelloResponse>(&*message);
    EXPECT_NE(ok, nullptr);
    return ok == nullptr ? 0 : ok->client_id;
  }

  /// One well-formed predict round trip must succeed — the liveness probe
  /// after each abuse scenario.
  void ExpectServerStillServes() {
    Socket conn = Connect();
    const std::uint64_t client_id = Handshake(conn);
    PredictRequest request;
    request.request_id = 2;
    request.client_id = client_id;
    request.sample_ids = {0, 1, 2};
    ASSERT_TRUE(conn.SendAll(EncodePredict(request)).ok());
    auto frame = conn.RecvFrame(kDefaultMaxFrameBytes);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    auto message = DecodeFrame(frame->data(), frame->size());
    ASSERT_TRUE(message.ok()) << message.status().ToString();
    const auto* scores = std::get_if<ScoresResponse>(&*message);
    ASSERT_NE(scores, nullptr);
    EXPECT_EQ(scores->scores.rows(), 3u);
    EXPECT_EQ(scores->scores.cols(), 3u);
  }

  models::LogisticRegression lr_;
  fed::FeatureSplit split_;
  fed::VflScenario scenario_;
  std::unique_ptr<serve::PredictionServer> backend_;
  std::unique_ptr<NetServer> server_;
};

TEST_F(NetServerTest, GarbageFrameGetsTypedRejectionThenClose) {
  Socket conn = Connect();
  // A length prefix promising 64 payload bytes of pure garbage.
  std::string garbage;
  garbage.push_back(64);
  garbage.append(3, '\0');
  garbage.append(64, '\x5a');
  ASSERT_TRUE(conn.SendAll(garbage).ok());

  auto frame = conn.RecvFrame(kDefaultMaxFrameBytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto message = DecodeFrame(frame->data(), frame->size());
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  const auto* rejection = std::get_if<StatusResponse>(&*message);
  ASSERT_NE(rejection, nullptr);
  EXPECT_EQ(rejection->status.code(), StatusCode::kInvalidArgument);

  // The server hung up on the garbage connection...
  std::uint8_t byte = 0;
  EXPECT_FALSE(conn.RecvAll(&byte, 1).ok());
  // ...but keeps serving everyone else.
  ExpectServerStillServes();
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(NetServerTest, OversizedFrameIsRejectedWithoutAllocation) {
  Socket conn = Connect();
  // Length prefix far past the ceiling: 0xffffffff.
  const std::string prefix(4, '\xff');
  ASSERT_TRUE(conn.SendAll(prefix).ok());
  auto frame = conn.RecvFrame(kDefaultMaxFrameBytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto message = DecodeFrame(frame->data(), frame->size());
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  const auto* rejection = std::get_if<StatusResponse>(&*message);
  ASSERT_NE(rejection, nullptr);
  EXPECT_EQ(rejection->status.code(), StatusCode::kOutOfRange);
  ExpectServerStillServes();
}

TEST_F(NetServerTest, UndersizedFrameIsRejected) {
  Socket conn = Connect();
  // Length prefix shorter than the fixed payload header (3 bytes).
  std::string tiny;
  tiny.push_back(3);
  tiny.append(3, '\0');
  tiny.append(3, 'x');
  ASSERT_TRUE(conn.SendAll(tiny).ok());
  auto frame = conn.RecvFrame(kDefaultMaxFrameBytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto message = DecodeFrame(frame->data(), frame->size());
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  const auto* rejection = std::get_if<StatusResponse>(&*message);
  ASSERT_NE(rejection, nullptr);
  EXPECT_EQ(rejection->status.code(), StatusCode::kInvalidArgument);
  ExpectServerStillServes();
}

TEST_F(NetServerTest, MidFrameDisconnectLeavesServerHealthy) {
  {
    Socket conn = Connect();
    // Promise 1000 bytes, send 10, vanish.
    std::string partial;
    partial.push_back(static_cast<char>(1000 & 0xff));
    partial.push_back(static_cast<char>(1000 >> 8));
    partial.append(2, '\0');
    partial.append(10, 'q');
    ASSERT_TRUE(conn.SendAll(partial).ok());
  }  // destructor closes mid-frame
  ExpectServerStillServes();
}

TEST_F(NetServerTest, UnknownClientIdIsNotFoundOverTheWire) {
  Socket conn = Connect();
  PredictRequest request;
  request.request_id = 5;
  request.client_id = 424242;  // never registered
  request.sample_ids = {0};
  ASSERT_TRUE(conn.SendAll(EncodePredict(request)).ok());
  auto frame = conn.RecvFrame(kDefaultMaxFrameBytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto message = DecodeFrame(frame->data(), frame->size());
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  const auto* rejection = std::get_if<StatusResponse>(&*message);
  ASSERT_NE(rejection, nullptr);
  EXPECT_EQ(rejection->status.code(), StatusCode::kNotFound);
  EXPECT_EQ(rejection->request_id, 5u);
  // A typed backend failure is NOT a protocol error: the connection lives.
  ExpectServerStillServes();
  PredictRequest retry = request;
  retry.request_id = 6;
  ASSERT_TRUE(conn.SendAll(EncodePredict(retry)).ok());
  auto second = conn.RecvFrame(kDefaultMaxFrameBytes);
  EXPECT_TRUE(second.ok()) << second.status().ToString();
}

TEST_F(NetServerTest, RandomGarbageFloodNeverWedgesTheServer) {
  core::Rng rng(777);
  for (int round = 0; round < 20; ++round) {
    Socket conn = Connect();
    const std::size_t size = 1 + rng.UniformInt(128);
    std::string junk(size, '\0');
    for (char& b : junk) b = static_cast<char>(rng.UniformInt(256));
    // Whatever these bytes parse as — partial prefix, bogus frame — the
    // server must stay up. Some writes may fail once the server hangs up;
    // that is fine.
    (void)conn.SendAll(junk);
  }
  ExpectServerStillServes();
}

TEST_F(NetServerTest, StopUnblocksLiveConnections) {
  Socket conn = Connect();
  const std::uint64_t client_id = Handshake(conn);
  (void)client_id;
  server_->Stop();
  // The severed connection reads EOF instead of blocking forever.
  std::uint8_t byte = 0;
  EXPECT_FALSE(conn.RecvAll(&byte, 1).ok());
  EXPECT_FALSE(server_->running());
}

}  // namespace
}  // namespace vfl::net
