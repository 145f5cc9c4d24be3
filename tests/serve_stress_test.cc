// Multi-thread stress: many concurrent clients hammer the server with
// overlapping sample ids; every revealed vector must be bit-identical to the
// sequential reference, and the audit totals must balance exactly.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "models/mlp.h"
#include "serve/prediction_server.h"
#include "serve/server_channel.h"

namespace vfl::serve {
namespace {

class ServeStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::ClassificationSpec spec;
    spec.num_samples = 200;
    spec.num_features = 10;
    spec.num_classes = 3;
    spec.num_informative = 6;
    spec.num_redundant = 2;
    spec.seed = 123;
    dataset_ = data::MakeClassification(spec);
    models::MlpConfig config;
    config.hidden_sizes = {16, 8};
    config.train.epochs = 3;
    mlp_.Fit(dataset_, config);
    split_ = fed::FeatureSplit::TailFraction(10, 0.3);
    scenario_ = fed::MakeTwoPartyScenario(dataset_.x, split_, &mlp_);
    reference_ = scenario_.service->PredictAll();
  }

  data::Dataset dataset_;
  models::MlpClassifier mlp_;
  fed::FeatureSplit split_;
  fed::VflScenario scenario_;
  la::Matrix reference_;
};

TEST_F(ServeStressTest, ConcurrentClientsGetDeterministicBitIdenticalResults) {
  PredictionServerConfig config;
  config.num_threads = 8;
  config.max_batch_size = 16;
  config.cache_capacity = 128;  // smaller than the sample count: forces
                                // eviction churn under load
  std::unique_ptr<PredictionServer> server =
      MakeScenarioServer(scenario_, config);

  constexpr std::size_t kClients = 16;
  constexpr std::size_t kQueriesPerClient = 300;
  // Each client alternates a PredictBatch wave with one single Predict, so
  // multi-row requests split across workers and one-row requests interleave
  // with them in the queue.
  constexpr std::size_t kWave = 24;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    const std::uint64_t client_id =
        server->RegisterClient("stress-" + std::to_string(c));
    threads.emplace_back([&, client_id, c] {
      // Deterministic per-client id stream covering the sample range with
      // heavy overlap between clients (cache churn + duplicate in-flight
      // requests).
      const auto id_of = [&](std::size_t q) {
        return (c * 37 + q * 13) % dataset_.num_samples();
      };
      std::size_t q = 0;
      while (q < kQueriesPerClient) {
        const std::size_t wave = std::min(kWave, kQueriesPerClient - q);
        std::vector<std::size_t> ids(wave);
        for (std::size_t i = 0; i < wave; ++i) ids[i] = id_of(q + i);
        const core::Result<la::Matrix> rows =
            server->PredictBatch(client_id, ids);
        for (std::size_t i = 0; i < wave; ++i) {
          if (!rows.ok() || rows->Row(i) != reference_.Row(ids[i])) {
            mismatches.fetch_add(1);
          }
        }
        q += wave;
        if (q == kQueriesPerClient) break;
        const core::Result<std::vector<double>> single =
            server->Predict(client_id, id_of(q));
        if (!single.ok() || *single != reference_.Row(id_of(q))) {
          mismatches.fetch_add(1);
        }
        ++q;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u);

  const PredictionServerStats stats = server->stats();
  EXPECT_EQ(stats.predictions_served, kClients * kQueriesPerClient);
  // The cache absorbed part of the load; everything else ran in batches.
  EXPECT_EQ(stats.cache_hits + stats.model_rows,
            kClients * kQueriesPerClient);

  // Audit totals balance: every client saw exactly its own volume.
  std::uint64_t audited = 0;
  for (const ClientAuditRecord& record : server->auditor().AuditLog()) {
    EXPECT_EQ(record.served, kQueriesPerClient);
    audited += record.served;
  }
  EXPECT_EQ(audited, kClients * kQueriesPerClient);
}

}  // namespace
}  // namespace vfl::serve
