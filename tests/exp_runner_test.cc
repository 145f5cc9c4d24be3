#include "exp/runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "exp/config_map.h"
#include "exp/experiment.h"
#include "exp/result_sink.h"

namespace vfl::exp {
namespace {

using core::StatusCode;

/// Smoke-scale workload: seconds, not minutes.
ScaleConfig SmokeScale() {
  ScaleConfig scale;
  scale.dataset_samples = 400;
  scale.prediction_samples = 100;
  scale.trials = 2;
  scale.lr_epochs = 10;
  return scale;
}

TEST(ExperimentSpecBuilderTest, FillsDefaultFractionSweep) {
  const auto spec =
      ExperimentSpecBuilder("t").Dataset("bank").Attack("esa").Build();
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->target_fractions, DefaultTargetFractions());
}

TEST(ExperimentSpecBuilderTest, RejectsMissingAttacks) {
  const auto spec = ExperimentSpecBuilder("t").Dataset("bank").Build();
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExperimentSpecBuilderTest, RejectsOutOfRangeFraction) {
  const auto spec = ExperimentSpecBuilder("t")
                        .Dataset("bank")
                        .Attack("esa")
                        .TargetFraction(1.5)
                        .Build();
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kOutOfRange);
}

TEST(ExperimentRunnerTest, UnknownDatasetIsNotFound) {
  const auto spec = ExperimentSpecBuilder("t")
                        .Dataset("atlantis")
                        .Attack("esa")
                        .TargetFraction(0.3)
                        .Build();
  ASSERT_TRUE(spec.ok());
  ExperimentRunner runner(SmokeScale());
  NullSink sink;
  EXPECT_EQ(runner.Run(*spec, sink).code(), StatusCode::kNotFound);
}

TEST(ExperimentRunnerTest, UnknownAttackKindIsNotFound) {
  const auto spec = ExperimentSpecBuilder("t")
                        .Dataset("bank")
                        .Attack("quantum_attack")
                        .TargetFraction(0.3)
                        .Build();
  ASSERT_TRUE(spec.ok());
  ExperimentRunner runner(SmokeScale());
  NullSink sink;
  EXPECT_EQ(runner.Run(*spec, sink).code(), StatusCode::kNotFound);
}

TEST(ExperimentRunnerTest, IncompatibleAttackModelPairFails) {
  // ESA needs the LR weights; pairing it with a decision tree must surface
  // a clean FailedPrecondition, not a crash.
  const auto spec = ExperimentSpecBuilder("t")
                        .Dataset("bank")
                        .Model("dt")
                        .Attack("esa")
                        .TargetFraction(0.3)
                        .Trials(1)
                        .Build();
  ASSERT_TRUE(spec.ok());
  ExperimentRunner runner(SmokeScale());
  NullSink sink;
  const core::Status status = runner.Run(*spec, sink);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("esa"), std::string::npos);
}

TEST(ExperimentRunnerTest, TrainTimeDefenseOnWrongModelFails) {
  const auto spec = ExperimentSpecBuilder("t")
                        .Dataset("bank")
                        .Model("lr")
                        .Defense("dropout")
                        .Attack("random_uniform")
                        .TargetFraction(0.3)
                        .Trials(1)
                        .Build();
  ASSERT_TRUE(spec.ok());
  ExperimentRunner runner(SmokeScale());
  NullSink sink;
  const core::Status status = runner.Run(*spec, sink);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ExperimentRunnerTest, EndToEndEsaBeatsRandomGuess) {
  // The paper's core claim at smoke scale: on a many-class dataset the
  // equality solving attack reconstructs the target block far better than
  // uninformed guessing.
  const auto spec = ExperimentSpecBuilder("smoke")
                        .Dataset("drive")
                        .Model("lr")
                        .Attack("esa")
                        .Attack("random_uniform")
                        .TargetFraction(0.3)
                        .TrialsFromScale()
                        .Seed(42)
                        .SplitSeed(100)
                        .Build();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  CollectSink sink;
  ExperimentRunner runner(SmokeScale());
  const core::Status status = runner.Run(*spec, sink);
  ASSERT_TRUE(status.ok()) << status.ToString();

  ASSERT_EQ(sink.rows().size(), 2u);
  std::map<std::string, ResultRow> rows;
  for (const ResultRow& row : sink.rows()) rows[row.method] = row;
  ASSERT_TRUE(rows.count("ESA"));
  ASSERT_TRUE(rows.count("RG(Uniform)"));

  const ResultRow& esa = rows["ESA"];
  const ResultRow& rg = rows["RG(Uniform)"];
  EXPECT_EQ(esa.metric, "mse_per_feature");
  EXPECT_EQ(esa.trials, 2u);
  EXPECT_EQ(esa.experiment, "smoke");
  EXPECT_EQ(esa.dataset, "drive");
  EXPECT_EQ(esa.model, "lr");
  EXPECT_GE(esa.stddev, 0.0);
  EXPECT_GT(rg.mean, 0.0);
  EXPECT_LT(esa.mean, 0.5 * rg.mean)
      << "ESA (mse " << esa.mean << ") should beat random guess (mse "
      << rg.mean << ")";
}

TEST(ExperimentRunnerTest, ObservationHooksFire) {
  const auto spec = ExperimentSpecBuilder("hooks")
                        .Dataset("bank")
                        .Model("lr")
                        .Attack("random_uniform")
                        .TargetFraction(0.3)
                        .Trials(2)
                        .Build();
  ASSERT_TRUE(spec.ok());

  std::size_t trials_seen = 0, attacks_seen = 0, fractions_seen = 0;
  RunOptions options;
  options.on_trial = [&](const TrialObservation& trial) {
    ++trials_seen;
    EXPECT_NE(trial.view, nullptr);
    EXPECT_TRUE(trial.view_status.ok());
    EXPECT_EQ(trial.server, nullptr);  // synchronous path
  };
  options.on_attack = [&](const AttackObservation& attack) {
    ++attacks_seen;
    EXPECT_TRUE(attack.outcome->has_inferred);
    EXPECT_EQ(attack.label, "RG(Uniform)");
  };
  options.on_fraction = [&](const FractionSummary& summary) {
    ++fractions_seen;
    EXPECT_EQ(summary.dtarget_pct, 30);
    EXPECT_GT(summary.num_target_features, 0u);
  };

  NullSink sink;
  ExperimentRunner runner(SmokeScale());
  ASSERT_TRUE(runner.Run(*spec, sink, options).ok());
  EXPECT_EQ(trials_seen, 2u);
  EXPECT_EQ(attacks_seen, 2u);
  EXPECT_EQ(fractions_seen, 1u);
}

TEST(ExperimentRunnerTest, ServerChannelMatchesOfflineChannel) {
  // The concurrent server channel must reveal exactly the same bits as the
  // offline (precomputed) channel when no stateful defense is installed.
  auto build = [](const std::string& channel) {
    return ExperimentSpecBuilder("served")
        .Dataset("bank")
        .Model("lr")
        .Attack("random_uniform")
        .TargetFraction(0.3)
        .Trials(1)
        .Channel(channel)
        .Build();
  };
  const auto offline_spec = build("offline");
  const auto server_spec = build("server");
  ASSERT_TRUE(offline_spec.ok());
  ASSERT_TRUE(server_spec.ok());

  la::Matrix offline_conf, server_conf;
  RunOptions offline_options;
  offline_options.on_trial = [&](const TrialObservation& trial) {
    offline_conf = trial.view->confidences;
    EXPECT_EQ(trial.server, nullptr);
    EXPECT_EQ(trial.channel_kind, "offline");
  };
  RunOptions server_options;
  server_options.on_trial = [&](const TrialObservation& trial) {
    server_conf = trial.view->confidences;
    EXPECT_NE(trial.server, nullptr);
    EXPECT_EQ(trial.channel_kind, "server");
  };

  NullSink sink;
  ExperimentRunner runner(SmokeScale());
  ASSERT_TRUE(runner.Run(*offline_spec, sink, offline_options).ok());
  ASSERT_TRUE(runner.Run(*server_spec, sink, server_options).ok());
  EXPECT_EQ(offline_conf, server_conf);
}

/// Runs the spec into a CsvRowSink writing to a tmpfile and returns the
/// emitted bytes.
std::string RunToCsv(const ExperimentSpec& spec) {
  std::FILE* tmp = std::tmpfile();
  EXPECT_NE(tmp, nullptr);
  CsvRowSink sink(tmp);
  ExperimentRunner runner(SmokeScale());
  const core::Status status = runner.Run(spec, sink);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::fflush(tmp);
  std::rewind(tmp);
  std::string bytes;
  char buffer[4096];
  std::size_t read;
  while ((read = std::fread(buffer, 1, sizeof(buffer), tmp)) > 0) {
    bytes.append(buffer, read);
  }
  std::fclose(tmp);
  return bytes;
}

TEST(ExperimentRunnerTest, UncappedThreadedServerCsvMatchesOffline) {
  // batch=0 means "no cap" with helper threads too: the spec is accepted and
  // reveals the offline channel's exact bits.
  ServingSpec serving;
  serving.threads = 4;
  serving.batch = 0;
  auto build = [&serving](const std::string& channel) {
    return ExperimentSpecBuilder("uncapped")
        .Dataset("bank")
        .Model("lr")
        .Attack("esa")
        .TargetFraction(0.3)
        .Trials(1)
        .Channel(channel)
        .Serving(serving)
        .Build();
  };
  const auto offline_spec = build("offline");
  const auto server_spec = build("server");
  ASSERT_TRUE(offline_spec.ok());
  ASSERT_TRUE(server_spec.ok()) << server_spec.status().ToString();
  const std::string offline = RunToCsv(*offline_spec);
  ASSERT_FALSE(offline.empty());
  EXPECT_EQ(RunToCsv(*server_spec), offline);
}

TEST(ExperimentRunnerTest, ChannelGridLabelsRows) {
  // "net:port=0" exercises the config-tail spec syntax: rows label as
  // "grid[net]" (kind only) and the wire hop must not perturb the values.
  const auto spec = ExperimentSpecBuilder("grid")
                        .Dataset("bank")
                        .Model("lr")
                        .Attack("random_uniform")
                        .TargetFraction(0.3)
                        .Trials(1)
                        .Channels({"offline", "service", "server",
                                   "net:port=0"})
                        .Build();
  ASSERT_TRUE(spec.ok());
  CollectSink sink;
  ExperimentRunner runner(SmokeScale());
  ASSERT_TRUE(runner.Run(*spec, sink).ok());
  ASSERT_EQ(sink.rows().size(), 4u);
  EXPECT_EQ(sink.rows()[0].experiment, "grid[offline]");
  EXPECT_EQ(sink.rows()[1].experiment, "grid[service]");
  EXPECT_EQ(sink.rows()[2].experiment, "grid[server]");
  EXPECT_EQ(sink.rows()[3].experiment, "grid[net]");
  // A deterministic attack over a deterministic config: every channel kind
  // yields the identical number.
  EXPECT_EQ(sink.rows()[0].mean, sink.rows()[1].mean);
  EXPECT_EQ(sink.rows()[0].mean, sink.rows()[2].mean);
  EXPECT_EQ(sink.rows()[0].mean, sink.rows()[3].mean);
}

TEST(ExperimentRunnerTest, DuplicateChannelKindIsRejectedEvenWithConfigTails) {
  // Row labels carry the kind only, so "net" and "net:rows=512" would emit
  // indistinguishable rows — the spec is rejected up front.
  const auto spec = ExperimentSpecBuilder("t")
                        .Dataset("bank")
                        .Attack("random_uniform")
                        .TargetFraction(0.3)
                        .Channels({"net", "net:rows=512"})
                        .Build();
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), core::StatusCode::kInvalidArgument);
}

TEST(ExperimentRunnerTest, UnknownChannelKindIsNotFound) {
  const auto spec = ExperimentSpecBuilder("t")
                        .Dataset("bank")
                        .Attack("random_uniform")
                        .TargetFraction(0.3)
                        .Channel("carrier-pigeon")
                        .Build();
  ASSERT_TRUE(spec.ok());
  ExperimentRunner runner(SmokeScale());
  NullSink sink;
  EXPECT_EQ(runner.Run(*spec, sink).code(), core::StatusCode::kNotFound);
}

TEST(ExperimentRunnerTest, QueryBudgetRejectionSurfacesAsTypedStatus) {
  for (const std::string channel : {"offline", "service", "server", "net"}) {
    ServingSpec serving;
    serving.query_budget = 5;  // far below the prediction-set size
    const auto spec = ExperimentSpecBuilder("budget")
                          .Dataset("bank")
                          .Model("lr")
                          .Attack("random_uniform")
                          .TargetFraction(0.3)
                          .Trials(1)
                          .Channel(channel)
                          .Serving(serving)
                          .Build();
    ASSERT_TRUE(spec.ok());

    bool saw_failed_trial = false;
    RunOptions options;
    options.on_trial = [&](const TrialObservation& trial) {
      if (!trial.view_status.ok()) {
        saw_failed_trial = true;
        EXPECT_EQ(trial.view_status.code(),
                  core::StatusCode::kResourceExhausted);
      }
    };
    NullSink sink;
    ExperimentRunner runner(SmokeScale());
    const core::Status status = runner.Run(*spec, sink, options);
    ASSERT_FALSE(status.ok()) << "channel " << channel;
    EXPECT_EQ(status.code(), core::StatusCode::kResourceExhausted)
        << "channel " << channel;
    EXPECT_TRUE(saw_failed_trial) << "channel " << channel;
  }
}

}  // namespace
}  // namespace vfl::exp
