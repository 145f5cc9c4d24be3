#include "attack/grna.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "attack/metrics.h"
#include "attack/random_guess.h"
#include "core/rng.h"
#include "data/normalize.h"
#include "data/synthetic.h"
#include "fed/scenario.h"
#include "la/matrix_ops.h"
#include "models/logistic_regression.h"
#include "models/mlp.h"
#include "models/random_forest.h"
#include "models/rf_surrogate.h"
#include "nn/linear.h"

namespace vfl::attack {
namespace {

TEST(VariancePenaltyTest, ZeroBelowThreshold) {
  la::Matrix constant(10, 3, 0.4);  // zero variance
  EXPECT_DOUBLE_EQ(VariancePenaltyValue(constant, 1.0, 0.01), 0.0);
  la::Matrix grad(10, 3);
  AddVariancePenaltyGradient(constant, 1.0, 0.01, &grad);
  EXPECT_EQ(la::FrobeniusNorm(grad), 0.0);
}

TEST(VariancePenaltyTest, PositiveAboveThreshold) {
  la::Matrix spread{{0.0}, {1.0}};  // variance 0.25
  EXPECT_NEAR(VariancePenaltyValue(spread, 2.0, 0.05), 2.0 * 0.2, 1e-12);
}

TEST(VariancePenaltyTest, GradientMatchesFiniteDifference) {
  core::Rng rng(1);
  la::Matrix x(6, 2);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Uniform();
  const double lambda = 1.5, tau = 0.01;
  la::Matrix analytic(6, 2);
  AddVariancePenaltyGradient(x, lambda, tau, &analytic);
  const double step = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    la::Matrix perturbed = x;
    perturbed.data()[i] += step;
    const double up = VariancePenaltyValue(perturbed, lambda, tau);
    perturbed.data()[i] -= 2 * step;
    const double down = VariancePenaltyValue(perturbed, lambda, tau);
    EXPECT_NEAR((up - down) / (2 * step), analytic.data()[i], 1e-6);
  }
}

TEST(VariancePenaltyTest, GradientAccumulatesIntoExisting) {
  la::Matrix x{{0.0}, {1.0}};
  la::Matrix grad(2, 1, 5.0);
  AddVariancePenaltyGradient(x, 1.0, 0.0, &grad);
  // The pre-existing 5.0 must remain (the helper adds).
  EXPECT_NE(grad(0, 0), 5.0);
  EXPECT_NEAR(grad(0, 0) + grad(1, 0), 10.0, 1e-9);  // penalty grads sum ~0
}

TEST(GrnaConfigTest, NeedsAtLeastOneInputBlock) {
  data::ClassificationSpec spec;
  spec.num_samples = 10;
  const data::Dataset d = data::MakeClassification(spec);
  models::LogisticRegression lr;
  lr.Fit(d);
  GrnaConfig config;
  config.use_adv_input = false;
  config.use_random_input = false;
  EXPECT_DEATH(GenerativeRegressionNetworkAttack(&lr, config), "input");
}

/// Fixture: LR model on strongly correlated data — the conditions under
/// which GRNA provably has signal to learn.
class GrnaFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data::ClassificationSpec spec;
    spec.num_samples = 600;
    spec.num_features = 8;
    spec.num_classes = 2;
    spec.num_informative = 4;
    spec.num_redundant = 4;
    spec.class_sep = 1.5;
    spec.shuffle_columns = true;
    spec.seed = 9;
    dataset_ = data::MakeClassification(spec);
    data::MinMaxNormalizer normalizer;
    dataset_.x = normalizer.FitTransform(dataset_.x);
    lr_.Fit(dataset_);
    core::Rng rng(10);
    split_ = fed::FeatureSplit::RandomFraction(8, 0.4, rng);
    scenario_ = fed::MakeTwoPartyScenario(dataset_.x, split_, &lr_);
    view_ = scenario_.CollectView();
  }

  GrnaConfig SmallConfig() const {
    GrnaConfig config;
    config.hidden_sizes = {32, 16};
    config.train.epochs = 15;
    return config;
  }

  data::Dataset dataset_;
  models::LogisticRegression lr_;
  fed::FeatureSplit split_;
  fed::VflScenario scenario_;
  fed::AdversaryView view_;
};

TEST_F(GrnaFixture, OutputShapeMatchesTargetBlock) {
  GenerativeRegressionNetworkAttack grna(&lr_, SmallConfig());
  const la::Matrix inferred = grna.Infer(view_);
  EXPECT_EQ(inferred.rows(), dataset_.num_samples());
  EXPECT_EQ(inferred.cols(), split_.num_target_features());
}

TEST_F(GrnaFixture, OutputsLieInUnitRange) {
  GenerativeRegressionNetworkAttack grna(&lr_, SmallConfig());
  const la::Matrix inferred = grna.Infer(view_);
  for (std::size_t i = 0; i < inferred.size(); ++i) {
    EXPECT_GE(inferred.data()[i], 0.0);
    EXPECT_LE(inferred.data()[i], 1.0);
  }
}

TEST_F(GrnaFixture, AttackLossDecreasesDuringTraining) {
  GenerativeRegressionNetworkAttack grna(&lr_, SmallConfig());
  grna.Infer(view_);
  const auto& history = grna.training_history();
  ASSERT_EQ(history.size(), 15u);
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
}

TEST_F(GrnaFixture, BeatsBothRandomGuessBaselines) {
  GenerativeRegressionNetworkAttack grna(&lr_, SmallConfig());
  const double grna_mse =
      MsePerFeature(grna.Infer(view_), scenario_.x_target_ground_truth);
  RandomGuessAttack uniform(RandomGuessAttack::Distribution::kUniform);
  RandomGuessAttack gaussian(RandomGuessAttack::Distribution::kGaussian);
  EXPECT_LT(grna_mse, MsePerFeature(uniform.Infer(view_),
                                    scenario_.x_target_ground_truth));
  EXPECT_LT(grna_mse, MsePerFeature(gaussian.Infer(view_),
                                    scenario_.x_target_ground_truth));
}

TEST_F(GrnaFixture, DoesNotModifyTheFrozenModel) {
  const la::Matrix weights_before = lr_.weights();
  GenerativeRegressionNetworkAttack grna(&lr_, SmallConfig());
  grna.Infer(view_);
  EXPECT_TRUE(lr_.weights() == weights_before);
}

/// Largest |grad| over every Linear parameter of a trained layer stack.
double MaxAbsParameterGrad(const nn::Sequential& network) {
  double max_abs = 0.0;
  for (std::size_t i = 0; i < network.num_layers(); ++i) {
    const auto* linear = dynamic_cast<const nn::Linear*>(network.layer(i));
    if (linear == nullptr) continue;
    for (const nn::Parameter* p : {&linear->weight(), &linear->bias()}) {
      for (std::size_t j = 0; j < p->grad.size(); ++j) {
        max_abs = std::max(max_abs, std::abs(p->grad.data()[j]));
      }
    }
  }
  return max_abs;
}

TEST_F(GrnaFixture, FrozenModelGradientsStayZero) {
  // GRNA back-propagates through the frozen model for its input gradient
  // only: no parameter gradient of the model is computed or accumulated,
  // for the generator and for the naive-regression ablation alike.
  models::MlpClassifier mlp;
  models::MlpConfig mlp_config;
  mlp_config.hidden_sizes = {16, 8};
  mlp_config.train.epochs = 3;
  mlp.Fit(dataset_, mlp_config);
  ASSERT_EQ(MaxAbsParameterGrad(*mlp.network()), 0.0);

  models::RandomForest forest;
  models::RfConfig rf_config;
  rf_config.num_trees = 5;
  forest.Fit(dataset_, rf_config);
  models::RfSurrogate surrogate;
  models::SurrogateConfig s_config;
  s_config.num_dummy_samples = 400;
  s_config.hidden_sizes = {16};
  s_config.train.epochs = 2;
  surrogate.Fit(forest, s_config);
  ASSERT_EQ(MaxAbsParameterGrad(*surrogate.network()), 0.0);

  GrnaConfig config = SmallConfig();
  config.train.epochs = 2;
  for (const bool use_generator : {true, false}) {
    config.use_generator = use_generator;
    GenerativeRegressionNetworkAttack on_mlp(&mlp, config);
    on_mlp.Infer(view_);
    GenerativeRegressionNetworkAttack on_surrogate(&surrogate, config);
    on_surrogate.Infer(view_);
  }
  EXPECT_EQ(MaxAbsParameterGrad(*mlp.network()), 0.0);
  EXPECT_EQ(MaxAbsParameterGrad(*surrogate.network()), 0.0);
}

TEST_F(GrnaFixture, DeterministicGivenSeed) {
  GenerativeRegressionNetworkAttack a(&lr_, SmallConfig());
  GenerativeRegressionNetworkAttack b(&lr_, SmallConfig());
  EXPECT_LT(la::MaxAbsDiff(a.Infer(view_), b.Infer(view_)), 1e-12);
}

TEST_F(GrnaFixture, AblationVariantsRun) {
  for (const int case_index : {1, 2, 3}) {
    GrnaConfig config = SmallConfig();
    config.train.epochs = 3;
    if (case_index == 1) config.use_adv_input = false;
    if (case_index == 2) config.use_random_input = false;
    if (case_index == 3) config.use_variance_constraint = false;
    GenerativeRegressionNetworkAttack grna(&lr_, config);
    const la::Matrix inferred = grna.Infer(view_);
    EXPECT_EQ(inferred.cols(), split_.num_target_features());
  }
}

TEST_F(GrnaFixture, NaiveRegressionRunsAndIsWorse) {
  GrnaConfig naive = SmallConfig();
  naive.use_generator = false;
  GenerativeRegressionNetworkAttack naive_attack(&lr_, naive);
  const double naive_mse = MsePerFeature(naive_attack.Infer(view_),
                                         scenario_.x_target_ground_truth);
  GenerativeRegressionNetworkAttack full(&lr_, SmallConfig());
  const double full_mse =
      MsePerFeature(full.Infer(view_), scenario_.x_target_ground_truth);
  EXPECT_GT(naive_mse, full_mse);
}

TEST_F(GrnaFixture, WorksAgainstNnModel) {
  models::MlpClassifier mlp;
  models::MlpConfig config;
  config.hidden_sizes = {16, 8};
  config.train.epochs = 8;
  mlp.Fit(dataset_, config);
  fed::VflScenario scenario =
      fed::MakeTwoPartyScenario(dataset_.x, split_, &mlp);
  const fed::AdversaryView view = scenario.CollectView();
  GenerativeRegressionNetworkAttack grna(&mlp, SmallConfig());
  const double grna_mse =
      MsePerFeature(grna.Infer(view), scenario.x_target_ground_truth);
  RandomGuessAttack uniform(RandomGuessAttack::Distribution::kUniform);
  EXPECT_LT(grna_mse, MsePerFeature(uniform.Infer(view),
                                    scenario.x_target_ground_truth));
}

TEST(RandomGuessTest, UniformDrawsInUnitInterval) {
  fed::AdversaryView view;
  view.x_adv = la::Matrix(50, 2);
  view.confidences = la::Matrix(50, 2);
  view.split = fed::FeatureSplit({0, 1}, {2, 3, 4});
  RandomGuessAttack rg(RandomGuessAttack::Distribution::kUniform);
  const la::Matrix guess = rg.Infer(view);
  EXPECT_EQ(guess.rows(), 50u);
  EXPECT_EQ(guess.cols(), 3u);
  for (std::size_t i = 0; i < guess.size(); ++i) {
    EXPECT_GE(guess.data()[i], 0.0);
    EXPECT_LT(guess.data()[i], 1.0);
  }
}

TEST(RandomGuessTest, GaussianCenteredAtHalf) {
  fed::AdversaryView view;
  view.x_adv = la::Matrix(4000, 1);
  view.confidences = la::Matrix(4000, 2);
  view.split = fed::FeatureSplit({0}, {1});
  RandomGuessAttack rg(RandomGuessAttack::Distribution::kGaussian);
  const la::Matrix guess = rg.Infer(view);
  EXPECT_NEAR(la::Mean(guess), 0.5, 0.02);
  // ~95% of N(0.5, 0.25^2) lies in (0, 1) (the paper's design).
  std::size_t inside = 0;
  for (std::size_t i = 0; i < guess.size(); ++i) {
    if (guess.data()[i] > 0.0 && guess.data()[i] < 1.0) ++inside;
  }
  EXPECT_GT(static_cast<double>(inside) / guess.size(), 0.93);
}

TEST(RandomGuessTest, NamesDistinguishDistributions) {
  RandomGuessAttack u(RandomGuessAttack::Distribution::kUniform);
  RandomGuessAttack g(RandomGuessAttack::Distribution::kGaussian);
  EXPECT_NE(u.name(), g.name());
}

}  // namespace
}  // namespace vfl::attack
