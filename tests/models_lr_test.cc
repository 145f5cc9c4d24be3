#include "models/logistic_regression.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "la/matrix_ops.h"
#include "nn/activation.h"

namespace vfl::models {
namespace {

data::Dataset EasyBinary(std::size_t n = 400) {
  data::ClassificationSpec spec;
  spec.num_samples = n;
  spec.num_features = 6;
  spec.num_classes = 2;
  spec.num_informative = 4;
  spec.num_redundant = 2;
  spec.class_sep = 2.0;
  spec.seed = 5;
  return data::MakeClassification(spec);
}

data::Dataset EasyMulticlass(std::size_t n = 600) {
  data::ClassificationSpec spec;
  spec.num_samples = n;
  spec.num_features = 8;
  spec.num_classes = 4;
  spec.num_informative = 6;
  spec.num_redundant = 2;
  spec.class_sep = 2.5;
  spec.seed = 6;
  return data::MakeClassification(spec);
}

TEST(LogisticRegressionTest, LearnsSeparableBinaryData) {
  const data::Dataset d = EasyBinary();
  LogisticRegression lr;
  lr.Fit(d);
  EXPECT_GT(Accuracy(lr, d), 0.9);
  EXPECT_EQ(lr.num_features(), 6u);
  EXPECT_EQ(lr.num_classes(), 2u);
}

TEST(LogisticRegressionTest, LearnsMulticlassData) {
  const data::Dataset d = EasyMulticlass();
  LogisticRegression lr;
  lr.Fit(d);
  EXPECT_GT(Accuracy(lr, d), 0.8);
  EXPECT_EQ(lr.num_classes(), 4u);
}

TEST(LogisticRegressionTest, ProbabilitiesAreValidDistributions) {
  const data::Dataset d = EasyMulticlass(100);
  LogisticRegression lr;
  lr.Fit(d);
  const la::Matrix probs = lr.PredictProba(d.x);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      EXPECT_GE(probs(r, c), 0.0);
      sum += probs(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(LogisticRegressionTest, DeterministicGivenSeed) {
  const data::Dataset d = EasyBinary(100);
  LogisticRegression a, b;
  a.Fit(d);
  b.Fit(d);
  EXPECT_LT(la::MaxAbsDiff(a.weights(), b.weights()), 1e-15);
}

TEST(LogisticRegressionTest, SetParametersInstallsExactly) {
  LogisticRegression lr;
  lr.SetParameters(la::Matrix{{1.0, 0.0}, {0.0, 1.0}}, {0.5, -0.5});
  EXPECT_EQ(lr.num_features(), 2u);
  // logits for x = (1, 0): z = (1.5, -0.5).
  const la::Matrix probs = lr.PredictProba(la::Matrix{{1.0, 0.0}});
  const double expected = std::exp(1.5) / (std::exp(1.5) + std::exp(-0.5));
  EXPECT_NEAR(probs(0, 0), expected, 1e-12);
}

TEST(LogisticRegressionTest, BinaryEffectiveFormMatchesSoftmax) {
  // softmax([z0, z1])[0] == sigmoid(z0 - z1): the binary sigmoid form used
  // by ESA must agree exactly with the 2-class softmax prediction.
  LogisticRegression lr;
  lr.SetParameters(la::Matrix{{0.7, -0.2}, {-0.3, 0.9}}, {0.1, -0.4});
  const la::Matrix x{{0.3, 0.8}};
  const la::Matrix probs = lr.PredictProba(x);
  const std::vector<double> theta = lr.BinaryEffectiveWeights();
  const double z =
      theta[0] * 0.3 + theta[1] * 0.8 + lr.BinaryEffectiveBias();
  EXPECT_NEAR(probs(0, 0), nn::SigmoidScalar(z), 1e-12);
}

TEST(LogisticRegressionTest, BinaryEffectiveFormRequiresTwoClasses) {
  LogisticRegression lr;
  lr.SetParameters(la::Matrix(2, 3), {0, 0, 0});
  EXPECT_DEATH(lr.BinaryEffectiveWeights(), "");
}

TEST(LogisticRegressionTest, PredictBeforeFitDies) {
  LogisticRegression lr;
  EXPECT_DEATH(lr.PredictProba(la::Matrix(1, 2)), "");
}

TEST(LogisticRegressionTest, InputGradientMatchesFiniteDifference) {
  LogisticRegression lr;
  lr.SetParameters(la::Matrix{{0.5, -0.5, 0.2}, {0.1, 0.3, -0.4}},
                   {0.0, 0.1, -0.1});
  la::Matrix x{{0.2, 0.7}};
  la::Matrix probe{{1.0, -0.5, 0.25}};

  lr.ForwardDiff(x);
  la::Matrix analytic = probe;
  lr.BackwardToInput(&analytic);

  const double step = 1e-6;
  for (std::size_t j = 0; j < 2; ++j) {
    la::Matrix perturbed = x;
    perturbed(0, j) += step;
    const double up = la::Sum(la::Hadamard(lr.PredictProba(perturbed), probe));
    perturbed(0, j) -= 2 * step;
    const double down =
        la::Sum(la::Hadamard(lr.PredictProba(perturbed), probe));
    EXPECT_NEAR((up - down) / (2 * step), analytic(0, j), 1e-6);
  }
}

TEST(LogisticRegressionTest, ForwardDiffMatchesPredictProba) {
  const data::Dataset d = EasyBinary(50);
  LogisticRegression lr;
  lr.Fit(d);
  EXPECT_LT(la::MaxAbsDiff(lr.ForwardDiff(d.x), lr.PredictProba(d.x)), 1e-15);
}

}  // namespace
}  // namespace vfl::models
