#include "models/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "la/parallel.h"
#include "models/random_forest.h"
#include "models/rf_surrogate.h"

namespace vfl::models {
namespace {

data::Dataset TreeFriendlyData(std::size_t n = 500, std::size_t classes = 3,
                               std::uint64_t seed = 21) {
  data::ClassificationSpec spec;
  spec.num_samples = n;
  spec.num_features = 8;
  spec.num_classes = classes;
  spec.num_informative = 5;
  spec.num_redundant = 2;
  spec.class_sep = 2.0;
  spec.seed = seed;
  return data::MakeClassification(spec);
}

TEST(DecisionTreeTest, FitsAndBeatsChance) {
  const data::Dataset d = TreeFriendlyData();
  DecisionTree tree;
  tree.Fit(d);
  EXPECT_GT(Accuracy(tree, d), 0.6);  // chance is 1/3
}

TEST(DecisionTreeTest, ArraySizeIsFullBinaryTree) {
  const data::Dataset d = TreeFriendlyData(200);
  DtConfig config;
  config.max_depth = 4;
  DecisionTree tree;
  tree.Fit(d, config);
  EXPECT_EQ(tree.nodes().size(), 31u);  // 2^(4+1) - 1
  EXPECT_EQ(tree.max_depth(), 4u);
}

TEST(DecisionTreeTest, LayoutInvariants) {
  const data::Dataset d = TreeFriendlyData();
  DecisionTree tree;
  tree.Fit(d);
  const std::vector<TreeNode>& nodes = tree.nodes();
  ASSERT_TRUE(nodes[0].present);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].present) {
      // Absent slots must not have present children.
      const std::size_t left = DecisionTree::LeftChild(i);
      if (left < nodes.size()) {
        EXPECT_FALSE(nodes[left].present);
        EXPECT_FALSE(nodes[left + 1].present);
      }
      continue;
    }
    if (nodes[i].is_leaf) {
      EXPECT_GE(nodes[i].label, 0);
      // Leaves have no present children.
      const std::size_t left = DecisionTree::LeftChild(i);
      if (left < nodes.size()) {
        EXPECT_FALSE(nodes[left].present);
        EXPECT_FALSE(nodes[left + 1].present);
      }
    } else {
      // Internal nodes reference a valid feature and have both children.
      EXPECT_GE(nodes[i].feature, 0);
      EXPECT_LT(static_cast<std::size_t>(nodes[i].feature), d.num_features());
      ASSERT_LT(DecisionTree::RightChild(i), nodes.size());
      EXPECT_TRUE(nodes[DecisionTree::LeftChild(i)].present);
      EXPECT_TRUE(nodes[DecisionTree::RightChild(i)].present);
    }
  }
}

TEST(DecisionTreeTest, ChildAndParentIndexing) {
  EXPECT_EQ(DecisionTree::LeftChild(0), 1u);
  EXPECT_EQ(DecisionTree::RightChild(0), 2u);
  EXPECT_EQ(DecisionTree::Parent(1), 0u);
  EXPECT_EQ(DecisionTree::Parent(2), 0u);
  EXPECT_EQ(DecisionTree::Parent(DecisionTree::LeftChild(7)), 7u);
}

TEST(DecisionTreeTest, PredictionPathIsRootToLeaf) {
  const data::Dataset d = TreeFriendlyData();
  DecisionTree tree;
  tree.Fit(d);
  for (std::size_t t = 0; t < 20; ++t) {
    const std::vector<std::size_t> path = tree.PredictionPath(d.x.RowPtr(t));
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 0u);
    EXPECT_TRUE(tree.nodes()[path.back()].is_leaf);
    // Consecutive entries are parent/child, consistent with the comparison.
    for (std::size_t s = 0; s + 1 < path.size(); ++s) {
      const TreeNode& node = tree.nodes()[path[s]];
      ASSERT_FALSE(node.is_leaf);
      const bool left = d.x(t, node.feature) <= node.threshold;
      EXPECT_EQ(path[s + 1], left ? DecisionTree::LeftChild(path[s])
                                  : DecisionTree::RightChild(path[s]));
    }
    // Predicted label equals path leaf label.
    EXPECT_EQ(tree.PredictOne(d.x.RowPtr(t)),
              tree.nodes()[path.back()].label);
  }
}

TEST(DecisionTreeTest, ProbaIsOneHot) {
  const data::Dataset d = TreeFriendlyData(100);
  DecisionTree tree;
  tree.Fit(d);
  const la::Matrix probs = tree.PredictProba(d.x);
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      EXPECT_TRUE(probs(r, c) == 0.0 || probs(r, c) == 1.0);
      sum += probs(r, c);
    }
    EXPECT_DOUBLE_EQ(sum, 1.0);
  }
}

TEST(DecisionTreeTest, PureDataYieldsSingleLeaf) {
  data::Dataset d;
  d.x = la::Matrix(10, 2, 0.5);
  d.y.assign(10, 1);
  d.num_classes = 3;
  DecisionTree tree;
  tree.Fit(d);
  EXPECT_EQ(tree.NumPredictionPaths(), 1u);
  EXPECT_TRUE(tree.nodes()[0].is_leaf);
  EXPECT_EQ(tree.nodes()[0].label, 1);
}

TEST(DecisionTreeTest, DepthZeroIsMajorityVote) {
  data::Dataset d;
  d.x = la::Matrix{{0.1}, {0.2}, {0.9}};
  d.y = {0, 0, 1};
  d.num_classes = 2;
  DtConfig config;
  config.max_depth = 0;
  DecisionTree tree;
  tree.Fit(d, config);
  EXPECT_EQ(tree.PredictOne(d.x.RowPtr(2)), 0);  // majority class
}

TEST(DecisionTreeTest, SplitsOnObviousThreshold) {
  data::Dataset d;
  d.x = la::Matrix{{0.1, 0.5}, {0.2, 0.5}, {0.8, 0.5}, {0.9, 0.5}};
  d.y = {0, 0, 1, 1};
  d.num_classes = 2;
  DecisionTree tree;
  tree.Fit(d);
  // Root must split on feature 0 (feature 1 is constant).
  EXPECT_FALSE(tree.nodes()[0].is_leaf);
  EXPECT_EQ(tree.nodes()[0].feature, 0);
  EXPECT_GT(tree.nodes()[0].threshold, 0.2);
  EXPECT_LT(tree.nodes()[0].threshold, 0.8);
  EXPECT_DOUBLE_EQ(Accuracy(tree, d), 1.0);
}

TEST(DecisionTreeTest, LeafIndicesMatchPaths) {
  const data::Dataset d = TreeFriendlyData();
  DecisionTree tree;
  tree.Fit(d);
  EXPECT_EQ(tree.LeafIndices().size(), tree.NumPredictionPaths());
  EXPECT_GT(tree.NumPredictionPaths(), 1u);
  for (const std::size_t leaf : tree.LeafIndices()) {
    EXPECT_TRUE(tree.nodes()[leaf].present);
    EXPECT_TRUE(tree.nodes()[leaf].is_leaf);
  }
}

/// The split search as it was before the sorted sweep: for every candidate
/// threshold, rescan every row of the node. Kept verbatim (with the tree
/// builder around it) as the reference the sweep must reproduce exactly.
class RescanTree {
 public:
  RescanTree(const data::Dataset& dataset, const DtConfig& config)
      : dataset_(dataset),
        config_(config),
        nodes_((std::size_t{1} << (config.max_depth + 1)) - 1) {}

  const std::vector<TreeNode>& Fit(const std::vector<std::size_t>& rows,
                                   core::Rng& rng) {
    Build(0, rows, 0, rng);
    return nodes_;
  }

 private:
  struct Split {
    bool valid = false;
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };

  static double Gini(const std::vector<std::size_t>& counts,
                     std::size_t total) {
    if (total == 0) return 0.0;
    double sum_sq = 0.0;
    for (const std::size_t count : counts) {
      const double p = static_cast<double>(count) / static_cast<double>(total);
      sum_sq += p * p;
    }
    return 1.0 - sum_sq;
  }

  void Build(std::size_t index, const std::vector<std::size_t>& rows,
             std::size_t depth, core::Rng& rng) {
    TreeNode& node = nodes_[index];
    node.present = true;
    std::vector<std::size_t> counts(dataset_.num_classes, 0);
    for (const std::size_t r : rows) ++counts[dataset_.y[r]];
    const int majority = static_cast<int>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    const bool pure = std::all_of(rows.begin(), rows.end(), [&](std::size_t r) {
      return dataset_.y[r] == dataset_.y[rows[0]];
    });
    Split split;
    if (depth < config_.max_depth && !pure &&
        rows.size() >= config_.min_samples_split) {
      split = FindSplit(rows, rng);
    }
    if (!split.valid) {
      node.is_leaf = true;
      node.label = majority;
      return;
    }
    node.feature = split.feature;
    node.threshold = split.threshold;
    std::vector<std::size_t> left, right;
    for (const std::size_t r : rows) {
      (dataset_.x(r, split.feature) <= split.threshold ? left : right)
          .push_back(r);
    }
    Build(DecisionTree::LeftChild(index), left, depth + 1, rng);
    Build(DecisionTree::RightChild(index), right, depth + 1, rng);
  }

  Split FindSplit(const std::vector<std::size_t>& rows, core::Rng& rng) const {
    Split best;
    const std::size_t d = dataset_.num_features();
    std::vector<std::size_t> features;
    if (config_.max_features > 0 && config_.max_features < d) {
      features = rng.SampleWithoutReplacement(d, config_.max_features);
    } else {
      for (std::size_t j = 0; j < d; ++j) features.push_back(j);
    }
    const std::size_t classes = dataset_.num_classes;
    std::vector<std::size_t> parent_counts(classes, 0);
    for (const std::size_t r : rows) ++parent_counts[dataset_.y[r]];
    const double parent_gini = Gini(parent_counts, rows.size());
    for (const std::size_t feature : features) {
      std::vector<double> values;
      for (const std::size_t r : rows) values.push_back(dataset_.x(r, feature));
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      if (values.size() < 2) continue;
      std::vector<double> thresholds;
      const std::size_t num_gaps = values.size() - 1;
      const std::size_t num_candidates =
          std::min(num_gaps, config_.max_threshold_candidates);
      for (std::size_t k = 0; k < num_candidates; ++k) {
        const std::size_t gap = num_gaps <= config_.max_threshold_candidates
                                    ? k
                                    : k * num_gaps / num_candidates;
        thresholds.push_back(0.5 * (values[gap] + values[gap + 1]));
      }
      for (const double threshold : thresholds) {
        std::vector<std::size_t> left_counts(classes, 0);
        std::size_t left_total = 0;
        for (const std::size_t r : rows) {
          if (dataset_.x(r, feature) <= threshold) {
            ++left_counts[dataset_.y[r]];
            ++left_total;
          }
        }
        const std::size_t right_total = rows.size() - left_total;
        if (left_total < config_.min_samples_leaf ||
            right_total < config_.min_samples_leaf) {
          continue;
        }
        std::vector<std::size_t> right_counts(classes);
        for (std::size_t k = 0; k < classes; ++k) {
          right_counts[k] = parent_counts[k] - left_counts[k];
        }
        const double weighted =
            (static_cast<double>(left_total) * Gini(left_counts, left_total) +
             static_cast<double>(right_total) *
                 Gini(right_counts, right_total)) /
            static_cast<double>(rows.size());
        const double gain = parent_gini - weighted;
        if (gain > best.gain + 1e-12) {
          best = {true, static_cast<int>(feature), threshold, gain};
        }
      }
    }
    return best;
  }

  const data::Dataset& dataset_;
  const DtConfig config_;
  std::vector<TreeNode> nodes_;
};

void ExpectSameNodes(const std::vector<TreeNode>& got,
                     const std::vector<TreeNode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].present, want[i].present);
    EXPECT_EQ(got[i].is_leaf, want[i].is_leaf);
    EXPECT_EQ(got[i].feature, want[i].feature);
    EXPECT_EQ(got[i].threshold, want[i].threshold);  // exact, not near
    EXPECT_EQ(got[i].label, want[i].label);
  }
}

/// Fits `rows` with the sweep and with the rescan reference from equal Rng
/// states and requires identical node arrays.
void ExpectSweepEqualsRescan(const data::Dataset& d,
                             const std::vector<std::size_t>& rows,
                             const DtConfig& config) {
  core::Rng sweep_rng(config.seed);
  core::Rng rescan_rng(config.seed);
  DecisionTree tree;
  tree.FitRows(d, rows, config, sweep_rng);
  RescanTree reference(d, config);
  ExpectSameNodes(tree.nodes(), reference.Fit(rows, rescan_rng));
}

std::vector<std::size_t> AllRows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

TEST(SplitSearchTest, SweepEqualsRescanOnContinuousData) {
  // More distinct values than threshold candidates: quantile subsampling.
  const data::Dataset d = TreeFriendlyData(400, 3, 5);
  DtConfig config;
  config.max_depth = 6;
  ExpectSweepEqualsRescan(d, AllRows(d.num_samples()), config);
}

TEST(SplitSearchTest, SweepEqualsRescanOnTies) {
  // Five levels per feature: every threshold sits between runs of ties.
  data::Dataset d = TreeFriendlyData(300, 3, 6);
  for (std::size_t i = 0; i < d.x.size(); ++i) {
    d.x.data()[i] = std::round(d.x.data()[i] * 2.0) / 2.0;
  }
  DtConfig config;
  config.max_depth = 5;
  config.min_samples_leaf = 3;
  ExpectSweepEqualsRescan(d, AllRows(d.num_samples()), config);
}

TEST(SplitSearchTest, SweepEqualsRescanOnBootstrapDuplicates) {
  const data::Dataset d = TreeFriendlyData(250, 4, 7);
  core::Rng rng(8);
  std::vector<std::size_t> rows(d.num_samples());
  for (std::size_t& r : rows) r = rng.UniformInt(d.num_samples());
  DtConfig config;
  config.max_depth = 4;
  config.max_features = 3;  // the forest's per-split feature sampling
  ExpectSweepEqualsRescan(d, rows, config);
}

TEST(SplitSearchTest, SweepEqualsRescanWhenMidpointRoundsUp) {
  // Adjacent doubles whose midpoint rounds to the upper one: the threshold
  // between them equals the upper value, so `value <= threshold` sends both
  // to the left and the two cannot be separated. At a node holding only
  // those two values the one candidate leaves the right child empty.
  const double lo = 1.0 + std::numeric_limits<double>::epsilon();
  const double hi = std::nextafter(lo, 2.0);
  ASSERT_EQ(0.5 * (lo + hi), hi);
  data::Dataset d;
  d.x = la::Matrix(12, 2);
  d.y.resize(12);
  d.num_classes = 2;
  for (std::size_t i = 0; i < 12; ++i) {
    d.x(i, 0) = i < 4 ? lo : i < 8 ? hi : 1.5;
    d.x(i, 1) = 0.0;
    d.y[i] = i < 4 ? 0 : 1;
  }
  DtConfig config;
  config.max_depth = 3;
  ExpectSweepEqualsRescan(d, AllRows(12), config);
  DecisionTree tree;
  tree.Fit(d, config);
  EXPECT_EQ(tree.nodes()[0].feature, 0);
  EXPECT_EQ(tree.nodes()[0].threshold, hi);
  EXPECT_TRUE(tree.nodes()[DecisionTree::LeftChild(0)].is_leaf);
}

TEST(RandomForestTest, IdenticalNodesForEveryThreadCount) {
  const data::Dataset d = TreeFriendlyData(300, 3, 9);
  RfConfig config;
  config.num_trees = 12;
  config.tree.max_depth = 4;
  la::SetNumThreads(1);
  RandomForest serial;
  serial.Fit(d, config);
  la::SetNumThreads(4);
  RandomForest parallel;
  parallel.Fit(d, config);
  la::SetNumThreads(1);
  ASSERT_EQ(serial.trees().size(), parallel.trees().size());
  for (std::size_t t = 0; t < serial.trees().size(); ++t) {
    SCOPED_TRACE(t);
    ExpectSameNodes(parallel.trees()[t].nodes(), serial.trees()[t].nodes());
  }
}

TEST(RandomForestTest, VoteFractionsSumToOne) {
  const data::Dataset d = TreeFriendlyData(300);
  RandomForest forest;
  RfConfig config;
  config.num_trees = 15;
  forest.Fit(d, config);
  const la::Matrix probs = forest.PredictProba(d.x.SliceRows(0, 20));
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      sum += probs(r, c);
      // Each entry is a multiple of 1/num_trees.
      const double scaled = probs(r, c) * 15.0;
      EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RandomForestTest, BeatsSingleChanceAccuracy) {
  const data::Dataset d = TreeFriendlyData(600, 3, 33);
  RandomForest forest;
  RfConfig config;
  config.num_trees = 25;
  forest.Fit(d, config);
  EXPECT_GT(Accuracy(forest, d), 0.6);
}

TEST(RandomForestTest, HasRequestedNumberOfTrees) {
  const data::Dataset d = TreeFriendlyData(200);
  RandomForest forest;
  RfConfig config;
  config.num_trees = 7;
  config.tree.max_depth = 2;
  forest.Fit(d, config);
  EXPECT_EQ(forest.trees().size(), 7u);
  for (const DecisionTree& tree : forest.trees()) {
    EXPECT_EQ(tree.max_depth(), 2u);
  }
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const data::Dataset d = TreeFriendlyData(200);
  RandomForest a, b;
  RfConfig config;
  config.num_trees = 5;
  a.Fit(d, config);
  b.Fit(d, config);
  EXPECT_TRUE(a.PredictProba(d.x) == b.PredictProba(d.x));
}

TEST(RandomForestTest, TreesDiffer) {
  const data::Dataset d = TreeFriendlyData(300);
  RandomForest forest;
  RfConfig config;
  config.num_trees = 8;
  forest.Fit(d, config);
  // Bootstrap + feature subsampling: not all trees identical.
  bool any_different = false;
  const auto& first = forest.trees().front().nodes();
  for (const DecisionTree& tree : forest.trees()) {
    if (!(tree.nodes()[0].feature == first[0].feature &&
          tree.nodes()[0].threshold == first[0].threshold)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(RfSurrogateTest, ApproximatesForestConfidences) {
  const data::Dataset d = TreeFriendlyData(400, 2, 55);
  RandomForest forest;
  RfConfig rf_config;
  rf_config.num_trees = 12;
  forest.Fit(d, rf_config);

  RfSurrogate surrogate;
  SurrogateConfig config;
  config.num_dummy_samples = 3000;
  config.hidden_sizes = {64, 32};
  config.train.epochs = 15;
  surrogate.Fit(forest, config);

  EXPECT_EQ(surrogate.num_features(), forest.num_features());
  EXPECT_EQ(surrogate.num_classes(), forest.num_classes());
  // Fidelity well below the trivial predictor (predicting 0.5 everywhere on
  // a 2-class problem has MSE >= ~0.05 against one-hot-ish vote fractions).
  EXPECT_LT(surrogate.FidelityMse(forest, 1000), 0.08);
}

TEST(RfSurrogateTest, ConditionedFitKeepsAdvColumns) {
  const data::Dataset d = TreeFriendlyData(300, 2, 56);
  RandomForest forest;
  RfConfig rf_config;
  rf_config.num_trees = 10;
  forest.Fit(d, rf_config);

  la::Matrix x_adv(50, 3);
  for (std::size_t i = 0; i < x_adv.size(); ++i) {
    x_adv.data()[i] = 0.25;  // recognizable constant
  }
  RfSurrogate surrogate;
  SurrogateConfig config;
  config.num_dummy_samples = 500;
  config.hidden_sizes = {16};
  config.train.epochs = 2;
  surrogate.FitConditioned(forest, {0, 2, 4}, x_adv, config);
  EXPECT_EQ(surrogate.num_features(), forest.num_features());
}

TEST(RfSurrogateTest, OutputsAreDistributions) {
  const data::Dataset d = TreeFriendlyData(200, 3, 57);
  RandomForest forest;
  RfConfig rf_config;
  rf_config.num_trees = 8;
  forest.Fit(d, rf_config);
  RfSurrogate surrogate;
  SurrogateConfig config;
  config.num_dummy_samples = 500;
  config.hidden_sizes = {16};
  config.train.epochs = 2;
  surrogate.Fit(forest, config);
  const la::Matrix probs = surrogate.PredictProba(d.x.SliceRows(0, 10));
  for (std::size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < probs.cols(); ++c) sum += probs(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RfSurrogateTest, GradientFlowsToInput) {
  const data::Dataset d = TreeFriendlyData(200, 2, 58);
  RandomForest forest;
  RfConfig rf_config;
  rf_config.num_trees = 6;
  forest.Fit(d, rf_config);
  RfSurrogate surrogate;
  SurrogateConfig config;
  config.num_dummy_samples = 800;
  config.hidden_sizes = {32};
  config.train.epochs = 5;
  surrogate.Fit(forest, config);
  const la::Matrix x = d.x.SliceRows(0, 4);
  const la::Matrix& probs = surrogate.ForwardDiff(x);
  la::Matrix grad(probs.rows(), probs.cols(), 1.0);
  surrogate.BackwardToInput(&grad);
  EXPECT_EQ(grad.rows(), x.rows());
  EXPECT_EQ(grad.cols(), x.cols());
}

}  // namespace
}  // namespace vfl::models
