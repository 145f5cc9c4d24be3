// Untraced, the grid runs whole passes through the runner (at least two per
// run, so the rows can be checked byte-identical across passes). Traced, the
// same cells are driven through the public calls one by one, each call
// wrapped in a span, then one runner pass whose rows the traced values must
// reproduce.
//
// Rows are compared as the runner's CSV sink emits them. Bit-level equality
// is measured and printed, not gated: a served prediction's last bits depend
// on which requests the server fused into its batch (the GEMM path switches
// between the blocked and the packed FMA kernels with the product size), so
// GRNA values on the "server" channel drift below the CSV's precision from
// pass to pass. On the "offline" channel the traced values equal the
// runner's rows bit for bit.
#include "grid.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>

#include "attack/grna.h"
#include "attack/metrics.h"
#include "attack/random_guess.h"
#include "core/rng.h"
#include "exp/channel_registry.h"
#include "exp/config_map.h"
#include "exp/experiment.h"
#include "exp/model_registry.h"
#include "exp/runner.h"
#include "fed/feature_split.h"
#include "fed/scenario.h"
#include "models/rf_surrogate.h"

namespace perfbench {
namespace {

namespace core = vfl::core;
namespace exp = vfl::exp;

/// One served model family of the grid, as bench_fig7_grna lists them.
struct ModelPlan {
  const char* model;
  const char* grna_label;
  /// LR carries the model-independent random-guess baselines.
  bool baselines;
};

constexpr ModelPlan kPlans[] = {{"lr", "GRNA-LR", true},
                                {"rf", "GRNA-RF", false},
                                {"mlp", "GRNA-NN", false}};

exp::ConfigMap SeedConfig(std::uint64_t seed) {
  return exp::ConfigMap::MustParse("seed=" + std::to_string(seed));
}

core::StatusOr<exp::ExperimentSpec> BuildSpec(
    const ModelPlan& plan, const std::vector<std::string>& datasets,
    const GridSeeds& seeds) {
  exp::ExperimentSpecBuilder builder("fig7");
  builder.Datasets(datasets)
      .Model(plan.model)
      .Attack("grna", SeedConfig(seeds.grna), plan.grna_label)
      .Trials(1)
      .Seed(seeds.data)
      .SplitSeed(seeds.split)
      .Threads(1)
      .Channel("server");
  if (plan.baselines) {
    builder.Attack("random_uniform", SeedConfig(seeds.guess))
        .Attack("random_gauss", SeedConfig(seeds.guess));
  }
  return builder.Build();
}

int FractionPct(double fraction) {
  return static_cast<int>(fraction * 100.0 + 0.5);
}

/// The rows exactly as exp::CsvRowSink emits them.
std::string CsvText(const std::vector<exp::ResultRow>& rows) {
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* stream = open_memstream(&buffer, &size);
  if (stream == nullptr) return {};
  exp::CsvRowSink sink(stream);
  for (const exp::ResultRow& row : rows) sink.OnRow(row);
  std::fclose(stream);
  std::string text(buffer, size);
  std::free(buffer);
  return text;
}

/// Rows whose mean differs in any bit between two passes of one grid.
std::size_t BitMismatches(const std::vector<exp::ResultRow>& a,
                          const std::vector<exp::ResultRow>& b) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (!SameBits(a[i].mean, b[i].mean)) ++mismatches;
  }
  return mismatches;
}

/// GRNA quality over a pass's rows: the MSE of every GRNA cell, and how many
/// of them beat both random guesses of their (dataset, fraction).
struct Quality {
  std::vector<double> mses;
  std::size_t wins = 0;
  std::size_t guessed_cells = 0;

  /// Each cell's GRNA MSE over its best random guess's.
  std::vector<double> guess_ratios;
};

Quality QualityOf(const std::vector<exp::ResultRow>& rows) {
  std::map<std::pair<std::string, int>, double> best_guess;
  for (const exp::ResultRow& row : rows) {
    if (row.method.rfind("RG(", 0) != 0) continue;
    const auto key = std::make_pair(row.dataset, row.dtarget_pct);
    const auto [it, inserted] = best_guess.emplace(key, row.mean);
    if (!inserted) it->second = std::min(it->second, row.mean);
  }
  Quality quality;
  quality.guessed_cells = best_guess.size();
  for (const exp::ResultRow& row : rows) {
    if (row.method.rfind("GRNA", 0) != 0) continue;
    quality.mses.push_back(row.mean);
    const auto it =
        best_guess.find(std::make_pair(row.dataset, row.dtarget_pct));
    if (it == best_guess.end()) continue;
    if (row.mean < it->second) ++quality.wins;
    quality.guess_ratios.push_back(row.mean / it->second);
  }
  return quality;
}

/// Seconds spent inside each wrapped public call of the traced driver.
struct Spans {
  double prepare = 0.0;
  double train = 0.0;
  double view = 0.0;
  double distill = 0.0;
  double grna_prepare = 0.0;
  double execute = 0.0;
  double finalize = 0.0;
  double baseline = 0.0;

  double Total() const {
    return prepare + train + view + distill + grna_prepare + execute +
           finalize + baseline;
  }
};

/// Runs `call` and adds its wall time to `*span`.
template <typename Call>
auto Timed(double* span, Call&& call) {
  const std::uint64_t start = NowNs();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    *span += SecondsSince(start);
  } else {
    auto out = call();
    *span += SecondsSince(start);
    return out;
  }
}

/// One traced cell value, in the runner's emission order.
struct CellValue {
  std::string dataset;
  int pct = 0;
  std::string method;
  double value = 0.0;
};

/// Drives one (plan, dataset, fraction) cell through the public calls the
/// runner makes for it, appending one value per attack.
core::Status TraceCell(const exp::ExperimentSpec& spec, const ModelPlan& plan,
                       const std::string& dataset,
                       const exp::PreparedData& prepared,
                       const exp::ModelHandle& model, double fraction,
                       const exp::ScaleConfig& scale, const GridSeeds& seeds,
                       Spans& spans, std::vector<CellValue>& values) {
  const int pct = FractionPct(fraction);
  core::Rng split_rng(core::DeriveSeed(spec.split_seed, /*trial=*/0));
  const vfl::fed::FeatureSplit split = vfl::fed::FeatureSplit::RandomFraction(
      prepared.train.num_features(), fraction, split_rng);
  VFL_ASSIGN_OR_RETURN(vfl::fed::VflScenario scenario, Timed(&spans.view, [&] {
                         return vfl::fed::TryMakeTwoPartyScenario(
                             prepared.x_pred, split, model.model.get());
                       }));
  exp::ChannelRequest request;
  request.scenario = &scenario;
  request.serving = spec.serving;
  request.query_budget = spec.serving.query_budget;
  VFL_ASSIGN_OR_RETURN(std::unique_ptr<vfl::fed::QueryChannel> channel,
                       Timed(&spans.view, [&] {
                         return exp::MakeChannel(spec.channels.front(),
                                                 std::move(request));
                       }));
  VFL_RETURN_IF_ERROR(
      Timed(&spans.view, [&] { return channel->CollectView(); }).status());

  // GRNA as the registry's runner configures it for trial 0.
  vfl::attack::GrnaConfig config = exp::MakeGrnaConfig(scale, seeds.grna);
  vfl::models::DifferentiableModel* target = model.differentiable;
  vfl::models::RfSurrogate surrogate;
  if (target == nullptr) {
    Timed(&spans.distill, [&] {
      surrogate.DistillConditioned(
          *model.model, channel->split().adv_columns(), channel->x_adv(),
          exp::MakeSurrogateConfig(scale, spec.seed));
    });
    target = &surrogate;
    // The runner's stronger default decay on the surrogate path.
    config.train.weight_decay = 5e-3;
  }
  vfl::attack::GenerativeRegressionNetworkAttack grna(target, config);
  VFL_RETURN_IF_ERROR(Timed(&spans.grna_prepare, [&] {
    return grna.Prepare(channel->split(), *channel);
  }));
  VFL_RETURN_IF_ERROR(Timed(&spans.execute, [&] { return grna.Execute(); }));
  VFL_ASSIGN_OR_RETURN(const vfl::la::Matrix inferred,
                       Timed(&spans.finalize, [&] { return grna.Finalize(); }));
  values.push_back({dataset, pct, plan.grna_label,
                    vfl::attack::MsePerFeature(
                        inferred, scenario.x_target_ground_truth)});

  if (plan.baselines) {
    using Distribution = vfl::attack::RandomGuessAttack::Distribution;
    for (const auto& [distribution, label] :
         {std::make_pair(Distribution::kUniform, "RG(Uniform)"),
          std::make_pair(Distribution::kGaussian, "RG(Gaussian)")}) {
      vfl::attack::RandomGuessAttack guess(distribution, seeds.guess);
      VFL_ASSIGN_OR_RETURN(
          const vfl::la::Matrix guessed,
          Timed(&spans.baseline, [&] { return guess.Run(*channel); }));
      values.push_back({dataset, pct, label,
                        vfl::attack::MsePerFeature(
                            guessed, scenario.x_target_ground_truth)});
    }
  }
  // Stack teardown belongs to the channel's cost.
  Timed(&spans.view, [&] { channel.reset(); });
  return core::Status::Ok();
}

core::Status TraceGrid(const std::vector<std::string>& datasets,
                       const exp::ScaleConfig& scale, const GridSeeds& seeds,
                       Spans& spans, std::vector<CellValue>& values) {
  for (const ModelPlan& plan : kPlans) {
    VFL_ASSIGN_OR_RETURN(const exp::ExperimentSpec spec,
                         BuildSpec(plan, datasets, seeds));
    for (const std::string& dataset : spec.datasets) {
      VFL_ASSIGN_OR_RETURN(const exp::PreparedData prepared,
                           Timed(&spans.prepare, [&] {
                             return exp::TryPrepareData(
                                 dataset, scale, spec.pred_fraction, spec.seed);
                           }));
      VFL_ASSIGN_OR_RETURN(const exp::ModelHandle model,
                           Timed(&spans.train, [&] {
                             return exp::TrainModel(spec.model, prepared.train,
                                                    spec.model_config, scale,
                                                    spec.seed);
                           }));
      for (const double fraction : spec.target_fractions) {
        VFL_RETURN_IF_ERROR(TraceCell(spec, plan, dataset, prepared, model,
                                      fraction, scale, seeds, spans, values));
      }
    }
  }
  return core::Status::Ok();
}

/// One grid pass through ExperimentRunner::Run; rows in emission order.
/// Counts the cells of every spec whose run failed in `result.failed`.
std::vector<exp::ResultRow> RunnerPass(const std::vector<std::string>& datasets,
                                       const exp::ScaleConfig& scale,
                                       const GridSeeds& seeds,
                                       std::size_t cells_per_plan,
                                       Result& result) {
  exp::ExperimentRunner runner(scale);
  exp::CollectSink sink;
  for (const ModelPlan& plan : kPlans) {
    core::StatusOr<exp::ExperimentSpec> spec = BuildSpec(plan, datasets, seeds);
    core::Status status = spec.ok() ? runner.Run(*spec, sink) : spec.status();
    if (!status.ok()) {
      result.failed += cells_per_plan;
      result.Check(false, std::string("runner pass on ") + plan.model + ": " +
                              status.ToString());
    }
  }
  return sink.rows();
}

}  // namespace

GridSeeds SeedsFor(std::uint64_t seed) {
  return {44 + seed, 3000 + seed, 55 + seed, 9 + seed};
}

Grid::Grid(std::vector<std::string> datasets, std::uint64_t seed)
    : datasets_(std::move(datasets)), seeds_(SeedsFor(seed)) {}

std::size_t Grid::cells() const {
  return std::size(kPlans) * datasets_.size() *
         exp::DefaultTargetFractions().size();
}

double Grid::SetUpOnce(Result& result) const {
  const std::uint64_t start = NowNs();
  for (const ModelPlan& plan : kPlans) {
    for (const std::string& dataset : datasets_) {
      core::StatusOr<exp::PreparedData> prepared =
          exp::TryPrepareData(dataset, scale_, 0.0, seeds_.data);
      result.Check(prepared.ok(), "setup data prep " + dataset);
      if (!prepared.ok()) continue;
      core::StatusOr<exp::ModelHandle> model = exp::TrainModel(
          plan.model, prepared->train, {}, scale_, seeds_.data);
      result.Check(model.ok(), std::string("setup training ") + plan.model);
    }
  }
  return SecondsSince(start);
}

double Grid::RunPass(Result& result) {
  const std::uint64_t start = NowNs();
  std::vector<exp::ResultRow> rows =
      RunnerPass(datasets_, scale_, seeds_, cells() / std::size(kPlans), result);
  const double seconds = SecondsSince(start);
  result.attempted += cells();
  pass_s_.push_back(seconds);
  std::string csv = CsvText(rows);
  if (pass_s_.size() == 1) {
    first_csv_ = std::move(csv);
    first_rows_ = std::move(rows);
  } else {
    result.Check(!csv.empty() && csv == first_csv_,
                 "runner CSV byte-identical across passes at one seed");
    bit_mismatches_ += BitMismatches(first_rows_, rows);
  }
  return seconds;
}

void Grid::ReportEndToEnd(Result& result) const {
  const Quality quality = QualityOf(first_rows_);
  result.Check(quality.mses.size() == cells(),
               "grid emits one GRNA row per cell");
  result.Check(quality.guessed_cells == cells() / std::size(kPlans),
               "grid emits random-guess rows for every (dataset, fraction)");
  std::printf("grid: %zu passes of %zu cells, median %.3f s (", pass_s_.size(),
              cells(), Median(pass_s_));
  for (std::size_t i = 0; i < pass_s_.size(); ++i) {
    std::printf(i == 0 ? "%.3f" : " %.3f", pass_s_[i]);
  }
  std::printf("); %zu rows differ from pass 1 below the CSV's precision; GRNA "
              "beats both random guesses on %zu of %zu cells\n",
              bit_mismatches_, quality.wins, quality.mses.size());
  result.Add("cells_per_s",
             static_cast<double>(cells()) / Median(pass_s_), "1/s",
             pass_s_.size());
}

void Grid::RunTraced(Result& result) {
  Spans spans;
  std::vector<CellValue> values;
  const std::uint64_t traced_start = NowNs();
  const core::Status traced = TraceGrid(datasets_, scale_, seeds_, spans,
                                        values);
  const double traced_s = SecondsSince(traced_start);
  result.Check(traced.ok(), "traced grid: " + traced.ToString());
  result.attempted += cells();
  if (!traced.ok()) result.failed += cells();

  const double runner_s = RunPass(result);
  const std::vector<exp::ResultRow>& rows = first_rows_;

  // The traced values, emitted through the runner's own rows.
  bool same_cells = values.size() == rows.size();
  std::vector<exp::ResultRow> traced_rows = rows;
  for (std::size_t i = 0; same_cells && i < rows.size(); ++i) {
    same_cells = values[i].dataset == rows[i].dataset &&
                 values[i].pct == rows[i].dtarget_pct &&
                 values[i].method == rows[i].method;
    traced_rows[i].mean = values[i].value;
  }
  result.Check(same_cells && CsvText(traced_rows) == CsvText(rows),
               "traced cell values reproduce the runner's CSV rows");

  const Quality quality = QualityOf(rows);
  const double other = traced_s - spans.Total();
  std::printf("grid traced: %.3f s, %.1f%% in named spans; runner %.3f s; %zu "
              "traced rows differ from the runner's below the CSV's "
              "precision; GRNA beats both random guesses on %zu of %zu "
              "cells\n",
              traced_s, 100.0 * spans.Total() / traced_s, runner_s,
              BitMismatches(traced_rows, rows), quality.wins,
              quality.mses.size());
  result.Add("data.prepare_s", spans.prepare, "s");
  result.Add("models.train_s", spans.train, "s");
  result.Add("fed.view_ms", spans.view * 1e3, "ms");
  result.Add("models.distill_s", spans.distill, "s");
  result.Add("attack.grna.prepare_s", spans.grna_prepare, "s");
  result.Add("attack.grna.execute_s", spans.execute, "s");
  result.Add("attack.grna.finalize_s", spans.finalize, "s");
  result.Add("attack.baseline_s", spans.baseline, "s");
  result.Add("attack.grna_mse", Mean(quality.mses), "mse",
             quality.mses.size());
  result.Add("attack.grna_guess_ratio", Median(quality.guess_ratios),
             "ratio", quality.guess_ratios.size());
  result.Add("exp.other_s", other, "s");
  result.Add("exp.other_pct", 100.0 * other / traced_s, "%");
  result.Add("exp.trace_overhead_pct", 100.0 * (traced_s / runner_s - 1.0),
             "%");
}

}  // namespace perfbench
