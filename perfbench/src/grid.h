// The GRNA phase of a workload: a slice of the fig7 grid (GRNA on lr/rf/mlp
// x the workload's datasets x six target fractions, "server" channel, one
// grid thread, small scale), run through exp::ExperimentRunner::Run exactly
// as bench_fig7_grna runs it.
#ifndef VFLFIA_PERFBENCH_GRID_H_
#define VFLFIA_PERFBENCH_GRID_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/result_sink.h"
#include "exp/workload.h"
#include "report.h"

namespace perfbench {

/// The grid's seeds, derived from --seed. Seed 0 reproduces bench_fig7_grna
/// (data 44, split 3000, GRNA 55, random guess 9); seed n adds n to each.
struct GridSeeds {
  std::uint64_t data;
  std::uint64_t split;
  std::uint64_t grna;
  std::uint64_t guess;
};

GridSeeds SeedsFor(std::uint64_t seed);

class Grid {
 public:
  Grid(std::vector<std::string> datasets, std::uint64_t seed);

  /// Cells of one pass: models x datasets x target fractions.
  std::size_t cells() const;

  /// Data prep plus target training for every (model, dataset) of the
  /// grid; returns its seconds.
  double SetUpOnce(Result& result) const;

  /// One runner pass. Checks its CSV against the first pass's and returns
  /// the pass's wall seconds.
  double RunPass(Result& result);

  /// cells_per_s over the median pass of the passes run; checks that the
  /// first pass emitted a GRNA row per cell and random guesses beside them.
  void ReportEndToEnd(Result& result) const;

  /// The traced driver over the same cells, each public call wrapped in a
  /// span, then one runner pass whose rows the traced values must
  /// reproduce; reports the grid's per-layer metrics.
  void RunTraced(Result& result);

 private:
  std::vector<std::string> datasets_;
  GridSeeds seeds_;
  /// bench_fig7_grna's scale: GetScale() under VFLFIA_SCALE=small.
  vfl::exp::ScaleConfig scale_;
  std::vector<vfl::exp::ResultRow> first_rows_;
  std::string first_csv_;
  std::vector<double> pass_s_;
  std::size_t bit_mismatches_ = 0;
};

}  // namespace perfbench

#endif  // VFLFIA_PERFBENCH_GRID_H_
