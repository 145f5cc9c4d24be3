// The benchmark driver: runs one workload once and prints its metrics.
//
//   perfbench --workload bank_credit|drive_news --seed N --seconds S
//             --trace 0|1 [--git-sha SHA] [--src-digest HEX] [--out FILE]
//
// A workload picks the inputs; every workload runs the same two phases, so
// every workload reports every metric:
//   grid       its datasets' slice of the fig7 GRNA grid through
//              exp::ExperimentRunner (grid.h);
//   adversary  one closed-loop adversary issuing 1-row wire queries to a
//              "net" stack serving lr on its first dataset (adversary.h).
// Untraced, about two thirds of --seconds go to whole grid passes and one
// third to adversary windows, interleaved so that a burst of host noise
// lands on both phases alike. Traced, the grid runs once through the traced
// driver and once through the runner, then the adversary runs its windows.
//
// Standard output ends with one JSON line {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. The line before it is the run's metadata; --out writes both to
// a file. Exit status 0 only when every correctness check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "adversary.h"
#include "grid.h"
#include "report.h"

namespace {

using perfbench::Adversary;
using perfbench::Grid;
using perfbench::Result;

struct Workload {
  const char* name;
  /// The grid's datasets; the adversary's stack serves the first.
  std::vector<std::string> datasets;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"bank_credit", {"bank", "credit"}},
      {"drive_news", {"drive", "news"}},
  };
  return workloads;
}

/// Set-ups before an untraced run's first grid pass. One more follows each
/// grid pass and each block of adversary windows, so the set-ups sample the
/// host across the whole run; setup_s is their median.
constexpr int kInitialSetUps = 3;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "bank_credit|drive_news --seed N --seconds S --trace 0|1 "
               "[--git-sha SHA] [--src-digest HEX] [--out FILE]\n",
               message);
  return 2;
}

Result Run(const Workload& workload, const perfbench::Options& options) {
  Result result;
  Grid grid(workload.datasets, options.seed);
  std::vector<double> setups;
  // One set-up: the grid's data prep and target training, then the
  // adversary's data prep, target training and stack start.
  const auto set_up = [&]() -> std::unique_ptr<Adversary> {
    const std::uint64_t start = perfbench::NowNs();
    grid.SetUpOnce(result);
    auto started = Adversary::Start(workload.datasets.front(), options.seed,
                                    options.trace);
    setups.push_back(perfbench::SecondsSince(start));
    if (!started.ok()) {
      result.Check(false, "stack start: " + started.status().ToString());
      return nullptr;
    }
    return *std::move(started);
  };
  std::unique_ptr<Adversary> adversary;
  for (int i = 0; i < (options.trace ? 1 : kInitialSetUps); ++i) {
    adversary.reset();
    adversary = set_up();
    if (adversary == nullptr) return result;
  }
  const vfl::core::Status connected = adversary->Connect(result);
  if (!connected.ok()) {
    result.Check(false, "adversary connect: " + connected.ToString());
    return result;
  }

  const int windows = std::max(
      1, static_cast<int>(options.seconds / 3.0 / Adversary::kWindowSeconds));
  if (options.trace) {
    grid.RunTraced(result);
    adversary->RunTraced(windows, result);
    return result;
  }
  // The adversary's windows keep pace with the grid's passes.
  const double grid_budget_s = options.seconds * 2.0 / 3.0;
  double grid_s = 0.0;
  int passes = 0;
  int windows_run = 0;
  while (passes < 2 || grid_s < grid_budget_s) {
    grid_s += grid.RunPass(result);
    ++passes;
    set_up();
    const int due = std::min(
        windows, static_cast<int>(std::ceil(windows * grid_s / grid_budget_s)));
    adversary->RunWindows(due - windows_run, result);
    windows_run = std::max(windows_run, due);
    set_up();
  }
  adversary->RunWindows(windows - windows_run, result);

  result.Add("setup_s", perfbench::Median(setups), "s", setups.size());
  grid.ReportEndToEnd(result);
  adversary->ReportEndToEnd(result);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else if (flag == "--src-digest") {
      options.src_digest = value;
    } else if (flag == "--out") {
      options.out_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");
  const auto workload =
      std::find_if(Workloads().begin(), Workloads().end(),
                   [&](const Workload& w) { return options.workload == w.name; });
  if (workload == Workloads().end()) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  Result result = Run(*workload, options);
  if (result.attempted == 0) {
    result.Check(false, "the run attempted no work");
    result.attempted = 1;
    result.failed = 1;
  }

  for (const perfbench::Metric& metric : result.metrics) {
    if (metric.samples > 0) {
      std::printf("%-34s %16.6f %-8s n=%zu\n", metric.name.c_str(),
                  metric.value, metric.unit.c_str(), metric.samples);
    } else {
      std::printf("%-34s %16.6f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  const std::string meta = perfbench::MetaJson(options);
  const std::string line = perfbench::ResultJson(result);
  if (!options.out_path.empty()) {
    if (std::FILE* out = std::fopen(options.out_path.c_str(), "w")) {
      std::fprintf(out, "{\"meta\": %s, \"result\": %s}\n", meta.c_str(),
                   line.c_str());
      std::fclose(out);
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.out_path.c_str());
    }
  }
  std::printf("%s\n%s\n", meta.c_str(), line.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
