// Shared plumbing of the benchmark driver: run options, the result record
// that becomes the final JSON line, exact percentiles over raw samples, and
// registry deltas around a measured interval.
#ifndef VFLFIA_PERFBENCH_REPORT_H_
#define VFLFIA_PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  /// Measured time budget of the run.
  double seconds = 10.0;
  /// false: end-to-end metrics, tracing off. true: the traced per-layer pass.
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  /// Where the stamped result file goes; empty writes none.
  std::string out_path;
};

/// One named measurement. `samples` is the raw sample count behind a
/// percentile (0 when the value is not a percentile).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything a workload reports. A failed correctness check clears
/// `correct` and keeps the reason; the run finishes and reports anyway.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;

  void Add(std::string name, double value, std::string unit,
           std::size_t samples = 0);
  /// Records a correctness check; false marks the run incorrect.
  void Check(bool ok, const std::string& what);
};

/// Exact nearest-rank quantile of raw samples (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Monotonic nanoseconds from the benchmark's own clock, independent of the
/// VFLFIA_METRICS build switch.
std::uint64_t NowNs();
double SecondsSince(std::uint64_t start_ns);

/// Bit-for-bit equality of two doubles (NaN payloads included).
bool SameBits(double a, double b);

/// Histograms of MetricsRegistry::Global() read as the difference between a
/// snapshot taken at construction and one taken by Stop().
class RegistryDelta {
 public:
  RegistryDelta();
  void Stop();
  vfl::obs::HistogramSnapshot Histogram(std::string_view name) const;

 private:
  vfl::obs::MetricsSnapshot before_;
  vfl::obs::MetricsSnapshot after_;
};

/// Renders the final result line: exactly the keys correct, attempted,
/// failed and metrics.
std::string ResultJson(const Result& result);

/// The run's provenance: host, build and input identity.
std::string MetaJson(const Options& options);

}  // namespace perfbench

#endif  // VFLFIA_PERFBENCH_REPORT_H_
