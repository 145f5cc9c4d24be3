#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <thread>

#include "la/cpu_features.h"
#include "obs/clock.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Result::Add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  Check(std::isfinite(value), "metric " + name + " is finite");
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Result::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  check_failures.push_back(what);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::uint64_t NowNs() { return vfl::obs::NowNanos(); }

double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

RegistryDelta::RegistryDelta()
    : before_(vfl::obs::MetricsRegistry::Global().Snapshot()) {}

void RegistryDelta::Stop() {
  after_ = vfl::obs::MetricsRegistry::Global().Snapshot();
}

vfl::obs::HistogramSnapshot RegistryDelta::Histogram(
    std::string_view name) const {
  vfl::obs::HistogramSnapshot delta = after_.HistogramOf(name);
  const vfl::obs::HistogramSnapshot before = before_.HistogramOf(name);
  for (std::size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] -= before.buckets[i];
  }
  delta.count -= before.count;
  delta.sum -= before.sum;
  return delta;
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const std::to_chars_result written =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, written.ptr);
}

std::string Quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string ResultJson(const Result& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) json += ", ";
    json += Quoted(metric.name) + ": {\"value\": " + Number(metric.value) +
            ", \"unit\": " + Quoted(metric.unit) + "}";
  }
  return json + "}}";
}

std::string MetaJson(const Options& options) {
  std::string json = "{\"workload\": " + Quoted(options.workload);
  json += ", \"seed\": " + std::to_string(options.seed);
  json += ", \"seconds\": " + Number(options.seconds);
  json += ", \"trace\": " + std::to_string(options.trace ? 1 : 0);
  json += ", \"git_sha\": " + Quoted(options.git_sha);
  json += ", \"src_digest\": " + Quoted(options.src_digest);
  json += ", \"cpu_model\": " + Quoted(CpuModel());
  json += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  json += ", \"la_kernel_path\": " +
          Quoted(vfl::la::KernelPathName(vfl::la::ActiveKernelPath()));
  json += ", \"build_type\": " + Quoted(PERFBENCH_BUILD_TYPE);
  json += ", \"vflfia_metrics\": ";
  json += vfl::obs::kMetricsEnabled ? "\"ON\"" : "\"OFF\"";
  return json + "}";
}

}  // namespace perfbench
