// The serving phase of a workload: one closed-loop adversary issues 1-row
// QueryChannel::Query calls with accumulation off, so every query crosses
// the wire to a loopback "net" stack built by exp::MakeChannel with
// ServingSpec defaults and no defense. The stack serves lr trained on the
// workload's dataset (30% target features). Every served score row is
// checked bit for bit against the offline confidence table of the same
// scenario.
#ifndef VFLFIA_PERFBENCH_ADVERSARY_H_
#define VFLFIA_PERFBENCH_ADVERSARY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "exp/model_registry.h"
#include "exp/workload.h"
#include "fed/query_channel.h"
#include "fed/scenario.h"
#include "la/matrix.h"
#include "net/channel.h"
#include "obs/trace.h"
#include "report.h"

namespace perfbench {

/// The NetServer's per-request trace stages on a path with no defense.
inline constexpr std::array<const char*, 5> kStages = {
    "read", "decode", "queue_wait", "model_forward", "write"};

/// In-memory sink for the NetServer's per-request trace spans: keeps each
/// predict span's total and per-stage nanoseconds.
class SpanCollector : public vfl::obs::TraceSink {
 public:
  struct Span {
    std::uint64_t total_ns = 0;
    std::array<std::uint64_t, kStages.size()> stage_ns{};
  };

  void Emit(const std::string& line) override;
  void Clear();
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class Adversary {
 public:
  /// One set-up: data prep, target training and stack start. With `trace`
  /// the stack's NetServer emits its per-request spans to the adversary.
  static vfl::core::StatusOr<std::unique_ptr<Adversary>> Start(
      const std::string& dataset, std::uint64_t seed, bool trace);

  ~Adversary();

  /// Builds the offline reference table and the adversary's own client
  /// channel on the stack's port, then warms the connection.
  vfl::core::Status Connect(Result& result);

  /// Closed-loop queries: `windows` windows of kWindowSeconds each, after a
  /// short untimed warm-up.
  void RunWindows(int windows, Result& result);

  /// p50_us: the median over windows of each window's exact p50.
  void ReportEndToEnd(Result& result) const;

  /// Runs `windows` windows with tracing on, then control-plane scrapes;
  /// reports the serving path's per-layer metrics.
  void RunTraced(int windows, Result& result);

  static constexpr double kWindowSeconds = 0.5;

 private:
  Adversary() = default;

  /// One query; its round trip in microseconds, or a negative value when it
  /// failed or returned a wrong row.
  double Query();
  /// Checks the served rows and prints the closed loop's figures.
  void Summarize(Result& result) const;

  // Declared before the stack, so it outlives the server that emits to it.
  SpanCollector spans_;
  vfl::exp::PreparedData prepared_;
  vfl::exp::ModelHandle model_;
  vfl::fed::VflScenario scenario_;
  std::unique_ptr<vfl::fed::QueryChannel> stack_;
  vfl::net::NetChannel* net_ = nullptr;

  vfl::la::Matrix table_;
  std::unique_ptr<vfl::net::NetChannel> client_;
  vfl::core::Rng rng_{0};
  std::size_t wrong_rows_ = 0;

  std::vector<double> all_us_;
  std::vector<double> p50s_;
  std::vector<double> p99s_;
  std::vector<double> qps_;
};

}  // namespace perfbench

#endif  // VFLFIA_PERFBENCH_ADVERSARY_H_
