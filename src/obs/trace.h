#ifndef VFLFIA_OBS_TRACE_H_
#define VFLFIA_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.h"

namespace vfl::obs {

/// Per-request tracing: each wire request gets a TraceSpan stamped with its
/// wire request_id/client_id; the layers it crosses add per-stage timings
/// (socket read, decode, batcher queue wait, model forward, defense
/// pipeline, serialize/write) and scalar attributes (rows, fused batch
/// size). When the span finishes, one JSONL line goes to the installed
/// TraceSink. No sink installed (the default) means spans are never created
/// — tracing costs one null check per request.

/// Where finished spans go. Emit() may be called concurrently from every
/// connection handler; implementations serialize internally.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// `line` is one complete JSON object, no trailing newline.
  virtual void Emit(const std::string& line) = 0;
};

/// Appends JSONL to a file (or an already-open stream). Thread-safe.
class JsonlTraceSink : public TraceSink {
 public:
  /// Opens `path` for appending; a path that cannot be opened leaves the
  /// sink inert (ok() false) rather than failing the server.
  explicit JsonlTraceSink(const std::string& path);
  /// Borrows an open stream (e.g. stderr); never closes it.
  explicit JsonlTraceSink(std::FILE* stream);
  ~JsonlTraceSink() override;

  bool ok() const { return stream_ != nullptr; }
  void Emit(const std::string& line) override;

 private:
  std::mutex mu_;
  std::FILE* stream_ = nullptr;
  bool owns_stream_ = false;
};

/// Collects emitted lines in memory — test instrumentation.
class CapturingTraceSink : public TraceSink {
 public:
  void Emit(const std::string& line) override {
    std::lock_guard<std::mutex> lock(mu_);
    lines_.push_back(line);
  }
  std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

/// One request's trace. Stages accumulate nanoseconds (AddStageNs may be
/// called several times for one stage — e.g. queue wait summed over the
/// chunks of a fused fetch); attributes are last-write-wins scalars. Stage
/// and attribute writes may come from worker threads concurrently (two
/// batches of one request executing on different workers), hence the mutex —
/// spans only exist when a sink is installed, so the lock is off the
/// default hot path entirely.
///
/// Emits on Finish() (or destruction) as one JSONL object:
///   {"ts_ns":..., "kind":"predict", "request_id":7, "client_id":1,
///    "stages_ns":{"read":..., "decode":..., "queue_wait":...,
///                 "model_forward":..., "defense":..., "write":...},
///    "attrs":{"rows":64, "batch_rows":16}}
class TraceSpan {
 public:
  /// `sink` may be null: every method becomes a no-op and nothing emits.
  /// `start_ns` is the request's NowNanos() start; 0 means now.
  TraceSpan(TraceSink* sink, std::string_view kind, std::uint64_t request_id,
            std::uint64_t client_id, std::uint64_t start_ns = 0);
  ~TraceSpan() { Finish(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return sink_ != nullptr; }

  /// Accumulates `ns` into `stage` (created on first use, emitted in
  /// first-use order).
  void AddStageNs(std::string_view stage, std::uint64_t ns);
  /// Sets a scalar attribute (last write wins).
  void SetAttr(std::string_view key, std::uint64_t value);

  /// Emits the JSONL line once; later calls (and the destructor) are no-ops.
  void Finish();

 private:
  TraceSink* sink_;
  std::string kind_;
  std::uint64_t request_id_;
  std::uint64_t client_id_;
  std::uint64_t start_ns_;
  std::mutex mu_;
  std::vector<std::pair<std::string, std::uint64_t>> stages_;
  std::vector<std::pair<std::string, std::uint64_t>> attrs_;
};

}  // namespace vfl::obs

#endif  // VFLFIA_OBS_TRACE_H_
