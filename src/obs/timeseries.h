#ifndef VFLFIA_OBS_TIMESERIES_H_
#define VFLFIA_OBS_TIMESERIES_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/status.h"
#include "obs/metrics.h"

namespace vfl::obs {

class TelemetryLog;  // telemetry_log.h — forward-declared to break the cycle.

/// One instrument's contribution to a delta frame.
///
/// Counters carry the *delta* since the previous frame (so a rate is just
/// `delta / period`); gauges carry their current level; histograms carry the
/// bucket-wise delta of the registry's cumulative distribution, sparsely
/// (only buckets whose count moved), plus the delta count/sum — exactly the
/// increments recorded during the frame's period, so per-period percentiles
/// fall out of the frame alone.
struct TimeseriesPoint {
  std::string name;
  InstrumentType type = InstrumentType::kCounter;
  /// Counter: delta since previous frame. Gauge: current level.
  std::int64_t value = 0;
  /// Histogram only: recordings during the period and their summed values.
  std::uint64_t hist_count = 0;
  std::uint64_t hist_sum = 0;
  /// Histogram only: (bucket index, count delta) pairs, strictly ascending
  /// by index, deltas > 0, indices < kHistogramBuckets.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> hist_buckets;

  friend bool operator==(const TimeseriesPoint&,
                         const TimeseriesPoint&) = default;
};

/// One timestamped sample of every registered instrument, expressed as
/// deltas against the previous sample. `period_ns` is the wall/virtual time
/// the deltas accumulated over (the first frame's period is the time since
/// the collector was armed).
struct TimeseriesFrame {
  std::uint64_t seq = 0;
  std::uint64_t t_ns = 0;
  std::uint64_t period_ns = 0;
  /// Ordered by name (inherited from MetricsSnapshot).
  std::vector<TimeseriesPoint> points;

  friend bool operator==(const TimeseriesFrame&,
                         const TimeseriesFrame&) = default;

  /// Returns the named point, or nullptr.
  const TimeseriesPoint* Find(std::string_view name) const;

  /// Counter delta / period in events per second (0 when absent or the
  /// period is zero).
  double RatePerSec(std::string_view name) const;

  /// Percentile over this frame's histogram *delta* distribution — the
  /// latency quantile of just this period's recordings. Returns 0 when the
  /// point is absent, not a histogram, or recorded nothing this period.
  double HistogramPercentile(std::string_view name, double q) const;
};

/// Compact binary frame codec (varints from store/coding.h). The encoding is
/// self-delimiting and fully validated on decode: truncation, bad
/// magic/version, out-of-range or non-ascending bucket indices, bucket/count
/// mismatches, and trailing bytes all yield typed errors — these bytes cross
/// the wire and live in WAL records, so they are attacker/corruption input.
std::string EncodeTimeseriesFrame(const TimeseriesFrame& frame);
core::StatusOr<TimeseriesFrame> DecodeTimeseriesFrame(std::string_view bytes);

/// Diffs two name-ordered registry snapshots into a frame's points (seq and
/// timestamps are left zero for the caller). Counters carry `cur - prev`
/// (clamped at 0), gauges `cur`'s level, histograms the bucket-wise increase;
/// a point absent from `prev` counts from zero. `DiffSnapshots({}, s)` is
/// therefore the cumulative frame of `s` — the kGetStats payload.
TimeseriesFrame DiffSnapshots(const MetricsSnapshot& prev,
                              const MetricsSnapshot& cur);

/// Inverse of `DiffSnapshots({}, s)`: rebuilds the snapshot a cumulative
/// frame was taken from. A histogram point's value is its count. Units do
/// not travel in frames, so every point's unit comes back empty.
MetricsSnapshot SnapshotFromFrame(const TimeseriesFrame& frame);

/// Fixed-capacity history of the most recent frames. Thread-safe: the
/// collector thread pushes while scrape handlers read.
class TimeseriesRing {
 public:
  explicit TimeseriesRing(std::size_t capacity = 256);

  void Push(TimeseriesFrame frame);

  /// The most recent min(`max_frames`, size) frames, oldest first.
  /// `max_frames` == 0 means all retained frames.
  std::vector<TimeseriesFrame> Frames(std::size_t max_frames = 0) const;

  /// Frames ever pushed (≥ retained count once the ring wraps).
  std::uint64_t total_frames() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<TimeseriesFrame> frames_;
  std::uint64_t total_ = 0;
};

struct TimeseriesCollectorOptions {
  /// Background sampling period.
  std::chrono::milliseconds period{1000};
  /// Ring capacity in frames.
  std::size_t ring_capacity = 256;
  /// Registry to sample; nullptr = MetricsRegistry::Global().
  MetricsRegistry* registry = nullptr;
  /// Optional durable journal (borrowed; must outlive the collector). Every
  /// sampled frame is appended; journal failures are sticky in
  /// journal_status() and counted, but sampling continues.
  TelemetryLog* log = nullptr;
};

/// Background sampler: snapshots the registry every `period`, diffs against
/// the previous snapshot into a delta frame, pushes it into the ring, and
/// optionally journals it. `SampleNow`/`SampleAt` drive the same path
/// manually (tests, virtual-time simulation) and work even when the
/// background thread is compiled out under VFLFIA_OBS_DISABLED.
class TimeseriesCollector {
 public:
  explicit TimeseriesCollector(TimeseriesCollectorOptions options = {});
  ~TimeseriesCollector();

  TimeseriesCollector(const TimeseriesCollector&) = delete;
  TimeseriesCollector& operator=(const TimeseriesCollector&) = delete;

  /// Starts the background sampler thread. Idempotent. Under
  /// VFLFIA_OBS_DISABLED this is a no-op returning OK — the collector is
  /// compiled out along with the instruments it would sample.
  core::Status Start();

  /// Stops and joins the sampler thread (final sample is NOT taken — frames
  /// always correspond to full periods). Idempotent; the destructor calls it.
  void Stop();

  /// Takes one sample stamped with the steady clock now.
  TimeseriesFrame SampleNow();

  /// Takes one sample stamped `t_ns` (virtual-time callers). Serialized
  /// against the background thread.
  TimeseriesFrame SampleAt(std::uint64_t t_ns);

  const TimeseriesRing& ring() const { return ring_; }
  std::uint64_t frames_sampled() const { return frames_sampled_.Value(); }
  /// First journal append failure, sticky; OK while the journal is healthy
  /// (or absent).
  core::Status journal_status() const;

 private:
  void RunSampler();

  TimeseriesCollectorOptions options_;
  MetricsRegistry& registry_;
  TimeseriesRing ring_;

  /// Serializes SampleAt against itself and the background thread.
  mutable std::mutex sample_mutex_;
  MetricsSnapshot prev_;
  std::uint64_t prev_t_ns_ = 0;
  std::uint64_t next_seq_ = 1;
  core::Status journal_status_;

  std::mutex thread_mutex_;
  std::condition_variable stop_cv_;
  std::thread sampler_;
  bool running_ = false;
  bool stop_requested_ = false;

  /// ts.* instruments (registered on the sampled registry).
  Counter frames_sampled_;
  Counter frames_journaled_;
  Counter journal_errors_;
  LatencyHistogram sample_ns_;
  std::vector<MetricsRegistry::Registration> registrations_;
};

}  // namespace vfl::obs

#endif  // VFLFIA_OBS_TIMESERIES_H_
