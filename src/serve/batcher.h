#ifndef VFLFIA_SERVE_BATCHER_H_
#define VFLFIA_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <latch>
#include <mutex>
#include <vector>

#include "la/matrix.h"
#include "obs/metrics.h"

namespace vfl::obs {
class TraceSpan;
}  // namespace vfl::obs

namespace vfl::serve {

/// Completion shared by every queued row of one PredictBatch call. It lives
/// on the caller's stack: whichever thread executes a row (the caller while
/// it drains the queue, or a helper worker) writes it straight into `out`,
/// then counts it off `rows_left`. The caller returns once the count reaches
/// zero; an executing thread touches nothing of the request after its
/// count_down, so the caller may return at once.
struct RequestCompletion {
  RequestCompletion(std::uint64_t client_id, la::Matrix* out,
                    obs::TraceSpan* span, std::size_t rows)
      : client_id(client_id),
        out(out),
        span(span),
        rows_left(static_cast<std::ptrdiff_t>(rows)) {}

  const std::uint64_t client_id;
  la::Matrix* const out;
  /// Trace span of the wire request; null when tracing is off.
  obs::TraceSpan* const span;
  std::latch rows_left;
};

/// One queued row of a joint-prediction request.
struct BatchItem {
  RequestCompletion* request = nullptr;
  /// Row of `request->out` this item fills.
  std::size_t row = 0;
  std::size_t sample_id = 0;
  /// Cache key precomputed at submit time (sample id fused with the
  /// defense-config generation), so the execution path can insert the result
  /// without re-deriving it.
  std::uint64_t cache_key = 0;
  /// Stamped by Push(); per-item queue wait = pop time − submit_ns. Zero in
  /// metrics-disabled builds.
  std::uint64_t submit_ns = 0;
};

/// Work-conserving MPMC row queue. Producers Push() all the rows of one
/// request at once, waking no one: the producer drains the queue itself with
/// TryPopBatch(). A pop that leaves rows behind wakes one consumer blocked in
/// PopBatch(), so a large request fans out across helper threads. Every pop
/// takes everything queued, up to `max_batch_size` rows, without waiting for
/// more to arrive; batches thus grow with load and never sit on a timer.
/// Fusing queued rows into one Matrix forward pass is what amortizes
/// per-call model overhead.
class Batcher {
 public:
  /// `max_batch_size` == 0 means no cap. `depth_gauge`, when given, tracks
  /// the live queue depth across pushes and pops.
  explicit Batcher(std::size_t max_batch_size,
                   obs::Gauge* depth_gauge = nullptr);

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueues every item under one lock, contiguously and in order, without
  /// waking a consumer. Returns false when the batcher is closed, in which
  /// case no item was queued.
  bool Push(std::vector<BatchItem> items);

  /// Blocks until at least one row is queued, then takes up to
  /// max_batch_size rows in FIFO order. Returns an empty vector only when
  /// the batcher is closed and fully drained.
  std::vector<BatchItem> PopBatch();

  /// PopBatch() without the wait: empty when nothing is queued.
  std::vector<BatchItem> TryPopBatch();

  /// Rejects future pushes and wakes all blocked consumers. Queued rows
  /// remain poppable until drained.
  void Close();

  std::size_t max_batch_size() const { return max_batch_size_; }

  /// Current queue depth (diagnostics).
  std::size_t depth() const;

 private:
  /// Takes a batch under `lock`, unlocks, and wakes a consumer for leftovers.
  std::vector<BatchItem> Take(std::unique_lock<std::mutex>& lock);

  const std::size_t max_batch_size_;
  obs::Gauge* const depth_gauge_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<BatchItem> queue_;
  bool closed_ = false;
};

}  // namespace vfl::serve

#endif  // VFLFIA_SERVE_BATCHER_H_
