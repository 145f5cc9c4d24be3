#include "serve/batcher.h"

#include <algorithm>

namespace vfl::serve {

Batcher::Batcher(std::size_t max_batch_size, obs::Gauge* depth_gauge)
    : max_batch_size_(max_batch_size), depth_gauge_(depth_gauge) {}

bool Batcher::Push(std::vector<BatchItem> items) {
  const std::uint64_t now_ns = obs::MetricsNowNanos();
  for (BatchItem& item : items) item.submit_ns = now_ns;
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return false;
  queue_.insert(queue_.end(), items.begin(), items.end());
  // Gauge moves under the lock so it never reads negative.
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Add(static_cast<std::int64_t>(items.size()));
  }
  return true;
}

std::vector<BatchItem> Batcher::PopBatch() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  return Take(lock);  // empty only when closed and drained
}

std::vector<BatchItem> Batcher::TryPopBatch() {
  std::unique_lock<std::mutex> lock(mu_);
  return Take(lock);
}

std::vector<BatchItem> Batcher::Take(std::unique_lock<std::mutex>& lock) {
  const std::size_t take = max_batch_size_ == 0
                               ? queue_.size()
                               : std::min(queue_.size(), max_batch_size_);
  std::vector<BatchItem> batch(queue_.begin(), queue_.begin() + take);
  queue_.erase(queue_.begin(), queue_.begin() + take);
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Add(-static_cast<std::int64_t>(take));
  }
  const bool leftovers = !queue_.empty();
  lock.unlock();
  // Leftovers form the next batch; wake a helper for them while this thread
  // executes its own.
  if (leftovers) cv_.notify_one();
  return batch;
}

void Batcher::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t Batcher::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace vfl::serve
