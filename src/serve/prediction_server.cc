#include "serve/prediction_server.h"

#include <cstdio>
#include <utility>

#include "core/check.h"
#include "store/audit_trail.h"

namespace vfl::serve {

namespace {

/// The auditor inherits the server's registry unless its config names one.
QueryAuditorConfig WithRegistry(QueryAuditorConfig auditor,
                                obs::MetricsRegistry* metrics) {
  if (auditor.metrics == nullptr) auditor.metrics = metrics;
  return auditor;
}

}  // namespace

PredictionServer::PredictionServer(const models::Model* model,
                                   std::vector<const fed::Party*> parties,
                                   PredictionServerConfig config)
    : model_(model),
      parties_(std::move(parties)),
      config_(config),
      auditor_(WithRegistry(config.auditor, config.metrics)) {
  CHECK(model_ != nullptr);
  CHECK(!parties_.empty());
  num_samples_ = parties_.front()->num_samples();
  std::vector<bool> covered(model_->num_features(), false);
  std::size_t total_columns = 0;
  for (const fed::Party* party : parties_) {
    CHECK(party != nullptr);
    CHECK_EQ(party->num_samples(), num_samples_)
        << "parties must hold aligned samples";
    for (const std::size_t col : party->columns()) {
      CHECK_LT(col, covered.size());
      CHECK(!covered[col]) << "column " << col << " owned by two parties";
      covered[col] = true;
      ++total_columns;
    }
  }
  CHECK_EQ(total_columns, model_->num_features())
      << "party columns must cover the model feature space";

  if (config_.cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(config_.cache_capacity,
                                           config_.cache_shards);
  }
  batcher_ = std::make_unique<Batcher>(config_.max_batch_size, &queue_depth_);
  if (config_.num_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    for (std::size_t i = 0; i < config_.num_threads; ++i) {
      CHECK(pool_->Submit([this] { WorkerLoop(); }));
    }
  }

  if (!config_.audit_wal_dir.empty()) {
    core::StatusOr<std::unique_ptr<store::AuditLogWriter>> writer =
        store::AuditLogWriter::Start(store::Env::Posix(), auditor_,
                                     config_.audit_wal_dir);
    if (writer.ok()) {
      audit_log_ = std::move(*writer);
    } else {
      // Persistence is best-effort from the server's point of view: a bad
      // directory must not take serving down, but it must not be silent.
      std::fprintf(stderr,
                   "[vfl] warning: audit WAL '%s' failed to open (%s); "
                   "serving without audit persistence\n",
                   config_.audit_wal_dir.c_str(),
                   writer.status().message().c_str());
    }
  }

  obs::MetricsRegistry& registry = config_.metrics != nullptr
                                       ? *config_.metrics
                                       : obs::MetricsRegistry::Global();
  registrations_.push_back(registry.RegisterCounter(
      "serve.predictions_served", "predictions", &predictions_served_));
  registrations_.push_back(registry.RegisterCounter(
      "serve.model_batches", "batches", &model_batches_));
  registrations_.push_back(
      registry.RegisterCounter("serve.model_rows", "rows", &model_rows_));
  registrations_.push_back(
      registry.RegisterHistogram("serve.forward_ns", "ns", &forward_ns_));
  registrations_.push_back(
      registry.RegisterHistogram("serve.defense_ns", "ns", &defense_ns_));
  registrations_.push_back(registry.RegisterHistogram("serve.queue_wait_ns",
                                                      "ns", &queue_wait_ns_));
  registrations_.push_back(
      registry.RegisterHistogram("serve.batch_rows", "rows", &batch_rows_));
  registrations_.push_back(registry.RegisterGauge("serve.queue_depth",
                                                  "requests", &queue_depth_));
  if (cache_ != nullptr) {
    registrations_.push_back(registry.RegisterCounter(
        "serve.cache_hits", "hits", cache_->hits_counter()));
    registrations_.push_back(registry.RegisterCounter(
        "serve.cache_misses", "misses", cache_->misses_counter()));
    registrations_.push_back(registry.RegisterCounter(
        "serve.cache_evictions", "evictions", cache_->evictions_counter()));
  }
}

PredictionServer::~PredictionServer() {
  batcher_->Close();
  if (pool_) pool_->Shutdown();
}

std::uint64_t PredictionServer::RegisterClient(std::string name) {
  return auditor_.RegisterClient(std::move(name));
}

void PredictionServer::SetQueryBudget(std::uint64_t client_id,
                                      std::uint64_t budget) {
  auditor_.SetBudget(client_id, budget);
}

std::uint64_t PredictionServer::CacheKeyFor(std::size_t sample_id) const {
  return (defense_generation_.load(std::memory_order_acquire) << 32) ^
         static_cast<std::uint64_t>(sample_id);
}

core::Result<std::vector<double>> PredictionServer::Predict(
    std::uint64_t client_id, std::size_t sample_id) {
  core::Result<la::Matrix> rows = PredictBatch(client_id, {sample_id});
  if (!rows.ok()) return rows.status();
  return rows->Row(0);
}

core::Result<la::Matrix> PredictionServer::PredictBatch(
    std::uint64_t client_id, const std::vector<std::size_t>& sample_ids,
    obs::TraceSpan* span) {
  for (const std::size_t id : sample_ids) {
    if (id >= num_samples_) {
      return core::Status::OutOfRange(
          "sample id " + std::to_string(id) + " >= " +
          std::to_string(num_samples_) + " aligned samples");
    }
  }
  VFL_RETURN_IF_ERROR(auditor_.Admit(client_id, sample_ids.size()));

  la::Matrix out(sample_ids.size(), num_classes());
  std::vector<BatchItem> misses;

  std::size_t cache_hits = 0;
  for (std::size_t row = 0; row < sample_ids.size(); ++row) {
    const std::size_t sample_id = sample_ids[row];
    const std::uint64_t cache_key = CacheKeyFor(sample_id);
    if (cache_ != nullptr) {
      std::vector<double> cached;
      if (cache_->Get(cache_key, &cached)) {
        out.SetRow(row, cached);
        ++cache_hits;
        continue;
      }
    }
    BatchItem item;
    item.row = row;
    item.sample_id = sample_id;
    item.cache_key = cache_key;
    misses.push_back(item);
  }
  if (cache_hits > 0) {
    auditor_.RecordServedEach(client_id, cache_hits);
    predictions_served_.Add(cache_hits);
  }

  RequestCompletion request(client_id, &out, span, misses.size());
  for (BatchItem& item : misses) item.request = &request;
  // One push that wakes no one: this thread drains the queue itself, so a
  // small request runs here without a hand-off. An empty queue means this
  // request's remaining rows are executing on helpers or other callers.
  if (!misses.empty() && !batcher_->Push(std::move(misses))) {
    return core::Status::FailedPrecondition("prediction server is shut down");
  }
  while (!request.rows_left.try_wait()) {
    const std::vector<BatchItem> batch = batcher_->TryPopBatch();
    if (batch.empty()) {
      request.rows_left.wait();
      break;
    }
    ExecuteBatch(batch);
  }

  if (span != nullptr) {
    span->SetAttr("rows", sample_ids.size());
    span->SetAttr("cache_hits", cache_hits);
  }
  return out;
}

core::Result<la::Matrix> PredictionServer::PredictAll(
    std::uint64_t client_id) {
  std::vector<std::size_t> ids(num_samples_);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return PredictBatch(client_id, ids);
}

void PredictionServer::AddOutputDefense(
    std::unique_ptr<fed::OutputDefense> defense) {
  CHECK(defense != nullptr);
  {
    std::lock_guard<std::mutex> lock(defense_mu_);
    defenses_.push_back(std::move(defense));
  }
  defense_generation_.fetch_add(1, std::memory_order_release);
  // Every cached vector predates the new defense config; drop them so future
  // queries re-run the protocol under the new transformation.
  if (cache_ != nullptr) cache_->Clear();
}

void PredictionServer::WorkerLoop() {
  for (;;) {
    const std::vector<BatchItem> batch = batcher_->PopBatch();
    if (batch.empty()) return;
    ExecuteBatch(batch);
  }
}

void PredictionServer::ExecuteBatch(std::span<const BatchItem> items) {
  if (items.empty()) return;
  // A request's rows sit contiguously in the queue, so a batch is a sequence
  // of runs, each belonging to one request and sharing one submit time.
  // Stages, completion, and span attributes are accounted once per run.
  std::vector<std::span<const BatchItem>> runs;
  for (std::size_t begin = 0; begin < items.size();) {
    std::size_t end = begin + 1;
    while (end < items.size() && items[end].request == items[begin].request) {
      ++end;
    }
    runs.push_back(items.subspan(begin, end - begin));
    begin = end;
  }

  // Queue wait: time between Push() and this thread popping the batch.
  // Metrics-disabled builds record nothing.
  const std::uint64_t pop_ns = obs::MetricsNowNanos();
  if (pop_ns != 0) {
    for (const std::span<const BatchItem> run : runs) {
      const std::uint64_t submit_ns = run.front().submit_ns;
      const std::uint64_t wait_ns =
          pop_ns >= submit_ns ? pop_ns - submit_ns : 0;
      for (std::size_t i = 0; i < run.size(); ++i) {
        queue_wait_ns_.Record(wait_ns);
      }
      if (run.front().request->span != nullptr) {
        run.front().request->span->AddStageNs("queue_wait", wait_ns);
      }
    }
  }
  // Assemble the joint feature rows inside the protocol boundary: the fused
  // matrix exists only on this stack frame and is never revealed.
  la::Matrix batch(items.size(), model_->num_features());
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (const fed::Party* party : parties_) {
      const std::vector<double> values =
          party->ProvideFeatures(items[i].sample_id);
      const std::vector<std::size_t>& columns = party->columns();
      for (std::size_t j = 0; j < columns.size(); ++j) {
        batch(i, columns[j]) = values[j];
      }
    }
  }
  const std::uint64_t forward_start_ns = obs::MetricsNowNanos();
  const la::Matrix proba = model_->PredictProba(batch);
  const std::uint64_t forward_ns = obs::MetricsNowNanos() - forward_start_ns;
  CHECK_EQ(proba.rows(), items.size());
  // Counters update before any request completes so that a stats() snapshot
  // taken right after PredictBatch returns already covers this batch.
  model_batches_.Add();
  model_rows_.Add(items.size());
  forward_ns_.Record(forward_ns);
  batch_rows_.Record(items.size());
  if (obs::kMetricsEnabled) {
    // The forward pass is shared by every row in the fused batch; attribute
    // an equal share per row to each request's span.
    const std::uint64_t per_row_ns = forward_ns / items.size();
    for (const std::span<const BatchItem> run : runs) {
      obs::TraceSpan* span = run.front().request->span;
      if (span != nullptr) {
        span->AddStageNs("model_forward", per_row_ns * run.size());
        span->SetAttr("batch_rows", items.size());
      }
    }
  }

  const bool have_defenses =
      defense_generation_.load(std::memory_order_acquire) > 0;
  {
    // Defenses may be stateful (e.g., a seeded noise stream); applying them
    // under one lock, in queue order within the batch, keeps the revealed
    // stream well-defined. The lock is skipped while no defense is installed.
    std::unique_lock<std::mutex> lock(defense_mu_, std::defer_lock);
    if (have_defenses) lock.lock();
    for (std::size_t i = 0; i < items.size(); ++i) {
      const BatchItem& item = items[i];
      std::vector<double> scores = proba.Row(i);
      if (have_defenses) {
        const std::uint64_t defense_start_ns = obs::MetricsNowNanos();
        for (const std::unique_ptr<fed::OutputDefense>& defense : defenses_) {
          scores = defense->Apply(scores);
          CHECK_EQ(scores.size(), model_->num_classes())
              << "defense must preserve the score vector length";
        }
        const std::uint64_t defense_ns =
            obs::MetricsNowNanos() - defense_start_ns;
        defense_ns_.Record(defense_ns);
        if (item.request->span != nullptr) {
          item.request->span->AddStageNs("defense", defense_ns);
        }
      }
      if (cache_ != nullptr) cache_->Put(item.cache_key, scores);
      predictions_served_.Add();
      item.request->out->SetRow(item.row, scores);
    }
  }
  // Last: a finished request may return and free its completion at once.
  // The auditor's lock is taken once per request run, not once per row.
  for (const std::span<const BatchItem> run : runs) {
    RequestCompletion& request = *run.front().request;
    auditor_.RecordServedEach(request.client_id, run.size());
    request.rows_left.count_down(static_cast<std::ptrdiff_t>(run.size()));
  }
}

PredictionServerStats PredictionServer::stats() const {
  PredictionServerStats stats;
  stats.predictions_served = predictions_served_.Value();
  stats.model_batches = model_batches_.Value();
  stats.model_rows = model_rows_.Value();
  if (cache_ != nullptr) {
    stats.cache_hits = cache_->hits();
    stats.cache_misses = cache_->misses();
  }
  stats.mean_batch_size =
      stats.model_batches == 0
          ? 0.0
          : static_cast<double>(stats.model_rows) /
                static_cast<double>(stats.model_batches);
  return stats;
}

}  // namespace vfl::serve
