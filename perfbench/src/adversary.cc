#include "adversary.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "exp/channel_registry.h"
#include "fed/feature_split.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

namespace core = vfl::core;
namespace exp = vfl::exp;
namespace fed = vfl::fed;
namespace la = vfl::la;
namespace net = vfl::net;
namespace obs = vfl::obs;

constexpr char kModel[] = "lr";
constexpr double kTargetFraction = 0.3;
/// Untimed queries before the first window and before each later block of
/// windows: the grid phase in between evicts the serving path's caches.
constexpr int kWarmupQueries = 100;
/// Control-plane scrapes in the traced pass; obs.scrape_ms is their median.
constexpr int kScrapes = 21;

std::uint64_t FieldAfter(const std::string& line, std::size_t from,
                         const std::string& key) {
  const std::size_t at = line.find(key, from);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size(), nullptr, 10);
}

double Us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

void ReportStages(const std::vector<SpanCollector::Span>& spans,
                  Result& result) {
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    std::vector<double> values;
    for (const SpanCollector::Span& span : spans) {
      values.push_back(Us(span.stage_ns[i]));
    }
    result.Add(std::string("net.stage.") + kStages[i] + "_us", Median(values),
               "us", values.size());
  }
  std::vector<double> other;
  for (const SpanCollector::Span& span : spans) {
    double staged = 0.0;
    for (const std::uint64_t ns : span.stage_ns) staged += Us(ns);
    other.push_back(Us(span.total_ns) - staged);
  }
  result.Add("net.stage.other_us", Median(other), "us", other.size());
}

}  // namespace

void SpanCollector::Emit(const std::string& line) {
  if (line.find("\"kind\":\"predict\"") == std::string::npos) return;
  Span span;
  span.total_ns = FieldAfter(line, 0, "\"total_ns\":");
  const std::size_t stages = line.find("\"stages_ns\":{");
  if (stages == std::string::npos) return;
  const std::size_t stages_end = line.find('}', stages);
  for (std::size_t i = 0; i < kStages.size(); ++i) {
    const std::string key = std::string("\"") + kStages[i] + "\":";
    const std::size_t at = line.find(key, stages);
    if (at < stages_end) span.stage_ns[i] = FieldAfter(line, at, key);
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void SpanCollector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::vector<SpanCollector::Span> SpanCollector::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

core::StatusOr<std::unique_ptr<Adversary>> Adversary::Start(
    const std::string& dataset, std::uint64_t seed, bool trace) {
  const exp::ScaleConfig scale;
  std::unique_ptr<Adversary> adversary(new Adversary());
  adversary->rng_ = core::Rng(core::DeriveSeed(seed, 1));
  VFL_ASSIGN_OR_RETURN(adversary->prepared_,
                       exp::TryPrepareData(dataset, scale, 0.0, 44 + seed));
  VFL_ASSIGN_OR_RETURN(adversary->model_,
                       exp::TrainModel(kModel, adversary->prepared_.train, {},
                                       scale, 44 + seed));
  core::Rng split_rng(core::DeriveSeed(3000 + seed, 0));
  const fed::FeatureSplit split = fed::FeatureSplit::RandomFraction(
      adversary->prepared_.train.num_features(), kTargetFraction, split_rng);
  VFL_ASSIGN_OR_RETURN(
      adversary->scenario_,
      fed::TryMakeTwoPartyScenario(adversary->prepared_.x_pred, split,
                                   adversary->model_.model.get()));
  exp::ChannelRequest request;
  request.scenario = &adversary->scenario_;
  if (trace) request.serving.trace_sink = &adversary->spans_;
  VFL_ASSIGN_OR_RETURN(adversary->stack_,
                       exp::MakeChannel("net", std::move(request)));
  adversary->net_ = dynamic_cast<net::NetChannel*>(adversary->stack_.get());
  if (adversary->net_ == nullptr || adversary->net_->backend() == nullptr) {
    return core::Status::Internal("net channel owns no serving stack");
  }
  return adversary;
}

Adversary::~Adversary() {
  // The client's connection closes before the server it talks to stops.
  client_.reset();
  stack_.reset();
}

core::Status Adversary::Connect(Result& result) {
  // The offline confidence table of the scenario, row = sample id: what
  // every served row must equal.
  exp::ChannelRequest request;
  request.scenario = &scenario_;
  VFL_ASSIGN_OR_RETURN(std::unique_ptr<fed::QueryChannel> offline,
                       exp::MakeChannel("offline", std::move(request)));
  VFL_ASSIGN_OR_RETURN(table_, offline->QueryAll());

  // The adversary's own channel on the stack's port: accumulation off, so
  // repeated ids are fetched over the wire again instead of from a notebook.
  // exp::ChannelRequest has no way to turn accumulation off.
  fed::ChannelOptions options;
  options.accumulate = false;
  client_ = std::make_unique<net::NetChannel>(
      net_->port(), scenario_.split, scenario_.x_adv, table_.cols(),
      model_.model.get(), std::move(options));
  for (int i = 0; i < 5 * kWarmupQueries; ++i) {
    ++result.attempted;
    if (Query() < 0.0) ++result.failed;
  }
  return core::Status::Ok();
}

double Adversary::Query() {
  const std::size_t id = rng_.UniformInt(table_.rows());
  const std::uint64_t start = NowNs();
  const core::StatusOr<la::Matrix> rows = client_->Query({id});
  const std::uint64_t end = NowNs();
  if (!rows.ok() || rows->rows() != 1) return -1.0;
  if (id >= table_.rows() ||
      std::memcmp(table_.RowPtr(id), rows->RowPtr(0),
                  table_.cols() * sizeof(double)) != 0) {
    ++wrong_rows_;
    return -1.0;
  }
  return Us(end - start);
}

void Adversary::RunWindows(int windows, Result& result) {
  if (windows <= 0) return;
  for (int i = 0; i < kWarmupQueries; ++i) {
    ++result.attempted;
    if (Query() < 0.0) ++result.failed;
  }
  for (int w = 0; w < windows; ++w) {
    std::vector<double> window_us;
    const std::uint64_t start = NowNs();
    double elapsed = 0.0;
    while (elapsed < kWindowSeconds) {
      const double us = Query();
      ++result.attempted;
      if (us < 0.0) {
        ++result.failed;
      } else {
        window_us.push_back(us);
      }
      elapsed = SecondsSince(start);
    }
    p50s_.push_back(Quantile(window_us, 0.50));
    p99s_.push_back(Quantile(window_us, 0.99));
    qps_.push_back(static_cast<double>(window_us.size()) / elapsed);
    all_us_.insert(all_us_.end(), window_us.begin(), window_us.end());
  }
}

void Adversary::Summarize(Result& result) const {
  result.Check(wrong_rows_ == 0, "every served row equals the offline table");
  std::printf("adversary: %zu queries, %.0f/s, p50 %.1f us, p99 %.1f us "
              "(medians of %zu windows)\n",
              all_us_.size(), Median(qps_), Median(p50s_), Median(p99s_),
              p50s_.size());
}

void Adversary::ReportEndToEnd(Result& result) const {
  Summarize(result);
  // Only the median is bounded: on a shared VM, host stalls of several
  // milliseconds come in bursts that last seconds, and during a burst the
  // closed loop's p99 and throughput measure the host. The traced pass
  // reports both.
  result.Add("p50_us", Median(p50s_), "us", all_us_.size());
}

void Adversary::RunTraced(int windows, Result& result) {
  spans_.Clear();
  RegistryDelta delta;
  RunWindows(windows, result);
  delta.Stop();
  const std::vector<SpanCollector::Span> spans = spans_.spans();

  std::vector<double> scrape_ms;
  for (int i = 0; i < kScrapes; ++i) {
    const std::uint64_t begin = NowNs();
    net::ScrapeOptions options;
    options.timeout = std::chrono::milliseconds(2000);
    const bool ok = net::ScrapeStats(net_->port(), options).ok();
    ++result.attempted;
    if (!ok) {
      ++result.failed;
      continue;
    }
    scrape_ms.push_back(static_cast<double>(NowNs() - begin) * 1e-6);
  }

  Summarize(result);
  result.Add("client.qps", Median(qps_), "1/s");
  result.Add("client.p99_us", Median(p99s_), "us", all_us_.size());
  // Percentiles of the NetServer's spans are exact; the registry's
  // histograms keep only bucket bounds, so they are read as means.
  std::vector<double> predict_us;
  for (const SpanCollector::Span& span : spans) {
    predict_us.push_back(Us(span.total_ns));
  }
  result.Add("net.predict_us.p50", Quantile(predict_us, 0.50), "us",
             predict_us.size());
  result.Add("net.predict_us.p99", Quantile(predict_us, 0.99), "us",
             predict_us.size());
  for (const char* name : {"queue_wait", "forward"}) {
    const obs::HistogramSnapshot stage =
        delta.Histogram(std::string("serve.") + name + "_ns");
    result.Add(std::string("serve.") + name + "_us.mean", stage.Mean() * 1e-3,
               "us", stage.count);
  }
  result.Add("net.wire_us",
             Quantile(all_us_, 0.50) - Quantile(predict_us, 0.50), "us");
  ReportStages(spans, result);
  result.Add("obs.scrape_ms", Median(scrape_ms), "ms", scrape_ms.size());
}

}  // namespace perfbench
