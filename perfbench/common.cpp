#include <algorithm>
#include <cmath>
#include <sstream>

#include "lhd/nn/network.hpp"
#include "lhd/synth/builder.hpp"
#include "lhd/synth/suites.hpp"
#include "lhd/util/check.hpp"
#include "lhd/util/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lhd;

void Recorder::set(const std::string& name, double value,
                   const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

double Recorder::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  LHD_CHECK(it != metrics_.end(), "metric " + name + " was not recorded");
  return it->second.value;
}

void Recorder::timing(const std::string& name,
                      const std::vector<double>& samples,
                      const std::string& unit) {
  note(describe(name, timing_stats(samples), unit));
}

void Recorder::ops(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Recorder::error(const std::string& message) {
  // Keep the report readable when a defect fails every op.
  if (errors_.size() < 20) errors_.push_back(message);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): distinct streams decorrelate fully.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

synth::StyleConfig scan_style() { return synth::suite_by_name("B2").style; }

ScanModel train_scan_model(std::uint64_t seed) {
  ScanModel model;
  model.config.seed = sub_seed(seed, 1);
  model.config.train.epochs = 2;
  model.config.train.batch = 8;
  model.config.augment_factor = 1;
  const data::Dataset clips =
      synth::build_clips(scan_style(), 96, sub_seed(seed, 2), "setup_train");
  model.detector = std::make_shared<core::CnnDetector>("cnn", model.config);
  model.detector->train(clips);
  // Alarm on the top fifth of the training clips' scores, so every chip
  // has hits for the verifier to re-score whatever the model learned.
  std::vector<double> scores;
  for (const auto& clip : clips.clips()) {
    scores.push_back(model.detector->score(clip));
  }
  std::sort(scores.begin(), scores.end());
  model.detector->set_threshold(
      static_cast<float>(nearest_rank(scores, 0.8)));
  return model;
}

std::shared_ptr<const core::Detector> maybe_traced(
    std::shared_ptr<const core::Detector> inner, Tracer* tracer,
    DetectorTally& tally) {
  if (tracer == nullptr) return inner;
  return std::make_shared<TracingDetector>(std::move(inner), *tracer, tally);
}

void replay_feature_nn(core::CnnDetector& model,
                       const std::vector<data::Clip>& clips, Tracer* tracer,
                       Recorder& rec) {
  if (clips.empty()) {
    rec.set("feature.dct_us_per_clip", 0.0, "us");
    rec.set("nn.forward_us_per_clip", 0.0, "us");
    return;
  }
  constexpr std::size_t kBatch = 32;
  std::vector<std::vector<float>> rows;
  rows.reserve(clips.size());
  Stopwatch sw;
  {
    const ScopedSpan span(tracer, "feature.extract");
    for (const auto& clip : clips) rows.push_back(model.extractor().extract(clip));
  }
  const double extract_s = sw.seconds();
  const auto shape = model.extractor().shape();
  sw.reset();
  {
    const ScopedSpan span(tracer, "nn.forward_batch");
    for (std::size_t lo = 0; lo < rows.size(); lo += kBatch) {
      const std::size_t hi = std::min(rows.size(), lo + kBatch);
      const auto logits = model.network().forward_batch(
          std::span<const std::vector<float>>(rows.data() + lo, hi - lo),
          shape);
      LHD_CHECK(logits.size() > 0, "empty forward_batch output");
    }
  }
  const double forward_s = sw.seconds();
  const auto n = static_cast<double>(clips.size());
  rec.set("feature.dct_us_per_clip", 1e6 * extract_s / n, "us");
  rec.set("nn.forward_us_per_clip", 1e6 * forward_s / n, "us");
}

void record_detector(const DetectorTally::Snapshot& tally, double divisor,
                     Recorder& rec) {
  const double d = divisor > 0 ? divisor : 1.0;
  const auto calls = static_cast<double>(tally.calls);
  const auto clips = static_cast<double>(tally.clips);
  rec.set("detector.calls", calls / d, "count");
  rec.set("detector.clips", clips / d, "count");
  rec.set("detector.batch_mean", calls > 0 ? clips / calls : 0.0, "count");
  rec.set("detector.busy_s", tally.busy_s / d, "s");
  rec.set("detector.us_per_clip", clips > 0 ? 1e6 * tally.busy_s / clips : 0.0,
          "us");
  rec.set("detector.useful_ratio",
          clips > 0 ? static_cast<double>(tally.distinct) / clips : 0.0,
          "ratio");
}

}  // namespace perfbench
