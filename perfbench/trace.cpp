#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "lhd/data/clip_hash.hpp"
#include "lhd/util/check.hpp"

namespace perfbench {

using lhd::MutexLock;

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Tracer::record(const Span& span) {
  const MutexLock lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::spans() const {
  const MutexLock lock(mutex_);
  return spans_;
}

void Tracer::set_ambient(std::uint64_t parent, std::uint64_t request) {
  ambient_parent_.store(parent);
  ambient_request_.store(request);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  LHD_CHECK(out.good(), "cannot write span file " + path);
  for (const Span& s : spans()) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_us\":" << static_cast<long long>(s.start * 1e6)
        << ",\"end_us\":" << static_cast<long long>(s.end * 1e6) << "}\n";
  }
  LHD_CHECK(out.good(), "short write to span file " + path);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name,
                       std::uint64_t parent, std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.request = request;
  span_.start = tracer_->now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = tracer_->now();
  tracer_->record(span_);
}

double union_seconds(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double lo = 0.0, hi = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) total += hi - lo;
    lo = a;
    hi = b;
    open = true;
  }
  if (open) total += hi - lo;
  return total;
}

namespace {

/// Union of the children's intervals clipped to `span` (children named
/// `child` only, when given).
double covered(const std::vector<const Span*>& children, const Span& span,
               const std::string* child) {
  std::vector<std::pair<double, double>> parts;
  for (const Span* s : children) {
    if (child != nullptr && *child != s->name) continue;
    parts.emplace_back(std::max(s->start, span.start),
                       std::min(s->end, span.end));
  }
  return union_seconds(std::move(parts));
}

std::vector<const Span*> children_of(const std::vector<Span>& spans,
                                     std::uint64_t id) {
  std::vector<const Span*> out;
  for (const Span& s : spans) {
    if (s.parent == id) out.push_back(&s);
  }
  return out;
}

}  // namespace

double covered_by_children(const std::vector<Span>& spans, const Span& span,
                           const std::string& child) {
  return covered(children_of(spans, span.id), span, &child);
}

std::map<std::string, LayerTotals> layer_totals(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  static const std::vector<const Span*> kNone;
  std::map<std::string, LayerTotals> out;
  for (const Span& s : spans) {
    LayerTotals& t = out[s.name];
    ++t.count;
    t.total_s += s.seconds();
    const auto it = children.find(s.id);
    t.self_s += s.seconds() -
                covered(it == children.end() ? kNone : it->second, s, nullptr);
  }
  return out;
}

void DetectorTally::record(std::span<const lhd::data::Clip> clips,
                           double seconds) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(clips.size());
  for (const auto& clip : clips) hashes.push_back(lhd::data::clip_hash(clip));
  const MutexLock lock(mutex_);
  ++totals_.calls;
  totals_.clips += clips.size();
  totals_.busy_s += seconds;
  hashes_.insert(hashes.begin(), hashes.end());
  totals_.distinct = hashes_.size();
  for (const auto& clip : clips) {
    if (captured_.size() >= kCapture) break;
    captured_.push_back(clip);
  }
}

DetectorTally::Snapshot DetectorTally::snapshot() const {
  const MutexLock lock(mutex_);
  return totals_;
}

void DetectorTally::reset() {
  const MutexLock lock(mutex_);
  totals_ = Snapshot{};
  hashes_.clear();
}

std::vector<lhd::data::Clip> DetectorTally::captured() const {
  const MutexLock lock(mutex_);
  return captured_;
}

TracingDetector::TracingDetector(
    std::shared_ptr<const lhd::core::Detector> inner, Tracer& tracer,
    DetectorTally& tally)
    : inner_(std::move(inner)), tracer_(tracer), tally_(tally) {
  LHD_CHECK(inner_ != nullptr, "TracingDetector needs a detector");
}

void TracingDetector::train(const lhd::data::Dataset&) {
  throw lhd::Error("TracingDetector is inference-only");
}

void TracingDetector::set_threshold(float) {
  throw lhd::Error("TracingDetector is inference-only");
}

float TracingDetector::score(const lhd::data::Clip& clip) const {
  const double t0 = tracer_.now();
  float s = 0.0f;
  {
    const ScopedSpan span(&tracer_, "core.detector", tracer_.ambient_parent(),
                          tracer_.ambient_request());
    s = inner_->score(clip);
  }
  tally_.record({&clip, 1}, tracer_.now() - t0);
  return s;
}

bool TracingDetector::predict(const lhd::data::Clip& clip) const {
  return score(clip) > threshold();
}

std::vector<float> TracingDetector::score_batch(
    std::span<const lhd::data::Clip> clips) const {
  const double t0 = tracer_.now();
  std::vector<float> out;
  {
    const ScopedSpan span(&tracer_, "core.detector", tracer_.ambient_parent(),
                          tracer_.ambient_request());
    out = inner_->score_batch(clips);
  }
  tally_.record(clips, tracer_.now() - t0);
  return out;
}

std::vector<bool> TracingDetector::predict_all(
    const lhd::data::Dataset& ds) const {
  const double t0 = tracer_.now();
  std::vector<bool> out;
  {
    const ScopedSpan span(&tracer_, "core.detector", tracer_.ambient_parent(),
                          tracer_.ambient_request());
    out = inner_->predict_all(ds);
  }
  tally_.record(ds.clips(), tracer_.now() - t0);
  return out;
}

}  // namespace perfbench
