#pragma once
// Tracing for the benchmark's traced run: spans recorded in memory around
// the benchmark's calls into each module's public functions, written out
// as JSON lines when the run ends, plus a forwarding Detector that records
// what crosses the detector boundary.
//
// A span is (name, start, end, id, parent, request). Spans of one job or
// request share its request id. Scan shards call the detector on pool
// threads the benchmark does not own, so the tracer carries an *ambient*
// parent/request that the job loop sets before calling into the scan;
// detector spans opened anywhere adopt it.
//
// With a null Tracer every helper here is a no-op, which is how the
// untraced run measures the end-to-end metrics.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lhd/core/detector.hpp"
#include "lhd/util/thread_annotations.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: the layer boundary crossed
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< job / request the span belongs to
  double start = 0.0;         ///< seconds since the tracer's epoch
  double end = 0.0;

  double seconds() const { return end - start; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double now() const;
  std::uint64_t next_id() { return next_id_.fetch_add(1); }
  void record(const Span& span);
  std::vector<Span> spans() const;

  void set_ambient(std::uint64_t parent, std::uint64_t request);
  std::uint64_t ambient_parent() const { return ambient_parent_.load(); }
  std::uint64_t ambient_request() const { return ambient_request_.load(); }

  /// One JSON object per line: name, id, parent, request, start_us, end_us.
  void write_jsonl(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> ambient_parent_{0};
  std::atomic<std::uint64_t> ambient_request_{0};
  mutable lhd::Mutex mutex_;
  std::vector<Span> spans_ LHD_GUARDED_BY(mutex_);
};

/// RAII span. A null tracer makes construction and destruction free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent = 0,
             std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Length of the union of [first, second) intervals.
double union_seconds(std::vector<std::pair<double, double>> intervals);

/// Per-span-name totals over a span set.
struct LayerTotals {
  std::size_t count = 0;
  double total_s = 0.0;  ///< sum of durations (thread-seconds)
  /// Sum over spans of duration minus the part of it that the span's
  /// children cover (children may overlap each other across threads).
  double self_s = 0.0;
};

std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans);

/// Wall time within `span` covered by its direct children named `child`.
double covered_by_children(const std::vector<Span>& spans, const Span& span,
                           const std::string& child);

/// Counts at the detector boundary, shared by every TracingDetector of a
/// run (the serve workload rebuilds its detector on each weight reload).
class DetectorTally {
 public:
  struct Snapshot {
    std::uint64_t calls = 0;
    std::uint64_t clips = 0;
    std::uint64_t distinct = 0;  ///< distinct canonical clips scored
    double busy_s = 0.0;         ///< thread-seconds inside the detector
  };

  /// Scored clips kept for the feature/nn replay.
  static constexpr std::size_t kCapture = 256;

  void record(std::span<const lhd::data::Clip> clips, double seconds);
  Snapshot snapshot() const;
  /// Zero the totals; captured clips are kept (the first ones of the run).
  void reset();
  std::vector<lhd::data::Clip> captured() const;

 private:
  mutable lhd::Mutex mutex_;
  Snapshot totals_ LHD_GUARDED_BY(mutex_);
  std::unordered_set<std::uint64_t> hashes_ LHD_GUARDED_BY(mutex_);
  std::vector<lhd::data::Clip> captured_ LHD_GUARDED_BY(mutex_);
};

/// Forwarding Detector used only in the traced run: every score call
/// becomes a "core.detector" span under the tracer's ambient parent and is
/// tallied. Inference-only — train() and set_threshold() throw.
class TracingDetector final : public lhd::core::Detector {
 public:
  TracingDetector(std::shared_ptr<const lhd::core::Detector> inner,
                  Tracer& tracer, DetectorTally& tally);

  std::string name() const override { return inner_->name(); }
  void train(const lhd::data::Dataset& train_set) override;
  float score(const lhd::data::Clip& clip) const override;
  bool predict(const lhd::data::Clip& clip) const override;
  std::vector<float> score_batch(
      std::span<const lhd::data::Clip> clips) const override;
  std::vector<bool> predict_all(const lhd::data::Dataset& ds) const override;
  void set_threshold(float threshold) override;
  float threshold() const override { return inner_->threshold(); }

 private:
  std::shared_ptr<const lhd::core::Detector> inner_;
  Tracer& tracer_;
  DetectorTally& tally_;
};

}  // namespace perfbench
