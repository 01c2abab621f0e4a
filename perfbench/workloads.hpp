#pragma once
// The benchmark's workloads and the plumbing they share: run options, the
// recorder every workload reports its metrics and op tallies into, and the
// seeded set-up pieces (training data, the scan/serve CNN).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lhd/core/cnn_detector.hpp"
#include "lhd/synth/style.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget
  bool trace = false;     ///< traced run: per-layer metrics
  int setups = 5;         ///< set-up repetitions (untraced runs)
};

/// Collects what one workload run measured. Metric names are the ones in
/// BENCHMARK.json; main() selects the end-to-end or per-layer set.
class Recorder {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  double get(const std::string& name) const;

  /// Human-readable line printed before the result (timing summaries,
  /// named figures that are not benchmark metrics).
  void note(const std::string& line) { notes_.push_back(line); }
  void timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit);

  /// Ops attempted, and those that failed, were refused or were wrong.
  void ops(std::size_t attempted, std::size_t failed);
  void error(const std::string& message);

  struct Value {
    double value = 0.0;
    std::string unit;
  };
  const std::map<std::string, Value>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& errors() const { return errors_; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::map<std::string, Value> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> errors_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Runs `make` (RunOptions::setups times, once when tracing), records
/// setup_s as the median and returns the last state built.
template <class State>
std::unique_ptr<State> timed_setup(const RunOptions& opts, Recorder& rec,
                                   const std::function<std::unique_ptr<State>()>& make);

/// Independent sub-seed for one consumer of the run seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// Style of the scan chips, the serve clips and the model trained on them:
/// suite B2's jogged mixed-orientation routing.
lhd::synth::StyleConfig scan_style();

/// The CNN the scan and serve workloads run: trained from seed on freshly
/// labeled B2-style clips for a few epochs (scan and serve cost does not
/// depend on model quality). Its config is what a weight reload rebuilds.
struct ScanModel {
  lhd::core::CnnDetectorConfig config;
  std::shared_ptr<lhd::core::CnnDetector> detector;
};
ScanModel train_scan_model(std::uint64_t seed);

/// Detector the workload drives: the model itself, or a TracingDetector
/// around it in the traced run.
std::shared_ptr<const lhd::core::Detector> maybe_traced(
    std::shared_ptr<const lhd::core::Detector> inner, Tracer* tracer,
    DetectorTally& tally);

/// Feature and network cost per clip for the clips the detector saw,
/// replayed through extractor().extract and the network's batched forward.
void replay_feature_nn(lhd::core::CnnDetector& model,
                       const std::vector<lhd::data::Clip>& clips,
                       Tracer* tracer, Recorder& rec);

/// Detector-boundary per-layer metrics from a tally.
void record_detector(const DetectorTally::Snapshot& tally, double divisor,
                     Recorder& rec);

void run_scan_unique(const RunOptions& opts, Tracer* tracer, Recorder& rec);
void run_scan_reuse(const RunOptions& opts, Tracer* tracer, Recorder& rec);
void run_serve_mixed(const RunOptions& opts, Tracer* tracer, Recorder& rec);
void run_retrain(const RunOptions& opts, Tracer* tracer, Recorder& rec);

// --- template definitions -------------------------------------------------

template <class State>
std::unique_ptr<State> timed_setup(
    const RunOptions& opts, Recorder& rec,
    const std::function<std::unique_ptr<State>()>& make) {
  const int repeats = opts.trace ? 1 : std::max(1, opts.setups);
  std::vector<double> seconds;
  std::unique_ptr<State> state;
  for (int i = 0; i < repeats; ++i) {
    state.reset();  // drop the previous copy first: peak RSS sees one
    const auto t0 = std::chrono::steady_clock::now();
    state = make();
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  rec.timing("setup", seconds, "s");
  rec.set("setup_s", median(seconds), "s");
  return state;
}

}  // namespace perfbench
