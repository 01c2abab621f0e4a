#pragma once
// Output verification the benchmark runs on every workload. A mismatch is
// an incorrect op: it is counted in the result's `failed` tally and makes
// the command exit non-zero.
//
// Scan: the window count must equal the grid the extent implies, the hit
// list must be identical across job repetitions, and a seeded sample of
// hit and non-hit windows is re-scored with Detector::score on the
// window's canonical clip (taken from an independently flattened index of
// the chip) — verdicts must agree and hit scores must be bit-equal.
// Serve: every Ok score-clip answer must be bit-equal to a direct score of
// the clip's canonical form. Retrain: the confusion matrix is recounted
// from predict_all against the labels.

#include <cstdint>
#include <string>
#include <vector>

#include "lhd/core/detector.hpp"
#include "lhd/core/metrics.hpp"
#include "lhd/core/scan.hpp"

namespace perfbench {

/// Bitwise float equality: a served or replayed score that differs from
/// the direct score in any bit is wrong.
bool same_bits(float a, float b);

/// Number of windows the scanner's grid enumerates over `extent`
/// (ceil(width / stride) * ceil(height / stride)).
std::size_t grid_windows(const lhd::geom::Rect& extent,
                         lhd::geom::Coord stride_nm);

/// The clip a window's detector call sees: window-local geometry in
/// canonical (translation-normalized, sorted) form.
lhd::data::Clip canonical_window_clip(std::vector<lhd::geom::Rect> rects,
                                      lhd::geom::Coord window_nm);

/// Checks scan results against a flattened index of the same layer.
class ScanVerifier {
 public:
  ScanVerifier(const lhd::core::ChipIndex& flat,
               const lhd::core::Detector& detector,
               const lhd::core::ScanConfig& config);

  std::size_t expected_windows() const { return expected_; }

  /// Appends one message per mismatch to `errors` and returns how many
  /// there were. Samples up to `samples` hit windows and `samples`
  /// non-hit grid windows, chosen by `seed`.
  std::size_t check(const lhd::core::ScanResult& result, std::uint64_t seed,
                    std::size_t samples, std::vector<std::string>& errors) const;

 private:
  const lhd::core::ChipIndex& flat_;
  const lhd::core::Detector& detector_;
  lhd::core::ScanConfig config_;
  std::size_t expected_ = 0;
};

/// Recount tp/fp/tn/fn from predictions against the labels; returns the
/// number of fields that disagree with `reported` (0 when it is right).
std::size_t confusion_mismatches(const std::vector<bool>& predictions,
                                 const lhd::data::Dataset& ds,
                                 const lhd::core::Confusion& reported);

}  // namespace perfbench
