// Tests for the benchmark's own helpers: the percentile rule, the span
// arithmetic behind per-layer self time, and the output verifiers — which
// must reject a corrupted verdict and a corrupted score.
//
// Build and run: python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <cmath>

#include "lhd/core/scan.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "lhd/synth/suites.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "verify.hpp"

namespace perfbench {
namespace {

using namespace lhd;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(1000);
  EXPECT_EQ(nearest_rank(v, 0.5), 500);
  EXPECT_EQ(nearest_rank(v, 0.99), 990);
  EXPECT_EQ(nearest_rank(v, 1.0), 1000);
  EXPECT_EQ(nearest_rank({7.0}, 0.99), 7.0);
}

TEST(Percentile, P99NeedsTenSamplesBeyondIt) {
  EXPECT_TRUE(percentile_supported(1000, 0.99));   // 990th value, 10 beyond
  EXPECT_FALSE(percentile_supported(999, 0.99));   // 990th value, 9 beyond
  EXPECT_TRUE(percentile_supported(2000, 0.99));
  EXPECT_TRUE(percentile_supported(21, 0.5));
  EXPECT_FALSE(percentile_supported(0, 0.5));
}

TEST(Percentile, TimingStatsReportsHighestSupportedPercentile) {
  const TimingStats a = timing_stats(one_to(1000));
  EXPECT_EQ(a.count, 1000u);
  EXPECT_DOUBLE_EQ(a.median, 500.5);
  ASSERT_TRUE(a.has_tail);
  EXPECT_EQ(a.tail, 990);  // ten samples (991..1000) lie beyond it
  EXPECT_DOUBLE_EQ(a.tail_pct, 99.0);

  const TimingStats b = timing_stats(one_to(2000));
  EXPECT_EQ(b.tail, 1990);
  EXPECT_DOUBLE_EQ(b.tail_pct, 99.5);

  // Input order does not matter.
  auto shuffled = one_to(1000);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(timing_stats(shuffled).tail, 990);

  EXPECT_FALSE(timing_stats(one_to(10)).has_tail);
  const TimingStats c = timing_stats(one_to(11));
  ASSERT_TRUE(c.has_tail);
  EXPECT_EQ(c.tail, 1);
  EXPECT_FALSE(timing_stats({}).has_tail);
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(Trace, UnionOfIntervals) {
  EXPECT_DOUBLE_EQ(union_seconds({}), 0.0);
  EXPECT_DOUBLE_EQ(union_seconds({{0, 1}, {0.5, 2}, {3, 4}}), 3.0);
  EXPECT_DOUBLE_EQ(union_seconds({{3, 4}, {0, 1}, {1, 2}}), 3.0);
  EXPECT_DOUBLE_EQ(union_seconds({{0, 10}, {2, 3}}), 10.0);
}

TEST(Trace, SelfTimeSubtractsConcurrentChildrenOnce) {
  // A 10 s parent with two overlapping children (two shards) covering
  // [2, 6) and a non-overlapping one at [8, 9): 5 s covered, 5 s self.
  std::vector<Span> spans = {
      {"core.scan", 1, 0, 7, 0.0, 10.0},
      {"core.detector", 2, 1, 7, 2.0, 5.0},
      {"core.detector", 3, 1, 7, 3.0, 6.0},
      {"core.detector", 4, 1, 7, 8.0, 9.0},
      {"other", 5, 0, 7, 20.0, 21.0},
  };
  const auto totals = layer_totals(spans);
  EXPECT_DOUBLE_EQ(totals.at("core.scan").self_s, 5.0);
  EXPECT_DOUBLE_EQ(totals.at("core.detector").total_s, 7.0);
  EXPECT_DOUBLE_EQ(totals.at("core.detector").self_s, 7.0);
  EXPECT_EQ(totals.at("core.detector").count, 3u);
  EXPECT_DOUBLE_EQ(covered_by_children(spans, spans[0], "core.detector"), 5.0);
  EXPECT_DOUBLE_EQ(covered_by_children(spans, spans[0], "nothing"), 0.0);
}

TEST(Trace, NullTracerRecordsNothing) {
  const ScopedSpan span(nullptr, "x");
  EXPECT_EQ(span.id(), 0u);
}

TEST(Verify, SameBits) {
  EXPECT_TRUE(same_bits(0.25f, 0.25f));
  EXPECT_FALSE(same_bits(0.25f, std::nextafter(0.25f, 1.0f)));
  EXPECT_FALSE(same_bits(0.0f, -0.0f));
}

TEST(Verify, GridWindows) {
  EXPECT_EQ(grid_windows({0, 0, 2048, 2048}, 512), 16u);
  EXPECT_EQ(grid_windows({0, 0, 2049, 1024}, 512), 10u);
  EXPECT_EQ(grid_windows({}, 512), 0u);
}

/// Cheap deterministic detector whose score depends only on the clip's
/// canonical geometry (total area), as the dedup scan requires.
class AreaDetector final : public core::Detector {
 public:
  std::string name() const override { return "area"; }
  void train(const data::Dataset&) override {}
  float score(const data::Clip& clip) const override {
    double sum = 0.0;
    for (const auto& r : clip.rects) sum += static_cast<double>(r.area());
    return static_cast<float>(sum / (1024.0 * 1024.0));
  }
  bool predict(const data::Clip& clip) const override {
    return score(clip) > threshold_;
  }
  void set_threshold(float t) override { threshold_ = t; }
  float threshold() const override { return threshold_; }

 private:
  float threshold_ = 0.0f;
};

class ScanVerifierTest : public ::testing::Test {
 protected:
  ScanVerifierTest()
      : chip_(synth::build_chip(synth::suite_by_name("B2").style, 3, 3, 5, 0)),
        flat_(core::ChipIndex::from_library(chip_, "TOP", synth::kChipLayer)) {
    config_.dedup = true;
    config_.hierarchical = true;
    config_.threads = 2;
    // Flag roughly the denser half of the windows.
    detector_.set_threshold(0.2f);
    result_ = core::scan_library(chip_, "TOP", synth::kChipLayer, detector_,
                                 config_);
  }

  std::size_t check(const core::ScanResult& r) {
    ScanVerifier verifier(flat_, detector_, config_);
    errors_.clear();
    return verifier.check(r, 1, /*samples=*/1 << 20, errors_);
  }

  gds::Library chip_;
  core::ChipIndex flat_;
  AreaDetector detector_;
  core::ScanConfig config_;
  core::ScanResult result_;
  std::vector<std::string> errors_;
};

TEST_F(ScanVerifierTest, AcceptsTheScannersOutput) {
  ASSERT_FALSE(result_.hits.empty());
  ASSERT_LT(result_.hits.size(), result_.windows_total);
  EXPECT_EQ(check(result_), 0u) << (errors_.empty() ? "" : errors_.front());
}

TEST_F(ScanVerifierTest, RejectsACorruptedScore) {
  core::ScanResult bad = result_;
  bad.hits[bad.hits.size() / 2].score =
      std::nextafter(bad.hits[bad.hits.size() / 2].score, 10.0f);
  EXPECT_EQ(check(bad), 1u);
}

TEST_F(ScanVerifierTest, RejectsADroppedHit) {
  core::ScanResult bad = result_;
  bad.hits.erase(bad.hits.begin());
  EXPECT_EQ(check(bad), 1u);  // the window now re-scores above threshold
}

TEST_F(ScanVerifierTest, RejectsAFlippedVerdict) {
  // Flag a window the detector scores below the threshold.
  core::ChipIndex::QueryScratch scratch;
  core::ScanResult bad = result_;
  bool planted = false;
  for (geom::Coord y = flat_.extent().ylo; !planted && y < flat_.extent().yhi;
       y += config_.stride_nm) {
    for (geom::Coord x = flat_.extent().xlo;
         !planted && x < flat_.extent().xhi; x += config_.stride_nm) {
      const geom::Rect w{x, y, x + config_.window_nm, y + config_.window_nm};
      auto rects = flat_.query(w, scratch);
      if (rects.empty()) continue;
      const float s = detector_.score(
          canonical_window_clip(std::move(rects), config_.window_nm));
      if (s > detector_.threshold()) continue;
      bad.hits.push_back({w, s});
      planted = true;
    }
  }
  ASSERT_TRUE(planted);
  EXPECT_EQ(check(bad), 1u);
}

TEST_F(ScanVerifierTest, RejectsAWrongWindowCount) {
  core::ScanResult bad = result_;
  bad.windows_total += 1;
  EXPECT_EQ(check(bad), 1u);
}

TEST(Verify, ConfusionRecount) {
  data::Dataset ds("d");
  for (int i = 0; i < 4; ++i) {
    data::Clip c;
    c.label = i % 2 == 0 ? data::Label::Hotspot : data::Label::NonHotspot;
    ds.add(c);
  }
  const std::vector<bool> predictions = {true, true, false, false};
  const core::Confusion right = core::evaluate(predictions, ds);
  EXPECT_EQ(confusion_mismatches(predictions, ds, right), 0u);
  core::Confusion wrong = right;
  ++wrong.fp;
  --wrong.tn;
  EXPECT_EQ(confusion_mismatches(predictions, ds, wrong), 2u);
  EXPECT_EQ(confusion_mismatches({true}, ds, right), 4u);
}

}  // namespace
}  // namespace perfbench
