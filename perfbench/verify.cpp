#include "verify.hpp"

#include <cstring>
#include <sstream>
#include <unordered_map>

#include "lhd/data/clip_hash.hpp"
#include "lhd/util/check.hpp"
#include "lhd/util/rng.hpp"

namespace perfbench {

using lhd::geom::Coord;
using lhd::geom::Rect;

bool same_bits(float a, float b) {
  std::uint32_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

std::size_t grid_windows(const Rect& extent, Coord stride_nm) {
  LHD_CHECK(stride_nm > 0, "stride must be positive");
  if (extent.empty()) return 0;
  const auto steps = [&](Coord size) {
    return static_cast<std::size_t>((static_cast<std::int64_t>(size) +
                                     stride_nm - 1) /
                                    stride_nm);
  };
  return steps(extent.width()) * steps(extent.height());
}

lhd::data::Clip canonical_window_clip(std::vector<Rect> rects,
                                      Coord window_nm) {
  const lhd::data::CanonicalClip canon =
      lhd::data::canonical_clip(std::move(rects), window_nm);
  lhd::data::Clip clip;
  clip.rects = canon.rects;
  clip.window_nm = canon.window_nm;
  return clip;
}

ScanVerifier::ScanVerifier(const lhd::core::ChipIndex& flat,
                           const lhd::core::Detector& detector,
                           const lhd::core::ScanConfig& config)
    : flat_(flat),
      detector_(detector),
      config_(config),
      expected_(grid_windows(flat.extent(), config.stride_nm)) {}

namespace {

std::uint64_t window_key(const Rect& w) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(w.xlo))
          << 32) |
         static_cast<std::uint32_t>(w.ylo);
}

std::string where(const Rect& w) {
  std::ostringstream os;
  os << "window (" << w.xlo << ", " << w.ylo << ")";
  return os.str();
}

}  // namespace

std::size_t ScanVerifier::check(const lhd::core::ScanResult& result,
                                std::uint64_t seed, std::size_t samples,
                                std::vector<std::string>& errors) const {
  std::size_t bad = 0;
  const auto fail = [&](std::string msg) {
    ++bad;
    errors.push_back(std::move(msg));
  };
  if (result.windows_total != expected_) {
    fail("scan visited " + std::to_string(result.windows_total) +
         " windows, grid has " + std::to_string(expected_));
  }

  std::unordered_map<std::uint64_t, const lhd::core::ScanHit*> hit_at;
  for (const auto& hit : result.hits) hit_at[window_key(hit.window)] = &hit;

  lhd::core::ChipIndex::QueryScratch scratch;
  const float threshold = detector_.threshold();
  const auto check_window = [&](const Rect& window,
                                const lhd::core::ScanHit* hit) {
    std::vector<Rect> rects = flat_.query(window, scratch);
    if (rects.empty() && config_.skip_empty) {
      if (hit != nullptr) fail(where(window) + " is empty but was flagged");
      return;
    }
    const float direct = detector_.score(
        canonical_window_clip(std::move(rects), config_.window_nm));
    const bool flag = direct > threshold;
    if (hit == nullptr && flag) {
      fail(where(window) + " scores " + std::to_string(direct) +
           " above the threshold but is not in the hit list");
    } else if (hit != nullptr && !flag) {
      fail(where(window) + " is in the hit list but scores " +
           std::to_string(direct));
    } else if (hit != nullptr && !same_bits(hit->score, direct)) {
      fail(where(window) + " hit score " + std::to_string(hit->score) +
           " differs from the direct score " + std::to_string(direct));
    }
  };

  lhd::Rng rng(seed);
  const Rect extent = flat_.extent();
  const auto cols = static_cast<std::uint64_t>(
      (static_cast<std::int64_t>(extent.width()) + config_.stride_nm - 1) /
      config_.stride_nm);
  const auto rows = static_cast<std::uint64_t>(
      (static_cast<std::int64_t>(extent.height()) + config_.stride_nm - 1) /
      config_.stride_nm);
  if (samples >= result.hits.size()) {
    for (const auto& hit : result.hits) check_window(hit.window, &hit);
  } else {
    for (std::size_t i = 0; i < samples; ++i) {
      const auto& hit = result.hits[static_cast<std::size_t>(
          rng.next_below(result.hits.size()))];
      check_window(hit.window, &hit);
    }
  }
  // Non-hit windows: every grid cell when the sample covers the grid,
  // otherwise random cells until `samples` of them were not in the hit
  // list (bounded, so an all-hit grid cannot loop forever).
  const auto window_at = [&](std::uint64_t col, std::uint64_t row) {
    const Coord x = extent.xlo + static_cast<Coord>(col) * config_.stride_nm;
    const Coord y = extent.ylo + static_cast<Coord>(row) * config_.stride_nm;
    return Rect{x, y, x + config_.window_nm, y + config_.window_nm};
  };
  if (samples >= expected_) {
    for (std::uint64_t row = 0; row < rows; ++row) {
      for (std::uint64_t col = 0; col < cols; ++col) {
        const Rect window = window_at(col, row);
        const auto it = hit_at.find(window_key(window));
        if (it == hit_at.end()) check_window(window, nullptr);
      }
    }
    return bad;
  }
  std::size_t non_hits = 0;
  for (std::size_t tries = 0;
       cols > 0 && rows > 0 && non_hits < samples && tries < 16 * samples;
       ++tries) {
    const Rect window = window_at(rng.next_below(cols), rng.next_below(rows));
    if (hit_at.count(window_key(window)) != 0) continue;
    check_window(window, nullptr);
    ++non_hits;
  }
  return bad;
}

std::size_t confusion_mismatches(const std::vector<bool>& predictions,
                                 const lhd::data::Dataset& ds,
                                 const lhd::core::Confusion& reported) {
  if (predictions.size() != ds.size()) return 4;
  lhd::core::Confusion c;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const bool hs = ds[i].is_hotspot();
    if (predictions[i]) {
      ++(hs ? c.tp : c.fp);
    } else {
      ++(hs ? c.fn : c.tn);
    }
  }
  return static_cast<std::size_t>(c.tp != reported.tp) +
         static_cast<std::size_t>(c.fp != reported.fp) +
         static_cast<std::size_t>(c.tn != reported.tn) +
         static_cast<std::size_t>(c.fn != reported.fn);
}

}  // namespace perfbench
