// scan_unique / scan_reuse: full-chip scan from GDS bytes to a verified hit
// list — gds::read_bytes then the hierarchical, deduplicating
// core::scan_library on one shard per hardware thread.
//
// scan_unique scans a chip whose tiles are all distinct, so replay and the
// score cache find nothing and the detector does almost all the work;
// scan_reuse scans a large chip arraying four tile variants, where nearly
// every window replays and GDS parsing, instance enumeration and the
// replay/score caches dominate.

#include <algorithm>
#include <sstream>

#include "lhd/gds/reader.hpp"
#include "lhd/gds/writer.hpp"
#include "lhd/synth/chip_gen.hpp"
#include "lhd/util/check.hpp"
#include "lhd/util/stopwatch.hpp"
#include "lhd/util/thread_pool.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lhd;

namespace {

constexpr geom::Coord kStrideNm = 512;
constexpr int kMinJobs = 3;
constexpr std::size_t kVerifySamples = 24;

struct ScanState {
  ScanModel model;
  gds::Library chip;
  std::vector<std::uint8_t> bytes;
};

core::ScanConfig scan_config() {
  core::ScanConfig cfg;
  cfg.window_nm = scan_style().window_nm;
  cfg.stride_nm = kStrideNm;
  cfg.threads = hardware_threads();
  cfg.dedup = true;
  cfg.hierarchical = true;
  return cfg;
}

/// What one job leaves behind for the metrics (the hit list is checked
/// against the reference and dropped).
struct Job {
  double seconds = 0.0;       ///< GDS bytes -> hit list
  double read_seconds = 0.0;  ///< gds::read_bytes alone
  std::uint64_t scan_span = 0;
  std::size_t windows = 0;
  double shard_imbalance = 0.0;  ///< max / mean ShardStat::seconds
  double query_share = 0.0;      ///< sum query_seconds / sum seconds
  DetectorTally::Snapshot detector;
};

core::ScanResult scan_once(const ScanState& st, const core::Detector& det,
                           Tracer* tracer, std::uint64_t job_id, Job& job) {
  const ScopedSpan job_span(tracer, "scan.job", 0, job_id);
  Stopwatch sw;
  gds::Library lib;
  {
    const ScopedSpan span(tracer, "gds.read", job_span.id(), job_id);
    lib = gds::read_bytes(st.bytes);
  }
  job.read_seconds = sw.seconds();
  core::ScanResult result;
  {
    const ScopedSpan span(tracer, "core.scan", job_span.id(), job_id);
    if (tracer != nullptr) tracer->set_ambient(span.id(), job_id);
    result = core::scan_library(lib, "TOP", synth::kChipLayer, det,
                                scan_config());
    job.scan_span = span.id();
  }
  job.seconds = sw.seconds();
  if (tracer != nullptr) tracer->set_ambient(0, 0);
  return result;
}

void shard_figures(const core::ScanResult& r, Job& job) {
  double max_s = 0.0, sum_s = 0.0, query_s = 0.0;
  for (const auto& shard : r.shards) {
    max_s = std::max(max_s, shard.seconds);
    sum_s += shard.seconds;
    query_s += shard.query_seconds;
  }
  const auto n = static_cast<double>(r.shards.size());
  job.shard_imbalance = sum_s > 0 ? max_s / (sum_s / n) : 0.0;
  job.query_share = sum_s > 0 ? query_s / sum_s : 0.0;
}

/// Runs jobs until `seconds` elapsed (at least kMinJobs), checking each
/// job's hit list and window count against the reference.
std::vector<Job> measure(const ScanState& st, const core::Detector& det,
                         const core::ScanResult& reference, double seconds,
                         Tracer* tracer, DetectorTally& tally,
                         std::uint64_t& next_job, Recorder& rec) {
  std::vector<Job> jobs;
  const Stopwatch budget;
  while (jobs.size() < static_cast<std::size_t>(kMinJobs) ||
         budget.seconds() < seconds) {
    Job job;
    tally.reset();
    const core::ScanResult r = scan_once(st, det, tracer, next_job++, job);
    job.detector = tally.snapshot();
    job.windows = r.windows_total;
    shard_figures(r, job);
    std::size_t bad = 0;
    if (r.windows_total != reference.windows_total) {
      ++bad;
      rec.error("job window count " + std::to_string(r.windows_total) +
                " != reference " + std::to_string(reference.windows_total));
    }
    if (r.hits != reference.hits) {
      ++bad;
      rec.error("job hit list differs from the reference job's");
    }
    rec.ops(1, bad == 0 ? 0 : 1);
    jobs.push_back(job);
  }
  return jobs;
}

std::vector<double> field(const std::vector<Job>& jobs, double Job::*member) {
  std::vector<double> out;
  out.reserve(jobs.size());
  for (const auto& j : jobs) out.push_back(j.*member);
  return out;
}

std::vector<double> job_rates(const std::vector<Job>& jobs) {
  std::vector<double> out;
  for (const auto& j : jobs) {
    out.push_back(static_cast<double>(j.windows) / j.seconds);
  }
  return out;
}

void per_layer(const ScanState& st, const core::ScanResult& reference,
               const std::vector<Job>& jobs, const Tracer& tracer,
               Recorder& rec) {
  const double read_s = median(field(jobs, &Job::read_seconds));
  rec.set("gds.read_s", read_s, "s");
  rec.set("gds.read_mb_per_s",
          read_s > 0 ? static_cast<double>(st.bytes.size()) / 1e6 / read_s
                     : 0.0,
          "MB/s");

  // Self time of each scan span: its duration minus the wall time its
  // detector children cover (they run concurrently on the shards).
  const std::vector<Span> spans = tracer.spans();
  std::vector<double> self_s, share;
  for (const Job& job : jobs) {
    for (const Span& s : spans) {
      if (s.id != job.scan_span) continue;
      const double det = covered_by_children(spans, s, "core.detector");
      self_s.push_back(s.seconds() - det);
      share.push_back(s.seconds() > 0 ? det / s.seconds() : 0.0);
    }
  }
  rec.set("scan.self_s", median(self_s), "s");
  rec.set("detector.scan_share", median(share), "ratio");

  const auto windows = static_cast<double>(reference.windows_total);
  rec.set("scan.replay_ratio",
          windows > 0 ? static_cast<double>(reference.replay_hits) / windows
                      : 0.0,
          "ratio");
  const auto probes =
      static_cast<double>(reference.cache_hits + reference.cache_misses);
  rec.set("scan.cache_hit_ratio",
          probes > 0 ? static_cast<double>(reference.cache_hits) / probes : 0.0,
          "ratio");
  rec.set("scan.stitch_windows", static_cast<double>(reference.stitch_windows),
          "count");
  rec.set("scan.shard_imbalance", median(field(jobs, &Job::shard_imbalance)),
          "ratio");
  rec.set("scan.query_share", median(field(jobs, &Job::query_share)), "ratio");

  DetectorTally::Snapshot sum;
  for (const Job& job : jobs) {
    sum.calls += job.detector.calls;
    sum.clips += job.detector.clips;
    sum.distinct += job.detector.distinct;
    sum.busy_s += job.detector.busy_s;
  }
  record_detector(sum, static_cast<double>(jobs.size()), rec);
}

void run_scan(const RunOptions& opts, Tracer* tracer, Recorder& rec,
              int tiles, int variants) {
  const auto make = [&]() {
    auto st = std::make_unique<ScanState>();
    st->model = train_scan_model(opts.seed);
    synth::StyleConfig style = scan_style();
    style.p_risky_site = 0.2;
    st->chip = synth::build_chip(style, tiles, tiles, sub_seed(opts.seed, 3),
                                 variants);
    st->bytes = gds::write_bytes(st->chip);
    return st;
  };
  const std::unique_ptr<ScanState> st =
      timed_setup<ScanState>(opts, rec, make);
  const core::Detector& plain = *st->model.detector;

  // Warm-up job (untimed): fills lazily built state and gives the
  // reference hit list every measured job must reproduce.
  Job warm;
  const core::ScanResult reference = scan_once(*st, plain, nullptr, 0, warm);
  std::uint64_t next_job = 1;
  DetectorTally tally;

  std::vector<Job> jobs;
  if (tracer == nullptr) {
    jobs = measure(*st, plain, reference, opts.seconds, nullptr, tally,
                   next_job, rec);
    rec.set("throughput_per_s", median(job_rates(jobs)), "1/s");
    rec.set("latency_p50_ms", 1e3 * median(field(jobs, &Job::seconds)), "ms");
  } else {
    const std::vector<Job> base = measure(*st, plain, reference,
                                          opts.seconds / 3, nullptr, tally,
                                          next_job, rec);
    const auto traced =
        maybe_traced(st->model.detector, tracer, tally);
    jobs = measure(*st, *traced, reference, 2 * opts.seconds / 3, tracer,
                   tally, next_job, rec);
    const double base_ms = 1e3 * median(field(base, &Job::seconds));
    const double traced_ms = 1e3 * median(field(jobs, &Job::seconds));
    rec.set("trace.overhead_pct", 100.0 * (traced_ms - base_ms) / base_ms,
            "%");
    per_layer(*st, reference, jobs, *tracer, rec);
    replay_feature_nn(*st->model.detector, tally.captured(), tracer, rec);
  }
  rec.timing("scan job (GDS bytes -> hit list)",
             [&] {
               auto ms = field(jobs, &Job::seconds);
               for (double& v : ms) v *= 1e3;
               return ms;
             }(),
             "ms");
  rec.timing("gds.read_bytes", field(jobs, &Job::read_seconds), "s");

  // Output verification against an independently flattened index.
  const core::ChipIndex flat =
      core::ChipIndex::from_library(st->chip, "TOP", synth::kChipLayer);
  const ScanVerifier verifier(flat, plain, scan_config());
  std::vector<std::string> errors;
  const std::size_t bad =
      verifier.check(reference, sub_seed(opts.seed, 4), kVerifySamples, errors);
  rec.ops(1, bad == 0 ? 0 : 1);
  for (const auto& e : errors) rec.error(e);

  std::ostringstream os;
  os << "chip " << tiles << "x" << tiles << " tiles, " << variants
     << " variants (0 = all distinct): " << reference.windows_total
     << " windows, " << reference.flagged << " flagged, replayed share "
     << static_cast<double>(reference.replay_hits) /
            static_cast<double>(std::max<std::size_t>(1, reference.windows_total))
     << ", detector invocations " << reference.windows_classified
     << ", GDS " << static_cast<double>(st->bytes.size()) / 1e6 << " MB";
  rec.note(os.str());
  rec.note("scan_windows_per_s = " + std::to_string(median(job_rates(jobs))));
}

}  // namespace

void run_scan_unique(const RunOptions& opts, Tracer* tracer, Recorder& rec) {
  run_scan(opts, tracer, rec, /*tiles=*/32, /*variants=*/0);
}

void run_scan_reuse(const RunOptions& opts, Tracer* tracer, Recorder& rec) {
  run_scan(opts, tracer, rec, /*tiles=*/256, /*variants=*/4);
}

}  // namespace perfbench
