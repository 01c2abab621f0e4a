// retrain: the data-engine loop. Each cycle labels fresh clips through the
// lithography oracle and a GDS round trip (synth::build_clips), trains a
// CnnDetector on them for a fixed number of epochs, and evaluates it on a
// held-out split built at set-up. It is the only workload that runs synth,
// litho, the nn backward pass and the optimizer, and it reports the
// paper's accuracy and false-alarm figures.
//
// Clips use suite B4's via-array style: a CNN learns it within the few
// epochs a cycle can afford (held-out ROC AUC above 0.97), so accuracy
// moves with training correctness rather than with luck.

#include <algorithm>
#include <sstream>

#include "lhd/core/metrics.hpp"
#include "lhd/data/augment.hpp"
#include "lhd/geom/raster.hpp"
#include "lhd/litho/oracle.hpp"
#include "lhd/synth/builder.hpp"
#include "lhd/synth/clip_gen.hpp"
#include "lhd/synth/suites.hpp"
#include "lhd/util/rng.hpp"
#include "lhd/util/stopwatch.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lhd;

namespace {

constexpr int kFreshClips = 240;
constexpr int kHeldOutClips = 400;
constexpr int kEpochs = 4;
constexpr std::size_t kMinCycles = 2;
constexpr std::size_t kPredictSamples = 16;
constexpr std::size_t kLayerSamples = 32;

synth::StyleConfig retrain_style() { return synth::suite_by_name("B4").style; }

struct RetrainState {
  data::Dataset heldout;
};

struct Cycle {
  double label_s = 0.0;
  double train_s = 0.0;
  double eval_s = 0.0;
  double epoch_s = 0.0;  ///< mean epoch wall time (history())
  double prep_s = 0.0;   ///< train() wall time minus the epochs
  std::size_t rows = 0;  ///< training rows per epoch (after upsampling)
  core::Confusion confusion;

  double total_s() const { return label_s + train_s + eval_s; }
};

Cycle run_cycle(const RetrainState& st, std::uint64_t seed, std::uint64_t c,
                Tracer* tracer, DetectorTally& tally,
                std::shared_ptr<core::CnnDetector>& model, Recorder& rec) {
  Cycle cycle;
  const ScopedSpan cycle_span(tracer, "retrain.cycle", 0, c);
  Stopwatch sw;
  data::Dataset fresh;
  {
    const ScopedSpan span(tracer, "synth.build_clips", cycle_span.id(), c);
    fresh = synth::build_clips(retrain_style(), kFreshClips,
                               sub_seed(seed, 100 + c), "fresh");
  }
  cycle.label_s = sw.seconds();

  core::CnnDetectorConfig cfg;
  cfg.seed = sub_seed(seed, 200 + c);
  cfg.train.epochs = kEpochs;
  cfg.train.batch = 8;
  cfg.augment_factor = 1;
  model = std::make_shared<core::CnnDetector>("retrain", cfg);
  sw.reset();
  {
    const ScopedSpan span(tracer, "core.train", cycle_span.id(), c);
    model->train(fresh);
  }
  cycle.train_s = sw.seconds();
  double epochs_s = 0.0;
  for (const auto& e : model->history()) epochs_s += e.seconds;
  cycle.epoch_s = model->history().empty()
                      ? 0.0
                      : epochs_s / static_cast<double>(model->history().size());
  cycle.prep_s = cycle.train_s - epochs_s;
  // Rows per epoch: the fresh clips plus the minority replicas train()
  // adds (their count depends only on the class counts, not on the rng).
  Rng count_rng(0);
  cycle.rows = cfg.upsample_ratio > 0
                   ? data::upsample_minority(fresh, cfg.upsample_ratio,
                                             count_rng)
                         .size()
                   : fresh.size();

  const auto evaluator = maybe_traced(model, tracer, tally);
  sw.reset();
  std::vector<bool> predictions;
  {
    const ScopedSpan span(tracer, "core.evaluate", cycle_span.id(), c);
    if (tracer != nullptr) tracer->set_ambient(span.id(), c);
    predictions = evaluator->predict_all(st.heldout);
    cycle.confusion = core::evaluate(predictions, st.heldout);
    if (tracer != nullptr) tracer->set_ambient(0, 0);
  }
  cycle.eval_s = sw.seconds();

  // Verification: recount the confusion matrix from predict_all against
  // the labels, and spot-check predict_all against per-clip predict().
  std::size_t bad = confusion_mismatches(predictions, st.heldout,
                                         cycle.confusion);
  if (bad != 0) rec.error("confusion matrix disagrees with a recount");
  Rng rng(sub_seed(seed, 300 + c));
  for (std::size_t i = 0; i < kPredictSamples; ++i) {
    const auto k = static_cast<std::size_t>(rng.next_below(st.heldout.size()));
    if (model->predict(st.heldout[k]) != predictions[k]) {
      ++bad;
      rec.error("predict_all and predict disagree on held-out clip " +
                std::to_string(k));
    }
  }
  rec.ops(1, bad == 0 ? 0 : 1);
  return cycle;
}

std::vector<Cycle> measure(const RetrainState& st, std::uint64_t seed,
                           double seconds, Tracer* tracer,
                           DetectorTally& tally, std::uint64_t& next_cycle,
                           std::shared_ptr<core::CnnDetector>& model,
                           Recorder& rec) {
  std::vector<Cycle> cycles;
  const Stopwatch budget;
  while (cycles.size() < kMinCycles || budget.seconds() < seconds) {
    cycles.push_back(
        run_cycle(st, seed, next_cycle++, tracer, tally, model, rec));
  }
  return cycles;
}

template <class F>
double median_of(const std::vector<Cycle>& cycles, F f) {
  std::vector<double> v;
  for (const Cycle& c : cycles) v.push_back(f(c));
  return median(v);
}

/// Per-clip cost of the two labeling layers, timed one clip at a time.
void label_layers(std::uint64_t seed, Tracer* tracer, Recorder& rec) {
  const synth::StyleConfig style = retrain_style();
  const litho::OracleConfig oracle_config;
  const litho::HotspotOracle oracle(oracle_config);
  const auto pixel_nm = static_cast<geom::Coord>(oracle_config.optics.pixel_nm);
  Rng rng(sub_seed(seed, 400));
  std::vector<double> gen_us, label_us;
  for (std::size_t i = 0; i < kLayerSamples; ++i) {
    Stopwatch sw;
    std::vector<geom::Rect> rects;
    {
      const ScopedSpan span(tracer, "synth.generate_clip", 0, i);
      rects = synth::generate_clip(style, rng);
    }
    gen_us.push_back(sw.micros());
    sw.reset();
    {
      const ScopedSpan span(tracer, "litho.evaluate", 0, i);
      const auto mask = geom::rasterize(rects, style.window_nm, pixel_nm);
      (void)oracle.evaluate(mask);
    }
    label_us.push_back(sw.micros());
  }
  rec.set("synth.gen_us_per_clip", median(gen_us), "us");
  rec.set("litho.label_us_per_clip", median(label_us), "us");
}

}  // namespace

void run_retrain(const RunOptions& opts, Tracer* tracer, Recorder& rec) {
  const std::unique_ptr<RetrainState> st = timed_setup<RetrainState>(
      opts, rec, [&] {
        auto s = std::make_unique<RetrainState>();
        s->heldout = synth::build_clips(retrain_style(), kHeldOutClips,
                                        sub_seed(opts.seed, 20), "heldout");
        return s;
      });
  DetectorTally tally;
  std::uint64_t next_cycle = 0;
  std::shared_ptr<core::CnnDetector> model;

  std::vector<Cycle> cycles;
  if (tracer == nullptr) {
    cycles = measure(*st, opts.seed, opts.seconds, nullptr, tally, next_cycle,
                     model, rec);
  } else {
    const std::vector<Cycle> base = measure(*st, opts.seed, opts.seconds / 3,
                                            nullptr, tally, next_cycle, model,
                                            rec);
    tally.reset();
    cycles = measure(*st, opts.seed, 2 * opts.seconds / 3, tracer, tally,
                     next_cycle, model, rec);
    const double base_s = median_of(base, [](const Cycle& c) { return c.total_s(); });
    const double traced_s =
        median_of(cycles, [](const Cycle& c) { return c.total_s(); });
    rec.set("trace.overhead_pct", 100.0 * (traced_s - base_s) / base_s, "%");
  }

  const double label_rate = median_of(cycles, [](const Cycle& c) {
    return kFreshClips / c.label_s;
  });
  const double train_rate = median_of(cycles, [](const Cycle& c) {
    return static_cast<double>(c.rows * kEpochs) / c.train_s;
  });
  const double accuracy = median_of(cycles, [](const Cycle& c) {
    return 100.0 * c.confusion.accuracy();
  });
  const double false_alarms = median_of(cycles, [](const Cycle& c) {
    return static_cast<double>(c.confusion.fp);
  });
  for (const Cycle& c : cycles) {
    std::ostringstream os;
    os << "cycle: label " << c.label_s << " s, train " << c.train_s << " s (" << c.rows << " rows, epoch " << c.epoch_s << ")"
       << " s, eval " << c.eval_s << " s, accuracy "
       << 100.0 * c.confusion.accuracy() << " %, false alarms "
       << c.confusion.fp << " of " << c.confusion.fp + c.confusion.tn
       << " non-hotspots";
    rec.note(os.str());
  }
  std::vector<double> cycle_ms;
  for (const Cycle& c : cycles) cycle_ms.push_back(1e3 * c.total_s());
  rec.timing("retrain cycle (label + train + evaluate)", cycle_ms, "ms");
  rec.note("label_clips_per_s = " + std::to_string(label_rate));
  rec.note("train_samples_per_s = " + std::to_string(train_rate));
  rec.note("test_accuracy_pct = " + std::to_string(accuracy));
  rec.note("test_false_alarms = " + std::to_string(false_alarms));

  if (tracer == nullptr) {
    rec.set("throughput_per_s", median_of(cycles, [](const Cycle& c) {
              return kFreshClips / c.total_s();
            }),
            "1/s");
    rec.set("latency_p50_ms", median(cycle_ms), "ms");
    return;
  }

  rec.set("retrain.label_clips_per_s", label_rate, "1/s");
  rec.set("retrain.train_samples_per_s", train_rate, "1/s");
  rec.set("retrain.test_accuracy_pct", accuracy, "%");
  rec.set("retrain.test_false_alarms", false_alarms, "count");
  rec.set("nn.epoch_s", median_of(cycles, [](const Cycle& c) { return c.epoch_s; }),
          "s");
  rec.set("train.prep_s",
          median_of(cycles, [](const Cycle& c) { return c.prep_s; }), "s");
  record_detector(tally.snapshot(), static_cast<double>(cycles.size()), rec);
  label_layers(opts.seed, tracer, rec);
  replay_feature_nn(*model, tally.captured(), tracer, rec);
}

}  // namespace perfbench
