// lhd_perfbench — the repository benchmark. One workload per invocation:
//
//   lhd_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--setups <k>] [--spans <path>]
//
// Inputs are built in-process from --seed (no on-disk cache), the workload
// runs for --seconds, outputs are verified, and the last stdout line is
// one JSON object {correct, attempted, failed, metrics}. --trace 0 reports
// the end-to-end metrics; --trace 1 runs the workload untraced and then
// traced, and reports the per-layer metrics (spans go to --spans as JSON
// lines). Exit code 0 only when every output checked out.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "lhd/util/log.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in sync with BENCHMARK.json (perfbench/run.py checks the result
// against it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"gds.read_s", "s"},
    {"gds.read_mb_per_s", "MB/s"},
    {"scan.self_s", "s"},
    {"scan.replay_ratio", "ratio"},
    {"scan.cache_hit_ratio", "ratio"},
    {"scan.stitch_windows", "count"},
    {"scan.shard_imbalance", "ratio"},
    {"scan.query_share", "ratio"},
    {"detector.calls", "count"},
    {"detector.clips", "count"},
    {"detector.batch_mean", "count"},
    {"detector.busy_s", "s"},
    {"detector.us_per_clip", "us"},
    {"detector.useful_ratio", "ratio"},
    {"detector.scan_share", "ratio"},
    {"feature.dct_us_per_clip", "us"},
    {"nn.forward_us_per_clip", "us"},
    {"nn.epoch_s", "s"},
    {"train.prep_s", "s"},
    {"litho.label_us_per_clip", "us"},
    {"synth.gen_us_per_clip", "us"},
    {"serve.server_mean_ms", "ms"},
    {"serve.wire_overhead_ms", "ms"},
    {"serve.queue_depth_mean", "count"},
    {"serve.busy", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.reload_ms", "ms"},
    {"serve.gen_late_ms", "ms"},
    {"serve.score_p50_ms", "ms"},
    {"serve.score_p99_ms", "ms"},
    {"serve.scan_tail_ms", "ms"},
    {"serve.max_rps", "1/s"},
    {"retrain.label_clips_per_s", "1/s"},
    {"retrain.train_samples_per_s", "1/s"},
    {"retrain.test_accuracy_pct", "%"},
    {"retrain.test_false_alarms", "count"},
    {"run.failed_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

using WorkloadFn = void (*)(const RunOptions&, Tracer*, Recorder&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"scan_unique", &run_scan_unique},
      {"scan_reuse", &run_scan_reuse},
      {"serve_mixed", &run_serve_mixed},
      {"retrain", &run_retrain},
  };
  return table;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage(const std::string& why) {
  std::cerr << "lhd_perfbench: " << why
            << "\nusage: lhd_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--setups <k>] [--spans <path>]\n"
               "workloads:";
  for (const auto& [name, fn] : workloads()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opts.trace = value != "0";
      } else if (arg == "--setups") {
        opts.setups = std::stoi(value);
      } else if (arg == "--spans") {
        spans_path = value;
      } else {
        return usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload) return usage("--workload is required");
  const auto it = workloads().find(opts.workload);
  if (it == workloads().end()) return usage("unknown workload " + opts.workload);
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  lhd::set_log_level(lhd::LogLevel::Warn);
  Recorder rec;
  std::unique_ptr<Tracer> tracer;
  if (opts.trace) tracer = std::make_unique<Tracer>();
  try {
    it->second(opts, tracer.get(), rec);
  } catch (const std::exception& e) {
    rec.ops(1, 1);
    rec.error(std::string("workload aborted: ") + e.what());
  }

  rec.set("peak_rss_mb", peak_rss_mb(), "MB");
  const double failed_pct =
      rec.attempted() > 0 ? 100.0 * static_cast<double>(rec.failed()) /
                                static_cast<double>(rec.attempted())
                          : 100.0;
  rec.set("run.failed_pct", failed_pct, "%");
  if (tracer != nullptr) {
    const std::vector<Span> spans = tracer->spans();
    for (const auto& [name, t] : layer_totals(spans)) {
      rec.note("span " + name + ": count=" + std::to_string(t.count) +
               " total_s=" + number(t.total_s) + " self_s=" + number(t.self_s));
    }
    rec.set("trace.spans", static_cast<double>(spans.size()), "count");
    if (!spans_path.empty()) tracer->write_jsonl(spans_path);
  }

  for (const auto& line : rec.notes()) std::cout << "# " << line << "\n";
  for (const auto& [name, v] : rec.metrics()) {
    std::cout << "# " << name << " = " << number(v.value) << " " << v.unit
              << "\n";
  }
  for (const auto& e : rec.errors()) std::cout << "# ERROR " << e << "\n";

  bool complete = true;
  std::string metrics = "{";
  const auto emit = [&](const MetricSpec& spec, bool required) {
    double value = 0.0;
    if (rec.has(spec.name)) {
      value = rec.get(spec.name);
    } else if (required) {
      complete = false;
      std::cout << "# ERROR metric " << spec.name << " was not measured\n";
    }
    if (metrics.size() > 1) metrics += ", ";
    metrics += std::string("\"") + spec.name + "\": {\"value\": " +
               number(value) + ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (opts.trace) {
    for (const auto& spec : kPerLayer) emit(spec, false);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec, true);
  }
  metrics += "}";

  const bool correct =
      complete && rec.failed() == 0 && rec.errors().empty() && rec.attempted() > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(1, rec.attempted())
            << ", \"failed\": " << rec.failed() << ", \"metrics\": " << metrics
            << "}" << std::endl;
  return correct ? 0 : 1;
}
