// serve_mixed: open-loop traffic against in-process serve::Servers holding
// the CNN, over socketpair serve::Clients.
//
// The traffic is served shard-per-core: one serve::Server per CPU (up to
// kMaxShards), each with one connection, and the server's threads, the
// connection's client thread and an idle-priority poller pinned to that
// CPU. Each shard gets an equal, independent share of the traffic. The
// connection carries score-clip requests, about half drawn from a hot
// pattern set (cache repeats) and the rest fresh clips, plus scan-region
// requests over small layout regions and one reload-weights of the *same*
// blob in the middle of each rung: the write path, which flushes the
// shard's cache and swaps its snapshot without changing any score.
//
// Why shard-per-core: a request is handed from the client to the session
// thread, the score worker and back. With one server spread over all
// CPUs, each hand-off may wake a halted CPU, and in a virtual machine on a
// shared host that wake-up costs whatever the host's scheduler takes. On
// a 4-vCPU virtual machine it was about 45% of a cache hit's latency, and
// it spread the serve figures by about 30% between runs of the same code.
// Pinned to one CPU that a SCHED_IDLE poller keeps from halting, every
// hand-off is a context switch on that CPU. One shard alone would expose
// the figures to that one core's speed; a shard on every core averages
// over them, as the scan workloads' threads do.
//
// Arrivals are Poisson, generated from the seed before the clock starts;
// every request is timed from its due time, so a stall also charges the
// requests queued behind it. The nominal rung gives the latency figures.
// A closed-loop phase, with every connection sending score-clip requests
// back to back until its time is up, measures the capacity the benchmark
// reports as throughput (the median completion rate over quarter-second
// slices). The traced run also walks a fixed ladder of rates between the
// two: the highest rung whose score-clip p99 stays within kLimitMs and
// whose backlog drains gives the sustainable rate (serve_max_rps).
//
// Fresh clips are never stored: fresh clip `key` is generated on demand
// from its own seed stream (a few microseconds), so the closed loop can
// send as many as a server of any speed completes, and the verifier
// regenerates exactly the clip that was sent.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include "lhd/nn/serialize.hpp"
#include "lhd/serve/client.hpp"
#include "lhd/serve/server.hpp"
#include "lhd/serve/transport.hpp"
#include "lhd/synth/clip_gen.hpp"
#include "lhd/util/check.hpp"
#include "lhd/util/rng.hpp"
#include "lhd/util/thread_pool.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lhd;

namespace {

using Clock = std::chrono::steady_clock;

/// Shards (one per CPU) at most, so the workload keeps its shape on a
/// machine with more CPUs.
constexpr std::size_t kMaxShards = 4;
constexpr double kHotShare = 0.5;
constexpr std::size_t kHotClips = 256;
constexpr std::size_t kRegions = 16;
constexpr int kRegionTiles = 2;        ///< regions are 2x2 clip tiles
constexpr geom::Coord kScanStrideNm = 512;
constexpr double kScanRate = 40.0;  ///< scan-region req/s, all shards together
constexpr double kLimitMs = 50.0;      ///< score-clip p99 limit per rung
constexpr double kAbortMs = 250.0;     ///< a rung this far behind is over
/// The closed loop's capacity is the median completion rate over slices
/// this long, so a host stall of a few slices does not move it.
constexpr double kCapacitySliceS = 0.25;
/// Score-clip requests per second, all shards together. The first rung is
/// the nominal rate.
constexpr double kLadder[] = {1000, 2000, 4000, 6000, 8000};
/// Fresh-clip keys of the closed loop start here, one block per shard;
/// keys below belong to the planned rungs.
constexpr std::uint64_t kClosedKeyBlock = std::uint64_t{1} << 40;
/// Score slots per closed-loop connection (1 MiB), allocated and touched
/// before the clock starts. At 14,000 req/s over four shards a connection
/// answers about 3,500 requests per second, so an 8 s phase fills about a
/// tenth of them: a server several times faster still fits, and peak RSS
/// does not move with server speed.
constexpr std::size_t kClosedReserve = std::size_t{1} << 18;

enum class Kind : std::uint8_t { Hot, Fresh, Scan, Reload };

struct Planned {
  double due = 0.0;  ///< seconds after the rung starts
  Kind kind = Kind::Hot;
  std::uint64_t index = 0;  ///< hot / region index, or fresh-clip key
};

struct Rung {
  double rate = 0.0;
  double seconds = 0.0;
  /// Closed loop: nothing is planned; each connection draws score-clip
  /// requests and sends them back to back until `seconds` pass, and what
  /// completes is the capacity.
  bool closed = false;
  /// One schedule per shard (its one connection).
  std::vector<std::vector<Planned>> connections;
};

struct Outcome {
  Kind kind = Kind::Hot;
  std::uint64_t index = 0;
  bool sent = false;
  double due = 0.0, start = 0.0, done = 0.0;  ///< seconds after rung start
  serve::Status status = serve::Status::Error;
  float score = 0.0f;
  std::uint64_t windows = 0;
  std::uint64_t scan_hits = 0, scan_misses = 0;  ///< scan-region cache lookups
  std::uint64_t version = 0;

  double latency_ms() const { return 1e3 * (done - due); }
};

/// Completions within one kCapacitySliceS slice of a rung.
struct Slice {
  std::size_t n = 0;
  double first = std::numeric_limits<double>::infinity();
  double last = -std::numeric_limits<double>::infinity();

  void add(double t) {
    ++n;
    first = std::min(first, t);
    last = std::max(last, t);
  }
};

/// What one closed-loop connection keeps of its answers. The requests are
/// not stored: the verifier redraws them (ClosedDraws). The score buffer
/// is allocated and touched before the clock starts, so peak RSS does not
/// grow with the number of answers, that is with server speed.
struct ClosedLog {
  std::vector<float> scores;  ///< answer j's score; NaN when not Ok
  std::size_t answered = 0;
  std::vector<Slice> slices;  ///< Ok completions per slice
  double service_s = 0.0;     ///< Σ time from send to answer, Ok answers
  double last_done = 0.0;
};

struct ServeState {
  ScanModel model;
  std::vector<std::uint8_t> blob;
  std::vector<std::vector<geom::Rect>> hot;
  std::vector<std::vector<geom::Rect>> regions;
  std::uint64_t fresh_seed = 0;   ///< fresh clip k comes from stream k
  std::uint64_t closed_seed = 0;  ///< per-shard draws of the closed loop
  std::vector<int> cpus;          ///< one per shard
  std::vector<Rung> base_plan;    ///< untraced pass of a traced run
  std::vector<Rung> main_plan;
};

std::vector<geom::Rect> fresh_clip(const ServeState& st, std::uint64_t key) {
  Rng rng(sub_seed(st.fresh_seed, key));
  return synth::generate_clip(scan_style(), rng);
}

Planned score_request(double due, Rng& rng, std::uint64_t& fresh_key) {
  Planned p;
  p.due = due;
  if (rng.next_bool(kHotShare)) {
    p.kind = Kind::Hot;
    p.index = rng.next_below(kHotClips);
  } else {
    p.kind = Kind::Fresh;
    p.index = fresh_key++;
  }
  return p;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  LHD_CHECK(sched_getaffinity(0, sizeof(set), &set) == 0,
            "sched_getaffinity failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread to `cpus` (threads it starts later inherit it).
void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  LHD_CHECK(sched_setaffinity(0, sizeof(set), &set) == 0,
            "sched_setaffinity failed");
}

/// Keeps each of `cpus` from halting while it lives: one SCHED_IDLE thread
/// per CPU spins there. A SCHED_IDLE thread gives way at once to any other
/// thread that becomes runnable on its CPU, so it runs only when the CPU
/// would otherwise halt. The destructor stops and joins the pollers.
class IdlePollers {
 public:
  explicit IdlePollers(const std::vector<int>& cpus) {
    for (const int cpu : cpus) {
      threads_.emplace_back([this, cpu] {
        pin_to({cpu});
        const sched_param none{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &none);
        while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
      });
    }
  }
  ~IdlePollers() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// The closed loop's request stream on connection `c`; the verifier draws
/// it again to know what each answer scored.
class ClosedDraws {
 public:
  ClosedDraws(const ServeState& st, std::size_t c)
      : rng_(sub_seed(st.closed_seed, c)), key_(kClosedKeyBlock * (c + 1)) {}
  Planned next() { return score_request(0.0, rng_, key_); }

 private:
  Rng rng_;
  std::uint64_t key_;
};

/// One pass over `seconds`: the nominal rung, then the higher rungs of the
/// ladder (if `ladder`), then the closed loop (if `closed`). Each of the
/// three parts takes an equal share of the time.
std::vector<Rung> plan(double seconds, bool ladder, bool closed,
                       std::size_t shards, Rng& rng, std::uint64_t& fresh_key) {
  std::vector<Rung> rungs;
  const std::size_t n = ladder ? std::size(kLadder) : 1;
  const double share =
      seconds / (1.0 + (ladder ? 1.0 : 0.0) + (closed ? 1.0 : 0.0));
  for (std::size_t r = 0; r < n; ++r) {
    Rung rung;
    rung.rate = kLadder[r];
    rung.seconds = r == 0 ? share : share / static_cast<double>(n - 1);
    rung.connections.resize(shards);
    const double n_shards = static_cast<double>(shards);
    for (auto& conn : rung.connections) {
      for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.next_double()) / (rung.rate / n_shards);
        if (t >= rung.seconds) break;
        conn.push_back(score_request(t, rng, fresh_key));
      }
      for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.next_double()) / (kScanRate / n_shards);
        if (t >= rung.seconds) break;
        conn.push_back({t, Kind::Scan, rng.next_below(kRegions)});
      }
      conn.push_back({rung.seconds / 2, Kind::Reload, 0});
      std::sort(conn.begin(), conn.end(),
                [](const Planned& a, const Planned& b) { return a.due < b.due; });
    }
    rungs.push_back(std::move(rung));
  }
  if (closed) {
    Rung loop;
    loop.closed = true;
    loop.seconds = share;
    loop.connections.resize(shards);
    rungs.push_back(std::move(loop));
  }
  return rungs;
}

std::unique_ptr<ServeState> build_state(const RunOptions& opts) {
  auto st = std::make_unique<ServeState>();
  st->model = train_scan_model(opts.seed);
  std::ostringstream blob;
  nn::save_weights(st->model.detector->network(), blob);
  const std::string bytes = blob.str();
  st->blob.assign(bytes.begin(), bytes.end());

  Rng rng(sub_seed(opts.seed, 10));
  st->fresh_seed = sub_seed(opts.seed, 11);
  st->closed_seed = sub_seed(opts.seed, 12);
  st->cpus = allowed_cpus();
  if (st->cpus.size() > kMaxShards) st->cpus.resize(kMaxShards);
  const std::size_t shards = st->cpus.size();
  const synth::StyleConfig style = scan_style();
  std::uint64_t fresh = 0;
  if (opts.trace) {
    st->base_plan = plan(opts.seconds / 3, false, false, shards, rng, fresh);
    st->main_plan = plan(2 * opts.seconds / 3, true, true, shards, rng, fresh);
  } else {
    st->main_plan = plan(opts.seconds, false, true, shards, rng, fresh);
  }
  LHD_CHECK(fresh < kClosedKeyBlock, "too many planned fresh clips");
  for (std::size_t i = 0; i < kHotClips; ++i) {
    st->hot.push_back(synth::generate_clip(style, rng));
  }
  for (std::size_t i = 0; i < kRegions; ++i) {
    std::vector<geom::Rect> region;
    for (int ty = 0; ty < kRegionTiles; ++ty) {
      for (int tx = 0; tx < kRegionTiles; ++tx) {
        const geom::Coord dx = tx * style.window_nm;
        const geom::Coord dy = ty * style.window_nm;
        for (const auto& r : synth::generate_clip(style, rng)) {
          region.emplace_back(r.xlo + dx, r.ylo + dy, r.xhi + dx, r.yhi + dy);
        }
      }
    }
    st->regions.push_back(std::move(region));
  }
  return st;
}

const char* span_name(Kind kind) {
  switch (kind) {
    case Kind::Hot:
    case Kind::Fresh:
      return "serve.score_clip";
    case Kind::Scan:
      return "serve.scan_region";
    case Kind::Reload:
      return "serve.reload_weights";
  }
  return "serve.request";
}

/// Runs one rung; returns one outcome per planned request, or for the
/// closed loop fills one log per connection in `closed`.
std::vector<std::vector<Outcome>> run_rung(
    const ServeState& st, const Rung& rung,
    std::vector<std::unique_ptr<serve::Client>>& clients, Tracer* tracer,
    std::atomic<std::uint64_t>& request_ids, std::vector<ClosedLog>& closed) {
  std::vector<std::vector<Outcome>> out(rung.connections.size());
  if (rung.closed) {
    closed.assign(rung.connections.size(), ClosedLog{});
    for (ClosedLog& log : closed) {
      log.scores.assign(kClosedReserve, 0.0f);
      log.slices.resize(
          static_cast<std::size_t>(std::floor(rung.seconds / kCapacitySliceS)));
    }
  }
  std::atomic<bool> abort{false};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  const geom::Coord window = scan_style().window_nm;

  // Sends `p` once it is due and records the answer. `clip` is the
  // score-clip geometry (null for the other kinds).
  const auto send = [&](serve::Client& client, const Planned& p,
                         const std::vector<geom::Rect>* clip) {
    Outcome o;
    o.kind = p.kind;
    o.index = p.index;
    o.due = p.due;
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(p.due)));
    const std::uint64_t id = request_ids.fetch_add(1);
    o.sent = true;
    o.start = since(Clock::now());
    serve::Response resp;
    {
      const ScopedSpan span(tracer, span_name(p.kind), 0, id);
      switch (p.kind) {
        case Kind::Hot:
        case Kind::Fresh:
          resp = client.score_clip("", window, *clip);
          break;
        case Kind::Scan:
          resp = client.scan_region("", window, kScanStrideNm,
                                    st.regions[p.index]);
          break;
        case Kind::Reload:
          resp = client.reload_weights("", st.blob);
          break;
      }
    }
    o.done = since(Clock::now());
    o.status = serve::response_status(resp);
    if (const auto* s = std::get_if<serve::ScoreResult>(&resp.body)) {
      o.score = s->score;
    } else if (const auto* w = std::get_if<serve::ScanResultWire>(&resp.body)) {
      o.windows = w->windows_total;
      o.scan_hits = w->cache_hits;
      o.scan_misses = w->cache_misses;
    } else if (const auto* r = std::get_if<serve::ReloadResult>(&resp.body)) {
      o.version = r->version;
    }
    return o;
  };

  const auto drive = [&](std::size_t c) {
    pin_to({st.cpus[c]});  // the shard's CPU
    // Wake at the due time, not up to the default 50 us timer slack later:
    // lateness is charged to the request's latency.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    serve::Client& client = *clients[c];
    std::vector<geom::Rect> fresh;
    const auto clip_of = [&](const Planned& p) -> const std::vector<geom::Rect>* {
      if (p.kind == Kind::Hot) return &st.hot[p.index];
      if (p.kind != Kind::Fresh) return nullptr;
      fresh = fresh_clip(st, p.index);
      return &fresh;
    };
    if (rung.closed) {
      ClosedLog& log = closed[c];
      ClosedDraws draws(st, c);
      while (since(Clock::now()) < rung.seconds) {
        const Planned p = draws.next();
        const Outcome o = send(client, p, clip_of(p));
        const bool ok = o.status == serve::Status::Ok;
        const float score =
            ok ? o.score : std::numeric_limits<float>::quiet_NaN();
        if (log.answered < log.scores.size()) {
          log.scores[log.answered] = score;
        } else {
          log.scores.push_back(score);
        }
        ++log.answered;
        log.last_done = o.done;
        if (!ok) continue;
        log.service_s += o.done - o.start;
        const auto k = static_cast<std::size_t>(o.done / kCapacitySliceS);
        if (k < log.slices.size()) log.slices[k].add(o.done);
      }
      return;
    }
    out[c].reserve(rung.connections[c].size());
    for (const Planned& p : rung.connections[c]) {
      if (abort.load(std::memory_order_relaxed)) {
        Outcome o;
        o.kind = p.kind;
        o.index = p.index;
        o.due = p.due;
        out[c].push_back(o);
        continue;
      }
      const Outcome o = send(client, p, clip_of(p));
      if (o.latency_ms() > kAbortMs) abort.store(true);
      out[c].push_back(o);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < rung.connections.size(); ++c) {
    threads.emplace_back(drive, c);
  }
  for (auto& t : threads) t.join();
  return out;
}

struct RungFigures {
  std::vector<double> score_ms;  ///< from due time; failures are +inf
  std::vector<double> scan_ms;
  std::vector<double> late_ms;   ///< generator lateness, all requests
  std::size_t ok_scores = 0;
  std::size_t unsent = 0;
  std::size_t refused = 0;  ///< Busy or Error answers
  double drain_ms = 0.0;    ///< last completion after the rung's end
  /// Ok score-clip completion rate in each kCapacitySliceS slice of the
  /// rung (slices wholly inside it): completions after the slice's first,
  /// over the time from its first to its last.
  std::vector<double> slice_rates;
  /// Score-clip cache lookups during the rung (scan-region ones excluded).
  std::uint64_t cache_hits = 0, cache_misses = 0;

  double cache_hit_ratio() const {
    const std::uint64_t n = cache_hits + cache_misses;
    return n == 0 ? 0.0
                  : static_cast<double>(cache_hits) / static_cast<double>(n);
  }
};

RungFigures figures(const Rung& rung,
                    const std::vector<std::vector<Outcome>>& outcomes,
                    const std::vector<ClosedLog>& closed) {
  RungFigures f;
  double last_done = 0.0;
  std::vector<Slice> slices(
      static_cast<std::size_t>(std::floor(rung.seconds / kCapacitySliceS)));
  for (const auto& conn : outcomes) {
    for (const Outcome& o : conn) {
      if (!o.sent) {
        ++f.unsent;
        continue;
      }
      last_done = std::max(last_done, o.done);
      f.late_ms.push_back(1e3 * (o.start - o.due));
      const bool ok = o.status == serve::Status::Ok;
      if (!ok) ++f.refused;
      const double ms = ok ? o.latency_ms()
                           : std::numeric_limits<double>::infinity();
      if (o.kind == Kind::Hot || o.kind == Kind::Fresh) {
        f.score_ms.push_back(ms);
        if (ok) ++f.ok_scores;
        const auto k = static_cast<std::size_t>(o.done / kCapacitySliceS);
        if (ok && k < slices.size()) slices[k].add(o.done);
      } else if (o.kind == Kind::Scan) {
        f.scan_ms.push_back(ms);
      }
    }
  }
  if (rung.closed) {
    for (const ClosedLog& log : closed) {
      last_done = std::max(last_done, log.last_done);
      for (std::size_t j = 0; j < log.answered; ++j) {
        if (std::isnan(log.scores[j])) {
          ++f.refused;
        } else {
          ++f.ok_scores;
        }
      }
      for (std::size_t k = 0; k < slices.size(); ++k) {
        slices[k].n += log.slices[k].n;
        slices[k].first = std::min(slices[k].first, log.slices[k].first);
        slices[k].last = std::max(slices[k].last, log.slices[k].last);
      }
    }
  }
  f.drain_ms = 1e3 * std::max(0.0, last_done - rung.seconds);
  for (const Slice& slice : slices) {
    if (slice.n >= 2 && slice.last > slice.first) {
      f.slice_rates.push_back(static_cast<double>(slice.n - 1) /
                              (slice.last - slice.first));
    }
  }
  return f;
}

double p99(std::vector<double> ms) {
  if (ms.empty()) return std::numeric_limits<double>::infinity();
  std::sort(ms.begin(), ms.end());
  return nearest_rank(ms, 0.99);
}

bool passes(const RungFigures& f) {
  return f.unsent == 0 && f.refused == 0 && f.drain_ms <= kLimitMs &&
         p99(f.score_ms) <= kLimitMs;
}

struct PassResult {
  std::vector<const Rung*> ran;  ///< the rungs run, in order
  std::vector<std::vector<std::vector<Outcome>>> rungs;  ///< [rung][conn]
  std::vector<ClosedLog> closed;  ///< the closed loop's, one per connection
  std::vector<RungFigures> figures;
  std::map<std::string, obs::HistogramSnapshot> histograms;
  std::map<std::string, std::uint64_t> counters;
};

PassResult run_pass(const ServeState& st, const std::vector<Rung>& rungs,
                    Tracer* tracer, DetectorTally& tally) {
  // Declared first, so the pollers outlive the servers' threads.
  const IdlePollers pollers(st.cpus);
  // The loader is the only way a server gets a detector, so reloads
  // rebuild exactly the initial model (and wrap it again when tracing).
  const serve::WeightLoader loader =
      [base = serve::cnn_weight_loader("cnn", st.model.config), tracer,
       &tally](const std::vector<std::uint8_t>& weights) {
        return maybe_traced(base(weights), tracer, tally);
      };
  serve::ServerConfig config;
  config.score_workers = 1;  // one connection per shard: one request at a time
  config.session_workers = 1;

  // One server per shard, built while this thread is pinned to the shard's
  // CPU so that the server's threads start there.
  const std::vector<int> all = allowed_cpus();
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::shared_ptr<serve::Transport>> ends;
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (std::size_t c = 0; c < st.cpus.size(); ++c) {
    pin_to({st.cpus[c]});
    servers.push_back(std::make_unique<serve::Server>(config));
    servers.back()->add_model("cnn", loader(st.blob), loader);
    auto [server_end, client_end] = serve::socketpair_transport();
    servers.back()->attach(std::move(server_end));
    ends.push_back(std::move(client_end));
    clients.push_back(std::make_unique<serve::Client>(
        *ends.back(), static_cast<std::uint32_t>(c)));
  }
  pin_to(all);

  const auto counters = [&servers] {
    std::map<std::string, std::uint64_t> sum;
    for (const auto& server : servers) {
      for (const auto& [name, n] : server->registry().counters()) {
        sum[name] += n;
      }
    }
    return sum;
  };
  // Score-clip cache lookups: every cache lookup the servers counted, less
  // the ones the scan-region answers report.
  const auto cache_lookups = [&] {
    const auto all_counters = counters();
    std::uint64_t hits = 0, misses = 0;
    for (std::size_t c = 0; c < servers.size(); ++c) {
      const std::string tenant = "serve.tenant." + std::to_string(c) + ".";
      if (const auto it = all_counters.find(tenant + "cache_hits");
          it != all_counters.end()) {
        hits += it->second;
      }
      if (const auto it = all_counters.find(tenant + "cache_misses");
          it != all_counters.end()) {
        misses += it->second;
      }
    }
    return std::make_pair(hits, misses);
  };

  PassResult pass;
  std::atomic<std::uint64_t> request_ids{1};
  // Climb from the nominal rung until a rung fails (higher ones would fail
  // too), then run the closed loop if planned.
  const auto run = [&](const Rung& rung) {
    const auto before = cache_lookups();
    pass.ran.push_back(&rung);
    pass.rungs.push_back(
        run_rung(st, rung, clients, tracer, request_ids, pass.closed));
    pass.figures.push_back(figures(rung, pass.rungs.back(), pass.closed));
    const auto after = cache_lookups();
    RungFigures& f = pass.figures.back();
    f.cache_hits = after.first - before.first;
    f.cache_misses = after.second - before.second;
    for (const auto& conn : pass.rungs.back()) {
      for (const Outcome& o : conn) {
        f.cache_hits -= o.scan_hits;
        f.cache_misses -= o.scan_misses;
      }
    }
    return passes(f);
  };
  for (const Rung& rung : rungs) {
    if (rung.closed) continue;
    if (!run(rung)) break;
  }
  if (rungs.back().closed) run(rungs.back());
  pass.counters = counters();
  for (const auto& server : servers) {
    for (const auto& [name, h] : server->registry().histograms()) {
      obs::HistogramSnapshot& sum = pass.histograms[name];
      sum.count += h.count;
      sum.sum += h.sum;
      sum.min = std::min(sum.min, h.min);
      sum.max = std::max(sum.max, h.max);
    }
  }
  clients.clear();
  ends.clear();
  for (const auto& server : servers) server->stop();
  return pass;
}

/// Verifies every answer; returns (attempted, failed) op counts.
std::pair<std::size_t, std::size_t> verify_pass(const ServeState& st,
                                                const PassResult& pass,
                                                Recorder& rec) {
  // Direct scores of the clips the Ok answers claim to score; fresh clips
  // are regenerated from their keys.
  const geom::Coord window = scan_style().window_nm;
  const core::Detector& det = *st.model.detector;
  std::vector<float> hot_score(st.hot.size());
  ThreadPool::global().parallel_for(0, st.hot.size(), [&](std::size_t i) {
    hot_score[i] = det.score(canonical_window_clip(st.hot[i], window));
  });
  const auto direct_score = [&](Kind kind, std::uint64_t index) {
    return kind == Kind::Hot
               ? hot_score[index]
               : det.score(canonical_window_clip(fresh_clip(st, index), window));
  };
  // Planned rungs: in the order the check below walks the Ok answers.
  std::vector<const Outcome*> scored;
  for (const auto& rung : pass.rungs) {
    for (const auto& conn : rung) {
      for (const Outcome& o : conn) {
        if (o.status == serve::Status::Ok &&
            (o.kind == Kind::Hot || o.kind == Kind::Fresh)) {
          scored.push_back(&o);
        }
      }
    }
  }
  std::vector<float> direct(scored.size());
  ThreadPool::global().parallel_for(0, scored.size(), [&](std::size_t i) {
    direct[i] = direct_score(scored[i]->kind, scored[i]->index);
  });
  std::size_t next_scored = 0;

  std::vector<std::size_t> region_windows;
  for (const auto& region : st.regions) {
    geom::Rect box = region.front();
    for (const auto& r : region) box = box.unite(r);
    region_windows.push_back(grid_windows(box, kScanStrideNm));
  }

  std::size_t attempted = 0, failed = 0;
  // Each shard's model version starts at 1 and must rise with each reload.
  std::vector<std::uint64_t> last_version(st.cpus.size(), 1);
  for (const auto& rung : pass.rungs) {
    for (std::size_t c = 0; c < rung.size(); ++c) {
      for (const Outcome& o : rung[c]) {
        if (!o.sent) continue;
        ++attempted;
        if (o.status != serve::Status::Ok) {
          ++failed;
          rec.error(std::string(span_name(o.kind)) + " answered " +
                    (o.status == serve::Status::Busy ? "Busy" : "Error"));
          continue;
        }
        switch (o.kind) {
          case Kind::Hot:
          case Kind::Fresh: {
            const float want = direct[next_scored++];
            if (!same_bits(o.score, want)) {
              ++failed;
              rec.error("score-clip answered " + std::to_string(o.score) +
                        ", direct score " + std::to_string(want));
            }
            break;
          }
          case Kind::Scan:
            if (o.windows != region_windows[o.index]) {
              ++failed;
              rec.error("scan-region visited " + std::to_string(o.windows) +
                        " windows, region grid has " +
                        std::to_string(region_windows[o.index]));
            }
            break;
          case Kind::Reload:
            if (o.version <= last_version[c]) {
              ++failed;
              rec.error("reload-weights did not advance the model version");
            }
            last_version[c] = o.version;
            break;
        }
      }
    }
  }

  // Closed loop: redraw each connection's requests a chunk at a time, so
  // the check's memory does not grow with the number of answers either.
  constexpr std::size_t kChunk = 4096;
  std::vector<Planned> chunk;
  std::vector<float> want(kChunk);
  for (std::size_t c = 0; c < pass.closed.size(); ++c) {
    const ClosedLog& log = pass.closed[c];
    ClosedDraws draws(st, c);
    for (std::size_t j0 = 0; j0 < log.answered; j0 += kChunk) {
      const std::size_t n = std::min(kChunk, log.answered - j0);
      chunk.clear();
      for (std::size_t j = 0; j < n; ++j) chunk.push_back(draws.next());
      ThreadPool::global().parallel_for(0, n, [&](std::size_t j) {
        want[j] = direct_score(chunk[j].kind, chunk[j].index);
      });
      for (std::size_t j = 0; j < n; ++j) {
        ++attempted;
        const float got = log.scores[j0 + j];
        if (std::isnan(got)) {
          ++failed;
          rec.error("closed-loop score-clip was not answered Ok");
        } else if (!same_bits(got, want[j])) {
          ++failed;
          rec.error("score-clip answered " + std::to_string(got) +
                    ", direct score " + std::to_string(want[j]));
        }
      }
    }
  }
  return {attempted, failed};
}

double mean_ms(const std::map<std::string, obs::HistogramSnapshot>& h,
               const std::string& name) {
  const auto it = h.find(name);
  return it == h.end() ? 0.0 : 1e3 * it->second.mean();
}

std::vector<double> finite(const std::vector<double>& v) {
  std::vector<double> out;
  for (double x : v) {
    if (std::isfinite(x)) out.push_back(x);
  }
  return out;
}

}  // namespace

void run_serve_mixed(const RunOptions& opts, Tracer* tracer, Recorder& rec) {
  const std::unique_ptr<ServeState> st = timed_setup<ServeState>(
      opts, rec, [&] { return build_state(opts); });
  DetectorTally tally;

  const PassResult base = tracer != nullptr
                              ? run_pass(*st, st->base_plan, nullptr, tally)
                              : PassResult{};
  const PassResult pass = run_pass(*st, st->main_plan, tracer, tally);

  for (const PassResult* p : {&base, &pass}) {
    if (p->rungs.empty()) continue;
    const auto [attempted, failed] = verify_pass(*st, *p, rec);
    rec.ops(attempted, failed);
  }

  // Nominal rung: latency figures.
  const RungFigures& nominal = pass.figures.front();
  std::vector<double> sorted = nominal.score_ms;
  std::sort(sorted.begin(), sorted.end());
  if (!percentile_supported(sorted.size(), 0.99)) {
    rec.note("nominal rung too short for a p99 with ten samples beyond it");
  }
  const double score_p50 = nearest_rank(sorted, 0.5);
  const double score_p99 = nearest_rank(sorted, 0.99);
  const TimingStats scan_stats = timing_stats(finite(nominal.scan_ms));

  // Ladder (traced run): highest passing rung's achieved rate. Closed
  // loop: median completed score-clip requests per second over its slices.
  double max_rps = 0.0;
  double capacity = 0.0;
  for (std::size_t r = 0; r < pass.figures.size(); ++r) {
    const RungFigures& f = pass.figures[r];
    const Rung& rung = *pass.ran[r];
    std::ostringstream os;
    if (rung.closed) {
      std::vector<double> rates = f.slice_rates;
      std::sort(rates.begin(), rates.end());
      capacity = rates.empty() ? 0.0 : nearest_rank(rates, 0.5);
      os << "closed loop, " << pass.rungs[r].size() << " connections for "
         << rung.seconds << " s: median over " << rates.size() << " slices "
         << capacity << ", slowest " << (rates.empty() ? 0.0 : rates.front())
         << ", mean "
         << static_cast<double>(f.ok_scores) / (rung.seconds + f.drain_ms / 1e3)
         << " score-clip req/s, cache hit ratio " << f.cache_hit_ratio();
      rec.note(os.str());
      continue;
    }
    const double achieved = static_cast<double>(f.ok_scores) / rung.seconds;
    os << "rung " << rung.rate << " req/s for " << rung.seconds
       << " s: achieved " << achieved << " req/s, score p99 " << p99(f.score_ms)
       << " ms, drain " << f.drain_ms << " ms, unsent " << f.unsent
       << ", refused " << f.refused << (passes(f) ? "  PASS" : "  FAIL");
    rec.note(os.str());
    if (passes(f)) max_rps = std::max(max_rps, achieved);
  }

  std::size_t hot = 0, scores = 0;
  for (const auto& conn : pass.rungs.front()) {
    for (const Outcome& o : conn) {
      if (o.kind == Kind::Hot || o.kind == Kind::Fresh) ++scores;
      if (o.kind == Kind::Hot) ++hot;
    }
  }
  rec.note("hot-set share of score-clip requests " +
           std::to_string(static_cast<double>(hot) /
                          static_cast<double>(std::max<std::size_t>(1, scores))));
  rec.note("score-clip cache hit ratio (nominal rung) " +
           std::to_string(nominal.cache_hit_ratio()));
  rec.timing("score-clip latency from due time (nominal rung)",
             finite(nominal.score_ms), "ms");
  // The gated latency is the p50 of fresh (never seen, so cache-miss)
  // clips. All score-clips together are bimodal (hits about 0.15 ms, misses
  // about 0.65 ms) and their p50 lies on the miss mode's lower edge, where
  // it moves with the mix: over ten seeds it spread 0.27 where the fresh
  // p50 of the same runs spread 0.16. A failed request counts as +inf.
  std::vector<double> fresh_ms;
  for (const Kind kind : {Kind::Hot, Kind::Fresh}) {
    std::vector<double> ms;
    for (const auto& conn : pass.rungs.front()) {
      for (const Outcome& o : conn) {
        if (o.kind != kind || !o.sent) continue;
        const bool ok = o.status == serve::Status::Ok;
        if (ok) ms.push_back(o.latency_ms());
        if (kind == Kind::Fresh) {
          fresh_ms.push_back(ok ? o.latency_ms()
                                : std::numeric_limits<double>::infinity());
        }
      }
    }
    rec.timing(kind == Kind::Hot ? "  hot clips" : "  fresh clips", ms, "ms");
  }
  std::sort(fresh_ms.begin(), fresh_ms.end());
  const double fresh_p50 = nearest_rank(fresh_ms, 0.5);
  rec.timing("scan-region latency from due time (nominal rung)",
             finite(nominal.scan_ms), "ms");
  rec.timing("generator lateness (nominal rung)", nominal.late_ms, "ms");
  rec.note("serve_score_p50_ms = " + std::to_string(score_p50));
  rec.note("serve_fresh_p50_ms = " + std::to_string(fresh_p50));
  rec.note("serve_score_p99_ms = " + std::to_string(score_p99));
  if (tracer != nullptr) rec.note("serve_max_rps = " + std::to_string(max_rps));
  rec.note("serve_capacity_rps = " + std::to_string(capacity));

  if (tracer == nullptr) {
    rec.set("throughput_per_s", capacity, "1/s");
    rec.set("latency_p50_ms", fresh_p50, "ms");
    return;
  }

  // Traced run: per-layer figures from the traced pass.
  std::vector<double> base_sorted = base.figures.front().score_ms;
  std::sort(base_sorted.begin(), base_sorted.end());
  const double base_p50 = nearest_rank(base_sorted, 0.5);
  rec.set("trace.overhead_pct", 100.0 * (score_p50 - base_p50) / base_p50, "%");
  rec.set("serve.score_p50_ms", score_p50, "ms");
  rec.set("serve.score_p99_ms", score_p99, "ms");
  rec.set("serve.scan_tail_ms", scan_stats.has_tail ? scan_stats.tail : 0.0,
          "ms");
  rec.set("serve.max_rps", max_rps, "1/s");

  // Client-side score-clip service time (send to answer), all rungs.
  double client_s = 0.0;
  std::size_t client_n = 0;
  for (const ClosedLog& log : pass.closed) {
    client_s += log.service_s;
    for (std::size_t j = 0; j < log.answered; ++j) {
      if (!std::isnan(log.scores[j])) ++client_n;
    }
  }
  std::vector<double> reload_ms;
  for (const auto& rung : pass.rungs) {
    for (const auto& conn : rung) {
      for (const Outcome& o : conn) {
        if (!o.sent || o.status != serve::Status::Ok) continue;
        if (o.kind == Kind::Hot || o.kind == Kind::Fresh) {
          client_s += o.done - o.start;
          ++client_n;
        }
        if (o.kind == Kind::Reload) reload_ms.push_back(1e3 * (o.done - o.start));
      }
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double server_ms =
      mean_ms(pass.histograms, "serve.op.score-clip.latency_seconds");
  rec.set("serve.server_mean_ms", server_ms, "ms");
  rec.set("serve.wire_overhead_ms",
          1e3 * client_s / static_cast<double>(std::max<std::size_t>(1, client_n)) -
              server_ms,
          "ms");
  const auto depth = pass.histograms.find("serve.queue_depth");
  rec.set("serve.queue_depth_mean",
          depth == pass.histograms.end() ? 0.0 : depth->second.mean(), "count");
  const auto busy = pass.counters.find("serve.responses_busy");
  rec.set("serve.busy",
          busy == pass.counters.end() ? 0.0 : static_cast<double>(busy->second),
          "count");
  rec.set("serve.cache_hit_ratio", nominal.cache_hit_ratio(), "ratio");
  rec.set("serve.reload_ms", mean(reload_ms), "ms");
  rec.set("serve.gen_late_ms", mean(nominal.late_ms), "ms");

  record_detector(tally.snapshot(), 1.0, rec);
  replay_feature_nn(*st->model.detector, tally.captured(), tracer, rec);
}

}  // namespace perfbench
