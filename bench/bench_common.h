// bench_common.h — shared helpers for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper: it runs
// the flow at the paper's configurations and prints the measured series
// next to the paper's reported numbers.  Absolute values are expected to
// differ (our substrate is a from-scratch simulator, not Innovus+StarRC on
// a proprietary PDK); the *shape* — who wins, by roughly what factor, where
// crossovers and saturation points sit — is the reproduction target.
// EXPERIMENTS.md records the paper-vs-measured comparison these benches
// print.

#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "flow/flow.h"
#include "flow/report_json.h"
#include "obs/numfmt.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"

namespace ffet::bench {

/// Shared command-line handling for the bench binaries.
///   --quick         reduced sweep (each bench decides what that means)
///   --trace[=path]  enable span tracing; dump a Chrome trace-event JSON
///                   to `path` (default "trace_<bench>.json") at exit
///   --help          print the usage and exit 0
/// Any other argument prints the usage to stderr and exits 2.  Both exits
/// happen before the bench does any work, so a mistyped flag never runs a
/// full bench or overwrites its BENCH_*.json.
struct BenchArgs {
  bool quick = false;
  bool trace = false;
  std::string trace_path;
};

inline void print_bench_usage(std::FILE* out, const char* program) {
  std::fprintf(out,
               "usage: %s [--quick] [--trace[=PATH]] [--help]\n"
               "  --quick         reduced sweep\n"
               "  --trace[=PATH]  write a Chrome trace to PATH at exit\n",
               program);
}

inline BenchArgs parse_bench_args(int argc, char** argv,
                                  const std::string& bench) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(a, "--trace") == 0) {
      args.trace = true;
      args.trace_path = "trace_" + bench + ".json";
    } else if (std::strncmp(a, "--trace=", 8) == 0) {
      args.trace = true;
      args.trace_path = a + 8;
    } else if (std::strcmp(a, "--help") == 0) {
      print_bench_usage(stdout, argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], a);
      print_bench_usage(stderr, argv[0]);
      std::exit(2);
    }
  }
  if (args.trace) {
    obs::set_tracing(true);
    obs::dump_trace_at_exit(args.trace_path);
    std::printf("  [trace] writing Chrome trace to %s on exit\n",
                args.trace_path.c_str());
  }
  return args;
}

inline void print_title(const std::string& id, const std::string& what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("================================================================\n");
}

inline void print_note(const std::string& s) {
  std::printf("  %s\n", s.c_str());
}

inline flow::FlowConfig cfet_config() {
  flow::FlowConfig cfg;
  cfg.tech_kind = tech::TechKind::Cfet4T;
  cfg.front_layers = 12;
  cfg.back_layers = 0;
  return cfg;
}

/// FFET with single-sided signals ("FFET FM12" in the paper).
inline flow::FlowConfig ffet_fm12_config() {
  flow::FlowConfig cfg;
  cfg.tech_kind = tech::TechKind::Ffet3p5T;
  cfg.front_layers = 12;
  cfg.back_layers = 0;
  cfg.backside_input_fraction = 0.0;
  return cfg;
}

/// FFET with dual-sided signals and the given pin/layer DoE.
inline flow::FlowConfig ffet_dual_config(double backside_fraction,
                                         int front_layers = 12,
                                         int back_layers = 12) {
  flow::FlowConfig cfg;
  cfg.tech_kind = tech::TechKind::Ffet3p5T;
  cfg.front_layers = front_layers;
  cfg.back_layers = back_layers;
  cfg.backside_input_fraction = backside_fraction;
  return cfg;
}

inline double pct(double ours, double base) {
  return base == 0.0 ? 0.0 : (ours - base) / base * 100.0;
}

/// Wall-clock instrumentation for the sweep benches.  Construction turns
/// the obs metrics registry on (cheap — pure atomics) and clears the
/// per-point window; destruction prints the elapsed time plus per-point
/// min/mean/max, and, when the FFET_BENCH_JSON environment variable names
/// a file, appends one machine-readable line:
///   {"bench":"...","seconds":...,"threads":...,"points":...,
///    "point_ms_min":...,"point_ms_mean":...,"point_ms_max":...,
///    "peak_rss_kb":...,"stage_ms":{"floorplan":...,...}}
/// run_benches.sh collects these lines into BENCH_sweeps.json.  Per-point
/// and per-stage numbers come from the "flow.point.ms" /
/// "flow.stage.<name>.ms" histograms run_physical records; stage sums are
/// deltas against the construction-time snapshot so sequential timers in
/// one binary don't double-count.
class SweepTimer {
 public:
  /// `threads` follows the flow convention: 0 = auto (FFET_THREADS env or
  /// hardware concurrency) — record what the sweep actually used.
  SweepTimer(std::string bench, int points, int threads = 0)
      : bench_(std::move(bench)),
        points_(points),
        threads_(runtime::resolve_threads(threads)) {
    obs::init_from_env();
    obs::set_thread_name("main");
    // Benches default to metrics-on (per-point stats below are worth the
    // few atomics); FFET_METRICS=0 is the explicit opt-out.
    const char* menv = std::getenv("FFET_METRICS");
    if (menv == nullptr || std::strcmp(menv, "0") != 0) {
      obs::set_metrics(true);
    }
    obs::histogram("flow.point.ms").reset();  // own the per-point window
    baseline_ = obs::metrics_snapshot();
    start_ = std::chrono::steady_clock::now();
  }

  SweepTimer(const SweepTimer&) = delete;
  SweepTimer& operator=(const SweepTimer&) = delete;

  ~SweepTimer() {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::printf("\n  [timing] %s: %d sweep points in %.2f s (%d threads)\n",
                bench_.c_str(), points_, seconds, threads_);

    const obs::Histogram& point = obs::histogram("flow.point.ms");
    if (point.count() > 0) {
      std::printf("  [points] per-point wall: min %.0f ms, mean %.0f ms, max %.0f ms (%llu points)\n",
                  point.min(), point.mean(), point.max(),
                  static_cast<unsigned long long>(point.count()));
    }

    if (const char* path = std::getenv("FFET_BENCH_JSON")) {
      std::string line;
      line.reserve(512);
      flow::JsonBuilder j(line);
      j.open_obj();
      j.field("bench", bench_);
      // Keep the historical 3-decimal resolution for total runtime.
      j.field("seconds", std::round(seconds * 1000.0) / 1000.0);
      j.field("threads", threads_);
      j.field("points", points_);
      if (point.count() > 0) {
        j.field("point_ms_min", point.min());
        j.field("point_ms_mean", point.mean());
        j.field("point_ms_max", point.max());
      }
      // Peak RSS of the whole bench process (absent with FFET_RESOURCE=0,
      // keeping those lines byte-identical to pre-probe builds).
      if (obs::resource_enabled()) {
        j.field("peak_rss_kb", obs::sample_resources().peak_rss_kb);
      }
      append_stage_ms(j);
      j.close_obj();
      line += '\n';
      if (std::FILE* f = std::fopen(path, "a")) {
        std::fwrite(line.data(), 1, line.size(), f);
        std::fclose(f);
      }
    }
  }

 private:
  /// Total wall ms spent per flow stage inside this timer's window, as a
  /// compact "stage_ms" object (delta of the stage histograms' sums).
  void append_stage_ms(flow::JsonBuilder& j) const {
    constexpr const char* kPrefix = "flow.stage.";
    constexpr std::size_t kPrefixLen = 11;
    constexpr const char* kSuffix = ".ms";
    std::vector<std::pair<std::string, double>> stages;
    for (const obs::MetricsSnapshot::Hist& h : obs::metrics_snapshot().histograms) {
      if (h.name.rfind(kPrefix, 0) != 0) continue;
      double sum = h.sum;
      for (const obs::MetricsSnapshot::Hist& b : baseline_.histograms) {
        if (b.name == h.name) {
          sum -= b.sum;
          break;
        }
      }
      if (sum <= 0.0) continue;
      std::string stage = h.name.substr(kPrefixLen);
      if (stage.size() > 3 && stage.rfind(kSuffix) == stage.size() - 3) {
        stage.resize(stage.size() - 3);
      }
      stages.emplace_back(std::move(stage), sum);
    }
    if (stages.empty()) return;
    j.open_nested("stage_ms");
    for (const auto& [stage, sum] : stages) j.field(stage.c_str(), sum);
    j.close_obj();
  }

  std::string bench_;
  int points_;
  int threads_;
  obs::MetricsSnapshot baseline_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ffet::bench
