// perfbench.h — the repository benchmark: workloads, metrics, spans.
//
// One binary runs one workload per invocation (see README.md for why each
// workload exists and which layer metric should move which end-to-end
// metric).  A timed run (--trace 0) measures the end-to-end metrics with
// every telemetry sink of the program off; a traced run (--trace 1) drives
// the same layer sequence flow::run_physical uses by calling each layer's
// public function from here, records an in-memory span around every call,
// and reports the per-layer metrics.

#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "flow/flow.h"

namespace perfbench {

// ---- run arguments ----------------------------------------------------------

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a few cheap points (the benchmark's own
  /// tests); the numbers of a smoke run are not measurements.
  bool smoke = false;
  /// Scratch directory for the served cache, the daemon socket and the
  /// span files (relative to the working directory).
  std::string out_dir = ".perfbench";
};

inline constexpr const char* kWorkloads[] = {"rv32_canonical",
                                             "route_congested", "mesh_44k",
                                             "served_mix"};

// ---- statistics -------------------------------------------------------------

/// Percentile `p` (0..100) by linear interpolation between closest ranks
/// (numpy's default); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

// ---- metrics ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower" | "higher" | "" (per-layer, no direction)
};

/// Metric names: 1..64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(std::string_view name);

class MetricSet {
 public:
  /// Adds (or overwrites) one metric; throws on an invalid name.
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& better = "");
  const std::map<std::string, Metric>& all() const { return metrics_; }
  double value(const std::string& name) const;

 private:
  std::map<std::string, Metric> metrics_;
};

/// Outcome of one run: the four keys of the result line plus what the
/// benchmark prints before it.
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  MetricSet metrics;
  std::vector<std::string> gate_failures;  ///< one line per failed check
  std::map<std::string, std::string> notes;  ///< provenance / run facts

  void fail_gate(const std::string& what) {
    correct = false;
    gate_failures.push_back(what);
  }
};

/// The final stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.
std::string result_json(const RunResult& result);
/// {"better":{name:"lower"|"higher",..}} for the metrics that have a
/// direction (the end-to-end ones), printed just before the result.
std::string directions_json(const RunResult& result);

// ---- process probes ---------------------------------------------------------

double now_ms();
/// CPU ms of this process (all threads) and of reaped children.
double self_cpu_ms();
double children_cpu_ms();
/// Largest RSS of any reaped child, in MB (0 when none was reaped).
double children_peak_rss_mb();
/// Reset this process's RSS high-water mark (write "5" to
/// /proc/self/clear_refs).  False when the kernel refuses.
bool reset_peak_rss();
/// VmHWM of this process in MB (0 when /proc is unavailable).
double peak_rss_mb();
/// CPUs this process may run on (what nproc prints).
int nproc();

// ---- spans ------------------------------------------------------------------

/// In-memory span recorder: spans are appended to a vector while the run
/// goes and written out once at the end (Chrome trace-event JSON).
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    long long id = 0;
    long long parent = 0;    ///< 0 = root
    long long trace_id = 0;  ///< shared by every span of one point
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  long long begin(const std::string& name, long long parent,
                  long long trace_id);
  void end(long long id);
  /// A finished span whose ends (now_ms() values) were taken elsewhere.
  long long add(const std::string& name, long long parent, long long trace_id,
                double start_ms, double end_ms);
  /// Span duration minus the part of it covered by its direct children.
  double self_ms(const Span& span) const;
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  double epoch_ms_ = now_ms();
};

// ---- QoR --------------------------------------------------------------------

/// The block-level result a user reads off one flow point.
struct Qor {
  bool valid = false;
  double freq_ghz = 0.0;
  double power_uw = 0.0;
  double efficiency_ghz_per_mw = 0.0;
  double wirelength_um = 0.0;
  long long drv = 0;

  /// Exact (bitwise for doubles) equality: the repo's determinism contract.
  bool operator==(const Qor& o) const;
  std::string str() const;
};

Qor qor_of(const ffet::flow::FlowResult& r);

/// Checks that every repeat of a config label reproduces the first QoR seen
/// for it, and keeps one QoR per distinct label for the QoR metrics.
class QorLedger {
 public:
  /// False (and a gate failure on `result`) when `label` was seen before
  /// with a different QoR.
  bool record(const std::string& label, const Qor& qor, RunResult& result);
  const std::map<std::string, Qor>& distinct() const { return distinct_; }
  /// Recorded points (repeats included) whose QoR was invalid.
  long long invalid_points() const { return invalid_points_; }

 private:
  std::map<std::string, Qor> distinct_;
  long long invalid_points_ = 0;
};

/// Adds freq_ghz, efficiency_ghz_per_mw, wirelength_um and valid_ratio
/// (over distinct configs) as end-to-end metrics, or — for a traced run —
/// qor.drv (mean over distinct configs) and qor.fail_ratio (invalid plus
/// errored points over points attempted) as per-layer ones.
void add_qor_metrics(const QorLedger& ledger, long long errored_points,
                     long long attempted, RunResult& result, bool trace);

// ---- workload inputs --------------------------------------------------------

/// The ROADMAP's canonical point: FFET FM12BM12, 0.5 backside input pins,
/// util 0.76, 32 registers.
ffet::flow::FlowConfig canonical_config(int threads);
/// The layer-limited regime of Fig. 12: FFET FM2BM2, 0.5 backside input
/// pins, util 0.80.
ffet::flow::FlowConfig congested_config(int threads);

/// `count` copies of `base` with placement seeds first, first+1, ...
std::vector<ffet::flow::FlowConfig> seed_block(
    const ffet::flow::FlowConfig& base, unsigned first, int count);

/// route_congested's block: placement seeds 1..8 of congested_config,
/// visited starting at 1 + (seed - 1) % 8.
std::vector<ffet::flow::FlowConfig> congested_block(unsigned seed,
                                                    int threads);

/// One served submission: a 1..4-point sweep.
using Request = std::vector<ffet::flow::FlowConfig>;

/// The served request stream: `count` requests drawn from `seed` over the
/// three Fig. 8 designs (CFET FM12, FFET FM12, FFET FM12BM12 dual 0.5) and
/// a utilization grid; about a quarter of the points repeat an earlier one.
std::vector<Request> served_stream(unsigned seed, int count);

// ---- workloads --------------------------------------------------------------

/// In-process workloads (rv32_canonical, route_congested, mesh_44k).
RunResult run_flow_workload(const Args& args);
/// served_mix.
RunResult run_served_workload(const Args& args);

// ---- the traced layer-by-layer replica -------------------------------------

/// Per-layer measurements of one point, taken from outside each call.
struct LayerPoint {
  Qor qor;
  double wall_ms = 0.0;
  std::map<std::string, double> values;  ///< per-layer metric -> value
  std::map<std::string, double> rss_mb;  ///< layer -> peak RSS (if probed)
};

/// Run floorplan -> STA on `ctx` exactly as flow::run_physical does, but
/// by calling each layer's public function here, with a span around each
/// call (all spans of the point share one trace id).
LayerPoint run_layers(const ffet::flow::DesignContext& ctx,
                      const ffet::flow::FlowConfig& config,
                      SpanRecorder& spans, long long trace_id);

/// Per-layer metric names the traced run reports on every workload (a
/// layer a workload does not drive from this process reads 0), with units.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Fill every per-layer metric from the mean over `points`, plus the
/// per-layer peak RSS (max over points; absent when clear_refs failed).
void add_layer_metrics(const std::vector<LayerPoint>& points,
                       RunResult& result);

}  // namespace perfbench
