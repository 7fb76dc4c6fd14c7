// workloads.cpp — the in-process workloads: rv32_canonical,
// route_congested and mesh_44k.
//
// Each is a closed loop with one point at a time on one prepared design,
// at intra-flow threads = nproc.  The loop runs whole cycles of its config
// list until --seconds have passed, so every run sees the same mix.

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "liberty/characterize.h"
#include "netlist/workload.h"
#include "perfbench.h"

namespace perfbench {

namespace ff = ffet::flow;

namespace {

/// A prepared design, the config cycle the loop runs on it, and the
/// set-up times of its repetitions.
struct Prepared {
  std::unique_ptr<ff::DesignContext> ctx;
  std::vector<ff::FlowConfig> cycle;
  std::vector<double> setup_ms;
  std::map<std::string, std::vector<double>> setup_layers_ms;
};

ffet::netlist::WorkloadOptions mesh_options(unsigned seed, bool smoke) {
  // bench_scale's ~11k-cell tile, replicated 2x2 (~44k cells).
  ffet::netlist::WorkloadOptions w;
  w.num_gates = smoke ? 1000 : 10000;
  w.num_flops = smoke ? 100 : 1000;
  w.num_inputs = 64;
  w.num_outputs = 64;
  w.anonymous = true;
  w.tile_cols = smoke ? 1 : 2;
  w.tile_rows = smoke ? 1 : 2;
  w.seed = seed;
  return w;
}

/// Library build + characterization (cold cache) for `config`'s tech and
/// pin DoE, timed per step — the first half of prepare_design, and all of
/// mesh_44k's set-up except netlist generation.
std::unique_ptr<ffet::stdcell::Library> build_library(
    const ff::FlowConfig& config,
    std::unique_ptr<ffet::tech::Technology>& tech_out,
    std::map<std::string, std::vector<double>>& layers_ms) {
  ffet::liberty::clear_characterization_cache();
  double t = now_ms();
  tech_out = std::make_unique<ffet::tech::Technology>(
      ffet::tech::make_ffet_3p5t().with_routing_limit(config.front_layers,
                                                      config.back_layers));
  ffet::stdcell::PinConfig pc;
  pc.backside_input_fraction = config.backside_input_fraction;
  auto lib = std::make_unique<ffet::stdcell::Library>(
      ffet::stdcell::build_library(*tech_out, pc));
  layers_ms["stdcell.build_library.ms"].push_back(now_ms() - t);
  t = now_ms();
  ffet::liberty::characterize_library(*lib);
  layers_ms["liberty.characterize_library.ms"].push_back(now_ms() - t);
  return lib;
}

Prepared prepare(const Args& args, int threads) {
  Prepared p;
  const int reps = args.smoke ? 1 : 9;
  if (args.workload == "mesh_44k") {
    ff::FlowConfig cfg = canonical_config(threads);
    cfg.utilization = 0.60;
    cfg.seed = args.seed;
    for (int r = 0; r < reps; ++r) {
      const double t0 = now_ms();
      std::unique_ptr<ffet::tech::Technology> tech;
      auto lib = build_library(cfg, tech, p.setup_layers_ms);
      const double g0 = now_ms();
      ffet::netlist::Netlist nl = ffet::netlist::generate_workload(
          *lib, mesh_options(args.seed, args.smoke));
      p.setup_layers_ms["netlist.generate_workload.ms"].push_back(now_ms() - g0);
      p.setup_ms.push_back(now_ms() - t0);
      p.ctx = std::make_unique<ff::DesignContext>(cfg, std::move(tech),
                                                  std::move(lib), std::move(nl));
    }
    // Eight placement seeds from --seed on the one netlist, so the QoR
    // metrics average over placements (one 44k-cell point takes ~2.6 s).
    p.cycle = seed_block(cfg, args.seed, args.smoke ? 1 : 8);
    return p;
  }

  const bool canonical = args.workload == "rv32_canonical";
  const ff::FlowConfig base =
      canonical ? canonical_config(threads) : congested_config(threads);
  for (int r = 0; r < reps; ++r) {
    ffet::liberty::clear_characterization_cache();
    const double t0 = now_ms();
    p.ctx = ff::prepare_design(base);
    p.setup_ms.push_back(now_ms() - t0);
  }
  p.setup_layers_ms["flow.prepare_design.ms"] = p.setup_ms;
  if (args.trace) {
    // prepare_design's library half, timed on its own (cold cache).
    for (int r = 0; r < reps; ++r) {
      std::unique_ptr<ffet::tech::Technology> tech;
      build_library(base, tech, p.setup_layers_ms);
    }
  }
  // rv32_canonical: a block of 8 placement seeds from --seed, so the QoR
  // metrics average over placements.  route_congested: the fixed block of
  // placement seeds 1..8 (see congested_block).
  p.cycle = canonical ? seed_block(base, args.seed, args.smoke ? 1 : 8)
                      : congested_block(args.seed, threads);
  if (args.smoke) p.cycle.resize(1);
  return p;
}

/// Keep looping whole cycles until `seconds` have passed (one cycle in a
/// smoke run).
bool keep_going(const Args& args, std::size_t done, std::size_t cycle,
                double t0) {
  if (done % cycle != 0) return true;
  if (done == 0) return true;
  if (args.smoke) return false;
  return now_ms() - t0 < args.seconds * 1e3;
}

void add_common_setup(const Prepared& p, RunResult& res) {
  res.notes["points_per_cycle"] = std::to_string(p.cycle.size());
  res.notes["cells"] = std::to_string(p.ctx->netlist.num_instances());
}

/// One untimed point (heap growth, page faults) on the cycle's lowest
/// placement seed — on route_congested that is a fast-path point, not a
/// 10 s RRR one.  Its QoR joins the ledger like any repeat.
void warm_up(const Prepared& p, QorLedger& ledger, RunResult& res) {
  const ff::FlowConfig& cfg = *std::min_element(
      p.cycle.begin(), p.cycle.end(),
      [](const ff::FlowConfig& a, const ff::FlowConfig& b) {
        return a.seed < b.seed;
      });
  ledger.record(cfg.label(), qor_of(ff::run_physical(*p.ctx, cfg)), res);
}

RunResult timed_run(const Args& args, Prepared& p) {
  RunResult res;
  add_common_setup(p, res);
  QorLedger ledger;
  warm_up(p, ledger, res);

  std::vector<double> point_ms, point_rss_mb;
  long long errored = 0;
  const double cpu0 = self_cpu_ms();
  const double t0 = now_ms();
  for (std::size_t i = 0; keep_going(args, i, p.cycle.size(), t0); ++i) {
    const ff::FlowConfig& cfg = p.cycle[i % p.cycle.size()];
    ++res.attempted;
    // Hand freed heap back first, so each point's high-water mark starts
    // from the same resident floor.
    malloc_trim(0);
    reset_peak_rss();
    const double pt0 = now_ms();
    try {
      const ff::FlowResult r = ff::run_physical(*p.ctx, cfg);
      point_ms.push_back(now_ms() - pt0);
      point_rss_mb.push_back(peak_rss_mb());
      ledger.record(cfg.label(), qor_of(r), res);
    } catch (const std::exception& e) {
      ++errored;
      res.fail_gate(cfg.label() + " threw: " + e.what());
    }
  }
  const double wall_s = (now_ms() - t0) / 1e3;
  const double cpu_ms = self_cpu_ms() - cpu0;
  res.failed = errored;

  auto& m = res.metrics;
  const double points = static_cast<double>(point_ms.size());
  m.set("setup_s", median(p.setup_ms) / 1e3, "s", "lower");
  m.set("point_ms.p50", percentile(point_ms, 50), "ms", "lower");
  // In process a request is one point.
  m.set("request_ms.p50", percentile(point_ms, 50), "ms", "lower");
  m.set("points_per_s", points / wall_s, "points/s", "higher");
  m.set("cpu_ms_per_point", points > 0 ? cpu_ms / points : 0.0, "ms", "lower");
  m.set("peak_rss_mb", median(point_rss_mb), "MB", "lower");
  add_qor_metrics(ledger, errored, res.attempted, res, false);
  return res;
}

RunResult traced_run(const Args& args, Prepared& p) {
  RunResult res;
  add_common_setup(p, res);
  for (const auto& [name, unit] : layer_metric_units()) {
    res.metrics.set(name, 0.0, unit);
  }
  for (const auto& [name, ms] : p.setup_layers_ms) {
    res.metrics.set(name, median(ms), "ms");
  }

  QorLedger ledger;
  SpanRecorder spans;
  std::vector<LayerPoint> traced;
  double untraced_ms = 0.0, traced_ms = 0.0;
  long long errored = 0;
  warm_up(p, ledger, res);
  const double t0 = now_ms();
  for (std::size_t i = 0; keep_going(args, i, p.cycle.size(), t0); ++i) {
    const ff::FlowConfig& cfg = p.cycle[i % p.cycle.size()];
    ++res.attempted;
    try {
      const double u0 = now_ms();
      const ff::FlowResult r = ff::run_physical(*p.ctx, cfg);
      untraced_ms += now_ms() - u0;
      const Qor expect = qor_of(r);
      ledger.record(cfg.label(), expect, res);
      LayerPoint lp = run_layers(*p.ctx, cfg, spans,
                                 static_cast<long long>(i) + 1);
      traced_ms += lp.wall_ms;
      if (!(lp.qor == expect)) {
        res.fail_gate("layer replica differs from run_physical on " +
                      cfg.label() + ": [" + lp.qor.str() + "] vs [" +
                      expect.str() + "]");
      }
      traced.push_back(std::move(lp));
    } catch (const std::exception& e) {
      ++errored;
      res.fail_gate(cfg.label() + " threw: " + e.what());
    }
  }
  res.failed = errored;
  add_layer_metrics(traced, res);
  res.metrics.set("trace.overhead_ratio",
                  untraced_ms > 0 ? traced_ms / untraced_ms : 0.0, "ratio");
  add_qor_metrics(ledger, errored, res.attempted, res, true);

  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  if (spans.write_chrome_trace(path)) res.notes["spans"] = path;
  return res;
}

}  // namespace

RunResult run_flow_workload(const Args& args) {
  Prepared p = prepare(args, nproc());
  return args.trace ? traced_run(args, p) : timed_run(args, p);
}

}  // namespace perfbench
