// layers.cpp — the traced layer-by-layer replica of flow::run_physical.
//
// Each layer's public function is called from here, in run_physical's
// order and with run_physical's options, inside a span opened and closed
// by this file.  Nothing inside the program is instrumented: wall and CPU
// time are taken around the call, counters are read from the layer's
// result struct, and the layer's peak RSS from VmHWM after resetting it
// through /proc/self/clear_refs before the call.

#include <algorithm>

#include "io/def.h"
#include "perfbench.h"
#include "pnr/drc.h"
#include "pnr/floorplan.h"
#include "pnr/powerplan.h"
#include "runtime/thread_pool.h"

namespace perfbench {

namespace ff = ffet::flow;

namespace {

/// One layer call: span + wall + process CPU (+ peak RSS when asked).
class LayerCall {
 public:
  LayerCall(LayerPoint& point, SpanRecorder& spans, long long parent,
            long long trace_id, const char* name, bool probe_rss = false)
      : point_(point), spans_(spans), name_(name),
        rss_probed_(probe_rss && reset_peak_rss()),
        span_(spans.begin(name, parent, trace_id)),
        wall0_(now_ms()), cpu0_(self_cpu_ms()) {}

  LayerCall(const LayerCall&) = delete;
  LayerCall& operator=(const LayerCall&) = delete;

  ~LayerCall() {
    const double wall = now_ms() - wall0_;
    const double cpu = self_cpu_ms() - cpu0_;
    spans_.end(span_);
    point_.values[name_ + ".ms"] += wall;
    point_.values[name_ + ".cpu_ms"] += cpu;
    if (rss_probed_) point_.rss_mb[name_] = peak_rss_mb();
  }

 private:
  LayerPoint& point_;
  SpanRecorder& spans_;
  std::string name_;
  bool rss_probed_;
  long long span_;
  double wall0_;
  double cpu0_;
};

}  // namespace

LayerPoint run_layers(const ff::DesignContext& ctx, const ff::FlowConfig& config,
                      SpanRecorder& spans, long long trace_id) {
  namespace pnr = ffet::pnr;
  LayerPoint lp;
  const double point0 = now_ms();
  const long long root = spans.begin("flow.point", 0, trace_id);
  const int threads = ffet::runtime::resolve_threads(config.threads);
  // layer(name, fn): fn() inside one LayerCall, like flow.cpp's StageClock.
  const auto layer = [&](const char* name, auto&& fn, bool probe_rss = false) {
    LayerCall clock(lp, spans, root, trace_id, name, probe_rss);
    return fn();
  };

  ffet::netlist::Netlist nl = ctx.netlist;

  pnr::FloorplanOptions fo;
  fo.target_utilization = config.utilization;
  fo.aspect_ratio = config.aspect_ratio;
  const pnr::Floorplan fp = layer("pnr.floorplan", [&] {
    return pnr::make_floorplan(nl, ctx.tech(), fo);
  });
  const pnr::PowerPlan pp = layer("pnr.powerplan", [&] {
    return pnr::build_power_plan(nl, fp, *ctx.library);
  });
  pnr::PlacementOptions po;
  po.seed = config.seed;
  const pnr::PlacementResult pres = layer(
      "pnr.place", [&] { return pnr::place(nl, fp, pp, po); }, true);
  const double placed_cells = static_cast<double>(nl.num_instances());
  layer("pnr.check_placement",
        [&] { return pnr::check_placement(nl, fp, pp); });
  const pnr::CtsResult cts =
      layer("pnr.cts", [&] { return pnr::build_clock_tree(nl, fp); });
  layer("synth.fix_hold",
        [&] { return ffet::synth::fix_hold(nl, cts.sink_latency_ps); });
  pnr::RouteOptions ro;
  ro.threads = threads;
  const pnr::RouteResult routes = layer(
      "pnr.route", [&] { return pnr::route_design(nl, fp, ro); }, true);
  const ffet::io::Def front = layer("io.build_def", [&] {
    return ffet::io::build_def(nl, routes, ffet::tech::Side::Front);
  });
  const ffet::io::Def back = layer("io.build_def", [&] {
    return ffet::io::build_def(nl, routes, ffet::tech::Side::Back);
  });
  const ffet::io::Def merged = layer(
      "io.merge_defs", [&] { return ffet::io::merge_defs(front, back); }, true);
  const ffet::extract::RcNetlist rc = layer(
      "extract.extract_rc",
      [&] { return ffet::extract::extract_rc(merged, nl, ctx.tech(), threads); },
      true);
  ffet::sta::StaOptions so;
  so.clock_skew_ps = cts.skew_ps;
  so.pi_reference_latency_ps = cts.mean_latency_ps;
  so.threads = threads;
  ffet::sta::Sta sta = layer("sta.init", [&] {
    return ffet::sta::Sta(&nl, &rc, so);
  });
  const ffet::sta::TimingReport timing = layer("sta.analyze_timing", [&] {
    return sta.analyze_timing(&cts.sink_latency_ps);
  });
  layer("sta.analyze_hold",
        [&] { return sta.analyze_hold(&cts.sink_latency_ps); });
  const ffet::sta::PowerReport power = layer("sta.analyze_power", [&] {
    return sta.analyze_power(timing.achieved_freq_ghz, nullptr);
  });
  spans.end(root);
  lp.wall_ms = now_ms() - point0;

  lp.qor.valid = pres.legal && routes.valid;
  lp.qor.freq_ghz = timing.achieved_freq_ghz;
  lp.qor.power_uw = power.total_uw();
  lp.qor.efficiency_ghz_per_mw = power.efficiency_ghz_per_mw();
  lp.qor.wirelength_um = routes.wirelength_front_um + routes.wirelength_back_um;
  lp.qor.drv = routes.drv_estimate;

  auto& v = lp.values;
  v["pnr.place.hpwl_um"] = pres.hpwl_um;
  v["pnr.place.mean_displacement_um"] = pres.mean_displacement_um;
  v["pnr.place.cells"] = placed_cells;
  v["pnr.route.passes"] = routes.rrr_passes;
  v["pnr.route.ripups"] = static_cast<double>(routes.ripups_total);
  v["pnr.route.region_ripups"] = static_cast<double>(routes.region_ripups_total);
  v["pnr.route.settled_nodes"] = static_cast<double>(routes.settled_nodes);
  v["pnr.route.window_expansions"] =
      static_cast<double>(routes.window_expansions);
  v["pnr.route.overflow"] = routes.overflow_total;
  v["pnr.route.steiner_subnets"] = static_cast<double>(routes.steiner_subnets);
  v["pnr.route.fastpath_routes"] = static_cast<double>(routes.fastpath_routes);
  long long wires = 0;
  for (const ffet::io::DefNet& n : merged.nets) {
    wires += static_cast<long long>(n.wires.size());
  }
  v["io.def_wires"] = static_cast<double>(wires);
  v["extract.rc_nodes"] = static_cast<double>(rc.tree_node_count());
  return lp;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"flow.prepare_design.ms", "ms"},
      {"stdcell.build_library.ms", "ms"},
      {"liberty.characterize_library.ms", "ms"},
      {"netlist.generate_workload.ms", "ms"},
      {"pnr.floorplan.ms", "ms"},
      {"pnr.powerplan.ms", "ms"},
      {"pnr.place.ms", "ms"},
      {"pnr.place.cpu_ms", "ms"},
      {"pnr.place.hpwl_um", "um"},
      {"pnr.place.mean_displacement_um", "um"},
      {"pnr.place.cells_per_s", "cells/s"},
      {"pnr.check_placement.ms", "ms"},
      {"pnr.cts.ms", "ms"},
      {"synth.fix_hold.ms", "ms"},
      {"pnr.route.ms", "ms"},
      {"pnr.route.cpu_ms", "ms"},
      {"pnr.route.passes", "count"},
      {"pnr.route.ripups", "count"},
      {"pnr.route.region_ripups", "count"},
      {"pnr.route.settled_nodes", "count"},
      {"pnr.route.window_expansions", "count"},
      {"pnr.route.overflow", "count"},
      {"pnr.route.fastpath_ratio", "ratio"},
      {"pnr.route.rrr_point_share", "ratio"},
      {"io.build_def.ms", "ms"},
      {"io.merge_defs.ms", "ms"},
      {"io.def_wires", "count"},
      {"extract.extract_rc.ms", "ms"},
      {"extract.extract_rc.cpu_ms", "ms"},
      {"extract.rc_nodes", "count"},
      {"sta.analyze_timing.ms", "ms"},
      {"sta.analyze_hold.ms", "ms"},
      {"sta.analyze_power.ms", "ms"},
      {"pnr.place.peak_rss_mb", "MB"},
      {"pnr.route.peak_rss_mb", "MB"},
      {"io.merge_defs.peak_rss_mb", "MB"},
      {"extract.extract_rc.peak_rss_mb", "MB"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p95", "ms"},
      {"serve.cache_probe_ms.p50", "ms"},
      {"serve.cache_probe_ms.p95", "ms"},
      {"serve.worker_run_ms.p50", "ms"},
      {"serve.worker_run_ms.p95", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.single_flight_joins", "count"},
      {"serve.flow_runs", "count"},
      {"serve.retries", "count"},
      {"serve.worker_deaths", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.points", "count"},
      {"trace.point_ms", "ms"},
      {"qor.drv", "count"},
      {"qor.fail_ratio", "ratio"},
  };
  return kUnits;
}

void add_layer_metrics(const std::vector<LayerPoint>& points,
                       RunResult& result) {
  if (points.empty()) return;
  std::map<std::string, double> sum;
  double rrr_route_ms = 0.0, rrr_point_ms = 0.0;
  for (const LayerPoint& p : points) {
    for (const auto& [name, value] : p.values) sum[name] += value;
    if (p.values.at("pnr.route.passes") > 0) {
      rrr_route_ms += p.values.at("pnr.route.ms");
      rrr_point_ms += p.wall_ms;
    }
  }
  const double n = static_cast<double>(points.size());
  std::map<std::string, std::string> units(layer_metric_units().begin(),
                                           layer_metric_units().end());
  for (const auto& [name, total] : sum) {
    if (units.count(name)) result.metrics.set(name, total / n, units[name]);
  }
  auto& m = result.metrics;
  m.set("pnr.place.cells_per_s",
        sum["pnr.place.ms"] > 0
            ? sum["pnr.place.cells"] / (sum["pnr.place.ms"] / 1e3)
            : 0.0,
        "cells/s");
  m.set("pnr.route.fastpath_ratio",
        sum["pnr.route.steiner_subnets"] > 0
            ? sum["pnr.route.fastpath_routes"] / sum["pnr.route.steiner_subnets"]
            : 0.0,
        "ratio");
  m.set("pnr.route.rrr_point_share",
        rrr_point_ms > 0 ? rrr_route_ms / rrr_point_ms : 0.0, "ratio");
  double wall = 0.0;
  for (const LayerPoint& p : points) wall += p.wall_ms;
  m.set("trace.point_ms", wall / n, "ms");
  m.set("trace.points", n, "count");

  // Per-layer peak RSS: the max over points; absent when the kernel
  // refused the clear_refs reset (a process-lifetime high-water mark would
  // not be this layer's).
  std::map<std::string, double> rss;
  for (const LayerPoint& p : points) {
    for (const auto& [layer, mb] : p.rss_mb) {
      rss[layer] = std::max(rss[layer], mb);
    }
  }
  for (const auto& [layer, mb] : rss) m.set(layer + ".peak_rss_mb", mb, "MB");
}

}  // namespace perfbench
