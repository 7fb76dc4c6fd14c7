// bench_ablation — ablation studies of the model's calibrated mechanisms
// (DESIGN.md §6): switch each one off or sweep it, and show which paper
// result it carries.  A reviewer's tool: it demonstrates the results come
// from the mechanisms, not from output-side tuning.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "pnr/router.h"
#include "runtime/thread_pool.h"

using namespace ffet;

namespace {

/// Run physical-only stages with custom route options.
pnr::RouteResult route_with(const flow::DesignContext& ctx, double util,
                            const pnr::RouteOptions& ro, bool* placement_ok) {
  netlist::Netlist nl = ctx.netlist;
  pnr::FloorplanOptions fo;
  fo.target_utilization = util;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, ctx.tech(), fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, *ctx.library);
  const pnr::PlacementResult pres = pnr::place(nl, fp, pp);
  if (placement_ok) *placement_ok = pres.legal;
  pnr::build_clock_tree(nl, fp);
  return pnr::route_design(nl, fp, ro);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv, "bench_ablation");
  bench::print_title("Ablation",
                     "Which mechanism carries which paper result");
  bench::SweepTimer timer("bench_ablation", 9);

  // --- 1. Pin-access limit: carries FFET FM12's 76% ceiling (Fig. 8c) ----
  {
    std::printf("\n[1] pin-access ceiling (FFET FM12 @ 82%% utilization)\n");
    auto ctx = flow::prepare_design(bench::ffet_fm12_config());
    pnr::RouteOptions with;  // defaults
    pnr::RouteOptions without;
    without.pin_access_limit_per_um2 = 1e9;  // off
    bool pl = false;
    // The two route runs differ only in options — independent, so they run
    // concurrently (each on its own private netlist copy).
    pnr::RouteResult r_on, r_off;
    runtime::parallel_invoke(
        0, [&] { r_on = route_with(*ctx, 0.82, with, &pl); },
        [&] { r_off = route_with(*ctx, 0.82, without, nullptr); });
    std::printf("    with limit   : DRV %d (%d pin-access) -> %s\n",
                r_on.drv_estimate, r_on.drv_pin_access,
                r_on.valid ? "valid" : "INVALID");
    std::printf("    without limit: DRV %d -> %s\n", r_off.drv_estimate,
                r_off.valid ? "valid" : "INVALID");
    std::printf("    => the 76%% ceiling of Fig. 8(c) is the pin-density "
                "mechanism.\n");
  }

  // --- 2. Power Tap Cells: carry the 86% ceiling (Fig. 8a) ----------------
  {
    // 0.87 sits exactly between the bare density ceiling (0.875) and the
    // tap-reduced one (0.875 * 0.984 = 0.861): taps flip the verdict.
    std::printf("\n[2] Power Tap Cell blockage (FFET FP0.5BP0.5 @ 87%%)\n");
    auto ctx = flow::prepare_design(bench::ffet_dual_config(0.5));
    netlist::Netlist nl = ctx->netlist;
    pnr::FloorplanOptions fo;
    fo.target_utilization = 0.87;
    const pnr::Floorplan fp = pnr::make_floorplan(nl, ctx->tech(), fo);
    const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, *ctx->library);
    const pnr::PlacementResult with_taps = pnr::place(nl, fp, pp);
    // Without taps: empty power plan (no blockages).
    netlist::Netlist nl2 = ctx->netlist;
    const pnr::Floorplan fp2 = pnr::make_floorplan(nl2, ctx->tech(), fo);
    pnr::PowerPlan none;
    const pnr::PlacementResult without_taps = pnr::place(nl2, fp2, none);
    std::printf("    with taps    : %s (density %.3f)\n",
                with_taps.legal ? "legal" : "placement violations",
                with_taps.density);
    std::printf("    without taps : %s (density %.3f)\n",
                without_taps.legal ? "legal" : "placement violations",
                without_taps.density);
    std::printf("    => the 86%% ceiling of Fig. 8(a) is the tap-cell "
                "blockage.\n");
  }

  // --- 3. Dual-sided output pin: carries backside routing ------------------
  {
    std::printf("\n[3] capacity of the second side (FFET 50/50 pins)\n");
    auto ctx = flow::prepare_design(bench::ffet_dual_config(0.5));
    const auto r = route_with(*ctx, 0.72, {}, nullptr);
    std::printf("    frontside wire %.0f um, backside wire %.0f um "
                "(%.0f%% offloaded)\n",
                r.wirelength_front_um, r.wirelength_back_um,
                100.0 * r.wirelength_back_um /
                    (r.wirelength_front_um + r.wirelength_back_um));
  }

  // --- 4. Drain-Merge parasitics: carry Table I ---------------------------
  {
    std::printf("\n[4] n-p link parasitics (Table I mechanism)\n");
    tech::Technology ffet = tech::make_ffet_3p5t();
    tech::Technology cfet = tech::make_cfet_4t();
    std::printf("    CFET supervia : R %.0f ohm (par.eff %.2f), C %.3f fF\n",
                cfet.device().np_link_r_ohm,
                cfet.device().np_link_parallel_eff,
                cfet.device().np_link_c_ff);
    std::printf("    FFET DrainMrg : R %.0f ohm (par.eff %.2f), C %.3f fF\n",
                ffet.device().np_link_r_ohm,
                ffet.device().np_link_parallel_eff,
                ffet.device().np_link_c_ff);
    std::printf("    => zeroing the difference collapses Table I's timing "
                "deltas (see liberty tests).\n");
  }

  // --- 5. Router capacity factor sweep (Fig. 12 anchor) --------------------
  {
    std::printf("\n[5] capacity_factor sweep, FFET FP0.5BP0.5 FM2BM2 @ 70%%\n");
    flow::FlowConfig cfg = bench::ffet_dual_config(0.5, 2, 2);
    auto ctx = flow::prepare_design(cfg);
    const std::vector<double> cfs = {1.6, 2.4, 3.2, 4.0};
    std::vector<pnr::RouteResult> rs(cfs.size());
    runtime::parallel_for(
        cfs.size(),
        [&](std::size_t i) {
          pnr::RouteOptions ro;
          ro.capacity_factor = cfs[i];
          rs[i] = route_with(*ctx, 0.70, ro, nullptr);
        },
        0, 1);
    for (std::size_t i = 0; i < cfs.size(); ++i) {
      std::printf("    cf=%.1f: DRV %6d -> %s\n", cfs[i], rs[i].drv_estimate,
                  rs[i].valid ? "valid" : "INVALID");
    }
    std::printf("    => cf anchors where the 2-layer configuration stops "
                "closing (Fig. 12's 70%% point).\n");
  }
  return 0;
}
