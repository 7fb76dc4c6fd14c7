// bench_fig13 — reproduces Fig. 13: power efficiency of FFET FP0.5BP0.5 as
// the routing-layer count is reduced from 12 to 3 per side, at 1.5 GHz
// target and 76 % utilization.
//
// Paper: power efficiency degrades by only 0.68 % from 12 to 5 layers per
// side — the cost-friendly-design headroom of the FFET architecture.

#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace ffet;

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv, "bench_fig13");
  bench::print_title(
      "Fig. 13",
      "Power efficiency of FFET FP0.5BP0.5 vs routing layers per side");

  // Each layer count needs its own prepared design (the routing limit is
  // baked into the technology), so this is a ctx-free parallel sweep.
  std::vector<flow::FlowConfig> cfgs;
  for (int n = 12; n >= 3; --n) {
    flow::FlowConfig cfg = bench::ffet_dual_config(0.5, n, n);
    cfg.target_freq_ghz = 1.5;
    cfg.utilization = 0.76;
    cfgs.push_back(cfg);
  }
  bench::SweepTimer timer("bench_fig13", static_cast<int>(cfgs.size()));
  const std::vector<flow::FlowResult> results = flow::run_sweep(cfgs);

  double base_eff = 0.0;
  std::printf("\n%12s %12s %12s %16s %10s\n", "layers/side", "f(GHz)",
              "P(uW)", "eff (GHz/mW)", "vs 12L");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const int n = cfgs[i].front_layers;
    const flow::FlowResult& r = results[i];
    if (n == 12) base_eff = r.efficiency_ghz_per_mw;
    std::printf("%12d %12.3f %12.1f %16.3f %+9.2f%%%s\n", n,
                r.achieved_freq_ghz, r.power_uw, r.efficiency_ghz_per_mw,
                bench::pct(r.efficiency_ghz_per_mw, base_eff),
                r.valid() ? "" : "  [INVALID]");
  }
  std::printf("\npaper: only -0.68%% efficiency from 12 down to 5 layers per "
              "side.\n");
  return 0;
}
