// bench_table3 — reproduces Table III: input-pin-density × routing-layer
// co-optimization.  Each DoE limits the total routing-layer count to 12
// (FMx + BMy) and reports achieved frequency / power differences against
// the single-sided FFET FM12 baseline at the same utilization and target.
//
// Paper: FP0.5BP0.5 + FM6BM6 gains +10.6 % frequency at no power cost;
// FP0.7BP0.3 + FM8BM4 / FM7BM5 reach +12.8 % with +1.4 % power.

#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace ffet;

namespace {

struct Doe {
  double bp;
  int fm, bm;
  double paper_freq, paper_power;
};

// All rows of Table III.
const std::vector<Doe> kDoes = {
    {0.04, 10, 2, +5.3, -2.9}, {0.04, 9, 3, +5.3, -2.1},
    {0.16, 9, 3, +8.5, -0.7},  {0.16, 8, 4, +9.6, +0.7},
    {0.30, 9, 3, +8.5, -2.0},  {0.30, 8, 4, +12.8, +1.4},
    {0.30, 7, 5, +12.8, +1.4}, {0.40, 8, 4, +6.3, -4.3},
    {0.40, 7, 5, +8.5, -2.9},  {0.40, 6, 6, +7.4, -3.6},
    {0.50, 8, 4, +9.6, -1.4},  {0.50, 7, 5, +10.6, -0.7},
    {0.50, 6, 6, +10.6, -1.4},
};

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv, "bench_table3");
  bench::print_title("Table III",
                     "Pin-density x routing-layer co-optimization vs FFET FM12");
  const double util = 0.72;
  const double target = 1.5;

  // One ctx-free sweep: the FM12 baseline first, then all 13 DoE rows.
  // Every point needs its own prepared design (pin config and layer limits
  // differ), so the per-point prepare_design runs inside the sweep.
  std::vector<flow::FlowConfig> cfgs;
  flow::FlowConfig base_cfg = bench::ffet_fm12_config();
  base_cfg.target_freq_ghz = target;
  base_cfg.utilization = util;
  cfgs.push_back(base_cfg);
  for (const Doe& d : kDoes) {
    flow::FlowConfig cfg = bench::ffet_dual_config(d.bp, d.fm, d.bm);
    cfg.target_freq_ghz = target;
    cfg.utilization = util;
    cfgs.push_back(cfg);
  }
  bench::SweepTimer timer("bench_table3", static_cast<int>(cfgs.size()));
  const std::vector<flow::FlowResult> results = flow::run_sweep(cfgs);

  const flow::FlowResult& base = results.front();
  std::printf("\nbaseline FFET FM12 @ util %.2f: f=%.3f GHz  P=%.1f uW  "
              "(valid=%s)\n",
              util, base.achieved_freq_ghz, base.power_uw,
              base.valid() ? "yes" : "NO");

  std::printf("\n%-14s %-10s %14s %20s %14s %20s\n", "Pin density",
              "Layers", "freq diff", "(paper)", "power diff", "(paper)");
  for (std::size_t i = 0; i < kDoes.size(); ++i) {
    const Doe& d = kDoes[i];
    const flow::FlowResult& r = results[i + 1];
    stdcell::PinConfig pc;
    pc.backside_input_fraction = d.bp;
    char layers[16];
    std::snprintf(layers, sizeof layers, "FM%dBM%d", d.fm, d.bm);
    std::printf("%-14s %-10s %+13.1f%% %19.1f%% %+13.1f%% %19.1f%%%s\n",
                pc.label().c_str(), layers,
                bench::pct(r.achieved_freq_ghz, base.achieved_freq_ghz),
                d.paper_freq, bench::pct(r.power_uw, base.power_uw),
                d.paper_power, r.valid() ? "" : "  [INVALID]");
  }
  return 0;
}
