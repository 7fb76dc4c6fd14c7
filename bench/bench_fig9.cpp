// bench_fig9 — reproduces Fig. 9: power-frequency relationship of the CFET
// vs FFET FM12 (both single-sided signals) at 76 % utilization, sweeping
// the synthesis target frequency from 500 MHz to 3 GHz.
//
// Paper headline: FFET FM12 achieves +25 % frequency and -11.9 % power at
// the same utilization.

#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace ffet;

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv, "bench_fig9");
  bench::print_title("Fig. 9",
                     "Power-frequency: CFET vs FFET FM12 at 76% utilization");

  const std::vector<double> targets = {0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0};

  struct Point {
    double target, freq, power;
  };
  std::vector<Point> cfet_pts, ffet_pts;

  for (double tgt : targets) {
    flow::FlowConfig c = bench::cfet_config();
    c.target_freq_ghz = tgt;
    c.utilization = 0.76;
    const flow::FlowResult rc = flow::run_flow(c);
    cfet_pts.push_back({tgt, rc.achieved_freq_ghz, rc.power_uw});

    flow::FlowConfig f = bench::ffet_fm12_config();
    f.target_freq_ghz = tgt;
    f.utilization = 0.76;
    const flow::FlowResult rf = flow::run_flow(f);
    ffet_pts.push_back({tgt, rf.achieved_freq_ghz, rf.power_uw});
  }

  std::printf("\n%10s | %12s %12s | %12s %12s\n", "target", "CFET f(GHz)",
              "CFET P(uW)", "FFET f(GHz)", "FFET P(uW)");
  for (std::size_t i = 0; i < targets.size(); ++i) {
    std::printf("%9.2fG | %12.3f %12.1f | %12.3f %12.1f\n", targets[i],
                cfet_pts[i].freq, cfet_pts[i].power, ffet_pts[i].freq,
                ffet_pts[i].power);
  }

  // Max achieved frequency comparison.
  double cf_max = 0, ff_max = 0;
  for (const auto& p : cfet_pts) cf_max = std::max(cf_max, p.freq);
  for (const auto& p : ffet_pts) ff_max = std::max(ff_max, p.freq);
  std::printf("\n  frequency gain at max achieved: %+5.1f%%  (paper: +25%%)\n",
              bench::pct(ff_max, cf_max));

  // Power at comparable frequency: find the FFET point whose achieved
  // frequency is closest to each CFET point and compare power.
  double power_diff_sum = 0.0;
  int n = 0;
  for (const auto& cp : cfet_pts) {
    const Point* best = nullptr;
    for (const auto& fp : ffet_pts) {
      if (!best || std::abs(fp.freq - cp.freq) < std::abs(best->freq - cp.freq)) {
        best = &fp;
      }
    }
    if (best && std::abs(best->freq - cp.freq) / cp.freq < 0.15) {
      power_diff_sum += bench::pct(best->power, cp.power);
      ++n;
    }
  }
  if (n > 0) {
    std::printf("  power diff at iso-frequency   : %+5.1f%%  (paper: -11.9%%)\n",
                power_diff_sum / n);
  } else {
    std::printf("  (no iso-frequency pairs within 15%% — curves disjoint)\n");
  }
  return 0;
}
