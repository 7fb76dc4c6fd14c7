// bench_fig11 — reproduces Fig. 11: power-frequency clouds of five input-
// pin-density DoEs (FP0.96BP0.04 … FP0.5BP0.5), all with the FM12BM12
// routing pattern, sweeping utilization 46 %–76 % at 1.5 GHz target.
//
// Paper: FP0.5BP0.5 and FP0.6BP0.4 show the best power-frequency
// characteristics, FP0.7BP0.3 follows, FP0.84BP0.16 and FP0.96BP0.04 trail.

#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace ffet;

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv, "bench_fig11");
  bench::print_title(
      "Fig. 11",
      "Power-frequency clouds across input-pin-density DoEs (FM12BM12)");

  const std::vector<double> backside = {0.04, 0.16, 0.3, 0.4, 0.5};
  // Utilization grid 0.46..0.76 step 0.06; integer index avoids the
  // float-accumulation drift that can drop or duplicate the final point.
  constexpr int kPoints = 6;
  struct Cloud {
    double bp;
    double mean_freq = 0, mean_power = 0;
    int n = 0;
  };
  std::vector<Cloud> clouds;
  bench::SweepTimer timer("bench_fig11",
                          static_cast<int>(backside.size()) * kPoints);

  std::printf("\n%-14s %6s %10s %10s %8s\n", "DoE", "util", "f(GHz)",
              "P(uW)", "valid");
  for (double bp : backside) {
    flow::FlowConfig cfg = bench::ffet_dual_config(bp);
    cfg.target_freq_ghz = 1.5;
    auto ctx = flow::prepare_design(cfg);
    Cloud c;
    c.bp = bp;
    stdcell::PinConfig pc;
    pc.backside_input_fraction = bp;
    std::vector<flow::FlowConfig> cfgs;
    for (int i = 0; i < kPoints; ++i) {
      cfg.utilization = 0.46 + 0.06 * i;
      cfgs.push_back(cfg);
    }
    const std::vector<flow::FlowResult> results = flow::run_sweep(*ctx, cfgs);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const flow::FlowResult& r = results[i];
      std::printf("%-14s %6.2f %10.3f %10.1f %8s\n", pc.label().c_str(),
                  cfgs[i].utilization, r.achieved_freq_ghz, r.power_uw,
                  r.valid() ? "yes" : "NO");
      if (r.valid()) {
        c.mean_freq += r.achieved_freq_ghz;
        c.mean_power += r.power_uw;
        ++c.n;
      }
    }
    if (c.n) {
      c.mean_freq /= c.n;
      c.mean_power /= c.n;
    }
    clouds.push_back(c);
  }

  std::printf("\ncloud centers (mean over valid utilization sweep):\n");
  std::printf("%-14s %12s %12s %16s\n", "DoE", "f(GHz)", "P(uW)",
              "f/P (GHz/mW)");
  for (const Cloud& c : clouds) {
    stdcell::PinConfig pc;
    pc.backside_input_fraction = c.bp;
    std::printf("%-14s %12.3f %12.1f %16.3f\n", pc.label().c_str(),
                c.mean_freq, c.mean_power,
                c.mean_power > 0 ? c.mean_freq / (c.mean_power / 1000.0) : 0);
  }
  std::printf("\npaper ordering: FP0.5BP0.5 ~ FP0.6BP0.4 best, FP0.7BP0.3 "
              "next, FP0.84BP0.16 and FP0.96BP0.04 trailing.\n");
  return 0;
}
