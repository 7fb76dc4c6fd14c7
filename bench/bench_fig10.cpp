// bench_fig10 — reproduces Fig. 10: frequency-area relationship of the CFET
// vs FFET FM12 at 1.5 GHz synthesis target, sweeping utilization (area).
//
// Paper headline: FFET FM12 reaches +16.0 % frequency at the CFET's minimum
// core area and +23.4 % at respective maximum frequency.

#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace ffet;

namespace {

struct Point {
  double util, area, freq;
  bool valid;
};

// Utilization grid 0.46..0.86 step 0.05; integer index avoids the
// float-accumulation drift that can drop or duplicate the final point.
constexpr int kPoints = 9;

std::vector<Point> sweep(const flow::DesignContext& ctx,
                         flow::FlowConfig cfg) {
  std::vector<flow::FlowConfig> cfgs;
  for (int i = 0; i < kPoints; ++i) {
    cfg.utilization = 0.46 + 0.05 * i;
    cfgs.push_back(cfg);
  }
  const std::vector<flow::FlowResult> results = flow::run_sweep(ctx, cfgs);
  std::vector<Point> pts;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const flow::FlowResult& r = results[i];
    pts.push_back(
        {cfgs[i].utilization, r.core_area_um2, r.achieved_freq_ghz, r.valid()});
  }
  return pts;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv, "bench_fig10");
  bench::print_title("Fig. 10",
                     "Frequency-area: CFET vs FFET FM12 at 1.5GHz target");
  bench::SweepTimer timer("bench_fig10", 2 * kPoints);

  flow::FlowConfig ccfg = bench::cfet_config();
  ccfg.target_freq_ghz = 1.5;
  auto cctx = flow::prepare_design(ccfg);
  flow::FlowConfig fcfg = bench::ffet_fm12_config();
  fcfg.target_freq_ghz = 1.5;
  auto fctx = flow::prepare_design(fcfg);

  const auto cfet = sweep(*cctx, ccfg);
  const auto ffet = sweep(*fctx, fcfg);

  std::printf("\n%6s | %12s %10s | %12s %10s\n", "util", "CFET area",
              "f(GHz)", "FFET area", "f(GHz)");
  for (std::size_t i = 0; i < cfet.size(); ++i) {
    std::printf("%6.2f | %10.1f%s %10.3f | %10.1f%s %10.3f\n", cfet[i].util,
                cfet[i].area, cfet[i].valid ? " " : "!", cfet[i].freq,
                ffet[i].area, ffet[i].valid ? " " : "!", ffet[i].freq);
  }
  std::printf("('!' marks invalid P&R points — excluded from comparisons)\n");

  // Respective max frequency.
  double cf_max = 0, ff_max = 0;
  double cfet_min_area = 1e18;
  for (const auto& p : cfet) {
    if (!p.valid) continue;
    cf_max = std::max(cf_max, p.freq);
    cfet_min_area = std::min(cfet_min_area, p.area);
  }
  for (const auto& p : ffet) {
    if (p.valid) ff_max = std::max(ff_max, p.freq);
  }
  std::printf("\n  freq gain at respective max freq: %+5.1f%%  (paper: +23.4%%)\n",
              bench::pct(ff_max, cf_max));

  // FFET frequency at the CFET's minimum core area (FFET run whose area is
  // closest to it from below or equal).
  double ffet_freq_at_area = 0.0;
  for (const auto& p : ffet) {
    if (p.valid && p.area <= cfet_min_area * 1.05) {
      ffet_freq_at_area = std::max(ffet_freq_at_area, p.freq);
    }
  }
  if (ffet_freq_at_area > 0) {
    std::printf(
        "  freq gain at CFET min core area : %+5.1f%%  (paper: +16.0%%)\n",
        bench::pct(ffet_freq_at_area, cf_max));
  }
  return 0;
}
