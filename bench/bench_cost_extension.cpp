// bench_cost_extension — EXTENSION beyond the paper: PPA per process cost.
//
// The paper argues layer-count reduction makes the FFET "cost-friendly"
// (Sec. IV conclusion, Figs. 12-13) but reports no cost numbers.  This
// bench attaches the relative BEOL cost model (src/tech/cost.h) to the
// Fig. 13 sweep and ranks configurations by performance-per-cost —
// quantifying the paper's qualitative claim.

#include <cstdio>

#include "bench_common.h"
#include "tech/cost.h"

using namespace ffet;

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv, "bench_cost_extension");
  bench::print_title(
      "Cost extension",
      "PPA per relative process cost (quantifying 'cost-friendly design')");

  struct Row {
    const char* name;
    flow::FlowConfig cfg;
  };
  std::vector<Row> rows;
  rows.push_back({"4T CFET FM12", bench::cfet_config()});
  rows.push_back({"FFET FM12 (single-sided)", bench::ffet_fm12_config()});
  for (int n : {12, 8, 6, 5, 4, 3}) {
    static char names[8][32];
    static int idx = 0;
    std::snprintf(names[idx], sizeof names[idx], "FFET FM%dBM%d 50/50", n, n);
    rows.push_back({names[idx], bench::ffet_dual_config(0.5, n, n)});
    ++idx;
  }

  std::printf("\n%-28s %8s %8s %8s %10s %14s\n", "config", "cost", "f(GHz)",
              "P(uW)", "GHz/mW", "GHz/(mW*cost)");
  for (Row& row : rows) {
    row.cfg.target_freq_ghz = 1.5;
    row.cfg.utilization = 0.72;
    const auto ctx = flow::prepare_design(row.cfg);
    const auto cost = tech::relative_process_cost(ctx->tech());
    const flow::FlowResult r = flow::run_physical(*ctx, row.cfg);
    const double eff_per_cost =
        cost.total > 0 ? r.efficiency_ghz_per_mw / cost.total : 0.0;
    std::printf("%-28s %8.2f %8.3f %8.0f %10.3f %14.4f%s\n", row.name,
                cost.total, r.achieved_freq_ghz, r.power_uw,
                r.efficiency_ghz_per_mw, eff_per_cost,
                r.valid() ? "" : "  [INVALID]");
  }
  std::printf("\nreading: mid-stack FFET patterns (FM5-6/BM5-6) should take "
              "the best efficiency-per-cost, matching the paper's\n"
              "cost-friendly-design conclusion; the full 24-layer stack pays "
              "cost for capacity this block does not need.\n");
  return 0;
}
