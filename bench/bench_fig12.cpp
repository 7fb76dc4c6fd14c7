// bench_fig12 — reproduces Fig. 12: maximum utilization of FFET FP0.5BP0.5
// as the number of routing layers shrinks simultaneously on both sides.
//
// Paper: max utilization stays flat at 86 % (Power-Tap-Cell-limited, not
// routability-limited) until fewer than 4 layers per side, and still
// reaches 70 % with only 2 layers per side.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/thread_pool.h"

using namespace ffet;

namespace {

struct Row {
  int layers = 0;
  bool has_max = false;
  double max_util = 0.0;
  std::string limiter;
};

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv, "bench_fig12");
  bench::print_title(
      "Fig. 12",
      "Max utilization of FFET FP0.5BP0.5 vs routing layers per side");

  // One bisection per layer count; the bisections are independent, so they
  // run as parallel sweep points (each point prepares its own context — the
  // characterization cache makes the repeated library builds cheap).
  std::vector<int> layer_counts;
  for (int n = 12; n >= 2; --n) layer_counts.push_back(n);
  bench::SweepTimer timer("bench_fig12",
                          static_cast<int>(layer_counts.size()));

  std::vector<Row> rows(layer_counts.size());
  runtime::parallel_for(
      layer_counts.size(),
      [&](std::size_t i) {
        const int n = layer_counts[i];
        flow::FlowConfig cfg = bench::ffet_dual_config(0.5, n, n);
        cfg.target_freq_ghz = 1.5;
        cfg.threads = 1;  // the layer sweep owns the parallelism
        auto ctx = flow::prepare_design(cfg);
        Row& row = rows[i];
        row.layers = n;
        const auto max_util =
            flow::find_max_utilization(*ctx, cfg, 0.40, 0.96, 0.01);
        if (!max_util) return;
        row.has_max = true;
        row.max_util = *max_util;
        // Classify the limiter: run just above the max util and check which
        // criterion failed.
        cfg.utilization = std::min(0.96, *max_util + 0.02);
        const flow::FlowResult above = flow::run_physical(*ctx, cfg);
        row.limiter = !above.placement_legal ? "Power Tap Cells (placement)"
                                             : "routability (DRV)";
      },
      0, 1);

  std::printf("\n%12s %14s %s\n", "layers/side", "max util", "limited by");
  for (const Row& row : rows) {
    if (!row.has_max) {
      std::printf("%12d %14s %s\n", row.layers, "<0.40",
                  "routability collapse");
    } else {
      std::printf("%12d %14.2f %s\n", row.layers, row.max_util,
                  row.limiter.c_str());
    }
  }
  std::printf("\npaper: flat 0.86 (tap-limited) down to 4 layers/side; 0.70 "
              "at 2 layers/side.\n");
  return 0;
}
