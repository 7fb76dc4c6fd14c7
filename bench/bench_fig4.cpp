// bench_fig4 — reproduces Fig. 4: standard-cell area comparison between the
// 3.5T FFET and the 4T CFET, including the Split-Gate gains (MUX/DFF) and
// the extra-Drain-Merge losses (AOI22/OAI22).

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "stdcell/stdcell.h"

using namespace ffet;

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv, "bench_fig4");
  bench::print_title("Fig. 4", "Standard cell area: 3.5T FFET vs 4T CFET");
  bench::print_note(
      "paper: ~12.5% mean scaling; extra gains in MUX/DFF (Split Gate);");
  bench::print_note("AOI22/OAI22 lose area to the extra Drain Merge.");

  tech::Technology ffet = tech::make_ffet_3p5t();
  tech::Technology cfet = tech::make_cfet_4t();
  const stdcell::Library flib = stdcell::build_library(ffet);
  const stdcell::Library clib = stdcell::build_library(cfet);

  std::printf("\n%-10s %12s %12s %10s %s\n", "Cell", "CFET um^2", "FFET um^2",
              "saving", "mechanism");
  double sum = 0.0;
  int n = 0;
  for (const auto& cell : flib.cells()) {
    if (cell->physical_only()) continue;
    const stdcell::CellType* other = clib.find(cell->name());
    if (!other) continue;
    const double saving = 1.0 - cell->area_um2() / other->area_um2();
    sum += saving;
    ++n;
    const char* why = "";
    if (cell->structure().split_gate_pairs > 0) why = "Split Gate gain";
    if (cell->structure().width_cpp_ffet > cell->structure().width_cpp_cfet) {
      why = "extra Drain Merge penalty";
    }
    std::printf("%-10s %12.5f %12.5f %9.1f%% %s\n", cell->name().c_str(),
                other->area_um2(), cell->area_um2(), saving * 100.0, why);
  }
  std::printf("\nmean cell-area saving: %.1f%%  (paper: ~12.5%%, more in "
              "MUX/DFF)\n",
              sum / n * 100.0);
  return 0;
}
