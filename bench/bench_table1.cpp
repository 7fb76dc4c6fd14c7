// bench_table1 — reproduces Table I: library characterization KPI
// differences of the 3.5T FFET libraries w.r.t. the 4T CFET (INV and BUF
// cells at drives D1/D2/D4).

#include <cstdio>
#include <map>
#include <string>

#include "bench_common.h"
#include "liberty/characterize.h"

using namespace ffet;

namespace {

struct PaperRow {
  double power, leak, rise, fall, rtrans, ftrans;
};

// Table I of the paper, in percent.
const std::map<std::string, PaperRow> kPaper = {
    {"INVD1", {+0.3, 0.0, -2.5, -8.1, -1.1, -4.0}},
    {"INVD2", {+0.3, 0.0, -2.8, -9.9, -1.2, -2.4}},
    {"INVD4", {+0.2, 0.0, +6.8, -13.6, -4.9, -3.4}},
    {"BUFD1", {-3.0, 0.0, -10.1, -10.7, -3.9, -5.1}},
    {"BUFD2", {-10.9, 0.0, -12.8, -14.4, -8.4, -6.5}},
    {"BUFD4", {-11.8, 0.0, -13.6, -15.8, +9.2, -9.7}},
};

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv, "bench_table1");
  bench::print_title("Table I",
                     "Library characterization: KPI diff of FFET w.r.t CFET");
  bench::print_note("KPIs at a drive-proportional FO4-style operating point.");
  bench::print_note("columns: measured% (paper%)");

  tech::Technology ffet = tech::make_ffet_3p5t();
  tech::Technology cfet = tech::make_cfet_4t();
  stdcell::Library flib = stdcell::build_library(ffet);
  stdcell::Library clib = stdcell::build_library(cfet);
  liberty::characterize_library(flib);
  liberty::characterize_library(clib);

  std::printf(
      "\n%-8s %18s %18s %18s %18s %18s %18s\n", "Cell", "TransPower",
      "Leakage", "RiseTiming", "FallTiming", "RiseTrans", "FallTrans");
  for (const auto& [cell, paper] : kPaper) {
    const liberty::KpiDiff d =
        liberty::compare_cell(flib.at(cell), clib.at(cell));
    auto fmt = [](double measured, double expected) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%+6.1f%% (%+5.1f%%)", measured,
                    expected);
      return std::string(buf);
    };
    std::printf("%-8s %18s %18s %18s %18s %18s %18s\n", cell.c_str(),
                fmt(d.transition_power_pct, paper.power).c_str(),
                fmt(d.leakage_power_pct, paper.leak).c_str(),
                fmt(d.rise_timing_pct, paper.rise).c_str(),
                fmt(d.fall_timing_pct, paper.fall).c_str(),
                fmt(d.rise_transition_pct, paper.rtrans).c_str(),
                fmt(d.fall_transition_pct, paper.ftrans).c_str());
  }

  std::printf("\nFull library sweep (all logic cells):\n");
  for (const liberty::KpiDiff& d : liberty::compare_libraries(flib, clib)) {
    std::printf(
        "  %-10s power %+6.1f%%  rise %+6.1f%%  fall %+6.1f%%  leak %+4.1f%%\n",
        d.cell.c_str(), d.transition_power_pct, d.rise_timing_pct,
        d.fall_timing_pct, d.leakage_power_pct);
  }
  return 0;
}
