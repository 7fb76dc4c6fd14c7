// dual_sided_routing — a close-up of the paper's core contribution.
//
// Walks Algorithm 1 on a small visible design: builds a circuit on the
// dual-sided FFET library, shows how each net decomposes into frontside and
// backside subnets by sink-pin side, routes both sides independently,
// writes the two DEFs, merges them (the paper's RC-extraction input), and
// extracts the dual-sided RC tree of one net end to end.
//
//   $ ./dual_sided_routing

#include <cstdio>
#include <map>
#include <fstream>

#include "extract/extract.h"
#include "io/def.h"
#include "liberty/characterize.h"
#include "netlist/builder.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "pnr/router.h"

int main() {
  using namespace ffet;

  // A dual-sided FFET library with half the input pins on the backside.
  tech::Technology tech = tech::make_ffet_3p5t();
  stdcell::PinConfig pins;
  pins.backside_input_fraction = 0.5;
  stdcell::Library lib = stdcell::build_library(tech, pins);
  liberty::characterize_library(lib);

  std::printf("dual-sided library (%s):\n", lib.name().c_str());
  for (const char* cell : {"INVD1", "NAND2D1", "AOI22D1", "DFFD1"}) {
    const stdcell::CellType& c = lib.at(cell);
    std::printf("  %-8s:", cell);
    for (const stdcell::CellPin& p : c.pins()) {
      std::printf(" %s[%s]", p.name.c_str(),
                  std::string(stdcell::to_string(p.side)).c_str());
    }
    std::printf("\n");
  }
  std::printf("  (every output pin is 'both': the Drain Merge reaches FM0 "
              "and BM0)\n\n");

  // A small arithmetic block: 8-bit accumulator.
  netlist::Builder b("accumulator", &lib);
  const netlist::NetId clk = b.input("clk");
  b.netlist().mark_clock_net(clk);
  const netlist::NetId rst_n = b.input("rst_n");
  const netlist::Bus din = b.input_bus("din", 8);
  const netlist::Bus acc_d = b.wires(8, "acc_d");
  const netlist::Bus acc_q = b.dffr_bus(acc_d, clk, rst_n);
  const auto [sum, carry] = b.add(acc_q, din, b.zero());
  for (int i = 0; i < 8; ++i) {
    b.drive(acc_d[static_cast<std::size_t>(i)], "BUFD1",
            {sum[static_cast<std::size_t>(i)]});
  }
  b.output_bus("acc", acc_q);
  b.output("carry", carry);
  // A parity tree over the accumulator: every q bit gains a second sink
  // whose input pin sits on the *other* side, so Algorithm 1 produces
  // genuinely dual-sided nets (source driving both wafer sides).
  netlist::NetId parity = acc_q[0];
  for (int i = 1; i < 8; ++i) {
    parity = b.xor2(parity, acc_q[static_cast<std::size_t>(i)]);
  }
  b.output("parity", parity);
  netlist::Netlist nl = b.take();
  std::printf("design: %d instances, %d nets\n", nl.num_instances(),
              nl.num_nets());

  // Physical flow up to routing.
  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.6;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, lib);
  pnr::place(nl, fp, pp);
  pnr::build_clock_tree(nl, fp);
  const pnr::RouteResult rr = pnr::route_design(nl, fp);

  // Algorithm 1 decomposition summary.
  int front_only = 0, back_only = 0, both = 0;
  {
    std::map<netlist::NetId, std::pair<bool, bool>> sides;
    for (const pnr::NetRoute& r : rr.routes) {
      auto& s = sides[r.net];
      (r.side == tech::Side::Front ? s.first : s.second) = true;
    }
    for (const auto& [net, s] : sides) {
      if (s.first && s.second) ++both;
      else if (s.first) ++front_only;
      else ++back_only;
    }
  }
  std::printf("\nAlgorithm 1 decomposition:\n");
  std::printf("  frontside-only nets : %d\n", front_only);
  std::printf("  backside-only nets  : %d\n", back_only);
  std::printf("  dual-sided nets     : %d (source drives both sides via the "
              "dual-sided output pin)\n",
              both);
  std::printf("  wirelength          : %.1f um front / %.1f um back, %d "
              "DRVs\n",
              rr.wirelength_front_um, rr.wirelength_back_um, rr.drv_estimate);

  // Two DEFs -> merged DEF (the paper's extraction input).
  const io::Def front = io::build_def(nl, rr, tech::Side::Front);
  const io::Def back = io::build_def(nl, rr, tech::Side::Back);
  const io::Def merged = io::merge_defs(front, back);
  std::ofstream("accumulator_front.def") << io::to_def_string(front, nl);
  std::ofstream("accumulator_back.def") << io::to_def_string(back, nl);
  std::ofstream("accumulator_merged.def") << io::to_def_string(merged, nl);
  std::printf("\nwrote accumulator_front.def / _back.def / _merged.def\n");

  // Extract one dual-sided net and print its RC tree.
  const extract::RcNetlist rc = extract::extract_rc(merged, nl, tech);
  for (const io::DefNet& dn : merged.nets) {
    bool has_f = false, has_b = false;
    for (const io::DefWire& w : dn.wires) {
      (w.side == tech::Side::Back ? has_b : has_f) = true;
    }
    if (!has_f || !has_b) continue;
    const extract::RcTreeView t = rc.tree(dn.net);
    std::printf("\nRC tree of dual-sided net '%s': %zu nodes, %.3f fF total "
                "load\n",
                nl.net_name(dn.net).c_str(), t.nodes.size(), t.total_cap_ff);
    for (std::size_t i = 0; i < t.nodes.size() && i < 12; ++i) {
      const auto& n = t.nodes[i];
      std::printf("  node %2zu [%5s] parent=%2d R=%7.1f ohm C=%6.3f fF "
                  "elmore=%6.2f ps\n",
                  i, std::string(tech::to_string(n.side)).c_str(), n.parent,
                  n.r_ohm, n.cap_ff, t.elmore_ps[i]);
    }
    break;
  }
  return 0;
}
