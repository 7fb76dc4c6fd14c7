// Tests for the signoff-lite modules: placement DRC checking, the BEOL
// cost model, and corner-derated STA.

#include <gtest/gtest.h>

#include "liberty/characterize.h"
#include "netlist/builder.h"
#include "pnr/drc.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "riscv/rv32.h"
#include "sta/sta.h"
#include "tech/cost.h"

namespace ffet {
namespace {

// --- DRC ---------------------------------------------------------------------

class DrcTest : public ::testing::Test {
 protected:
  DrcTest()
      : tech_(tech::make_ffet_3p5t()), lib_(stdcell::build_library(tech_)) {
    liberty::characterize_library(lib_);
  }
  tech::Technology tech_;
  stdcell::Library lib_;
};

TEST_F(DrcTest, LegalPlacementIsClean) {
  riscv::Rv32Options opt;
  opt.num_registers = 8;
  netlist::Netlist nl = riscv::build_rv32_core(lib_, opt);
  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.65;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech_, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, lib_);
  ASSERT_TRUE(pnr::place(nl, fp, pp).legal);
  const pnr::DrcReport rep = pnr::check_placement(nl, fp, pp);
  EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST_F(DrcTest, DetectsInjectedViolations) {
  netlist::Builder b("drc", &lib_);
  const netlist::NetId a = b.input("a");
  b.output("z", b.inv(b.inv(a)));
  netlist::Netlist nl = b.take();
  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.3;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech_, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, lib_);
  ASSERT_TRUE(pnr::place(nl, fp, pp).legal);

  // Inject: off-grid x, off-row y, overlap, outside core.
  netlist::Netlist bad = nl;
  bad.instance(0).pos.x += 7;  // off site grid
  pnr::DrcReport rep = pnr::check_placement(bad, fp, pp);
  EXPECT_GT(rep.count(pnr::DrcViolation::Kind::OffSiteGrid), 0);

  bad = nl;
  bad.instance(0).pos.y += 13;
  rep = pnr::check_placement(bad, fp, pp);
  EXPECT_GT(rep.count(pnr::DrcViolation::Kind::OffRowGrid), 0);

  bad = nl;
  bad.instance(0).pos = bad.instance(1).pos;  // exact overlap
  rep = pnr::check_placement(bad, fp, pp);
  EXPECT_GT(rep.count(pnr::DrcViolation::Kind::CellOverlap), 0);

  bad = nl;
  bad.instance(0).pos = {fp.core.hi.x + 100, 0};
  rep = pnr::check_placement(bad, fp, pp);
  EXPECT_GT(rep.count(pnr::DrcViolation::Kind::OutsideCore), 0);
  EXPECT_FALSE(rep.clean());
  EXPECT_NE(rep.summary().find("violation"), std::string::npos);
}

TEST_F(DrcTest, DetectsCellOnTapBlockage) {
  // Needs a core wide enough to contain a backside VSS stripe (128 CPP);
  // a small RV32 core suffices.
  riscv::Rv32Options opt;
  opt.num_registers = 4;
  netlist::Netlist nl = riscv::build_rv32_core(lib_, opt);
  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.5;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech_, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, lib_);
  ASSERT_FALSE(pp.blockages.empty());
  // Drop the movable cell exactly onto a tap blockage.
  nl.instance(0).pos = pp.blockages.front().lo;
  const pnr::DrcReport rep = pnr::check_placement(nl, fp, pp);
  EXPECT_GT(rep.count(pnr::DrcViolation::Kind::BlockageOverlap) +
                rep.count(pnr::DrcViolation::Kind::CellOverlap),
            0);
}

TEST_F(DrcTest, ReportsFirstOverlappingBlockageInPlanOrder) {
  // One movable cell, shifted half a row so it spans two rows, overlaps two
  // blockages: the first in pp.blockages order sits in its upper row only,
  // the second in its lower row only.  The report must name the
  // intersection with the first, whatever row it is found in.
  netlist::Builder b("drc2", &lib_);
  netlist::NetId x = b.input("a");
  for (int i = 0; i < 64; ++i) x = b.inv(x);
  b.output("z", x);
  netlist::Netlist nl = b.take();
  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.3;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech_, fo);
  pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, lib_);
  ASSERT_TRUE(pnr::place(nl, fp, pp).legal);
  const geom::Nm h = fp.row_height;
  ASSERT_GE(fp.core.height(), 4 * h) << "the case needs rows to bucket";

  // A movable cell whose shifted box stays two rows inside the core.
  netlist::InstId id = 0;
  while (nl.instance(id).fixed ||
         nl.instance(id).pos.y + 2 * h > fp.core.hi.y) {
    ++id;
  }
  nl.instance(id).pos.y += h / 2;
  const geom::Rect box = nl.instance(id).bbox();
  const geom::Nm x0 = box.lo.x;
  const geom::Nm xm = box.lo.x + box.width() / 2;
  const geom::Nm y0 = box.lo.y - h / 2;  // the lower row's bottom edge
  const geom::Rect upper{{xm, y0 + h}, {box.hi.x + 50, y0 + 2 * h}};
  const geom::Rect lower{{x0 - 50, y0}, {xm, y0 + h}};
  ASSERT_TRUE(box.overlaps_interior(upper));
  ASSERT_TRUE(box.overlaps_interior(lower));
  pp.blockages = {upper, lower};

  const pnr::DrcReport rep = pnr::check_placement(nl, fp, pp);
  int hits = 0;
  for (const pnr::DrcViolation& v : rep.violations) {
    if (v.kind != pnr::DrcViolation::Kind::BlockageOverlap ||
        v.a != nl.instance_name(id)) {
      continue;
    }
    ++hits;
    EXPECT_EQ(v.where, box.intersected(upper));
    EXPECT_EQ(v.where, (geom::Rect{{xm, y0 + h}, {box.hi.x, box.hi.y}}));
  }
  EXPECT_EQ(hits, 1);
}

// --- cost model -----------------------------------------------------------------

TEST(CostModel, FfetCostsMoreThanCfetAtFullStack) {
  // Full dual-sided FFET carries 24 patterned layers vs CFET's 12 + PDN.
  const auto ffet = tech::relative_process_cost(tech::make_ffet_3p5t());
  const auto cfet = tech::relative_process_cost(tech::make_cfet_4t());
  EXPECT_GT(ffet.total, cfet.total);
  EXPECT_GT(ffet.backside_layers, cfet.backside_layers);
  EXPECT_GT(cfet.modules, 0.0);  // nTSV + BPR + backside PDN module
}

TEST(CostModel, LayerReductionCutsCost) {
  const tech::Technology full = tech::make_ffet_3p5t();
  const tech::Technology slim = full.with_routing_limit(6, 6);
  const tech::Technology slimmer = full.with_routing_limit(3, 3);
  const double c_full = tech::relative_process_cost(full).total;
  const double c_slim = tech::relative_process_cost(slim).total;
  const double c_slimmer = tech::relative_process_cost(slimmer).total;
  EXPECT_GT(c_full, c_slim);
  EXPECT_GT(c_slim, c_slimmer);
  // FM6BM6 should undercut even the CFET's full stack cost eventually.
  const double c_cfet = tech::relative_process_cost(tech::make_cfet_4t()).total;
  EXPECT_LT(c_slimmer, c_cfet);
}

TEST(CostModel, FinePitchLayersCostMore) {
  tech::CostModel m;
  const auto b = tech::relative_process_cost(tech::make_ffet_3p5t(), m);
  // 24 signal+cell layers between fine/mid/fat plus modules: sane range.
  EXPECT_GT(b.total, 1.5);
  EXPECT_LT(b.total, 4.0);
  EXPECT_EQ(b.num_layers, 26);  // FM0-12 + BM0-12
}

// --- corners ----------------------------------------------------------------------

class CornerTest : public ::testing::Test {
 protected:
  CornerTest()
      : tech_(tech::make_ffet_3p5t()), lib_(stdcell::build_library(tech_)) {
    liberty::characterize_library(lib_);
    netlist::Builder b("c", &lib_);
    const netlist::NetId clk = b.input("clk");
    b.netlist().mark_clock_net(clk);
    const netlist::NetId q0 = b.dff(b.input("d"), clk);
    netlist::NetId x = q0;
    for (int i = 0; i < 4; ++i) x = b.inv(x);
    b.output("q", b.dff(x, clk));
    nl_ = std::make_unique<netlist::Netlist>(b.take());
  }
  tech::Technology tech_;
  stdcell::Library lib_;
  std::unique_ptr<netlist::Netlist> nl_;
};

TEST_F(CornerTest, SlowCornerStretchesSetupPath) {
  sta::StaOptions typ;
  sta::StaOptions slow;
  slow.derate_late = 1.15;
  sta::Sta t(nl_.get(), nullptr, typ);
  sta::Sta s(nl_.get(), nullptr, slow);
  const double d_typ = t.analyze_timing().critical_path_ps;
  const double d_slow = s.analyze_timing().critical_path_ps;
  EXPECT_GT(d_slow, d_typ * 1.05);
  EXPECT_LT(d_slow, d_typ * 1.16);
}

TEST_F(CornerTest, FastCornerTightensHold) {
  sta::StaOptions typ;
  sta::StaOptions fast;
  fast.derate_early = 0.85;
  sta::Sta t(nl_.get(), nullptr, typ);
  t.analyze_timing();
  sta::Sta f(nl_.get(), nullptr, fast);
  f.analyze_timing();
  const double slack_typ = t.analyze_hold().worst_slack_ps;
  const double slack_fast = f.analyze_hold().worst_slack_ps;
  EXPECT_LT(slack_fast, slack_typ);
}

}  // namespace
}  // namespace ffet
