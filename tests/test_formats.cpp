// Tests for the exchange formats: structural Verilog round-trip, the
// Liberty writer, and the SPEF writer.

#include <gtest/gtest.h>

#include "extract/spef.h"
#include "io/def.h"
#include "io/verilog.h"
#include "liberty/characterize.h"
#include "liberty/liberty_writer.h"
#include "netlist/builder.h"
#include "netlist/sim.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "riscv/encode.h"
#include "riscv/harness.h"
#include "riscv/rv32.h"

namespace ffet {
namespace {

class FormatsTest : public ::testing::Test {
 protected:
  FormatsTest()
      : tech_(tech::make_ffet_3p5t()), lib_(stdcell::build_library(tech_)) {
    liberty::characterize_library(lib_);
  }
  tech::Technology tech_;
  stdcell::Library lib_;
};

// --- Verilog ---------------------------------------------------------------

TEST_F(FormatsTest, VerilogRoundTripSmallDesign) {
  netlist::Builder b("adder4", &lib_);
  const netlist::Bus a = b.input_bus("a", 4);
  const netlist::Bus c = b.input_bus("b", 4);
  const auto [sum, cout] = b.add(a, c, b.zero());
  b.output_bus("s", sum);
  b.output("cout", cout);
  const netlist::Netlist original = b.take();

  const std::string text = io::to_verilog_string(original);
  EXPECT_NE(text.find("module adder4"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);

  const netlist::Netlist parsed = io::read_verilog_string(text, lib_);
  EXPECT_EQ(parsed.name(), original.name());
  EXPECT_EQ(parsed.num_instances(), original.num_instances());
  EXPECT_EQ(parsed.num_nets(), original.num_nets());
  EXPECT_EQ(parsed.num_ports(), original.num_ports());
  EXPECT_TRUE(parsed.validate().empty());

  // Functional equivalence via simulation.
  netlist::Simulator s1(&original), s2(&parsed);
  for (unsigned x : {0u, 3u, 9u, 15u}) {
    for (unsigned y : {0u, 7u, 15u}) {
      s1.set_bus("a", 4, x);
      s1.set_bus("b", 4, y);
      s1.evaluate();
      s2.set_bus("a", 4, x);
      s2.set_bus("b", 4, y);
      s2.evaluate();
      EXPECT_EQ(s1.read_bus("s", 4), s2.read_bus("s", 4)) << x << "+" << y;
      EXPECT_EQ(s1.output("cout"), s2.output("cout"));
    }
  }
}

TEST_F(FormatsTest, VerilogRoundTripRv32Core) {
  riscv::Rv32Options opt;
  opt.num_registers = 4;
  const netlist::Netlist core = riscv::build_rv32_core(lib_, opt);
  netlist::Netlist parsed =
      io::read_verilog_string(io::to_verilog_string(core), lib_);
  EXPECT_EQ(parsed.num_instances(), core.num_instances());
  EXPECT_TRUE(parsed.validate().empty());
  // The parsed core still executes programs (clock marking re-applied).
  parsed.mark_clock_net(*parsed.find_net("clk"));
  riscv::Rv32Harness h(&parsed);
  namespace e = riscv::enc;
  h.load_program({e::addi(1, 0, 33), e::addi(1, 1, 9), e::sw(1, 0, 0x40)});
  h.reset();
  h.step(3);
  EXPECT_EQ(h.read_mem(0x40), 42u);
}

TEST_F(FormatsTest, VerilogReaderRejectsBadInput) {
  EXPECT_THROW(io::read_verilog_string("module m (", lib_),
               std::runtime_error);
  EXPECT_THROW(io::read_verilog_string(
                   "module m (a); input a; BOGUS u1 (.I(a)); endmodule",
                   lib_),
               std::runtime_error);
  EXPECT_THROW(io::read_verilog_string(
                   "module m (a); input a; INVD1 u1 (.NOPE(a)); endmodule",
                   lib_),
               std::invalid_argument);
}

TEST_F(FormatsTest, VerilogHandlesComments) {
  const std::string text = R"(
    // leading comment
    module m (a, z);
      input a;   /* block
                    comment */
      output z;
      INVD1 u1 (.I(a), .ZN(z));
    endmodule
  )";
  const netlist::Netlist nl = io::read_verilog_string(text, lib_);
  EXPECT_EQ(nl.num_instances(), 1);
  EXPECT_TRUE(nl.validate().empty());
}

// --- Liberty -----------------------------------------------------------------

TEST_F(FormatsTest, LibertyWriterEmitsAllCellsAndTables) {
  const std::string lib_text = liberty::to_liberty_string(lib_);
  EXPECT_NE(lib_text.find("library (ffet3p5t)"), std::string::npos);
  EXPECT_NE(lib_text.find("lu_table_template"), std::string::npos);
  for (const auto& cell : lib_.cells()) {
    EXPECT_NE(lib_text.find("cell (" + cell->name() + ")"),
              std::string::npos)
        << cell->name();
  }
  // NLDM content present.
  EXPECT_NE(lib_text.find("cell_rise"), std::string::npos);
  EXPECT_NE(lib_text.find("fall_transition"), std::string::npos);
  EXPECT_NE(lib_text.find("internal_power"), std::string::npos);
  // The dual-sided pin annotation (front/back/both).
  EXPECT_NE(lib_text.find("ffet_pin_side : \"both\""), std::string::npos);
  // Balanced braces.
  const auto opens = std::count(lib_text.begin(), lib_text.end(), '{');
  const auto closes = std::count(lib_text.begin(), lib_text.end(), '}');
  EXPECT_EQ(opens, closes);
}

TEST_F(FormatsTest, LibertyWriterCfetHasNoBacksidePins) {
  tech::Technology cfet = tech::make_cfet_4t();
  stdcell::Library clib = stdcell::build_library(cfet);
  liberty::characterize_library(clib);
  const std::string text = liberty::to_liberty_string(clib);
  EXPECT_EQ(text.find("ffet_pin_side : \"both\""), std::string::npos);
  EXPECT_EQ(text.find("ffet_pin_side : \"back\""), std::string::npos);
}

// --- SPEF ---------------------------------------------------------------------

TEST_F(FormatsTest, SpefWriterStructure) {
  // Small routed design end to end.
  stdcell::PinConfig pc;
  pc.backside_input_fraction = 0.5;
  stdcell::Library dual = stdcell::build_library(tech_, pc);
  liberty::characterize_library(dual);
  riscv::Rv32Options opt;
  opt.num_registers = 4;
  netlist::Netlist nl = riscv::build_rv32_core(dual, opt);
  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.6;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech_, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, dual);
  pnr::place(nl, fp, pp);
  pnr::build_clock_tree(nl, fp);
  const pnr::RouteResult rr = pnr::route_design(nl, fp);
  const io::Def merged =
      io::merge_defs(io::build_def(nl, rr, tech::Side::Front),
                     io::build_def(nl, rr, tech::Side::Back));
  const extract::RcNetlist rc = extract::extract_rc(merged, nl, tech_);

  const std::string spef = extract::to_spef_string(rc, nl);
  EXPECT_NE(spef.find("*SPEF"), std::string::npos);
  EXPECT_NE(spef.find("*DESIGN \"rv32_core\""), std::string::npos);
  EXPECT_NE(spef.find("*D_NET"), std::string::npos);
  EXPECT_NE(spef.find("*RES"), std::string::npos);
  EXPECT_NE(spef.find("side=back"), std::string::npos)
      << "dual-sided parasitics must appear";
  // One D_NET per connected net.
  long d_nets = 0;
  for (std::size_t pos = 0; (pos = spef.find("*D_NET", pos)) != std::string::npos;
       pos += 6) {
    ++d_nets;
  }
  long connected = 0;
  for (const netlist::Net& n : nl.nets()) {
    if (n.driver.inst != netlist::kNoInst || !n.sinks.empty()) ++connected;
  }
  EXPECT_EQ(d_nets, connected);
}

TEST_F(FormatsTest, LefRoundTripReproducesGeometryAndPinSides) {
  stdcell::PinConfig pc;
  pc.backside_input_fraction = 0.3;
  const stdcell::Library original = stdcell::build_library(tech_, pc);
  const stdcell::Library parsed =
      io::read_lef_string(io::to_lef_string(original), tech_);

  ASSERT_EQ(parsed.cells().size(), original.cells().size());
  for (const auto& cell : original.cells()) {
    const stdcell::CellType* p = parsed.find(cell->name());
    ASSERT_NE(p, nullptr) << cell->name();
    EXPECT_EQ(p->width(), cell->width()) << cell->name();
    EXPECT_EQ(p->height(), cell->height()) << cell->name();
    EXPECT_EQ(p->function(), cell->function()) << cell->name();
    EXPECT_EQ(p->structure().drive, cell->structure().drive) << cell->name();
    ASSERT_EQ(p->pins().size(), cell->pins().size()) << cell->name();
    for (std::size_t i = 0; i < cell->pins().size(); ++i) {
      EXPECT_EQ(p->pins()[i].name, cell->pins()[i].name) << cell->name();
      EXPECT_EQ(p->pins()[i].dir, cell->pins()[i].dir)
          << cell->name() << "/" << cell->pins()[i].name;
      EXPECT_EQ(p->pins()[i].side, cell->pins()[i].side)
          << cell->name() << "/" << cell->pins()[i].name;
    }
  }
  EXPECT_EQ(parsed.tap_cell_name(), original.tap_cell_name());

  // The parsed library is physical-only but characterizable and usable for
  // netlist construction end to end.
  stdcell::Library lib2 =
      io::read_lef_string(io::to_lef_string(original), tech_);
  liberty::characterize_library(lib2);
  netlist::Builder b("onparsed", &lib2);
  b.output("z", b.inv(b.input("a")));
  EXPECT_TRUE(b.take().validate().empty());
}

TEST_F(FormatsTest, LefReaderRejectsGarbage) {
  EXPECT_THROW(io::read_lef_string("VERSION 5.8 ;", tech_),
               std::runtime_error);
  EXPECT_THROW(io::read_lef_string(
                   "MACRO WEIRDCELL\n  SIZE 0.1 BY 0.105 ;\nEND WEIRDCELL\n",
                   tech_),
               std::runtime_error);
}

TEST_F(FormatsTest, SpefRoundTripReproducesRc) {
  stdcell::PinConfig pc;
  pc.backside_input_fraction = 0.5;
  stdcell::Library dual = stdcell::build_library(tech_, pc);
  liberty::characterize_library(dual);
  riscv::Rv32Options opt;
  opt.num_registers = 4;
  netlist::Netlist nl = riscv::build_rv32_core(dual, opt);
  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.6;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech_, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, dual);
  pnr::place(nl, fp, pp);
  pnr::build_clock_tree(nl, fp);
  const pnr::RouteResult rr = pnr::route_design(nl, fp);
  const io::Def merged =
      io::merge_defs(io::build_def(nl, rr, tech::Side::Front),
                     io::build_def(nl, rr, tech::Side::Back));
  const extract::RcNetlist rc = extract::extract_rc(merged, nl, tech_);

  const extract::RcNetlist again =
      extract::read_spef_string(extract::to_spef_string(rc, nl), nl);
  ASSERT_EQ(again.num_trees(), rc.num_trees());
  EXPECT_NEAR(again.total_wire_cap_ff, rc.total_wire_cap_ff,
              1e-3 * rc.total_wire_cap_ff + 1e-6);
  int compared = 0;
  for (std::size_t n = 0; n < rc.num_trees(); ++n) {
    const auto a = rc.tree(static_cast<netlist::NetId>(n));
    const auto b = again.tree(static_cast<netlist::NetId>(n));
    EXPECT_NEAR(b.total_cap_ff, a.total_cap_ff, 1e-6 + 1e-4 * a.total_cap_ff)
        << nl.net_name(static_cast<netlist::NetId>(n));
    ASSERT_EQ(b.sink_nodes.size(), a.sink_nodes.size())
        << nl.net_name(static_cast<netlist::NetId>(n));
    for (std::size_t s = 0; s < a.sink_nodes.size(); ++s) {
      EXPECT_NEAR(b.elmore_to_sink(s), a.elmore_to_sink(s),
                  1e-6 + 1e-4 * a.elmore_to_sink(s))
          << nl.net_name(static_cast<netlist::NetId>(n));
      ++compared;
    }
  }
  EXPECT_GT(compared, 1000);
}

// The accumulator_* DEFs (examples/dual_sided_routing) round-trip: writing
// both sides' DEFs, reading them back, merging and re-extracting must give
// bitwise-identical RC trees — DEF text is the flow's extraction input, so
// any writer/reader loss would silently skew downstream timing.
TEST_F(FormatsTest, AccumulatorDefRoundTripReExtractsIdentically) {
  stdcell::PinConfig pc;
  pc.backside_input_fraction = 0.5;
  stdcell::Library dual = stdcell::build_library(tech_, pc);
  liberty::characterize_library(dual);

  netlist::Builder b("accumulator", &dual);
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
  netlist::NetId parity = acc_q[0];
  for (int i = 1; i < 8; ++i) {
    parity = b.xor2(parity, acc_q[static_cast<std::size_t>(i)]);
  }
  b.output("parity", parity);
  netlist::Netlist nl = b.take();

  pnr::FloorplanOptions fo;
  fo.target_utilization = 0.6;
  const pnr::Floorplan fp = pnr::make_floorplan(nl, tech_, fo);
  const pnr::PowerPlan pp = pnr::build_power_plan(nl, fp, dual);
  pnr::place(nl, fp, pp);
  pnr::build_clock_tree(nl, fp);
  const pnr::RouteResult rr = pnr::route_design(nl, fp);

  const io::Def front = io::build_def(nl, rr, tech::Side::Front);
  const io::Def back = io::build_def(nl, rr, tech::Side::Back);
  const extract::RcNetlist rc =
      extract::extract_rc(io::merge_defs(front, back), nl, tech_);

  // Write → read each side, merge, re-extract.
  const io::Def front2 =
      io::read_def_string(io::to_def_string(front, nl), nl);
  const io::Def back2 = io::read_def_string(io::to_def_string(back, nl), nl);
  const extract::RcNetlist rc2 =
      extract::extract_rc(io::merge_defs(front2, back2), nl, tech_);

  ASSERT_EQ(rc2.num_trees(), rc.num_trees());
  EXPECT_EQ(rc2.total_wire_cap_ff, rc.total_wire_cap_ff);
  EXPECT_EQ(rc2.total_wire_res_kohm, rc.total_wire_res_kohm);
  bool saw_dual_sided = false;
  for (std::size_t n = 0; n < rc.num_trees(); ++n) {
    const netlist::NetId id = static_cast<netlist::NetId>(n);
    const std::string nname = nl.net_name(id);
    const extract::RcTreeView a = rc.tree(id);
    const extract::RcTreeView c = rc2.tree(id);
    ASSERT_EQ(c.nodes.size(), a.nodes.size()) << nname;
    EXPECT_EQ(c.total_cap_ff, a.total_cap_ff) << nname;
    EXPECT_EQ(c.wire_cap_ff, a.wire_cap_ff) << nname;
    bool has_f = false, has_b = false;
    for (std::size_t i = 0; i < a.nodes.size(); ++i) {
      EXPECT_EQ(c.nodes[i].parent, a.nodes[i].parent) << nname;
      EXPECT_EQ(c.nodes[i].r_ohm, a.nodes[i].r_ohm) << nname;
      EXPECT_EQ(c.nodes[i].cap_ff, a.nodes[i].cap_ff) << nname;
      EXPECT_EQ(c.nodes[i].side, a.nodes[i].side) << nname;
      EXPECT_EQ(c.elmore_ps[i], a.elmore_ps[i]) << nname;
      (a.nodes[i].side == tech::Side::Front ? has_f : has_b) = true;
    }
    ASSERT_EQ(c.sink_nodes.size(), a.sink_nodes.size()) << nname;
    for (std::size_t i = 0; i < a.sink_nodes.size(); ++i) {
      EXPECT_EQ(c.sink_nodes[i], a.sink_nodes[i]) << nname;
    }
    saw_dual_sided |= has_f && has_b;
  }
  EXPECT_TRUE(saw_dual_sided) << "fixture must exercise dual-sided trees";

  // And the SPEF emitted from the re-extracted parasitics reads back to
  // the same totals (write -> read -> compare, accumulator flavor of the
  // RV32 round-trip above).
  const extract::RcNetlist spef_rt =
      extract::read_spef_string(extract::to_spef_string(rc2, nl), nl);
  ASSERT_EQ(spef_rt.num_trees(), rc.num_trees());
  for (std::size_t n = 0; n < rc.num_trees(); ++n) {
    const netlist::NetId id = static_cast<netlist::NetId>(n);
    EXPECT_NEAR(spef_rt.tree(id).total_cap_ff, rc.tree(id).total_cap_ff,
                1e-6 + 1e-4 * rc.tree(id).total_cap_ff)
        << nl.net_name(id);
  }
}

TEST_F(FormatsTest, SpefReaderRejectsUnknownNet) {
  netlist::Builder b("x", &lib_);
  b.output("z", b.inv(b.input("a")));
  const netlist::Netlist nl = b.take();
  EXPECT_THROW(
      extract::read_spef_string("*D_NET bogus 1.0\n*END\n", nl),
      std::runtime_error);
}

}  // namespace
}  // namespace ffet
