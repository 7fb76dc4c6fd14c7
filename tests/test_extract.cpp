// Tests for dual-sided RC extraction: tree structure, Elmore properties,
// the Drain-Merge front/back junction, and consistency with the merged DEF.

#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "extract/extract.h"
#include "liberty/characterize.h"
#include "netlist/builder.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "riscv/rv32.h"

namespace ffet::extract {
namespace {

class ExtractTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = new tech::Technology(tech::make_ffet_3p5t());
    stdcell::PinConfig dual;
    dual.backside_input_fraction = 0.5;
    lib_ = new stdcell::Library(stdcell::build_library(*tech_, dual));
    liberty::characterize_library(*lib_);
    riscv::Rv32Options opt;
    opt.num_registers = 4;
    nl_ = new netlist::Netlist(riscv::build_rv32_core(*lib_, opt));
    pnr::FloorplanOptions fo;
    fo.target_utilization = 0.6;
    const pnr::Floorplan fp = pnr::make_floorplan(*nl_, *tech_, fo);
    const pnr::PowerPlan pp = pnr::build_power_plan(*nl_, fp, *lib_);
    pnr::place(*nl_, fp, pp);
    pnr::build_clock_tree(*nl_, fp);
    const pnr::RouteResult rr = pnr::route_design(*nl_, fp);
    merged_ = new io::Def(
        io::merge_defs(io::build_def(*nl_, rr, tech::Side::Front),
                       io::build_def(*nl_, rr, tech::Side::Back)));
    rc_ = new RcNetlist(extract_rc(*merged_, *nl_, *tech_));
  }
  static void TearDownTestSuite() {
    delete rc_;
    delete merged_;
    delete nl_;
    delete lib_;
    delete tech_;
    rc_ = nullptr;
    merged_ = nullptr;
    nl_ = nullptr;
    lib_ = nullptr;
    tech_ = nullptr;
  }

  static tech::Technology* tech_;
  static stdcell::Library* lib_;
  static netlist::Netlist* nl_;
  static io::Def* merged_;
  static RcNetlist* rc_;
};

tech::Technology* ExtractTest::tech_ = nullptr;
stdcell::Library* ExtractTest::lib_ = nullptr;
netlist::Netlist* ExtractTest::nl_ = nullptr;
io::Def* ExtractTest::merged_ = nullptr;
RcNetlist* ExtractTest::rc_ = nullptr;

/// FNV-1a over the bit patterns of every node's R, C and Elmore delay, its
/// parent and side, every sink hookup, and the design totals.
std::uint64_t rc_hash(const RcNetlist& rc) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(p)[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_double = [&mix](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    mix(&bits, sizeof bits);
  };
  for (std::size_t n = 0; n < rc.num_trees(); ++n) {
    const RcTreeView t = rc.tree(static_cast<netlist::NetId>(n));
    for (std::size_t i = 0; i < t.nodes.size(); ++i) {
      mix_double(t.nodes[i].r_ohm);
      mix_double(t.nodes[i].cap_ff);
      mix_double(t.elmore_ps[i]);
      mix(&t.nodes[i].parent, sizeof t.nodes[i].parent);
      mix(&t.nodes[i].side, sizeof t.nodes[i].side);
    }
    for (const std::int32_t s : t.sink_nodes) mix(&s, sizeof s);
    mix_double(t.total_cap_ff);
    mix_double(t.wire_cap_ff);
  }
  mix_double(rc.total_wire_cap_ff);
  mix_double(rc.total_wire_res_kohm);
  return h;
}

// Golden fingerprint of the extracted RC netlist, at one and four threads:
// any change to how the extractor reads the merged DEF must reproduce
// every bit.
TEST_F(ExtractTest, RcMatchesGoldenHash) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(rc_hash(extract_rc(*merged_, *nl_, *tech_, threads)),
              0x0288ea80a94237ceull);
  }
}

TEST_F(ExtractTest, OneTreePerNet) {
  ASSERT_EQ(rc_->num_trees(), static_cast<std::size_t>(nl_->num_nets()));
  for (int n = 0; n < nl_->num_nets(); ++n) {
    const RcTreeView t = rc_->tree(n);
    EXPECT_EQ(t.sink_nodes.size(), nl_->net(n).sinks.size());
  }
}

TEST_F(ExtractTest, TreesAreWellFormed) {
  for (int n = 0; n < nl_->num_nets(); ++n) {
    const RcTreeView t = rc_->tree(n);
    ASSERT_FALSE(t.nodes.empty());
    EXPECT_EQ(t.nodes[0].parent, -1);  // driver root
    for (std::size_t i = 1; i < t.nodes.size(); ++i) {
      // Parents exist; resistances positive.
      if (t.nodes[i].parent >= 0) {
        EXPECT_LT(t.nodes[i].parent, static_cast<int>(t.nodes.size()));
        EXPECT_GT(t.nodes[i].r_ohm, 0.0) << nl_->net_name(n);
      }
      EXPECT_GE(t.nodes[i].cap_ff, 0.0);
    }
    EXPECT_GE(t.total_cap_ff, t.wire_cap_ff - 1e-9);
  }
}

TEST_F(ExtractTest, ElmoreNonNegativeAndMonotoneAlongPaths) {
  for (int n = 0; n < nl_->num_nets(); ++n) {
    const RcTreeView t = rc_->tree(n);
    ASSERT_EQ(t.elmore_ps.size(), t.nodes.size());
    for (std::size_t i = 1; i < t.nodes.size(); ++i) {
      const int p = t.nodes[i].parent;
      if (p < 0) continue;
      // Elmore is non-decreasing from driver to leaves.
      EXPECT_GE(t.elmore_ps[i] + 1e-12, t.elmore_ps[static_cast<std::size_t>(p)])
          << nl_->net_name(n);
    }
  }
}

TEST_F(ExtractTest, TotalCapIncludesSinkPins) {
  for (int n = 0; n < nl_->num_nets(); ++n) {
    const netlist::Net& net = nl_->net(n);
    const RcTreeView t = rc_->tree(n);
    double pins = 0.0;
    for (const netlist::PinRef& s : net.sinks) pins += nl_->pin_cap_ff(s);
    EXPECT_GE(t.total_cap_ff + 1e-9, pins) << nl_->net_name(n);
    EXPECT_NEAR(t.total_cap_ff - t.wire_cap_ff, pins, 1e-6) << nl_->net_name(n);
  }
}

TEST_F(ExtractTest, DualSidedNetsJoinThroughDrainMerge) {
  // Find a net with both front and back wires in the merged DEF; its tree
  // must contain nodes on both sides, with the backside subtree reached
  // through a link whose resistance includes the Drain Merge.
  int checked = 0;
  for (const io::DefNet& dn : merged_->nets) {
    bool has_f = false, has_b = false;
    for (const io::DefWire& w : dn.wires) {
      (w.side == tech::Side::Back ? has_b : has_f) = true;
    }
    if (!has_f || !has_b) continue;
    ASSERT_GE(dn.net, 0);
    ASSERT_LT(dn.net, nl_->num_nets());
    const std::string name = nl_->net_name(dn.net);
    const RcTreeView t = rc_->tree(dn.net);
    bool node_f = false, node_b = false;
    for (const RcNode& nd : t.nodes) {
      (nd.side == tech::Side::Back ? node_b : node_f) = true;
    }
    EXPECT_TRUE(node_f && node_b) << name;
    // Some node's resistance to parent carries the Drain Merge value.
    bool merge_seen = false;
    for (const RcNode& nd : t.nodes) {
      if (nd.r_ohm >= tech_->device().np_link_r_ohm) merge_seen = true;
    }
    EXPECT_TRUE(merge_seen) << name;
    if (++checked > 20) break;
  }
  EXPECT_GT(checked, 5) << "expected plenty of dual-sided nets";
}

TEST_F(ExtractTest, LongerWiresMoreCapacitance) {
  // Across nets, wire cap correlates with DEF wirelength; spot-check the
  // extremes.
  double best_len = -1, worst_len = 1e18;
  double best_cap = 0, worst_cap = 0;
  for (const io::DefNet& dn : merged_->nets) {
    double len = 0;
    for (const io::DefWire& w : dn.wires) {
      len += geom::to_um(geom::manhattan(w.from, w.to));
    }
    const RcTreeView t = rc_->tree(dn.net);
    if (len > best_len) {
      best_len = len;
      best_cap = t.wire_cap_ff;
    }
    if (len < worst_len) {
      worst_len = len;
      worst_cap = t.wire_cap_ff;
    }
  }
  EXPECT_GT(best_len, worst_len);
  EXPECT_GT(best_cap, worst_cap);
}

TEST_F(ExtractTest, UnknownLayerRejected) {
  for (const tech::Side side : {tech::Side::Front, tech::Side::Back}) {
    for (const int layer : {-1, 13, 99}) {
      io::Def bad = *merged_;
      for (auto& n : bad.nets) {
        if (!n.wires.empty()) {
          n.wires[0].side = side;
          n.wires[0].layer = layer;
          break;
        }
      }
      EXPECT_THROW(extract_rc(bad, *nl_, *tech_), std::runtime_error)
          << io::layer_name(side, layer);
      EXPECT_THROW(extract_rc(bad, *nl_, *tech_, 4), std::runtime_error);
    }
  }
  // A net id outside the netlist is rejected too.
  io::Def bad = *merged_;
  bad.nets.back().net = nl_->num_nets();
  EXPECT_THROW(extract_rc(bad, *nl_, *tech_), std::runtime_error);
}

TEST_F(ExtractTest, AggregateStatisticsPositive) {
  EXPECT_GT(rc_->total_wire_cap_ff, 0.0);
  EXPECT_GT(rc_->total_wire_res_kohm, 0.0);
}

// Synthetic micro-check of Elmore numbers: a driver, one wire, one sink.
TEST(ExtractMicro, SingleWireElmoreMatchesHandComputation) {
  tech::Technology tech = tech::make_ffet_3p5t();
  stdcell::Library lib = stdcell::build_library(tech);
  liberty::characterize_library(lib);
  netlist::Builder b("micro", &lib);
  const netlist::NetId in = b.input("a");
  const netlist::NetId mid = b.inv(in);
  b.output("z", b.inv(mid));
  netlist::Netlist nl = b.take();
  // Manual placement: driver at origin, sink 9 gcells to the right.
  nl.instance(0).pos = {0, 0};
  nl.instance(1).pos = {4500, 0};

  // Hand-build a DEF with one FM2 wire of 4.5 um on the mid net.
  io::Def def;
  io::DefNet dn;
  dn.net = mid;
  dn.wires.push_back({tech::Side::Front, 2, {0, 0}, {4500, 0}});
  def.nets.push_back(dn);

  const RcNetlist rc = extract_rc(def, nl, tech);
  const RcTreeView t = rc.tree(mid);
  const tech::MetalLayer* fm2 = tech.find_layer("FM2");
  const double len_um = 4.5;
  const double wire_c = len_um * fm2->c_ff_per_um;
  // Coupling adds a tiny amount even for a lone wire (its own length
  // registers in the density grid); base cap is a floor.
  EXPECT_GE(t.wire_cap_ff, wire_c - 1e-9);
  EXPECT_NEAR(t.wire_cap_ff, wire_c, 0.02 * wire_c);
  // Sink Elmore must exceed the pure wire RC floor and include hookups.
  ASSERT_EQ(t.sink_nodes.size(), 1u);
  EXPECT_GT(t.elmore_to_sink(0), 0.0);
}

}  // namespace
}  // namespace ffet::extract
