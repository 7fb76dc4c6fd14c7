// Tests for the LEF/DEF exchange layer: per-side DEF building, the paper's
// two-DEF merge, writer/reader round-trips, and LEF pin-side encoding.

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "io/def.h"
#include "pnr/track_assign.h"
#include "liberty/characterize.h"
#include "pnr/cts.h"
#include "pnr/floorplan.h"
#include "pnr/placement.h"
#include "pnr/powerplan.h"
#include "riscv/rv32.h"

namespace ffet::io {
namespace {

class IoTest : public ::testing::Test {
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
    fp_ = new pnr::Floorplan(pnr::make_floorplan(*nl_, *tech_, fo));
    const pnr::PowerPlan pp = pnr::build_power_plan(*nl_, *fp_, *lib_);
    pnr::place(*nl_, *fp_, pp);
    pnr::build_clock_tree(*nl_, *fp_);
    rr_ = new pnr::RouteResult(pnr::route_design(*nl_, *fp_));
  }
  static void TearDownTestSuite() {
    delete rr_;
    delete fp_;
    delete nl_;
    delete lib_;
    delete tech_;
    rr_ = nullptr;
    fp_ = nullptr;
    nl_ = nullptr;
    lib_ = nullptr;
    tech_ = nullptr;
  }

  static tech::Technology* tech_;
  static stdcell::Library* lib_;
  static netlist::Netlist* nl_;
  static pnr::Floorplan* fp_;
  static pnr::RouteResult* rr_;
};

tech::Technology* IoTest::tech_ = nullptr;
stdcell::Library* IoTest::lib_ = nullptr;
netlist::Netlist* IoTest::nl_ = nullptr;
pnr::Floorplan* IoTest::fp_ = nullptr;
pnr::RouteResult* IoTest::rr_ = nullptr;

/// FNV-1a over a string: a fingerprint of exact DEF bytes.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// `text` with the first occurrence of `from` replaced by `to`.
std::string replace_first(std::string text, std::string_view from,
                          std::string_view to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

// Golden fingerprints of the front, back, merged and track-assigned DEF
// text: any change to the model, the builder or the writer must reproduce
// these files byte for byte.
TEST_F(IoTest, DefTextMatchesGoldenHash) {
  const Def front = build_def(*nl_, *rr_, tech::Side::Front);
  const Def back = build_def(*nl_, *rr_, tech::Side::Back);
  const pnr::TrackAssignment ta = pnr::assign_tracks(*rr_, 48);
  EXPECT_EQ(fnv1a(to_def_string(front, *nl_)), 0x847e1df0d2417833ull);
  EXPECT_EQ(fnv1a(to_def_string(back, *nl_)), 0x117f9bddb4f65118ull);
  EXPECT_EQ(fnv1a(to_def_string(merge_defs(front, back), *nl_)),
            0xa40a153c22b79367ull);
  EXPECT_EQ(fnv1a(to_def_string(
                build_def(*nl_, *rr_, tech::Side::Back, &ta, 48), *nl_)),
            0xbfa7a6c7d487c80aull);
}

TEST_F(IoTest, PerSideDefsCarryOnlyThatSidesWires) {
  const Def front = build_def(*nl_, *rr_, tech::Side::Front);
  const Def back = build_def(*nl_, *rr_, tech::Side::Back);
  ASSERT_EQ(front.nets.size(), back.nets.size());
  int front_wires = 0, back_wires = 0;
  for (std::size_t i = 0; i < front.nets.size(); ++i) {
    EXPECT_EQ(front.nets[i].net, back.nets[i].net);
    if (i > 0) {
      EXPECT_GT(front.nets[i].net, front.nets[i - 1].net);
    }
    for (const DefWire& w : front.nets[i].wires) {
      EXPECT_EQ(w.side, tech::Side::Front) << layer_name(w.side, w.layer);
      ++front_wires;
    }
    for (const DefWire& w : back.nets[i].wires) {
      EXPECT_EQ(w.side, tech::Side::Back) << layer_name(w.side, w.layer);
      ++back_wires;
    }
  }
  EXPECT_GT(front_wires, 0);
  EXPECT_GT(back_wires, 0);  // 50/50 library: real backside signal wires
}

TEST_F(IoTest, MergeUnionsWires) {
  const Def front = build_def(*nl_, *rr_, tech::Side::Front);
  const Def back = build_def(*nl_, *rr_, tech::Side::Back);
  const Def merged = merge_defs(front, back);
  std::size_t fw = 0, bw = 0, mw = 0;
  for (const DefNet& n : front.nets) fw += n.wires.size();
  for (const DefNet& n : back.nets) bw += n.wires.size();
  for (const DefNet& n : merged.nets) mw += n.wires.size();
  EXPECT_EQ(mw, fw + bw);
  ASSERT_EQ(merged.nets.size(), front.nets.size());
  // Each net: its front wires, then its back wires.
  for (std::size_t i = 0; i < merged.nets.size(); ++i) {
    const DefNet& m = merged.nets[i];
    EXPECT_EQ(m.net, front.nets[i].net);
    const std::size_t nf = front.nets[i].wires.size();
    ASSERT_EQ(m.wires.size(), nf + back.nets[i].wires.size());
    for (std::size_t w = 0; w < m.wires.size(); ++w) {
      const DefWire& want =
          w < nf ? front.nets[i].wires[w] : back.nets[i].wires[w - nf];
      EXPECT_EQ(m.wires[w].side, want.side);
      EXPECT_EQ(m.wires[w].layer, want.layer);
      EXPECT_EQ(m.wires[w].from, want.from);
      EXPECT_EQ(m.wires[w].to, want.to);
    }
  }
}

TEST_F(IoTest, MergeRejectsMismatchedDesigns) {
  Def front = build_def(*nl_, *rr_, tech::Side::Front);
  Def back = build_def(*nl_, *rr_, tech::Side::Back);
  // A different NetId sequence.
  back.nets[0].net = back.nets[1].net;
  EXPECT_THROW(merge_defs(front, back), std::invalid_argument);
  back.nets[0].net = front.nets[0].net;
  EXPECT_NO_THROW(merge_defs(front, back));
  // A different net count.
  back.nets.pop_back();
  EXPECT_THROW(merge_defs(front, back), std::invalid_argument);
}

TEST_F(IoTest, DefWriterReaderRoundTrip) {
  const Def front = build_def(*nl_, *rr_, tech::Side::Front);
  const std::string text = to_def_string(front, *nl_);
  const Def again = read_def_string(text, *nl_);

  EXPECT_EQ(to_def_string(again, *nl_), text);
  EXPECT_EQ(again.dbu_per_micron, front.dbu_per_micron);
  EXPECT_EQ(again.die, front.die);
  ASSERT_EQ(again.nets.size(), front.nets.size());
  for (std::size_t i = 0; i < front.nets.size(); ++i) {
    EXPECT_EQ(again.nets[i].net, front.nets[i].net);
    ASSERT_EQ(again.nets[i].wires.size(), front.nets[i].wires.size());
    for (std::size_t w = 0; w < front.nets[i].wires.size(); ++w) {
      EXPECT_EQ(again.nets[i].wires[w].side, front.nets[i].wires[w].side);
      EXPECT_EQ(again.nets[i].wires[w].layer, front.nets[i].wires[w].layer);
      EXPECT_EQ(again.nets[i].wires[w].from, front.nets[i].wires[w].from);
      EXPECT_EQ(again.nets[i].wires[w].to, front.nets[i].wires[w].to);
    }
  }
  // The stream reader takes the same text.
  std::istringstream is(text);
  EXPECT_EQ(to_def_string(read_def(is, *nl_), *nl_), text);
}

TEST_F(IoTest, MergedDefRoundTrips) {
  const Def merged = merge_defs(build_def(*nl_, *rr_, tech::Side::Front),
                                build_def(*nl_, *rr_, tech::Side::Back));
  const std::string text = to_def_string(merged, *nl_);
  const Def again = read_def_string(text, *nl_);
  std::size_t w1 = 0, w2 = 0;
  for (const auto& n : merged.nets) w1 += n.wires.size();
  for (const auto& n : again.nets) w2 += n.wires.size();
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(to_def_string(again, *nl_), text);
}

TEST_F(IoTest, ReaderRejectsGarbage) {
  EXPECT_THROW(read_def_string("VERSION", *nl_), std::runtime_error);
  EXPECT_THROW(read_def_string("hello world ;", *nl_), std::runtime_error);
  EXPECT_THROW(read_def_string("", *nl_), std::runtime_error);

  const std::string header = "VERSION 5.8 ;\nDESIGN " + nl_->name() +
                             " ;\nUNITS DISTANCE MICRONS ";
  // An integer token must be an integer as a whole, and fit.
  EXPECT_THROW(read_def_string(header + "12abc ;\n", *nl_), std::runtime_error);
  EXPECT_THROW(read_def_string(header + "99999999999999999999 ;\n", *nl_),
               std::runtime_error);
  EXPECT_THROW(read_def_string(header + "abc ;\n", *nl_), std::runtime_error);

  // Text that is well formed but does not describe this netlist.
  const Def front = build_def(*nl_, *rr_, tech::Side::Front);
  const std::string text = to_def_string(front, *nl_);
  const std::string inst = nl_->instance_name(0);
  const std::string net = nl_->net_name(front.nets[0].net);
  const std::string& cell = nl_->instance(0).type->name();
  for (const std::string& bad : {
           replace_first(text, "- " + inst + " ", "- no_such_inst "),
           replace_first(text, "- " + inst + " " + cell,
                         "- " + inst + " NOCELLD1"),
           replace_first(text, "\n- " + net + " ", "\n- no_such_net "),
           replace_first(text, "+ ROUTED FM", "+ ROUTED XM3 ( 0 0 ) ( 0 0 ) NEW FM"),
           replace_first(text, "+ ROUTED FM", "+ ROUTED FMx"),
           replace_first(text, "+ ROUTED FM", "+ ROUTED FM-"),
           replace_first(text, "DESIGN ", "DESIGN other_"),
           replace_first(text, "VERSION 5.8", "VERSION  5.8"),
           replace_first(text, "DIEAREA ( 0 ", "DIEAREA ( 00 "),
           text.substr(0, text.size() - 1),
       }) {
    EXPECT_THROW(read_def_string(bad, *nl_), std::runtime_error)
        << bad.substr(0, 200);
  }
}

TEST_F(IoTest, FixedComponentsSurvive) {
  const Def front = build_def(*nl_, *rr_, tech::Side::Front);
  std::istringstream text(to_def_string(front, *nl_));
  int fixed = 0;
  for (std::string line; std::getline(text, line);) {
    if (line.find(" + FIXED ") == std::string::npos) continue;
    ++fixed;
    EXPECT_NE(line.find(" TAPCELL + FIXED ("), std::string::npos) << line;
  }
  int fixed_insts = 0;
  for (const netlist::Instance& inst : nl_->instances()) fixed_insts += inst.fixed;
  EXPECT_EQ(fixed, fixed_insts);
  EXPECT_GT(fixed, 0) << "power tap cells must appear as FIXED";
}

TEST_F(IoTest, TrackAssignedDefSpreadsCoincidentWires) {
  const Def plain = build_def(*nl_, *rr_, tech::Side::Front);
  const pnr::TrackAssignment ta = pnr::assign_tracks(*rr_, 48);
  const Def spread = build_def(*nl_, *rr_, tech::Side::Front, &ta, 48);

  auto coincident = [](const Def& d) {
    std::map<std::tuple<geom::Nm, geom::Nm, geom::Nm, geom::Nm>, int> seen;
    long dup = 0;
    for (const DefNet& n : d.nets) {
      for (const DefWire& w : n.wires) {
        if (++seen[{w.from.x, w.from.y, w.to.x, w.to.y}] > 1) ++dup;
      }
    }
    return dup;
  };
  EXPECT_LT(coincident(spread), coincident(plain) / 4)
      << "track offsets must de-overlap parallel runs";
  // Same wire count, still parses.
  std::size_t w1 = 0, w2 = 0;
  for (const auto& n : plain.nets) w1 += n.wires.size();
  for (const auto& n : spread.nets) w2 += n.wires.size();
  EXPECT_EQ(w1, w2);
  EXPECT_NO_THROW(read_def_string(to_def_string(spread, *nl_), *nl_));
}

TEST_F(IoTest, LefEncodesPinSides) {
  const std::string lef = to_lef_string(*lib_);
  // Dual-sided output pins: the INVD1 output must expose ports on FM0 and
  // BM0.
  const auto macro_pos = lef.find("MACRO INVD1");
  ASSERT_NE(macro_pos, std::string::npos);
  const auto macro_end = lef.find("END INVD1");
  const std::string macro = lef.substr(macro_pos, macro_end - macro_pos);
  EXPECT_NE(macro.find("LAYER FM0"), std::string::npos);
  EXPECT_NE(macro.find("LAYER BM0"), std::string::npos);
  // Library-wide: some input pins on BM0 (50/50 split).
  EXPECT_NE(lef.find("USE CLOCK"), std::string::npos);
  EXPECT_NE(lef.find("SITE core"), std::string::npos);
}

TEST_F(IoTest, LefListsAllLayersAndMacros) {
  const std::string lef = to_lef_string(*lib_);
  for (const char* layer : {"LAYER FM0", "LAYER FM12", "LAYER BM0",
                            "LAYER BM12"}) {
    EXPECT_NE(lef.find(layer), std::string::npos) << layer;
  }
  for (const auto& cell : lib_->cells()) {
    EXPECT_NE(lef.find("MACRO " + cell->name()), std::string::npos)
        << cell->name();
  }
}

}  // namespace
}  // namespace ffet::io
