// def.h — the per-side routing model and its LEF/DEF text edge.
//
// The paper's flow hinges on DEF plumbing: the dual-sided router emits TWO
// DEF files (frontside layers FM*, backside layers BM*), and the RC
// extraction step "first merges the two DEFs into one DEF [which] contains
// the P&R information of all the frontside and backside layers" (Sec.
// III.C).  This module provides:
//
//   * `Def`, the typed routing model of one wafer side (or of both, once
//     merged): per-NetId wires on (side, layer index) — components, ports,
//     pins and names are not copied, they live in the netlist;
//   * builders from a placed+routed design, one Def per wafer side,
//   * `merge_defs` — the paper's merge step, a per-NetId wire concatenation,
//   * a writer and a reader for a compact DEF 5.8 dialect.  Names exist only
//     here: the writer renders components, pins and net names from the
//     netlist, and the reader accepts only text that describes that netlist
//     (reading then re-writing reproduces the input byte for byte),
//   * a LEF writer for the dual-sided cell library (pin side is encoded in
//     the pin's LAYER: FM0 for frontside pins, BM0 for backside pins, both
//     rects for dual-sided output pins).
//
// The RC extractor (src/extract) consumes the *merged* Def, exactly like
// the paper's StarRC run.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "pnr/router.h"
#include "pnr/track_assign.h"

namespace ffet::io {

/// One routed, axis-parallel wire segment on routing layer `layer` of
/// `side` (the tech layer with that side and index, DEF name
/// `layer_name(side, layer)`).
struct DefWire {
  tech::Side side = tech::Side::Front;
  int layer = 0;
  geom::Point from;
  geom::Point to;
};

/// The wires of one net, front before back in a merged Def.
struct DefNet {
  netlist::NetId net = netlist::kNoNet;
  std::vector<DefWire> wires;
};

/// Nets appear in NetId order; fully unconnected nets are absent.
struct Def {
  int dbu_per_micron = 1000;  ///< database units: 1 nm
  geom::Rect die;
  std::vector<DefNet> nets;
};

/// The DEF/LEF name of a routing layer: "FM<index>" / "BM<index>".
std::string layer_name(tech::Side side, int index);

/// Build the Def of one wafer side from a placed netlist and the routing
/// result: every connected net appears, with only the wires of `side`'s
/// layers.  With a TrackAssignment, wires are emitted at their assigned
/// track offsets (parallel runs instead of coincident gcell centerlines).
Def build_def(const netlist::Netlist& nl, const pnr::RouteResult& routes,
              tech::Side side, const pnr::TrackAssignment* tracks = nullptr,
              int tracks_per_edge = 0);

/// The paper's merge step: each net's front wires followed by its back
/// wires, over the united die.  Both inputs must list the same nets in the
/// same order; throws std::invalid_argument otherwise.
Def merge_defs(const Def& front, const Def& back);

/// Write `def` as DEF text; the design name, components, pins and net
/// connectivity come from `nl`, the netlist `def` was built from.
void write_def(const Def& def, const netlist::Netlist& nl, std::ostream& os);
std::string to_def_string(const Def& def, const netlist::Netlist& nl);

/// Parse the dialect emitted by write_def for the design `nl`.  Throws
/// std::runtime_error on malformed input, and on text that does not
/// describe `nl` (an unknown or mismatched component, pin, net or layer):
/// write_def of the result reproduces the input exactly.
Def read_def(std::istream& is, const netlist::Netlist& nl);
Def read_def_string(const std::string& text, const netlist::Netlist& nl);

/// Emit a LEF-flavoured description of the library (sites, macros, pin
/// sides via layer names).
void write_lef(const stdcell::Library& lib, std::ostream& os);
std::string to_lef_string(const stdcell::Library& lib);

/// Parse the dialect emitted by write_lef into a Library bound to `tech`.
/// LEF carries physical data only: macro sizes, pin names/directions and
/// sides (from the FM0/BM0 PORT layers).  Cell functions and drives are
/// recovered from the macro names (our catalogue naming, e.g. "NAND2D4");
/// unknown names throw.  The returned library is *uncharacterized* — run
/// liberty::characterize_library before timing it.
stdcell::Library read_lef(std::istream& is, const tech::Technology& tech);
stdcell::Library read_lef_string(const std::string& text,
                                 const tech::Technology& tech);

}  // namespace ffet::io
