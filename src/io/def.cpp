#include "io/def.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "io/stream_writer.h"

namespace ffet::io {

using netlist::Netlist;
using pnr::NetRoute;
using pnr::RouteResult;
using tech::Side;

std::string layer_name(Side side, int index) {
  return (side == Side::Front ? "FM" : "BM") + std::to_string(index);
}

Def build_def(const Netlist& nl, const RouteResult& routes, Side side,
              const pnr::TrackAssignment* tracks, int tracks_per_edge) {
  Def def;
  // Die spans the routing grid extent.
  def.die = geom::make_rect({0, 0}, routes.gcols * routes.gcell_w,
                            routes.grows * routes.gcell_h);

  // One record per connected net, in NetId order; `slot` maps a NetId to
  // its record (-1: fully unconnected, skipped).
  std::vector<int> slot(static_cast<std::size_t>(nl.num_nets()), -1);
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (net.driver.inst == netlist::kNoInst && net.sinks.empty()) continue;
    slot[static_cast<std::size_t>(n)] = static_cast<int>(def.nets.size());
    def.nets.push_back({n, {}});
  }

  for (std::size_t ri = 0; ri < routes.routes.size(); ++ri) {
    const NetRoute& r = routes.routes[ri];
    if (r.side != side || r.net < 0 || r.net >= nl.num_nets() ||
        slot[static_cast<std::size_t>(r.net)] < 0) {
      continue;
    }
    DefNet& dn = def.nets[static_cast<std::size_t>(
        slot[static_cast<std::size_t>(r.net)])];
    for (std::size_t ei = 0; ei < r.edges.size(); ++ei) {
      const pnr::GEdge& e = r.edges[ei];
      const int a = std::min(e.a, e.b);
      const int b = std::max(e.a, e.b);
      const int ca = a % routes.gcols, ra = a / routes.gcols;
      const int cb = b % routes.gcols, rb = b / routes.gcols;
      geom::Point pa{ca * routes.gcell_w + routes.gcell_w / 2,
                     ra * routes.gcell_h + routes.gcell_h / 2};
      geom::Point pb{cb * routes.gcell_w + routes.gcell_w / 2,
                     rb * routes.gcell_h + routes.gcell_h / 2};
      const bool horizontal = ra == rb;
      if (tracks && tracks_per_edge > 0) {
        // Offset perpendicular to the run direction by the assigned track.
        const geom::Nm off = pnr::track_offset_nm(
            tracks->track_of[ri][ei], tracks_per_edge,
            horizontal ? routes.gcell_h : routes.gcell_w);
        if (horizontal) {
          pa.y += off;
          pb.y += off;
        } else {
          pa.x += off;
          pb.x += off;
        }
      }
      dn.wires.push_back(
          {side, horizontal ? r.h_layer_index : r.v_layer_index, pa, pb});
    }
  }
  return def;
}

Def merge_defs(const Def& front, const Def& back) {
  if (front.nets.size() != back.nets.size()) {
    throw std::invalid_argument("front/back DEFs differ in net count");
  }
  Def merged;
  merged.dbu_per_micron = front.dbu_per_micron;
  merged.die = front.die.united(back.die);
  merged.nets.reserve(front.nets.size());
  for (std::size_t i = 0; i < front.nets.size(); ++i) {
    const DefNet& f = front.nets[i];
    const DefNet& b = back.nets[i];
    if (f.net != b.net) {
      throw std::invalid_argument("front/back DEFs differ at net record " +
                                  std::to_string(i));
    }
    DefNet& m = merged.nets.emplace_back();
    m.net = f.net;
    m.wires.reserve(f.wires.size() + b.wires.size());
    m.wires.insert(m.wires.end(), f.wires.begin(), f.wires.end());
    m.wires.insert(m.wires.end(), b.wires.begin(), b.wires.end());
  }
  return merged;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void write_def(const Def& def, const Netlist& nl, std::ostream& os) {
  StreamWriter w(os);
  w << "VERSION 5.8 ;\n";
  w << "DESIGN " << nl.name() << " ;\n";
  w << "UNITS DISTANCE MICRONS " << def.dbu_per_micron << " ;\n";
  w << "DIEAREA ( " << def.die.lo.x << ' ' << def.die.lo.y << " ) ( "
    << def.die.hi.x << ' ' << def.die.hi.y << " ) ;\n";

  std::string name;
  auto inst_name = [&](netlist::InstId i) -> const std::string& {
    name.clear();
    nl.append_instance_name(name, i);
    return name;
  };

  w << "COMPONENTS " << nl.num_instances() << " ;\n";
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instance(i);
    w << "- " << inst_name(i) << ' ' << inst.type->name() << " + "
      << (inst.fixed ? "FIXED" : "PLACED") << " ( " << inst.pos.x << ' '
      << inst.pos.y << " ) N ;\n";
  }
  w << "END COMPONENTS\n";

  w << "PINS " << nl.ports().size() << " ;\n";
  for (const netlist::Port& p : nl.ports()) {
    w << "- " << p.name << " + DIRECTION "
      << (p.is_input ? "INPUT" : "OUTPUT") << " + PLACED ( " << p.pos.x
      << ' ' << p.pos.y << " ) ;\n";
  }
  w << "END PINS\n";

  auto pin = [&](const netlist::PinRef& r) {
    w << " ( " << inst_name(r.inst) << ' '
      << nl.instance(r.inst).type->pins()[static_cast<std::size_t>(r.pin)].name
      << " )";
  };
  w << "NETS " << def.nets.size() << " ;\n";
  for (const DefNet& n : def.nets) {
    const netlist::Net& net = nl.net(n.net);
    name.clear();
    nl.append_net_name(name, n.net);
    w << "- " << name;
    if (net.port >= 0) w << " ( PIN " << nl.port(net.port).name << " )";
    if (net.driver.inst != netlist::kNoInst) pin(net.driver);
    for (const netlist::PinRef& s : net.sinks) pin(s);
    for (std::size_t wi = 0; wi < n.wires.size(); ++wi) {
      const DefWire& x = n.wires[wi];
      w << "\n  " << (wi == 0 ? "+ ROUTED " : "NEW ")
        << layer_name(x.side, x.layer) << " ( " << x.from.x << ' '
        << x.from.y << " ) ( " << x.to.x << ' ' << x.to.y << " )";
    }
    w << " ;\n";
  }
  w << "END NETS\n";
  w << "END DESIGN\n";
}

std::string to_def_string(const Def& def, const Netlist& nl) {
  std::ostringstream os;
  write_def(def, nl, os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text) : text_(text) {}

  std::string_view next() {
    constexpr std::string_view kSpace = " \t\r\n";
    const std::size_t b = text_.find_first_not_of(kSpace, pos_);
    if (b == std::string_view::npos) {
      throw std::runtime_error("unexpected end of DEF");
    }
    pos_ = std::min(text_.find_first_of(kSpace, b), text_.size());
    return text_.substr(b, pos_ - b);
  }

  /// The whole next token as an integer of type T.
  template <typename T = long long>
  T next_int() {
    return parse_int<T>(next());
  }

  void expect(std::initializer_list<std::string_view> want) {
    for (const std::string_view w : want) {
      const std::string_view t = next();
      if (t != w) {
        throw std::runtime_error("expected '" + std::string(w) + "', got '" +
                                 std::string(t) + "'");
      }
    }
  }

  template <typename T>
  static T parse_int(std::string_view t) {
    T v{};
    const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc{} || end != t.data() + t.size()) {
      throw std::runtime_error("expected integer, got '" + std::string(t) +
                               "'");
    }
    return v;
  }

  geom::Point next_point() {
    expect({"("});
    geom::Point p;
    p.x = next_int<geom::Nm>();
    p.y = next_int<geom::Nm>();
    expect({")"});
    return p;
  }

  /// Skip a COMPONENTS or PINS section: the netlist's, so only its shape
  /// is read here (each entry is `tokens` tokens) and check_canonical
  /// compares its text.
  void skip_section(std::string_view name, int tokens) {
    expect({name});
    const auto n = next_int();
    expect({";"});
    for (long long i = 0; i < n; ++i) {
      for (int t = 0; t < tokens; ++t) next();
    }
    expect({"END", name});
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Inverse of layer_name: "FM<i>" / "BM<i>" with i >= 0.
DefWire parse_layer(std::string_view t) {
  const bool back = t.starts_with("BM");
  const int layer = back || t.starts_with("FM")
                        ? Tokenizer::parse_int<int>(t.substr(2))
                        : -1;
  if (layer < 0) {
    throw std::runtime_error("unknown DEF layer '" + std::string(t) + "'");
  }
  return {back ? Side::Back : Side::Front, layer, {}, {}};
}

/// The line of `text` holding byte `pos`.
std::string_view line_at(std::string_view text, std::size_t pos) {
  const std::size_t b =
      pos == 0 ? 0 : text.rfind('\n', pos - 1) + 1;  // npos + 1 == 0
  return text.substr(b, text.find('\n', b) - b);
}

/// Reject `text` unless it is byte for byte `canonical`, what write_def
/// renders for the parsed model.
void check_canonical(const std::string& text, const std::string& canonical,
                     const Netlist& nl) {
  if (text == canonical) return;
  const auto at = std::mismatch(text.begin(), text.end(), canonical.begin(),
                                canonical.end())
                      .first;
  const auto pos = static_cast<std::size_t>(at - text.begin());
  throw std::runtime_error(
      "DEF line " + std::to_string(1 + std::count(text.begin(), at, '\n')) +
      " does not describe netlist " + nl.name() + ": got '" +
      std::string(line_at(text, pos)) + "', expected '" +
      std::string(line_at(canonical, pos)) + "'");
}

}  // namespace

Def read_def(std::istream& is, const Netlist& nl) {
  std::ostringstream text;
  text << is.rdbuf();
  return read_def_string(text.str(), nl);
}

Def read_def_string(const std::string& text, const Netlist& nl) {
  Tokenizer tk(text);
  Def def;
  tk.expect({"VERSION", "5.8", ";", "DESIGN"});
  tk.next();  // the design name, checked with the rest below
  tk.expect({";", "UNITS", "DISTANCE", "MICRONS"});
  def.dbu_per_micron = tk.next_int<int>();
  tk.expect({";", "DIEAREA"});
  def.die.lo = tk.next_point();
  def.die.hi = tk.next_point();
  tk.expect({";"});
  tk.skip_section("COMPONENTS", 11);  // - name cell + PLACED ( x y ) N ;
  tk.skip_section("PINS", 12);  // - name + DIRECTION dir + PLACED ( x y ) ;

  tk.expect({"NETS"});
  const auto nnets = tk.next_int();
  tk.expect({";"});
  for (long long i = 0; i < nnets; ++i) {
    tk.expect({"-"});
    const std::string_view name = tk.next();
    const auto id = nl.find_net(name);
    if (!id || (!def.nets.empty() && *id <= def.nets.back().net)) {
      throw std::runtime_error("DEF net '" + std::string(name) +
                               "' is not the netlist's next net");
    }
    DefNet& n = def.nets.emplace_back();
    n.net = *id;
    // Pins "( component pin )" / "( PIN port )", then optional routed
    // segments, terminated by ';'.
    std::string_view t = tk.next();
    for (; t == "("; t = tk.next()) {
      tk.next();
      tk.next();
      tk.expect({")"});
    }
    for (; t == "+" || t == "NEW"; t = tk.next()) {
      if (t == "+") tk.expect({"ROUTED"});
      DefWire w = parse_layer(tk.next());
      w.from = tk.next_point();
      w.to = tk.next_point();
      n.wires.push_back(w);
    }
    if (t != ";") {
      throw std::runtime_error("malformed net " + std::string(name) +
                               " near '" + std::string(t) + "'");
    }
  }
  tk.expect({"END", "NETS", "END", "DESIGN"});

  // Everything the model does not hold (design name, components, pins, net
  // connectivity, spelling and layout) must be exactly what write_def
  // renders from `nl`.
  check_canonical(text, to_def_string(def, nl), nl);
  return def;
}

// ---------------------------------------------------------------------------
// LEF writer
// ---------------------------------------------------------------------------

void write_lef(const stdcell::Library& lib, std::ostream& os) {
  const tech::Technology& tech = lib.tech();
  os << "VERSION 5.8 ;\n";
  os << "BUSBITCHARS \"[]\" ;\n";
  os << "DIVIDERCHAR \"/\" ;\n";
  os << "UNITS\n  DATABASE MICRONS 1000 ;\nEND UNITS\n\n";
  for (const tech::MetalLayer& l : tech.layers()) {
    os << "LAYER " << l.name << "\n  TYPE ROUTING ;\n  DIRECTION "
       << (l.preferred_dir == geom::Dir::Horizontal ? "HORIZONTAL"
                                                    : "VERTICAL")
       << " ;\n  PITCH " << geom::to_um(l.pitch) << " ;\nEND " << l.name
       << "\n";
  }
  os << "\nSITE core\n  CLASS CORE ;\n  SIZE " << geom::to_um(tech.cpp())
     << " BY " << geom::to_um(tech.cell_height()) << " ;\nEND core\n\n";

  for (const auto& cell : lib.cells()) {
    os << "MACRO " << cell->name() << "\n";
    os << "  CLASS CORE ;\n";
    os << "  SIZE " << geom::to_um(cell->width()) << " BY "
       << geom::to_um(cell->height()) << " ;\n";
    os << "  SITE core ;\n";
    for (const stdcell::CellPin& p : cell->pins()) {
      os << "  PIN " << p.name << "\n    DIRECTION "
         << (p.dir == stdcell::PinDir::Output ? "OUTPUT" : "INPUT")
         << " ;\n";
      if (p.dir == stdcell::PinDir::Clock) os << "    USE CLOCK ;\n";
      auto emit_port = [&](const char* layer) {
        os << "    PORT\n      LAYER " << layer << " ;\n      RECT "
           << geom::to_um(p.offset.x - 10) << " "
           << geom::to_um(p.offset.y - 10) << " "
           << geom::to_um(p.offset.x + 10) << " "
           << geom::to_um(p.offset.y + 10) << " ;\n    END\n";
      };
      // Pin side encoding: frontside pins on FM0, backside pins on BM0,
      // dual-sided output pins carry a PORT on both.
      switch (p.side) {
        case stdcell::PinSide::Front: emit_port("FM0"); break;
        case stdcell::PinSide::Back: emit_port("BM0"); break;
        case stdcell::PinSide::Both:
          emit_port("FM0");
          emit_port("BM0");
          break;
      }
      os << "  END " << p.name << "\n";
    }
    os << "END " << cell->name() << "\n\n";
  }
  os << "END LIBRARY\n";
}

std::string to_lef_string(const stdcell::Library& lib) {
  std::ostringstream os;
  write_lef(lib, os);
  return os.str();
}

}  // namespace ffet::io
