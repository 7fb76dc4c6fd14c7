#include "extract/extract.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/obs.h"
#include "runtime/thread_pool.h"

namespace ffet::extract {

using netlist::Netlist;
using tech::Side;
using tech::Technology;

namespace {

/// Hookup resistance from a cell pin (M0) to the first routing layer:
/// a short via stack.
constexpr double kPinHookupOhm = 40.0;

/// Coupling model: wire capacitance scales with the local routed-wire
/// density of its side.  A wire surrounded by neighbors at minimum pitch
/// sees roughly +kMillerCoupling of its base capacitance in switching
/// coupling (Miller effect); an isolated wire sees none.  Density is
/// measured from the merged DEF itself, per side, on a coarse grid.
constexpr double kMillerCoupling = 1.2;
/// Bin edge for the density grid (µm).
constexpr double kDensityBinUm = 1.0;
/// Effective-capacity correction for the density normalization — same
/// rationale as RouteOptions::capacity_factor: our global placer's
/// wirelength runs high relative to a commercial flow, so raw track counts
/// understate how empty the routing fabric would really be.
constexpr double kDensityCapacityFactor = 2.0;

/// Per-side coarse wire-density grid derived from the merged DEF.
class DensityGrid {
 public:
  DensityGrid(const io::Def& def, const Technology& tech) {
    cols_ = std::max(1, static_cast<int>(geom::to_um(def.die.width()) /
                                         kDensityBinUm) +
                            1);
    rows_ = std::max(1, static_cast<int>(geom::to_um(def.die.height()) /
                                         kDensityBinUm) +
                            1);
    load_[0].assign(static_cast<std::size_t>(cols_) *
                        static_cast<std::size_t>(rows_),
                    0.0);
    load_[1].assign(static_cast<std::size_t>(cols_) *
                        static_cast<std::size_t>(rows_),
                    0.0);

    // Wire length per bin, per side.
    for (const io::DefNet& n : def.nets) {
      for (const io::DefWire& w : n.wires) {
        add_segment(w.side == Side::Back ? 1 : 0, w.from, w.to);
      }
    }

    // Wiring capacity per bin (µm of routable wire per µm² of die, per
    // side) from the technology's signal stacks.
    for (int side = 0; side < 2; ++side) {
      double tracks_per_um = 0.0;
      const auto layers = tech.routing_layers(
          side == 0 ? tech::Side::Front : tech::Side::Back);
      for (const tech::MetalLayer* l : layers) {
        tracks_per_um += 1000.0 / static_cast<double>(l->pitch);
      }
      capacity_um_per_um2_[side] =
          tracks_per_um * kDensityCapacityFactor;  // both dirs combined
    }
  }

  /// Local density ratio (0 = empty, 1 = every track occupied) around a
  /// point, for one side.
  double ratio(Side s, geom::Point p) const {
    const int side = s == Side::Front ? 0 : 1;
    if (capacity_um_per_um2_[side] <= 0.0) return 0.0;
    const int c = std::clamp(static_cast<int>(geom::to_um(p.x) / kDensityBinUm),
                             0, cols_ - 1);
    const int r = std::clamp(static_cast<int>(geom::to_um(p.y) / kDensityBinUm),
                             0, rows_ - 1);
    const double um_in_bin =
        load_[side][static_cast<std::size_t>(r * cols_ + c)];
    const double cap_um = capacity_um_per_um2_[side] * kDensityBinUm *
                          kDensityBinUm;
    return std::min(1.0, um_in_bin / cap_um);
  }

 private:
  void add_segment(int side, geom::Point a, geom::Point b) {
    // Distribute the segment's length along the bins it crosses (coarse:
    // sample every half bin).
    const double len_um = geom::to_um(geom::manhattan(a, b));
    const int samples = std::max(1, static_cast<int>(len_um / (kDensityBinUm / 2)));
    for (int i = 0; i < samples; ++i) {
      const double t = (i + 0.5) / samples;
      const geom::Point p{
          a.x + static_cast<geom::Nm>(t * static_cast<double>(b.x - a.x)),
          a.y + static_cast<geom::Nm>(t * static_cast<double>(b.y - a.y))};
      const int c = std::clamp(
          static_cast<int>(geom::to_um(p.x) / kDensityBinUm), 0, cols_ - 1);
      const int r = std::clamp(
          static_cast<int>(geom::to_um(p.y) / kDensityBinUm), 0, rows_ - 1);
      load_[side][static_cast<std::size_t>(r * cols_ + c)] +=
          len_um / samples;
    }
  }

  int cols_ = 1, rows_ = 1;
  std::array<std::vector<double>, 2> load_;
  std::array<double, 2> capacity_um_per_um2_{0.0, 0.0};
};

struct NodeKey {
  Side side;
  geom::Nm x;
  geom::Nm y;
  bool operator==(const NodeKey&) const = default;
};

struct NodeKeyHash {
  std::size_t operator()(const NodeKey& k) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(k.side == Side::Back);
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k.x);
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k.y);
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// The read-only state every net's tree is built against: the merged Def
/// indexed by NetId (null = no wires), the technology's metal layers by
/// (side, index), the per-side density grids of the coupling model and the
/// Drain-Merge resistance.
struct TreeInputs {
  TreeInputs(const io::Def& merged, const Netlist& nl, const Technology& tech)
      : def_of(static_cast<std::size_t>(nl.num_nets()), nullptr),
        density(merged, tech),
        drain_merge_r(tech.device().np_link_r_ohm) {
    for (const io::DefNet& n : merged.nets) {
      if (n.net < 0 || n.net >= nl.num_nets()) {
        throw std::runtime_error("merged DEF references net id " +
                                 std::to_string(n.net));
      }
      def_of[static_cast<std::size_t>(n.net)] = &n;
    }
    for (const tech::MetalLayer& l : tech.layers()) {
      if (l.index < 0) continue;  // the BPR carries no routed wires
      auto& by_index = layers[l.side == Side::Back ? 1 : 0];
      const auto i = static_cast<std::size_t>(l.index);
      if (by_index.size() <= i) by_index.resize(i + 1, nullptr);
      by_index[i] = &l;
    }
  }

  const tech::MetalLayer& layer_of(const io::DefWire& w) const {
    const auto& by_index = layers[w.side == Side::Back ? 1 : 0];
    const auto i = static_cast<std::size_t>(w.layer);
    if (w.layer < 0 || i >= by_index.size() || !by_index[i]) {
      throw std::runtime_error("merged DEF references unknown layer " +
                               io::layer_name(w.side, w.layer));
    }
    return *by_index[i];
  }

  std::vector<const io::DefNet*> def_of;
  std::array<std::vector<const tech::MetalLayer*>, 2> layers;
  DensityGrid density;
  double drain_merge_r;
};

struct Adj {
  int to;
  double r_ohm;
};

/// Build (or rebuild, resetting any prior contents) one net's RC tree from
/// its merged-DEF wires, the side density grids, and the current pin
/// landscape — the shared kernel of extract_rc and reextract_nets.
void build_net_tree(RcTree& tree, netlist::NetId net_id, const Netlist& nl,
                    const TreeInputs& in) {
  FFET_TRACE_SCOPE("extract.net");
  tree.clear();
  const netlist::Net& net = nl.net(net_id);

  // Driver position.
  geom::Point drv_pos{0, 0};
  if (net.driver.inst != netlist::kNoInst) {
    drv_pos = nl.pin_position(net.driver);
  } else if (net.port >= 0) {
    drv_pos = nl.port(net.port).pos;
  }

  // Root node.
  tree.nodes.push_back({drv_pos, 0.0, 0.0, -1, Side::Front});

  // Wire graph.
  std::unordered_map<NodeKey, int, NodeKeyHash> node_of;
  std::vector<std::vector<Adj>> adj(1);
  auto get_node = [&](Side s, geom::Point p) {
    const NodeKey key{s, p.x, p.y};
    auto it = node_of.find(key);
    if (it != node_of.end()) return it->second;
    const int idx = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back({p, 0.0, 0.0, -1, s});
    adj.emplace_back();
    node_of.emplace(key, idx);
    return idx;
  };

  if (const io::DefNet* dn = in.def_of[static_cast<std::size_t>(net_id)]) {
    node_of.reserve(dn->wires.size() * 2);
    for (const io::DefWire& w : dn->wires) {
      const tech::MetalLayer& layer = in.layer_of(w);
      const double len_um = geom::to_um(geom::manhattan(w.from, w.to));
      const double r = std::max(1e-3, len_um * layer.r_ohm_per_um);
      // Coupling: neighbors at the segment midpoint raise the effective
      // capacitance (Miller factor on switching aggressors).
      const geom::Point mid{(w.from.x + w.to.x) / 2,
                            (w.from.y + w.to.y) / 2};
      const double coupling =
          1.0 + kMillerCoupling * in.density.ratio(w.side, mid);
      const double c = len_um * layer.c_ff_per_um * coupling;
      const int a = get_node(w.side, w.from);
      const int b = get_node(w.side, w.to);
      tree.nodes[static_cast<std::size_t>(a)].cap_ff += c / 2.0;
      tree.nodes[static_cast<std::size_t>(b)].cap_ff += c / 2.0;
      // Via stacks are charged at the pin hookups (kPinHookupOhm), not
      // per gcell segment — a route stays on its track between bends.
      adj[static_cast<std::size_t>(a)].push_back({b, r});
      adj[static_cast<std::size_t>(b)].push_back({a, r});
    }
  }

  // Join each side's nearest node to the driver root: the frontside via a
  // pin hookup stack; the backside through the Drain Merge (the net's
  // dual-sided output pin) — the only wafer-crossing structure.
  for (Side s : {Side::Front, Side::Back}) {
    int nearest = -1;
    geom::Nm best = std::numeric_limits<geom::Nm>::max();
    for (std::size_t i = 1; i < tree.nodes.size(); ++i) {
      if (tree.nodes[i].side != s) continue;
      const geom::Nm d = geom::manhattan(tree.nodes[i].pos, drv_pos);
      if (d < best) {
        best = d;
        nearest = static_cast<int>(i);
      }
    }
    if (nearest < 0) continue;
    const double joint_r = kPinHookupOhm +
                           (s == Side::Back ? in.drain_merge_r : 0.0);
    adj[0].push_back({nearest, joint_r});
    adj[static_cast<std::size_t>(nearest)].push_back({0, joint_r});
  }

  // Spanning tree by BFS from the root (drops redundant loop edges).
  std::vector<bool> seen(tree.nodes.size(), false);
  std::queue<int> q;
  q.push(0);
  seen[0] = true;
  while (!q.empty()) {
    const int n = q.front();
    q.pop();
    for (const Adj& e : adj[static_cast<std::size_t>(n)]) {
      if (seen[static_cast<std::size_t>(e.to)]) continue;
      seen[static_cast<std::size_t>(e.to)] = true;
      tree.nodes[static_cast<std::size_t>(e.to)].parent = n;
      tree.nodes[static_cast<std::size_t>(e.to)].r_ohm = e.r_ohm;
      q.push(e.to);
    }
  }

  // Sinks: nearest reachable node on the sink pin's side (root if none),
  // plus the hookup stack and the pin capacitance.
  tree.sink_nodes.reserve(net.sinks.size());
  for (const netlist::PinRef& sref : net.sinks) {
    const stdcell::PinSide ps = nl.pin_side(sref);
    const Side s = ps == stdcell::PinSide::Back ? Side::Back : Side::Front;
    const geom::Point pos = nl.pin_position(sref);
    int nearest = 0;
    geom::Nm best = std::numeric_limits<geom::Nm>::max();
    for (std::size_t i = 1; i < tree.nodes.size(); ++i) {
      if (!seen[i] || tree.nodes[i].side != s) continue;
      const geom::Nm d = geom::manhattan(tree.nodes[i].pos, pos);
      if (d < best) {
        best = d;
        nearest = static_cast<int>(i);
      }
    }
    // Attach the pin as its own node so per-sink Elmore includes the
    // hookup resistance.
    const int pin_node = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(
        {pos, nl.pin_cap_ff(sref), kPinHookupOhm, nearest, s});
    seen.push_back(true);
    tree.sink_nodes.push_back(pin_node);
  }

  finalize_rc_tree(tree);
  double pin_cap = 0.0;
  for (const netlist::PinRef& sref : net.sinks) {
    pin_cap += nl.pin_cap_ff(sref);
  }
  tree.wire_cap_ff = std::max(0.0, tree.total_cap_ff - pin_cap);
}

/// Recompute the aggregate totals from scratch in net order (shared tail
/// of the full and incremental extractions; keeps them bit-identical).
void sum_totals(RcNetlist& out) {
  out.total_wire_cap_ff = 0.0;
  out.total_wire_res_kohm = 0.0;
  for (netlist::NetId n = 0; n < static_cast<netlist::NetId>(out.num_trees());
       ++n) {
    const RcTreeView t = out.tree(n);
    out.total_wire_cap_ff += t.wire_cap_ff;
    for (std::size_t i = 1; i < t.nodes.size(); ++i) {
      out.total_wire_res_kohm += t.nodes[i].r_ohm / 1000.0;
    }
  }
}

}  // namespace

void RcNetlist::assign_tree(netlist::NetId id, const RcTree& t) {
  RcSpan& s = spans_[static_cast<std::size_t>(id)];
  const auto n_nodes = static_cast<std::uint32_t>(t.nodes.size());
  const auto n_sinks = static_cast<std::uint32_t>(t.sink_nodes.size());
  if (n_nodes > s.num_nodes) {
    s.first_node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.resize(nodes_.size() + n_nodes);
    elmore_.resize(elmore_.size() + n_nodes);
  }
  if (n_sinks > s.num_sinks) {
    s.first_sink = static_cast<std::uint32_t>(sinks_.size());
    sinks_.resize(sinks_.size() + n_sinks);
  }
  std::copy(t.nodes.begin(), t.nodes.end(), nodes_.begin() + s.first_node);
  std::copy(t.elmore_ps.begin(), t.elmore_ps.end(),
            elmore_.begin() + s.first_node);
  std::copy(t.sink_nodes.begin(), t.sink_nodes.end(),
            sinks_.begin() + s.first_sink);
  s.num_nodes = n_nodes;
  s.num_sinks = n_sinks;
  s.total_cap_ff = t.total_cap_ff;
  s.wire_cap_ff = t.wire_cap_ff;
}

RcNetlist extract_rc(const io::Def& merged, const Netlist& nl,
                     const Technology& tech, int threads) {
  FFET_TRACE_SCOPE("extract.rc");
  const auto num_nets = static_cast<std::size_t>(nl.num_nets());
  RcNetlist out;
  out.resize_trees(num_nets);

  // Arena pre-sizing: root + per-sink pin node per net, plus at most two
  // endpoint nodes per DEF wire segment.
  {
    std::size_t sinks = 0, wires = 0;
    for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
      sinks += nl.net(n).sinks.size();
    }
    for (const io::DefNet& n : merged.nets) wires += n.wires.size();
    out.reserve_arena(num_nets + sinks + 2 * wires, sinks);
  }

  const TreeInputs in(merged, nl, tech);

  // Each net's tree is a pure function of read-only shared state (DEF
  // index, layers, density grid, netlist), so a chunk of nets is built into
  // per-net scratch slots in parallel without synchronization, then packed
  // into the arena serially in net order — bit-identical to the serial
  // loop while bounding scratch memory to one chunk.
  constexpr std::size_t kChunk = 1024;
  std::vector<RcTree> scratch(std::min(kChunk, std::max<std::size_t>(
                                                   num_nets, 1)));
  for (std::size_t base = 0; base < num_nets; base += kChunk) {
    const std::size_t count = std::min(kChunk, num_nets - base);
    runtime::parallel_for(
        count,
        [&](std::size_t i) {
          build_net_tree(scratch[i], static_cast<netlist::NetId>(base + i),
                         nl, in);
        },
        threads, 0);
    for (std::size_t i = 0; i < count; ++i) {
      out.assign_tree(static_cast<netlist::NetId>(base + i), scratch[i]);
    }
  }
  FFET_METRIC_ADD("extract.nets", nl.num_nets());

  sum_totals(out);
  return out;
}

void reextract_nets(RcNetlist& rc, const io::Def& merged,
                    const Netlist& nl, const Technology& tech,
                    const std::vector<netlist::NetId>& dirty_nets) {
  FFET_TRACE_SCOPE("extract.reextract");
  rc.resize_trees(static_cast<std::size_t>(nl.num_nets()));

  // The density grid is global state: any rerouted wire shifts the coupling
  // neighborhoods, so it is rebuilt from the *current* merged DEF.  Only
  // the listed trees are rebuilt against it — the clean nets' DEF wires are
  // unchanged by reroute_nets, so their trees (built from the same wires
  // and density field) stay valid.
  const TreeInputs in(merged, nl, tech);

  long rebuilt = 0;
  RcTree scratch;
  for (const netlist::NetId n : dirty_nets) {
    if (n < 0 || n >= nl.num_nets()) continue;
    build_net_tree(scratch, n, nl, in);
    rc.assign_tree(n, scratch);
    ++rebuilt;
  }
  FFET_METRIC_ADD("extract.reextracted_nets", rebuilt);

  sum_totals(rc);
}

void finalize_rc_tree(RcTree& tree) {
  const std::size_t n_nodes = tree.nodes.size();
  std::vector<std::vector<int>> children(n_nodes);
  for (std::size_t i = 1; i < n_nodes; ++i) {
    const int p = tree.nodes[i].parent;
    if (p >= 0) {
      children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
    }
  }
  // Subtree capacitance, post-order via explicit stack.
  std::vector<double> subtree_cap(n_nodes, 0.0);
  {
    std::vector<std::pair<int, std::size_t>> stack{{0, 0}};
    while (!stack.empty()) {
      const auto [n, ci] = stack.back();
      if (ci < children[static_cast<std::size_t>(n)].size()) {
        ++stack.back().second;  // must mutate before push (reallocation)
        stack.push_back({children[static_cast<std::size_t>(n)][ci], 0});
      } else {
        double c = tree.nodes[static_cast<std::size_t>(n)].cap_ff;
        for (int ch : children[static_cast<std::size_t>(n)]) {
          c += subtree_cap[static_cast<std::size_t>(ch)];
        }
        subtree_cap[static_cast<std::size_t>(n)] = c;
        stack.pop_back();
      }
    }
  }
  tree.total_cap_ff = subtree_cap[0];

  // Elmore: delay(n) = delay(parent) + R(n) * subtree_cap(n); ohm*fF = fs.
  tree.elmore_ps.assign(n_nodes, 0.0);
  std::vector<int> bfs{0};
  for (std::size_t qi = 0; qi < bfs.size(); ++qi) {
    const int n = bfs[qi];
    for (int c : children[static_cast<std::size_t>(n)]) {
      tree.elmore_ps[static_cast<std::size_t>(c)] =
          tree.elmore_ps[static_cast<std::size_t>(n)] +
          tree.nodes[static_cast<std::size_t>(c)].r_ohm *
              subtree_cap[static_cast<std::size_t>(c)] / 1000.0;
      bfs.push_back(c);
    }
  }
}

}  // namespace ffet::extract
