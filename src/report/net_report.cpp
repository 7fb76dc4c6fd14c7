#include "report/net_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace ffet::report {

namespace {

void snapshot_histogram(const obs::Histogram& h, const char* name,
                        HistogramSnapshot& out) {
  out.name = name;
  out.count = h.count();
  out.sum = h.sum();
  out.min = out.count ? h.min() : 0.0;
  out.max = out.count ? h.max() : 0.0;
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    out.buckets[static_cast<std::size_t>(i)] = h.bucket(i);
  }
}

void append_histogram(std::string& out, const HistogramSnapshot& h,
                      const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  %-14s n=%llu  min=%.3f  mean=%.3f  max=%.3f %s\n",
                h.name.c_str(), static_cast<unsigned long long>(h.count),
                h.min, h.mean(), h.max, unit);
  out += buf;
  std::uint64_t peak = 0;
  for (const std::uint64_t b : h.buckets) peak = std::max(peak, b);
  if (peak == 0) return;
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    const std::uint64_t n = h.buckets[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    const double lo = obs::Histogram::bucket_lower_bound(i);
    const double hi = obs::Histogram::bucket_lower_bound(i + 1);
    const int bar = static_cast<int>(
        50.0 * static_cast<double>(n) / static_cast<double>(peak) + 0.5);
    std::snprintf(buf, sizeof(buf), "    [%10.3f, %10.3f) %8llu  ", lo,
                  i + 1 >= obs::Histogram::kBuckets ? INFINITY : hi,
                  static_cast<unsigned long long>(n));
    out += buf;
    out.append(static_cast<std::size_t>(std::max(bar, 1)), '#');
    out += "\n";
  }
}

}  // namespace

NetReport build_net_report(const netlist::Netlist& nl, const io::Def& merged,
                           const extract::RcNetlist& rc) {
  NetReport rep;
  const double dbu = static_cast<double>(merged.dbu_per_micron);

  // NetId-indexed DEF lookup.
  std::vector<const io::DefNet*> def_of(
      static_cast<std::size_t>(nl.num_nets()), nullptr);
  for (const io::DefNet& dn : merged.nets) {
    if (dn.net >= 0 && dn.net < nl.num_nets()) {
      def_of[static_cast<std::size_t>(dn.net)] = &dn;
    }
  }

  obs::Histogram length_h, cap_h, elmore_h;

  rep.nets.reserve(static_cast<std::size_t>(nl.num_nets()));
  for (netlist::NetId id = 0; id < nl.num_nets(); ++id) {
    const netlist::Net& net = nl.net(id);
    NetAttribution a;
    a.net = id;
    a.name = nl.net_name(id);
    a.is_clock = net.is_clock;
    a.fanout = static_cast<int>(net.sinks.size());

    if (const io::DefNet* dn = def_of[static_cast<std::size_t>(id)]) {
      // Layers as (side, index); named only for the per-layer list.
      using Layer = std::pair<tech::Side, int>;
      std::map<Layer, double> per_layer;
      // Distinct layers meeting at a wire endpoint imply a via stack there
      // (front<->back meetings are the Drain-Merge hookup).
      std::map<std::pair<geom::Nm, geom::Nm>, std::vector<Layer>>
          point_layers;
      for (const io::DefWire& w : dn->wires) {
        const double len_um =
            (std::abs(static_cast<double>(w.to.x - w.from.x)) +
             std::abs(static_cast<double>(w.to.y - w.from.y))) /
            dbu;
        const Layer layer{w.side, w.layer};
        per_layer[layer] += len_um;
        (w.side == tech::Side::Back ? a.length_back_um : a.length_front_um) +=
            len_um;
        for (const geom::Point& p : {w.from, w.to}) {
          auto& layers = point_layers[{p.x, p.y}];
          if (std::find(layers.begin(), layers.end(), layer) == layers.end()) {
            layers.push_back(layer);
          }
        }
      }
      for (const auto& [layer, um] : per_layer) {
        a.layer_um.emplace_back(io::layer_name(layer.first, layer.second), um);
      }
      std::sort(a.layer_um.begin(), a.layer_um.end());
      for (const auto& [pt, layers] : point_layers) {
        (void)pt;
        a.vias += static_cast<int>(layers.size()) - 1;
      }
      a.dual_sided = a.length_front_um > 0.0 && a.length_back_um > 0.0;
    }

    if (static_cast<std::size_t>(id) < rc.num_trees()) {
      const extract::RcTreeView tree = rc.tree(id);
      a.total_cap_ff = tree.total_cap_ff;
      a.wire_cap_ff = tree.wire_cap_ff;
      for (const extract::RcNode& n : tree.nodes) a.wire_r_ohm += n.r_ohm;
      for (std::size_t s = 0; s < tree.sink_nodes.size(); ++s) {
        a.worst_elmore_ps = std::max(a.worst_elmore_ps, tree.elmore_to_sink(s));
      }
    }

    rep.total_length_um += a.length_um();
    rep.total_vias += a.vias;
    rep.total_elmore_ps += a.worst_elmore_ps;
    if (a.length_um() > 0.0) length_h.observe(a.length_um());
    cap_h.observe(a.total_cap_ff);
    elmore_h.observe(a.worst_elmore_ps);
    rep.nets.push_back(std::move(a));
  }

  for (NetAttribution& a : rep.nets) {
    a.elmore_share_pct = rep.total_elmore_ps > 0.0
                             ? a.worst_elmore_ps / rep.total_elmore_ps * 100.0
                             : 0.0;
  }

  snapshot_histogram(length_h, "net_length_um", rep.length_hist);
  snapshot_histogram(cap_h, "net_cap_ff", rep.cap_hist);
  snapshot_histogram(elmore_h, "net_elmore_ps", rep.elmore_hist);
  return rep;
}

namespace {

void append_net_line(std::string& out, const NetAttribution& a) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  %-22s %5d  %8.3f %8.3f  %4d %-3s  %8.1f %8.3f  "
                "%8.2f  %5.2f%%%s\n",
                a.name.c_str(), a.fanout, a.length_front_um, a.length_back_um,
                a.vias, a.dual_sided ? "F+B" : (a.length_back_um > 0 ? "B" : "F"),
                a.wire_r_ohm, a.total_cap_ff, a.worst_elmore_ps,
                a.elmore_share_pct, a.is_clock ? "  (clock)" : "");
  out += buf;
}

const char* kNetHeader =
    "  net                     fan   len_F_um len_B_um  vias side"
    "    R_ohm   cap_fF  elmore_ps  share\n";

}  // namespace

std::string format_net_report(const NetReport& rep, int top_n) {
  std::string out;
  char buf[256];
  int routed = 0, dual = 0;
  for (const NetAttribution& a : rep.nets) {
    if (a.length_um() > 0.0) ++routed;
    if (a.dual_sided) ++dual;
  }
  std::snprintf(buf, sizeof(buf),
                "Net attribution: %zu nets (%d routed, %d dual-sided), "
                "%.1f um total, %d vias, %.1f ps summed worst-Elmore\n",
                rep.nets.size(), routed, dual, rep.total_length_um,
                rep.total_vias, rep.total_elmore_ps);
  out += buf;

  out += "\nHistograms (base-2 log buckets):\n";
  append_histogram(out, rep.length_hist, "um");
  append_histogram(out, rep.cap_hist, "fF");
  append_histogram(out, rep.elmore_hist, "ps");

  std::vector<const NetAttribution*> order;
  order.reserve(rep.nets.size());
  for (const NetAttribution& a : rep.nets) order.push_back(&a);
  std::sort(order.begin(), order.end(),
            [](const NetAttribution* x, const NetAttribution* y) {
              if (x->worst_elmore_ps != y->worst_elmore_ps) {
                return x->worst_elmore_ps > y->worst_elmore_ps;
              }
              return x->net < y->net;
            });

  std::snprintf(buf, sizeof(buf), "\nTop %d nets by worst sink Elmore:\n",
                top_n);
  out += buf;
  out += kNetHeader;
  for (int i = 0; i < top_n && i < static_cast<int>(order.size()); ++i) {
    append_net_line(out, *order[static_cast<std::size_t>(i)]);
  }
  return out;
}

std::string format_net_detail(const NetReport& rep,
                              const std::string& net_name) {
  for (const NetAttribution& a : rep.nets) {
    if (a.name != net_name) continue;
    std::string out = "Net " + a.name + ":\n";
    out += kNetHeader;
    append_net_line(out, a);
    if (!a.layer_um.empty()) {
      out += "  per-layer routed length:\n";
      for (const auto& [layer, um] : a.layer_um) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "    %-6s %10.3f um\n", layer.c_str(),
                      um);
        out += buf;
      }
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  wire cap: %.3f fF of %.3f fF total\n",
                  a.wire_cap_ff, a.total_cap_ff);
    out += buf;
    return out;
  }
  return "net \"" + net_name + "\" not found\n";
}

}  // namespace ffet::report
