#include "pnr/drc.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

namespace ffet::pnr {

std::string_view to_string(DrcViolation::Kind k) {
  switch (k) {
    case DrcViolation::Kind::OutsideCore: return "outside-core";
    case DrcViolation::Kind::OffSiteGrid: return "off-site-grid";
    case DrcViolation::Kind::OffRowGrid: return "off-row-grid";
    case DrcViolation::Kind::CellOverlap: return "cell-overlap";
    case DrcViolation::Kind::BlockageOverlap: return "blockage-overlap";
  }
  return "?";
}

int DrcReport::count(DrcViolation::Kind k) const {
  int n = 0;
  for (const DrcViolation& v : violations) {
    if (v.kind == k) ++n;
  }
  return n;
}

std::string DrcReport::summary() const {
  std::ostringstream os;
  os << violations.size() << " placement DRC violations";
  if (!violations.empty()) {
    os << " (outside-core " << count(DrcViolation::Kind::OutsideCore)
       << ", off-grid "
       << count(DrcViolation::Kind::OffSiteGrid) +
              count(DrcViolation::Kind::OffRowGrid)
       << ", overlaps " << count(DrcViolation::Kind::CellOverlap)
       << ", on-blockage " << count(DrcViolation::Kind::BlockageOverlap)
       << ")";
  }
  return os.str();
}

DrcReport check_placement(const netlist::Netlist& nl, const Floorplan& fp,
                          const PowerPlan& pp) {
  DrcReport rep;

  // Blockage indices bucketed by the core rows they span, ascending within
  // each bucket.  Two rects whose interiors overlap share the row of the
  // larger of their bottom edges, so a cell meets every blockage it
  // overlaps in the buckets of its own rows; rows outside the core clamp to
  // the edge buckets.  A rect spans the rows of [lo.y, max(lo.y, hi.y - 1)].
  const int num_rows = std::max<int>(
      1, static_cast<int>((fp.core.height() + fp.row_height - 1) /
                          fp.row_height));
  auto row_of = [&](geom::Nm y) {
    const geom::Nm d = y - fp.core.lo.y;
    const geom::Nm r = d >= 0 ? d / fp.row_height
                              : -((-d + fp.row_height - 1) / fp.row_height);
    return static_cast<int>(
        std::clamp<geom::Nm>(r, 0, static_cast<geom::Nm>(num_rows - 1)));
  };
  auto row_span = [&](const geom::Rect& r) {
    return std::pair{row_of(r.lo.y), row_of(std::max(r.lo.y, r.hi.y - 1))};
  };
  std::vector<std::vector<int>> row_blockages(
      static_cast<std::size_t>(num_rows));
  for (std::size_t k = 0; k < pp.blockages.size(); ++k) {
    const auto [r_lo, r_hi] = row_span(pp.blockages[k]);
    for (int r = r_lo; r <= r_hi; ++r) {
      row_blockages[static_cast<std::size_t>(r)].push_back(static_cast<int>(k));
    }
  }

  // Tap-cell footprints double as blockages; skip self-matches below.
  std::map<geom::Nm, std::vector<std::pair<geom::Rect, netlist::InstId>>>
      by_row;

  for (netlist::InstId id = 0; id < nl.num_instances(); ++id) {
    const netlist::Instance& inst = nl.instance(id);
    const geom::Rect box = inst.bbox();
    if (!fp.core.contains(box)) {
      rep.violations.push_back(
          {DrcViolation::Kind::OutsideCore, nl.instance_name(id), "", box});
    }
    if (box.lo.x % fp.site_width != 0) {
      rep.violations.push_back(
          {DrcViolation::Kind::OffSiteGrid, nl.instance_name(id), "", box});
    }
    if (box.lo.y % fp.row_height != 0) {
      rep.violations.push_back(
          {DrcViolation::Kind::OffRowGrid, nl.instance_name(id), "", box});
    }
    if (!inst.fixed) {
      // The first overlapping blockage in pp.blockages order.
      int first = -1;
      const auto [r_lo, r_hi] = row_span(box);
      for (int r = r_lo; r <= r_hi; ++r) {
        for (const int k : row_blockages[static_cast<std::size_t>(r)]) {
          if (first >= 0 && k >= first) break;
          const geom::Rect& b = pp.blockages[static_cast<std::size_t>(k)];
          if (box.overlaps_interior(b)) {
            first = k;
            break;
          }
        }
      }
      if (first >= 0) {
        rep.violations.push_back(
            {DrcViolation::Kind::BlockageOverlap, nl.instance_name(id), "",
             box.intersected(pp.blockages[static_cast<std::size_t>(first)])});
      }
    }
    by_row[box.lo.y].push_back({box, id});
  }

  // Overlap scan per row (cells share a row exactly when legal).
  for (auto& [y, v] : by_row) {
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      return a.first.lo.x < b.first.lo.x;
    });
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      if (v[i].first.hi.x > v[i + 1].first.lo.x) {
        rep.violations.push_back({DrcViolation::Kind::CellOverlap,
                                  nl.instance_name(v[i].second),
                                  nl.instance_name(v[i + 1].second),
                                  v[i].first.intersected(v[i + 1].first)});
      }
    }
  }
  return rep;
}

}  // namespace ffet::pnr
