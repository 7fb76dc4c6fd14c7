#include "pnr/placement.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "geom/grid.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"

namespace ffet::pnr {

using netlist::InstId;
using netlist::Netlist;

namespace {

/// One free span of a row between blockages.  Placements punch holes into
/// the span, so it keeps a sorted list of free intervals (gap list) — a
/// forward-only cursor would permanently waste the left part of rows that
/// receive their first cell late.
struct Segment {
  Nm lo = 0;
  Nm hi = 0;
  std::vector<geom::Interval> free_list;  ///< sorted, non-overlapping

  Nm largest_free() const {
    Nm best = 0;
    for (const auto& iv : free_list) best = std::max(best, iv.length());
    return best;
  }

  /// Best x for a cell of width `w` wanting `desired`; nullopt if no gap
  /// fits.  Returns the x minimizing |x - desired|.
  std::optional<Nm> best_position(Nm w, Nm desired, Nm site) const {
    std::optional<Nm> best;
    Nm best_d = std::numeric_limits<Nm>::max();
    for (const auto& iv : free_list) {
      if (iv.length() < w) continue;
      const Nm lo_x = geom::snap_up(iv.lo, site);
      const Nm hi_x = geom::snap_down(iv.hi - w, site);
      if (lo_x > hi_x) continue;
      const Nm x = std::clamp(geom::snap_down(desired, site), lo_x, hi_x);
      const Nm d = std::abs(x - desired);
      if (d < best_d) {
        best_d = d;
        best = x;
      }
    }
    return best;
  }

  /// Return [x, x+w) (clamped to the segment span) to the free list,
  /// merging with adjacent free intervals — the inverse of occupy().
  void free_span(Nm x, Nm w) {
    Nm a = std::max(x, lo);
    Nm b = std::min(x + w, hi);
    if (a >= b) return;
    std::size_t i = 0;
    while (i < free_list.size() && free_list[i].hi < a) ++i;
    while (i < free_list.size() && free_list[i].lo <= b) {
      a = std::min(a, free_list[i].lo);
      b = std::max(b, free_list[i].hi);
      free_list.erase(free_list.begin() + static_cast<long>(i));
    }
    free_list.insert(free_list.begin() + static_cast<long>(i), {a, b});
  }

  /// Remove [x, x+w) from the free list.
  void occupy(Nm x, Nm w) {
    for (std::size_t i = 0; i < free_list.size(); ++i) {
      geom::Interval& iv = free_list[i];
      if (x < iv.lo || x + w > iv.hi) continue;
      const geom::Interval right{x + w, iv.hi};
      iv.hi = x;
      if (iv.length() <= 0) {
        free_list.erase(free_list.begin() + static_cast<long>(i));
        if (right.length() > 0) {
          free_list.insert(free_list.begin() + static_cast<long>(i), right);
        }
      } else if (right.length() > 0) {
        free_list.insert(free_list.begin() + static_cast<long>(i) + 1, right);
      }
      return;
    }
  }
};

struct RowState {
  Nm y = 0;
  std::vector<Segment> segments;
};

std::vector<RowState> build_row_segments(const Floorplan& fp,
                                         const PowerPlan& pp) {
  std::vector<RowState> rows;
  rows.reserve(fp.rows.size());
  for (const Row& r : fp.rows) {
    RowState rs;
    rs.y = r.y;
    // Collect blockage intervals intersecting this row.
    std::vector<geom::Interval> blocked;
    for (const geom::Rect& b : pp.blockages) {
      if (b.lo.y < r.y + fp.row_height && b.hi.y > r.y) {
        blocked.push_back({b.lo.x, b.hi.x});
      }
    }
    std::sort(blocked.begin(), blocked.end());
    Nm cur = r.x.lo;
    auto add_segment = [&rs](Nm lo, Nm hi) {
      Segment seg;
      seg.lo = lo;
      seg.hi = hi;
      seg.free_list.push_back({lo, hi});
      rs.segments.push_back(std::move(seg));
    };
    for (const geom::Interval& b : blocked) {
      if (b.lo > cur) add_segment(cur, b.lo);
      cur = std::max(cur, b.hi);
    }
    if (cur < r.x.hi) add_segment(cur, r.x.hi);
    rows.push_back(std::move(rs));
  }
  return rows;
}

/// The legal slot a cell of width `w` takes: row, segment and origin x.
struct Slot {
  RowState* row = nullptr;  ///< nullptr when no gap fits anywhere
  Segment* seg = nullptr;
  Nm x = 0;
};

/// Nearest free slot to `desired` under cost |dx| + |dy|, scanning rows
/// near-to-far from the desired row and stopping once the row distance
/// alone exceeds the best cost.  Shared by the Tetris legalizer and the
/// ECO's IncrementalLegalizer, so both pick identical slots.
Slot find_slot(std::vector<RowState>& rows, const Floorplan& fp, Nm w,
               geom::Point desired) {
  const int want_row = std::clamp(static_cast<int>(desired.y / fp.row_height),
                                  0, fp.num_rows() - 1);
  Nm best_cost = std::numeric_limits<Nm>::max();
  Slot best;
  for (int dr = 0; dr < fp.num_rows(); ++dr) {
    for (int sgn : {1, -1}) {
      const int r = want_row + sgn * dr;
      if (sgn < 0 && dr == 0) continue;
      if (r < 0 || r >= fp.num_rows()) continue;
      RowState& row = rows[static_cast<std::size_t>(r)];
      const Nm dy = std::abs(row.y - desired.y);
      if (dy >= best_cost) continue;  // rows are visited near-to-far
      for (Segment& seg : row.segments) {
        const auto x = seg.best_position(w, desired.x, fp.site_width);
        if (!x) continue;
        const Nm cost = std::abs(*x - desired.x) + dy;
        if (cost < best_cost) {
          best_cost = cost;
          best = {&row, &seg, *x};
        }
      }
    }
    if (best.row && static_cast<Nm>(dr) * fp.row_height > best_cost) break;
  }
  return best;
}

/// Place IO ports evenly on the core boundary: inputs on the left/top
/// edges, outputs on the right/bottom — a simple deterministic IO plan.
void plan_ios(Netlist& nl, const Floorplan& fp) {
  std::vector<netlist::PortId> ins, outs;
  for (int p = 0; p < nl.num_ports(); ++p) {
    (nl.port(p).is_input ? ins : outs).push_back(p);
  }
  auto spread = [&](const std::vector<netlist::PortId>& ports, bool left) {
    const Nm perim = fp.core.height() + fp.core.width();
    const std::size_t n = std::max<std::size_t>(1, ports.size());
    for (std::size_t i = 0; i < ports.size(); ++i) {
      const Nm d = static_cast<Nm>((i + 0.5) / n * perim);
      geom::Point pos;
      if (d < fp.core.height()) {
        pos = {left ? fp.core.lo.x : fp.core.hi.x, fp.core.lo.y + d};
      } else {
        pos = {fp.core.lo.x + (d - fp.core.height()),
               left ? fp.core.hi.y : fp.core.lo.y};
      }
      nl.port(ports[i]).pos = pos;
    }
  };
  spread(ins, /*left=*/true);
  spread(outs, /*left=*/false);
}

}  // namespace

double compute_hpwl_um(const Netlist& nl) {
  double total = 0.0;
  for (const netlist::Net& net : nl.nets()) {
    geom::Nm min_x = std::numeric_limits<geom::Nm>::max();
    geom::Nm max_x = std::numeric_limits<geom::Nm>::min();
    geom::Nm min_y = min_x, max_y = max_x;
    int pins = 0;
    auto absorb = [&](const geom::Point& p) {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
      ++pins;
    };
    if (net.driver.inst != netlist::kNoInst) {
      absorb(nl.pin_position(net.driver));
    }
    for (const netlist::PinRef& s : net.sinks) absorb(nl.pin_position(s));
    if (net.port >= 0) absorb(nl.port(net.port).pos);
    if (pins >= 2) {
      total += geom::to_um(max_x - min_x) + geom::to_um(max_y - min_y);
    }
  }
  return total;
}

PlacementResult place(Netlist& nl, const Floorplan& fp, const PowerPlan& pp,
                      const PlacementOptions& options) {
  FFET_TRACE_SCOPE("place.design");
  PlacementResult res;

  plan_ios(nl, fp);

  std::vector<InstId> movable;
  double movable_area = 0.0;
  for (int i = 0; i < nl.num_instances(); ++i) {
    if (nl.instance(i).fixed) continue;
    movable.push_back(i);
    movable_area += nl.instance(i).type->area_um2();
  }

  const double free_area =
      fp.core.area_um2() * (1.0 - pp.blocked_site_fraction);
  res.density = free_area > 0 ? movable_area / free_area : 1e9;

  // --- global placement ---------------------------------------------------
  std::mt19937 rng(options.seed);
  std::uniform_real_distribution<double> ux(0.0, 1.0);
  for (InstId id : movable) {
    netlist::Instance& inst = nl.instance(id);
    inst.pos = {static_cast<Nm>(ux(rng) * (fp.core.width() -
                                           inst.type->width())),
                static_cast<Nm>(ux(rng) * (fp.core.height() -
                                           inst.type->height()))};
  }

  // Global placement: alternate connectivity averaging (Jacobi steps on
  // the quadratic wirelength system, IO ports acting as anchors) with an
  // order-preserving sort-and-balance spreading that equalizes density
  // without destroying the relative cell order — the property that keeps
  // locality through legalization.
  //
  // In both passes every parallel unit writes only its own slots and reads
  // nothing another unit writes, so they run as parallel_for with output
  // bit-identical at any thread count.  Working arrays live for the whole
  // place() call.
  const int threads = runtime::resolve_threads(options.threads);
  const std::size_t num_nets = static_cast<std::size_t>(nl.num_nets());
  std::vector<Nm> net_sum_x(num_nets), net_sum_y(num_nets);
  std::vector<int> net_pins(num_nets);
  std::vector<geom::Point> desired(movable.size());

  // Each cell is pulled toward the mean of every other pin on each of its
  // non-clock nets (a net counts once per pin the cell has on it), plus
  // the net's port.  Summing each net once and subtracting the cell's own
  // pins keeps a pass at Σ deg work; walking every net once per touching
  // pin would cost Σ deg², which high-fanout nets dominate.  The sums are
  // exact integers below 2^53, so the one int64 → double conversion per
  // cell gives the same bits as accumulating the pins in double, in any
  // order.
  auto centroid_pass = [&]() {
    FFET_TRACE_SCOPE("place.centroid");
    runtime::parallel_for(
        num_nets,
        [&](std::size_t k) {
          const netlist::Net& net = nl.net(static_cast<netlist::NetId>(k));
          Nm sx = 0, sy = 0;
          int n = 0;
          if (!net.is_clock) {  // the clock net doesn't pull placement
            auto absorb = [&](const netlist::PinRef& ref) {
              if (ref.inst == netlist::kNoInst) return;
              const geom::Point q = nl.pin_position(ref);
              sx += q.x;
              sy += q.y;
              ++n;
            };
            absorb(net.driver);
            for (const netlist::PinRef& s : net.sinks) absorb(s);
            if (net.port >= 0) {
              sx += nl.port(net.port).pos.x;
              sy += nl.port(net.port).pos.y;
              ++n;
            }
          }
          net_sum_x[k] = sx;
          net_sum_y[k] = sy;
          net_pins[k] = n;
        },
        threads, 0);
    runtime::parallel_for(
        movable.size(),
        [&](std::size_t m) {
          const InstId id = movable[m];
          const netlist::Instance& inst = nl.instance(id);
          const auto pin_nets = nl.pin_nets(id);
          Nm sx = 0, sy = 0;
          int n = 0;
          for (const netlist::NetId net_id : pin_nets) {
            if (net_id == netlist::kNoNet || nl.net(net_id).is_clock) continue;
            const auto k = static_cast<std::size_t>(net_id);
            sx += net_sum_x[k];
            sy += net_sum_y[k];
            n += net_pins[k];
            for (std::size_t q = 0; q < pin_nets.size(); ++q) {
              if (pin_nets[q] != net_id) continue;
              const geom::Point own =
                  nl.pin_position({id, static_cast<int>(q)});
              sx -= own.x;
              sy -= own.y;
              --n;
            }
          }
          geom::Point target = inst.pos;
          if (n > 0) {
            target = {static_cast<Nm>(static_cast<double>(sx) / n),
                      static_cast<Nm>(static_cast<double>(sy) / n)};
          }
          const double a = options.pull_strength;
          desired[m] = {static_cast<Nm>(a * target.x + (1 - a) * inst.pos.x),
                        static_cast<Nm>(a * target.y + (1 - a) * inst.pos.y)};
        },
        threads, 0);
    for (std::size_t m = 0; m < movable.size(); ++m) {
      nl.instance(movable[m]).pos = desired[m];
    }
  };

  // Recursive equal-area bisection spreading: split the cell set at its
  // area-median along the region's longer axis, give each half one
  // geometric half of the region, recurse.  Order is preserved along the
  // split axis at every level, so connectivity structure built by the
  // averaging passes survives while density becomes uniform.
  //
  // Cells are indexed by their slot in `movable` (ascending ids, so the
  // (key, slot) order is the (key, id) order).  Positions do not change
  // until a frame's leaf, so one pass sorts all cells once by (x, slot)
  // and once by (y, slot); a frame owns the same range of both orders, and
  // a split stable-partitions the other axis's order by side, which keeps
  // each child's ranges sorted with no further comparisons.  Frames of one
  // tree level touch disjoint ranges and cells, so they run in parallel.
  struct Frame {
    std::size_t lo = 0, hi = 0;  ///< range of `by_x` / `by_y`
    geom::Rect region;
  };
  std::vector<double> area(movable.size());
  for (std::size_t m = 0; m < movable.size(); ++m) {
    area[m] = nl.instance(movable[m]).type->area_um2();
  }
  std::vector<std::pair<Nm, std::uint32_t>> keyed_x(movable.size()),
      keyed_y(movable.size());
  std::vector<std::uint32_t> by_x(movable.size()), by_y(movable.size()),
      scratch(movable.size());
  std::vector<char> goes_low(movable.size());
  std::vector<Frame> level, next;
  auto sort_axis = [&](std::vector<std::pair<Nm, std::uint32_t>>& keyed,
                       std::vector<std::uint32_t>& order, bool x_axis) {
    for (std::size_t m = 0; m < movable.size(); ++m) {
      const geom::Point& p = nl.instance(movable[m]).pos;
      keyed[m] = {x_axis ? p.x : p.y, static_cast<std::uint32_t>(m)};
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
  };
  auto spread_pass = [&]() {
    FFET_TRACE_SCOPE("place.spread");
    runtime::parallel_invoke(
        threads, [&] { sort_axis(keyed_x, by_x, true); },
        [&] { sort_axis(keyed_y, by_y, false); });
    level.assign(1, {0, movable.size(), fp.core});
    while (!level.empty()) {
      next.assign(2 * level.size(), Frame{});
      runtime::parallel_for(
          level.size(),
          [&](std::size_t fi) {
            const Frame& f = level[fi];
            const std::size_t n = f.hi - f.lo;
            if (n == 0) return;
            const bool split_x = f.region.width() >= f.region.height();
            const std::uint32_t* sorted = (split_x ? by_x : by_y).data() + f.lo;
            if (n <= 8 ||
                f.region.width() <= 4 * fp.site_width ||
                f.region.height() <= fp.row_height) {
              // Leaf: scatter by rank along the longer axis.
              for (std::size_t i = 0; i < n; ++i) {
                const double t = (static_cast<double>(i) + 0.5) /
                                 static_cast<double>(n);
                netlist::Instance& inst = nl.instance(movable[sorted[i]]);
                if (split_x) {
                  inst.pos = {
                      f.region.lo.x + static_cast<Nm>(t * f.region.width()),
                      f.region.center().y};
                } else {
                  inst.pos = {
                      f.region.center().x,
                      f.region.lo.y + static_cast<Nm>(t * f.region.height())};
                }
              }
              return;
            }
            double total = 0.0;
            for (std::size_t i = 0; i < n; ++i) total += area[sorted[i]];
            double acc = 0.0;
            std::size_t cut = 0;
            while (cut < n && acc < total / 2.0) {
              acc += area[sorted[cut]];
              ++cut;
            }
            for (std::size_t i = 0; i < n; ++i) goes_low[sorted[i]] = i < cut;
            std::uint32_t* other = (split_x ? by_y : by_x).data() + f.lo;
            std::uint32_t* out = scratch.data() + f.lo;
            std::size_t low = 0, high = cut;
            for (std::size_t i = 0; i < n; ++i) {
              out[goes_low[other[i]] ? low++ : high++] = other[i];
            }
            std::copy(out, out + n, other);
            Frame& a = next[2 * fi];
            Frame& b = next[2 * fi + 1];
            a = {f.lo, f.lo + cut, {}};
            b = {f.lo + cut, f.hi, {}};
            if (split_x) {
              const Nm mid = f.region.center().x;
              a.region = {f.region.lo, {mid, f.region.hi.y}};
              b.region = {{mid, f.region.lo.y}, f.region.hi};
            } else {
              const Nm mid = f.region.center().y;
              a.region = {f.region.lo, {f.region.hi.x, mid}};
              b.region = {{f.region.lo.x, mid}, f.region.hi};
            }
          },
          threads, 0);
      next.erase(std::remove_if(next.begin(), next.end(),
                                [](const Frame& f) { return f.lo == f.hi; }),
                 next.end());
      std::swap(level, next);
    }
  };

  // Phase 1: long averaging from the random start — the quadratic system
  // settles into a (collapsed but correctly *ordered*) solution anchored by
  // the IO ports.  Phase 2: alternate density spreading with short re-pull
  // rounds so clusters stay even without losing the global order.
  {
    FFET_TRACE_SCOPE("place.global");
    for (int i = 0; i < options.iterations; ++i) centroid_pass();
    for (int round = 0; round < 6; ++round) {
      spread_pass();
      centroid_pass();
      centroid_pass();
    }
    spread_pass();  // hand a density-legal picture to the legalizer
  }

  // --- legalization (Tetris) ------------------------------------------------
  FFET_TRACE_SCOPE("place.legalize");
  std::vector<RowState> rows = build_row_segments(fp, pp);

  // Whitespace feasibility: the industrial density ceiling.
  if (res.density > kMaxPlacementDensity) {
    const double excess = movable_area - kMaxPlacementDensity * free_area;
    const double avg =
        movable_area / std::max<std::size_t>(1, movable.size());
    res.violations = std::max(1, static_cast<int>(std::ceil(excess / avg)));
    res.legal = false;
    res.message = "placement density " + std::to_string(res.density) +
                  " exceeds closable limit " +
                  std::to_string(kMaxPlacementDensity);
  }

  // Sort by desired x, then pack greedily into the nearest feasible row.
  std::vector<InstId> order = movable;
  std::sort(order.begin(), order.end(), [&](InstId a, InstId bb) {
    const auto& pa = nl.instance(a).pos;
    const auto& pb = nl.instance(bb).pos;
    if (pa.x != pb.x) return pa.x < pb.x;
    if (pa.y != pb.y) return pa.y < pb.y;
    return a < bb;
  });

  int unplaced = 0;
  // Legalization displacement (global position -> legal slot): the cheap
  // proxy for how hard the density target was to realize.
  double disp_sum_um = 0.0;
  std::size_t disp_n = 0;
  obs::Histogram* disp_hist =
      obs::metrics_enabled() ? &obs::histogram("place.displacement_um")
                             : nullptr;
  for (InstId id : order) {
    netlist::Instance& inst = nl.instance(id);
    const Nm w = inst.type->width();
    const Slot slot = find_slot(rows, fp, w, inst.pos);
    if (!slot.row) {
      ++unplaced;
      // Clamp somewhere sane so downstream stages see finite coordinates.
      inst.pos = {std::clamp<Nm>(inst.pos.x, 0,
                                 fp.core.width() - w),
                  std::clamp<Nm>(geom::snap_down(inst.pos.y, fp.row_height),
                                 0, (fp.num_rows() - 1) * fp.row_height)};
      continue;
    }
    const double disp_um = geom::to_um(std::abs(slot.x - inst.pos.x) +
                                       std::abs(slot.row->y - inst.pos.y));
    disp_sum_um += disp_um;
    ++disp_n;
    res.max_displacement_um = std::max(res.max_displacement_um, disp_um);
    if (disp_hist != nullptr) disp_hist->observe(disp_um);
    inst.pos = {slot.x, slot.row->y};
    slot.seg->occupy(slot.x, w);
  }
  res.mean_displacement_um =
      disp_n > 0 ? disp_sum_um / static_cast<double>(disp_n) : 0.0;

  if (unplaced > 0) {
    res.violations = std::max(res.violations, unplaced);
    res.legal = false;
    if (res.message.empty()) {
      res.message = std::to_string(unplaced) + " cells could not be legalized";
    }
  } else if (res.message.empty()) {
    res.legal = true;
    res.message = "legal";
  }

  res.hpwl_um = compute_hpwl_um(nl);
  FFET_METRIC_GAUGE_MAX("place.max_displacement_um", res.max_displacement_um);
  FFET_METRIC_ADD("place.violations", res.violations);
  return res;
}

// --- incremental legalization (ECO support) -----------------------------------

struct IncrementalLegalizer::Impl {
  const Floorplan* fp = nullptr;
  std::vector<RowState> rows;

  /// Row whose y matches pos.y exactly (nullptr when the cell sits off-row,
  /// e.g. a clamped unplaceable one).
  RowState* row_at(Nm y) {
    const int guess =
        std::clamp(static_cast<int>(y / fp->row_height), 0,
                   static_cast<int>(rows.size()) - 1);
    if (rows[static_cast<std::size_t>(guess)].y == y) {
      return &rows[static_cast<std::size_t>(guess)];
    }
    for (RowState& rs : rows) {
      if (rs.y == y) return &rs;
    }
    return nullptr;
  }

  Segment* segment_at(RowState& rs, Nm x, Nm w) {
    for (Segment& seg : rs.segments) {
      if (x >= seg.lo && x + w <= seg.hi) return &seg;
    }
    return nullptr;
  }
};

IncrementalLegalizer::IncrementalLegalizer(const Netlist& nl,
                                           const Floorplan& fp,
                                           const PowerPlan& pp)
    : impl_(std::make_unique<Impl>()) {
  impl_->fp = &fp;
  impl_->rows = build_row_segments(fp, pp);
  for (int i = 0; i < nl.num_instances(); ++i) {
    const netlist::Instance& inst = nl.instance(i);
    if (inst.fixed || inst.type->physical_only()) continue;
    occupy(inst.pos, inst.type->width());
  }
}

IncrementalLegalizer::~IncrementalLegalizer() = default;

void IncrementalLegalizer::release(geom::Point pos, geom::Nm width) {
  RowState* rs = impl_->row_at(pos.y);
  if (!rs) return;
  if (Segment* seg = impl_->segment_at(*rs, pos.x, width)) {
    seg->free_span(pos.x, width);
  }
}

void IncrementalLegalizer::occupy(geom::Point pos, geom::Nm width) {
  RowState* rs = impl_->row_at(pos.y);
  if (!rs) return;
  if (Segment* seg = impl_->segment_at(*rs, pos.x, width)) {
    seg->occupy(pos.x, width);
  }
}

std::optional<geom::Point> IncrementalLegalizer::claim(geom::Nm width,
                                                       geom::Point desired) {
  const Slot slot = find_slot(impl_->rows, *impl_->fp, width, desired);
  if (!slot.row) return std::nullopt;
  slot.seg->occupy(slot.x, width);
  return geom::Point{slot.x, slot.row->y};
}

}  // namespace ffet::pnr
