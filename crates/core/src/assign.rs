use crate::graph::mask_type;
use crate::{AgreementGraph, SetLabel};
use asj_geom::Point;
use asj_grid::{AreaClass, CellCoord, Quadrant, QuartetId};

/// Aggregate statistics over a stream of point assignments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignStats {
    /// Points assigned.
    pub points: u64,
    /// Extra copies beyond the native cell (the paper's *replicated objects*
    /// metric).
    pub replicas: u64,
    /// Largest number of cells any single point was assigned to.
    pub max_cells: usize,
}

impl AssignStats {
    /// Records one assignment result (`cells` includes the native cell).
    pub fn record(&mut self, cells: &[CellCoord]) {
        self.points += 1;
        self.replicas += (cells.len() - 1) as u64;
        self.max_cells = self.max_cells.max(cells.len());
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &AssignStats) {
        self.points += other.points;
        self.replicas += other.replicas;
        self.max_cells = self.max_cells.max(other.max_cells);
    }
}

// Layout of one dispatch byte (see `dispatch_word`).
/// `MeDuPAr`: push the horizontal / vertical side neighbor.
const PUSH_H: u8 = 1;
const PUSH_V: u8 = 1 << 1;
/// `MeDuPAr` diagonal (2 bits): never (0), when the point is within ε of
/// the reference point, or always (a matching side edge is marked: the
/// redirect of §4.5.2).
const DIAG_SHIFT: u32 = 2;
const DIAG_NEAR: u8 = 1;
const DIAG_ALWAYS: u8 = 2;
/// `SupAr` target via the horizontal (bits 4–5) and vertical (bits 6–7) side
/// neighbor `j`: none (0), `j`'s diagonal (the native cell's other side
/// neighbor), or the native cell's diagonal.
const SUP_SHIFT: u32 = 4;
const SUP_OTHER_SIDE: u8 = 1;
const SUP_DIAGONAL: u8 = 2;

/// The Figure-9 dispatch word of a quartet with type mask `types` and edge
/// bits `bits`: byte `2·quadrant + label` holds everything `MeDuPAr`
/// (Algorithm 3) and `SupAr` (Algorithm 4) decide for a native cell in that
/// quadrant and a point of that label, leaving only the geometric tests to
/// [`AgreementGraph::assign`]. Lock bits are ignored: they never affect
/// assignment.
pub(crate) fn dispatch_word(types: u8, bits: u32) -> u64 {
    let marked = |a: Quadrant, b: Quadrant| bits & AgreementGraph::bit(a, b) != 0;
    let mut word = 0u64;
    for me in Quadrant::ALL {
        let (h, v, d) = (me.horizontal(), me.vertical(), me.diagonal());
        for label in SetLabel::BOTH {
            let is = |a: Quadrant, b: Quadrant| mask_type(types, a, b) == label;
            let mut byte = 0u8;
            if is(me, h) && !marked(me, h) {
                byte |= PUSH_H;
            }
            if is(me, v) && !marked(me, v) {
                byte |= PUSH_V;
            }
            if is(me, d) && !marked(me, d) {
                let side_marked = [h, v].iter().any(|&j| is(me, j) && marked(me, j));
                byte |= if side_marked { DIAG_ALWAYS } else { DIAG_NEAR } << DIAG_SHIFT;
            }
            for (slot, j) in [h, v].into_iter().enumerate() {
                if is(j, me) || !marked(j, me) {
                    continue;
                }
                let target = [(SUP_OTHER_SIDE, j.diagonal()), (SUP_DIAGONAL, d)]
                    .into_iter()
                    .find(|&(_, k)| is(me, k) && !marked(me, k) && !is(j, k) && !marked(j, k));
                if let Some((code, _)) = target {
                    byte |= code << (SUP_SHIFT + 2 * slot as u32);
                }
            }
            word |= (byte as u64) << (8 * (2 * me.index() + label.index()));
        }
    }
    word
}

impl AgreementGraph {
    /// Algorithm 2 of the paper: assigns point `o` of dataset `label` to its
    /// native cell plus every cell it must be replicated to under the
    /// adaptive-replication rules. Cell ids are appended to `out` (cleared
    /// first); the native cell always comes first.
    ///
    /// Dispatch follows Figure 9:
    ///
    /// 1. *No-replication area* — native cell only.
    /// 2. *Merged duplicate-prone area* of quartet `q` — `MeDuPAr`
    ///    (Algorithm 3) for `q`, then `SupAr` (Algorithm 4) for `q` and the
    ///    two adjacent quartets `q'`, `q''`.
    /// 3. *Plain replication area* — replicate across the single border when
    ///    the agreement type matches, then `SupAr` for the two quartets at
    ///    the ends of that border.
    ///
    /// The per-quartet decisions of `MeDuPAr` and `SupAr` are read from the
    /// quartet's precomputed dispatch byte; per point only the geometric
    /// tests run, and only when the byte calls for them.
    pub fn assign(&self, o: Point, label: SetLabel, out: &mut Vec<CellCoord>) {
        out.clear();
        let grid = self.grid();
        let native = grid.cell_of(o);
        out.push(native);
        match grid.classify_in_cell(o, native) {
            AreaClass::Interior => {}
            AreaClass::PlainStrip {
                neighbor,
                sup_quartets,
                ..
            } => {
                if self.pair_type(native, neighbor) == label {
                    out.push(neighbor);
                }
                for q in sup_quartets.into_iter().flatten() {
                    let me = self.native_quadrant(native, q);
                    self.sup_ar(q, me, self.dispatch_byte(q, me, label), o, out);
                }
            }
            AreaClass::CornerSquare {
                quartet: q,
                sup_quartets,
            } => {
                // MeDuPAr (Algorithm 3).
                let me = self.native_quadrant(native, q);
                let byte = self.dispatch_byte(q, me, label);
                if byte & PUSH_H != 0 {
                    out.push(self.quartet_cell(q, me.horizontal()));
                }
                if byte & PUSH_V != 0 {
                    out.push(self.quartet_cell(q, me.vertical()));
                }
                let diag = match (byte >> DIAG_SHIFT) & 3 {
                    DIAG_ALWAYS => true,
                    DIAG_NEAR => {
                        let eps = grid.eps();
                        o.dist2(grid.corner_point(q)) <= eps * eps
                    }
                    _ => false,
                };
                if diag {
                    out.push(self.quartet_cell(q, me.diagonal()));
                }
                // A merged-square point may sit in a supplementary area of
                // its *own* quartet (Figure 6: the part of the square beyond
                // ε of the reference point): when a neighbor's marked edge
                // excluded that neighbor's duplicate-prone partners from the
                // native cell, the point must follow them to the meeting
                // cell. Algorithm 2 as printed only probes the adjacent
                // quartets q' and q''; probing q as well is required for
                // correctness (see DESIGN.md, faithfulness notes).
                self.sup_ar(q, me, byte, o, out);
                for q in sup_quartets.into_iter().flatten() {
                    let me = self.native_quadrant(native, q);
                    self.sup_ar(q, me, self.dispatch_byte(q, me, label), o, out);
                }
            }
        }
        debug_assert!(
            {
                let mut sorted = out.clone();
                sorted.sort();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "assignment produced duplicate cells: {out:?}"
        );
    }

    /// The quadrant of `native` in quartet `q`, which must contain it.
    #[inline]
    fn native_quadrant(&self, native: CellCoord, q: QuartetId) -> Quadrant {
        self.grid()
            .quadrant_of(native, q)
            .expect("native cell must belong to quartet")
    }

    /// The dispatch byte of quartet `q` for a native cell in quadrant `me`
    /// and a point of `label`.
    #[inline]
    fn dispatch_byte(&self, q: QuartetId, me: Quadrant, label: SetLabel) -> u8 {
        let word = self.quartet_dispatch(self.grid().quartet_index(q));
        (word >> (8 * (2 * me.index() + label.index()))) as u8
    }

    /// Algorithm 4 (`SupAr`): replication of a point located in a
    /// *supplementary area* of quartet `q` (Definition 4.10), its native cell
    /// in quadrant `me`, driven by the dispatch byte.
    ///
    /// For each side neighbor `j` of the native cell within ε of the point
    /// (with the reference point within 2ε): if the `j → native` edge carries
    /// the *other* dataset and is marked, the duplicate-prone points of `j`
    /// that this point pairs with were excluded from the native cell; the
    /// point must follow them to the meeting cell — the quartet cell whose
    /// edges from both the native cell (matching type, unmarked) and from `j`
    /// (other type, unmarked) are intact. Candidates are probed in the
    /// paper's order: the remaining side neighbor of the native cell first,
    /// then its diagonal. The byte holds the outcome of that probe per `j`.
    #[inline]
    fn sup_ar(&self, q: QuartetId, me: Quadrant, byte: u8, o: Point, out: &mut Vec<CellCoord>) {
        let sup = byte >> SUP_SHIFT;
        if sup == 0 {
            return;
        }
        // The 2ε test against the reference point is already done: the
        // classification only reports adjacent quartets within 2ε, and a
        // merged-square point is within √2·ε of its own quartet's.
        let grid = self.grid();
        let eps = grid.eps();
        for (slot, j) in [me.horizontal(), me.vertical()].into_iter().enumerate() {
            let k = match (sup >> (2 * slot)) & 3 {
                SUP_OTHER_SIDE => j.diagonal(),
                SUP_DIAGONAL => me.diagonal(),
                _ => continue,
            };
            if grid.cell_rect(self.quartet_cell(q, j)).mindist2(o) > eps * eps {
                continue;
            }
            let ck = self.quartet_cell(q, k);
            // MeDuPAr may already have replicated the point here (its push
            // conditions on e(me→k) are identical).
            if !out.contains(&ck) {
                out.push(ck);
            }
        }
    }

    /// The *simplified, non-duplicate-free* assignment evaluated in Table 6
    /// of the paper: agreement-based replication that ignores edge marking,
    /// locking and supplementary areas. Correct (Corollary 4.6) but produces
    /// duplicate results in mixed triangles (Lemma 4.8), so callers must pair
    /// it with an explicit deduplication operator after the join.
    pub fn assign_naive(&self, o: Point, label: SetLabel, out: &mut Vec<CellCoord>) {
        out.clear();
        let grid = self.grid();
        let native = grid.cell_of(o);
        out.push(native);
        match grid.classify_in_cell(o, native) {
            AreaClass::Interior => {}
            AreaClass::PlainStrip { neighbor, .. } => {
                if self.pair_type(native, neighbor) == label {
                    out.push(neighbor);
                }
            }
            AreaClass::CornerSquare { quartet, .. } => {
                let me = grid
                    .quadrant_of(native, quartet)
                    .expect("native cell must belong to quartet");
                for other in [me.horizontal(), me.vertical()] {
                    if self.edge_type(quartet, me, other) == label {
                        out.push(self.quartet_cell(quartet, other));
                    }
                }
                let diag = me.diagonal();
                let eps = grid.eps();
                if self.edge_type(quartet, me, diag) == label
                    && o.dist2(grid.corner_point(quartet)) <= eps * eps
                {
                    out.push(self.quartet_cell(quartet, diag));
                }
            }
        }
    }
}

/// The Figure-9 dispatch evaluated from scratch for every point — the
/// reference the table-driven [`AgreementGraph::assign`] must reproduce cell
/// for cell, order included.
#[cfg(test)]
impl AgreementGraph {
    pub(crate) fn assign_figure9(&self, o: Point, label: SetLabel, out: &mut Vec<CellCoord>) {
        out.clear();
        let grid = self.grid();
        let native = grid.cell_of(o);
        out.push(native);
        match grid.classify_in_cell(o, native) {
            AreaClass::Interior => {}
            AreaClass::PlainStrip {
                neighbor,
                sup_quartets,
                ..
            } => {
                if self.pair_type(native, neighbor) == label {
                    out.push(neighbor);
                }
                for q in sup_quartets.into_iter().flatten() {
                    self.sup_ar_ref(q, o, label, native, out);
                }
            }
            AreaClass::CornerSquare {
                quartet,
                sup_quartets,
            } => {
                self.me_du_par_ref(quartet, o, label, native, out);
                self.sup_ar_ref(quartet, o, label, native, out);
                for q in sup_quartets.into_iter().flatten() {
                    self.sup_ar_ref(q, o, label, native, out);
                }
            }
        }
    }

    /// Algorithm 3 (`MeDuPAr`): replication of a point located in the merged
    /// duplicate-prone area of quartet `q`.
    ///
    /// * Each side neighbor receives the point when the edge type matches and
    ///   the edge is not marked.
    /// * The diagonal cell receives the point when its edge matches and is
    ///   unmarked, and either the point is genuinely within ε of the
    ///   reference point, or one of the matching side edges is marked — the
    ///   *redirect* that sends excluded duplicate-prone points to the cell
    ///   where their partners will meet them (§4.5.2, Figure 6).
    fn me_du_par_ref(
        &self,
        q: QuartetId,
        o: Point,
        label: SetLabel,
        native: CellCoord,
        out: &mut Vec<CellCoord>,
    ) {
        let grid = self.grid();
        let me = grid
            .quadrant_of(native, q)
            .expect("native cell must belong to quartet");
        let sides = [me.horizontal(), me.vertical()];
        for j in sides {
            if self.edge_type(q, me, j) == label && !self.is_marked(q, me, j) {
                out.push(self.quartet_cell(q, j));
            }
        }
        let diag = me.diagonal();
        if self.edge_type(q, me, diag) == label && !self.is_marked(q, me, diag) {
            let eps = grid.eps();
            let within_ref = o.dist2(grid.corner_point(q)) <= eps * eps;
            let side_marked = sides
                .iter()
                .any(|&j| self.edge_type(q, me, j) == label && self.is_marked(q, me, j));
            if within_ref || side_marked {
                out.push(self.quartet_cell(q, diag));
            }
        }
    }

    /// Algorithm 4 (`SupAr`) for quartet `q`, probed from scratch.
    fn sup_ar_ref(
        &self,
        q: QuartetId,
        o: Point,
        label: SetLabel,
        native: CellCoord,
        out: &mut Vec<CellCoord>,
    ) {
        let grid = self.grid();
        let eps = grid.eps();
        let two_eps = 2.0 * eps;
        if o.dist2(grid.corner_point(q)) > two_eps * two_eps {
            return;
        }
        let me = grid
            .quadrant_of(native, q)
            .expect("native cell must belong to quartet");
        for j in [me.horizontal(), me.vertical()] {
            let cj = self.quartet_cell(q, j);
            if grid.cell_rect(cj).mindist2(o) > eps * eps {
                continue;
            }
            if self.edge_type(q, j, me) == label || !self.is_marked(q, j, me) {
                continue;
            }
            for k in [j.diagonal(), me.diagonal()] {
                if self.edge_type(q, me, k) == label
                    && !self.is_marked(q, me, k)
                    && self.edge_type(q, j, k) != label
                    && !self.is_marked(q, j, k)
                {
                    let ck = self.quartet_cell(q, k);
                    // MeDuPAr may already have replicated the point here
                    // (its push conditions on e(me→k) are identical).
                    if !out.contains(&ck) {
                        out.push(ck);
                    }
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgreementPolicy, GridSample};
    use asj_geom::Rect;
    use asj_grid::{Grid, GridSpec};

    fn grid() -> Grid {
        Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0))
    }

    fn uni_r(g: &Grid) -> AgreementGraph {
        AgreementGraph::build(g, &GridSample::new(g), AgreementPolicy::UniformR)
    }

    #[test]
    fn interior_point_native_only() {
        let g = grid();
        let graph = uni_r(&g);
        let mut out = Vec::new();
        graph.assign(Point::new(3.75, 3.75), SetLabel::R, &mut out);
        assert_eq!(out, vec![CellCoord { x: 1, y: 1 }]);
    }

    #[test]
    fn uniform_r_replicates_r_like_pbsm() {
        let g = grid();
        let graph = uni_r(&g);
        let mut out = Vec::new();
        // Near interior corner (2.5, 2.5) within ε of E, N and NE cells.
        let p = Point::new(2.4, 2.4);
        graph.assign(p, SetLabel::R, &mut out);
        let mut expected = vec![CellCoord { x: 0, y: 0 }];
        g.push_cells_within_eps(p, &mut expected);
        out.sort();
        expected.sort();
        assert_eq!(out, expected);
    }

    #[test]
    fn uniform_r_never_replicates_s() {
        let g = grid();
        let graph = uni_r(&g);
        let mut out = Vec::new();
        for p in [
            Point::new(2.4, 2.4),
            Point::new(2.6, 1.0),
            Point::new(4.9, 4.9),
            Point::new(7.4, 2.6),
        ] {
            graph.assign(p, SetLabel::S, &mut out);
            assert_eq!(out.len(), 1, "S point must stay native under UNI(R): {p:?}");
        }
    }

    #[test]
    fn corner_point_far_from_reference_skips_diagonal() {
        let g = grid();
        let graph = uni_r(&g);
        let mut out = Vec::new();
        // In the corner square of (2.5, 2.5) (both axis gaps ≤ ε) but the
        // straight-line distance to the corner exceeds ε.
        let p = Point::new(1.6, 1.8);
        assert!(p.dist(Point::new(2.5, 2.5)) > 1.0);
        graph.assign(p, SetLabel::R, &mut out);
        out.sort();
        assert_eq!(
            out,
            vec![
                CellCoord { x: 0, y: 0 },
                CellCoord { x: 0, y: 1 },
                CellCoord { x: 1, y: 0 }
            ]
        );
    }

    #[test]
    fn assign_stats_accumulates() {
        let mut st = AssignStats::default();
        st.record(&[CellCoord { x: 0, y: 0 }]);
        st.record(&[
            CellCoord { x: 0, y: 0 },
            CellCoord { x: 1, y: 0 },
            CellCoord { x: 1, y: 1 },
        ]);
        assert_eq!(st.points, 2);
        assert_eq!(st.replicas, 2);
        assert_eq!(st.max_cells, 3);
        let mut other = AssignStats::default();
        other.record(&[CellCoord { x: 5, y: 5 }]);
        st.merge(&other);
        assert_eq!(st.points, 3);
        assert_eq!(st.replicas, 2);
    }
}
