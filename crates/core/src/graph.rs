use crate::{AgreementPolicy, GridSample, SetLabel};
use asj_grid::{CellCoord, Grid, Quadrant, QuartetId};

/// Result of [`AgreementGraph::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphValidation {
    /// Duplicate-producing triangles left unresolved (must be 0 after
    /// Algorithm 1).
    pub unresolved_hazards: usize,
    pub marked_edges: usize,
    pub locked_edges: usize,
}

/// Marking/locking state of one directed edge inside one quartet subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EdgeState {
    /// Marked edges exclude the tail cell's duplicate-prone points from
    /// replication to the head cell (§4.5.1).
    pub marked: bool,
    /// Locked edges may never be marked; they carry replication that an
    /// earlier marking relies on for correctness (§4.5.3).
    pub locked: bool,
}

/// The paper's *graph of agreements* (Definition 4.2).
///
/// * Vertices are grid cells.
/// * Every pair of adjacent cells carries an **agreement type** — the dataset
///   (`R` or `S`) whose points are replicated across that border. The type is
///   shared by both directed edges of the pair and, for side-adjacent cells,
///   by both quartet subgraphs the pair participates in ("the edges that link
///   two vertices are always of the same type").
/// * Each interior grid corner defines a *quartet* subgraph of 12 directed
///   edges (6 cell pairs × 2 directions). Marking and locking state is kept
///   **per quartet**, because a marking refers to the duplicate-prone area at
///   that quartet's reference point.
///
/// Storage is indexed by the grid's cell/quartet indices: the paper's two
/// dictionaries (§5.1) become three type arrays plus, per quartet, one `u32`
/// of edge bits and one `u64` *dispatch word*.
///
/// * [`AgreementGraph::build`] fills the type arrays **sparsely**. A cell
///   without sampled points has zero totals and zero border counts, so every
///   policy gives a pair of two such cells the same type
///   ([`AgreementPolicy::empty_pair_type`]); the policy is evaluated only on
///   the pairs that touch an occupied cell.
/// * Algorithm 1 skips **uniform** quartets (all six pair types equal): they
///   contain no mixed triangle, so nothing in them can ever be marked.
/// * The dispatch word caches what Figure 9's `MeDuPAr`/`SupAr` decide for
///   each of the quartet's 4 quadrants × 2 labels (one byte each; see
///   `assign.rs`). It is a pure function of the quartet's six types and
///   marked bits, refreshed whenever a marking changes, so
///   [`AgreementGraph::assign`] reads one word per quartet instead of
///   re-deriving the dispatch per point. Uniform quartets share one of two
///   canonical words.
///
/// # Example
///
/// ```
/// use asj_core::{AgreementGraph, AgreementPolicy, GridSample, SetLabel};
/// use asj_geom::{Point, Rect};
/// use asj_grid::{Grid, GridSpec};
///
/// let grid = Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0));
/// let sample = GridSample::from_points(
///     &grid,
///     vec![Point::new(2.4, 2.4)],          // R sample
///     vec![Point::new(2.6, 2.6)],          // S sample
/// );
/// let graph = AgreementGraph::build(&grid, &sample, AgreementPolicy::Lpib);
/// assert_eq!(graph.validate().unresolved_hazards, 0);
///
/// // Assign a point: its native cell always comes first, replicas follow.
/// let mut cells = Vec::new();
/// graph.assign(Point::new(2.4, 2.4), SetLabel::R, &mut cells);
/// assert_eq!(cells[0], grid.cell_of(Point::new(2.4, 2.4)));
/// assert!(cells.len() <= 4);
/// ```
#[derive(Debug, Clone)]
pub struct AgreementGraph {
    grid: Grid,
    /// Type of the horizontal pair `(x,y)–(x+1,y)`; index `y·(nx−1)+x`.
    h_type: Vec<SetLabel>,
    /// Type of the vertical pair `(x,y)–(x,y+1)`; index `y·nx+x`.
    v_type: Vec<SetLabel>,
    /// Types of the two diagonal pairs of each quartet: `[SW–NE, SE–NW]`.
    d_type: Vec<[SetLabel; 2]>,
    /// Per-quartet edge bits: bit `from·4+to` = marked,
    /// bit `16+from·4+to` = locked.
    state: Vec<u32>,
    /// Per-quartet Figure-9 dispatch word, derived from the quartet's types
    /// and marked bits (see [`crate::assign`]).
    dispatch: Vec<u64>,
}

/// Bit of a quartet's [type mask](AgreementGraph::quartet_types) holding the
/// pair `(a, b)`: 0/1 the south/north side pair, 2/3 the west/east side pair,
/// 4 the SW–NE and 5 the SE–NW diagonal. Indexed by [`Quadrant::index`].
const PAIR_BIT: [[u8; 4]; 4] = [[0, 0, 2, 4], [0, 0, 5, 3], [2, 5, 0, 1], [4, 3, 1, 0]];

/// Type mask of a quartet whose six pairs are all `S`.
pub(crate) const ALL_S: u8 = 0x3F;

/// Agreement type of the pair `(a, b)` in a quartet type mask.
#[inline]
pub(crate) fn mask_type(types: u8, a: Quadrant, b: Quadrant) -> SetLabel {
    debug_assert_ne!(a, b);
    SetLabel::from_index((types >> PAIR_BIT[a.index()][b.index()]) as usize & 1)
}

/// Where the type of one adjacent cell pair is stored.
enum PairSlot {
    H(usize),
    V(usize),
    D(usize, usize),
}

impl AgreementGraph {
    /// Builds the graph for `grid`: agreement types are chosen by `policy`
    /// from the sampled statistics, then Algorithm 1 removes all
    /// duplicate-producing triangles (edge marking + locking).
    ///
    /// # Panics
    /// Panics if the grid does not satisfy the `l > 2ε` precondition
    /// ([`Grid::supports_agreements`]).
    pub fn build(grid: &Grid, sample: &GridSample, policy: AgreementPolicy) -> Self {
        let mut g = Self::build_unmarked(grid, sample, policy);
        crate::markings::build_duplicate_free(&mut g, sample);
        g
    }

    /// Builds the graph with policy-chosen agreement types but **without**
    /// running Algorithm 1 — the "simplified" variant of Table 6 whose
    /// assignment produces duplicates and needs a deduplication operator.
    ///
    /// Every pair starts at [`AgreementPolicy::empty_pair_type`]; the policy
    /// is then evaluated only on the (up to 8) pairs around each cell with
    /// sampled points. The result equals
    /// `from_pair_types(grid, |a, b| policy.agreement_type(grid, sample, a, b))`.
    pub fn build_unmarked(grid: &Grid, sample: &GridSample, policy: AgreementPolicy) -> Self {
        assert_eq!(
            sample.num_cells(),
            grid.num_cells(),
            "sample covers a different grid"
        );
        let mut g = Self::filled(grid, policy.empty_pair_type());
        let (nx, ny) = (grid.nx() as i64, grid.ny() as i64);
        for ci in sample.occupied_cells() {
            let c = grid.cell_at(ci);
            for (dx, dy) in (-1..=1).flat_map(|dy| (-1..=1).map(move |dx| (dx, dy))) {
                let (x, y) = (c.x as i64 + dx, c.y as i64 + dy);
                if (dx, dy) == (0, 0) || x < 0 || y < 0 || x >= nx || y >= ny {
                    continue;
                }
                let n = CellCoord {
                    x: x as u32,
                    y: y as u32,
                };
                // Same argument order as `from_pair_types`: lower row first,
                // then lower column.
                let (a, b) = if (c.y, c.x) < (n.y, n.x) {
                    (c, n)
                } else {
                    (n, c)
                };
                *g.pair_type_mut(a, b) = policy.agreement_type(grid, sample, a, b);
            }
        }
        g.refresh_all_dispatch();
        g
    }

    /// Builds an *unmarked* graph with explicitly given pair types. Exposed
    /// so tests and ablations can instantiate arbitrary graphs; run
    /// [`crate::build_duplicate_free`] afterwards to restore the
    /// duplicate-free property.
    pub fn from_pair_types<F>(grid: &Grid, mut pair_type: F) -> Self
    where
        F: FnMut(CellCoord, CellCoord) -> SetLabel,
    {
        let mut g = Self::filled(grid, SetLabel::R);
        let (nx, ny) = (grid.nx(), grid.ny());
        for y in 0..ny {
            for x in 0..nx.saturating_sub(1) {
                let (a, b) = (CellCoord { x, y }, CellCoord { x: x + 1, y });
                *g.pair_type_mut(a, b) = pair_type(a, b);
            }
        }
        for y in 0..ny.saturating_sub(1) {
            for x in 0..nx {
                let (a, b) = (CellCoord { x, y }, CellCoord { x, y: y + 1 });
                *g.pair_type_mut(a, b) = pair_type(a, b);
            }
        }
        for (qi, q) in grid.quartets().enumerate() {
            let cells = grid.quartet_cells(q);
            g.d_type[qi] = [
                pair_type(cells[Quadrant::Sw.index()], cells[Quadrant::Ne.index()]),
                pair_type(cells[Quadrant::Se.index()], cells[Quadrant::Nw.index()]),
            ];
        }
        g.refresh_all_dispatch();
        g
    }

    /// A graph whose every pair has type `t`, with nothing marked.
    fn filled(grid: &Grid, t: SetLabel) -> Self {
        assert!(
            grid.supports_agreements(),
            "agreement graphs require cell side > 2*eps on every multi-cell axis"
        );
        let nx = grid.nx() as usize;
        let ny = grid.ny() as usize;
        let nq = grid.num_quartets();
        AgreementGraph {
            grid: grid.clone(),
            h_type: vec![t; nx.saturating_sub(1) * ny],
            v_type: vec![t; nx * ny.saturating_sub(1)],
            d_type: vec![[t; 2]; nq],
            state: vec![0; nq],
            dispatch: vec![0; nq],
        }
    }

    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Agreement type of the pair of adjacent cells `(a, b)`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the cells are not 8-adjacent.
    #[inline]
    pub fn pair_type(&self, a: CellCoord, b: CellCoord) -> SetLabel {
        match self.pair_slot(a, b) {
            PairSlot::H(i) => self.h_type[i],
            PairSlot::V(i) => self.v_type[i],
            PairSlot::D(i, d) => self.d_type[i][d],
        }
    }

    fn pair_type_mut(&mut self, a: CellCoord, b: CellCoord) -> &mut SetLabel {
        match self.pair_slot(a, b) {
            PairSlot::H(i) => &mut self.h_type[i],
            PairSlot::V(i) => &mut self.v_type[i],
            PairSlot::D(i, d) => &mut self.d_type[i][d],
        }
    }

    #[inline]
    fn pair_slot(&self, a: CellCoord, b: CellCoord) -> PairSlot {
        let nx = self.grid.nx() as usize;
        let dx = b.x as i64 - a.x as i64;
        let dy = b.y as i64 - a.y as i64;
        debug_assert!(dx.abs() <= 1 && dy.abs() <= 1 && (dx, dy) != (0, 0));
        match (dx, dy) {
            (_, 0) => PairSlot::H(a.y as usize * (nx - 1) + a.x.min(b.x) as usize),
            (0, _) => PairSlot::V(a.y.min(b.y) as usize * nx + a.x as usize),
            _ => {
                let q = QuartetId {
                    x: a.x.max(b.x),
                    y: a.y.max(b.y),
                };
                // SW–NE runs "/" upward-right; SE–NW runs "\" upward-left.
                let d = if dx == dy { 0 } else { 1 };
                PairSlot::D(self.grid.quartet_index(q), d)
            }
        }
    }

    /// The six pair types of quartet `qi` as a bit mask (bit set = `S`;
    /// bit positions per [`PAIR_BIT`]).
    #[inline]
    pub(crate) fn quartet_types(&self, qi: usize) -> u8 {
        let q = self.grid.quartet_at(qi);
        let nx = self.grid.nx() as usize;
        let (x, y) = (q.x as usize - 1, q.y as usize - 1);
        let s = |t: SetLabel| t.index() as u8;
        let [d0, d1] = self.d_type[qi];
        s(self.h_type[y * (nx - 1) + x])
            | s(self.h_type[(y + 1) * (nx - 1) + x]) << 1
            | s(self.v_type[y * nx + x]) << 2
            | s(self.v_type[y * nx + x + 1]) << 3
            | s(d0) << 4
            | s(d1) << 5
    }

    /// Edge bits (marked and locked) of quartet `qi`.
    #[inline]
    pub(crate) fn quartet_state(&self, qi: usize) -> u32 {
        self.state[qi]
    }

    /// Replaces the edge bits of quartet `qi` and refreshes its dispatch
    /// word.
    pub(crate) fn set_quartet_state(&mut self, qi: usize, bits: u32) {
        self.state[qi] = bits;
        self.dispatch[qi] = crate::assign::dispatch_word(self.quartet_types(qi), bits);
    }

    /// The Figure-9 dispatch word of quartet `qi`.
    #[inline]
    pub(crate) fn quartet_dispatch(&self, qi: usize) -> u64 {
        self.dispatch[qi]
    }

    /// Recomputes every quartet's dispatch word; unmarked uniform quartets
    /// take one of two canonical words.
    fn refresh_all_dispatch(&mut self) {
        let canonical = [0, ALL_S].map(|types| crate::assign::dispatch_word(types, 0));
        for qi in 0..self.dispatch.len() {
            let types = self.quartet_types(qi);
            let bits = self.state[qi];
            self.dispatch[qi] = match (types, bits) {
                (0, 0) => canonical[0],
                (ALL_S, 0) => canonical[1],
                _ => crate::assign::dispatch_word(types, bits),
            };
        }
    }

    /// The cell occupying `quadrant` in quartet `q`.
    #[inline]
    pub fn quartet_cell(&self, q: QuartetId, quadrant: Quadrant) -> CellCoord {
        self.grid.quartet_cells(q)[quadrant.index()]
    }

    /// Agreement type of the directed edge `from → to` inside quartet `q`
    /// (identical for both directions and, for side pairs, both subgraphs).
    #[inline]
    pub fn edge_type(&self, q: QuartetId, from: Quadrant, to: Quadrant) -> SetLabel {
        self.pair_type(self.quartet_cell(q, from), self.quartet_cell(q, to))
    }

    /// Marked bit of the directed edge `from → to` in a quartet's edge bits
    /// (the locked bit is this shifted left by 16).
    #[inline]
    pub(crate) fn bit(from: Quadrant, to: Quadrant) -> u32 {
        debug_assert_ne!(from, to);
        1 << (from.index() * 4 + to.index())
    }

    /// Marking/locking state of the directed edge `from → to` in quartet `q`.
    #[inline]
    pub fn edge_state(&self, q: QuartetId, from: Quadrant, to: Quadrant) -> EdgeState {
        let bits = self.state[self.grid.quartet_index(q)];
        let b = Self::bit(from, to);
        EdgeState {
            marked: bits & b != 0,
            locked: bits & (b << 16) != 0,
        }
    }

    #[inline]
    pub fn is_marked(&self, q: QuartetId, from: Quadrant, to: Quadrant) -> bool {
        self.state[self.grid.quartet_index(q)] & Self::bit(from, to) != 0
    }

    #[cfg(test)]
    pub(crate) fn mark(&mut self, q: QuartetId, from: Quadrant, to: Quadrant) {
        let qi = self.grid.quartet_index(q);
        self.set_quartet_state(qi, self.state[qi] | Self::bit(from, to));
    }

    #[cfg(test)]
    pub(crate) fn lock(&mut self, q: QuartetId, from: Quadrant, to: Quadrant) {
        let qi = self.grid.quartet_index(q);
        self.state[qi] |= Self::bit(from, to) << 16;
    }

    /// Serialized footprint of the graph when broadcast to the executors
    /// (Algorithm 5, line 6): grid header, one byte per side-pair agreement
    /// type, two per quartet for the diagonals, and the 4-byte edge-state
    /// word per quartet. The dispatch words are not counted: the receiver
    /// derives them from these fields.
    pub fn broadcast_bytes(&self) -> u64 {
        (40 + self.h_type.len() + self.v_type.len() + 2 * self.d_type.len() + 4 * self.state.len())
            as u64
    }

    /// Number of marked edges over all quartets (diagnostics).
    pub fn marked_edge_count(&self) -> usize {
        self.state
            .iter()
            .map(|s| (s & 0xFFFF).count_ones() as usize)
            .sum()
    }

    /// Number of locked edges over all quartets (diagnostics).
    pub fn locked_edge_count(&self) -> usize {
        self.state
            .iter()
            .map(|s| (s >> 16).count_ones() as usize)
            .sum()
    }

    /// Structural validation of the duplicate-free property (Lemma 4.8 +
    /// §4.5): counts *unresolved hazards* — triangles where a vertex still
    /// replicates the same dataset to two other vertices with neither edge
    /// marked. A graph produced by Algorithm 1 must report zero.
    pub fn validate(&self) -> GraphValidation {
        let mut v = GraphValidation {
            unresolved_hazards: 0,
            marked_edges: self.marked_edge_count(),
            locked_edges: self.locked_edge_count(),
        };
        for q in self.grid.quartets() {
            for i in Quadrant::ALL {
                for j in Quadrant::ALL {
                    for k in Quadrant::ALL {
                        if i == j || j == k || i == k || j.index() > k.index() {
                            continue;
                        }
                        let tau = self.edge_type(q, i, j);
                        if self.edge_type(q, i, k) == tau
                            && self.edge_type(q, j, k) != tau
                            && !self.is_marked(q, i, j)
                            && !self.is_marked(q, i, k)
                        {
                            v.unresolved_hazards += 1;
                        }
                    }
                }
            }
        }
        v
    }

    /// Count of agreements of each type (`[α_R, α_S]`) over all cell pairs.
    pub fn agreement_histogram(&self) -> [usize; 2] {
        let mut h = [0usize; 2];
        for t in self.h_type.iter().chain(&self.v_type) {
            h[t.index()] += 1;
        }
        for [a, b] in &self.d_type {
            h[a.index()] += 1;
            h[b.index()] += 1;
        }
        h
    }
}

#[cfg(test)]
impl AgreementGraph {
    /// Panics unless both graphs agree on the grid shape, every pair type,
    /// every edge bit and every dispatch word.
    pub(crate) fn assert_identical(&self, other: &AgreementGraph, ctx: &str) {
        let shape = |g: &AgreementGraph| (g.grid.nx(), g.grid.ny());
        assert_eq!(shape(self), shape(other), "{ctx}: grid shape");
        assert_eq!(self.h_type, other.h_type, "{ctx}: h_type");
        assert_eq!(self.v_type, other.v_type, "{ctx}: v_type");
        assert_eq!(self.d_type, other.d_type, "{ctx}: d_type");
        assert_eq!(self.state, other.state, "{ctx}: state");
        assert_eq!(self.dispatch, other.dispatch, "{ctx}: dispatch");
    }

    /// Panics unless every stored dispatch word equals one recomputed from
    /// the quartet's current types and edge bits.
    pub(crate) fn assert_dispatch_fresh(&self, ctx: &str) {
        for qi in 0..self.dispatch.len() {
            let want = crate::assign::dispatch_word(self.quartet_types(qi), self.state[qi]);
            assert_eq!(
                self.dispatch[qi],
                want,
                "{ctx}: stale dispatch word at {:?}",
                self.grid.quartet_at(qi)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_geom::Rect;
    use asj_grid::GridSpec;

    fn grid(n: f64) -> Grid {
        Grid::new(GridSpec::new(Rect::new(0.0, 0.0, n, n), 1.0))
    }

    fn uniform_r(g: &Grid) -> AgreementGraph {
        AgreementGraph::from_pair_types(g, |_, _| SetLabel::R)
    }

    #[test]
    fn pair_type_symmetric_lookup() {
        let g = grid(10.0);
        let gr = AgreementGraph::from_pair_types(&g, |a, b| {
            // Deterministic but varied assignment.
            if (a.x + a.y + b.x + b.y) % 2 == 0 {
                SetLabel::R
            } else {
                SetLabel::S
            }
        });
        for y in 0..g.ny() {
            for x in 0..g.nx() {
                let a = CellCoord { x, y };
                for (dx, dy) in [(1i64, 0i64), (0, 1), (1, 1), (1, -1)] {
                    let bx = x as i64 + dx;
                    let by = y as i64 + dy;
                    if bx < 0 || by < 0 || bx >= g.nx() as i64 || by >= g.ny() as i64 {
                        continue;
                    }
                    let b = CellCoord {
                        x: bx as u32,
                        y: by as u32,
                    };
                    assert_eq!(gr.pair_type(a, b), gr.pair_type(b, a), "{a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn edge_type_matches_pair_type() {
        let g = grid(10.0);
        let gr = AgreementGraph::from_pair_types(&g, |a, b| {
            if a.x.min(b.x) % 2 == 0 {
                SetLabel::R
            } else {
                SetLabel::S
            }
        });
        for q in g.quartets() {
            for from in Quadrant::ALL {
                for to in Quadrant::ALL {
                    if from == to {
                        continue;
                    }
                    let a = gr.quartet_cell(q, from);
                    let b = gr.quartet_cell(q, to);
                    assert_eq!(gr.edge_type(q, from, to), gr.pair_type(a, b));
                }
            }
        }
    }

    #[test]
    fn mark_and_lock_are_per_quartet() {
        let g = grid(10.0);
        let mut gr = uniform_r(&g);
        let q1 = QuartetId { x: 1, y: 1 };
        let q2 = QuartetId { x: 2, y: 1 };
        gr.mark(q1, Quadrant::Sw, Quadrant::Se);
        gr.lock(q1, Quadrant::Se, Quadrant::Ne);
        assert!(gr.edge_state(q1, Quadrant::Sw, Quadrant::Se).marked);
        assert!(gr.edge_state(q1, Quadrant::Se, Quadrant::Ne).locked);
        // The reverse direction and other quartets are untouched.
        assert!(!gr.edge_state(q1, Quadrant::Se, Quadrant::Sw).marked);
        assert!(!gr.edge_state(q2, Quadrant::Sw, Quadrant::Se).marked);
        assert_eq!(gr.marked_edge_count(), 1);
        assert_eq!(gr.locked_edge_count(), 1);
    }

    #[test]
    fn histogram_counts_all_pairs() {
        let g = grid(10.0); // 4×4 cells
        let gr = uniform_r(&g);
        let [r, s] = gr.agreement_histogram();
        // Side pairs: 2·4·3 = 24; diagonal pairs: 2 per quartet · 9 = 18.
        assert_eq!(r, 42);
        assert_eq!(s, 0);
    }

    #[test]
    #[should_panic(expected = "agreement graphs require")]
    fn rejects_eps_grid() {
        let g = Grid::new(GridSpec::with_factor(
            Rect::new(0.0, 0.0, 10.0, 10.0),
            1.0,
            1.0,
        ));
        let _ = uniform_r(&g);
    }
}
