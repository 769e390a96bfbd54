use crate::{Dir8, GridSample, SetLabel};
use asj_grid::{CellCoord, Grid};

/// How agreement types are chosen when instantiating the graph of agreements
/// (§4.3), plus the two degenerate instantiations that recover PBSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgreementPolicy {
    /// *Least points in boundaries*: the agreement type of a pair of adjacent
    /// cells is the dataset with the fewest sampled replication candidates
    /// between the two cells.
    Lpib,
    /// *Greatest difference*: the cell of the pair with the greatest
    /// `|#R − #S|` decides; the agreement type is the dataset with the fewest
    /// sampled points inside that cell.
    Diff,
    /// Every agreement is `α_R` — universal replication of R, i.e. the PBSM
    /// adaptation UNI(R). With uniform types no triangle mixes agreement
    /// types, so Algorithm 1 marks nothing and the assignment degenerates to
    /// classic PBSM replication.
    UniformR,
    /// Every agreement is `α_S` (UNI(S)).
    UniformS,
}

impl AgreementPolicy {
    /// The two adaptive variants evaluated in the paper.
    pub const ADAPTIVE: [AgreementPolicy; 2] = [AgreementPolicy::Lpib, AgreementPolicy::Diff];

    /// Short display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            AgreementPolicy::Lpib => "LPiB",
            AgreementPolicy::Diff => "DIFF",
            AgreementPolicy::UniformR => "UNI(R)",
            AgreementPolicy::UniformS => "UNI(S)",
        }
    }

    /// Decides the agreement type for the adjacent cell pair `(a, b)`.
    ///
    /// The decision is symmetric in `(a, b)`. Ties are broken
    /// deterministically (toward the pair's total-count minimum and finally
    /// toward `R`) so that independently built graphs agree.
    pub fn agreement_type(
        self,
        grid: &Grid,
        sample: &GridSample,
        a: CellCoord,
        b: CellCoord,
    ) -> SetLabel {
        match self {
            AgreementPolicy::UniformR => SetLabel::R,
            AgreementPolicy::UniformS => SetLabel::S,
            AgreementPolicy::Lpib => lpib(grid, sample, a, b),
            AgreementPolicy::Diff => diff(grid, sample, a, b),
        }
    }

    /// The type this policy gives a pair of two cells without sampled points
    /// (zero totals, zero border counts): `S` for UNI(S), `R` otherwise.
    /// [`crate::AgreementGraph::build`] fills every pair with it and
    /// evaluates the policy only on pairs touching an occupied cell, so it
    /// must equal [`AgreementPolicy::agreement_type`] on an empty sample.
    pub fn empty_pair_type(self) -> SetLabel {
        match self {
            AgreementPolicy::UniformS => SetLabel::S,
            AgreementPolicy::Lpib | AgreementPolicy::Diff | AgreementPolicy::UniformR => {
                SetLabel::R
            }
        }
    }
}

/// Replication candidates of `label` crossing the `(a, b)` border, from both
/// sides.
fn border_candidates(
    grid: &Grid,
    sample: &GridSample,
    a: CellCoord,
    b: CellCoord,
    label: SetLabel,
) -> u64 {
    let ai = grid.cell_index(a);
    let bi = grid.cell_index(b);
    sample.border_count(ai, Dir8::between(a, b), label)
        + sample.border_count(bi, Dir8::between(b, a), label)
}

fn lpib(grid: &Grid, sample: &GridSample, a: CellCoord, b: CellCoord) -> SetLabel {
    let r = border_candidates(grid, sample, a, b, SetLabel::R);
    let s = border_candidates(grid, sample, a, b, SetLabel::S);
    match r.cmp(&s) {
        std::cmp::Ordering::Less => SetLabel::R,
        std::cmp::Ordering::Greater => SetLabel::S,
        std::cmp::Ordering::Equal => {
            // Tie: fall back to the dataset with fewer points in the two
            // cells combined, then to R.
            let ai = grid.cell_index(a);
            let bi = grid.cell_index(b);
            let tr = sample.total(ai, SetLabel::R) + sample.total(bi, SetLabel::R);
            let ts = sample.total(ai, SetLabel::S) + sample.total(bi, SetLabel::S);
            if ts < tr {
                SetLabel::S
            } else {
                SetLabel::R
            }
        }
    }
}

fn diff(grid: &Grid, sample: &GridSample, a: CellCoord, b: CellCoord) -> SetLabel {
    let spread = |c: CellCoord| {
        let ci = grid.cell_index(c);
        let r = sample.total(ci, SetLabel::R);
        let s = sample.total(ci, SetLabel::S);
        (r.abs_diff(s), r, s)
    };
    let (da, ra, sa) = spread(a);
    let (db, rb, sb) = spread(b);
    // The cell with the greatest |#R − #S| decides; ties go to the cell with
    // the smaller index so both call orders agree.
    let (r, s) = if da > db || (da == db && grid.cell_index(a) <= grid.cell_index(b)) {
        (ra, sa)
    } else {
        (rb, sb)
    };
    if s < r {
        SetLabel::S
    } else {
        SetLabel::R
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_geom::{Point, Rect};
    use asj_grid::GridSpec;

    fn grid() -> Grid {
        Grid::new(GridSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0))
    }

    /// Drops `n` points of `label` at `p`.
    fn fill(sample: &mut GridSample, grid: &Grid, label: SetLabel, p: Point, n: usize) {
        for _ in 0..n {
            sample.add(grid, label, p);
        }
    }

    #[test]
    fn uniform_policies_ignore_sample() {
        let g = grid();
        let s = GridSample::new(&g);
        let a = CellCoord { x: 0, y: 0 };
        let b = CellCoord { x: 1, y: 0 };
        assert_eq!(
            AgreementPolicy::UniformR.agreement_type(&g, &s, a, b),
            SetLabel::R
        );
        assert_eq!(
            AgreementPolicy::UniformS.agreement_type(&g, &s, a, b),
            SetLabel::S
        );
    }

    #[test]
    fn lpib_picks_fewest_border_candidates() {
        let g = grid();
        let mut s = GridSample::new(&g);
        // Border area between cells (0,0) and (1,0): vertical line x = 2.5.
        // 3 R candidates on the west side, 1 S candidate on the east side.
        fill(&mut s, &g, SetLabel::R, Point::new(2.4, 1.2), 3);
        fill(&mut s, &g, SetLabel::S, Point::new(2.6, 1.2), 1);
        // Plenty of interior R points that must not influence LPiB.
        fill(&mut s, &g, SetLabel::R, Point::new(1.2, 1.2), 50);
        let a = CellCoord { x: 0, y: 0 };
        let b = CellCoord { x: 1, y: 0 };
        assert_eq!(
            AgreementPolicy::Lpib.agreement_type(&g, &s, a, b),
            SetLabel::S
        );
        assert_eq!(
            AgreementPolicy::Lpib.agreement_type(&g, &s, b, a),
            SetLabel::S
        );
    }

    #[test]
    fn lpib_tie_breaks_on_cell_totals() {
        let g = grid();
        let mut s = GridSample::new(&g);
        // Equal border candidates (1 each), but S has fewer points overall.
        fill(&mut s, &g, SetLabel::R, Point::new(2.4, 1.2), 1);
        fill(&mut s, &g, SetLabel::S, Point::new(2.6, 1.2), 1);
        fill(&mut s, &g, SetLabel::R, Point::new(1.2, 1.2), 10);
        let a = CellCoord { x: 0, y: 0 };
        let b = CellCoord { x: 1, y: 0 };
        assert_eq!(
            AgreementPolicy::Lpib.agreement_type(&g, &s, a, b),
            SetLabel::S
        );
    }

    #[test]
    fn diff_uses_most_imbalanced_cell() {
        let g = grid();
        let mut s = GridSample::new(&g);
        // Cell (0,0): 1 R, 3 S ⇒ diff 2, fewer are R.
        fill(&mut s, &g, SetLabel::R, Point::new(1.2, 1.2), 1);
        fill(&mut s, &g, SetLabel::S, Point::new(1.2, 1.2), 3);
        // Cell (1,0): 2 R, 2 S ⇒ diff 0.
        fill(&mut s, &g, SetLabel::R, Point::new(3.7, 1.2), 2);
        fill(&mut s, &g, SetLabel::S, Point::new(3.7, 1.2), 2);
        let a = CellCoord { x: 0, y: 0 };
        let b = CellCoord { x: 1, y: 0 };
        // Example 4.3 of the paper: the imbalanced cell decides and picks the
        // dataset with the fewest points there (R).
        assert_eq!(
            AgreementPolicy::Diff.agreement_type(&g, &s, a, b),
            SetLabel::R
        );
        assert_eq!(
            AgreementPolicy::Diff.agreement_type(&g, &s, b, a),
            SetLabel::R
        );
    }

    /// The sparse graph build relies on this: a pair of sample-empty cells
    /// gets `empty_pair_type()` without consulting the policy.
    #[test]
    fn empty_pair_type_matches_policy_on_empty_sample() {
        let g = grid();
        let s = GridSample::new(&g);
        let c = |x, y| CellCoord { x, y };
        let pairs = [
            (c(1, 1), c(2, 1)),
            (c(1, 1), c(1, 2)),
            (c(1, 1), c(2, 2)),
            (c(2, 1), c(1, 2)),
        ];
        for policy in [
            AgreementPolicy::Lpib,
            AgreementPolicy::Diff,
            AgreementPolicy::UniformR,
            AgreementPolicy::UniformS,
        ] {
            for (a, b) in pairs {
                assert_eq!(
                    policy.agreement_type(&g, &s, a, b),
                    policy.empty_pair_type(),
                    "{} on {a:?}-{b:?}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(AgreementPolicy::Lpib.name(), "LPiB");
        assert_eq!(AgreementPolicy::Diff.name(), "DIFF");
        assert_eq!(AgreementPolicy::UniformR.name(), "UNI(R)");
        assert_eq!(AgreementPolicy::UniformS.name(), "UNI(S)");
    }
}
