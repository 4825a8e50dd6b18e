//! Two-dimensional distributed arrays over a processor grid.

use std::cell::RefCell;

use fx_core::{Cx, GroupHandle};

use crate::array1::Elem;
use crate::dist::{DimMap, Dist};
use crate::plan::VersionVec;

/// Distribution of a 2-D array: one [`Dist`] per dimension
/// (`DISTRIBUTE a(BLOCK, *)` etc.).
pub type Dist2 = (Dist, Dist);

/// A 2-D array of shape `rows x cols` mapped onto a processor group
/// arranged as a `pr x pc` grid (virtual rank `v` sits at grid position
/// `(v / pc, v % pc)`).
///
/// The grid shape defaults to putting all processors on the distributed
/// dimension: `(*, BLOCK)` → `1 x p`, `(BLOCK, *)` → `p x 1`. For two
/// distributed dimensions, pass an explicit grid to `with_grid`.
#[derive(Debug, Clone)]
pub struct DArray2<T> {
    group: GroupHandle,
    dist: Dist2,
    grid: (usize, usize),
    rmap: DimMap,
    cmap: DimMap,
    rows: usize,
    cols: usize,
    my_coord: Option<(usize, usize)>,
    /// Row-major `local_rows x local_cols` storage (empty on non-members).
    local: Vec<T>,
    /// Replicated read/write version vector (dataflow classification).
    /// 2-D statements record whole-array footprints over `rows * cols`.
    versions: RefCell<VersionVec>,
}

fn default_grid(dist: Dist2, p: usize) -> (usize, usize) {
    match dist {
        (Dist::Star, Dist::Star) => {
            assert_eq!(p, 1, "a fully '*' (serial) array needs a single-processor group");
            (1, 1)
        }
        (Dist::Star, _) => (1, p),
        (_, Dist::Star) => (p, 1),
        _ => {
            // Near-square factorization: largest divisor ≤ sqrt(p).
            let mut pr = (p as f64).sqrt() as usize;
            while pr > 1 && !p.is_multiple_of(pr) {
                pr -= 1;
            }
            (pr.max(1), p / pr.max(1))
        }
    }
}

impl<T: Elem> DArray2<T> {
    /// Create a `rows x cols` array filled with `fill`, using the default
    /// grid for `dist`.
    pub fn new(
        cx: &Cx,
        group: &GroupHandle,
        shape: [usize; 2],
        dist: Dist2,
        fill: T,
    ) -> Self {
        let grid = default_grid(dist, group.len());
        Self::with_grid(cx, group, shape, dist, grid, fill)
    }

    /// Create with an explicit processor grid (`pr * pc` must equal the
    /// group size).
    pub fn with_grid(
        cx: &Cx,
        group: &GroupHandle,
        [rows, cols]: [usize; 2],
        dist: Dist2,
        grid: (usize, usize),
        fill: T,
    ) -> Self {
        let (pr, pc) = grid;
        assert_eq!(
            pr * pc,
            group.len(),
            "grid {pr}x{pc} does not match group size {}",
            group.len()
        );
        let rmap = DimMap::new(rows, pr, dist.0);
        let cmap = DimMap::new(cols, pc, dist.1);
        let my_coord = group.vrank_of_phys(cx.phys_rank()).map(|v| (v / pc, v % pc));
        let local = match my_coord {
            None => Vec::new(),
            Some((gr, gc)) => vec![fill; rmap.local_len(gr) * cmap.local_len(gc)],
        };
        let versions = RefCell::new(VersionVec::new(rows * cols));
        DArray2 { group: group.clone(), dist, grid, rmap, cmap, rows, cols, my_coord, local, versions }
    }

    /// Create from globally known contents (`data[r * cols + c]`); each
    /// member extracts its part. No communication.
    pub fn from_global(
        cx: &Cx,
        group: &GroupHandle,
        [rows, cols]: [usize; 2],
        dist: Dist2,
        data: &[T],
    ) -> Self
    where
        T: Default,
    {
        assert_eq!(data.len(), rows * cols);
        let mut a = Self::new(cx, group, [rows, cols], dist, T::default());
        a.for_each_owned(|r, c, v| *v = data[r * cols + c]);
        a
    }

    /// Create a matrix aligned with `other` — same group, shape,
    /// distribution and grid, so element-wise operations between the two
    /// never communicate (the paper's `ALIGN` directive).
    pub fn aligned_with<U: Elem>(cx: &Cx, other: &DArray2<U>, fill: T) -> Self {
        Self::with_grid(
            cx,
            &other.group,
            [other.rows, other.cols],
            other.dist,
            other.grid,
            fill,
        )
    }

    /// Global row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Global column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-dimension distribution descriptor.
    pub fn dist(&self) -> Dist2 {
        self.dist
    }

    /// Processor grid shape `(pr, pc)`.
    pub fn grid(&self) -> (usize, usize) {
        self.grid
    }

    /// The group the matrix is mapped onto.
    pub fn group(&self) -> &GroupHandle {
        &self.group
    }

    /// Is the calling processor a member of the matrix's group?
    pub fn is_member(&self) -> bool {
        self.my_coord.is_some()
    }

    /// Physical owner of global element `(r, c)`.
    pub fn owner_phys(&self, r: usize, c: usize) -> usize {
        let gr = self.rmap.owner(r);
        let gc = self.cmap.owner(c);
        self.group.phys(gr * self.grid.1 + gc)
    }

    /// Local tile dimensions of an arbitrary member, by virtual rank.
    pub fn local_dims_of(&self, vrank: usize) -> (usize, usize) {
        let (gr, gc) = (vrank / self.grid.1, vrank % self.grid.1);
        (self.rmap.local_len(gr), self.cmap.local_len(gc))
    }

    /// Local tile dimensions `(local_rows, local_cols)`.
    pub fn local_dims(&self) -> (usize, usize) {
        match self.my_coord {
            None => (0, 0),
            Some((gr, gc)) => (self.rmap.local_len(gr), self.cmap.local_len(gc)),
        }
    }

    /// Row-major local tile.
    pub fn local(&self) -> &[T] {
        &self.local
    }

    /// Mutable view of the local tile.
    pub fn local_mut(&mut self) -> &mut [T] {
        &mut self.local
    }

    /// One local row as a slice.
    pub fn local_row(&self, lr: usize) -> &[T] {
        let (_, lc) = self.local_dims();
        &self.local[lr * lc..(lr + 1) * lc]
    }

    /// One local row as a mutable slice.
    pub fn local_row_mut(&mut self, lr: usize) -> &mut [T] {
        let (_, lc) = self.local_dims();
        &mut self.local[lr * lc..(lr + 1) * lc]
    }

    /// Global `(row, col)` of local element `(lr, lc)` on virtual rank
    /// `vrank` (any member, not just the caller).
    pub fn map_global2(&self, vrank: usize, lr: usize, lc: usize) -> (usize, usize) {
        let (gr, gc) = (vrank / self.grid.1, vrank % self.grid.1);
        (self.rmap.global_of(gr, lr), self.cmap.global_of(gc, lc))
    }

    /// Global `(row, col)` of local element `(lr, lc)`.
    pub fn global_of_local(&self, lr: usize, lc: usize) -> (usize, usize) {
        let (gr, gc) = self.my_coord.expect("non-member has no local elements");
        (self.rmap.global_of(gr, lr), self.cmap.global_of(gc, lc))
    }

    /// Local position of global `(r, c)` if this processor owns it.
    pub fn local_of_global(&self, r: usize, c: usize) -> Option<(usize, usize)> {
        let (gr, gc) = self.my_coord?;
        if self.rmap.owner(r) == gr && self.cmap.owner(c) == gc {
            Some((self.rmap.local_of(r), self.cmap.local_of(c)))
        } else {
            None
        }
    }

    /// Apply `f(r, c, &mut element)` to every owned element in local
    /// row-major order.
    pub fn for_each_owned(&mut self, mut f: impl FnMut(usize, usize, &mut T)) {
        let Some((gr, gc)) = self.my_coord else { return };
        let (lr_n, lc_n) = (self.rmap.local_len(gr), self.cmap.local_len(gc));
        for lr in 0..lr_n {
            let r = self.rmap.global_of(gr, lr);
            for lc in 0..lc_n {
                let c = self.cmap.global_of(gc, lc);
                f(r, c, &mut self.local[lr * lc_n + lc]);
            }
        }
    }

    /// Fold over owned elements as `(r, c, element)`.
    pub fn fold_owned<A>(&self, init: A, mut f: impl FnMut(A, usize, usize, T) -> A) -> A {
        let mut acc = init;
        let Some((gr, gc)) = self.my_coord else { return acc };
        let (lr_n, lc_n) = (self.rmap.local_len(gr), self.cmap.local_len(gc));
        for lr in 0..lr_n {
            let r = self.rmap.global_of(gr, lr);
            for lc in 0..lc_n {
                let c = self.cmap.global_of(gc, lc);
                acc = f(acc, r, c, self.local[lr * lc_n + lc]);
            }
        }
        acc
    }

    /// Collect the whole matrix (row-major) on every member — a collective
    /// over the array's group. For validation and output stages.
    pub fn to_global(&self, cx: &mut Cx) -> Vec<T>
    where
        T: Default,
    {
        assert_eq!(
            cx.group().gid(),
            self.group.gid(),
            "to_global is a collective over the array's group"
        );
        let mine: Vec<T> = self.local.clone();
        let parts: Vec<Vec<T>> = cx.allgather_vecs(mine);
        let mut out = vec![T::default(); self.rows * self.cols];
        for (v, part) in parts.iter().enumerate() {
            let (gr, gc) = (v / self.grid.1, v % self.grid.1);
            let (lr_n, lc_n) = (self.rmap.local_len(gr), self.cmap.local_len(gc));
            for lr in 0..lr_n {
                let r = self.rmap.global_of(gr, lr);
                for lc in 0..lc_n {
                    let c = self.cmap.global_of(gc, lc);
                    out[r * self.cols + c] = part[lr * lc_n + lc];
                }
            }
        }
        out
    }

    /// The array's read/write version vector (replicated metadata; the
    /// dataflow classifier records statement effects through it).
    pub fn versions(&self) -> &RefCell<VersionVec> {
        &self.versions
    }

    pub(crate) fn maps(&self) -> (&DimMap, &DimMap) {
        (&self.rmap, &self.cmap)
    }

    /// The caller's `(row, col)` grid coordinate, if a member.
    pub(crate) fn my_coord(&self) -> Option<(usize, usize)> {
        self.my_coord
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine, Size};

    #[test]
    fn default_grids() {
        assert_eq!(default_grid((Dist::Star, Dist::Block), 6), (1, 6));
        assert_eq!(default_grid((Dist::Block, Dist::Star), 6), (6, 1));
        assert_eq!(default_grid((Dist::Block, Dist::Block), 12), (3, 4));
        assert_eq!(default_grid((Dist::Cyclic, Dist::Block), 7), (1, 7));
        assert_eq!(default_grid((Dist::Star, Dist::Star), 1), (1, 1));
    }

    #[test]
    fn row_block_layout() {
        let rep = spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..24).collect(); // 6x4
            let a = DArray2::from_global(cx, &g, [6, 4], (Dist::Block, Dist::Star), &data);
            (a.local_dims(), a.local().to_vec())
        });
        assert_eq!(rep.results[0].0, (2, 4));
        assert_eq!(rep.results[0].1, (0..8).collect::<Vec<u32>>());
        assert_eq!(rep.results[2].1, (16..24).collect::<Vec<u32>>());
    }

    #[test]
    fn col_block_layout() {
        let rep = spmd(&Machine::real(2), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..12).collect(); // 3x4
            let a = DArray2::from_global(cx, &g, [3, 4], (Dist::Star, Dist::Block), &data);
            a.local().to_vec()
        });
        assert_eq!(rep.results[0], vec![0, 1, 4, 5, 8, 9]);
        assert_eq!(rep.results[1], vec![2, 3, 6, 7, 10, 11]);
    }

    #[test]
    fn two_d_grid_tiles() {
        let rep = spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..16).collect(); // 4x4
            let a = DArray2::with_grid(
                cx,
                &g,
                [4, 4],
                (Dist::Block, Dist::Block),
                (2, 2),
                0,
            );
            let mut a = a;
            a.for_each_owned(|r, c, v| *v = data[r * 4 + c]);
            a.local().to_vec()
        });
        assert_eq!(rep.results[0], vec![0, 1, 4, 5]);
        assert_eq!(rep.results[1], vec![2, 3, 6, 7]);
        assert_eq!(rep.results[2], vec![8, 9, 12, 13]);
        assert_eq!(rep.results[3], vec![10, 11, 14, 15]);
    }

    #[test]
    fn to_global_round_trips() {
        for dist in [
            (Dist::Block, Dist::Star),
            (Dist::Star, Dist::Block),
            (Dist::Cyclic, Dist::Star),
        ] {
            let rep = spmd(&Machine::real(4), move |cx| {
                let g = cx.group();
                let data: Vec<u64> = (0..35).collect(); // 5x7
                let a = DArray2::from_global(cx, &g, [5, 7], dist, &data);
                a.to_global(cx)
            });
            for r in rep.results {
                assert_eq!(r, (0..35).collect::<Vec<u64>>(), "dist = {dist:?}");
            }
        }
    }

    #[test]
    fn owner_and_local_of_global_agree() {
        let rep = spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let a = DArray2::new(cx, &g, [8, 8], (Dist::Block, Dist::Star), 0u8);
            let mut mine = Vec::new();
            for r in 0..8 {
                for c in 0..8 {
                    let owner = a.owner_phys(r, c);
                    let loc = a.local_of_global(r, c);
                    assert_eq!(owner == cx.phys_rank(), loc.is_some());
                    if loc.is_some() {
                        mine.push((r, c));
                    }
                }
            }
            mine.len()
        });
        assert_eq!(rep.results.iter().sum::<usize>(), 64);
    }

    #[test]
    fn subgroup_mapped_array() {
        let rep = spmd(&Machine::real(4), |cx| {
            let part = cx.task_partition(&[("g1", Size::Procs(2)), ("g2", Size::Rest)]);
            let g1 = part.group("g1");
            let a = DArray2::new(cx, &g1, [4, 6], (Dist::Star, Dist::Block), 1.5f64);
            (a.is_member(), a.local().len())
        });
        assert_eq!(rep.results[0], (true, 12));
        assert_eq!(rep.results[1], (true, 12));
        assert_eq!(rep.results[2], (false, 0));
    }

    #[test]
    fn local_row_slices() {
        let rep = spmd(&Machine::real(2), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..12).collect();
            let mut a =
                DArray2::from_global(cx, &g, [4, 3], (Dist::Block, Dist::Star), &data);
            let row0 = a.local_row(0).to_vec();
            a.local_row_mut(1)[0] = 99;
            (row0, a.local_row(1).to_vec())
        });
        assert_eq!(rep.results[0].0, vec![0, 1, 2]);
        assert_eq!(rep.results[0].1, vec![99, 4, 5]);
        assert_eq!(rep.results[1].0, vec![6, 7, 8]);
    }
}
