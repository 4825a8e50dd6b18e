//! Distributed array assignment — the parent-scope communication statement.
//!
//! `A2 = A1` between arrays mapped onto *different* subgroups is how data
//! crosses task boundaries in the paper (Figure 2's pipeline). Two of the
//! paper's §4 implementation points live here:
//!
//! * **Minimal processor subsets**: the participating processors of an
//!   array assignment are exactly the owners of the source and destination.
//!   Everyone else *skips past the statement without synchronizing* — the
//!   property that makes pipelined task parallelism possible. The
//!   [`Participation::WholeGroup`] mode disables the analysis (all current
//!   processors synchronize first), which is the ablation for the paper's
//!   claim that this optimization is essential.
//! * **Localization / no empty messages**: both sides compute the exact
//!   communication sets from distribution metadata, so a message is
//!   exchanged only between processors that actually share elements.
//!
//! The general entry points are `copy_remap*`: `dst[i] = src[f(i)]`
//! (and the 2-D analogue), which subsume plain assignment, transposition,
//! shifts, and sub-range merges.
//!
//! **Remap cost model.** `f` is opaque, so each participating processor
//! inspects destination indices itself. It first builds per-axis tables
//! for both sides (owner coordinate, local slot, "is mine" flag per
//! global index) in O(rows + cols), or O(n) in 1-D. The walk is then
//! division-free: per element, `f`, a bounds check, and two flag loads per
//! side. Owners and slots are looked up only for the elements this
//! processor sends, receives or copies, so data movement is O(owned). A
//! source member walks the whole destination, since it may serve any
//! element. Any other member only receives, and walks just its own tile.
//! An `f` that leaves the source extent panics, in every build.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use fx_core::{Cx, GroupHandle};

use crate::array1::{DArray1, Dist1, Elem};
use crate::array2::DArray2;
use crate::dataflow::sync_edge;
use crate::dist::{DimMap, Dist};
use crate::plan::{
    copy_seg_runs, pack2, pack2_into, pack_seg_runs_into, unpack2, unpack2_chunk,
    unpack_seg_runs_chunk, Key1, Key2, Plan1, Plan2, Side1, Side2, WriteKind,
};

/// Which processors take part in a parent-scope array statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Participation {
    /// Only owners of source/destination elements participate; all other
    /// processors of the current group skip instantly (paper §4,
    /// "Identification of minimal processor subsets").
    Minimal,
    /// Pessimistic baseline: every processor of the current group
    /// synchronizes at the statement before the owners move data.
    WholeGroup,
}

/// `dst[i] = src[f(i)]` for all `i` — whole-array remapped copy.
pub fn copy_remap1<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray1<T>,
    src: &DArray1<T>,
    f: impl Fn(usize) -> usize,
) {
    let n = dst.n();
    copy_remap1_range(cx, dst, 0..n, src, f, Participation::Minimal);
}

/// Plain distributed assignment `dst = src` (shapes must match).
///
/// ```
/// use fx_core::{spmd, Machine};
/// use fx_darray::{assign1, DArray1, Dist1};
///
/// spmd(&Machine::real(3), |cx| {
///     let g = cx.group();
///     let src = DArray1::from_global(cx, &g, Dist1::Block, &[1u64, 2, 3, 4, 5]);
///     let mut dst = DArray1::new(cx, &g, 5, Dist1::Cyclic, 0u64);
///     assign1(cx, &mut dst, &src); // BLOCK -> CYCLIC redistribution
///     assert_eq!(dst.to_global(cx), vec![1, 2, 3, 4, 5]);
/// });
/// ```
pub fn assign1<T: Elem>(cx: &mut Cx, dst: &mut DArray1<T>, src: &DArray1<T>) {
    assert_eq!(dst.n(), src.n(), "assign1 shape mismatch");
    let n = dst.n();
    cx.scoped("assign1", |cx| copy_shift1_range(cx, dst, 0..n, src, 0, Participation::Minimal));
}

/// `dst[i] = src[i + shift]` for `i` in `range` — the affine special case
/// of [`copy_remap1_range`] (plain assignment, sub-range merges, end-off
/// shifts), executed through a cached interval-based communication plan.
///
/// The shifted range must lie within the source extent. Must be called by
/// **every** member of the current group (SPMD), even those that skip.
pub fn copy_shift1_range<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray1<T>,
    range: Range<usize>,
    src: &DArray1<T>,
    shift: isize,
    mode: Participation,
) {
    assert!(range.end <= dst.n(), "range {range:?} exceeds dst extent {}", dst.n());
    if !range.is_empty() {
        let lo = range.start as isize + shift;
        let hi = (range.end - 1) as isize + shift;
        debug_assert!(
            lo >= 0 && (hi as usize) < src.n(),
            "shifted range {range:?}{shift:+} outside src extent {}",
            src.n()
        );
    }
    let tag = cx.next_op_tag();
    // Dataflow classification runs on every caller — members and
    // skippers alike — so the replicated version vectors stay in step.
    let s_range = if range.is_empty() {
        0..0
    } else {
        let lo = (range.start as isize + shift) as usize;
        lo..lo + range.len()
    };
    let tainted = src.versions().borrow().tainted(s_range.clone())
        || dst.versions().borrow().tainted(range.clone());
    if mode == Participation::WholeGroup {
        cx.barrier();
    } else {
        sync_edge(cx, tag, src.group(), dst.group(), tainted);
    }
    if tainted {
        src.versions().borrow_mut().clear_taint(s_range.clone());
        dst.versions().borrow_mut().clear_taint(range.clone());
    }
    src.versions().borrow_mut().record_read(s_range);
    dst.versions().borrow_mut().record_write(range.clone(), WriteKind::Covered);
    let me = cx.phys_rank();
    if !src.is_member() && !dst.is_member() {
        return; // minimal-subset skip
    }

    let key = Key1 {
        sgid: src.group().gid(),
        smap: *src.map(),
        srep: matches!(src.dist(), Dist1::Replicated),
        dgid: dst.group().gid(),
        dmap: *dst.map(),
        drep: matches!(dst.dist(), Dist1::Replicated),
        range: (range.start, range.end),
        delta: shift,
    };
    let plan = {
        let s = Side1 { group: src.group().clone(), map: key.smap, replicated: key.srep };
        let d = Side1 { group: dst.group().clone(), map: key.dmap, replicated: key.drep };
        cx.plan_cached(key, move || Plan1::build(me, &s, &d, range, shift))
    };

    // Same observable schedule as the legacy path: local leg, memory
    // charge, sends ascending by destination, then receives ascending by
    // source. Pack/unpack host time is reported out-of-band. Messages ride
    // the chunk fast path: pooled buffers, no boxing, bytes copied once on
    // each side — virtual-time charges are those of an equal-sized Vec.
    let mut pack_ns = 0u64;
    let t0 = Instant::now();
    copy_seg_runs(src.local(), &plan.local_src, dst.local_mut(), &plan.local_dst);
    pack_ns += t0.elapsed().as_nanos() as u64;
    cx.charge_mem_bytes(2.0 * (plan.local_total * std::mem::size_of::<T>()) as f64);
    for pr in &plan.sends {
        let t = Instant::now();
        let mut chunk = cx.chunk_for::<T>(pr.total);
        pack_seg_runs_into(src.local(), &pr.runs, &mut chunk);
        pack_ns += t.elapsed().as_nanos() as u64;
        cx.send_chunk_phys(pr.peer, tag, chunk);
    }
    for pr in &plan.recvs {
        let chunk = cx.recv_chunk_phys(pr.peer, tag);
        debug_assert_eq!(chunk.elems(), pr.total, "communication set mismatch");
        let t = Instant::now();
        unpack_seg_runs_chunk(dst.local_mut(), &pr.runs, &chunk);
        pack_ns += t.elapsed().as_nanos() as u64;
        cx.release_chunk(chunk);
    }
    cx.note_pack_ns(pack_ns);
}

/// `dst[i] = src[f(i)]` for `i` in `range`, with explicit participation.
///
/// Must be called by **every** member of the current group (SPMD), even
/// those that will skip — the operation tag is allocated collectively.
///
/// Panics if `f` maps an index of `range` outside the source extent.
pub fn copy_remap1_range<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray1<T>,
    range: Range<usize>,
    src: &DArray1<T>,
    f: impl Fn(usize) -> usize,
    mode: Participation,
) {
    assert!(range.end <= dst.n(), "range {range:?} exceeds dst extent {}", dst.n());
    let tag = cx.next_op_tag();
    if mode == Participation::WholeGroup {
        cx.barrier();
    }
    // The remap closure's communication pattern is opaque to the planner:
    // taint the destination footprint so the next plan statement reading
    // it keeps its barrier. Never a sync point itself, in any mode.
    src.versions().borrow_mut().record_read(0..src.n());
    dst.versions().borrow_mut().record_write(range.clone(), WriteKind::Opaque);
    if !src.is_member() && !dst.is_member() {
        return; // minimal-subset skip
    }

    let (s, d) = (Layout::of1(src), Layout::of1(dst));
    let me = cx.phys_rank();
    let f = |_, i| (0, f(i));
    let traffic = remap_walk(me, d, dst.local_mut(), (0..1, range), s, src.local(), f);
    traffic.exchange(cx, tag, dst.local_mut());
}

/// `dst[r][c] = src[f(r, c)]` for the whole destination.
pub fn copy_remap2<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray2<T>,
    src: &DArray2<T>,
    f: impl Fn(usize, usize) -> (usize, usize),
) {
    copy_remap2_with(cx, dst, src, f, Participation::Minimal);
}

/// Plain distributed assignment `dst = src` for matrices (the statement
/// `A2 = A1` of Figure 2 — same global shape, possibly different
/// distributions *and* different processor subgroups).
pub fn assign2<T: Elem>(cx: &mut Cx, dst: &mut DArray2<T>, src: &DArray2<T>) {
    assign2_with(cx, dst, src, Participation::Minimal);
}

/// [`assign2`] with an explicit participation mode (the ablation knob).
pub fn assign2_with<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray2<T>,
    src: &DArray2<T>,
    mode: Participation,
) {
    assert_eq!(dst.rows(), src.rows(), "assign2 row mismatch");
    assert_eq!(dst.cols(), src.cols(), "assign2 col mismatch");
    cx.scoped("assign2", |cx| plan_copy2(cx, dst, src, false, mode));
}

/// Distributed transposition `dst[r][c] = src[c][r]` (the radar corner
/// turn; also the data motion between column-FFT and row-FFT stages).
pub fn transpose2<T: Elem>(cx: &mut Cx, dst: &mut DArray2<T>, src: &DArray2<T>) {
    assert_eq!(dst.rows(), src.cols(), "transpose2 shape mismatch");
    assert_eq!(dst.cols(), src.rows(), "transpose2 shape mismatch");
    cx.scoped("transpose2", |cx| plan_copy2(cx, dst, src, true, Participation::Minimal));
}

/// Plan-cached 2-D copy: `dst[r][c] = src[r][c]` (or `src[c][r]` when
/// `transposed`). The structured counterpart of `copy_remap2_with` for the
/// two remap functions that cover every kernel in the paper's suite.
fn plan_copy2<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray2<T>,
    src: &DArray2<T>,
    transposed: bool,
    mode: Participation,
) {
    let tag = cx.next_op_tag();
    let s_range = 0..src.rows() * src.cols();
    let d_range = 0..dst.rows() * dst.cols();
    let tainted = src.versions().borrow().tainted(s_range.clone())
        || dst.versions().borrow().tainted(d_range.clone());
    if mode == Participation::WholeGroup {
        cx.barrier();
    } else {
        sync_edge(cx, tag, src.group(), dst.group(), tainted);
    }
    if tainted {
        src.versions().borrow_mut().clear_taint(s_range.clone());
        dst.versions().borrow_mut().clear_taint(d_range.clone());
    }
    src.versions().borrow_mut().record_read(s_range);
    dst.versions().borrow_mut().record_write(d_range, WriteKind::Covered);
    let me = cx.phys_rank();
    if !src.is_member() && !dst.is_member() {
        return; // minimal-subset skip
    }

    let key = {
        let (s_rmap, s_cmap) = {
            let m = src.maps();
            (*m.0, *m.1)
        };
        let (d_rmap, d_cmap) = {
            let m = dst.maps();
            (*m.0, *m.1)
        };
        Key2 {
            sgid: src.group().gid(),
            s_rmap,
            s_cmap,
            dgid: dst.group().gid(),
            d_rmap,
            d_cmap,
            transposed,
        }
    };
    let plan = {
        let s = Side2 { group: src.group().clone(), rmap: key.s_rmap, cmap: key.s_cmap };
        let d = Side2 { group: dst.group().clone(), rmap: key.d_rmap, cmap: key.d_cmap };
        cx.plan_cached(key, move || Plan2::build(me, &s, &d, transposed))
    };

    let mut pack_ns = 0u64;
    let t0 = Instant::now();
    let mut local_total = 0usize;
    if let Some(l) = &plan.local {
        let tmp = pack2(src.local(), plan.src_pitch, &l.s_outer, &l.s_inner, l.total, transposed);
        unpack2(dst.local_mut(), plan.dst_pitch, &l.d_outer, &l.d_inner, &tmp);
        local_total = l.total;
    }
    pack_ns += t0.elapsed().as_nanos() as u64;
    cx.charge_mem_bytes(2.0 * (local_total * std::mem::size_of::<T>()) as f64);
    for p in &plan.sends {
        let t = Instant::now();
        let mut chunk = cx.chunk_for::<T>(p.total);
        pack2_into(src.local(), plan.src_pitch, &p.outer, &p.inner, transposed, &mut chunk);
        pack_ns += t.elapsed().as_nanos() as u64;
        cx.send_chunk_phys(p.peer, tag, chunk);
    }
    for p in &plan.recvs {
        let chunk = cx.recv_chunk_phys(p.peer, tag);
        debug_assert_eq!(chunk.elems(), p.total, "communication set mismatch");
        let t = Instant::now();
        unpack2_chunk(dst.local_mut(), plan.dst_pitch, &p.outer, &p.inner, &chunk);
        pack_ns += t.elapsed().as_nanos() as u64;
        cx.release_chunk(chunk);
    }
    cx.note_pack_ns(pack_ns);
}

/// `dst[r][c] = src[f(r, c)]` with explicit participation mode.
///
/// Panics if `f` maps a destination index outside the source extent.
pub fn copy_remap2_with<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray2<T>,
    src: &DArray2<T>,
    f: impl Fn(usize, usize) -> (usize, usize),
    mode: Participation,
) {
    let tag = cx.next_op_tag();
    if mode == Participation::WholeGroup {
        cx.barrier();
    }
    // Opaque write (see copy_remap1_range): taint source, never sync.
    src.versions().borrow_mut().record_read(0..src.rows() * src.cols());
    dst.versions().borrow_mut().record_write(0..dst.rows() * dst.cols(), WriteKind::Opaque);
    if !src.is_member() && !dst.is_member() {
        return; // minimal-subset skip
    }

    let (s, d) = (Layout::of2(src), Layout::of2(dst));
    let me = cx.phys_rank();
    let domain = (0..dst.rows(), 0..dst.cols());
    let traffic = remap_walk(me, d, dst.local_mut(), domain, s, src.local(), f);
    traffic.exchange(cx, tag, dst.local_mut());
}

/// Per-axis lookup tables of one remap side, indexed by global index.
/// Built once per call in O(extent), so the per-element inspector does
/// table loads instead of `DimMap` divisions.
struct Axis {
    /// Grid coordinate that owns each index.
    own: Vec<usize>,
    /// Local index of each index on its owner.
    slot: Vec<usize>,
    /// Does the caller's grid coordinate own the index?
    mine: Vec<bool>,
}

impl Axis {
    fn new(map: &DimMap, my: Option<usize>) -> Self {
        let own: Vec<usize> = (0..map.n).map(|i| map.owner(i)).collect();
        let slot = (0..map.n).map(|i| map.local_of(i)).collect();
        let mine = own.iter().map(|&c| Some(c) == my).collect();
        Axis { own, slot, mine }
    }
}

/// One side of a remap as seen by the calling processor: its group and
/// per-axis tables. A 1-D array is the one-row case.
struct Layout {
    group: GroupHandle,
    rows: Axis,
    cols: Axis,
    grid_cols: usize,
    local_cols: usize,
    /// 1-D `Replicated`: every member holds every element (see `server`).
    replicated: bool,
    member: bool,
    one_d: bool,
}

impl Layout {
    fn of1<T: Elem>(a: &DArray1<T>) -> Self {
        let replicated = matches!(a.dist(), Dist1::Replicated);
        let my = a.my_vrank();
        // A replicated array's map is a single `*` coordinate.
        let my_col = if replicated { my.map(|_| 0) } else { my };
        Layout {
            group: a.group().clone(),
            rows: Axis::new(&DimMap::new(1, 1, Dist::Star), my.map(|_| 0)),
            cols: Axis::new(a.map(), my_col),
            grid_cols: a.map().q,
            local_cols: 0,
            replicated,
            member: my.is_some(),
            one_d: true,
        }
    }

    fn of2<T: Elem>(a: &DArray2<T>) -> Self {
        let (rmap, cmap) = a.maps();
        let my = a.my_coord();
        Layout {
            group: a.group().clone(),
            rows: Axis::new(rmap, my.map(|m| m.0)),
            cols: Axis::new(cmap, my.map(|m| m.1)),
            grid_cols: a.grid().1,
            local_cols: a.local_dims().1,
            replicated: false,
            member: my.is_some(),
            one_d: false,
        }
    }

    /// Panic: destination `(r, c)` maps to `(sr, sc)`, outside this
    /// (source) layout.
    #[cold]
    #[inline(never)]
    fn outside(&self, r: usize, c: usize, sr: usize, sc: usize) -> ! {
        let (n_r, n_c) = (self.rows.mine.len(), self.cols.mine.len());
        if self.one_d {
            panic!("copy_remap1: dst index {c} maps to src index {sc}, outside src extent {n_c}")
        }
        panic!(
            "copy_remap2: dst ({r}, {c}) maps to src ({sr}, {sc}), \
             outside src extent {n_r}x{n_c}"
        )
    }

    /// Local slot of `(r, c)` on its owner.
    #[inline]
    fn slot(&self, r: usize, c: usize) -> usize {
        self.rows.slot[r] * self.local_cols + self.cols.slot[c]
    }

    /// Physical owner of `(r, c)` (not meaningful when replicated).
    #[inline]
    fn owner(&self, r: usize, c: usize) -> usize {
        self.group.phys(self.rows.own[r] * self.grid_cols + self.cols.own[c])
    }

    /// Physical processor serving `(r, c)` to destination `dp`: the owner,
    /// or for a replicated array `dp` itself when it is a member and a
    /// fixed member otherwise.
    fn server(&self, r: usize, c: usize, dp: usize) -> usize {
        if !self.replicated {
            self.owner(r, c)
        } else if self.group.contains_phys(dp) {
            dp
        } else {
            self.group.phys(dp % self.group.len())
        }
    }
}

/// What one processor sends, receives and copies locally in a remap.
struct Traffic<T> {
    /// Values per destination processor, in destination row-major order.
    sends: BTreeMap<usize, Vec<T>>,
    /// Destination slots per source processor, in the same order.
    recvs: BTreeMap<usize, Vec<usize>>,
    /// Elements copied without communication.
    local: usize,
}

impl<T: Elem> Traffic<T> {
    fn copy(&mut self, dst: &mut [T], slot: usize, v: T) {
        dst[slot] = v;
        self.local += 1;
    }

    fn send(&mut self, dp: usize, v: T) {
        self.sends.entry(dp).or_default().push(v);
    }

    fn recv(&mut self, sp: usize, slot: usize) {
        self.recvs.entry(sp).or_default().push(slot);
    }

    /// Charge the local copy, then send ascending by destination and
    /// receive ascending by source.
    fn exchange(self, cx: &mut Cx, tag: u64, dst: &mut [T]) {
        cx.charge_mem_bytes(2.0 * (self.local * std::mem::size_of::<T>()) as f64);
        for (dp, buf) in self.sends {
            cx.send_phys(dp, tag, buf);
        }
        for (sp, slots) in self.recvs {
            let buf: Vec<T> = cx.recv_phys(sp, tag);
            debug_assert_eq!(buf.len(), slots.len(), "communication set mismatch");
            for (slot, v) in slots.into_iter().zip(buf) {
                dst[slot] = v;
            }
        }
    }
}

/// The remap inspector: `dst[r][c] = src[f(r, c)]` over `rows x cols` of
/// the destination, from processor `me`'s point of view. Local elements
/// are copied in place; the rest becomes [`Traffic`].
///
/// A source member may serve any destination element, so it walks the
/// whole domain. Any other caller only receives, and walks just its own
/// tile, in global row-major order restricted to the tile — the order
/// the sender packs in. The layouts are consumed, so their tables are
/// freed before the exchange can suspend this processor.
fn remap_walk<T: Elem>(
    me: usize,
    d: Layout,
    dst: &mut [T],
    (rows, cols): (Range<usize>, Range<usize>),
    s: Layout,
    src: &[T],
    f: impl Fn(usize, usize) -> (usize, usize),
) -> Traffic<T> {
    let domain = |range: Range<usize>, axis: &Axis| -> Vec<usize> {
        range.filter(|&i| s.member || axis.mine[i]).collect()
    };
    let (rows, cols) = (domain(rows, &d.rows), domain(cols, &d.cols));
    let mut t = Traffic { sends: BTreeMap::new(), recvs: BTreeMap::new(), local: 0 };
    if !(s.replicated || d.replicated) {
        // One owner per side: "is it mine" is two flag loads, and owners
        // and slots are looked up only for actual traffic.
        let (s_rows, s_cols, d_cols) = (&s.rows.mine[..], &s.cols.mine[..], &d.cols.mine[..]);
        for &r in &rows {
            let d_row = d.rows.mine[r];
            for &c in &cols {
                let (sr, sc) = f(r, c);
                if sr >= s_rows.len() || sc >= s_cols.len() {
                    s.outside(r, c, sr, sc);
                }
                if s_rows[sr] & s_cols[sc] {
                    let v = src[s.slot(sr, sc)];
                    if d_row & d_cols[c] {
                        t.copy(dst, d.slot(r, c), v);
                    } else {
                        t.send(d.owner(r, c), v);
                    }
                } else if d_row & d_cols[c] {
                    t.recv(s.owner(sr, sc), d.slot(r, c));
                }
            }
        }
        return t;
    }
    // A replicated side: every destination member may need each element,
    // each served by its own source copy.
    for &r in &rows {
        for &c in &cols {
            let (sr, sc) = f(r, c);
            if sr >= s.rows.mine.len() || sc >= s.cols.mine.len() {
                s.outside(r, c, sr, sc);
            }
            let owner = [d.owner(r, c)];
            let dps = if d.replicated { d.group.members() } else { &owner };
            for &dp in dps {
                let sp = s.server(sr, sc, dp);
                if sp == me {
                    let v = src[s.slot(sr, sc)];
                    if dp == me {
                        t.copy(dst, d.slot(r, c), v);
                    } else {
                        t.send(dp, v);
                    }
                } else if dp == me {
                    t.recv(sp, d.slot(r, c));
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Dist;
    use fx_core::{spmd, Machine, Size};

    #[test]
    fn assign1_between_distributions() {
        let cases = [
            (Dist1::Block, Dist1::Cyclic),
            (Dist1::Cyclic, Dist1::Block),
            (Dist1::Block, Dist1::BlockCyclic(3)),
            (Dist1::BlockCyclic(2), Dist1::BlockCyclic(5)),
        ];
        for (sd, dd) in cases {
            let rep = spmd(&Machine::real(4), move |cx| {
                let g = cx.group();
                let data: Vec<u64> = (0..23).map(|i| i * 7).collect();
                let src = DArray1::from_global(cx, &g, sd, &data);
                let mut dst = DArray1::new(cx, &g, 23, dd, 0u64);
                assign1(cx, &mut dst, &src);
                dst.to_global(cx)
            });
            for r in rep.results {
                assert_eq!(r, (0..23).map(|i| i * 7).collect::<Vec<u64>>(), "{sd:?}->{dd:?}");
            }
        }
    }

    #[test]
    fn assign1_across_disjoint_subgroups() {
        // The pipeline statement: src on G1, dst on G2.
        let rep = spmd(&Machine::real(6), |cx| {
            let part = cx.task_partition(&[("g1", Size::Procs(2)), ("g2", Size::Rest)]);
            let g1 = part.group("g1");
            let g2 = part.group("g2");
            let data: Vec<i64> = (0..17).map(|i| 1000 - i).collect();
            let src = DArray1::from_global(cx, &g1, Dist1::Block, &data);
            let mut dst = DArray1::new(cx, &g2, 17, Dist1::Block, 0i64);
            assign1(cx, &mut dst, &src);
            if dst.is_member() {
                cx.task_region(&part, |cx, tr| {
                    tr.on(cx, "g2", |cx| dst.to_global(cx)).unwrap()
                })
            } else {
                Vec::new()
            }
        });
        let expect: Vec<i64> = (0..17).map(|i| 1000 - i).collect();
        for r in &rep.results[2..] {
            assert_eq!(*r, expect);
        }
    }

    #[test]
    fn replicated_to_block_and_back() {
        let rep = spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..11).collect();
            let src = DArray1::from_global(cx, &g, Dist1::Replicated, &data);
            let mut mid = DArray1::new(cx, &g, 11, Dist1::Block, 0u32);
            assign1(cx, &mut mid, &src);
            mid.for_each_owned(|_gi, v| *v += 100);
            let mut back = DArray1::new(cx, &g, 11, Dist1::Replicated, 0u32);
            assign1(cx, &mut back, &mid);
            back.local().to_vec()
        });
        let expect: Vec<u32> = (100..111).collect();
        for r in rep.results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn remap_reverses() {
        let rep = spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let data: Vec<u16> = (0..9).collect();
            let src = DArray1::from_global(cx, &g, Dist1::Block, &data);
            let mut dst = DArray1::new(cx, &g, 9, Dist1::Cyclic, 0u16);
            copy_remap1(cx, &mut dst, &src, |i| 8 - i);
            dst.to_global(cx)
        });
        assert_eq!(rep.results[0], vec![8, 7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn range_assign_merges_subarrays() {
        // Figure 4's merge: a[0..k] = aLess, a[k..] = aGreaterEq.
        let rep = spmd(&Machine::real(4), |cx| {
            let part = cx.task_partition(&[("lo", Size::Procs(2)), ("hi", Size::Rest)]);
            let glo = part.group("lo");
            let ghi = part.group("hi");
            let less: Vec<i32> = vec![1, 2, 3];
            let geq: Vec<i32> = vec![7, 8, 9, 10];
            let a_less = DArray1::from_global(cx, &glo, Dist1::Block, &less);
            let a_geq = DArray1::from_global(cx, &ghi, Dist1::Block, &geq);
            let g = cx.group();
            let mut a = DArray1::new(cx, &g, 7, Dist1::Block, 0i32);
            copy_remap1_range(cx, &mut a, 0..3, &a_less, |i| i, Participation::Minimal);
            copy_remap1_range(cx, &mut a, 3..7, &a_geq, |i| i - 3, Participation::Minimal);
            a.to_global(cx)
        });
        for r in rep.results {
            assert_eq!(r, vec![1, 2, 3, 7, 8, 9, 10]);
        }
    }

    #[test]
    fn assign2_redistribution_and_cross_group() {
        let rep = spmd(&Machine::real(6), |cx| {
            let part = cx.task_partition(&[("g1", Size::Procs(2)), ("g2", Size::Rest)]);
            let g1 = part.group("g1");
            let g2 = part.group("g2");
            let data: Vec<u64> = (0..20).collect(); // 4x5
            let src = DArray2::from_global(cx, &g1, [4, 5], (Dist::Star, Dist::Block), &data);
            let mut dst = DArray2::new(cx, &g2, [4, 5], (Dist::Block, Dist::Star), 0u64);
            assign2(cx, &mut dst, &src);
            dst.fold_owned(0u64, |acc, r, c, v| {
                assert_eq!(v, (r * 5 + c) as u64);
                acc + v
            })
        });
        let total: u64 = rep.results.iter().sum();
        assert_eq!(total, (0..20).sum());
    }

    #[test]
    fn transpose2_matches_reference() {
        let rep = spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let data: Vec<i64> = (0..12).collect(); // 3x4
            let src = DArray2::from_global(cx, &g, [3, 4], (Dist::Block, Dist::Star), &data);
            let mut dst = DArray2::new(cx, &g, [4, 3], (Dist::Block, Dist::Star), 0i64);
            transpose2(cx, &mut dst, &src);
            dst.to_global(cx)
        });
        let mut expect = vec![0i64; 12];
        for r in 0..4 {
            for c in 0..3 {
                expect[r * 3 + c] = (c * 4 + r) as i64;
            }
        }
        assert_eq!(rep.results[0], expect);
    }

    #[test]
    fn minimal_participation_lets_outsiders_skip_in_virtual_time() {
        use fx_core::MachineModel;
        // Three groups; an assignment between g1 and g2 must not delay g3.
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
            let part = cx.task_partition(&[
                ("g1", Size::Procs(1)),
                ("g2", Size::Procs(1)),
                ("g3", Size::Rest),
            ]);
            let g1 = part.group("g1");
            let g2 = part.group("g2");
            // g1 does heavy work first, so the assignment finishes late.
            cx.task_region(&part, |cx, tr| {
                tr.on(cx, "g1", |cx| cx.charge_seconds(5.0));
                let data = vec![1u8; 100];
                let src = DArray1::from_global(cx, &g1, Dist1::Block, &data);
                let mut dst = DArray1::new(cx, &g2, 100, Dist1::Block, 0u8);
                copy_remap1_range(cx, &mut dst, 0..100, &src, |i| i, Participation::Minimal);
            });
            cx.now()
        });
        assert!(rep.results[0] >= 5.0);
        assert!(rep.results[1] >= 5.0, "receiver waits for sender: {}", rep.results[1]);
        assert!(rep.results[2] < 1.0, "g3 should skip instantly, got {}", rep.results[2]);
    }

    #[test]
    fn whole_group_participation_stalls_everyone() {
        use fx_core::MachineModel;
        let rep = spmd(&Machine::simulated(3, MachineModel::paragon()), |cx| {
            let part = cx.task_partition(&[
                ("g1", Size::Procs(1)),
                ("g2", Size::Procs(1)),
                ("g3", Size::Rest),
            ]);
            let g1 = part.group("g1");
            let g2 = part.group("g2");
            cx.task_region(&part, |cx, tr| {
                tr.on(cx, "g1", |cx| cx.charge_seconds(5.0));
                let data = vec![1u8; 100];
                let src = DArray1::from_global(cx, &g1, Dist1::Block, &data);
                let mut dst = DArray1::new(cx, &g2, 100, Dist1::Block, 0u8);
                copy_remap1_range(cx, &mut dst, 0..100, &src, |i| i, Participation::WholeGroup);
            });
            cx.now()
        });
        assert!(rep.results[2] >= 5.0, "g3 must stall in WholeGroup mode, got {}", rep.results[2]);
    }

    // An `f` leaving the source extent used to be caught only by a debug
    // assertion: in release, `Block`'s owner clamped `(0, 8)` of a 4x8
    // `(*, BLOCK)` array to the last processor and read the first element
    // of the next local row (`src[1][6]`) into `dst[0][7]`.
    #[test]
    #[should_panic(expected = "copy_remap2: dst (0, 7) maps to src (0, 8), outside src extent 4x8")]
    fn remap2_outside_src_extent_panics() {
        spmd(&Machine::real(4), |cx| {
            let g = cx.group();
            let data: Vec<u32> = (0..32).collect();
            let src = DArray2::from_global(cx, &g, [4, 8], (Dist::Star, Dist::Block), &data);
            let mut dst = DArray2::new(cx, &g, [4, 8], (Dist::Star, Dist::Block), 0u32);
            copy_remap2(cx, &mut dst, &src, |r, c| if (r, c) == (0, 7) { (0, 8) } else { (r, c) });
        });
    }

    #[test]
    #[should_panic(expected = "copy_remap1: dst index 5 maps to src index 9, outside src extent 9")]
    fn remap1_outside_src_extent_panics() {
        spmd(&Machine::real(3), |cx| {
            let g = cx.group();
            let data: Vec<u16> = (0..9).collect();
            let src = DArray1::from_global(cx, &g, Dist1::Block, &data);
            let mut dst = DArray1::new(cx, &g, 9, Dist1::Cyclic, 0u16);
            copy_remap1(cx, &mut dst, &src, |i| if i == 5 { 9 } else { i });
        });
    }

    // Receivers outside the source group check only their own tile; the
    // source member catches the bad index and the run still fails.
    #[test]
    #[should_panic(expected = "outside src extent 6")]
    fn remap1_outside_src_extent_panics_across_groups() {
        spmd(&Machine::real(3), |cx| {
            let part = cx.task_partition(&[("s", Size::Procs(1)), ("d", Size::Rest)]);
            let data: Vec<u16> = (0..6).collect();
            let src = DArray1::from_global(cx, &part.group("s"), Dist1::Block, &data);
            let mut dst = DArray1::new(cx, &part.group("d"), 6, Dist1::Block, 0u16);
            copy_remap1(cx, &mut dst, &src, |i| if i == 0 { 6 } else { i });
        });
    }
}
