//! Equivalence of the table-driven remap inspector with the per-element
//! walk it replaced.
//!
//! `oracle_remap1`/`oracle_remap2` below are that walk: for every
//! destination element, ask the distribution metadata for the owners of
//! both ends, then copy, send or receive. They issue exactly the runtime
//! calls `copy_remap1_range`/`copy_remap2_with` must issue, so for random
//! shapes, distributions, grids, groups and index maps the two must agree
//! on array contents, on per-processor traffic, and bit for bit on every
//! processor's virtual time.

use std::collections::BTreeMap;

use fx_core::{spmd, Cx, GroupHandle, Machine, MachineModel};
use fx_darray::{
    copy_remap1_range, copy_remap2_with, DArray1, DArray2, Dist, Dist1, Elem, OwnerSet,
    Participation, WriteKind,
};
use proptest::prelude::*;

/// Charge the local copy, send ascending by destination, receive
/// ascending by source (the pre-change exchange).
fn oracle_exchange<T: Elem>(
    cx: &mut Cx,
    tag: u64,
    local_bytes: usize,
    sends: BTreeMap<usize, Vec<T>>,
    recvs: BTreeMap<usize, Vec<usize>>,
    local: &mut [T],
) {
    cx.charge_mem_bytes(2.0 * local_bytes as f64);
    for (dp, buf) in sends {
        cx.send_phys(dp, tag, buf);
    }
    for (sp, slots) in recvs {
        let buf: Vec<T> = cx.recv_phys(sp, tag);
        assert_eq!(buf.len(), slots.len(), "communication set mismatch");
        for (slot, v) in slots.into_iter().zip(buf) {
            local[slot] = v;
        }
    }
}

/// Local slot of every global index this processor stores.
fn slots_of1<T: Elem>(a: &DArray1<T>) -> Vec<Option<usize>> {
    let mut slots = vec![None; a.n()];
    for li in 0..a.local().len() {
        slots[a.global_of_local(li)] = Some(li);
    }
    slots
}

/// Pre-change `copy_remap1_range`.
fn oracle_remap1<T: Elem>(
    cx: &mut Cx,
    dst: &mut DArray1<T>,
    range: std::ops::Range<usize>,
    src: &DArray1<T>,
    f: impl Fn(usize) -> usize,
    mode: Participation,
) {
    let tag = cx.next_op_tag();
    if mode == Participation::WholeGroup {
        cx.barrier();
    }
    src.versions().borrow_mut().record_read(0..src.n());
    dst.versions().borrow_mut().record_write(range.clone(), WriteKind::Opaque);
    let me = cx.phys_rank();
    if !src.is_member() && !dst.is_member() {
        return;
    }
    let (s_slot, d_slot) = (slots_of1(src), slots_of1(dst));
    let s_group = src.group().clone();
    let src_owner = |gi: usize, dp: usize| match src.owners_phys(gi) {
        OwnerSet::One(p) => p,
        OwnerSet::All(_) if s_group.contains_phys(dp) => dp,
        OwnerSet::All(_) => s_group.phys(dp % s_group.len()),
    };
    let mut sends: BTreeMap<usize, Vec<T>> = BTreeMap::new();
    let mut recvs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut local_bytes = 0;
    for gi in range {
        let sgi = f(gi);
        let dsts: Vec<usize> = match dst.owners_phys(gi) {
            OwnerSet::One(p) => vec![p],
            OwnerSet::All(members) => members.to_vec(),
        };
        for dp in dsts {
            let sp = src_owner(sgi, dp);
            if sp == me {
                let v = src.local()[s_slot[sgi].unwrap()];
                if dp == me {
                    dst.local_mut()[d_slot[gi].unwrap()] = v;
                    local_bytes += std::mem::size_of::<T>();
                } else {
                    sends.entry(dp).or_default().push(v);
                }
            } else if dp == me {
                recvs.entry(sp).or_default().push(d_slot[gi].unwrap());
            }
        }
    }
    oracle_exchange(cx, tag, local_bytes, sends, recvs, dst.local_mut());
}

/// Pre-change `copy_remap2_with`.
fn oracle_remap2<T: Elem>(
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
    src.versions().borrow_mut().record_read(0..src.rows() * src.cols());
    dst.versions().borrow_mut().record_write(0..dst.rows() * dst.cols(), WriteKind::Opaque);
    let me = cx.phys_rank();
    if !src.is_member() && !dst.is_member() {
        return;
    }
    let (s_lc, d_lc) = (src.local_dims().1, dst.local_dims().1);
    let mut sends: BTreeMap<usize, Vec<T>> = BTreeMap::new();
    let mut recvs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut local_bytes = 0;
    for r in 0..dst.rows() {
        for c in 0..dst.cols() {
            let (sr, sc) = f(r, c);
            let sp = src.owner_phys(sr, sc);
            let dp = dst.owner_phys(r, c);
            let d_slot = || {
                let (lr, lc) = dst.local_of_global(r, c).unwrap();
                lr * d_lc + lc
            };
            if sp == me {
                let (lr, lc) = src.local_of_global(sr, sc).unwrap();
                let v = src.local()[lr * s_lc + lc];
                if dp == me {
                    let slot = d_slot();
                    dst.local_mut()[slot] = v;
                    local_bytes += std::mem::size_of::<T>();
                } else {
                    sends.entry(dp).or_default().push(v);
                }
            } else if dp == me {
                recvs.entry(sp).or_default().push(d_slot());
            }
        }
    }
    oracle_exchange(cx, tag, local_bytes, sends, recvs, dst.local_mut());
}

/// A processor group of the `p`-processor machine: the ranks set in
/// `mask` (rank 0 if none), rotated by `rot` and optionally reversed, so
/// virtual rank order need not follow physical rank order.
fn group_of(gid: u64, p: usize, mask: u32, rot: usize, rev: bool) -> GroupHandle {
    let mut members: Vec<usize> = (0..p).filter(|i| mask >> i & 1 == 1).collect();
    if members.is_empty() {
        members.push(0);
    }
    let k = rot % members.len();
    members.rotate_left(k);
    if rev {
        members.reverse();
    }
    GroupHandle::synthetic(gid, members)
}

fn arb_group() -> impl Strategy<Value = (u32, usize, bool)> {
    (0u32..64, 0usize..6, any::<bool>())
}

fn arb_dist() -> impl Strategy<Value = Dist> {
    prop_oneof![
        Just(Dist::Block),
        Just(Dist::Cyclic),
        (1usize..4).prop_map(Dist::BlockCyclic),
        Just(Dist::Star),
    ]
}

fn arb_dist1() -> impl Strategy<Value = Dist1> {
    prop_oneof![
        Just(Dist1::Block),
        Just(Dist1::Cyclic),
        (1usize..4).prop_map(Dist1::BlockCyclic),
        Just(Dist1::Replicated),
    ]
}

fn arb_mode() -> impl Strategy<Value = Participation> {
    prop_oneof![Just(Participation::Minimal), Just(Participation::WholeGroup)]
}

/// A grid for `dist` over `p` processors: the `pick`-th of the
/// factorizations `pr x pc` whose `*` axes get a single position. A
/// fully `*` distribution over several processors becomes `(BLOCK, *)`.
fn grid_for(dist: (Dist, Dist), p: usize, pick: usize) -> ((Dist, Dist), (usize, usize)) {
    let all_star = dist == (Dist::Star, Dist::Star) && p > 1;
    let dist = if all_star { (Dist::Block, Dist::Star) } else { dist };
    let grids: Vec<(usize, usize)> = (1..=p)
        .filter(|&pr| p.is_multiple_of(pr))
        .map(|pr| (pr, p / pr))
        .filter(|&(pr, pc)| (pr == 1 || dist.0 != Dist::Star) && (pc == 1 || dist.1 != Dist::Star))
        .collect();
    (dist, grids[pick % grids.len()])
}

/// Index maps: `kind` picks reverse, transpose (square shapes; a column
/// reversal otherwise), clamped shift, or a hash permutation of the
/// flattened index. Transpose and the hash are non-separable; all but
/// the clamped shift are bijections.
fn map2(kind: u8, rows: usize, cols: usize, k: usize) -> impl Fn(usize, usize) -> (usize, usize) {
    let n = rows * cols;
    // An odd multiplier coprime with n makes i -> (a*i + k) mod n a bijection.
    let a = (1..).step_by(2).map(|a| a + 2 * k).find(|&a| gcd(a, n) == 1).unwrap();
    move |r, c| match kind % 4 {
        0 => (rows - 1 - r, cols - 1 - c),
        1 if rows == cols => (c, r),
        1 => (r, cols - 1 - c),
        2 => (r, (c + k).min(cols - 1)),
        _ => {
            let i = (a * (r * cols + c) + k) % n;
            (i / cols, i % cols)
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 { a } else { gcd(b, a % b) }
}

/// Everything compared between a run of the real remap and the oracle.
#[derive(Debug, PartialEq)]
struct Outcome<V> {
    /// Per processor: local destination storage plus owned `(index, value)`s.
    results: Vec<V>,
    traffic: Vec<(u64, u64)>,
    time_bits: Vec<u64>,
}

fn run<V, P>(p: usize, prog: P, oracle: bool) -> Outcome<V>
where
    V: Send + 'static,
    P: Fn(&mut Cx, bool) -> V + Send + Sync + 'static,
{
    let machine = Machine::simulated(p, MachineModel::paragon());
    let rep = spmd(&machine, move |cx| {
        // Stagger the processors so any reordering of messages would show
        // in the clocks.
        cx.charge_seconds(1e-5 * (cx.phys_rank() as f64 + 1.0));
        prog(cx, oracle)
    });
    Outcome {
        results: rep.results,
        traffic: rep.traffic,
        time_bits: rep.times.iter().map(|t| t.to_bits()).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn remap2_matches_per_element_walk(
        shape in (1usize..7, 1usize..9, 1usize..9, any::<bool>()),
        sd in (arb_dist(), arb_dist()),
        dd in (arb_dist(), arb_dist()),
        picks in (0usize..8, 0usize..8),
        sg in arb_group(),
        dg in arb_group(),
        map in (0u8..4, 0usize..5),
        mode in arb_mode(),
    ) {
        let (p, rows, cols, square) = shape;
        let ((s_pick, d_pick), (kind, k)) = (picks, map);
        let cols = if square { rows } else { cols };
        let data: Vec<u64> = (0..rows * cols).map(|i| 1000 + i as u64).collect();
        let s_group = group_of(1, p, sg.0, sg.1, sg.2);
        let d_group = group_of(2, p, dg.0, dg.1, dg.2);
        let (sd, s_grid) = grid_for(sd, s_group.len(), s_pick);
        let (dd, d_grid) = grid_for(dd, d_group.len(), d_pick);
        let f = map2(kind, rows, cols, k);
        let expect: Vec<u64> = (0..rows * cols).map(|i| {
            let (sr, sc) = f(i / cols, i % cols);
            data[sr * cols + sc]
        }).collect();
        let prog = move |cx: &mut Cx, oracle: bool| {
            let mut src = DArray2::with_grid(cx, &s_group, [rows, cols], sd, s_grid, 0u64);
            src.for_each_owned(|r, c, v| *v = data[r * cols + c]);
            let mut dst = DArray2::with_grid(cx, &d_group, [rows, cols], dd, d_grid, 7u64);
            let f = map2(kind, rows, cols, k);
            if oracle {
                oracle_remap2(cx, &mut dst, &src, f, mode);
            } else {
                copy_remap2_with(cx, &mut dst, &src, f, mode);
            }
            let owned = dst.fold_owned(Vec::new(), |mut acc, r, c, v| {
                acc.push((r * cols + c, v));
                acc
            });
            (dst.local().to_vec(), owned)
        };
        let got = run(p, prog.clone(), false);
        let want = run(p, prog, true);
        for (_, owned) in &got.results {
            for &(i, v) in owned {
                prop_assert_eq!(v, expect[i], "element {}", i);
            }
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn remap1_matches_per_element_walk(
        p in 1usize..7,
        n in 1usize..24,
        src_n in 1usize..24,
        sd in arb_dist1(),
        dd in arb_dist1(),
        sg in arb_group(),
        dg in arb_group(),
        lo in 0usize..24,
        len in 0usize..24,
        kind in 0u8..3,
        k in 0usize..7,
        mode in arb_mode(),
    ) {
        let lo = lo % n;
        let range = lo..(lo + len).min(n);
        let data: Vec<u64> = (0..src_n).map(|i| 1000 + i as u64).collect();
        let s_group = group_of(1, p, sg.0, sg.1, sg.2);
        let d_group = group_of(2, p, dg.0, dg.1, dg.2);
        // Reverse, clamped shift, or a hash; each lands inside the source.
        let f = move |i: usize| match kind {
            0 => src_n - 1 - i % src_n,
            1 => (i + k).min(src_n - 1),
            _ => (i * 7 + k * 13 + (i * i) % 5) % src_n,
        };
        let walked = range.clone();
        let prog = move |cx: &mut Cx, oracle: bool| {
            let src = DArray1::from_global(cx, &s_group, sd, &data);
            let mut dst = DArray1::new(cx, &d_group, n, dd, 7u64);
            if oracle {
                oracle_remap1(cx, &mut dst, walked.clone(), &src, f, mode);
            } else {
                copy_remap1_range(cx, &mut dst, walked.clone(), &src, f, mode);
            }
            let owned = dst.fold_owned(Vec::new(), |mut acc, i, v| {
                acc.push((i, v));
                acc
            });
            (dst.local().to_vec(), owned)
        };
        let got = run(p, prog.clone(), false);
        let want = run(p, prog, true);
        for (_, owned) in &got.results {
            for &(i, v) in owned {
                let expect = if range.contains(&i) { 1000 + f(i) as u64 } else { 7 };
                prop_assert_eq!(v, expect, "element {}", i);
            }
        }
        prop_assert_eq!(got, want);
    }
}
