//! One-dimensional fast Fourier transforms.
//!
//! Radix-2 iterative Cooley–Tukey, plus an O(n²) direct DFT used as the
//! test oracle. The FFT-Hist, radar and stereo applications call these on
//! the rows/columns they own; [`fft_flops`] is the standard operation
//! count the simulator charges for one transform.
//!
//! # Plans
//!
//! Every radix-2 transform runs through an [`FftPlan`], which holds what
//! depends only on the length and direction:
//!
//! * the bit-reversal swap pairs `(i, j)`, `i < j`;
//! * one twiddle table per butterfly stage — `n - 1` complex numbers in
//!   all, so a length-256 plan is about 4 KiB.
//!
//! Building a plan costs one pass of the twiddle recurrence (a couple of
//! microseconds at n = 256), so callers build one per batch of
//! transforms rather than caching them. [`FftPlan::run`] transforms one
//! contiguous vector; [`FftPlan::run_columns`] transforms every column of
//! a row-major tile in place, swapping whole rows and running each
//! butterfly across the contiguous elements of a row pair.
//!
//! # Bit identity
//!
//! A planned transform is bit-for-bit the textbook iterative kernel that
//! recomputes `w = 1; w *= wlen` inside every block of every stage: each
//! table entry is produced by exactly that recurrence (same `wlen`, same
//! multiplications, in the same order), the butterfly is the same
//! `u + v·w`, `u − v·w` with `v·w` formed the same way, and Rust does not
//! contract `a·b − c·d` into fused multiply-adds. Columns of a tile go
//! through the same operations as a gathered column would. So virtual
//! times, histograms and oracles do not move when code switches between
//! [`fft_in_place`], [`FftPlan::run`] and [`FftPlan::run_columns`].

use crate::complex::Complex;

/// A radix-2 FFT of one power-of-two length and direction, built once
/// and run on any number of vectors or tile columns (see the module
/// docs). Length 0 is allowed and every run of it is a no-op.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Pairs exchanged by the bit-reversal permutation, `i < j`.
    swaps: Vec<(usize, usize)>,
    /// Every stage's twiddles, concatenated: the stage whose butterflies
    /// span `half` elements owns `twiddles[half - 1..2 * half - 1]`.
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Plan a length-`n` transform. `inverse` selects the unscaled
    /// inverse. Panics unless `n` is zero or a power of two.
    pub fn new(n: usize, inverse: bool) -> Self {
        assert!(n == 0 || n.is_power_of_two(), "radix-2 FFT needs a power-of-two length, got {n}");
        let mut swaps = Vec::new();
        if n > 1 {
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
                if i < j {
                    swaps.push((i, j));
                }
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            let mut w = Complex::ONE;
            for _ in 0..len / 2 {
                twiddles.push(w);
                w *= wlen;
            }
            len <<= 1;
        }
        FftPlan { n, swaps, twiddles }
    }

    /// `(half, twiddles)` of each butterfly stage, smallest first.
    fn stages(&self) -> impl Iterator<Item = (usize, &[Complex])> + '_ {
        std::iter::successors(Some(1usize), |h| Some(h << 1))
            .take_while(move |&h| h < self.n)
            .map(move |h| (h, &self.twiddles[h - 1..2 * h - 1]))
    }

    /// Transform `data` in place. `data.len()` must equal the plan length.
    pub fn run(&self, data: &mut [Complex]) {
        assert_eq!(data.len(), self.n, "FFT plan length mismatch");
        for &(i, j) in &self.swaps {
            data.swap(i, j);
        }
        for (half, tw) in self.stages() {
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi).zip(tw) {
                    butterfly(a, b, w);
                }
            }
        }
    }

    /// Transform every column of the row-major `n x cols` tile `data` in
    /// place — bitwise the same as gathering each column, running
    /// [`FftPlan::run`] on it and scattering it back.
    pub fn run_columns(&self, data: &mut [Complex], cols: usize) {
        assert_eq!(data.len(), self.n * cols, "FFT plan length mismatch");
        if cols == 0 {
            return;
        }
        for &(i, j) in &self.swaps {
            let (head, tail) = data.split_at_mut(j * cols);
            head[i * cols..(i + 1) * cols].swap_with_slice(&mut tail[..cols]);
        }
        for (half, tw) in self.stages() {
            for block in data.chunks_exact_mut(2 * half * cols) {
                let (lo, hi) = block.split_at_mut(half * cols);
                let pairs = lo.chunks_exact_mut(cols).zip(hi.chunks_exact_mut(cols));
                for ((lo_row, hi_row), &w) in pairs.zip(tw) {
                    for (a, b) in lo_row.iter_mut().zip(hi_row) {
                        butterfly(a, b, w);
                    }
                }
            }
        }
    }
}

#[inline(always)]
fn butterfly(a: &mut Complex, b: &mut Complex, w: Complex) {
    let u = *a;
    let v = *b * w;
    *a = u + v;
    *b = u - v;
}

/// In-place radix-2 FFT. `data.len()` must be zero or a power of two.
/// `inverse` computes the unscaled inverse transform; callers divide by
/// `n` themselves if they need the unitary roundtrip. To transform many
/// vectors of one length, build an [`FftPlan`] once instead.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
    FftPlan::new(data.len(), inverse).run(data);
}

/// Forward FFT returning a new vector.
pub fn fft(data: &[Complex]) -> Vec<Complex> {
    let mut v = data.to_vec();
    fft_in_place(&mut v, false);
    v
}

/// Unitary inverse FFT returning a new vector (scaled by `1/n`).
pub fn ifft(data: &[Complex]) -> Vec<Complex> {
    let mut v = data.to_vec();
    fft_in_place(&mut v, true);
    let scale = 1.0 / v.len() as f64;
    for z in &mut v {
        *z = z.scale(scale);
    }
    v
}

/// FFT of **any** length via Bluestein's chirp-z algorithm (arbitrary-n
/// DFT as a convolution evaluated with power-of-two FFTs). Lets the
/// radar pipeline use the paper's exact 40-pulse (10 dwells × 4
/// channels) Doppler transform instead of padding to a power of two.
pub fn fft_any(data: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = data.len();
    if n <= 1 {
        return data.to_vec();
    }
    if n.is_power_of_two() {
        let mut v = data.to_vec();
        fft_in_place(&mut v, inverse);
        return v;
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    // Chirp w_k = e^{sign * i * pi * k^2 / n}; X_k = conj-chirped
    // convolution of (x_k * chirp_k) with conj(chirp).
    let chirp: Vec<Complex> = (0..n)
        .map(|k| {
            // k^2 mod 2n avoids precision loss for large k.
            let k2 = (k * k) % (2 * n);
            Complex::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64)
        })
        .collect();
    let m = (2 * n - 1).next_power_of_two();
    let mut a = vec![Complex::ZERO; m];
    for k in 0..n {
        a[k] = data[k] * chirp[k];
    }
    let mut b = vec![Complex::ZERO; m];
    for k in 0..n {
        let c = chirp[k].conj();
        b[k] = c;
        if k != 0 {
            b[m - k] = c;
        }
    }
    let forward = FftPlan::new(m, false);
    forward.run(&mut a);
    forward.run(&mut b);
    for (x, y) in a.iter_mut().zip(&b) {
        *x *= *y;
    }
    FftPlan::new(m, true).run(&mut a);
    let scale = 1.0 / m as f64;
    (0..n).map(|k| (a[k] * chirp[k]).scale(scale)).collect()
}

/// Flop count for an arbitrary-length FFT: three power-of-two FFTs of
/// the padded length plus the chirp multiplications.
pub fn fft_any_flops(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    if n.is_power_of_two() {
        return fft_flops(n);
    }
    let m = (2 * n - 1).next_power_of_two();
    3.0 * fft_flops(m) + 12.0 * n as f64
}

/// Direct O(n²) DFT — the oracle for FFT tests. Any length.
pub fn dft_reference(data: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = data.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in data.iter().enumerate() {
                let ang = sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc += x * Complex::cis(ang);
            }
            acc
        })
        .collect()
}

/// Floating point operations of one radix-2 FFT of length `n`
/// (the conventional `5 n log2 n` count).
pub fn fft_flops(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    5.0 * n as f64 * (n as f64).log2()
}

/// Sequential 2-D FFT of a row-major `rows x cols` matrix: columns first,
/// then rows (the FFT-Hist order). Used as the oracle for the distributed
/// pipeline. Both dimensions must be powers of two.
pub fn fft2d_reference(data: &[Complex], rows: usize, cols: usize) -> Vec<Complex> {
    assert_eq!(data.len(), rows * cols);
    let mut m = data.to_vec();
    // Column FFTs.
    let mut col = vec![Complex::ZERO; rows];
    for c in 0..cols {
        for r in 0..rows {
            col[r] = m[r * cols + c];
        }
        fft_in_place(&mut col, false);
        for r in 0..rows {
            m[r * cols + c] = col[r];
        }
    }
    // Row FFTs.
    for r in 0..rows {
        fft_in_place(&mut m[r * cols..(r + 1) * cols], false);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_vec(a: &[Complex], b: &[Complex], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.approx_eq(*y, tol))
    }

    #[test]
    fn impulse_transforms_to_ones() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        let y = fft(&x);
        assert!(y.iter().all(|z| z.approx_eq(Complex::ONE, 1e-12)));
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let x = vec![Complex::ONE; 16];
        let y = fft(&x);
        assert!(y[0].approx_eq(Complex::new(16.0, 0.0), 1e-9));
        assert!(y[1..].iter().all(|z| z.approx_eq(Complex::ZERO, 1e-9)));
    }

    #[test]
    fn matches_dft_reference() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let fast = fft(&x);
            let slow = dft_reference(&x, false);
            assert!(approx_vec(&fast, &slow, 1e-6), "n = {n}");
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Complex> =
            (0..64).map(|i| Complex::new(i as f64, -(i as f64) * 0.5)).collect();
        let y = ifft(&fft(&x));
        assert!(approx_vec(&x, &y, 1e-9));
    }

    #[test]
    fn single_frequency_peaks_in_right_bin() {
        let n = 32;
        let k0 = 5;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * (k0 * i) as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (k, z) in y.iter().enumerate() {
            if k == k0 {
                assert!(z.approx_eq(Complex::new(n as f64, 0.0), 1e-9));
            } else {
                assert!(z.abs() < 1e-9, "leak at bin {k}: {z:?}");
            }
        }
    }

    #[test]
    fn bluestein_matches_dft_for_awkward_lengths() {
        for n in [3usize, 5, 7, 12, 40, 100] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.9).cos(), (i as f64 * 0.4).sin()))
                .collect();
            let fast = fft_any(&x, false);
            let slow = dft_reference(&x, false);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(a.approx_eq(*b, 1e-7 * n as f64), "n={n}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn bluestein_power_of_two_path_agrees_with_radix2() {
        let x: Vec<Complex> =
            (0..16).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        assert_eq!(fft_any(&x, false), fft(&x));
    }

    #[test]
    fn bluestein_inverse_roundtrips() {
        let n = 40; // the radar's 10 dwells x 4 channels
        let x: Vec<Complex> =
            (0..n).map(|i| Complex::new((i as f64).sin(), (i as f64).cos())).collect();
        let y = fft_any(&x, false);
        let back: Vec<Complex> =
            fft_any(&y, true).into_iter().map(|z| z.scale(1.0 / n as f64)).collect();
        for (a, b) in x.iter().zip(&back) {
            assert!(a.approx_eq(*b, 1e-8), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn fft_any_flops_reasonable() {
        assert_eq!(fft_any_flops(16), fft_flops(16));
        assert!(fft_any_flops(40) > fft_flops(64));
        assert_eq!(fft_any_flops(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let mut x = vec![Complex::ZERO; 12];
        fft_in_place(&mut x, false);
    }

    #[test]
    fn empty_length_is_a_no_op() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
        let mut empty: [Complex; 0] = [];
        fft_in_place(&mut empty, false);
        fft_in_place(&mut empty, true);
        FftPlan::new(0, false).run(&mut empty);
        FftPlan::new(0, true).run_columns(&mut empty, 7);
    }

    #[test]
    fn unit_length_is_the_identity() {
        // n = 1 has zero index bits; the bit-reversal shift `>> (32 - bits)`
        // would overflow, so the plan must not take it.
        let x = [Complex::new(0.25, -3.5)];
        assert_eq!(fft(&x), x);
        assert_eq!(ifft(&x), x);
        let mut tile = [Complex::new(1.0, 2.0), Complex::new(-0.5, 0.0), Complex::new(7.0, -1.0)];
        let before = tile;
        FftPlan::new(1, false).run_columns(&mut tile, 3);
        assert_eq!(tile, before);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(fft_flops(1), 0.0);
        assert_eq!(fft_flops(8), 5.0 * 8.0 * 3.0);
    }

    #[test]
    fn fft2d_matches_separable_reference() {
        let rows = 4;
        let cols = 8;
        let data: Vec<Complex> = (0..rows * cols)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let got = fft2d_reference(&data, rows, cols);
        // Independent check: full 2-D DFT.
        let mut expect = vec![Complex::ZERO; rows * cols];
        for kr in 0..rows {
            for kc in 0..cols {
                let mut acc = Complex::ZERO;
                for r in 0..rows {
                    for c in 0..cols {
                        let ang = -2.0 * std::f64::consts::PI
                            * ((kr * r) as f64 / rows as f64 + (kc * c) as f64 / cols as f64);
                        acc += data[r * cols + c] * Complex::cis(ang);
                    }
                }
                expect[kr * cols + kc] = acc;
            }
        }
        assert!(approx_vec(&got, &expect, 1e-6));
    }
}
