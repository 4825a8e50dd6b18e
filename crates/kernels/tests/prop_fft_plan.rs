//! Bitwise oracle tests for [`FftPlan`].
//!
//! The library keeps one radix-2 path. The kernel it replaced — which
//! recomputed the twiddle recurrence `w = 1; w *= wlen` inside every
//! block of every stage — survives here verbatim as
//! [`legacy_fft_in_place`], and every planned transform must equal it bit
//! for bit (`f64::to_bits`), not merely within a tolerance: virtual times
//! and histograms downstream depend on the exact values.
//!
//! Mutation check: building the plan's twiddles as `Complex::cis(k as
//! f64 * ang)` instead of by the recurrence makes all three properties
//! below fail; skipping the multiplication by the unit twiddle `w_0`
//! (which flips the sign of some zeros) makes the `run` and
//! `run_columns` properties fail.

use fx_kernels::complex::Complex;
use fx_kernels::fft::{fft_any, fft_in_place, FftPlan};
use proptest::prelude::*;

/// The pre-plan radix-2 kernel, kept verbatim as the oracle.
fn legacy_fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "radix-2 FFT needs a power-of-two length, got {n}");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }

    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::ONE;
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = data[start + k + len / 2] * w;
                data[start + k] = u + v;
                data[start + k + len / 2] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// Bluestein's algorithm exactly as `fft_any` runs it, on the legacy
/// kernel.
fn legacy_fft_any(data: &[Complex], inverse: bool) -> Vec<Complex> {
    let n = data.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let chirp: Vec<Complex> = (0..n)
        .map(|k| {
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
    legacy_fft_in_place(&mut a, false);
    legacy_fft_in_place(&mut b, false);
    for (x, y) in a.iter_mut().zip(&b) {
        *x *= *y;
    }
    legacy_fft_in_place(&mut a, true);
    let scale = 1.0 / m as f64;
    (0..n).map(|k| (a[k] * chirp[k]).scale(scale)).collect()
}

/// Mostly ordinary values, with signed zeros mixed in: `v * w_0` with
/// `w_0 = 1 + 0i` is not the identity on the sign of a zero, so a kernel
/// that skips that multiplication shows up here.
fn arb_part() -> impl Strategy<Value = f64> {
    (0u32..10, -100.0f64..100.0).prop_map(|(k, x)| match k {
        0 => 0.0,
        1 => -0.0,
        _ => x,
    })
}

fn arb_vec(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec((arb_part(), arb_part()), len)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

fn assert_bitwise(got: &[Complex], want: &[Complex]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "element {}: {:?} vs {:?}",
            i,
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `FftPlan::run` and `fft_in_place`, forward and inverse, for
    /// n = 2^0..2^12.
    fn run_matches_legacy_kernel(
        case in (0..=12u32).prop_flat_map(|log| (arb_vec(1 << log), any::<bool>()))
    ) {
        let (x, inverse) = case;
        let mut want = x.clone();
        legacy_fft_in_place(&mut want, inverse);
        let mut planned = x.clone();
        FftPlan::new(x.len(), inverse).run(&mut planned);
        assert_bitwise(&planned, &want)?;
        let mut wrapped = x;
        fft_in_place(&mut wrapped, inverse);
        assert_bitwise(&wrapped, &want)?;
    }

    /// `FftPlan::run_columns` against gathering each column, running the
    /// legacy kernel on it and scattering it back, for rows 2^0..2^10 and
    /// 1..=33 columns.
    fn run_columns_matches_per_column_legacy_kernel(
        case in (0..=10u32, 1usize..=33).prop_flat_map(|(log, cols)| {
            let rows = 1usize << log;
            (arb_vec(rows * cols), Just(rows), Just(cols), any::<bool>())
        })
    ) {
        let (tile, rows, cols, inverse) = case;
        let mut want = tile.clone();
        let mut col = vec![Complex::ZERO; rows];
        for c in 0..cols {
            for r in 0..rows {
                col[r] = want[r * cols + c];
            }
            legacy_fft_in_place(&mut col, inverse);
            for r in 0..rows {
                want[r * cols + c] = col[r];
            }
        }
        let mut got = tile;
        FftPlan::new(rows, inverse).run_columns(&mut got, cols);
        assert_bitwise(&got, &want)?;
    }

    /// `fft_any` at non-power-of-two lengths: its Bluestein path runs
    /// three radix-2 transforms of the padded length.
    fn fft_any_matches_legacy_bluestein(
        case in (2usize..=300)
            .prop_map(|n| if n.is_power_of_two() { n + 1 } else { n })
            .prop_flat_map(|n| (arb_vec(n), any::<bool>()))
    ) {
        let (x, inverse) = case;
        assert_bitwise(&fft_any(&x, inverse), &legacy_fft_any(&x, inverse))?;
    }
}
