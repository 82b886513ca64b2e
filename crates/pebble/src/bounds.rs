//! I/O lower bounds: the "best possible" half of the paper's claims.
//!
//! The paper cites two optimality results:
//!
//! * **Matrix multiplication** (Hong & Kung 1981): any schedule moving data
//!   through a fast memory of `S` words performs `Q = Ω(n³/√S)` I/O, so the
//!   blocked scheme's `Θ(√M)` intensity — and hence `M_new = α²·M_old` — is
//!   the best possible.
//! * **FFT** (Hong & Kung 1981): `Q = Ω(n·log n / log S)`, making the
//!   blocked-pass scheme and `M_new = M_old^α` optimal.
//!
//! The functions here provide *conservative explicit-constant* versions of
//! those bounds (constants chosen safely below the published ones), plus the
//! trivial compulsory-I/O bound (every input read, every output written at
//! least once). Experiments check `measured ≥ bound` and
//! `measured / bound = O(1)`.

/// Conservative lower bound on pebble-game I/O for `n × n` matrix
/// multiplication with `S` red pebbles:
/// `max(compulsory, n³ / (8·√S))`.
///
/// Compulsory I/O = `2n²` input reads + `n²` output writes.
///
/// Both terms are computed in `u128` and clamped to `u64::MAX`, so a
/// large `n` never wraps; a bound clamped down is still a lower bound.
#[must_use]
pub fn matmul_lower_bound(n: usize, s: usize) -> u64 {
    let n = n as u128;
    let compulsory = u64::try_from((3 * n).saturating_mul(n)).unwrap_or(u64::MAX);
    // A saturated n³ (n > 2^42) still floors past u64::MAX below, as
    // 8·√S < 2^35: the cast saturates.
    let cube = n.saturating_mul(n).saturating_mul(n);
    let hk = (cube as f64 / (8.0 * (s as f64).sqrt())).floor() as u64;
    compulsory.max(hk)
}

/// Conservative lower bound on pebble-game I/O for an `n`-point FFT with
/// `S` red pebbles: `max(compulsory, n·log₂n / (8·log₂(2S)))`.
///
/// Compulsory I/O = `n` input reads + `n` output writes.
#[must_use]
pub fn fft_lower_bound(n: usize, s: usize) -> u64 {
    let nf = n as f64;
    let compulsory = 2 * n as u64;
    let hk = (nf * nf.log2() / (8.0 * (2.0 * s as f64).log2())).floor() as u64;
    compulsory.max(hk)
}

/// The compulsory bound for an arbitrary DAG: every input an output
/// depends on must be read at least once, and every output written at
/// least once. Inputs no output depends on are excluded (they never need a
/// pebble at all).
#[must_use]
pub fn compulsory_lower_bound(dag: &crate::dag::Dag) -> u64 {
    // Reverse reachability from the outputs.
    let mut needed = vec![false; dag.len()];
    let mut stack: Vec<crate::dag::NodeId> = dag.outputs().to_vec();
    while let Some(v) = stack.pop() {
        if needed[v.index()] {
            continue;
        }
        needed[v.index()] = true;
        stack.extend_from_slice(dag.preds(v));
    }
    let needed_inputs = dag.inputs().iter().filter(|v| needed[v.index()]).count();
    (needed_inputs + dag.outputs().len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{fft_dag, matmul_dag};
    use crate::strategies::{
        blocked_fft_order, blocked_matmul_order, schedule_with_order, EvictionPolicy,
    };

    #[test]
    fn matmul_bound_shapes() {
        // Small S: the n³/√S term dominates.
        assert!(matmul_lower_bound(64, 4) > 3 * 64 * 64);
        // Huge S: compulsory dominates.
        assert_eq!(matmul_lower_bound(8, 1 << 20), 3 * 64);
        // Monotone decreasing in S.
        assert!(matmul_lower_bound(32, 4) >= matmul_lower_bound(32, 64));
    }

    #[test]
    fn matmul_bound_does_not_wrap_past_the_u64_cube() {
        // n³ fits u64 at n = 2,642,245 and not at n = 2,642,246; with
        // S = 64 the Hong–Kung term is n³/64, exact in u128.
        for n in [2_642_245usize, 2_642_246] {
            let n128 = n as u128;
            let reference = u64::try_from(n128 * n128 * n128 / 64).unwrap();
            let bound = matmul_lower_bound(n, 64);
            assert!(
                bound.abs_diff(reference) <= reference >> 50,
                "n = {n}: {bound} vs {reference}"
            );
        }
        // Past the u64 range both terms clamp rather than wrap.
        assert_eq!(matmul_lower_bound(usize::MAX, 1), u64::MAX);
        assert_eq!(matmul_lower_bound(1 << 40, usize::MAX), u64::MAX);
    }

    #[test]
    fn fft_bound_shapes() {
        assert_eq!(fft_lower_bound(16, 1 << 20), 32);
        assert!(fft_lower_bound(1 << 12, 4) >= 2 << 12);
        // With S = 1 and huge N the Hong-Kung term finally dominates.
        assert!(fft_lower_bound(1 << 17, 1) > 2 << 17);
        assert!(fft_lower_bound(256, 4) >= fft_lower_bound(256, 64));
    }

    #[test]
    fn blocked_matmul_respects_and_approaches_bound() {
        let n = 8;
        for (b, s) in [(1usize, 5usize), (2, 16)] {
            let dag = matmul_dag(n);
            let out =
                schedule_with_order(&dag, &blocked_matmul_order(n, b), s, EvictionPolicy::Belady)
                    .unwrap();
            let bound = matmul_lower_bound(n, s);
            assert!(
                out.io >= bound,
                "b={b}, s={s}: measured {} below bound {bound}",
                out.io
            );
            // Within a constant factor (generous: 64 given the /8 constant).
            assert!(
                out.io <= 64 * bound,
                "b={b}, s={s}: measured {} too far above bound {bound}",
                out.io
            );
        }
    }

    #[test]
    fn blocked_fft_respects_and_approaches_bound() {
        for (n, block, s) in [(16usize, 4usize, 12usize), (32, 4, 12), (64, 8, 24)] {
            let dag = fft_dag(n);
            let out = schedule_with_order(
                &dag,
                &blocked_fft_order(n, block),
                s,
                EvictionPolicy::Belady,
            )
            .unwrap();
            let bound = fft_lower_bound(n, s);
            assert!(
                out.io >= bound,
                "n={n}: measured {} below bound {bound}",
                out.io
            );
            assert!(
                out.io <= 64 * bound,
                "n={n}: measured {} too far above bound {bound}",
                out.io
            );
        }
    }

    #[test]
    fn compulsory_bound_counts_boundary() {
        let dag = matmul_dag(3);
        assert_eq!(compulsory_lower_bound(&dag), (2 * 9 + 9) as u64);
    }
}
