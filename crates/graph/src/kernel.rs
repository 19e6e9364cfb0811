//! Wide (SIMD-style) membership kernels for the sensing hot path.
//!
//! Every range query in this crate bottoms out in the same inner loop:
//! given a cell's candidate coordinates in struct-of-arrays layout, test
//! each candidate against a disk or an axis-aligned rectangle and emit the
//! offsets that pass. At 10⁵–10⁶-robot scale that loop runs ~5·10⁸ times
//! per `AWave` sweep, so the kernels here ([`disk_scan`], [`rect_scan`],
//! [`disk_any`]) process a hand-unrolled block of [`LANES`] candidates per
//! iteration plus a scalar tail. The block is straight-line lane
//! arithmetic with no early exits, exactly the shape LLVM's
//! auto-vectorizer turns into `f64x4` SIMD on any target (the workspace
//! pins stable Rust, so `core::simd` is out of reach and no intrinsics are
//! used).
//!
//! # Determinism
//!
//! The kernels compute exactly what a one-candidate-per-iteration loop
//! does, and the tests keep such a loop as an oracle (the parity
//! proptests below):
//!
//! * the per-candidate predicate — for disks `dx·dx + dy·dy <= accept²`
//!   and for rectangles four closed compares — uses the same IEEE-754
//!   double operations in the same order per candidate, with no
//!   fused-multiply-add, reassociation, or reduced precision anywhere;
//! * accepted offsets are emitted in strictly ascending order: a block's
//!   lane mask is computed first, then its bits are walked lane 0 to lane
//!   [`LANES`]` - 1`.
//!
//! Only the *grouping* of iterations differs from the plain loop, and
//! grouping is observable neither in the emitted sequence nor in any
//! float result.

/// Candidates per wide-kernel block. Four doubles fill one AVX2 register;
/// on wider units LLVM unrolls further on its own.
pub const LANES: usize = 4;

/// Disk-membership scan: calls `emit(k)` for every `k` with
/// `(xs[k] - qx)² + (ys[k] - qy)² <= accept_sq`, in ascending `k`,
/// processing [`LANES`] candidates per straight-line block.
///
/// `accept_sq` is the squared acceptance radius — callers square their
/// `r + EPS` once per query. Slices must have equal length (the shorter
/// is used in release builds; debug builds assert).
///
/// # Example
///
/// ```
/// use freezetag_graph::kernel::disk_scan;
///
/// let xs = [0.0, 1.0, 3.0];
/// let ys = [0.0, 0.0, 0.0];
/// let mut hits = Vec::new();
/// disk_scan(&xs, &ys, 0.0, 0.0, 1.0, |k| hits.push(k));
/// assert_eq!(hits, vec![0, 1]);
/// ```
#[inline]
pub fn disk_scan(
    xs: &[f64],
    ys: &[f64],
    qx: f64,
    qy: f64,
    accept_sq: f64,
    mut emit: impl FnMut(usize),
) {
    debug_assert_eq!(xs.len(), ys.len());
    let n = xs.len().min(ys.len());
    let mut base = 0;
    while base + LANES <= n {
        let d0x = xs[base] - qx;
        let d0y = ys[base] - qy;
        let d1x = xs[base + 1] - qx;
        let d1y = ys[base + 1] - qy;
        let d2x = xs[base + 2] - qx;
        let d2y = ys[base + 2] - qy;
        let d3x = xs[base + 3] - qx;
        let d3y = ys[base + 3] - qy;
        let mask = (d0x * d0x + d0y * d0y <= accept_sq) as u32
            | (((d1x * d1x + d1y * d1y <= accept_sq) as u32) << 1)
            | (((d2x * d2x + d2y * d2y <= accept_sq) as u32) << 2)
            | (((d3x * d3x + d3y * d3y <= accept_sq) as u32) << 3);
        if mask != 0 {
            for k in 0..LANES {
                if mask & (1 << k) != 0 {
                    emit(base + k);
                }
            }
        }
        base += LANES;
    }
    for k in base..n {
        let dx = xs[k] - qx;
        let dy = ys[k] - qy;
        if dx * dx + dy * dy <= accept_sq {
            emit(k);
        }
    }
}

/// Existence variant of [`disk_scan`]: whether any candidate lies in the
/// disk. Early-exits at block granularity (existence is order-free).
#[inline]
pub fn disk_any(xs: &[f64], ys: &[f64], qx: f64, qy: f64, accept_sq: f64) -> bool {
    debug_assert_eq!(xs.len(), ys.len());
    let n = xs.len().min(ys.len());
    let mut base = 0;
    while base + LANES <= n {
        let d0x = xs[base] - qx;
        let d0y = ys[base] - qy;
        let d1x = xs[base + 1] - qx;
        let d1y = ys[base + 1] - qy;
        let d2x = xs[base + 2] - qx;
        let d2y = ys[base + 2] - qy;
        let d3x = xs[base + 3] - qx;
        let d3y = ys[base + 3] - qy;
        if (d0x * d0x + d0y * d0y <= accept_sq)
            | (d1x * d1x + d1y * d1y <= accept_sq)
            | (d2x * d2x + d2y * d2y <= accept_sq)
            | (d3x * d3x + d3y * d3y <= accept_sq)
        {
            return true;
        }
        base += LANES;
    }
    for k in base..n {
        let dx = xs[k] - qx;
        let dy = ys[k] - qy;
        if dx * dx + dy * dy <= accept_sq {
            return true;
        }
    }
    false
}

/// Rectangle-membership scan: calls `emit(k)` for every `k` with
/// `x0 <= xs[k] <= x1 && y0 <= ys[k] <= y1`, in ascending `k`, [`LANES`]
/// candidates per block.
///
/// Bounds are closed and taken as given — callers fold their `EPS` slack
/// in once (`x0 = min.x - EPS`, …), which reproduces `Rect::contains`
/// bit-for-bit.
///
/// # Example
///
/// ```
/// use freezetag_graph::kernel::rect_scan;
///
/// let xs = [0.5, 2.0, 1.0];
/// let ys = [0.5, 0.5, 3.0];
/// let mut hits = Vec::new();
/// rect_scan(&xs, &ys, 0.0, 0.0, 1.5, 1.5, |k| hits.push(k));
/// assert_eq!(hits, vec![0]);
/// ```
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn rect_scan(
    xs: &[f64],
    ys: &[f64],
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    mut emit: impl FnMut(usize),
) {
    debug_assert_eq!(xs.len(), ys.len());
    let n = xs.len().min(ys.len());
    let mut base = 0;
    while base + LANES <= n {
        let mask = ((xs[base] >= x0 && xs[base] <= x1 && ys[base] >= y0 && ys[base] <= y1) as u32)
            | (((xs[base + 1] >= x0
                && xs[base + 1] <= x1
                && ys[base + 1] >= y0
                && ys[base + 1] <= y1) as u32)
                << 1)
            | (((xs[base + 2] >= x0
                && xs[base + 2] <= x1
                && ys[base + 2] >= y0
                && ys[base + 2] <= y1) as u32)
                << 2)
            | (((xs[base + 3] >= x0
                && xs[base + 3] <= x1
                && ys[base + 3] >= y0
                && ys[base + 3] <= y1) as u32)
                << 3);
        if mask != 0 {
            for k in 0..LANES {
                if mask & (1 << k) != 0 {
                    emit(base + k);
                }
            }
        }
        base += LANES;
    }
    for k in base..n {
        if xs[k] >= x0 && xs[k] <= x1 && ys[k] >= y0 && ys[k] <= y1 {
            emit(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-candidate-per-iteration disk loop: the oracle the tests hold
    /// [`disk_scan`] to.
    fn disk_scan_scalar(
        xs: &[f64],
        ys: &[f64],
        qx: f64,
        qy: f64,
        accept_sq: f64,
        mut emit: impl FnMut(usize),
    ) {
        let n = xs.len().min(ys.len());
        for k in 0..n {
            let dx = xs[k] - qx;
            let dy = ys[k] - qy;
            if dx * dx + dy * dy <= accept_sq {
                emit(k);
            }
        }
    }

    /// The one-candidate-per-iteration rectangle loop: the oracle the tests
    /// hold [`rect_scan`] to.
    fn rect_scan_scalar(
        xs: &[f64],
        ys: &[f64],
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
        mut emit: impl FnMut(usize),
    ) {
        let n = xs.len().min(ys.len());
        for k in 0..n {
            if xs[k] >= x0 && xs[k] <= x1 && ys[k] >= y0 && ys[k] <= y1 {
                emit(k);
            }
        }
    }

    fn collect_disk(
        wide: bool,
        xs: &[f64],
        ys: &[f64],
        q: (f64, f64),
        accept_sq: f64,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        if wide {
            disk_scan(xs, ys, q.0, q.1, accept_sq, |k| out.push(k));
        } else {
            disk_scan_scalar(xs, ys, q.0, q.1, accept_sq, |k| out.push(k));
        }
        out
    }

    fn collect_rect(wide: bool, xs: &[f64], ys: &[f64], b: [f64; 4]) -> Vec<usize> {
        let mut out = Vec::new();
        if wide {
            rect_scan(xs, ys, b[0], b[1], b[2], b[3], |k| out.push(k));
        } else {
            rect_scan_scalar(xs, ys, b[0], b[1], b[2], b[3], |k| out.push(k));
        }
        out
    }

    #[test]
    fn empty_slices_emit_nothing() {
        assert!(collect_disk(false, &[], &[], (0.0, 0.0), 1.0).is_empty());
        assert!(collect_disk(true, &[], &[], (0.0, 0.0), 1.0).is_empty());
        assert!(collect_rect(false, &[], &[], [0.0, 0.0, 1.0, 1.0]).is_empty());
        assert!(collect_rect(true, &[], &[], [0.0, 0.0, 1.0, 1.0]).is_empty());
        assert!(!disk_any(&[], &[], 0.0, 0.0, 1.0));
    }

    #[test]
    fn tail_lengths_one_through_seven_match() {
        // 1..=7 covers "no full block", "one block + every tail length".
        for n in 1..=7usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
            let ys: Vec<f64> = (0..n).map(|i| (i % 3) as f64 * 0.5).collect();
            let s = collect_disk(false, &xs, &ys, (1.0, 0.5), 1.0);
            let w = collect_disk(true, &xs, &ys, (1.0, 0.5), 1.0);
            assert_eq!(s, w, "disk n={n}");
            let sr = collect_rect(false, &xs, &ys, [0.25, 0.0, 2.0, 0.75]);
            let wr = collect_rect(true, &xs, &ys, [0.25, 0.0, 2.0, 0.75]);
            assert_eq!(sr, wr, "rect n={n}");
        }
    }

    #[test]
    fn boundary_points_accepted_identically() {
        // Candidates exactly on the disk boundary and rect borders: both
        // kernels run the identical closed compare, so exact-boundary
        // acceptance must agree (and be `true` — closed regions).
        let xs = [1.0, -1.0, 0.0, 0.0, 1.0 + f64::EPSILON];
        let ys = [0.0, 0.0, 1.0, -1.0, 0.0];
        let s = collect_disk(false, &xs, &ys, (0.0, 0.0), 1.0);
        let w = collect_disk(true, &xs, &ys, (0.0, 0.0), 1.0);
        assert_eq!(s, vec![0, 1, 2, 3]);
        assert_eq!(s, w);
        let b = [0.0, 0.0, 1.0, 1.0];
        let xs = [0.0, 1.0, 1.0 + f64::EPSILON, 0.5];
        let ys = [0.0, 1.0, 0.5, -f64::EPSILON];
        let s = collect_rect(false, &xs, &ys, b);
        let w = collect_rect(true, &xs, &ys, b);
        assert_eq!(s, vec![0, 1]);
        assert_eq!(s, w);
    }

    #[test]
    fn disk_any_agrees_with_scan() {
        let xs: Vec<f64> = (0..13).map(|i| i as f64).collect();
        let ys = vec![0.0; 13];
        for q in [-2.0, 0.0, 6.5, 12.0, 40.0] {
            let want = !collect_disk(false, &xs, &ys, (q, 0.0), 0.25).is_empty();
            assert_eq!(disk_any(&xs, &ys, q, 0.0, 0.25), want, "q={q}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random SoA cell windows: coordinates, including values snapped
        /// onto exact half-integer lattices so boundary hits are common.
        fn arb_coords() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
            prop::collection::vec(((-8.0f64..8.0), (-8.0f64..8.0), 0u32..4), 0..40).prop_map(
                |raw| {
                    raw.into_iter()
                        .map(|(x, y, snap)| match snap {
                            0 => ((x * 2.0).round() / 2.0, (y * 2.0).round() / 2.0),
                            1 => (x, (y * 2.0).round() / 2.0),
                            _ => (x, y),
                        })
                        .unzip()
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Scalar and wide disk kernels emit byte-identical sequences
            /// on arbitrary windows, centres and radii (including r = 0
            /// and radii snapping candidates onto the exact boundary).
            #[test]
            fn disk_kernels_identical(
                (xs, ys) in arb_coords(),
                qx in -9.0f64..9.0,
                qy in -9.0f64..9.0,
                r in 0.0f64..12.0,
                snap_q in 0u32..2,
            ) {
                let (qx, qy) = if snap_q == 1 {
                    ((qx * 2.0).round() / 2.0, (qy * 2.0).round() / 2.0)
                } else {
                    (qx, qy)
                };
                let accept_sq = r * r;
                let s = collect_disk(false, &xs, &ys, (qx, qy), accept_sq);
                let w = collect_disk(true, &xs, &ys, (qx, qy), accept_sq);
                prop_assert_eq!(&s, &w);
                prop_assert_eq!(disk_any(&xs, &ys, qx, qy, accept_sq), !s.is_empty());
            }

            /// Scalar and wide rect kernels emit byte-identical sequences
            /// on arbitrary windows and rectangles (degenerate zero-area
            /// rectangles included).
            #[test]
            fn rect_kernels_identical(
                (xs, ys) in arb_coords(),
                ax in -9.0f64..9.0,
                ay in -9.0f64..9.0,
                w in 0.0f64..10.0,
                h in 0.0f64..10.0,
            ) {
                let b = [ax, ay, ax + w, ay + h];
                let s = collect_rect(false, &xs, &ys, b);
                let wv = collect_rect(true, &xs, &ys, b);
                prop_assert_eq!(s, wv);
            }
        }
    }
}
