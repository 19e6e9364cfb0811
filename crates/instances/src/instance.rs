use freezetag_geometry::Point;
use freezetag_graph::{connectivity_threshold, radius, InstanceParams};
use std::fmt;

/// The input tuple `(ℓ, ρ, n)` handed to a dFTP algorithm (Section 1.2).
///
/// Admissibility means `ℓ ≤ ρ ≤ nℓ`; algorithms must in addition be run on
/// instances with `ℓ* ≤ ℓ` and `ρ* ≤ ρ` (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissibleTuple {
    /// Upper bound on the connectivity threshold `ℓ*`.
    pub ell: f64,
    /// Upper bound on the radius `ρ*`.
    pub rho: f64,
    /// Number of sleeping robots.
    pub n: usize,
}

impl AdmissibleTuple {
    /// Creates a tuple, checking admissibility.
    ///
    /// # Panics
    ///
    /// Panics if `ℓ ≤ 0`, any value is not finite, or `ℓ ≤ ρ ≤ nℓ` fails.
    pub fn new(ell: f64, rho: f64, n: usize) -> Self {
        assert!(ell > 0.0 && ell.is_finite(), "ell must be positive");
        assert!(rho.is_finite(), "rho must be finite");
        assert!(
            ell <= rho + freezetag_geometry::EPS,
            "inadmissible: ell={ell} > rho={rho}"
        );
        assert!(
            rho <= n as f64 * ell + freezetag_geometry::EPS,
            "inadmissible: rho={rho} > n*ell={}",
            n as f64 * ell
        );
        AdmissibleTuple { ell, rho, n }
    }

    /// The team-size target `4ℓ` of `ASeparator`, rounded up to an integer
    /// robot count and never below 4.
    pub fn team_target(&self) -> usize {
        ((4.0 * self.ell).ceil() as usize).max(4)
    }

    /// The canonical rounding from measured (or declared) bounds to an
    /// integer tuple, shared by [`Instance::admissible_tuple`] and the
    /// experiment engine's preset-ℓ path: epsilon-ceil both values (arc-
    /// length sampling can put a bound at `k + 1e-15`, and a plain ceil
    /// would silently double it), clamp `ℓ ≥ 1` and `ρ ≥ ℓ`.
    ///
    /// # Errors
    ///
    /// A message when the rounded tuple violates `ρ ≤ nℓ` — reachable
    /// when a *declared* `ℓ` is combined with too few robots for the
    /// instance radius (measured bounds satisfy it by Proposition 1).
    pub fn rounded(ell_bound: f64, rho_bound: f64, n: usize) -> Result<Self, String> {
        assert!(
            ell_bound.is_finite() && rho_bound.is_finite(),
            "tuple bounds must be finite"
        );
        let ell = (ell_bound - 1e-9).ceil().max(1.0);
        let rho = (rho_bound.max(ell) - 1e-9).ceil();
        if rho > n as f64 * ell + freezetag_geometry::EPS {
            return Err(format!(
                "inadmissible tuple: rho={rho} exceeds n*ell={} (n={n}, ell={ell})",
                n as f64 * ell
            ));
        }
        Ok(AdmissibleTuple::new(ell, rho, n))
    }
}

impl fmt::Display for AdmissibleTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(ℓ={}, ρ={}, n={})", self.ell, self.rho, self.n)
    }
}

/// A static dFTP instance: the source position and the initial positions of
/// the `n` sleeping robots.
///
/// # Example
///
/// ```
/// use freezetag_geometry::Point;
/// use freezetag_instances::Instance;
///
/// let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)]);
/// assert_eq!(inst.n(), 2);
/// let params = inst.params(None);
/// assert!((params.rho_star - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    source: Point,
    positions: Vec<Point>,
}

impl Instance {
    /// An instance with the source at the origin (the paper's convention
    /// `p₀ = (0,0)`).
    ///
    /// # Panics
    ///
    /// Panics if any position is not finite or coincides with the source
    /// (the paper requires `s ∉ P`).
    pub fn new(positions: Vec<Point>) -> Self {
        Instance::with_source(Point::ORIGIN, positions)
    }

    /// An instance with an explicit source position.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Instance::new`].
    pub fn with_source(source: Point, positions: Vec<Point>) -> Self {
        assert!(source.is_finite(), "source position must be finite");
        for (i, p) in positions.iter().enumerate() {
            assert!(p.is_finite(), "position {i} is not finite");
            assert!(
                p.dist(source) > freezetag_geometry::EPS,
                "position {i} coincides with the source (s ∉ P required)"
            );
        }
        Instance { source, positions }
    }

    /// The source position `p₀`.
    pub fn source(&self) -> Point {
        self.source
    }

    /// The sleeping robots' initial positions `P` (robot `i` is
    /// `positions()[i]`).
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Number of sleeping robots `n`.
    pub fn n(&self) -> usize {
        self.positions.len()
    }

    /// All points with the source first: index 0 is `s`, index `i + 1` is
    /// robot `i`. This is the vertex order used for disk-graph
    /// computations.
    pub fn all_points(&self) -> Vec<Point> {
        let mut v = Vec::with_capacity(self.n() + 1);
        v.push(self.source);
        v.extend_from_slice(&self.positions);
        v
    }

    /// Exact instance parameters `(ρ*, ℓ*, ξ_ℓ)`; `ell = None` evaluates
    /// the eccentricity at `ℓ = ℓ*`.
    pub fn params(&self, ell: Option<f64>) -> InstanceParams {
        InstanceParams::compute(&self.all_points(), 0, ell)
    }

    /// The canonical admissible tuple of this instance: `ℓ = ℓ*` (rounded
    /// up to the next integer, following the paper's integrality
    /// convention), `ρ = max(ρ*, ℓ)` rounded up. Proposition 1 guarantees
    /// the result is admissible. Only `ρ*` and `ℓ*` are computed; callers
    /// that also want `ξ_ℓ` take [`Instance::params`] and round its bounds
    /// with [`AdmissibleTuple::rounded`].
    ///
    /// # Panics
    ///
    /// Panics for an empty instance (`n = 0` gives no positive `ℓ*`).
    pub fn admissible_tuple(&self) -> AdmissibleTuple {
        assert!(self.n() > 0, "empty instance has no admissible tuple");
        let points = self.all_points();
        AdmissibleTuple::rounded(
            connectivity_threshold(&points),
            radius(&points, 0),
            self.n(),
        )
        .expect("Proposition 1: measured bounds round to an admissible tuple")
    }

    /// A tuple with slack: `ℓ` and `ρ` multiplied by the given factors
    /// (≥ 1), for experiments that feed the algorithms loose bounds.
    ///
    /// # Panics
    ///
    /// Panics if a factor is < 1 or the result is inadmissible.
    pub fn loose_tuple(&self, ell_factor: f64, rho_factor: f64) -> AdmissibleTuple {
        assert!(
            ell_factor >= 1.0 && rho_factor >= 1.0,
            "slack factors must be >= 1"
        );
        let base = self.admissible_tuple();
        let ell = (base.ell * ell_factor - 1e-9).ceil();
        // Clamp to the admissible ceiling ρ ≤ nℓ.
        let rho = (base.rho * rho_factor - 1e-9)
            .ceil()
            .max(ell)
            .min(self.n() as f64 * ell);
        AdmissibleTuple::new(ell, rho, self.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_validation() {
        let t = AdmissibleTuple::new(2.0, 8.0, 10);
        assert_eq!(t.team_target(), 8);
        assert_eq!(format!("{t}"), "(ℓ=2, ρ=8, n=10)");
    }

    #[test]
    #[should_panic]
    fn tuple_rejects_ell_above_rho() {
        let _ = AdmissibleTuple::new(3.0, 2.0, 10);
    }

    #[test]
    #[should_panic]
    fn tuple_rejects_rho_above_n_ell() {
        let _ = AdmissibleTuple::new(1.0, 5.0, 4);
    }

    #[test]
    fn team_target_has_floor_of_four() {
        assert_eq!(AdmissibleTuple::new(0.5, 0.5, 1).team_target(), 4);
        assert_eq!(AdmissibleTuple::new(2.5, 5.0, 10).team_target(), 10);
    }

    #[test]
    fn instance_accessors() {
        let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(0.0, 2.0)]);
        assert_eq!(inst.n(), 2);
        assert_eq!(inst.source(), Point::ORIGIN);
        assert_eq!(inst.all_points().len(), 3);
        assert_eq!(inst.all_points()[0], Point::ORIGIN);
    }

    #[test]
    #[should_panic]
    fn instance_rejects_source_collision() {
        let _ = Instance::new(vec![Point::ORIGIN]);
    }

    #[test]
    fn admissible_tuple_is_admissible_and_covers_params() {
        let inst = Instance::new(vec![
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.5),
        ]);
        let t = inst.admissible_tuple();
        let p = inst.params(None);
        assert!(p.admits(t.ell, t.rho, t.n));
    }

    #[test]
    fn loose_tuple_scales() {
        let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)]);
        let t = inst.loose_tuple(2.0, 3.0);
        let base = inst.admissible_tuple();
        assert!(t.ell >= base.ell * 2.0 - 1.0);
        assert!(t.rho >= base.rho);
    }

    #[test]
    fn params_at_custom_ell() {
        let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(2.0, 0.0)]);
        let p = inst.params(Some(0.5));
        assert_eq!(p.xi_ell, None); // 0.5-disk graph disconnected
        let p2 = inst.params(Some(1.0));
        assert_eq!(p2.xi_ell, Some(2.0));
    }
}
