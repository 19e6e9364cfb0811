use crate::{a_grid, a_separator, a_wave, AGridConfig, ASeparatorConfig, AWaveConfig};
use freezetag_instances::{AdmissibleTuple, Instance};
use freezetag_sim::{
    validate, ConcreteWorld, Recorder, Sim, SimError, Trace, ValidationOptions, ValidationReport,
    WorldView,
};

/// The three distributed algorithms of the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// `ASeparator`: unconstrained energy, makespan `O(ρ + ℓ² log(ρ/ℓ))`.
    Separator,
    /// `AGrid`: energy `Θ(ℓ²)`, makespan `O(ξ_ℓ·ℓ)`.
    Grid,
    /// `AWave`: energy `Θ(ℓ² log ℓ)`, makespan `O(ξ_ℓ + ℓ² log(ξ_ℓ/ℓ))`.
    Wave,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Separator => write!(f, "ASeparator"),
            Algorithm::Grid => write!(f, "AGrid"),
            Algorithm::Wave => write!(f, "AWave"),
        }
    }
}

/// Everything measured on one validated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The algorithm that produced this run.
    pub algorithm: Algorithm,
    /// Time the last robot was woken — the quantity the theorems bound.
    pub makespan: f64,
    /// Time the last robot stopped moving.
    pub completion_time: f64,
    /// Worst per-robot travel (energy).
    pub max_energy: f64,
    /// Total travel of the swarm.
    pub total_energy: f64,
    /// Number of robots woken.
    pub wake_count: usize,
    /// Whether every robot ended awake.
    pub all_awake: bool,
    /// Number of `look` snapshots taken.
    pub looks: usize,
    /// Phase trace (for the figure harness).
    pub trace: Trace,
}

impl RunReport {
    /// Assembles a report from a run's validation (or recorder) figures
    /// over `n` sleeping robots; `all_awake` means all `n + 1` robots
    /// ended awake.
    pub fn from_parts(
        algorithm: Algorithm,
        report: ValidationReport,
        looks: usize,
        n: usize,
        trace: Trace,
    ) -> Self {
        RunReport {
            algorithm,
            makespan: report.makespan,
            completion_time: report.completion_time,
            max_energy: report.max_energy,
            total_energy: report.total_energy,
            wake_count: report.wake_count,
            all_awake: report.robots_awake == n + 1,
            looks,
            trace,
        }
    }
}

/// Dispatches one of the three algorithms on an already-built simulation.
/// Useful for driving adversarial worlds; [`solve`] is the plain-instance
/// convenience wrapper.
pub fn run_algorithm<W: WorldView, R: Recorder>(
    sim: &mut Sim<W, R>,
    tuple: &AdmissibleTuple,
    alg: Algorithm,
) {
    match alg {
        Algorithm::Separator => a_separator(sim, &ASeparatorConfig::new(*tuple)),
        Algorithm::Grid => a_grid(sim, &AGridConfig { ell: tuple.ell }),
        Algorithm::Wave => a_wave(sim, &AWaveConfig { ell: tuple.ell }),
    }
}

/// Solves the dFTP on `instance` with the given input tuple and algorithm,
/// then validates the produced schedule end-to-end (kinematics, wake
/// legality, full coverage).
///
/// # Errors
///
/// Returns the first validation failure — which, on a correct build, never
/// happens for admissible tuples with `ℓ ≥ ℓ*` and `ρ ≥ ρ*`.
///
/// # Example
///
/// ```
/// use freezetag_core::{solve, Algorithm};
/// use freezetag_instances::generators::uniform_disk;
///
/// let inst = uniform_disk(40, 8.0, 1);
/// let report = solve(&inst, &inst.admissible_tuple(), Algorithm::Grid).unwrap();
/// assert!(report.all_awake);
/// ```
pub fn solve(
    instance: &Instance,
    tuple: &AdmissibleTuple,
    alg: Algorithm,
) -> Result<RunReport, SimError> {
    let mut sim = Sim::new(ConcreteWorld::new(instance));
    run_algorithm(&mut sim, tuple, alg);
    let (world, schedule, trace) = sim.into_parts();
    let report = validate(
        &schedule,
        instance.source(),
        instance.positions(),
        &ValidationOptions::default(),
    )?;
    Ok(RunReport::from_parts(
        alg,
        report,
        world.look_count(),
        instance.n(),
        trace,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use freezetag_instances::generators::uniform_disk;

    #[test]
    fn solve_runs_all_three_algorithms() {
        let inst = uniform_disk(25, 6.0, 13);
        let tuple = inst.admissible_tuple();
        for alg in [Algorithm::Separator, Algorithm::Grid, Algorithm::Wave] {
            let rep = solve(&inst, &tuple, alg).expect("valid run");
            assert!(rep.all_awake, "{alg} left robots asleep");
            assert_eq!(rep.wake_count, 25);
            assert!(rep.makespan > 0.0);
            assert!(rep.makespan <= rep.completion_time + 1e-9);
            assert!(rep.looks > 0);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::Separator.to_string(), "ASeparator");
        assert_eq!(Algorithm::Grid.to_string(), "AGrid");
        assert_eq!(Algorithm::Wave.to_string(), "AWave");
    }
}
