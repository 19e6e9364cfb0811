//! Declarative experiment plans: scenarios × algorithms × seeds.

use crate::ExpError;
use freezetag_central::WakeStrategy;
use freezetag_core::Algorithm;
use freezetag_instances::registry::{self, ParamMap};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// A named scenario: a registry generator plus a parameter map.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Display/grouping name (defaults to the spec text or generator).
    pub name: String,
    /// Registry key (canonical name or alias).
    pub generator: String,
    /// Named parameters; absent keys take registry defaults.
    pub params: ParamMap,
}

impl ScenarioSpec {
    /// A scenario of the given registry generator with default parameters,
    /// named after the generator.
    pub fn new(generator: &str) -> Self {
        ScenarioSpec {
            name: generator.to_string(),
            generator: generator.to_string(),
            params: ParamMap::new(),
        }
    }

    /// Sets one parameter (builder style).
    #[must_use]
    pub fn with(mut self, key: &str, value: f64) -> Self {
        self.params.insert(key.to_string(), value);
        self
    }

    /// Overrides the display name (builder style).
    #[must_use]
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Parses the CLI syntax `generator[:key=value]*`, e.g.
    /// `disk:n=40:radius=8`. The scenario name is the spec text itself, so
    /// two specs of the same generator with different parameters aggregate
    /// separately.
    ///
    /// # Errors
    ///
    /// [`ExpError::InvalidPlan`] on malformed syntax (generator existence
    /// is checked later, by [`ExperimentPlan::validate`]).
    pub fn parse(text: &str) -> Result<Self, ExpError> {
        let text = text.trim();
        let mut parts = text.split(':');
        let generator = parts
            .next()
            .filter(|g| !g.is_empty())
            .ok_or_else(|| ExpError::InvalidPlan(format!("empty scenario spec '{text}'")))?;
        let mut spec = ScenarioSpec::new(generator).named(text);
        for part in parts {
            let Some((key, value)) = part.split_once('=') else {
                return Err(ExpError::InvalidPlan(format!(
                    "scenario '{text}': expected key=value, got '{part}'"
                )));
            };
            let value: f64 = value.trim().parse().map_err(|_| {
                ExpError::InvalidPlan(format!(
                    "scenario '{text}': parameter '{key}' expects a number, got '{value}'"
                ))
            })?;
            spec.params.insert(key.trim().to_string(), value);
        }
        Ok(spec)
    }
}

/// What to run on each scenario: one of the paper's distributed
/// algorithms (optionally with a Lemma 2 wake-strategy override for
/// `ASeparator`), a centralized wake-tree baseline on known positions, or
/// the exact branch-and-bound optimum (tiny instances only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlgSpec {
    /// A distributed algorithm driven through the simulator.
    Distributed {
        /// Which of the three paper algorithms.
        algorithm: Algorithm,
        /// Lemma 2 substitute override (`ASeparator` only).
        strategy: Option<WakeStrategy>,
    },
    /// A centralized wake tree built directly on the instance positions.
    Central(WakeStrategy),
    /// The parallel anytime local-search optimizer
    /// ([`freezetag_central::anytime_wake_tree`]) at its default
    /// iteration budget — deterministic, and the strongest centralized
    /// baseline for the ratio tables.
    CentralAnytime,
    /// The exact optimal makespan (branch and bound; n ≲ 10).
    CentralOptimal,
}

impl From<Algorithm> for AlgSpec {
    fn from(algorithm: Algorithm) -> Self {
        AlgSpec::Distributed {
            algorithm,
            strategy: None,
        }
    }
}

impl AlgSpec {
    /// `ASeparator` with an explicit Lemma 2 substitute.
    pub fn separator_with(strategy: WakeStrategy) -> Self {
        AlgSpec::Distributed {
            algorithm: Algorithm::Separator,
            strategy: Some(strategy),
        }
    }

    /// Stable label used for grouping, tables and emitted records.
    pub fn label(&self) -> String {
        match self {
            AlgSpec::Distributed {
                algorithm,
                strategy: None,
            } => algorithm.to_string(),
            AlgSpec::Distributed {
                algorithm,
                strategy: Some(s),
            } => format!("{algorithm}[{s}]"),
            AlgSpec::Central(s) => format!("central[{s}]"),
            AlgSpec::CentralAnytime => "central[anytime]".to_string(),
            AlgSpec::CentralOptimal => "central[optimal]".to_string(),
        }
    }

    /// Parses the CLI syntax: `separator`, `grid`, `wave`,
    /// `separator:greedy` (strategy override), `central:quadtree` /
    /// `central:greedy` / `central:median` / `central:chain`,
    /// `central-anytime` (alias `central:anytime`), `optimal`.
    ///
    /// # Errors
    ///
    /// [`ExpError::InvalidPlan`] on unknown names.
    pub fn parse(text: &str) -> Result<Self, ExpError> {
        let text = text.trim();
        let (head, tail) = match text.split_once(':') {
            Some((h, t)) => (h, Some(t)),
            None => (text, None),
        };
        let strategy = |name: &str| -> Result<WakeStrategy, ExpError> {
            match name {
                "quadtree" => Ok(WakeStrategy::Quadtree),
                "greedy" => Ok(WakeStrategy::Greedy),
                "median" => Ok(WakeStrategy::MedianSplit),
                "chain" => Ok(WakeStrategy::Chain),
                other => Err(ExpError::InvalidPlan(format!(
                    "unknown wake strategy '{other}' (quadtree|greedy|median|chain)"
                ))),
            }
        };
        match (head, tail) {
            ("separator", None) => Ok(Algorithm::Separator.into()),
            ("separator", Some(t)) => Ok(AlgSpec::separator_with(strategy(t)?)),
            ("grid", None) => Ok(Algorithm::Grid.into()),
            ("wave", None) => Ok(Algorithm::Wave.into()),
            ("central-anytime", None) | ("central", Some("anytime")) => Ok(AlgSpec::CentralAnytime),
            ("central", Some(t)) => Ok(AlgSpec::Central(strategy(t)?)),
            ("optimal", None) => Ok(AlgSpec::CentralOptimal),
            _ => Err(ExpError::InvalidPlan(format!(
                "unknown algorithm spec '{text}' \
                 (separator[:STRATEGY]|grid|wave|central:STRATEGY|central-anytime|optimal)"
            ))),
        }
    }
}

impl fmt::Display for AlgSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Which recorder a plan's simulated jobs run with.
///
/// `Full` keeps complete per-robot segment timelines and validates every
/// schedule independently — the default, and required for SVG export and
/// the adversarial theorem checks. `Stats` records constant memory per
/// robot (wake time, travel, current state) and skips validation, which is
/// what makes 10⁵–10⁶-robot sweeps tractable; its aggregates are
/// bit-identical to the full recorder's. `Compressed` keeps the full
/// schedule in a delta-encoded block format (~an order of magnitude
/// smaller than `Full`) and still validates every run through the
/// streaming validator — full-fidelity checking at `Stats`-like scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// Full schedules + independent validation (+ ξ_ℓ measurement).
    #[default]
    Full,
    /// Constant-memory aggregates, no validation, no ξ_ℓ.
    Stats,
    /// Compressed schedules + streaming validation, no ξ_ℓ.
    Compressed,
}

impl Profile {
    /// Parses the CLI syntax: `full`, `stats` or `compressed`.
    ///
    /// # Errors
    ///
    /// [`ExpError::InvalidPlan`] on unknown names.
    pub fn parse(text: &str) -> Result<Self, ExpError> {
        match text.trim() {
            "full" => Ok(Profile::Full),
            "stats" => Ok(Profile::Stats),
            "compressed" => Ok(Profile::Compressed),
            other => Err(ExpError::InvalidPlan(format!(
                "unknown profile '{other}' (full|stats|compressed)"
            ))),
        }
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Profile::Full => write!(f, "full"),
            Profile::Stats => write!(f, "stats"),
            Profile::Compressed => write!(f, "compressed"),
        }
    }
}

/// One fully resolved job of a plan's cross-product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Position in the cross-product; results are reported in this order.
    pub index: usize,
    /// Index into [`ExperimentPlan::scenarios`].
    pub scenario: usize,
    /// The algorithm to run.
    pub algorithm: AlgSpec,
    /// Repetition number within the cell (0-based).
    pub seed_index: usize,
    /// Generator seed, derived via [`derive_seed`] from the plan seed and
    /// the (scenario, repetition) pair — *not* from the algorithm — so
    /// every algorithm in a cell runs on the identical instance (paired
    /// comparisons).
    pub seed: u64,
}

/// A declarative experiment: the cross-product of scenarios, algorithms
/// and seeded repetitions, plus the plan seed all job seeds derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPlan {
    /// Plan name (carried into emitted records).
    pub name: String,
    /// Scenario axis.
    pub scenarios: Vec<ScenarioSpec>,
    /// Algorithm axis.
    pub algorithms: Vec<AlgSpec>,
    /// Seeded repetitions per (scenario, algorithm) cell.
    pub seeds: usize,
    /// Master seed; per-job seeds are [`derive_seed`]`(plan_seed, index)`.
    pub plan_seed: u64,
    /// Recorder profile for the simulated jobs.
    pub profile: Profile,
    /// Intra-job parallelism: every simulated job runs on a deterministic
    /// `ParPool` of this many threads (1 = sequential, the default). All
    /// job results are bit-identical for any value — the pool only fans
    /// out pure batches with order-preserving merges — so this trades
    /// inter-job for intra-job parallelism without touching output.
    pub sim_threads: usize,
}

impl ExperimentPlan {
    /// An empty plan with one repetition and plan seed 1.
    pub fn new(name: &str) -> Self {
        ExperimentPlan {
            name: name.to_string(),
            scenarios: Vec::new(),
            algorithms: Vec::new(),
            seeds: 1,
            plan_seed: 1,
            profile: Profile::Full,
            sim_threads: 1,
        }
    }

    /// Appends a scenario (builder style).
    #[must_use]
    pub fn scenario(mut self, spec: ScenarioSpec) -> Self {
        self.scenarios.push(spec);
        self
    }

    /// Appends an algorithm (builder style).
    #[must_use]
    pub fn algorithm(mut self, alg: impl Into<AlgSpec>) -> Self {
        self.algorithms.push(alg.into());
        self
    }

    /// Sets the repetitions per cell (builder style).
    #[must_use]
    pub fn seeds(mut self, seeds: usize) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the plan seed (builder style).
    #[must_use]
    pub fn plan_seed(mut self, plan_seed: u64) -> Self {
        self.plan_seed = plan_seed;
        self
    }

    /// Sets the recorder profile (builder style).
    #[must_use]
    pub fn profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the per-job intra-job parallelism (builder style); must be at
    /// least 1 (checked by [`ExperimentPlan::validate`]).
    #[must_use]
    pub fn sim_threads(mut self, sim_threads: usize) -> Self {
        self.sim_threads = sim_threads;
        self
    }

    /// The keys of the plan grammar read by [`ExperimentPlan::from_options`].
    pub const OPTION_KEYS: &'static [&'static str] = &[
        "scenarios",
        "algs",
        "seeds",
        "plan-seed",
        "profile",
        "sim-threads",
        "name",
    ];

    /// Builds a plan from the plan grammar that `dftp sweep` flags and
    /// `dftp serve` request bodies share: `scenarios` (required; a
    /// comma-separated list of [`ScenarioSpec::parse`] texts), `algs`
    /// (default `separator,grid,wave`), `seeds` (3), `plan-seed` (1),
    /// `profile` (`full`), `sim-threads` (1) and `name` (`default_name`).
    ///
    /// Keys outside [`ExperimentPlan::OPTION_KEYS`] are ignored — each
    /// caller checks its whole key set with [`check_option_keys`] — and
    /// the plan is not validated, so a caller may still narrow its axes
    /// before [`ExperimentPlan::validate`].
    /// Error messages spell a key as `{flag}{key}` (`flag` is `--` on the
    /// command line, empty in a request body).
    ///
    /// # Errors
    ///
    /// [`ExpError::InvalidPlan`] for a missing `scenarios`, a malformed
    /// number or `sim-threads` of 0; parse errors of the scenario,
    /// algorithm and profile texts.
    pub fn from_options(
        opts: &HashMap<String, String>,
        default_name: &str,
        flag: &str,
    ) -> Result<Self, ExpError> {
        let get = |key: &str| opts.get(key).map(String::as_str);
        let count = |key: &str, default: usize| -> Result<usize, ExpError> {
            get(key).map_or(Ok(default), |text| {
                text.trim().parse().map_err(|_| {
                    ExpError::InvalidPlan(format!(
                        "{flag}{key} expects an unsigned integer, got {text:?}"
                    ))
                })
            })
        };
        let scenarios = get("scenarios")
            .ok_or_else(|| {
                ExpError::InvalidPlan(format!("{flag}scenarios is required (e.g. disk:n=40,ring)"))
            })?
            .split(',')
            .map(ScenarioSpec::parse)
            .collect::<Result<_, _>>()?;
        let algorithms = get("algs")
            .unwrap_or("separator,grid,wave")
            .split(',')
            .map(AlgSpec::parse)
            .collect::<Result<_, _>>()?;
        let profile = get("profile").map_or(Ok(Profile::Full), Profile::parse)?;
        let sim_threads = count("sim-threads", 1)?;
        if sim_threads == 0 {
            return Err(ExpError::InvalidPlan(format!(
                "{flag}sim-threads must be at least 1 (use 1 for a sequential job)"
            )));
        }
        Ok(ExperimentPlan {
            name: get("name").unwrap_or(default_name).to_string(),
            scenarios,
            algorithms,
            seeds: count("seeds", 3)?,
            plan_seed: count("plan-seed", 1)? as u64,
            profile,
            sim_threads,
        })
    }

    /// Total number of jobs in the cross-product.
    pub fn job_count(&self) -> usize {
        self.scenarios.len() * self.algorithms.len() * self.seeds
    }

    /// The full cross-product in deterministic order: scenarios outermost,
    /// then algorithms, then repetitions.
    pub fn jobs(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.job_count());
        for scenario in 0..self.scenarios.len() {
            for &algorithm in &self.algorithms {
                for seed_index in 0..self.seeds {
                    let pair = (scenario * self.seeds + seed_index) as u64;
                    jobs.push(JobSpec {
                        index: jobs.len(),
                        scenario,
                        algorithm,
                        seed_index,
                        seed: derive_seed(self.plan_seed, pair),
                    });
                }
            }
        }
        jobs
    }

    /// Checks the plan before any job runs: non-empty axes, at least one
    /// repetition, every scenario resolvable in the generator registry
    /// with accepted keys and in-domain values, and no centralized
    /// algorithm paired with an adversarial scenario — so a bad cell fails
    /// the sweep up front instead of discarding completed jobs mid-run.
    ///
    /// # Errors
    ///
    /// [`ExpError::InvalidPlan`] or a registry error, naming the offender.
    pub fn validate(&self) -> Result<(), ExpError> {
        if self.scenarios.is_empty() {
            return Err(ExpError::InvalidPlan("no scenarios".into()));
        }
        if self.algorithms.is_empty() {
            return Err(ExpError::InvalidPlan("no algorithms".into()));
        }
        if self.seeds == 0 {
            return Err(ExpError::InvalidPlan("seeds must be >= 1".into()));
        }
        if self.sim_threads == 0 {
            return Err(ExpError::InvalidPlan("sim_threads must be >= 1".into()));
        }
        for spec in &self.scenarios {
            let info = registry::validate(&spec.generator, &spec.params)
                .map_err(|e| ExpError::Registry(format!("scenario '{}': {e}", spec.name)))?;
            if info.adversarial {
                if let Some(alg) = self.algorithms.iter().find(|a| {
                    matches!(
                        a,
                        AlgSpec::Central(_) | AlgSpec::CentralAnytime | AlgSpec::CentralOptimal
                    )
                }) {
                    return Err(ExpError::InvalidPlan(format!(
                        "scenario '{}' is adversarial but {} needs known positions",
                        spec.name,
                        alg.label()
                    )));
                }
                if self.profile != Profile::Full {
                    // The adversarial theorem checks replay full schedules
                    // against the pinned positions; the stats and
                    // compressed recorders cannot hand over a `Schedule`.
                    return Err(ExpError::InvalidPlan(format!(
                        "scenario '{}' is adversarial and requires the full profile",
                        spec.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Rejects any key of `opts` outside `allowed`: the unknown-option check
/// of every `dftp` command and of `dftp serve` request bodies. Keys are
/// spelled `{flag}{key}`, as in [`ExperimentPlan::from_options`].
///
/// # Errors
///
/// A usage message naming the (alphabetically first) unknown key and
/// every accepted one.
pub fn check_option_keys(
    opts: &HashMap<String, String>,
    allowed: &[&str],
    flag: &str,
) -> Result<(), String> {
    match opts.keys().filter(|k| !allowed.contains(&k.as_str())).min() {
        None => Ok(()),
        Some(key) => Err(format!(
            "unknown option '{flag}{key}' (accepted: {})",
            allowed
                .iter()
                .map(|k| format!("{flag}{k}"))
                .collect::<Vec<_>>()
                .join(" ")
        )),
    }
}

/// Reads option `key` as a wall-clock budget in seconds (`dftp solve
/// --time-budget`, a serve plan's `deadline-s`): `None` when absent,
/// otherwise a positive, finite number that fits a [`Duration`]. Keys
/// are spelled `{flag}{key}` in messages.
///
/// # Errors
///
/// A usage message when the value is not a number, not positive and
/// finite, or too large for a [`Duration`].
pub fn option_seconds(
    opts: &HashMap<String, String>,
    key: &str,
    flag: &str,
) -> Result<Option<Duration>, String> {
    let Some(text) = opts.get(key) else {
        return Ok(None);
    };
    let secs: f64 = text
        .trim()
        .parse()
        .map_err(|_| format!("{flag}{key} expects seconds (a number), got {text:?}"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!(
            "{flag}{key} must be positive and finite, got {text}"
        ));
    }
    Duration::try_from_secs_f64(secs)
        .map(Some)
        .map_err(|_| format!("{flag}{key} {text} is too large for a duration"))
}

/// Deterministic per-job seed: a splitmix64 finalizer over
/// `(plan_seed, job_index)`, where the plan uses the job's
/// (scenario, repetition) pair index so algorithms within a cell share
/// instances. Stable across platforms, thread counts and runs — the
/// contract behind byte-identical sweep output.
pub fn derive_seed(plan_seed: u64, job_index: u64) -> u64 {
    let mut z = plan_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(job_index.wrapping_add(1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_product_order_and_seeds_are_deterministic() {
        let plan = ExperimentPlan::new("t")
            .scenario(ScenarioSpec::new("disk"))
            .scenario(ScenarioSpec::new("ring"))
            .algorithm(Algorithm::Grid)
            .algorithm(Algorithm::Wave)
            .seeds(3)
            .plan_seed(42);
        let jobs = plan.jobs();
        assert_eq!(jobs.len(), 12);
        assert_eq!(plan.job_count(), 12);
        // Scenario-major, algorithm next, repetition innermost.
        assert_eq!(jobs[0].scenario, 0);
        assert_eq!(jobs[3].algorithm, AlgSpec::from(Algorithm::Wave));
        assert_eq!(jobs[6].scenario, 1);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
            let pair = (j.scenario * 3 + j.seed_index) as u64;
            assert_eq!(j.seed, derive_seed(42, pair));
        }
        // Paired design: every algorithm of a cell gets the same seed.
        assert_eq!(jobs[0].seed, jobs[3].seed, "AGrid/AWave must pair up");
        assert_ne!(jobs[0].seed, jobs[1].seed, "repetitions must differ");
        assert_ne!(jobs[0].seed, jobs[6].seed, "scenarios must differ");
        assert_eq!(plan.jobs(), jobs, "jobs() must be reproducible");
    }

    #[test]
    fn derived_seeds_differ_across_jobs_and_plan_seeds() {
        let a: Vec<u64> = (0..64).map(|i| derive_seed(1, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| derive_seed(2, i)).collect();
        assert_ne!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "collision in 64 derived seeds");
    }

    #[test]
    fn scenario_parse_round_trips_params() {
        let s = ScenarioSpec::parse("disk:n=40:radius=8.5").unwrap();
        assert_eq!(s.generator, "disk");
        assert_eq!(s.name, "disk:n=40:radius=8.5");
        assert_eq!(s.params.get("n"), Some(&40.0));
        assert_eq!(s.params.get("radius"), Some(&8.5));
        assert!(ScenarioSpec::parse("disk:n").is_err());
        assert!(ScenarioSpec::parse("disk:n=abc").is_err());
        assert!(ScenarioSpec::parse("").is_err());
    }

    #[test]
    fn alg_parse_covers_all_forms() {
        assert_eq!(
            AlgSpec::parse("separator").unwrap(),
            AlgSpec::from(Algorithm::Separator)
        );
        assert_eq!(
            AlgSpec::parse("separator:chain").unwrap(),
            AlgSpec::separator_with(WakeStrategy::Chain)
        );
        assert_eq!(
            AlgSpec::parse("central:median").unwrap(),
            AlgSpec::Central(WakeStrategy::MedianSplit)
        );
        assert_eq!(AlgSpec::parse("optimal").unwrap(), AlgSpec::CentralOptimal);
        assert_eq!(
            AlgSpec::parse("central-anytime").unwrap(),
            AlgSpec::CentralAnytime
        );
        assert_eq!(
            AlgSpec::parse("central:anytime").unwrap(),
            AlgSpec::CentralAnytime
        );
        assert_eq!(AlgSpec::CentralAnytime.label(), "central[anytime]");
        assert!(AlgSpec::parse("grid:greedy").is_err());
        assert!(AlgSpec::parse("teleport").is_err());
        assert_eq!(
            AlgSpec::parse("central:chain").unwrap().label(),
            "central[chain]"
        );
    }

    #[test]
    fn validate_catches_structural_and_registry_errors() {
        let empty = ExperimentPlan::new("t");
        assert!(empty.validate().is_err());
        let bad_gen = ExperimentPlan::new("t")
            .scenario(ScenarioSpec::new("warp"))
            .algorithm(Algorithm::Grid);
        assert!(bad_gen.validate().is_err());
        let bad_key = ExperimentPlan::new("t")
            .scenario(ScenarioSpec::new("disk").with("spacing", 1.0))
            .algorithm(Algorithm::Grid);
        let err = bad_key.validate().unwrap_err();
        assert!(err.to_string().contains("spacing"), "{err}");
        let zero_seeds = ExperimentPlan::new("t")
            .scenario(ScenarioSpec::new("disk"))
            .algorithm(Algorithm::Grid)
            .seeds(0);
        assert!(zero_seeds.validate().is_err());
    }

    #[test]
    fn sim_threads_defaults_to_one_and_rejects_zero() {
        let plan = ExperimentPlan::new("t")
            .scenario(ScenarioSpec::new("disk"))
            .algorithm(Algorithm::Grid);
        assert_eq!(plan.sim_threads, 1);
        assert!(plan.clone().sim_threads(4).validate().is_ok());
        let err = plan.sim_threads(0).validate().unwrap_err();
        assert!(err.to_string().contains("sim_threads"), "{err}");
    }

    #[test]
    fn profile_parse_round_trips_all_variants() {
        for p in [Profile::Full, Profile::Stats, Profile::Compressed] {
            assert_eq!(Profile::parse(&p.to_string()).unwrap(), p);
        }
        let err = Profile::parse("fast").unwrap_err();
        assert!(err.to_string().contains("compressed"), "{err}");
    }

    #[test]
    fn adversarial_scenarios_reject_every_non_full_profile() {
        let base = ExperimentPlan::new("t")
            .scenario(ScenarioSpec::new("theorem2"))
            .algorithm(Algorithm::Separator);
        assert!(base.clone().validate().is_ok());
        for profile in [Profile::Stats, Profile::Compressed] {
            let err = base.clone().profile(profile).validate().unwrap_err();
            assert!(err.to_string().contains("full profile"), "{err}");
        }
    }

    #[test]
    fn validate_fails_early_on_bad_values_and_incompatible_cells() {
        // A value outside the construction's domain is caught before any
        // job runs, not mid-sweep.
        let bad_value = ExperimentPlan::new("t")
            .scenario(ScenarioSpec::new("disk"))
            .scenario(ScenarioSpec::new("theorem6").with("xi", 5000.0))
            .algorithm(Algorithm::Grid);
        let err = bad_value.validate().unwrap_err();
        assert!(err.to_string().contains("xi"), "{err}");
        // Centralized baselines need known positions: pairing them with an
        // adversarial layout is a plan error.
        let incompatible = ExperimentPlan::new("t")
            .scenario(ScenarioSpec::new("theorem2"))
            .algorithm(AlgSpec::CentralOptimal);
        let err = incompatible.validate().unwrap_err();
        assert!(err.to_string().contains("adversarial"), "{err}");
        let incompatible = ExperimentPlan::new("t")
            .scenario(ScenarioSpec::new("theorem2"))
            .algorithm(AlgSpec::CentralAnytime);
        let err = incompatible.validate().unwrap_err();
        assert!(err.to_string().contains("adversarial"), "{err}");
    }
}
