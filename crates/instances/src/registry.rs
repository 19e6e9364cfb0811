//! String-keyed scenario registry: every generator in this crate, plus the
//! adversarial lower-bound constructions, addressable by name with named
//! numeric parameters. Scenarios become *data* — an experiment plan (see
//! `freezetag-exp`) or a CLI invocation names a generator and a parameter
//! map instead of hard-coding a function call, so new sweeps need no new
//! code.
//!
//! Unknown generator names and unknown parameter keys are hard errors: a
//! typo in a plan fails loudly instead of silently running the defaults.
//!
//! # Example
//!
//! ```
//! use freezetag_instances::registry;
//! use std::collections::BTreeMap;
//!
//! let mut params = BTreeMap::new();
//! params.insert("n".to_string(), 30.0);
//! params.insert("radius".to_string(), 8.0);
//! let inst = registry::build_instance("disk", &params, 7).unwrap();
//! assert_eq!(inst.n(), 30);
//! ```

use crate::adversarial::{theorem2_layout, theorem3_layout, AdversarialLayout};
use crate::generators::{clustered, grid_lattice, ring, snake, two_clusters_bridge, uniform_disk};
use crate::path_construction::{theorem6_instance, Theorem6Params};
use crate::Instance;
use freezetag_geometry::Point;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Named parameter map of a scenario (insertion-order independent).
pub type ParamMap = BTreeMap<String, f64>;

/// One named parameter accepted by a generator.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Key as written in plans and on the CLI (without the `--`).
    pub key: &'static str,
    /// Value used when the key is absent.
    pub default: f64,
    /// One-line description for usage text.
    pub doc: &'static str,
}

/// Static description of a registered generator.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorInfo {
    /// Canonical registry key.
    pub name: &'static str,
    /// Accepted shorthand names.
    pub aliases: &'static [&'static str],
    /// One-line description for usage text.
    pub summary: &'static str,
    /// Whether the construction consumes the seed (unseeded generators are
    /// fully determined by their parameters).
    pub seeded: bool,
    /// Whether [`build`] yields an [`AdversarialLayout`] instead of a
    /// concrete [`Instance`].
    pub adversarial: bool,
    /// Accepted parameters with defaults.
    pub params: &'static [ParamSpec],
}

/// What a registered scenario builds.
#[derive(Debug, Clone, PartialEq)]
pub enum Built {
    /// A concrete instance: all robot positions fixed upfront.
    Concrete(Instance),
    /// An adaptive lower-bound layout (positions pinned at run time by
    /// `freezetag-sim::AdversarialWorld`).
    Adversarial(AdversarialLayout),
}

/// Error looking up or building a registered scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// No generator under that name or alias.
    UnknownGenerator {
        /// The name that failed to resolve.
        name: String,
    },
    /// A parameter key the generator does not accept.
    UnknownParam {
        /// Canonical generator name.
        generator: &'static str,
        /// The offending key.
        key: String,
    },
    /// A parameter value outside the generator's domain.
    InvalidParam {
        /// Canonical generator name.
        generator: &'static str,
        /// The offending key.
        key: &'static str,
        /// What went wrong.
        message: String,
    },
    /// A concrete instance was requested from an adversarial construction.
    NotConcrete {
        /// Canonical generator name.
        generator: &'static str,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownGenerator { name } => {
                let known: Vec<&str> = GENERATORS.iter().map(|g| g.name).collect();
                write!(
                    f,
                    "unknown generator '{name}' (known: {})",
                    known.join(", ")
                )
            }
            RegistryError::UnknownParam { generator, key } => {
                let info = lookup(generator).expect("registered");
                let allowed: Vec<&str> = info.params.iter().map(|p| p.key).collect();
                write!(
                    f,
                    "generator '{generator}' has no parameter '{key}' (accepted: {})",
                    allowed.join(", ")
                )
            }
            RegistryError::InvalidParam {
                generator,
                key,
                message,
            } => write!(f, "generator '{generator}', parameter '{key}': {message}"),
            RegistryError::NotConcrete { generator } => write!(
                f,
                "generator '{generator}' is adversarial: it builds a layout, not a concrete instance"
            ),
        }
    }
}

impl Error for RegistryError {}

macro_rules! p {
    ($key:literal, $default:expr, $doc:literal) => {
        ParamSpec {
            key: $key,
            default: $default,
            doc: $doc,
        }
    };
}

/// Every registered generator, in display order.
pub const GENERATORS: &[GeneratorInfo] = &[
    GeneratorInfo {
        name: "uniform_disk",
        aliases: &["disk"],
        summary: "n robots uniform in a disk around the source",
        seeded: true,
        adversarial: false,
        params: &[
            p!("n", 60.0, "number of robots"),
            p!("radius", 12.0, "disk radius"),
        ],
    },
    GeneratorInfo {
        name: "grid_lattice",
        aliases: &["lattice"],
        summary: "side x side lattice, threshold exactly `spacing`",
        seeded: false,
        adversarial: false,
        params: &[
            p!("side", 8.0, "robots per lattice side"),
            p!("spacing", 1.5, "lattice spacing"),
        ],
    },
    GeneratorInfo {
        name: "snake",
        aliases: &[],
        summary: "serpentine corridor with high eccentricity ratio",
        seeded: false,
        adversarial: false,
        params: &[
            p!("legs", 4.0, "number of horizontal legs"),
            p!("leg", 30.0, "leg length"),
            p!("riser", 2.0, "vertical riser height"),
            p!("spacing", 1.0, "robot spacing along the path"),
        ],
    },
    GeneratorInfo {
        name: "ring",
        aliases: &[],
        summary: "robots on a circle plus a radial chain to the source",
        seeded: true,
        adversarial: false,
        params: &[
            p!("n", 36.0, "robots on the circle"),
            p!("radius", 10.0, "circle radius"),
            p!("spacing", 1.0, "chain link spacing"),
        ],
    },
    GeneratorInfo {
        name: "clustered",
        aliases: &["clusters"],
        summary: "blobs chained to the source (warehouse aisles)",
        seeded: true,
        adversarial: false,
        params: &[
            p!("clusters", 4.0, "number of blobs"),
            p!("per", 15.0, "robots per blob"),
            p!("cradius", 1.5, "blob radius"),
            p!("spread", 18.0, "blob centre spread"),
        ],
    },
    GeneratorInfo {
        name: "two_clusters_bridge",
        aliases: &["bridge"],
        summary: "two dense blobs joined by a sparse chain",
        seeded: true,
        adversarial: false,
        params: &[
            p!("per", 20.0, "robots per blob"),
            p!("cradius", 1.5, "blob radius"),
            p!("gap", 24.0, "blob distance"),
            p!("chain", 2.0, "chain link spacing"),
        ],
    },
    GeneratorInfo {
        name: "skewed",
        aliases: &[],
        summary: "dense disk plus one distant straggler",
        seeded: true,
        adversarial: false,
        params: &[
            p!("n", 100.0, "robots in the dense disk"),
            p!("radius", 3.0, "dense disk radius"),
            p!("far", 80.0, "straggler distance (on the diagonal)"),
        ],
    },
    GeneratorInfo {
        name: "uniform_1m",
        aliases: &["disk_1m"],
        summary: "10^6 robots uniform in a disk; explicit ell (scale family)",
        seeded: true,
        adversarial: false,
        params: &[
            p!("n", 1_000_000.0, "number of robots"),
            p!("radius", 640.0, "disk radius"),
            p!(
                "ell",
                4.0,
                "asserted connectivity bound handed to the algorithms"
            ),
        ],
    },
    GeneratorInfo {
        name: "grid_1m",
        aliases: &["lattice_1m"],
        summary: "1000 x 1000 lattice (10^6 robots); explicit ell",
        seeded: false,
        adversarial: false,
        params: &[
            p!("side", 1000.0, "robots per lattice side"),
            p!("spacing", 1.0, "lattice spacing"),
            p!("ell", 1.0, "asserted connectivity bound (the spacing)"),
        ],
    },
    GeneratorInfo {
        name: "skewed_500k",
        aliases: &[],
        summary: "5*10^5-robot dense disk plus a distant straggler; explicit ell",
        seeded: true,
        adversarial: false,
        params: &[
            p!("n", 500_000.0, "robots in the dense disk"),
            p!("radius", 300.0, "dense disk radius"),
            p!("far", 500.0, "straggler distance (on the diagonal)"),
            p!(
                "ell",
                420.0,
                "asserted connectivity bound (>= sqrt(2)*far - radius)"
            ),
        ],
    },
    GeneratorInfo {
        name: "wave_100k",
        aliases: &[],
        summary: "10^5-robot disk tuned for AWave at scale; explicit ell",
        seeded: true,
        adversarial: false,
        params: &[
            p!("n", 100_000.0, "number of robots"),
            p!("radius", 200.0, "disk radius"),
            p!(
                "ell",
                4.0,
                "asserted connectivity bound handed to the algorithms"
            ),
        ],
    },
    GeneratorInfo {
        name: "separator_100k",
        aliases: &[],
        summary: "10^5-robot disk tuned for ASeparator at scale; explicit ell",
        seeded: true,
        adversarial: false,
        params: &[
            p!("n", 100_000.0, "number of robots"),
            p!("radius", 200.0, "disk radius"),
            p!(
                "ell",
                4.0,
                "asserted connectivity bound handed to the algorithms"
            ),
        ],
    },
    GeneratorInfo {
        name: "theorem6",
        aliases: &["path"],
        summary: "rectilinear path with prescribed eccentricity (Thm 6)",
        seeded: false,
        adversarial: false,
        params: &[
            p!("ell", 1.0, "connectivity parameter"),
            p!("rho", 40.0, "radius bound"),
            p!("budget", 3.0, "energy budget the construction defeats"),
            p!("xi", 40.0, "prescribed eccentricity"),
        ],
    },
    GeneratorInfo {
        name: "theorem2",
        aliases: &["adversarial_grid"],
        summary: "adaptive grid-of-disks lower bound (Thm 2)",
        seeded: false,
        adversarial: true,
        params: &[
            p!("ell", 4.0, "connectivity parameter (>= 1)"),
            p!("rho", 32.0, "radius bound"),
            p!("n", 4000.0, "maximum number of disks"),
        ],
    },
    GeneratorInfo {
        name: "theorem3",
        aliases: &["adversarial_hidden"],
        summary: "robots hidden in one disk (energy infeasibility, Thm 3)",
        seeded: false,
        adversarial: true,
        params: &[
            p!("ell", 4.0, "disk radius (> 1)"),
            p!("n", 1.0, "hidden robots"),
        ],
    },
];

/// Resolves a name or alias to its registry entry.
pub fn lookup(name: &str) -> Option<&'static GeneratorInfo> {
    GENERATORS
        .iter()
        .find(|g| g.name == name || g.aliases.contains(&name))
}

/// Checks that `name` resolves and every key in `params` is accepted,
/// without building anything. Used by plan validation so that a typo fails
/// before a sweep starts.
///
/// Validation covers the full parameter domain — generic positivity and
/// count bounds plus each construction's cross-field constraints — so an
/// experiment plan can reject a bad scenario *before* any job runs.
///
/// # Errors
///
/// [`RegistryError::UnknownGenerator`], [`RegistryError::UnknownParam`]
/// or [`RegistryError::InvalidParam`].
pub fn validate(name: &str, params: &ParamMap) -> Result<&'static GeneratorInfo, RegistryError> {
    let info = lookup(name).ok_or_else(|| RegistryError::UnknownGenerator {
        name: name.to_string(),
    })?;
    for key in params.keys() {
        if !info.params.iter().any(|p| p.key == key) {
            return Err(RegistryError::UnknownParam {
                generator: info.name,
                key: key.clone(),
            });
        }
    }
    let r = Resolved { info, params };
    for spec in info.params {
        r.get(spec.key)?;
    }
    check_constraints(&r)?;
    Ok(info)
}

/// Cross-field constraints of the constructions that have them, shared by
/// [`validate`] (fail-early, no building) and hence [`build`].
fn check_constraints(r: &Resolved<'_>) -> Result<(), RegistryError> {
    match r.info.name {
        "theorem6" => {
            let (ell, rho) = (r.get("ell")?, r.get("rho")?);
            let (budget, xi) = (r.get("budget")?, r.get("xi")?);
            if budget <= ell {
                return Err(RegistryError::InvalidParam {
                    generator: r.info.name,
                    key: "budget",
                    message: format!("construction requires budget > ell ({budget} <= {ell})"),
                });
            }
            let cap = rho * rho / (2.0 * (budget + 1.0)) + 1.0;
            if xi < rho - 1e-9 || xi > cap + 1e-9 {
                return Err(RegistryError::InvalidParam {
                    generator: r.info.name,
                    key: "xi",
                    message: format!(
                        "xi must lie in [rho, rho^2/(2(budget+1)) + 1] = [{rho}, {cap}]"
                    ),
                });
            }
        }
        "theorem2" => {
            let (ell, rho) = (r.get("ell")?, r.get("rho")?);
            if ell < 1.0 {
                return Err(RegistryError::InvalidParam {
                    generator: r.info.name,
                    key: "ell",
                    message: "construction assumes ell >= 1".into(),
                });
            }
            if rho < ell {
                return Err(RegistryError::InvalidParam {
                    generator: r.info.name,
                    key: "rho",
                    message: format!("need rho >= ell, got rho={rho} < ell={ell}"),
                });
            }
        }
        "grid_1m" => {
            let (spacing, ell) = (r.get("spacing")?, r.get("ell")?);
            if ell < spacing - 1e-9 {
                return Err(RegistryError::InvalidParam {
                    generator: r.info.name,
                    key: "ell",
                    message: format!(
                        "lattice threshold is the spacing: need ell >= spacing ({ell} < {spacing})"
                    ),
                });
            }
        }
        "skewed_500k" => {
            let (radius, far, ell) = (r.get("radius")?, r.get("far")?, r.get("ell")?);
            let gap = std::f64::consts::SQRT_2 * far - radius;
            if ell < gap - 1e-9 {
                return Err(RegistryError::InvalidParam {
                    generator: r.info.name,
                    key: "ell",
                    message: format!(
                        "the straggler sits {gap:.1} beyond the disk: need ell >= sqrt(2)*far - radius"
                    ),
                });
            }
        }
        "theorem3" if r.get("ell")? <= 1.0 => {
            return Err(RegistryError::InvalidParam {
                generator: r.info.name,
                key: "ell",
                message: "theorem 3 needs ell > 1".into(),
            });
        }
        _ => {}
    }
    Ok(())
}

/// The largest value any generator parameter takes. Past it a generator's
/// arithmetic overflows: `uniform_disk` at radius 1e308 samples from an
/// infinite span and its rejection loop never ends, and at radius 1e155
/// squared distances overflow and every disk graph is complete.
const PARAM_CEILING: f64 = 1e150;

struct Resolved<'a> {
    info: &'static GeneratorInfo,
    params: &'a ParamMap,
}

impl Resolved<'_> {
    fn get(&self, key: &'static str) -> Result<f64, RegistryError> {
        let spec = self
            .info
            .params
            .iter()
            .find(|p| p.key == key)
            .expect("registered parameter");
        let v = self.params.get(key).copied().unwrap_or(spec.default);
        if !v.is_finite() || v <= 0.0 {
            return Err(RegistryError::InvalidParam {
                generator: self.info.name,
                key,
                message: format!("must be a positive finite number, got {v}"),
            });
        }
        if v > PARAM_CEILING {
            return Err(RegistryError::InvalidParam {
                generator: self.info.name,
                key,
                message: format!("{v:e} exceeds the registry ceiling {PARAM_CEILING:e}"),
            });
        }
        Ok(v)
    }

    fn get_count(&self, key: &'static str) -> Result<usize, RegistryError> {
        let v = self.get(key)?;
        if v > 1e9 {
            return Err(RegistryError::InvalidParam {
                generator: self.info.name,
                key,
                message: format!("count {v} is unreasonably large"),
            });
        }
        Ok((v.round() as usize).max(1))
    }
}

/// Builds the scenario registered under `name` (or an alias) with the
/// given parameters; absent keys take their defaults, the seed is ignored
/// by unseeded generators.
///
/// # Errors
///
/// Any [`RegistryError`]: unknown name, unknown key, or a value outside
/// the generator's domain.
pub fn build(name: &str, params: &ParamMap, seed: u64) -> Result<Built, RegistryError> {
    let info = validate(name, params)?;
    let r = Resolved { info, params };
    let built = match info.name {
        "uniform_disk" => Built::Concrete(uniform_disk(r.get_count("n")?, r.get("radius")?, seed)),
        "grid_lattice" => {
            let side = r.get_count("side")?;
            Built::Concrete(grid_lattice(side, side, r.get("spacing")?))
        }
        "snake" => Built::Concrete(snake(
            r.get_count("legs")?,
            r.get("leg")?,
            r.get("riser")?,
            r.get("spacing")?,
        )),
        "ring" => Built::Concrete(ring(
            r.get_count("n")?,
            r.get("radius")?,
            r.get("spacing")?,
            seed,
        )),
        "clustered" => Built::Concrete(clustered(
            r.get_count("clusters")?,
            r.get_count("per")?,
            r.get("cradius")?,
            r.get("spread")?,
            seed,
        )),
        "two_clusters_bridge" => Built::Concrete(two_clusters_bridge(
            r.get_count("per")?,
            r.get("cradius")?,
            r.get("gap")?,
            r.get("chain")?,
            seed,
        )),
        "skewed" | "skewed_500k" => {
            let far = r.get("far")?;
            let mut pts: Vec<Point> = uniform_disk(r.get_count("n")?, r.get("radius")?, seed)
                .positions()
                .to_vec();
            pts.push(Point::new(far, far));
            Built::Concrete(Instance::new(pts))
        }
        "uniform_1m" | "wave_100k" | "separator_100k" => {
            Built::Concrete(uniform_disk(r.get_count("n")?, r.get("radius")?, seed))
        }
        "grid_1m" => {
            let side = r.get_count("side")?;
            Built::Concrete(grid_lattice(side, side, r.get("spacing")?))
        }
        "theorem6" => {
            let p = Theorem6Params {
                ell: r.get("ell")?,
                rho: r.get("rho")?,
                budget: r.get("budget")?,
                xi: r.get("xi")?,
            };
            Built::Concrete(theorem6_instance(&p))
        }
        "theorem2" => Built::Adversarial(theorem2_layout(
            r.get("ell")?,
            r.get("rho")?,
            r.get_count("n")?,
        )),
        "theorem3" => Built::Adversarial(theorem3_layout(r.get("ell")?, r.get_count("n")?)),
        other => unreachable!("unhandled registered generator {other}"),
    };
    Ok(built)
}

/// The asserted connectivity bound `ℓ` of a *scale family* — a generator
/// whose parameter set includes an explicit `ell` the operator vouches for
/// — resolved against `params` (falling back to the family default).
/// `None` for ordinary generators, whose exact `ℓ*` is computed from the
/// built instance.
///
/// The paper's algorithms take `(ℓ, ρ)` as *inputs* (Section 1.2), and a
/// declared bound pins one schedule for every member of a family however
/// its exact `ℓ*` rounds. The bound is checked only where geometry pins it
/// (lattice spacing, straggler gap).
pub fn preset_ell(name: &str, params: &ParamMap) -> Option<f64> {
    let info = lookup(name)?;
    if !matches!(
        info.name,
        "uniform_1m" | "grid_1m" | "skewed_500k" | "wave_100k" | "separator_100k"
    ) {
        return None;
    }
    Resolved { info, params }.get("ell").ok()
}

/// Like [`build`] but requires a concrete instance.
///
/// # Errors
///
/// Any [`build`] error, plus [`RegistryError::NotConcrete`] for the
/// adversarial constructions.
pub fn build_instance(name: &str, params: &ParamMap, seed: u64) -> Result<Instance, RegistryError> {
    match build(name, params, seed)? {
        Built::Concrete(inst) => Ok(inst),
        Built::Adversarial(_) => Err(RegistryError::NotConcrete {
            generator: lookup(name).expect("validated").name,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(kv: &[(&str, f64)]) -> ParamMap {
        kv.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn alias_builds_the_same_instance_as_the_direct_call() {
        let via_registry =
            build_instance("disk", &params(&[("n", 40.0), ("radius", 8.0)]), 3).unwrap();
        assert_eq!(via_registry, uniform_disk(40, 8.0, 3));
        let canonical =
            build_instance("uniform_disk", &params(&[("n", 40.0), ("radius", 8.0)]), 3).unwrap();
        assert_eq!(via_registry, canonical);
    }

    #[test]
    fn defaults_apply_for_absent_keys() {
        let inst = build_instance("lattice", &params(&[("side", 4.0)]), 0).unwrap();
        assert_eq!(inst, grid_lattice(4, 4, 1.5));
    }

    #[test]
    fn every_generator_builds_with_defaults() {
        for info in GENERATORS {
            // The scale families default to 10⁵–10⁶ robots; build them
            // shrunk so this stays a unit test (their full-size defaults
            // are exercised by the scale smoke sweep in CI).
            let p = match info.name {
                "uniform_1m" | "wave_100k" | "separator_100k" => {
                    params(&[("n", 500.0), ("radius", 15.0)])
                }
                "grid_1m" => params(&[("side", 20.0)]),
                "skewed_500k" => params(&[("n", 500.0)]),
                _ => ParamMap::new(),
            };
            let built = build(info.name, &p, 1)
                .unwrap_or_else(|e| panic!("{} failed on defaults: {e}", info.name));
            match built {
                Built::Concrete(inst) => assert!(inst.n() > 0, "{} empty", info.name),
                Built::Adversarial(layout) => assert!(layout.n() > 0, "{} empty", info.name),
            }
        }
    }

    #[test]
    fn scale_families_declare_their_ell_and_check_geometry() {
        assert_eq!(preset_ell("uniform_1m", &ParamMap::new()), Some(4.0));
        assert_eq!(preset_ell("disk_1m", &params(&[("ell", 6.0)])), Some(6.0));
        assert_eq!(preset_ell("grid_1m", &ParamMap::new()), Some(1.0));
        assert_eq!(preset_ell("skewed_500k", &ParamMap::new()), Some(420.0));
        assert_eq!(preset_ell("wave_100k", &ParamMap::new()), Some(4.0));
        assert_eq!(
            preset_ell("separator_100k", &params(&[("ell", 5.0)])),
            Some(5.0)
        );
        // The 100k families are the 10^5 members of the disk family.
        let w = build_instance("wave_100k", &params(&[("n", 60.0), ("radius", 9.0)]), 2).unwrap();
        assert_eq!(w, uniform_disk(60, 9.0, 2));
        let s = build_instance(
            "separator_100k",
            &params(&[("n", 60.0), ("radius", 9.0)]),
            2,
        )
        .unwrap();
        assert_eq!(s, w);
        // Ordinary generators compute ℓ* instead of asserting it.
        assert_eq!(preset_ell("disk", &ParamMap::new()), None);
        assert_eq!(preset_ell("theorem2", &ParamMap::new()), None);
        // Geometry-pinned bounds are validated.
        let err = validate("grid_1m", &params(&[("spacing", 2.0), ("ell", 1.0)])).unwrap_err();
        assert!(err.to_string().contains("spacing"), "{err}");
        let err = validate("skewed_500k", &params(&[("ell", 10.0)])).unwrap_err();
        assert!(err.to_string().contains("straggler"), "{err}");
        // A shrunk family member builds the same instance as its base
        // generator with the mapped parameters.
        let a = build_instance("uniform_1m", &params(&[("n", 50.0), ("radius", 9.0)]), 5).unwrap();
        assert_eq!(a, uniform_disk(50, 9.0, 5));
    }

    #[test]
    fn unknown_generator_and_param_are_rejected() {
        let err = build("warp", &ParamMap::new(), 1).unwrap_err();
        assert!(matches!(err, RegistryError::UnknownGenerator { .. }));
        assert!(err.to_string().contains("uniform_disk"));
        let err = build("disk", &params(&[("spacing", 2.0)]), 1).unwrap_err();
        assert!(matches!(err, RegistryError::UnknownParam { .. }));
        assert!(err.to_string().contains("radius"), "{err}");
    }

    #[test]
    fn invalid_values_are_rejected_not_panicking() {
        let err = build("disk", &params(&[("radius", -1.0)]), 1).unwrap_err();
        assert!(matches!(err, RegistryError::InvalidParam { .. }));
        let err = build("theorem3", &params(&[("ell", 0.5)]), 1).unwrap_err();
        assert!(matches!(err, RegistryError::InvalidParam { .. }));
        let err = build("theorem6", &params(&[("xi", 4000.0)]), 1).unwrap_err();
        assert!(matches!(err, RegistryError::InvalidParam { .. }));
        // Past the ceiling a generator overflows (or never terminates).
        for radius in [1e308, 1e155] {
            let err = validate("disk", &params(&[("radius", radius)])).unwrap_err();
            assert!(err.to_string().contains("'radius'"), "{err}");
        }
        assert!(validate("disk", &params(&[("radius", 1e150)])).is_ok());
    }

    #[test]
    fn adversarial_generators_refuse_concrete_builds() {
        let err = build_instance("theorem2", &ParamMap::new(), 1).unwrap_err();
        assert!(matches!(err, RegistryError::NotConcrete { .. }));
        let Built::Adversarial(layout) = build("theorem2", &ParamMap::new(), 1).unwrap() else {
            panic!("theorem2 must be adversarial");
        };
        assert!(layout.n() > 0);
    }

    #[test]
    fn skewed_has_its_straggler() {
        let Built::Concrete(inst) =
            build("skewed", &params(&[("n", 20.0), ("far", 50.0)]), 9).unwrap()
        else {
            panic!("skewed is concrete");
        };
        assert_eq!(inst.n(), 21);
        assert!(inst.positions().iter().any(|p| p.norm() > 60.0));
    }

    #[test]
    fn lookup_resolves_aliases_and_rejects_unknowns() {
        assert_eq!(lookup("bridge").unwrap().name, "two_clusters_bridge");
        assert_eq!(lookup("clusters").unwrap().name, "clustered");
        assert!(lookup("nope").is_none());
    }
}
