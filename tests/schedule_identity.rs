//! Schedule byte-identity pins for the knowledge-store refactor.
//!
//! The grid-indexed `Knowledge` rewrite (and every optimization that rode
//! along with it) must change *speed only*: `ASeparator` and `AWave`
//! schedules have to stay bit-for-bit identical to the pre-refactor
//! implementation. The hashes below were captured from the seed (BTreeMap
//! knowledge) code on one representative instance per concrete generator
//! family, plus every Lemma 2 wake-strategy for `ASeparator` — a change to
//! any wake time, segment endpoint, or event order flips the FNV-1a hash.
//!
//! `AGrid` is pinned separately on five adaptive-adversary layouts: on an
//! impure-sensing world every look is state, so these pins catch any
//! reordering of a slot's sensing relative to its wakes.
//!
//! To regenerate after an *intentional* schedule change (which also
//! requires regenerating BENCH_results.json):
//! `cargo test --release --test schedule_identity -- --ignored --nocapture`

use freezetag::central::WakeStrategy;
use freezetag::core::{a_grid, a_separator, a_wave, AGridConfig, ASeparatorConfig, AWaveConfig};
use freezetag::instances::adversarial::{theorem2_layout, theorem3_layout, AdversarialLayout};
use freezetag::instances::registry::{self, ParamMap};
use freezetag::sim::{AdversarialWorld, ConcreteWorld, Schedule, Sim, WorldView};

/// FNV-1a over the full schedule: every timeline (robot, activation,
/// segment endpoints/times) in deterministic order plus the wake log.
fn schedule_hash(schedule: &Schedule) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for tl in schedule.timelines() {
        eat(tl.robot().index() as u64);
        eat(tl.start_time().to_bits());
        eat(tl.start_pos().x.to_bits());
        eat(tl.start_pos().y.to_bits());
        eat(tl.segments().len() as u64);
        for s in tl.segments() {
            eat(s.start_time.to_bits());
            eat(s.end_time.to_bits());
            eat(s.from.x.to_bits());
            eat(s.from.y.to_bits());
            eat(s.to.x.to_bits());
            eat(s.to.y.to_bits());
        }
    }
    for w in schedule.wakes() {
        eat(w.waker.index() as u64);
        eat(w.target.index() as u64);
        eat(w.time.to_bits());
        eat(w.pos.x.to_bits());
        eat(w.pos.y.to_bits());
    }
    h
}

/// One pinned case: `(label, generator, params, seed, algorithm)` where
/// algorithm is `"wave"` or a separator strategy name.
type Case = (
    &'static str,
    &'static str,
    &'static [(&'static str, f64)],
    u64,
    &'static str,
);

const CASES: &[Case] = &[
    (
        "disk/sep",
        "uniform_disk",
        &[("n", 60.0), ("radius", 12.0)],
        1,
        "quadtree",
    ),
    (
        "disk/sep/greedy",
        "uniform_disk",
        &[("n", 60.0), ("radius", 12.0)],
        1,
        "greedy",
    ),
    (
        "disk/sep/median",
        "uniform_disk",
        &[("n", 60.0), ("radius", 12.0)],
        1,
        "median",
    ),
    (
        "disk/sep/chain",
        "uniform_disk",
        &[("n", 60.0), ("radius", 12.0)],
        1,
        "chain",
    ),
    (
        "disk/sep/s2",
        "uniform_disk",
        &[("n", 60.0), ("radius", 12.0)],
        2,
        "quadtree",
    ),
    (
        "disk/wave",
        "uniform_disk",
        &[("n", 60.0), ("radius", 12.0)],
        1,
        "wave",
    ),
    (
        "disk/wave/s2",
        "uniform_disk",
        &[("n", 60.0), ("radius", 12.0)],
        2,
        "wave",
    ),
    (
        "lattice/sep",
        "grid_lattice",
        &[("side", 8.0), ("spacing", 1.5)],
        1,
        "quadtree",
    ),
    (
        "lattice/wave",
        "grid_lattice",
        &[("side", 8.0), ("spacing", 1.5)],
        1,
        "wave",
    ),
    (
        "snake/sep",
        "snake",
        &[("legs", 3.0), ("leg", 20.0), ("spacing", 1.5)],
        1,
        "quadtree",
    ),
    (
        "snake/wave",
        "snake",
        &[("legs", 3.0), ("leg", 20.0), ("spacing", 1.5)],
        1,
        "wave",
    ),
    (
        "ring/sep",
        "ring",
        &[("n", 30.0), ("radius", 8.0)],
        3,
        "quadtree",
    ),
    (
        "ring/wave",
        "ring",
        &[("n", 30.0), ("radius", 8.0)],
        3,
        "wave",
    ),
    (
        "clusters/sep",
        "clustered",
        &[("clusters", 3.0), ("per", 12.0), ("spread", 12.0)],
        4,
        "quadtree",
    ),
    (
        "clusters/wave",
        "clustered",
        &[("clusters", 3.0), ("per", 12.0), ("spread", 12.0)],
        4,
        "wave",
    ),
    (
        "bridge/sep",
        "two_clusters_bridge",
        &[("per", 12.0), ("gap", 14.0)],
        5,
        "quadtree",
    ),
    (
        "bridge/wave",
        "two_clusters_bridge",
        &[("per", 12.0), ("gap", 14.0)],
        5,
        "wave",
    ),
    (
        "skewed/sep",
        "skewed",
        &[("n", 25.0), ("radius", 3.0), ("far", 5.0)],
        6,
        "quadtree",
    ),
    (
        "skewed/wave",
        "skewed",
        &[("n", 25.0), ("radius", 3.0), ("far", 5.0)],
        6,
        "wave",
    ),
    ("path/sep", "theorem6", &[], 1, "quadtree"),
    ("path/wave", "theorem6", &[], 1, "wave"),
];

/// Pinned hashes (see module docs). Captured on the seed (BTreeMap
/// knowledge) implementation, re-captured once at the sweeper cap of the
/// kernel PR: `explore` stopped cutting a rectangle into more strips than
/// `⌈height/√2⌉` (surplus members duplicate coverage — snapshot rows `√2`
/// apart already certify the rectangle), an intentional schedule change
/// that cut `wave_100k` sensing volume ~40×. Cases whose teams never
/// exceeded the cap (e.g. `disk/sep/s2`, `skewed/sep`) kept their seed
/// hashes — everything else was regenerated with the helper below. The
/// pins were recorded under the scalar membership kernels and hold
/// unchanged under the wide ones that replaced them.
const EXPECTED: &[(&str, u64)] = &[
    ("disk/sep", 0xe8b19251361f8ebe),
    ("disk/sep/greedy", 0x8597de3834af1466),
    ("disk/sep/median", 0xcbf48a114d6907ba),
    ("disk/sep/chain", 0xc7afb6c88c1e7f5f),
    ("disk/sep/s2", 0x4f218b22ea769d66),
    ("disk/wave", 0x17d88f61ad40115c),
    ("disk/wave/s2", 0x9abf1936779ef843),
    ("lattice/sep", 0x4abe02ba36adc7c4),
    ("lattice/wave", 0xd3fd1edf9f44d4f5),
    ("snake/sep", 0xddb1ad02ad477114),
    ("snake/wave", 0x4f4236f67795703d),
    ("ring/sep", 0x1f2cfd6f9acd785c),
    ("ring/wave", 0x5fc0be2599db9c6b),
    ("clusters/sep", 0xd224c4a5faed205c),
    ("clusters/wave", 0xece2f1d83ec31b6a),
    ("bridge/sep", 0xccae106417288cc5),
    ("bridge/wave", 0xc2e7a0b7d7151979),
    ("skewed/sep", 0xaeebab0b83bce0fd),
    ("skewed/wave", 0x578246a75c75fc86),
    ("path/sep", 0x96eb296bbfd92b73),
    ("path/wave", 0x18bbf95e47bbb5b5),
];

fn run_case(case: &Case) -> u64 {
    let &(label, generator, params, seed, alg) = case;
    let params: ParamMap = params.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let inst = registry::build_instance(generator, &params, seed)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let tuple = inst.admissible_tuple();
    let mut sim = Sim::new(ConcreteWorld::new(&inst));
    match alg {
        "wave" => a_wave(&mut sim, &AWaveConfig { ell: tuple.ell }),
        strategy => {
            let strategy = match strategy {
                "quadtree" => WakeStrategy::Quadtree,
                "greedy" => WakeStrategy::Greedy,
                "median" => WakeStrategy::MedianSplit,
                "chain" => WakeStrategy::Chain,
                other => panic!("unknown strategy {other}"),
            };
            a_separator(&mut sim, &ASeparatorConfig { tuple, strategy });
        }
    }
    assert!(sim.world().all_awake(), "{label}: robots left asleep");
    let (_, schedule, _) = sim.into_parts();
    schedule_hash(&schedule)
}

/// `AGrid` against the adaptive adversary: `(label, layout)`.
fn adversarial_grid_cases() -> Vec<(&'static str, AdversarialLayout)> {
    vec![
        ("t2/4-32-4000", theorem2_layout(4.0, 32.0, 4000)),
        ("t2/2-24-50", theorem2_layout(2.0, 24.0, 50)),
        ("t2/1-16-30", theorem2_layout(1.0, 16.0, 30)),
        ("t3/4-1", theorem3_layout(4.0, 1)),
        ("t3/8-5", theorem3_layout(8.0, 5)),
    ]
}

/// Pinned `AGrid` hashes on [`adversarial_grid_cases`]: the schedules of
/// running each slot's groups one after another (sense, then wake), which
/// `AGrid`'s phased slot loop must reproduce on the adversary too.
const EXPECTED_ADVERSARIAL_GRID: &[(&str, u64)] = &[
    ("t2/4-32-4000", 0x3ab81758f519a7dc),
    ("t2/2-24-50", 0x74135082e8cad026),
    ("t2/1-16-30", 0x4d2cf1b0a6b6df40),
    ("t3/4-1", 0x412a3393ffe277d2),
    ("t3/8-5", 0xde35d8f11d9efcab),
];

fn run_adversarial_grid(label: &str, layout: AdversarialLayout) -> u64 {
    let ell = layout.ell;
    let mut sim = Sim::new(AdversarialWorld::new(layout));
    a_grid(&mut sim, &AGridConfig { ell });
    assert!(sim.world().all_awake(), "{label}: robots left asleep");
    let (_, schedule, _) = sim.into_parts();
    schedule_hash(&schedule)
}

/// Compares measured `(label, hash)` pairs against a pin table and
/// reports every divergence at once.
fn check_pins(got: Vec<(&str, u64)>, pins: &[(&str, u64)], what: &str) {
    assert_eq!(got.len(), pins.len(), "pin table out of sync");
    let mut failures = Vec::new();
    for ((label, got), &(pinned_label, want)) in got.into_iter().zip(pins) {
        assert_eq!(label, pinned_label, "pin table out of sync at {label}");
        if got != want {
            failures.push(format!("{label}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(failures.is_empty(), "{what}:\n{}", failures.join("\n"));
}

#[test]
fn schedules_match_seed_hashes() {
    let got = CASES.iter().map(|c| (c.0, run_case(c))).collect();
    check_pins(
        got,
        EXPECTED,
        "schedules diverged from the seed implementation",
    );
}

#[test]
fn agrid_adversarial_schedules_match_pins() {
    let got = adversarial_grid_cases()
        .into_iter()
        .map(|(label, layout)| (label, run_adversarial_grid(label, layout)))
        .collect();
    check_pins(
        got,
        EXPECTED_ADVERSARIAL_GRID,
        "AGrid schedules diverged on the adversary",
    );
}

/// Regeneration helper: prints both pin tables (see module docs).
#[test]
#[ignore = "regeneration helper, not a check"]
fn dump_seed_hashes() {
    for case in CASES {
        println!("    (\"{}\", {:#018x}),", case.0, run_case(case));
    }
    for (label, layout) in adversarial_grid_cases() {
        println!(
            "    (\"{label}\", {:#018x}),",
            run_adversarial_grid(label, layout)
        );
    }
}
