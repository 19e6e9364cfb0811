//! Systematic corruption matrix for the schedule validator: every class of
//! model violation must be caught. The validator is the trust anchor of
//! the whole reproduction (DESIGN.md §3), so it gets its own suite.
//!
//! Every fault is recorded through the [`Recorder`] trait and checked on
//! both stores the validator reads: a `FullRecorder`'s flat schedule and
//! a `CompressedRecorder`'s delta-encoded blocks. Faults the codec cannot
//! encode stay flat-only and live with the validator's unit tests: a
//! segment whose `from` differs from the previous `to` (the codec implies
//! `from`), and a faster-than-unit-speed move (the codec recomputes every
//! end time as start + length).
//!
//! Every store is also validated at pool widths 1, 2 and 4: the pooled
//! validator must return the same first error (variant and message) and
//! a bit-identical report at every width, on these small faults and on
//! long runs whose faults sit in different batches.

use freezetag::geometry::Point;
use freezetag::instances::Instance;
use freezetag::sim::{
    validate, validate_with_pool, CompressedRecorder, ConcreteWorld, FullRecorder, ParPool,
    RecordedRun, Recorder, RobotId, Sim, SimError, ValidationOptions, ValidationReport, WakeEvent,
};

/// A recording step applied identically to both stores.
type Fault = dyn Fn(&mut dyn Recorder);

/// Pool widths every validation runs at.
const WIDTHS: [usize; 3] = [1, 2, 4];

/// A report's fields as bits, so equality is bit-identity.
fn bits(r: &ValidationReport) -> [u64; 6] {
    [
        r.makespan.to_bits(),
        r.completion_time.to_bits(),
        r.max_energy.to_bits(),
        r.total_energy.to_bits(),
        r.robots_awake as u64,
        r.wake_count as u64,
    ]
}

/// Validates `run` sequentially and at every pool width in [`WIDTHS`],
/// asserting that all of them agree — the same error, or bit-identical
/// reports — and returns the sequential result.
fn validate_widths<R: RecordedRun>(
    run: &R,
    inst: &Instance,
    opts: &ValidationOptions,
) -> Result<ValidationReport, SimError> {
    let seq = validate(run, inst.source(), inst.positions(), opts);
    for width in WIDTHS {
        let pooled = validate_with_pool(
            run,
            inst.source(),
            inst.positions(),
            opts,
            &ParPool::new(width),
        );
        match (&seq, &pooled) {
            (Ok(a), Ok(b)) => assert_eq!(bits(a), bits(b), "report at width {width}"),
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "error at width {width}");
                assert_eq!(a.to_string(), b.to_string(), "message at width {width}");
            }
            _ => panic!("width {width}: {pooled:?} instead of {seq:?}"),
        }
    }
    seq
}

/// Records `fault` into a fresh recorder of each store (sized for `n`
/// sleepers) and validates both against `inst` at every pool width —
/// flat result first.
fn validate_both(
    n: usize,
    inst: &Instance,
    opts: &ValidationOptions,
    fault: &dyn Fn(&mut dyn Recorder),
) -> [Result<ValidationReport, SimError>; 2] {
    let mut full = FullRecorder::with_capacity(n);
    fault(&mut full);
    let mut compressed = CompressedRecorder::with_capacity(n);
    fault(&mut compressed);
    [
        validate_widths(full.schedule(), inst, opts),
        validate_widths(&compressed, inst, opts),
    ]
}

/// [`validate_both`] under default options, keeping only the errors.
fn errors(inst: &Instance, fault: &Fault) -> [SimError; 2] {
    validate_both(inst.n(), inst, &ValidationOptions::default(), fault)
        .map(|r| r.expect_err("the fault must be caught"))
}

/// Wakes `target` at the waker's current time and place, as `Sim::wake`
/// records it.
fn wake(rec: &mut dyn Recorder, waker: RobotId, target: RobotId) {
    let time = rec.current_time(waker).expect("waker is awake");
    let pos = rec.current_pos(waker).expect("waker is awake");
    rec.activate(target, time, pos);
    rec.record_wake(WakeEvent {
        waker,
        target,
        time,
        pos,
    });
}

fn base_instance() -> Instance {
    Instance::new(vec![Point::new(1.0, 0.0), Point::new(1.0, 2.0)])
}

/// A legal two-wake run over [`base_instance`], the base for corruption.
fn base_run(rec: &mut dyn Recorder) {
    rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
    rec.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
    wake(rec, RobotId::SOURCE, RobotId::sleeper(0));
    rec.move_to(RobotId::sleeper(0), Point::new(1.0, 2.0));
    wake(rec, RobotId::sleeper(0), RobotId::sleeper(1));
}

#[test]
fn base_run_is_valid() {
    let inst = base_instance();
    let [flat, compressed] = validate_both(2, &inst, &ValidationOptions::default(), &base_run);
    assert_eq!(
        flat.expect("base run must validate"),
        compressed.expect("base run must validate")
    );
    // The hand-recorded base run is exactly what the simulator records.
    let mut sim = Sim::new(ConcreteWorld::new(&inst));
    sim.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
    let r0 = sim.wake(RobotId::SOURCE, RobotId::sleeper(0));
    sim.move_to(r0, Point::new(1.0, 2.0));
    sim.wake(r0, RobotId::sleeper(1));
    let mut manual = FullRecorder::with_capacity(2);
    base_run(&mut manual);
    assert_eq!(sim.schedule().wakes(), manual.schedule().wakes());
}

#[test]
fn missing_wake_event_is_caught() {
    // A robot has a timeline but no wake event.
    let inst = Instance::new(vec![Point::new(1.0, 0.0)]);
    for err in errors(&inst, &|rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.activate(RobotId::sleeper(0), 1.0, Point::new(1.0, 0.0));
    }) {
        assert!(matches!(err, SimError::InvalidTimeline(_)), "{err}");
    }
}

#[test]
fn wake_from_a_distance_is_caught() {
    let inst = Instance::new(vec![Point::new(5.0, 0.0)]);
    // The source never moves, yet claims to wake a robot 5 away.
    for err in errors(&inst, &|rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.record_wake(WakeEvent {
            waker: RobotId::SOURCE,
            target: RobotId::sleeper(0),
            time: 1.0,
            pos: Point::new(5.0, 0.0),
        });
        rec.activate(RobotId::sleeper(0), 1.0, Point::new(5.0, 0.0));
    }) {
        assert!(matches!(err, SimError::NotColocated { .. }), "{err}");
    }
}

#[test]
fn wake_before_waker_is_awake_is_caught() {
    let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(1.0, 0.5)]);
    for err in errors(&inst, &|rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
        wake(rec, RobotId::SOURCE, RobotId::sleeper(0));
        // Robot 0 "wakes" robot 1 half a unit away at a time *before*
        // robot 0 itself was awake.
        rec.record_wake(WakeEvent {
            waker: RobotId::sleeper(0),
            target: RobotId::sleeper(1),
            time: 0.5,
            pos: Point::new(1.0, 0.5),
        });
        rec.activate(RobotId::sleeper(1), 0.5, Point::new(1.0, 0.5));
    }) {
        assert!(matches!(err, SimError::Asleep(_)), "{err}");
    }
}

#[test]
fn double_wake_is_caught() {
    for err in errors(&base_instance(), &|rec| {
        base_run(rec);
        let mut first = None;
        rec.for_each_wake_from(0, &mut |w| {
            first.get_or_insert(*w);
        });
        rec.record_wake(first.expect("the base run wakes"));
    }) {
        assert!(matches!(err, SimError::AlreadyAwake(_)), "{err}");
    }
}

#[test]
fn wrong_initial_position_is_caught() {
    // Validate against *shifted* ground-truth positions.
    let wrong = Instance::new(vec![Point::new(1.5, 0.0), Point::new(1.0, 2.0)]);
    for err in errors(&wrong, &base_run) {
        assert!(matches!(err, SimError::InvalidTimeline(_)), "{err}");
    }
}

#[test]
fn superluminal_motion_is_caught() {
    // A timeline that covers 100 units in ~0 time would be needed; the
    // Recorder API cannot even express it (the flat-only tamper hook in
    // the sim crate's unit tests checks the speed test itself). Here: a
    // *teleporting* wake position (event at the robot's position while
    // the waker path ends elsewhere).
    let inst = Instance::new(vec![Point::new(100.0, 0.0)]);
    for err in errors(&inst, &|rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
        rec.record_wake(WakeEvent {
            waker: RobotId::SOURCE,
            target: RobotId::sleeper(0),
            time: 1.0,
            pos: Point::new(100.0, 0.0),
        });
        rec.activate(RobotId::sleeper(0), 1.0, Point::new(100.0, 0.0));
    }) {
        assert!(matches!(err, SimError::NotColocated { .. }), "{err}");
    }
}

#[test]
fn incomplete_coverage_is_caught_and_waivable() {
    let inst = Instance::new(vec![Point::new(1.0, 0.0), Point::new(50.0, 0.0)]);
    let partial: &Fault = &|rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
        wake(rec, RobotId::SOURCE, RobotId::sleeper(0));
    };
    for err in errors(&inst, partial) {
        assert_eq!(err, SimError::NotAllAwake { asleep: 1 });
    }
    let lax = ValidationOptions {
        require_all_awake: false,
        ..Default::default()
    };
    for result in validate_both(2, &inst, &lax, partial) {
        result.expect("waived");
    }
}

#[test]
fn energy_budgets_are_binding_edges() {
    let inst = base_instance();
    // Worst robot travels exactly 2 (source: 1, r0: 2).
    let exact = ValidationOptions {
        energy_budget: Some(2.0),
        ..Default::default()
    };
    for result in validate_both(2, &inst, &exact, &base_run) {
        result.expect("budget met exactly");
    }
    let tight = ValidationOptions {
        energy_budget: Some(1.99),
        ..Default::default()
    };
    for result in validate_both(2, &inst, &tight, &base_run) {
        let err = result.unwrap_err();
        assert!(matches!(err, SimError::EnergyExceeded { .. }), "{err}");
    }
}

#[test]
fn source_waking_itself_is_caught() {
    for err in errors(&base_instance(), &|rec| {
        base_run(rec);
        rec.record_wake(WakeEvent {
            waker: RobotId::sleeper(0),
            target: RobotId::SOURCE,
            time: 2.0,
            pos: Point::ORIGIN,
        });
    }) {
        assert!(matches!(err, SimError::InvalidTimeline(_)), "{err}");
    }
}

#[test]
fn wake_target_without_initial_position_is_an_error_not_a_panic() {
    // A two-robot run checked against a one-robot position list: the
    // second sleeper has a timeline (and a wake) but no initial position.
    let short = Instance::new(vec![Point::new(1.0, 0.0)]);
    for err in validate_both(2, &short, &ValidationOptions::default(), &base_run) {
        let err = err.expect_err("an extra robot must be rejected");
        assert!(matches!(err, SimError::InvalidTimeline(_)), "{err}");
    }
    // A wake event whose target has neither a slot nor a position.
    for err in errors(&short, &|rec| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
        wake(rec, RobotId::SOURCE, RobotId::sleeper(0));
        rec.record_wake(WakeEvent {
            waker: RobotId::sleeper(0),
            target: RobotId::sleeper(1),
            time: 1.0,
            pos: Point::new(1.0, 0.0),
        });
    }) {
        assert!(matches!(err, SimError::InvalidTimeline(_)), "{err}");
    }
}

/// Sleepers of the long runs: enough that timelines and wake events
/// both span several pool tasks.
const LONG: usize = 5000;

fn long_instance() -> Instance {
    Instance::new(
        (0..LONG)
            .map(|i| Point::new(1.0 + i as f64 * 0.5, (i % 7) as f64 * 0.25))
            .collect(),
    )
}

/// The source walks the sleepers in index order and wakes each; every
/// woken robot steps aside and waits. `tamper(i, rec)` may record the
/// wake of sleeper `i` itself (returning `true`) to inject a fault.
fn long_run(rec: &mut dyn Recorder, tamper: &dyn Fn(usize, &mut dyn Recorder) -> bool) {
    let inst = long_instance();
    rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
    for (i, &p) in inst.positions().iter().enumerate() {
        rec.move_to(RobotId::SOURCE, p);
        if !tamper(i, rec) {
            wake(rec, RobotId::SOURCE, RobotId::sleeper(i));
        }
        let r = RobotId::sleeper(i);
        rec.move_to(r, Point::new(p.x, p.y + 0.1));
        let now = rec.current_time(r).expect("woken");
        rec.wait_until(r, now + 1.0);
    }
}

/// Validates a [`long_run`] under `tamper` on both stores at every width,
/// against `inst`.
fn long_results(
    inst: &Instance,
    tamper: &dyn Fn(usize, &mut dyn Recorder) -> bool,
) -> [Result<ValidationReport, SimError>; 2] {
    validate_both(LONG, inst, &ValidationOptions::default(), &|rec| {
        long_run(rec, tamper)
    })
}

/// Wakes sleeper `i` from afar: the waker is sleeper 0, parked at the
/// start of the line.
fn wake_from_afar(i: usize, rec: &mut dyn Recorder) {
    let time = rec.current_time(RobotId::SOURCE).expect("awake");
    let pos = rec.current_pos(RobotId::SOURCE).expect("awake");
    rec.activate(RobotId::sleeper(i), time, pos);
    rec.record_wake(WakeEvent {
        waker: RobotId::sleeper(0),
        target: RobotId::sleeper(i),
        time,
        pos,
    });
}

/// Records a second wake of sleeper 7 at the source's current place.
fn wake_seven_again(rec: &mut dyn Recorder) {
    rec.record_wake(WakeEvent {
        waker: RobotId::SOURCE,
        target: RobotId::sleeper(7),
        time: rec.current_time(RobotId::SOURCE).expect("awake"),
        pos: rec.current_pos(RobotId::SOURCE).expect("awake"),
    });
}

#[test]
fn long_valid_runs_give_bit_identical_reports_at_every_width() {
    let [flat, compressed] = long_results(&long_instance(), &|_, _| false);
    let (flat, compressed) = (flat.expect("valid"), compressed.expect("valid"));
    assert_eq!(bits(&flat), bits(&compressed));
    assert_eq!(flat.wake_count, LONG);
}

#[test]
fn long_runs_report_the_first_fault_across_batches() {
    let inst = long_instance();
    // A per-event fault (event 4000) before an order-dependent one
    // (event 4501 re-wakes sleeper 7): the per-event fault is first.
    let colocated_first = |i: usize, rec: &mut dyn Recorder| match i {
        4000 => {
            wake_from_afar(i, rec);
            true
        }
        4500 => {
            wake(rec, RobotId::SOURCE, RobotId::sleeper(i));
            wake_seven_again(rec);
            true
        }
        _ => false,
    };
    for err in long_results(&inst, &colocated_first) {
        let err = err.expect_err("faulty");
        assert!(matches!(err, SimError::NotColocated { .. }), "{err}");
    }
    // The same faults in the other order: the duplicate wins.
    let duplicate_first = |i: usize, rec: &mut dyn Recorder| match i {
        3000 => {
            wake(rec, RobotId::SOURCE, RobotId::sleeper(i));
            wake_seven_again(rec);
            true
        }
        4000 => {
            wake_from_afar(i, rec);
            true
        }
        _ => false,
    };
    for err in long_results(&inst, &duplicate_first) {
        let err = err.expect_err("faulty");
        assert_eq!(err, SimError::AlreadyAwake(RobotId::sleeper(7)));
    }
    // A timeline fault in the last batch of robots outranks every wake
    // fault: timelines are checked first.
    let mut positions = inst.positions().to_vec();
    positions[LONG - 10].x += 1.0;
    let shifted = Instance::new(positions);
    for err in long_results(&shifted, &colocated_first) {
        let err = err.expect_err("faulty");
        let SimError::InvalidTimeline(msg) = &err else {
            panic!("{err}");
        };
        assert!(msg.contains("initial position"), "{msg}");
    }
}

/// Robots woken in reverse index order: the compressed store keeps the
/// higher-index robot's track first, in an earlier pool task. Sleeper `i`
/// then steps `2i + 0.1` aside, so travels differ robot by robot. Timeline
/// faults and energy overruns on several robots still report the
/// lowest-index one, and the report's energy sum still runs in index
/// order — on both stores, at every pool width.
#[test]
fn the_lowest_index_fault_wins_in_any_storage_order() {
    let inst = long_instance();
    let reverse_run = |rec: &mut dyn Recorder| {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        for (i, &p) in inst.positions().iter().enumerate().rev() {
            rec.move_to(RobotId::SOURCE, p);
            wake(rec, RobotId::SOURCE, RobotId::sleeper(i));
            let aside = Point::new(p.x, p.y + 2.0 * i as f64 + 0.1);
            rec.move_to(RobotId::sleeper(i), aside);
        }
    };
    let opts = ValidationOptions::default();
    let [flat, compressed] = validate_both(LONG, &inst, &opts, &reverse_run);
    assert_eq!(
        bits(&flat.expect("valid")),
        bits(&compressed.expect("valid"))
    );

    // Robot 100 is stored 100th from the end, robot LONG - 100 100th from
    // the front: different timeline tasks in either order.
    let (lo, hi) = (100, LONG - 100);
    let shifted = |faulty: &[usize]| {
        let mut positions = inst.positions().to_vec();
        for &i in faulty {
            positions[i].x += 1.0;
        }
        Instance::new(positions)
    };
    for (faulty, reported) in [(&[lo, hi][..], lo), (&[hi][..], hi)] {
        let results = validate_both(LONG, &shifted(faulty), &opts, &reverse_run);
        for err in results.map(|r| r.expect_err("faulty")) {
            let SimError::InvalidTimeline(msg) = &err else {
                panic!("{err}");
            };
            let want = format!("robot {} starts at", RobotId::sleeper(reported));
            assert!(msg.starts_with(&want), "{msg}");
        }
    }

    // Every sleeper from 3500 on travels past a 7000 budget (the source
    // travels ~5000); the last of them is stored first.
    let budget = ValidationOptions {
        energy_budget: Some(7000.0),
        ..opts
    };
    for err in validate_both(LONG, &inst, &budget, &reverse_run) {
        match err.expect_err("over budget") {
            SimError::EnergyExceeded { robot, .. } => assert_eq!(robot, RobotId::sleeper(3500)),
            other => panic!("{other}"),
        }
    }
}
