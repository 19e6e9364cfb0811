//! Continuous-time Look-Compute-Move simulation substrate for the
//! distributed Freeze Tag Problem.
//!
//! The paper's model (Section 1.2): awake robots move at unit speed, take
//! *discrete* snapshots that reveal robots within Euclidean distance 1,
//! wake a sleeping robot by co-location, share memory only when co-located,
//! and know a global clock and coordinate system. Moving a distance δ takes
//! δ time and δ energy.
//!
//! This crate enforces that model through three layers:
//!
//! 1. **Sensing** — the [`WorldView`] trait is the *only* channel through
//!    which an algorithm learns robot positions. [`ConcreteWorld`] serves a
//!    fixed instance; [`AdversarialWorld`] plays the adaptive adversary of
//!    Theorems 2 and 3 (robots are pinned to the last explored cell of
//!    their disk).
//! 2. **Scheduling** — a [`Sim`] driver records every move/wait into
//!    per-robot [`Timeline`]s, tracking time and energy exactly.
//! 3. **Validation** — [`validate`] independently re-checks a finished
//!    run, flat [`Schedule`] or [`CompressedRecorder`]: timeline
//!    continuity, unit speed, motion only after wake-up, wake co-location,
//!    full coverage, energy budgets.
//!
//! A fourth, orthogonal layer is **deterministic intra-job parallelism**
//! ([`par`]): a [`ParPool`] of scoped threads that worlds and drivers use
//! to fan pure batches of work (sensing queries, grid-build key passes)
//! out over cores with an order-preserving merge, so a run's output is
//! bit-identical at any thread count — see [`Sim::with_pool`] and
//! [`WorldView::look_batch_into`].
//!
//! [`events`] runs robots the other way round: each awake robot executes
//! its own Look-Compute-Move program on one event queue, on one thread,
//! recording a [`Schedule`] through the [`FullRecorder`]. It exists to show
//! that the orchestrated drivers' runs are realizable by independent
//! robots.
//!
//! # Example
//!
//! ```
//! use freezetag_geometry::Point;
//! use freezetag_instances::Instance;
//! use freezetag_sim::{ConcreteWorld, RobotId, Sim, WorldView};
//!
//! let inst = Instance::new(vec![Point::new(0.5, 0.0)]);
//! let mut sim = Sim::new(ConcreteWorld::new(&inst));
//! let seen = sim.look(RobotId::SOURCE);
//! assert_eq!(seen.len(), 1);
//! sim.move_to(RobotId::SOURCE, seen[0].pos);
//! let woken = sim.wake(RobotId::SOURCE, seen[0].id);
//! assert_eq!(woken, seen[0].id);
//! assert!(sim.world().all_awake());
//! ```

#![warn(missing_docs)]

mod adversary;
pub mod cancel;
mod compress;
mod error;
pub mod events;
mod id;
pub mod par;
mod record;
mod schedule;
#[allow(clippy::module_inception)]
mod sim;
pub mod svg;
mod trace;
mod validate;
mod world;

pub use adversary::AdversarialWorld;
pub use cancel::{catch_cancel, CancelToken, Cancelled, DEADLINE_STRIDE};
pub use compress::{
    CompressedRecorder, SegmentIter, WakeIter, SEG_BLOCK_EVENTS, WAKE_BLOCK_EVENTS,
};
pub use error::SimError;
pub use id::RobotId;
pub use par::ParPool;
pub use record::{FullRecorder, Recorder, StatsRecorder};
pub use schedule::{Schedule, Segment, Timeline, WakeEvent};
pub use sim::Sim;
pub use trace::{Trace, TraceSpan};
pub use validate::{
    validate, validate_compressed, validate_with_pool, RecordedRun, ValidationOptions,
    ValidationReport,
};
pub use world::{ConcreteWorld, Sighting, WorldView};
