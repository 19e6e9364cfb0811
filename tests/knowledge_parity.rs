//! Parity suite: the grid-indexed SoA [`Knowledge`] store against a
//! straightforward `BTreeMap` model (the data structure it replaced).
//!
//! Arbitrary interleavings of `note_sighting` / `note_awake` / `clear`
//! must leave both stores observably identical: id-ordered
//! iteration, region filters, point lookups, radius and rectangle
//! visitors. This is what lets the algorithms swap full-map rescans for
//! bounded grid queries without any behavioural wiggle room.

use freezetag::core::knowledge::Knowledge;
use freezetag::geometry::{Point, Rect};
use freezetag::sim::RobotId;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference semantics, transcribed from the pre-refactor store plus
/// the documented origin-overwrite rule (first look wins once awake).
#[derive(Debug, Clone, Default)]
struct Model {
    robots: BTreeMap<usize, (Point, bool)>,
}

impl Model {
    fn note_sighting(&mut self, id: usize, pos: Point) {
        let e = self.robots.entry(id).or_insert((pos, false));
        if !e.1 {
            e.0 = pos;
        }
    }

    fn note_awake(&mut self, id: usize, origin: Point) {
        let e = self.robots.entry(id).or_insert((origin, true));
        e.1 = true;
    }
}

#[derive(Debug, Clone)]
enum Op {
    Sighting(usize, Point),
    Awake(usize, Point),
    Clear,
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-30.0f64..30.0, -30.0f64..30.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_op() -> impl Strategy<Value = Op> {
    // (the vendored proptest subset has no weighted prop_oneof; the decode
    // strategy below skews towards sightings instead)
    (0u32..10, (0usize..40, arb_point())).prop_map(|(kind, (id, p))| match kind {
        0..=5 => Op::Sighting(id, p),
        6..=8 => Op::Awake(id, p),
        _ => Op::Clear,
    })
}

fn check_equal(k: &Knowledge, m: &Model, cell: f64) -> Result<(), TestCaseError> {
    // Cardinality + id-ordered iteration.
    prop_assert_eq!(k.len(), m.robots.len());
    prop_assert_eq!(k.is_empty(), m.robots.is_empty());
    let got: Vec<(usize, Point, bool)> = k
        .iter()
        .map(|(id, info)| (id.index(), info.origin, info.awake))
        .collect();
    let want: Vec<(usize, Point, bool)> =
        m.robots.iter().map(|(&id, &(p, a))| (id, p, a)).collect();
    prop_assert_eq!(&got, &want);
    // Point lookups.
    for id in 0..45 {
        let rid = RobotId::from_index(id);
        let want = m.robots.get(&id).copied();
        let got = k.get(rid).map(|i| (i.origin, i.awake));
        prop_assert_eq!(got, want);
        prop_assert_eq!(k.is_awake(rid), want.is_some_and(|(_, a)| a));
    }
    // Region filters (id order).
    let filt = |p: Point| p.x + p.y < 3.0;
    let got: Vec<usize> = k.asleep_where(filt).map(|(id, _)| id.index()).collect();
    let want: Vec<usize> = m
        .robots
        .iter()
        .filter(|(_, &(p, a))| !a && filt(p))
        .map(|(&id, _)| id)
        .collect();
    prop_assert_eq!(got, want);
    // Radius visitor: superset-free, exact acceptance (dist <= r + EPS).
    for (q, r) in [
        (Point::ORIGIN, 5.0),
        (Point::new(10.0, -10.0), 2.0 * cell),
        (Point::new(-3.0, 4.0), 0.0),
    ] {
        let mut got: Vec<usize> = Vec::new();
        k.for_each_known_within(q, r, |id, origin, awake| {
            let info = k.get(id).expect("visited robots are known");
            assert_eq!((info.origin, info.awake), (origin, awake));
            got.push(id.index());
        });
        got.sort_unstable();
        let want: Vec<usize> = m
            .robots
            .iter()
            .filter(|(_, &(p, _))| p.dist(q) <= r + freezetag::geometry::EPS)
            .map(|(&id, _)| id)
            .collect();
        prop_assert_eq!(&got, &want);
    }
    // Rect visitor: a superset of the rect with exact origins, each robot
    // exactly once.
    let rect = Rect::with_size(Point::new(-8.0, -8.0), 16.0, 10.0);
    let mut got: Vec<usize> = Vec::new();
    k.for_each_known_in_rect(&rect, |id, origin, _| {
        if rect.contains(origin) {
            got.push(id.index());
        }
    });
    got.sort_unstable();
    prop_assert!(
        got.windows(2).all(|w| w[0] != w[1]),
        "rect visitor reported a robot twice"
    );
    let want: Vec<usize> = m
        .robots
        .iter()
        .filter(|(_, &(p, _))| rect.contains(p))
        .map(|(&id, _)| id)
        .collect();
    prop_assert_eq!(&got, &want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any op sequence leaves the grid store and the map model
    /// observationally identical, for several grid cell widths.
    #[test]
    fn grid_store_matches_map_model(
        ops in prop::collection::vec(arb_op(), 0..60),
        cell in (0u32..4).prop_map(|i| [0.5f64, 1.0, 4.0, 17.0][i as usize]),
    ) {
        let mut k = Knowledge::with_cell_width(cell);
        let mut m = Model::default();
        for op in &ops {
            match op {
                Op::Sighting(id, p) => {
                    k.note_sighting(RobotId::from_index(*id), *p);
                    m.note_sighting(*id, *p);
                }
                Op::Awake(id, p) => {
                    k.note_awake(RobotId::from_index(*id), *p);
                    m.note_awake(*id, *p);
                }
                Op::Clear => {
                    k.clear();
                    m.robots.clear();
                }
            }
            check_equal(&k, &m, cell)?;
        }
    }
}
