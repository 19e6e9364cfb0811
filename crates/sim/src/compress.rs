//! Block-compressed schedule recording: full trajectories at a fraction of
//! the flat-segment footprint.
//!
//! [`FullRecorder`](crate::FullRecorder) spends 48 B per move (a
//! [`Segment`] is four f64 pairs); at 10⁶ robots that is the memory wall
//! that keeps validated runs an order of magnitude behind stats runs.
//! [`CompressedRecorder`] exploits the structure of Freeze-Tag timelines:
//!
//! * **Implied `from`** — timelines are contiguous, so a move's departure
//!   point is the previous event's arrival point and is never stored.
//! * **Implied times** — moves run at unit speed, so a move's end time is
//!   `start + dist(from, to)` and is *recomputed* on decode with the same
//!   float ops the recorder used, which keeps every derived aggregate
//!   bit-identical. Only waits store a time, delta-coded against the
//!   monotone per-robot clock.
//! * **XOR field coding** — consecutive coordinates share sign, exponent
//!   and high mantissa bits (sweeps are axis-aligned, hops are short), so
//!   each f64 is stored as `SAME` (0 bytes), a LEB128 varint of
//!   `prev_bits ^ new_bits`, or 8 raw bytes — whichever is smallest.
//! * **Varint wake ids** — wake events delta-code waker/target indices
//!   (zigzag varints) and XOR-code time/position against the previous
//!   event.
//!
//! Events are grouped into fixed-size blocks ([`SEG_BLOCK_EVENTS`] per
//! robot, [`WAKE_BLOCK_EVENTS`] in the wake log) with a small uncompressed
//! header holding the decoder state at the block boundary, so decode can
//! start at any block: [`position_at`] seeks to the one block holding its
//! time, the validator's wake pass splits the wake log at its snapshots,
//! and segments decode one at a time straight from the bytes, never
//! materialising a timeline.
//!
//! Each robot's state, event bytes and block headers live together in one
//! per-robot record, so recording an event touches that record and the
//! tail of its stream rather than a line per field. The records are stored
//! in activation order behind a slot map by robot index (the
//! constant-memory recorders' shared layout), so the robots one wake-up
//! tree woke — the group that moves together next — sit in one contiguous
//! run of records.
//!
//! [`position_at`]: CompressedRecorder::position_at
//! [`Segment`]: crate::Segment

use crate::record::{self, ActivationOrder, RobotState, ASLEEP_PANIC};
use crate::{Recorder, RobotId, Segment, WakeEvent};
use freezetag_geometry::Point;
use std::cmp::Ordering;

/// Segment events per compression block (per robot).
///
/// 64 events × ~10 B ≈ 640 B per block against a 32 B header: ~5% header
/// overhead, while a [`CompressedRecorder::position_at`] seek decodes at most
/// one block.
pub const SEG_BLOCK_EVENTS: usize = 64;

/// Wake events per wake-log snapshot block.
pub const WAKE_BLOCK_EVENTS: usize = 256;

/// Capacity a robot's event stream starts with: ~24 moves at the typical
/// ~10 B/move. Growing every stream from `Vec`'s 8-byte minimum instead
/// costs five small reallocations per robot, interleaved across 10⁵–10⁶
/// streams, which measured at ~30% of a 10⁵-robot `AGrid` recording.
/// Capacity only: recorded bytes and `memory_bytes` are unchanged.
const FIRST_STREAM_BYTES: usize = 256;

const MODE_SAME: u8 = 0;
const MODE_XOR: u8 = 1;
const MODE_RAW: u8 = 2;

/// Bytes in the LEB128 encoding of `v`: one per started 7-bit group.
#[inline]
fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Appends the LEB128 encoding of `v` with one `extend_from_slice`: the
/// groups are staged in a stack buffer (continuation bit on all but the
/// last), so the output `Vec` sees one length check instead of one per
/// byte.
#[inline]
fn write_varint(out: &mut Vec<u8>, v: u64) {
    let len = varint_len(v);
    let mut buf = [0u8; 10];
    let mut rest = v;
    for b in &mut buf[..len] {
        *b = rest as u8 | 0x80;
        rest >>= 7;
    }
    buf[len - 1] &= 0x7f;
    out.extend_from_slice(&buf[..len]);
}

#[inline]
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Cheapest encoding for an f64 transition `prev_bits -> next_bits`.
#[inline]
fn field_mode(prev: u64, next: u64) -> u8 {
    let x = prev ^ next;
    if x == 0 {
        MODE_SAME
    } else if varint_len(x) < 8 {
        MODE_XOR
    } else {
        MODE_RAW
    }
}

#[inline]
fn write_field(out: &mut Vec<u8>, mode: u8, prev: u64, next: u64) {
    match mode {
        MODE_SAME => {}
        MODE_XOR => write_varint(out, prev ^ next),
        _ => out.extend_from_slice(&next.to_le_bytes()),
    }
}

#[inline]
fn read_field(bytes: &[u8], pos: &mut usize, mode: u8, prev: u64) -> u64 {
    match mode {
        MODE_SAME => prev,
        MODE_XOR => prev ^ read_varint(bytes, pos),
        _ => {
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&bytes[*pos..*pos + 8]);
            *pos += 8;
            u64::from_le_bytes(raw)
        }
    }
}

/// Per-block header: byte offset of the block's first event plus the exact
/// decoder state (time, position) at the block boundary.
#[derive(Debug, Clone, Copy)]
struct SegBlock {
    byte_start: usize,
    start_time: f64,
    start_x: f64,
    start_y: f64,
}

/// Wake-log snapshot: decoder state *before* the block's first event.
#[derive(Debug, Clone, Copy)]
struct WakeSnapshot {
    byte_start: usize,
    waker: u64,
    target: u64,
    time_bits: u64,
    x_bits: u64,
    y_bits: u64,
}

/// Append-only compressed wake-event log with block snapshots for seeking.
#[derive(Debug, Clone, Default)]
struct WakeLog {
    bytes: Vec<u8>,
    snaps: Vec<WakeSnapshot>,
    len: usize,
    prev_waker: u64,
    prev_target: u64,
    prev_time: u64,
    prev_x: u64,
    prev_y: u64,
}

impl WakeLog {
    fn push(&mut self, w: &WakeEvent) {
        if self.len.is_multiple_of(WAKE_BLOCK_EVENTS) {
            self.snaps.push(WakeSnapshot {
                byte_start: self.bytes.len(),
                waker: self.prev_waker,
                target: self.prev_target,
                time_bits: self.prev_time,
                x_bits: self.prev_x,
                y_bits: self.prev_y,
            });
        }
        let wi = w.waker.index() as u64;
        let ti = w.target.index() as u64;
        let tb = w.time.to_bits();
        let xb = w.pos.x.to_bits();
        let yb = w.pos.y.to_bits();
        let tm = field_mode(self.prev_time, tb);
        let xm = field_mode(self.prev_x, xb);
        let ym = field_mode(self.prev_y, yb);
        self.bytes.push(tm | (xm << 2) | (ym << 4));
        write_varint(&mut self.bytes, zigzag(wi as i64 - self.prev_waker as i64));
        write_varint(&mut self.bytes, zigzag(ti as i64 - self.prev_target as i64));
        write_field(&mut self.bytes, tm, self.prev_time, tb);
        write_field(&mut self.bytes, xm, self.prev_x, xb);
        write_field(&mut self.bytes, ym, self.prev_y, yb);
        self.prev_waker = wi;
        self.prev_target = ti;
        self.prev_time = tb;
        self.prev_x = xb;
        self.prev_y = yb;
        self.len += 1;
    }

    fn iter_from(&self, start: usize) -> WakeIter<'_> {
        if start >= self.len {
            return WakeIter {
                log: self,
                pos: self.bytes.len(),
                idx: self.len,
                waker: 0,
                target: 0,
                time_bits: 0,
                x_bits: 0,
                y_bits: 0,
            };
        }
        let snap = self.snaps[start / WAKE_BLOCK_EVENTS];
        let mut it = WakeIter {
            log: self,
            pos: snap.byte_start,
            idx: (start / WAKE_BLOCK_EVENTS) * WAKE_BLOCK_EVENTS,
            waker: snap.waker,
            target: snap.target,
            time_bits: snap.time_bits,
            x_bits: snap.x_bits,
            y_bits: snap.y_bits,
        };
        while it.idx < start {
            it.next();
        }
        it
    }
}

/// Lazy decoder over the compressed wake log, starting at an arbitrary
/// event index (seeking lands on the preceding block snapshot and
/// skip-decodes at most [`WAKE_BLOCK_EVENTS`] − 1 events).
#[derive(Debug)]
pub struct WakeIter<'a> {
    log: &'a WakeLog,
    pos: usize,
    idx: usize,
    waker: u64,
    target: u64,
    time_bits: u64,
    x_bits: u64,
    y_bits: u64,
}

impl Iterator for WakeIter<'_> {
    type Item = WakeEvent;

    fn next(&mut self) -> Option<WakeEvent> {
        if self.idx >= self.log.len {
            return None;
        }
        let bytes = &self.log.bytes;
        let op = bytes[self.pos];
        self.pos += 1;
        let tm = op & 3;
        let xm = (op >> 2) & 3;
        let ym = (op >> 4) & 3;
        let dw = unzigzag(read_varint(bytes, &mut self.pos));
        let dt = unzigzag(read_varint(bytes, &mut self.pos));
        self.waker = (self.waker as i64 + dw) as u64;
        self.target = (self.target as i64 + dt) as u64;
        self.time_bits = read_field(bytes, &mut self.pos, tm, self.time_bits);
        self.x_bits = read_field(bytes, &mut self.pos, xm, self.x_bits);
        self.y_bits = read_field(bytes, &mut self.pos, ym, self.y_bits);
        self.idx += 1;
        Some(WakeEvent {
            waker: RobotId::from_index(self.waker as usize),
            target: RobotId::from_index(self.target as usize),
            time: f64::from_bits(self.time_bits),
            pos: Point::new(f64::from_bits(self.x_bits), f64::from_bits(self.y_bits)),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.log.len - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for WakeIter<'_> {}

/// One robot's slice of the recorder, kept together so a recorded event
/// touches one record: the hot [`RobotState`] first, then the segment
/// count, the encoded event stream and its block headers.
#[derive(Debug, Clone)]
struct Track {
    state: RobotState,
    count: u32,
    bytes: Vec<u8>,
    blocks: Vec<SegBlock>,
}

impl Track {
    /// The record a robot gets on activation, before its state is set.
    const ASLEEP: Track = Track {
        state: RobotState::ASLEEP,
        count: 0,
        bytes: Vec::new(),
        blocks: Vec::new(),
    };

    /// Bytes per woken robot that [`Recorder::memory_bytes`] charges for
    /// a track: the state, a `u32` count and the two `Vec` headers.
    const BYTES: usize = RobotState::BYTES
        + 4
        + std::mem::size_of::<Vec<u8>>()
        + std::mem::size_of::<Vec<SegBlock>>();

    /// Opens a new block header when the next event starts one; the
    /// robot's first event also sizes its event stream.
    #[inline]
    fn open_block(&mut self) {
        if (self.count as usize).is_multiple_of(SEG_BLOCK_EVENTS) {
            if self.count == 0 {
                self.bytes.reserve(FIRST_STREAM_BYTES);
            }
            self.blocks.push(SegBlock {
                byte_start: self.bytes.len(),
                start_time: self.state.time,
                start_x: self.state.x,
                start_y: self.state.y,
            });
        }
    }

    /// End time of block `k` — the next block's header time, or the
    /// robot's current time for the last block. Both are the exact end
    /// time of the block's last decoded segment.
    #[inline]
    fn block_end(&self, k: usize) -> f64 {
        match self.blocks.get(k + 1) {
            Some(b) => b.start_time,
            None => self.state.time,
        }
    }
}

/// The block-compressed full-record implementation: complete trajectories
/// (every segment recoverable bit-exactly) at ≤ 12 B per move instead of
/// the flat 48.
///
/// Each woken robot is one `Track`, stored in activation order: the
/// `RobotState`
/// [`StatsRecorder`](crate::StatsRecorder) also uses — so the move/wait
/// arithmetic, and with it every aggregate, is shared and bit-identical to
/// both other recorders (pinned by `recorder_parity`) — next to its
/// segment count, event bytes and block headers. Trajectories decode
/// through [`CompressedRecorder::segments`] /
/// [`CompressedRecorder::position_at`], which is what the validator
/// ([`validate`](crate::validate)) streams through.
#[derive(Debug, Clone)]
pub struct CompressedRecorder {
    robots: ActivationOrder<Track>,
    wakes: WakeLog,
    active: usize,
    makespan_acc: f64,
}

impl CompressedRecorder {
    #[inline]
    fn active_track(&mut self, robot: RobotId) -> &mut Track {
        let tr = self.robots.get_mut(robot).expect(ASLEEP_PANIC);
        tr.state.check_active();
        tr
    }

    /// Number of robot slots (`n + 1`, the source included).
    pub fn robot_slots(&self) -> usize {
        self.robots.slots()
    }

    /// Number of recorded segments (moves + waits) for `robot`.
    pub fn segment_count(&self, robot: RobotId) -> usize {
        self.robots.get(robot).map_or(0, |tr| tr.count as usize)
    }

    /// Total recorded segments over all robots.
    pub fn total_segments(&self) -> usize {
        self.robots
            .records()
            .iter()
            .map(|tr| tr.count as usize)
            .sum()
    }

    /// The woken robots in the order their tracks are stored (activation
    /// order): the order in which a pass over every trajectory reads
    /// contiguous memory.
    pub(crate) fn storage_order(&self) -> Vec<RobotId> {
        self.robots.storage_order()
    }

    /// Activation position of `robot`, `None` if asleep.
    pub fn start_pos(&self, robot: RobotId) -> Option<Point> {
        let tr = self.robots.get(robot)?;
        if !tr.state.is_active() {
            return None;
        }
        // No event has happened before a robot's first block, so block 0's
        // header state *is* the activation state.
        Some(match tr.blocks.first() {
            Some(b) => Point::new(b.start_x, b.start_y),
            None => tr.state.pos(),
        })
    }

    /// Lazily decoded segments of `robot` in chronological order, straight
    /// from the event bytes: no buffer, no allocation. Empty for asleep
    /// robots.
    pub fn segments(&self, robot: RobotId) -> SegmentIter<'_> {
        match self.robots.get(robot) {
            Some(tr) => SegmentIter::from_block(tr, 0),
            None => SegmentIter::EMPTY,
        }
    }

    /// Position of `robot` at absolute time `t` (clamped before activation
    /// / after the last event), `None` if the robot was never activated.
    /// Decodes only the block containing `t`, and agrees bit-for-bit with
    /// [`Timeline::position_at`](crate::Timeline::position_at) on the same
    /// event sequence.
    pub fn position_at(&self, robot: RobotId, t: f64) -> Option<Point> {
        let tr = self.robots.get(robot)?;
        let wake = tr.state.wake_time()?;
        // Mirrors Timeline::position_at exactly, block by block.
        if t <= wake || tr.count == 0 {
            return Some(if tr.count == 0 {
                tr.state.pos()
            } else {
                let b = tr.blocks[0];
                Point::new(b.start_x, b.start_y)
            });
        }
        // First block whose end time is >= t: since per-robot segment end
        // times are nondecreasing and block_end(k) is the exact end time
        // of block k's last segment, this lands on the block containing
        // the segment Timeline's partition_point would select.
        let k = partition_point(tr.blocks.len(), |k| tr.block_end(k) < t);
        // Within the block the first segment ending at or after `t` is the
        // partition point; decoding stops there instead of materialising
        // the block.
        Some(
            match SegmentIter::from_block(tr, k)
                .find(|s| s.end_time.partial_cmp(&t) != Some(Ordering::Less))
            {
                Some(s) => s.position_at(t),
                None => tr.state.pos(),
            },
        )
    }

    /// Lazy wake-event decoder starting at event index `start`.
    pub fn wake_events_from(&self, start: usize) -> WakeIter<'_> {
        self.wakes.iter_from(start)
    }

    /// Segment payload (event bytes + block headers) over all robots.
    fn segment_bytes(&self) -> usize {
        self.robots
            .records()
            .iter()
            .map(|tr| tr.bytes.len() + tr.blocks.len() * std::mem::size_of::<SegBlock>())
            .sum()
    }

    /// Compressed payload bytes (segment streams + block headers + wake
    /// log) — the part of [`Recorder::memory_bytes`] that grows with the
    /// number of recorded events.
    pub fn compressed_bytes(&self) -> usize {
        self.segment_bytes()
            + self.wakes.bytes.len()
            + self.wakes.snaps.len() * std::mem::size_of::<WakeSnapshot>()
    }

    /// Effective recording footprint per segment event: compressed payload
    /// (including block headers) divided by segment count. NaN when
    /// nothing was recorded.
    pub fn bytes_per_move(&self) -> f64 {
        self.segment_bytes() as f64 / self.total_segments() as f64
    }
}

/// Streaming segment decoder: decodes one event per `next` straight from
/// a robot's byte stream, carrying the decoder state (time, position)
/// forward. A block header holds exactly the state decoding reaches at
/// that boundary, so a walk started at any block continues through the
/// following ones bit-identically; nothing is ever buffered.
#[derive(Debug, Clone)]
pub struct SegmentIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: usize,
    t: f64,
    x: f64,
    y: f64,
}

impl<'a> SegmentIter<'a> {
    /// The decoder with nothing to decode.
    const EMPTY: SegmentIter<'static> = SegmentIter {
        bytes: &[],
        pos: 0,
        remaining: 0,
        t: 0.0,
        x: 0.0,
        y: 0.0,
    };

    /// The decoder positioned at the start of block `k` of `tr` (empty
    /// past the last block).
    fn from_block(tr: &'a Track, k: usize) -> Self {
        match tr.blocks.get(k) {
            Some(b) => SegmentIter {
                bytes: &tr.bytes,
                pos: b.byte_start,
                remaining: tr.count as usize - k * SEG_BLOCK_EVENTS,
                t: b.start_time,
                x: b.start_x,
                y: b.start_y,
            },
            None => SegmentIter::EMPTY,
        }
    }
}

impl Iterator for SegmentIter<'_> {
    type Item = Segment;

    #[inline]
    fn next(&mut self) -> Option<Segment> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let bytes = self.bytes;
        let op = bytes[self.pos];
        self.pos += 1;
        let (t, x, y) = (self.t, self.x, self.y);
        let from = Point::new(x, y);
        if op & 1 == 0 {
            let xm = (op >> 1) & 3;
            let ym = (op >> 3) & 3;
            let nx = f64::from_bits(read_field(bytes, &mut self.pos, xm, x.to_bits()));
            let ny = f64::from_bits(read_field(bytes, &mut self.pos, ym, y.to_bits()));
            let to = Point::new(nx, ny);
            // Same op RobotState::move_to used, on the same inputs: the
            // recomputed end time is bit-identical to the recorded run.
            let end = t + from.dist(to);
            self.t = end;
            self.x = nx;
            self.y = ny;
            Some(Segment {
                start_time: t,
                end_time: end,
                from,
                to,
            })
        } else {
            let tm = (op >> 1) & 3;
            let nt = f64::from_bits(read_field(bytes, &mut self.pos, tm, t.to_bits()));
            self.t = nt;
            Some(Segment {
                start_time: t,
                end_time: nt,
                from,
                to: from,
            })
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SegmentIter<'_> {}

impl Recorder for CompressedRecorder {
    fn with_capacity(n: usize) -> Self {
        CompressedRecorder {
            robots: ActivationOrder::new(n + 1),
            wakes: WakeLog::default(),
            active: 0,
            makespan_acc: 0.0,
        }
    }

    fn activate(&mut self, robot: RobotId, time: f64, pos: Point) {
        self.robots
            .get_or_insert(robot, Track::ASLEEP)
            .state
            .activate(robot, time, pos);
        self.active += 1;
    }

    fn is_active(&self, robot: RobotId) -> bool {
        self.robots
            .get(robot)
            .is_some_and(|tr| tr.state.is_active())
    }

    fn current_time(&self, robot: RobotId) -> Option<f64> {
        self.robots
            .get(robot)
            .and_then(|tr| tr.state.current_time())
    }

    fn current_pos(&self, robot: RobotId) -> Option<Point> {
        self.robots.get(robot).and_then(|tr| tr.state.current_pos())
    }

    fn move_to(&mut self, robot: RobotId, dest: Point) -> f64 {
        let tr = self.active_track(robot);
        tr.open_block();
        let px = tr.state.x.to_bits();
        let py = tr.state.y.to_bits();
        let xb = dest.x.to_bits();
        let yb = dest.y.to_bits();
        let xm = field_mode(px, xb);
        let ym = field_mode(py, yb);
        tr.bytes.push((xm << 1) | (ym << 3));
        write_field(&mut tr.bytes, xm, px, xb);
        write_field(&mut tr.bytes, ym, py, yb);
        tr.count += 1;
        tr.state.move_to(dest)
    }

    fn reserve_moves(&mut self, robot: RobotId, extra: usize) {
        // ~10 B per encoded move on typical sweeps; a pure capacity hint,
        // and nothing to size for an asleep robot.
        if let Some(tr) = self.robots.get_mut(robot) {
            tr.bytes.reserve(extra * 10);
        }
    }

    fn wait_until(&mut self, robot: RobotId, t: f64) {
        let tr = self.active_track(robot);
        // A wait event is recorded exactly when the state (and Timeline)
        // would push a wait segment.
        if tr.state.waits_until(t) {
            tr.open_block();
            let pt = tr.state.time.to_bits();
            let tb = t.to_bits();
            let tm = field_mode(pt, tb);
            tr.bytes.push(1 | (tm << 1));
            write_field(&mut tr.bytes, tm, pt, tb);
            tr.count += 1;
            tr.state.wait_until(t);
        }
    }

    fn record_wake(&mut self, event: WakeEvent) {
        // Running max in log order — the same op sequence as the
        // fold(0.0, f64::max) the other recorders derive makespan with.
        self.makespan_acc = f64::max(self.makespan_acc, event.time);
        self.wakes.push(&event);
    }

    fn wake_count(&self) -> usize {
        self.wakes.len
    }

    fn for_each_wake_from(&self, start: usize, f: &mut dyn FnMut(&WakeEvent)) {
        for w in self.wakes.iter_from(start) {
            f(&w);
        }
    }

    fn wake_time(&self, robot: RobotId) -> Option<f64> {
        self.robots.get(robot).and_then(|tr| tr.state.wake_time())
    }

    fn travel(&self, robot: RobotId) -> Option<f64> {
        self.robots.get(robot).and_then(|tr| tr.state.travel())
    }

    fn active_count(&self) -> usize {
        self.active
    }

    fn makespan(&self) -> f64 {
        self.makespan_acc
    }

    fn completion_time(&self) -> f64 {
        record::completion_time(self.robots.by_index().map(|tr| &tr.state))
    }

    fn max_energy(&self) -> f64 {
        record::max_energy(self.robots.by_index().map(|tr| &tr.state))
    }

    fn total_energy(&self) -> f64 {
        record::total_energy(self.robots.by_index().map(|tr| &tr.state))
    }

    fn memory_bytes(&self) -> usize {
        // Lengths, not capacities: byte-identical across thread counts.
        self.robots.slot_map_bytes()
            + self.robots.records().len() * Track::BYTES
            + self.compressed_bytes()
    }
}

/// First index in `0..len` for which `before` is false, assuming `before`
/// holds on a prefix (`slice::partition_point` over an implicit slice).
fn partition_point(len: usize, before: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FullRecorder;

    /// A deterministic scripted run exercising moves, waits, no-op waits,
    /// wakes, and enough events to cross several block boundaries.
    fn drive<R: Recorder>(rec: &mut R, robots: usize, moves_each: usize) {
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        for r in 0..robots {
            let target = RobotId::sleeper(r);
            let pos = Point::new(r as f64 * 0.25 + 1.0, (r % 3) as f64 * 0.5);
            let t = rec.move_to(RobotId::SOURCE, pos);
            rec.record_wake(WakeEvent {
                waker: RobotId::SOURCE,
                target,
                time: t,
                pos,
            });
            rec.activate(target, t, pos);
            for m in 0..moves_each {
                // Axis-aligned hops (one coordinate unchanged) mixed with
                // diagonal hops and waits.
                match m % 4 {
                    0 => {
                        let p = rec.current_pos(target).unwrap();
                        rec.move_to(target, Point::new(p.x + 0.125, p.y));
                    }
                    1 => {
                        let p = rec.current_pos(target).unwrap();
                        rec.move_to(target, Point::new(p.x, p.y + 0.33));
                    }
                    2 => {
                        let now = rec.current_time(target).unwrap();
                        rec.wait_until(target, now + 0.5);
                        rec.wait_until(target, now); // past: no-op
                    }
                    _ => {
                        let p = rec.current_pos(target).unwrap();
                        rec.move_to(target, Point::new(p.x - 0.07, p.y + 0.01));
                    }
                }
            }
        }
    }

    /// The byte-at-a-time LEB128 loop the staged writer replaced.
    fn write_varint_reference(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push((v as u8 & 0x7f) | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    #[test]
    fn varint_writer_matches_the_reference_loop() {
        let mut values = vec![0, 0x7f, 0x80, u64::MAX];
        for k in 0..64 {
            values.extend([(1u64 << k) - 1, 1u64 << k, (1u64 << k) + 1]);
        }
        for v in values {
            let (mut got, mut want) = (vec![0xAA], vec![0xAA]);
            write_varint(&mut got, v);
            write_varint_reference(&mut want, v);
            assert_eq!(got, want, "bytes of {v:#x}");
            assert_eq!(varint_len(v), want.len() - 1, "length of {v:#x}");
            let mut pos = 1;
            assert_eq!(read_varint(&got, &mut pos), v);
            assert_eq!(pos, got.len());
        }
    }

    #[test]
    fn segments_round_trip_bit_exactly() {
        let mut full = FullRecorder::with_capacity(4);
        let mut comp = CompressedRecorder::with_capacity(4);
        // 200 events per robot crosses three 64-event block boundaries.
        drive(&mut full, 4, 200);
        drive(&mut comp, 4, 200);
        for i in 0..=4 {
            let r = RobotId::from_index(i);
            let decoded: Vec<Segment> = comp.segments(r).collect();
            let expected = full
                .schedule()
                .timeline(r)
                .map(|tl| tl.segments().to_vec())
                .unwrap_or_default();
            assert_eq!(decoded.len(), expected.len(), "segment count {r}");
            for (k, (d, e)) in decoded.iter().zip(&expected).enumerate() {
                assert_eq!(d.start_time.to_bits(), e.start_time.to_bits(), "{r}#{k}");
                assert_eq!(d.end_time.to_bits(), e.end_time.to_bits(), "{r}#{k}");
                assert_eq!(d.from, e.from, "{r}#{k}");
                assert_eq!(d.to, e.to, "{r}#{k}");
            }
        }
    }

    #[test]
    fn aggregates_match_full_bitwise() {
        let mut full = FullRecorder::with_capacity(6);
        let mut comp = CompressedRecorder::with_capacity(6);
        drive(&mut full, 6, 70);
        drive(&mut comp, 6, 70);
        assert_eq!(full.makespan().to_bits(), comp.makespan().to_bits());
        assert_eq!(
            full.completion_time().to_bits(),
            comp.completion_time().to_bits()
        );
        assert_eq!(full.max_energy().to_bits(), comp.max_energy().to_bits());
        assert_eq!(full.total_energy().to_bits(), comp.total_energy().to_bits());
        for i in 0..=6 {
            let r = RobotId::from_index(i);
            assert_eq!(full.wake_time(r), comp.wake_time(r), "wake_time {r}");
            assert_eq!(
                full.travel(r).map(f64::to_bits),
                comp.travel(r).map(f64::to_bits),
                "travel {r}"
            );
            assert_eq!(full.current_time(r), comp.current_time(r));
            assert_eq!(full.current_pos(r), comp.current_pos(r));
        }
        assert_eq!(full.active_count(), comp.active_count());
        assert_eq!(full.wake_count(), comp.wake_count());
        let decoded: Vec<WakeEvent> = comp.wake_events_from(0).collect();
        assert_eq!(full.wakes(), decoded.as_slice());
    }

    #[test]
    fn position_at_matches_timeline_on_a_sample_grid() {
        let mut full = FullRecorder::with_capacity(3);
        let mut comp = CompressedRecorder::with_capacity(3);
        drive(&mut full, 3, 150);
        drive(&mut comp, 3, 150);
        let horizon = full.completion_time() + 1.0;
        for i in 0..=3 {
            let r = RobotId::from_index(i);
            let mut t = -0.5;
            while t < horizon {
                let expected = full.schedule().timeline(r).map(|tl| tl.position_at(t));
                let got = comp.position_at(r, t);
                assert_eq!(expected, got, "position_at({r}, {t})");
                t += 0.09;
            }
            // Exact segment boundaries too.
            if let Some(tl) = full.schedule().timeline(r) {
                for s in tl.segments() {
                    assert_eq!(
                        Some(tl.position_at(s.end_time)),
                        comp.position_at(r, s.end_time)
                    );
                }
            }
        }
    }

    #[test]
    fn wake_iter_seeks_across_snapshot_blocks() {
        let mut comp = CompressedRecorder::with_capacity(700);
        let mut reference = Vec::new();
        comp.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        for r in 0..700 {
            let pos = Point::new(r as f64 * 0.01, 1.0 / (r + 1) as f64);
            let t = comp.move_to(RobotId::SOURCE, pos);
            let w = WakeEvent {
                waker: RobotId::SOURCE,
                target: RobotId::sleeper(r),
                time: t,
                pos,
            };
            comp.record_wake(w);
            comp.activate(RobotId::sleeper(r), t, pos);
            reference.push(w);
        }
        // Seeks landing mid-block, on block boundaries, and past the end.
        for start in [0, 1, 63, 255, 256, 257, 511, 512, 699, 700, 701] {
            let got: Vec<WakeEvent> = comp.wake_events_from(start).collect();
            let want = &reference[start.min(reference.len())..];
            assert_eq!(got.as_slice(), want, "iter_from({start})");
        }
    }

    #[test]
    fn compressed_footprint_beats_full_by_4x_on_sweep_moves() {
        let mut full = FullRecorder::with_capacity(1);
        let mut comp = CompressedRecorder::with_capacity(1);
        full.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        comp.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        // Axis-aligned sweep, the dominant move pattern of AWave/explore.
        for k in 0..10_000 {
            let p = Point::new((k % 100) as f64 * 0.5, (k / 100) as f64 * 0.5);
            full.move_to(RobotId::SOURCE, p);
            comp.move_to(RobotId::SOURCE, p);
        }
        let per_move = comp.bytes_per_move();
        assert!(
            per_move <= 12.0,
            "compressed footprint {per_move:.2} B/move exceeds the 12 B budget"
        );
        assert!(
            comp.memory_bytes() * 4 <= full.memory_bytes(),
            "compressed {} vs full {}",
            comp.memory_bytes(),
            full.memory_bytes()
        );
    }

    #[test]
    fn memory_bytes_counts_lengths_only() {
        let mut comp = CompressedRecorder::with_capacity(1);
        comp.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        let before = comp.memory_bytes();
        comp.reserve_moves(RobotId::SOURCE, 4096);
        assert_eq!(
            comp.memory_bytes(),
            before,
            "capacity hints must not change accounting"
        );
        comp.move_to(RobotId::SOURCE, Point::new(1.0, 0.0));
        assert!(comp.memory_bytes() > before, "recorded events must count");
    }

    #[test]
    #[should_panic(expected = "activated twice")]
    fn double_activation_panics() {
        let mut rec = CompressedRecorder::with_capacity(1);
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.activate(RobotId::SOURCE, 1.0, Point::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "robot has no timeline (asleep)")]
    fn moving_sleeping_robot_panics() {
        let mut rec = CompressedRecorder::with_capacity(1);
        rec.move_to(RobotId::sleeper(0), Point::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "robot has no timeline (asleep)")]
    fn waiting_sleeping_robot_panics() {
        let mut rec = CompressedRecorder::with_capacity(2);
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.wait_until(RobotId::sleeper(1), 1.0);
    }

    #[test]
    fn asleep_robots_answer_nothing_and_hold_no_track() {
        let mut rec = CompressedRecorder::with_capacity(3);
        let empty = rec.memory_bytes();
        assert_eq!(empty, 4 * 4, "a fresh recorder holds only its slot map");
        rec.activate(RobotId::sleeper(2), 1.0, Point::new(1.0, 1.0));
        rec.reserve_moves(RobotId::sleeper(0), 1000);
        assert_eq!(rec.memory_bytes(), empty + Track::BYTES);
        assert_eq!(rec.robot_slots(), 4);
        for r in [RobotId::SOURCE, RobotId::sleeper(0), RobotId::sleeper(1)] {
            assert!(!rec.is_active(r));
            assert_eq!(rec.current_time(r), None);
            assert_eq!(rec.current_pos(r), None);
            assert_eq!(rec.wake_time(r), None);
            assert_eq!(rec.travel(r), None);
            assert_eq!(rec.start_pos(r), None);
            assert_eq!(rec.position_at(r, 0.5), None);
            assert_eq!(rec.segment_count(r), 0);
            assert_eq!(rec.segments(r).count(), 0);
        }
        assert_eq!(rec.storage_order(), [RobotId::sleeper(2)]);
        assert_eq!(rec.total_segments(), 0);
    }
}
