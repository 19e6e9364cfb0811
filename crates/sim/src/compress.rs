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
//! header holding the decoder state at the block boundary, so decode is
//! block-local: the streaming validator and [`position_at`] touch one
//! block at a time instead of materialising whole timelines.
//!
//! [`position_at`]: crate::record::ReplayRecorder::position_at
//! [`Segment`]: crate::Segment

use crate::record::ReplayRecorder;
use crate::{Recorder, RobotId, Segment, WakeEvent};
use freezetag_geometry::Point;

/// Segment events per compression block (per robot).
///
/// 64 events × ~10 B ≈ 640 B per block against a 32 B header: ~5% header
/// overhead, while a block decode buffer stays well inside L1.
pub const SEG_BLOCK_EVENTS: usize = 64;

/// Wake events per wake-log snapshot block.
pub const WAKE_BLOCK_EVENTS: usize = 256;

const MODE_SAME: u8 = 0;
const MODE_XOR: u8 = 1;
const MODE_RAW: u8 = 2;

#[inline]
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

#[inline]
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
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

const ASLEEP: f64 = f64::NAN;

/// The block-compressed full-record implementation: complete trajectories
/// (every segment recoverable bit-exactly) at ≤ 12 B per move instead of
/// the flat 48.
///
/// Current per-robot state lives in the same flat arrays
/// [`StatsRecorder`](crate::StatsRecorder) uses, updated with the same
/// float ops in the same order, so every aggregate is bit-identical to
/// both other recorders (pinned by `recorder_parity`). Trajectories decode
/// block-locally through [`CompressedRecorder::segments`] /
/// [`ReplayRecorder::position_at`], which is what the validator
/// ([`validate`](crate::validate)) streams through.
#[derive(Debug, Clone)]
pub struct CompressedRecorder {
    // Indexed by RobotId::index(); NaN in `wake_times` means "asleep".
    wake_times: Vec<f64>,
    times: Vec<f64>,
    pos_x: Vec<f64>,
    pos_y: Vec<f64>,
    travels: Vec<f64>,
    seg_bytes: Vec<Vec<u8>>,
    seg_blocks: Vec<Vec<SegBlock>>,
    seg_counts: Vec<u32>,
    wakes: WakeLog,
    active: usize,
    makespan_acc: f64,
}

impl CompressedRecorder {
    #[inline]
    fn check_active(&self, robot: RobotId) -> usize {
        let i = robot.index();
        assert!(
            !self.wake_times[i].is_nan(),
            "robot has no timeline (asleep)"
        );
        i
    }

    /// Number of recorded segments (moves + waits) for `robot`.
    pub fn segment_count(&self, robot: RobotId) -> usize {
        self.seg_counts[robot.index()] as usize
    }

    /// Total recorded segments over all robots.
    pub fn total_segments(&self) -> usize {
        self.seg_counts.iter().map(|&c| c as usize).sum()
    }

    /// Activation position of `robot`, `None` if asleep.
    pub fn start_pos(&self, robot: RobotId) -> Option<Point> {
        let i = robot.index();
        if self.wake_times[i].is_nan() {
            return None;
        }
        // No event has happened before a robot's first block, so block 0's
        // header state *is* the activation state.
        Some(match self.seg_blocks[i].first() {
            Some(b) => Point::new(b.start_x, b.start_y),
            None => Point::new(self.pos_x[i], self.pos_y[i]),
        })
    }

    /// Lazily decoded segments of `robot` in chronological order, one
    /// block in memory at a time. Empty for asleep robots.
    pub fn segments(&self, robot: RobotId) -> SegmentIter<'_> {
        SegmentIter {
            rec: self,
            robot: robot.index(),
            next_block: 0,
            buf: Vec::new(),
            buf_pos: 0,
        }
    }

    /// Lazy wake-event decoder starting at event index `start`.
    pub fn wake_events_from(&self, start: usize) -> WakeIter<'_> {
        self.wakes.iter_from(start)
    }

    /// Compressed payload bytes (segment streams + block headers + wake
    /// log) — the part of [`Recorder::memory_bytes`] that grows with the
    /// number of recorded events.
    pub fn compressed_bytes(&self) -> usize {
        self.seg_bytes.iter().map(Vec::len).sum::<usize>()
            + self
                .seg_blocks
                .iter()
                .map(|b| b.len() * std::mem::size_of::<SegBlock>())
                .sum::<usize>()
            + self.wakes.bytes.len()
            + self.wakes.snaps.len() * std::mem::size_of::<WakeSnapshot>()
    }

    /// Effective recording footprint per segment event: compressed payload
    /// (including block headers) divided by segment count. NaN when
    /// nothing was recorded.
    pub fn bytes_per_move(&self) -> f64 {
        let moves = self.total_segments();
        let bytes = self.seg_bytes.iter().map(Vec::len).sum::<usize>()
            + self
                .seg_blocks
                .iter()
                .map(|b| b.len() * std::mem::size_of::<SegBlock>())
                .sum::<usize>();
        bytes as f64 / moves as f64
    }

    /// Decodes block `k` of robot index `i` into `out` (cleared first).
    fn decode_block(&self, i: usize, k: usize, out: &mut Vec<Segment>) {
        out.clear();
        let blocks = &self.seg_blocks[i];
        let bytes = &self.seg_bytes[i];
        let total = self.seg_counts[i] as usize;
        let count = (total - k * SEG_BLOCK_EVENTS).min(SEG_BLOCK_EVENTS);
        let mut pos = blocks[k].byte_start;
        let mut t = blocks[k].start_time;
        let mut x = blocks[k].start_x;
        let mut y = blocks[k].start_y;
        for _ in 0..count {
            let op = bytes[pos];
            pos += 1;
            if op & 1 == 0 {
                let xm = (op >> 1) & 3;
                let ym = (op >> 3) & 3;
                let nx = f64::from_bits(read_field(bytes, &mut pos, xm, x.to_bits()));
                let ny = f64::from_bits(read_field(bytes, &mut pos, ym, y.to_bits()));
                let from = Point::new(x, y);
                let to = Point::new(nx, ny);
                // Same op Timeline::move_to used, on the same inputs: the
                // recomputed end time is bit-identical to the recorded run.
                let end = t + from.dist(to);
                out.push(Segment {
                    start_time: t,
                    end_time: end,
                    from,
                    to,
                });
                t = end;
                x = nx;
                y = ny;
            } else {
                let tm = (op >> 1) & 3;
                let nt = f64::from_bits(read_field(bytes, &mut pos, tm, t.to_bits()));
                let at = Point::new(x, y);
                out.push(Segment {
                    start_time: t,
                    end_time: nt,
                    from: at,
                    to: at,
                });
                t = nt;
            }
        }
    }

    /// End time of block `k` of robot index `i` — the next block's header
    /// time, or the robot's current time for the last block. Both are the
    /// exact end time of the block's last decoded segment.
    #[inline]
    fn block_end(&self, i: usize, k: usize) -> f64 {
        match self.seg_blocks[i].get(k + 1) {
            Some(b) => b.start_time,
            None => self.times[i],
        }
    }
}

/// Streaming segment decoder: materialises one [`SEG_BLOCK_EVENTS`]-sized
/// block at a time, never a whole timeline.
#[derive(Debug)]
pub struct SegmentIter<'a> {
    rec: &'a CompressedRecorder,
    robot: usize,
    next_block: usize,
    buf: Vec<Segment>,
    buf_pos: usize,
}

impl Iterator for SegmentIter<'_> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.buf_pos == self.buf.len() {
            if self.next_block >= self.rec.seg_blocks[self.robot].len() {
                return None;
            }
            self.rec
                .decode_block(self.robot, self.next_block, &mut self.buf);
            self.next_block += 1;
            self.buf_pos = 0;
            if self.buf.is_empty() {
                return None;
            }
        }
        let s = self.buf[self.buf_pos];
        self.buf_pos += 1;
        Some(s)
    }
}

impl Recorder for CompressedRecorder {
    fn with_capacity(n: usize) -> Self {
        CompressedRecorder {
            wake_times: vec![ASLEEP; n + 1],
            times: vec![0.0; n + 1],
            pos_x: vec![0.0; n + 1],
            pos_y: vec![0.0; n + 1],
            travels: vec![0.0; n + 1],
            seg_bytes: vec![Vec::new(); n + 1],
            seg_blocks: vec![Vec::new(); n + 1],
            seg_counts: vec![0; n + 1],
            wakes: WakeLog::default(),
            active: 0,
            makespan_acc: 0.0,
        }
    }

    fn activate(&mut self, robot: RobotId, time: f64, pos: Point) {
        let i = robot.index();
        assert!(self.wake_times[i].is_nan(), "robot {robot} activated twice");
        self.wake_times[i] = time;
        self.times[i] = time;
        self.pos_x[i] = pos.x;
        self.pos_y[i] = pos.y;
        self.travels[i] = 0.0;
        self.active += 1;
    }

    fn is_active(&self, robot: RobotId) -> bool {
        !self.wake_times[robot.index()].is_nan()
    }

    fn current_time(&self, robot: RobotId) -> Option<f64> {
        let i = robot.index();
        (!self.wake_times[i].is_nan()).then(|| self.times[i])
    }

    fn current_pos(&self, robot: RobotId) -> Option<Point> {
        let i = robot.index();
        (!self.wake_times[i].is_nan()).then(|| Point::new(self.pos_x[i], self.pos_y[i]))
    }

    fn move_to(&mut self, robot: RobotId, dest: Point) -> f64 {
        let i = self.check_active(robot);
        if (self.seg_counts[i] as usize).is_multiple_of(SEG_BLOCK_EVENTS) {
            self.seg_blocks[i].push(SegBlock {
                byte_start: self.seg_bytes[i].len(),
                start_time: self.times[i],
                start_x: self.pos_x[i],
                start_y: self.pos_y[i],
            });
        }
        let px = self.pos_x[i].to_bits();
        let py = self.pos_y[i].to_bits();
        let xb = dest.x.to_bits();
        let yb = dest.y.to_bits();
        let xm = field_mode(px, xb);
        let ym = field_mode(py, yb);
        let out = &mut self.seg_bytes[i];
        out.push((xm << 1) | (ym << 3));
        write_field(out, xm, px, xb);
        write_field(out, ym, py, yb);
        self.seg_counts[i] += 1;
        // Same operations in the same order as Timeline::move_to +
        // Timeline::travel: one dist per move, accumulated per robot.
        let d = Point::new(self.pos_x[i], self.pos_y[i]).dist(dest);
        let end = self.times[i] + d;
        self.times[i] = end;
        self.pos_x[i] = dest.x;
        self.pos_y[i] = dest.y;
        self.travels[i] += d;
        end
    }

    fn reserve_moves(&mut self, robot: RobotId, extra: usize) {
        // ~10 B per encoded move on typical sweeps; a pure capacity hint.
        self.seg_bytes[robot.index()].reserve(extra * 10);
    }

    fn wait_until(&mut self, robot: RobotId, t: f64) {
        let i = self.check_active(robot);
        // Mirrors Timeline::wait_until: a wait event is recorded exactly
        // when the timeline would push a wait segment.
        if t > self.times[i] + freezetag_geometry::EPS {
            if (self.seg_counts[i] as usize).is_multiple_of(SEG_BLOCK_EVENTS) {
                self.seg_blocks[i].push(SegBlock {
                    byte_start: self.seg_bytes[i].len(),
                    start_time: self.times[i],
                    start_x: self.pos_x[i],
                    start_y: self.pos_y[i],
                });
            }
            let pt = self.times[i].to_bits();
            let tb = t.to_bits();
            let tm = field_mode(pt, tb);
            let out = &mut self.seg_bytes[i];
            out.push(1 | (tm << 1));
            write_field(out, tm, pt, tb);
            self.seg_counts[i] += 1;
            self.times[i] = t;
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
        let t = self.wake_times[robot.index()];
        (!t.is_nan()).then_some(t)
    }

    fn travel(&self, robot: RobotId) -> Option<f64> {
        let i = robot.index();
        (!self.wake_times[i].is_nan()).then(|| self.travels[i])
    }

    fn active_count(&self) -> usize {
        self.active
    }

    fn makespan(&self) -> f64 {
        self.makespan_acc
    }

    fn completion_time(&self) -> f64 {
        // Index order, exactly like Schedule::completion_time.
        (0..self.times.len())
            .filter(|&i| !self.wake_times[i].is_nan())
            .map(|i| self.times[i])
            .fold(0.0, f64::max)
    }

    fn max_energy(&self) -> f64 {
        (0..self.travels.len())
            .filter(|&i| !self.wake_times[i].is_nan())
            .map(|i| self.travels[i])
            .fold(0.0, f64::max)
    }

    fn total_energy(&self) -> f64 {
        (0..self.travels.len())
            .filter(|&i| !self.wake_times[i].is_nan())
            .map(|i| self.travels[i])
            .fold(0.0, |a, b| a + b)
    }

    fn memory_bytes(&self) -> usize {
        // Lengths, not capacities: byte-identical across thread counts.
        self.wake_times.len() * 8 * 5
            + self.seg_counts.len() * 4
            + self.seg_bytes.len() * std::mem::size_of::<Vec<u8>>()
            + self.seg_blocks.len() * std::mem::size_of::<Vec<SegBlock>>()
            + self.compressed_bytes()
    }
}

impl ReplayRecorder for CompressedRecorder {
    fn position_at(&self, robot: RobotId, t: f64) -> Option<Point> {
        let i = robot.index();
        if self.wake_times[i].is_nan() {
            return None;
        }
        let nseg = self.seg_counts[i] as usize;
        // Mirrors Timeline::position_at exactly, block by block.
        if t <= self.wake_times[i] || nseg == 0 {
            return Some(if nseg == 0 {
                Point::new(self.pos_x[i], self.pos_y[i])
            } else {
                let b = self.seg_blocks[i][0];
                Point::new(b.start_x, b.start_y)
            });
        }
        // First block whose end time is >= t: since per-robot segment end
        // times are nondecreasing and block_end(k) is the exact end time
        // of block k's last segment, this lands on the block containing
        // the segment Timeline's partition_point would select.
        let nb = self.seg_blocks[i].len();
        let mut lo = 0;
        let mut hi = nb;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.block_end(i, mid) < t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == nb {
            return Some(Point::new(self.pos_x[i], self.pos_y[i]));
        }
        let mut buf = Vec::with_capacity(SEG_BLOCK_EVENTS);
        self.decode_block(i, lo, &mut buf);
        let k = buf.partition_point(|s| s.end_time < t);
        Some(match buf.get(k) {
            Some(s) => s.position_at(t),
            None => Point::new(self.pos_x[i], self.pos_y[i]),
        })
    }
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
    #[should_panic]
    fn double_activation_panics() {
        let mut rec = CompressedRecorder::with_capacity(1);
        rec.activate(RobotId::SOURCE, 0.0, Point::ORIGIN);
        rec.activate(RobotId::SOURCE, 1.0, Point::ORIGIN);
    }

    #[test]
    #[should_panic]
    fn moving_sleeping_robot_panics() {
        let mut rec = CompressedRecorder::with_capacity(1);
        rec.move_to(RobotId::sleeper(0), Point::ORIGIN);
    }
}
