//! The host-speed probe: a fixed piece of work, run between slices of
//! simulation.
//!
//! Other tenants of the host slow the benchmark down for seconds to
//! minutes at a time, sometimes for a whole run. The probe runs the same
//! work every time, so its time says how fast the host is right now, and
//! each pass's host times are scaled by how fast the probe ran during that
//! pass ([`Probe::speed`]).
//!
//! The probe is a small two-level set-associative cache model over a
//! synthetic address stream: branchy code that reads and writes tag arrays
//! of about 800 KiB, like the simulator it runs beside. Its geometry was
//! chosen because its slowdown under contention tracks the simulator's:
//! raw pass times of one run varied by up to 1.8x, probe-scaled ones by
//! about 1.2x. It is the benchmark's own code, so a change to the simulator
//! does not move it.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Address-stream steps per probe chunk: about 0.3 ms of host time.
const STEPS: u32 = 8_000;
/// Host nanoseconds of simulation between two probe chunks.
const PERIOD_NS: u64 = 8_000_000;
/// Host nanoseconds of one probe chunk on a quiet development host (2-vCPU
/// Xeon, see `README.md`). Scaled times read as if every chunk took this.
pub const REF_CHUNK_NS: f64 = 300_000.0;

struct Level {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    ways: usize,
    mask: u64,
}

impl Level {
    fn new(sets: usize, ways: usize) -> Self {
        Level {
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            ways,
            mask: sets as u64 - 1,
        }
    }

    /// Looks `line` up, filling it over the least recently used way on a
    /// miss. Returns whether it hit.
    fn access(&mut self, line: u64, now: u32) -> bool {
        let base = (line & self.mask) as usize * self.ways;
        let set = base..base + self.ways;
        if let Some(w) = self.tags[set.clone()].iter().position(|&t| t == line) {
            self.stamps[base + w] = now;
            return true;
        }
        let victim = set.min_by_key(|&i| self.stamps[i]).unwrap_or(base);
        self.tags[victim] = line;
        self.stamps[victim] = now;
        false
    }
}

/// The probe's state and what it measured since the last [`take`].
struct State {
    l1: Level,
    l2: Level,
    /// Host nanoseconds of simulation since the last chunk.
    due_ns: u64,
    probe: Probe,
}

impl State {
    fn new() -> Self {
        let mut s = State {
            l1: Level::new(64, 8),
            l2: Level::new(4096, 16),
            due_ns: 0,
            probe: Probe::default(),
        };
        // The first chunk fills the tag arrays; every later one starts from
        // the state the one before left.
        black_box(s.work());
        s
    }

    fn work(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut line: u64 = 0;
        let mut misses = 0u64;
        for now in 1..=STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            line = match x & 15 {
                0..=1 => line + 1,
                2..=13 => line.wrapping_sub(x >> 60),
                _ => (x >> 20) & 0xF_FFFF,
            };
            if !self.l1.access(line, now) && !self.l2.access(line, now) {
                misses += 1;
            }
        }
        misses
    }
}

/// The probe chunks of one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// Host nanoseconds of every chunk together.
    pub ns: u64,
    /// Chunks run.
    pub chunks: u64,
}

impl Probe {
    /// The host's speed during the pass relative to the quiet host: below 1
    /// while other tenants slow it down. Scaling a host time by it gives the
    /// time the quiet host would have taken. 1 when no chunk ran.
    pub fn speed(&self) -> f64 {
        if self.chunks == 0 {
            return 1.0;
        }
        REF_CHUNK_NS * self.chunks as f64 / self.ns as f64
    }
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Counts `sim_ns` host nanoseconds of simulation, and runs a timed probe
/// chunk each time [`PERIOD_NS`] of them have gone by since the last one.
pub fn after(sim_ns: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let s = s.get_or_insert_with(State::new);
        s.due_ns += sim_ns;
        if s.due_ns < PERIOD_NS {
            return;
        }
        s.due_ns = 0;
        let t = Instant::now();
        black_box(s.work());
        s.probe.ns += t.elapsed().as_nanos() as u64;
        s.probe.chunks += 1;
    });
}

/// The chunks run since the last call; the next pass starts a new period.
pub fn take() -> Probe {
    STATE.with(|s| {
        s.borrow_mut().as_mut().map_or_else(Probe::default, |s| {
            s.due_ns = 0;
            std::mem::take(&mut s.probe)
        })
    })
}
