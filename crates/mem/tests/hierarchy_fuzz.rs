//! Randomized tests driving the memory hierarchy with random operation
//! sequences and checking the structural invariants (inclusion, directory
//! consistency, single-writer) plus CleanupSpec's state-restoration
//! guarantees after every step.
//!
//! The tests generate their sequences from the workspace's deterministic
//! `SplitMix64` so they run hermetically (no registry dependencies).

use cleanupspec_mem::hierarchy::{LoadKind, LoadReq, MemConfig, MemHierarchy};
use cleanupspec_mem::rng::SplitMix64;
use cleanupspec_mem::types::{CoreId, Cycle, LineAddr, LoadId};

#[derive(Clone, Copy, Debug)]
enum Op {
    Load {
        core: u8,
        line: u64,
        spec: bool,
        downgrade: bool,
    },
    InvisibleLoad {
        core: u8,
        line: u64,
    },
    Store {
        core: u8,
        line: u64,
    },
    Clflush {
        core: u8,
        line: u64,
    },
    DropInflight {
        core: u8,
    },
    Advance {
        cycles: u16,
    },
    Retire {
        core: u8,
        line: u64,
    },
}

/// Draws one operation, weighted 5:1:2:1:1:4:1 across the forms. A small
/// line universe forces heavy aliasing and eviction traffic.
fn gen_op(rng: &mut SplitMix64) -> Op {
    let core = rng.below(3) as u8;
    let line = rng.below(96);
    match rng.below(15) {
        0..=4 => Op::Load {
            core,
            line,
            spec: rng.below(2) == 1,
            downgrade: rng.below(2) == 1,
        },
        5 => Op::InvisibleLoad { core, line },
        6 | 7 => Op::Store { core, line },
        8 => Op::Clflush { core, line },
        9 => Op::DropInflight { core },
        10..=13 => Op::Advance {
            cycles: 1 + rng.below(299) as u16,
        },
        _ => Op::Retire { core, line },
    }
}

fn gen_ops(rng: &mut SplitMix64, max_len: u64) -> Vec<Op> {
    let n = rng.below(max_len) as usize + 1;
    (0..n).map(|_| gen_op(rng)).collect()
}

fn tiny_mem(window: bool) -> MemHierarchy {
    tiny_mem_skewed(window, 1)
}

fn tiny_mem_skewed(window: bool, skews: usize) -> MemHierarchy {
    MemHierarchy::new(MemConfig {
        num_cores: 3,
        l1_capacity: 4 * 64 * 2, // 2 sets x 4 ways = 8 lines: constant eviction
        l1_ways: 4,
        l2_capacity: 8 * 64 * 4, // 8 sets x 4 ways = 32 lines
        l2_ways: 4,
        l2_randomized: window,
        l2_skews: skews,
        window_protection: window,
        mshrs_per_core: 8,
        ..MemConfig::default()
    })
}

fn apply(mem: &mut MemHierarchy, now: &mut Cycle, load_seq: &mut u64, o: Op) {
    match o {
        Op::Load {
            core,
            line,
            spec,
            downgrade,
        } => {
            *load_seq += 1;
            let _ = mem.load(
                CoreId(core as usize),
                LineAddr::new(line),
                *now,
                LoadReq {
                    load: LoadId(*load_seq),
                    spec,
                    allow_downgrade: downgrade || !spec,
                    kind: LoadKind::Demand,
                    tag_spec_install: spec,
                },
            );
        }
        Op::InvisibleLoad { core, line } => {
            *load_seq += 1;
            let _ = mem.load(
                CoreId(core as usize),
                LineAddr::new(line),
                *now,
                LoadReq {
                    kind: LoadKind::Invisible,
                    ..LoadReq::non_spec(LoadId(*load_seq))
                },
            );
        }
        Op::Store { core, line } => {
            mem.store(CoreId(core as usize), LineAddr::new(line), *now);
        }
        Op::Clflush { core, line } => {
            mem.clflush(CoreId(core as usize), LineAddr::new(line), *now);
        }
        Op::DropInflight { core } => {
            mem.drop_core_inflight(CoreId(core as usize));
        }
        Op::Advance { cycles } => {
            *now += cycles as Cycle;
            mem.advance(*now);
        }
        Op::Retire { core, line } => {
            mem.retire_load(CoreId(core as usize), LineAddr::new(line));
        }
    }
}

/// Invariants hold after every operation of a random sequence, with and
/// without randomization/window protection, and with a skewed (CEASER-S)
/// L2.
#[test]
fn invariants_hold_under_random_traffic() {
    for case in 0..48u64 {
        let mut rng = SplitMix64::new(0xF0_22ED_1147 ^ case);
        let window = rng.below(2) == 1;
        let skewed = rng.below(2) == 1;
        let ops = gen_ops(&mut rng, 119);
        let mut mem = tiny_mem_skewed(window, if skewed && window { 2 } else { 1 });
        let mut now: Cycle = 0;
        let mut seq = 0u64;
        for o in ops {
            apply(&mut mem, &mut now, &mut seq, o);
            mem.advance(now);
            if let Err(e) = mem.check_invariants() {
                panic!("case {case}: invariant violated after {o:?}: {e}");
            }
        }
        // Drain everything and re-check.
        now += 10_000;
        mem.advance(now);
        mem.check_invariants().unwrap();
    }
}

/// An invisible load never changes any snapshot, no matter the state it is
/// issued in.
#[test]
fn invisible_loads_change_nothing() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0x1771_51B1_E000 ^ case);
        let setup = gen_ops(&mut rng, 60);
        let core = rng.below(3) as u8;
        let line = rng.below(96);
        let mut mem = tiny_mem(false);
        let mut now: Cycle = 0;
        let mut seq = 0u64;
        for o in setup {
            apply(&mut mem, &mut now, &mut seq, o);
        }
        now += 5_000;
        mem.advance(now);
        let l1_before: Vec<_> = (0..3).map(|c| mem.l1_snapshot(CoreId(c))).collect();
        let l2_before = mem.l2_snapshot();
        apply(
            &mut mem,
            &mut now,
            &mut seq,
            Op::InvisibleLoad { core, line },
        );
        now += 1_000;
        mem.advance(now);
        for (c, before) in l1_before.iter().enumerate() {
            assert_eq!(before, &mem.l1_snapshot(CoreId(c)), "case {case}");
        }
        assert_eq!(l2_before, mem.l2_snapshot(), "case {case}");
    }
}

/// Dropping inflight loads always prevents their fills, regardless of
/// surrounding traffic.
#[test]
fn dropped_loads_never_fill() {
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0xD20_BBED ^ case);
        let setup = gen_ops(&mut rng, 40);
        let core = rng.below(3) as usize;
        let line = 200 + rng.below(40); // outside the setup universe
        let mut mem = tiny_mem(false);
        let mut now: Cycle = 0;
        let mut seq = 0u64;
        for o in setup {
            apply(&mut mem, &mut now, &mut seq, o);
        }
        now += 5_000;
        mem.advance(now);
        seq += 1;
        let out = mem.load(
            CoreId(core),
            LineAddr::new(line),
            now,
            LoadReq {
                spec: true,
                ..LoadReq::non_spec(LoadId(seq))
            },
        );
        if out.is_err() {
            continue; // MSHR full after setup: nothing to check
        }
        mem.drop_core_inflight(CoreId(core));
        now += 5_000;
        mem.advance(now);
        assert!(
            mem.l1(CoreId(core)).probe(LineAddr::new(line)).is_none(),
            "case {case}"
        );
        assert!(mem.l2().probe(LineAddr::new(line)).is_none(), "case {case}");
        mem.check_invariants().unwrap();
    }
}
