//! Branch prediction: a gem5-style tournament predictor (local + gshare +
//! chooser), a branch target buffer, and a return-address stack — the
//! front-end of Table 4 ("Tournament Branch-Pred, BTB-4096 entry, RAS-16
//! entry").
//!
//! Mispredictions from this unit are what create transient (wrong-path)
//! execution, so its accuracy directly sets the squash frequency that
//! Figures 12–14 sweep over.

use crate::isa::Pc;

/// A 2-bit saturating counter.
#[derive(Clone, Copy, Debug, Default)]
struct Ctr2(u8);

impl Ctr2 {
    fn predict(self) -> bool {
        self.0 >= 2
    }
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Configuration of the tournament predictor.
#[derive(Clone, Debug)]
pub struct BpredConfig {
    /// Local history table entries (per-PC histories).
    pub local_history_entries: usize,
    /// Bits of local history.
    pub local_history_bits: u32,
    /// Local pattern table entries.
    pub local_ctr_entries: usize,
    /// Global (gshare) table entries.
    pub global_ctr_entries: usize,
    /// Chooser table entries.
    pub choice_ctr_entries: usize,
    /// Bits of global history.
    pub global_history_bits: u32,
    /// BTB entries (direct-mapped).
    pub btb_entries: usize,
    /// RAS entries.
    pub ras_entries: usize,
}

impl Default for BpredConfig {
    fn default() -> Self {
        BpredConfig {
            local_history_entries: 2048,
            local_history_bits: 10,
            local_ctr_entries: 2048,
            global_ctr_entries: 8192,
            choice_ctr_entries: 8192,
            global_history_bits: 13,
            btb_entries: 4096,
            ras_entries: 16,
        }
    }
}

/// Tournament direction predictor with BTB and RAS.
///
/// The two PC-indexed tables, the local-history table and the BTB, may be
/// built shorter than configured ([`TournamentPredictor::for_program`]):
/// they are indexed modulo their own length, which for every PC below
/// that length is the PC itself, exactly as in a full-size table.
#[derive(Clone, Debug)]
pub struct TournamentPredictor {
    cfg: BpredConfig,
    /// Per-PC local histories, indexed by `pc % local_hist.len()`.
    local_hist: Vec<u64>,
    local_ctrs: Vec<Ctr2>,
    global_ctrs: Vec<Ctr2>,
    choice_ctrs: Vec<Ctr2>,
    ghr: u64,
    /// Direct-mapped, indexed by `pc % btb.len()`.
    btb: Vec<Option<(Pc, Pc)>>,
    ras: Vec<Pc>,
    /// Predictions made.
    pub lookups: u64,
    /// Mispredictions recorded by [`TournamentPredictor::update`].
    pub mispredicts: u64,
}

impl TournamentPredictor {
    /// Builds a predictor.
    pub fn new(cfg: BpredConfig) -> Self {
        Self::for_program(cfg, usize::MAX)
    }

    /// Builds a predictor for a program of `len` instructions: the
    /// local-history table and the BTB get `min(configured, len)` entries.
    /// It predicts exactly as [`new`](Self::new) for every branch at a PC
    /// below `len` — the only PCs a core fetches a branch or return from,
    /// since `Program::fetch` yields `Halt` past the end.
    pub fn for_program(cfg: BpredConfig, len: usize) -> Self {
        let pcs = len.max(1);
        TournamentPredictor {
            local_hist: vec![0; cfg.local_history_entries.min(pcs)],
            local_ctrs: vec![Ctr2::default(); cfg.local_ctr_entries],
            global_ctrs: vec![Ctr2::default(); cfg.global_ctr_entries],
            choice_ctrs: vec![Ctr2::default(); cfg.choice_ctr_entries],
            ghr: 0,
            btb: vec![None; cfg.btb_entries.min(pcs)],
            ras: Vec::with_capacity(cfg.ras_entries),
            lookups: 0,
            mispredicts: 0,
            cfg,
        }
    }

    /// `pc`'s slot in a PC-indexed table of `n` entries configured with
    /// `entries`; a table cut to the program is only ever asked for PCs
    /// inside it.
    fn pc_slot(pc: Pc, n: usize, entries: usize) -> usize {
        debug_assert!(
            n == entries || pc < n,
            "pc {pc} outside a predictor table sized to {n} instructions"
        );
        pc % n
    }

    fn local_index(&self, pc: Pc) -> usize {
        Self::pc_slot(pc, self.local_hist.len(), self.cfg.local_history_entries)
    }

    fn btb_index(&self, pc: Pc) -> usize {
        Self::pc_slot(pc, self.btb.len(), self.cfg.btb_entries)
    }

    fn local_ctr_index(&self, pc: Pc) -> usize {
        let hist = self.local_hist[self.local_index(pc)];
        (hist as usize) % self.cfg.local_ctr_entries
    }

    fn global_index(&self, pc: Pc) -> usize {
        let mask = (1u64 << self.cfg.global_history_bits) - 1;
        ((self.ghr & mask) as usize ^ pc) % self.cfg.global_ctr_entries
    }

    fn choice_index(&self, pc: Pc) -> usize {
        let mask = (1u64 << self.cfg.global_history_bits) - 1;
        ((self.ghr & mask) as usize ^ pc.wrapping_mul(31)) % self.cfg.choice_ctr_entries
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&mut self, pc: Pc) -> bool {
        self.lookups += 1;
        let local = self.local_ctrs[self.local_ctr_index(pc)].predict();
        let global = self.global_ctrs[self.global_index(pc)].predict();
        let use_global = self.choice_ctrs[self.choice_index(pc)].predict();
        if use_global {
            global
        } else {
            local
        }
    }

    /// Trains the predictor with the resolved outcome of the branch at
    /// `pc`. `mispredicted` is whether the front end predicted wrongly
    /// (used only for statistics).
    pub fn update(&mut self, pc: Pc, taken: bool, mispredicted: bool) {
        if mispredicted {
            self.mispredicts += 1;
        }
        let lci = self.local_ctr_index(pc);
        let gci = self.global_index(pc);
        let local_correct = self.local_ctrs[lci].predict() == taken;
        let global_correct = self.global_ctrs[gci].predict() == taken;
        // Chooser trains toward whichever component was right.
        if local_correct != global_correct {
            let ci = self.choice_index(pc);
            self.choice_ctrs[ci].update(global_correct);
        }
        self.local_ctrs[lci].update(taken);
        self.global_ctrs[gci].update(taken);
        // Histories.
        let lhi = self.local_index(pc);
        let lmask = (1u64 << self.cfg.local_history_bits) - 1;
        self.local_hist[lhi] = ((self.local_hist[lhi] << 1) | taken as u64) & lmask;
        self.ghr = (self.ghr << 1) | taken as u64;
    }

    /// BTB lookup: the last seen target for an indirect branch at `pc`.
    pub fn btb_lookup(&self, pc: Pc) -> Option<Pc> {
        let e = self.btb[self.btb_index(pc)]?;
        (e.0 == pc).then_some(e.1)
    }

    /// Installs/updates a BTB entry.
    pub fn btb_update(&mut self, pc: Pc, target: Pc) {
        let i = self.btb_index(pc);
        self.btb[i] = Some((pc, target));
    }

    /// Pushes a return address (at a call's fetch).
    pub fn ras_push(&mut self, ret_addr: Pc) {
        if self.ras.len() == self.cfg.ras_entries {
            self.ras.remove(0);
        }
        self.ras.push(ret_addr);
    }

    /// Pops the predicted return address (at a return's fetch).
    pub fn ras_pop(&mut self) -> Option<Pc> {
        self.ras.pop()
    }

    /// Observed misprediction rate (over [`update`] calls).
    ///
    /// [`update`]: TournamentPredictor::update
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }
}

impl Default for TournamentPredictor {
    fn default() -> Self {
        TournamentPredictor::new(BpredConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut p = TournamentPredictor::default();
        let pc = 100;
        let mut wrong = 0;
        for _ in 0..200 {
            if !p.predict(pc) {
                wrong += 1;
            }
            p.update(pc, true, false);
        }
        assert!(wrong < 40, "should converge fast, got {wrong} wrong");
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = TournamentPredictor::default();
        let pc = 7;
        let mut wrong_late = 0;
        for i in 0..2000u64 {
            let actual = i % 2 == 0;
            let pred = p.predict(pc);
            if i > 500 && pred != actual {
                wrong_late += 1;
            }
            p.update(pc, actual, pred != actual);
        }
        assert!(
            wrong_late < 75,
            "local history should capture period-2 pattern, {wrong_late} wrong"
        );
    }

    #[test]
    fn random_outcomes_mispredict_at_bias_rate() {
        use cleanupspec_mem::rng::SplitMix64;
        let mut p = TournamentPredictor::default();
        let mut rng = SplitMix64::new(42);
        let pc = 55;
        let mut wrong = 0;
        let n = 20_000;
        // Taken with probability ~12.5%.
        for _ in 0..n {
            let actual = rng.below(8) == 0;
            let pred = p.predict(pc);
            if pred != actual {
                wrong += 1;
            }
            p.update(pc, actual, pred != actual);
        }
        let rate = wrong as f64 / n as f64;
        assert!(
            (0.08..0.20).contains(&rate),
            "mispredict rate should approach the 12.5% bias, got {rate}"
        );
    }

    #[test]
    fn btb_stores_and_replaces() {
        let mut p = TournamentPredictor::default();
        assert_eq!(p.btb_lookup(10), None);
        p.btb_update(10, 500);
        assert_eq!(p.btb_lookup(10), Some(500));
        // Aliasing entry replaces.
        p.btb_update(10 + 4096, 900);
        assert_eq!(p.btb_lookup(10), None);
        assert_eq!(p.btb_lookup(10 + 4096), Some(900));
    }

    #[test]
    fn a_program_sized_predictor_predicts_as_the_full_one() {
        use cleanupspec_mem::rng::SplitMix64;
        let cfg = BpredConfig::default();
        let (lht, btb) = (cfg.local_history_entries, cfg.btb_entries);
        // Program lengths below both PC-indexed tables (2048 local
        // histories, 4096 BTB entries), between them, at each and above
        // 4096.
        for n in [1, 37, 2047, lht, 3000, btb, 5000, 9000] {
            let mut full = TournamentPredictor::new(cfg.clone());
            let mut sized = TournamentPredictor::for_program(cfg.clone(), n);
            // Hot PCs: the first and last few of the program, and the PCs
            // a full-size table aliases the last ones with.
            let hot: Vec<Pc> = (0..8)
                .map(|k| (k, n.saturating_sub(1 + k)))
                .flat_map(|(k, last)| [k, last, last % lht, last % btb])
                .filter(|&pc| pc < n)
                .collect();
            let mut visits = vec![0usize; n];
            let mut rng = SplitMix64::new(n as u64);
            for step in 0..40_000 {
                let pc = if rng.below(4) == 0 {
                    rng.below(n as u64) as usize
                } else {
                    hot[rng.below(hot.len() as u64) as usize]
                };
                match rng.below(4) {
                    0 | 1 => {
                        let predicted = full.predict(pc);
                        assert_eq!(sized.predict(pc), predicted, "n={n} step {step}");
                        // Each PC repeats a loop of its own period, which
                        // only its local history can learn.
                        visits[pc] += 1;
                        let taken = visits[pc] % (2 + pc % 3) != 0;
                        full.update(pc, taken, predicted != taken);
                        sized.update(pc, taken, predicted != taken);
                    }
                    2 => {
                        let target = rng.below(2 * n as u64) as usize;
                        full.btb_update(pc, target);
                        sized.btb_update(pc, target);
                    }
                    _ => assert_eq!(
                        sized.btb_lookup(pc),
                        full.btb_lookup(pc),
                        "n={n} step {step}"
                    ),
                }
            }
            assert_eq!(sized.lookups, full.lookups);
            assert_eq!(sized.mispredict_rate(), full.mispredict_rate(), "n={n}");
            assert_eq!(sized.local_hist.len(), n.min(lht));
            assert_eq!(sized.btb.len(), n.min(btb));
        }
    }

    /// A clone predicts exactly as its original. Branch `b` repeats the
    /// random outcome of branch `a`, which only the global history holds,
    /// so a clone that lost that history predicts the next branches
    /// differently even though every table was copied.
    #[test]
    fn a_clone_predicts_as_the_original() {
        use cleanupspec_mem::rng::SplitMix64;
        fn step(p: &mut TournamentPredictor, pc: Pc, taken: bool) -> bool {
            let predicted = p.predict(pc);
            p.update(pc, taken, predicted != taken);
            predicted
        }
        let (a, b) = (3, 9);
        let mut rng = SplitMix64::new(7);
        let mut original = TournamentPredictor::default();
        for _ in 0..5000 {
            let taken = rng.below(2) == 1;
            step(&mut original, a, taken);
            step(&mut original, b, taken);
        }
        let mut clone = original.clone();
        let before = original.mispredicts;
        for i in 0..64 {
            let taken = rng.below(2) == 1;
            for pc in [a, b] {
                let predicted = step(&mut original, pc, taken);
                assert_eq!(
                    step(&mut clone, pc, taken),
                    predicted,
                    "branch {i} at pc {pc}"
                );
            }
        }
        // Only `a` is unpredictable: the global history learned `b`.
        assert!(original.mispredicts - before < 64 + 8);
    }

    #[test]
    fn ras_lifo_and_bounded() {
        let mut p = TournamentPredictor::new(BpredConfig {
            ras_entries: 2,
            ..BpredConfig::default()
        });
        p.ras_push(1);
        p.ras_push(2);
        p.ras_push(3); // evicts 1
        assert_eq!(p.ras_pop(), Some(3));
        assert_eq!(p.ras_pop(), Some(2));
        assert_eq!(p.ras_pop(), None);
    }

    #[test]
    fn mispredict_rate_accounting() {
        let mut p = TournamentPredictor::default();
        p.predict(1);
        p.predict(1);
        p.update(1, true, true);
        p.update(1, true, false);
        assert!((p.mispredict_rate() - 0.5).abs() < 1e-12);
    }
}
