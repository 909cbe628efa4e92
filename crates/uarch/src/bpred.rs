//! Branch prediction: a tournament direction predictor, a branch target
//! buffer, and a return-address stack.
//!
//! The paper does not detail its predictor beyond gem5's default O3 setup,
//! whose direction predictor is a tournament: a PC-indexed bimodal table
//! and a global-history gshare table, with a per-PC chooser between them.
//! Each thread has its own predictor and history, which yields realistic
//! mispredict rates for the synthetic workloads (a few percent for loopy
//! code, more for data-dependent branches).

/// Direction-predictor organization: the tournament predictor of gem5's
/// default O3 core, the only one the paper's Table I runs.
///
/// The type has one variant and survives only as the type of
/// `CoreConfig::predictor`: that field's `Debug` rendering
/// (`predictor: Tournament`) is part of the configuration fingerprint
/// every campaign journal key is derived from, so removing it would move
/// every key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PredictorKind {
    /// Bimodal + gshare with a per-PC chooser (gem5's default O3 style).
    #[default]
    Tournament,
}

/// Configuration of the branch predictor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchPredictorConfig {
    /// log2 of the pattern history table size.
    pub pht_bits: u32,
    /// Global history length in bits.
    pub history_bits: u32,
    /// log2 of the BTB entry count.
    pub btb_bits: u32,
    /// Return-address stack depth.
    pub ras_depth: usize,
}

impl Default for BranchPredictorConfig {
    fn default() -> Self {
        BranchPredictorConfig {
            pht_bits: 12,
            history_bits: 12,
            btb_bits: 13,
            ras_depth: 16,
        }
    }
}

/// The outcome of a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target, if the BTB (or RAS) knows one.
    pub target: Option<u64>,
    /// PHT index the direction came from; [`BranchPredictor::update`] trains
    /// this exact entry so predict/train pairs stay consistent even though
    /// the global history advances between fetch and resolve.
    pub pht_index: usize,
    /// Bimodal and chooser index.
    pub bimodal_index: usize,
    /// What the gshare side said (tournament chooser training).
    pub gshare_taken: bool,
    /// What the bimodal side said (tournament chooser training).
    pub bimodal_taken: bool,
}

/// One BTB entry, packed into 16 bytes as `[tag, target]`: the tag is the
/// branch pc plus one, so the all-zero entry of freshly zeroed memory is
/// invalid and never hits. (Pc `u64::MAX`, which has no fall-through
/// address, is never stored.)
type BtbEntry = [u64; 2];

/// A per-thread tournament direction predictor with a BTB and a
/// return-address stack.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    config: BranchPredictorConfig,
    /// 2-bit saturating counters (history-indexed gshare side).
    pht: Vec<u8>,
    /// 2-bit saturating counters (PC-indexed bimodal side).
    bimodal: Vec<u8>,
    /// 2-bit chooser: >=2 selects gshare.
    chooser: Vec<u8>,
    btb: Vec<BtbEntry>,
    ras: Vec<u64>,
    history: u64,
    /// Total direction lookups (conditional branches predicted).
    pub lookups: u64,
    /// Direction mispredictions observed at update time.
    pub direction_mispredicts: u64,
    /// Target mispredictions (taken branch, wrong/unknown target).
    pub target_mispredicts: u64,
}

impl BranchPredictor {
    /// Creates a predictor with weakly-not-taken counters.
    pub fn new(config: BranchPredictorConfig) -> Self {
        BranchPredictor {
            pht: vec![1; 1 << config.pht_bits],
            bimodal: vec![1; 1 << config.pht_bits],
            chooser: vec![2; 1 << config.pht_bits],
            // Zeroed memory: every entry starts invalid.
            btb: vec![[0; 2]; 1 << config.btb_bits],
            ras: Vec::with_capacity(config.ras_depth),
            history: 0,
            lookups: 0,
            direction_mispredicts: 0,
            target_mispredicts: 0,
            config,
        }
    }

    #[inline]
    fn pht_index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.config.pht_bits) - 1;
        let hist_mask = (1u64 << self.config.history_bits) - 1;
        (((pc >> 2) ^ (self.history & hist_mask)) & mask) as usize
    }

    #[inline]
    fn btb_index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.config.btb_bits) - 1;
        ((pc >> 2) & mask) as usize
    }

    /// Predicts the branch at `pc`. `is_return` consults the RAS for the
    /// target.
    pub fn predict(&mut self, pc: u64, is_return: bool) -> Prediction {
        self.lookups += 1;
        let pht_index = self.pht_index(pc);
        let mask = (1u64 << self.config.pht_bits) - 1;
        let bimodal_index = ((pc >> 2) & mask) as usize;
        let gshare_taken = self.pht[pht_index] >= 2;
        let bimodal_taken = self.bimodal[bimodal_index] >= 2;
        let taken = if self.chooser[bimodal_index] >= 2 {
            gshare_taken
        } else {
            bimodal_taken
        };
        let target = if is_return {
            self.ras.last().copied()
        } else {
            let [tag, target] = self.btb[self.btb_index(pc)];
            (pc.checked_add(1) == Some(tag)).then_some(target)
        };
        Prediction {
            taken,
            target,
            pht_index,
            bimodal_index,
            gshare_taken,
            bimodal_taken,
        }
    }

    /// Trains the predictor with the resolved outcome and returns whether
    /// the earlier prediction would have been wrong (direction or, for taken
    /// branches, target).
    ///
    /// `predicted` must be the value returned by [`BranchPredictor::predict`]
    /// for this instance of the branch.
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &mut self,
        pc: u64,
        predicted: Prediction,
        taken: bool,
        target: u64,
        is_call: bool,
        is_return: bool,
        fallthrough: u64,
    ) -> bool {
        // Direction training (2-bit saturating counters) — train the entries
        // the prediction actually came from.
        fn train(c: &mut u8, taken: bool) {
            if taken {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }
        train(&mut self.pht[predicted.pht_index], taken);
        train(&mut self.bimodal[predicted.bimodal_index], taken);
        // Chooser: move toward whichever side was right (when they differ).
        if predicted.gshare_taken != predicted.bimodal_taken {
            train(
                &mut self.chooser[predicted.bimodal_index],
                predicted.gshare_taken == taken,
            );
        }
        // Speculative history update would be cleaner; updating at resolve
        // keeps the model simple and is a common simulator simplification.
        self.history = (self.history << 1) | taken as u64;

        // Target training.
        if taken && !is_return {
            let bi = self.btb_index(pc);
            self.btb[bi] = [pc.wrapping_add(1), target];
        }
        if is_call {
            if self.ras.len() == self.config.ras_depth {
                self.ras.remove(0);
            }
            self.ras.push(fallthrough);
        }
        if is_return {
            self.ras.pop();
        }

        let dir_wrong = predicted.taken != taken;
        let tgt_wrong = taken && predicted.target != Some(target);
        if dir_wrong {
            self.direction_mispredicts += 1;
        } else if tgt_wrong {
            self.target_mispredicts += 1;
        }
        dir_wrong || tgt_wrong
    }

    /// Overall mispredict ratio observed so far (0.0 with no lookups).
    pub fn mispredict_ratio(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        (self.direction_mispredicts + self.target_mispredicts) as f64 / self.lookups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(BranchPredictorConfig::default())
    }

    #[test]
    fn learns_always_taken_branch() {
        let mut p = bp();
        let pc = 0x400;
        let mut wrong = 0;
        for _ in 0..100 {
            let pred = p.predict(pc, false);
            if p.update(pc, pred, true, 0x800, false, false, pc + 4) {
                wrong += 1;
            }
        }
        // gshare must fill its global history (12 bits) before the PHT index
        // stabilizes, so allow roughly history-length cold mispredicts.
        assert!(
            wrong <= 16,
            "should converge after history warm-up, got {wrong} mispredicts"
        );
        // Once warm, the branch is predicted perfectly.
        let pred = p.predict(pc, false);
        assert!(pred.taken);
        assert_eq!(pred.target, Some(0x800));
    }

    #[test]
    fn learns_loop_exit_pattern_poorly_but_body_well() {
        let mut p = bp();
        let pc = 0x100;
        let mut wrong = 0;
        // 20 iterations of a 10-body loop: taken 9x, not-taken once.
        for _ in 0..20 {
            for i in 0..10 {
                let taken = i != 9;
                let pred = p.predict(pc, false);
                if p.update(pc, pred, taken, 0x100, false, false, pc + 4) {
                    wrong += 1;
                }
            }
        }
        // Roughly one mispredict per exit after warmup.
        assert!(wrong < 50, "got {wrong}");
        assert!(wrong > 5, "loop exits are data-dependent, got {wrong}");
    }

    #[test]
    fn btb_provides_target_after_training() {
        let mut p = bp();
        let pred0 = p.predict(0x40, false);
        assert_eq!(pred0.target, None);
        p.update(0x40, pred0, true, 0x1000, false, false, 0x44);
        let pred1 = p.predict(0x40, false);
        assert_eq!(pred1.target, Some(0x1000));
    }

    #[test]
    fn ras_predicts_return_targets() {
        let mut p = bp();
        // Call at 0x10 returning to 0x14.
        let pc_call = 0x10;
        let pred = p.predict(pc_call, false);
        p.update(pc_call, pred, true, 0x2000, true, false, 0x14);
        let pred_ret = p.predict(0x2008, true);
        assert_eq!(pred_ret.target, Some(0x14));
        p.update(0x2008, pred_ret, true, 0x14, false, true, 0x200c);
        // Stack is now empty.
        assert_eq!(p.predict(0x3000, true).target, None);
    }

    #[test]
    fn mispredict_ratio_counts() {
        let mut p = bp();
        let pred = p.predict(0x40, false);
        p.update(0x40, pred, true, 0x1000, false, false, 0x44);
        assert!(p.mispredict_ratio() > 0.0); // cold target miss or direction
        assert_eq!(p.lookups, 1);
    }

    #[test]
    fn btb_entries_are_16_bytes() {
        assert_eq!(std::mem::size_of::<BtbEntry>(), 16);
    }

    /// Trains one taken branch at `pc` and returns the target predicted
    /// before and after.
    fn train_target(p: &mut BranchPredictor, pc: u64, target: u64) -> (Option<u64>, Option<u64>) {
        let before = p.predict(pc, false);
        p.update(pc, before, true, target, false, false, pc.wrapping_add(4));
        (before.target, p.predict(pc, false).target)
    }

    #[test]
    fn btb_hits_at_pc_zero_and_the_largest_pc() {
        let mut p = bp();
        assert_eq!(train_target(&mut p, 0, 0x40), (None, Some(0x40)));
        // The largest instruction pc: one with a fall-through address.
        let top = u64::MAX - 3;
        assert_eq!(train_target(&mut p, top, 0), (None, Some(0)));
        // Both entries survive each other (distinct BTB sets).
        assert_eq!(p.predict(0, false).target, Some(0x40));
    }

    #[test]
    fn invalid_btb_entries_never_hit() {
        let mut p = bp();
        // Every entry starts zeroed: no pc whose set is untouched hits,
        // including pc 0 and the pc whose tag would wrap to zero.
        for pc in [0, 4, 0x1000, u64::MAX - 3, u64::MAX] {
            assert_eq!(p.predict(pc, false).target, None, "pc {pc:#x}");
        }
        // A trained entry does not hit for another pc of its set.
        let sets = 1u64 << BranchPredictorConfig::default().btb_bits;
        train_target(&mut p, 0x40, 0x800);
        assert_eq!(p.predict(0x40 + 4 * sets, false).target, None);
        // Pc `u64::MAX` is never stored, so it never hits.
        assert_eq!(train_target(&mut p, u64::MAX, 0x80), (None, None));
    }

    #[test]
    fn the_chooser_moves_to_the_side_that_is_right() {
        // A period-5 pattern (taken four times, then not) at one pc: the
        // bimodal side mispredicts every exit, the gshare side learns the
        // pattern from global history, and the chooser settles on gshare.
        let mut p = bp();
        let pc = 0x400;
        let mut late_wrong = 0;
        for i in 0..2_000 {
            let taken = i % 5 != 4;
            let pred = p.predict(pc, false);
            if i >= 1_500 && pred.taken != taken {
                late_wrong += 1;
            }
            p.update(pc, pred, taken, 0x100, false, false, pc + 4);
        }
        assert_eq!(late_wrong, 0, "the tournament did not learn the pattern");
        let pred = p.predict(pc, false);
        assert!(p.chooser[pred.bimodal_index] >= 2, "chooser picks gshare");
    }
}
