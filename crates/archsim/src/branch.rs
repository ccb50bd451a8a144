//! Branch prediction: 256-entry 1-bit branch history table, 32-entry
//! branch target cache, and a 12-entry return-address stack (Table 3).

/// Outcome of consulting the predictor for one control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// Direction and target both predicted correctly.
    Correct,
    /// Direction wrong (full mispredict penalty).
    DirectionMiss,
    /// Direction right, but the taken target was not in the target cache
    /// (one fetch-bubble, binned as "other").
    TargetMiss,
}

/// The 21064-like branch unit.
#[derive(Debug, Clone)]
pub struct BranchUnit {
    bht: Vec<bool>,
    bht_mask: u32,
    btc: Vec<(u32, u32)>, // (branch pc, target), MRU first
    btc_capacity: usize,
    ras: Vec<u32>,
    ras_capacity: usize,
    /// Direction mispredictions.
    pub direction_misses: u64,
    /// Return-address-stack mispredictions.
    pub ras_misses: u64,
}

impl BranchUnit {
    /// Build a branch unit with the given table sizes.
    ///
    /// # Panics
    ///
    /// Panics if `bht_entries` is not a power of two.
    pub fn new(bht_entries: usize, btc_entries: usize, ras_entries: usize) -> Self {
        assert!(bht_entries.is_power_of_two(), "BHT size must be 2^k");
        BranchUnit {
            bht: vec![false; bht_entries],
            bht_mask: (bht_entries - 1) as u32,
            btc: Vec::with_capacity(btc_entries),
            btc_capacity: btc_entries,
            ras: Vec::with_capacity(ras_entries),
            ras_capacity: ras_entries,
            direction_misses: 0,
            ras_misses: 0,
        }
    }

    /// The paper's configuration: 256-entry 1-bit BHT, 32-entry BTC,
    /// 12-entry return stack.
    pub fn alpha_21064() -> Self {
        BranchUnit::new(256, 32, 12)
    }

    /// A conditional branch at `pc` resolving to `taken` toward `target`.
    #[inline]
    pub fn branch(&mut self, pc: u32, target: u32, taken: bool) -> Prediction {
        let idx = ((pc >> 2) & self.bht_mask) as usize;
        let predicted = self.bht[idx];
        self.bht[idx] = taken;
        if predicted != taken {
            self.direction_misses += 1;
            return Prediction::DirectionMiss;
        }
        if taken {
            if let Some(pos) = self.btc.iter().position(|&(p, t)| p == pc && t == target) {
                let e = self.btc.remove(pos);
                self.btc.insert(0, e);
                Prediction::Correct
            } else {
                if self.btc.len() == self.btc_capacity {
                    self.btc.pop();
                }
                self.btc.insert(0, (pc, target));
                Prediction::TargetMiss
            }
        } else {
            Prediction::Correct
        }
    }

    /// A call at `pc` (pushes the return address).
    #[inline]
    pub fn call(&mut self, pc: u32) {
        if self.ras.len() == self.ras_capacity {
            self.ras.remove(0); // overflow drops the oldest entry
        }
        self.ras.push(pc.wrapping_add(4));
    }

    /// A return to `target`; predicted via the return-address stack.
    #[inline]
    pub fn ret(&mut self, target: u32) -> Prediction {
        match self.ras.pop() {
            Some(predicted) if predicted == target => Prediction::Correct,
            _ => {
                self.ras_misses += 1;
                Prediction::DirectionMiss
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_bit_bht_learns_a_loop() {
        let mut bu = BranchUnit::alpha_21064();
        let pc = 0x40_0100;
        // First taken branch mispredicts (table initialized not-taken),
        // then the loop predicts correctly until the exit.
        assert_eq!(bu.branch(pc, 0x40_00f0, true), Prediction::DirectionMiss);
        assert_eq!(bu.branch(pc, 0x40_00f0, true), Prediction::TargetMiss);
        for _ in 0..10 {
            assert_eq!(bu.branch(pc, 0x40_00f0, true), Prediction::Correct);
        }
        assert_eq!(bu.branch(pc, 0x40_00f0, false), Prediction::DirectionMiss);
        assert_eq!(bu.direction_misses, 2);
    }

    #[test]
    fn alternating_branch_always_misses() {
        let mut bu = BranchUnit::alpha_21064();
        let pc = 0x40_0200;
        let mut misses = 0;
        for i in 0..20 {
            if bu.branch(pc, 0x40_0300, i % 2 == 0) == Prediction::DirectionMiss {
                misses += 1;
            }
        }
        assert!(misses >= 19, "1-bit predictor must thrash on alternation");
    }

    #[test]
    fn ras_predicts_matched_calls() {
        let mut bu = BranchUnit::alpha_21064();
        bu.call(100);
        bu.call(200);
        assert_eq!(bu.ret(204), Prediction::Correct);
        assert_eq!(bu.ret(104), Prediction::Correct);
        // Underflow mispredicts.
        assert_eq!(bu.ret(104), Prediction::DirectionMiss);
    }

    #[test]
    fn deep_recursion_overflows_ras() {
        let mut bu = BranchUnit::alpha_21064();
        for i in 0..20u32 {
            bu.call(i * 16);
        }
        // The 12 most recent returns predict; older frames were dropped.
        let mut correct = 0;
        for i in (0..20u32).rev() {
            if bu.ret(i * 16 + 4) == Prediction::Correct {
                correct += 1;
            }
        }
        assert_eq!(correct, 12);
    }

    #[test]
    fn btc_capacity_evicts() {
        let mut bu = BranchUnit::new(256, 2, 12);
        // Warm the BHT to taken for three branch pcs.
        for pc in [0u32, 4, 8] {
            bu.branch(pc, 100, true);
        }
        // All three now predict taken, but only two targets fit.
        bu.branch(0, 100, true);
        bu.branch(4, 100, true);
        bu.branch(8, 100, true); // evicts pc=0's entry
        assert_eq!(bu.branch(0, 100, true), Prediction::TargetMiss);
    }
}
