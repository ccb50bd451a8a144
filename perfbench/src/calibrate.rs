//! The machine-speed reference: a fixed, interpreter-like loop that is
//! the benchmark's own code, timed between units.
//!
//! The baseline VM shares its host, and its speed drifts by up to 2×
//! over minutes, well beyond any bound a metric may have. A run's
//! reported times are therefore scaled to a reference machine: each is
//! multiplied by [`REFERENCE_S`] over the run's median calibration time
//! (rates are divided by it). The loop never changes with the program,
//! so a change in the program's speed shows in full, while a change in
//! the machine's speed moves the calibration and the units alike.

use std::hint::black_box;
use std::time::Instant;

use crate::JOBS;

/// Calibration time on the reference machine, in seconds: about the
/// median of one [`sample`] on the baseline VM. Every reported time is
/// in seconds of a machine on which a sample takes this long.
pub const REFERENCE_S: f64 = 0.1;

/// Loop steps each thread runs in one sample.
const STEPS: u64 = 6_000_000;

/// Words in each thread's table: 64 KiB, so the loop touches L1 and L2
/// as an interpreter's dispatch tables and operand stack do.
const TABLE_WORDS: usize = 8192;

/// A bytecode-style loop: a pseudo-random opcode stream dispatched by
/// `match`, with loads and stores into a private table.
fn kernel(steps: u64) -> u64 {
    let mut table = vec![0u64; TABLE_WORDS];
    let mask = TABLE_WORDS - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x >> 8) as usize & mask;
        match x >> 60 {
            0 => acc = acc.wrapping_add(table[slot]),
            1 => table[slot] = acc,
            2 => acc ^= x,
            3 => acc = acc.rotate_left(7),
            4 => acc = acc.wrapping_mul(3),
            5 => acc = if acc & 1 == 0 { acc + 1 } else { acc >> 1 },
            6 => table[slot] = table[slot].wrapping_add(i),
            7 => acc = acc.wrapping_sub(table[slot.wrapping_mul(7) & mask]),
            8..=11 => acc = acc.wrapping_add(x >> 60),
            _ => acc = acc.wrapping_add(table[slot] >> 3),
        }
    }
    acc ^ table[17]
}

/// Run the loop once on each of [`JOBS`] threads, as the units keep
/// every worker busy, and return the wall time in seconds.
pub fn sample() -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..JOBS)
            .map(|_| scope.spawn(|| kernel(black_box(STEPS))))
            .collect();
        for thread in threads {
            black_box(thread.join().unwrap_or_default());
        }
    });
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_is_deterministic() {
        assert_eq!(kernel(10_000), kernel(10_000));
    }

    #[test]
    fn a_sample_takes_time() {
        assert!(sample() > 0.0);
    }
}
