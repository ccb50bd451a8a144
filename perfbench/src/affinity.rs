//! Pinning the calling thread to one CPU, so that set-up samples can be
//! taken on each core in turn. Linux only (`sched_getaffinity` and
//! `sched_setaffinity` from the C library, which std links; std has no
//! wrapper). Where a call fails, the caller measures unpinned.

/// Bytes of a CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const MASK_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// A set of CPUs a thread may run on.
pub struct Mask([u8; MASK_BYTES]);

impl Mask {
    /// The calling thread's current mask.
    pub fn current() -> Option<Mask> {
        let mut mask = [0u8; MASK_BYTES];
        // SAFETY: `mask` is writable for `MASK_BYTES` bytes; pid 0 names
        // the calling thread.
        let status = unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) };
        (status == 0).then_some(Mask(mask))
    }

    /// Only `cpu`.
    pub fn only(cpu: usize) -> Mask {
        let mut mask = [0u8; MASK_BYTES];
        mask[cpu / 8] |= 1 << (cpu % 8);
        Mask(mask)
    }

    /// The CPUs in the mask, lowest first.
    pub fn cpus(&self) -> Vec<usize> {
        (0..MASK_BYTES * 8)
            .filter(|&cpu| self.0[cpu / 8] & (1 << (cpu % 8)) != 0)
            .collect()
    }

    /// Restrict the calling thread to this mask. Returns whether it took.
    pub fn apply(&self) -> bool {
        // SAFETY: `self.0` is readable for `MASK_BYTES` bytes; pid 0
        // names the calling thread.
        unsafe { sched_setaffinity(0, MASK_BYTES, self.0.as_ptr()) == 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_each_cpu_and_back_round_trips() {
        let Some(home) = Mask::current() else { return };
        let cpus = home.cpus();
        assert!(!cpus.is_empty());
        for &cpu in &cpus {
            assert!(Mask::only(cpu).apply());
            assert_eq!(Mask::current().map(|m| m.cpus()), Some(vec![cpu]));
        }
        assert!(home.apply());
        assert_eq!(Mask::current().map(|m| m.cpus()), Some(cpus));
    }
}
