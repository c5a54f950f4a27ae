//! CPU time of the process and of the calling thread, in seconds, with
//! nanosecond resolution.
//!
//! The end-to-end costs are CPU time rather than wall time. On a guest
//! whose kernel accounts steal time (`CONFIG_PARAVIRT_TIME_ACCOUNTING`),
//! the time the hypervisor gives the vCPU to another guest is left out of
//! both clocks, so a neighbour's load does not move them, while every
//! cycle the program spends, its idle polling included, still counts.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds every thread of the process has used, ended ones included.
pub fn process_s() -> f64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_s() -> f64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU µs of one calibration unit on the host the benchmark was tuned on
/// (a 2-vCPU Xeon VM): calibrated costs are scaled to that host.
pub const CALIB_REF_US: f64 = 3.0;

/// A fixed piece of work of the benchmark's own, run beside the
/// program's to read how fast the host is at that moment: one unit hashes
/// a 4 KiB buffer, copies 16 KiB, and does 64 hash-map updates, the kinds
/// of work the request path does. None of it is the program's code, so a
/// change to the program does not move it.
pub struct Calibrator {
    buf: Vec<u8>,
    copy: Vec<u8>,
    map: std::collections::HashMap<u64, u64>,
    state: u64,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            buf: (0..4096u32).map(|i| (i * 31 % 251) as u8).collect(),
            copy: vec![0u8; 16 << 10],
            map: (0..1024u64).map(|k| (k, k)).collect(),
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Runs `units` units; returns the thread's CPU µs per unit.
    pub fn run(&mut self, units: usize) -> f64 {
        use std::hash::{Hash, Hasher};
        let started = thread_s();
        for _ in 0..units {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.buf.hash(&mut h);
            self.state ^= h.finish();
            for chunk in self.copy.chunks_mut(4096) {
                chunk.copy_from_slice(&self.buf);
            }
            for _ in 0..64 {
                self.state ^= self.state << 13;
                self.state ^= self.state >> 7;
                self.state ^= self.state << 17;
                *self.map.entry(self.state % 1024).or_insert(0) += 1;
            }
            self.buf[(self.state % 4096) as usize] ^=
                self.copy[(self.state >> 20) as usize % (16 << 10)];
        }
        std::hint::black_box(self.state);
        (thread_s() - started) * 1e6 / units as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work_and_the_thread_is_part_of_the_process() {
        let (p0, t0) = (process_s(), thread_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let (dp, dt) = (process_s() - p0, thread_s() - t0);
        assert!(dt > 0.0 && dp >= dt * 0.99, "thread {dt} s, process {dp} s");
    }
}
