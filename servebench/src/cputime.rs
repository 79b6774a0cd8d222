//! CPU time of the calling thread, the clock the host-speed metrics use.
//!
//! On a virtual machine that shares its host, wall time also counts the
//! moments the hypervisor runs someone else on our CPU (steal) and the
//! moments our thread waits for a CPU. Both stretch a timed repetition by
//! whatever the neighbours happen to do. The thread's CPU time counts only
//! the time it ran: Linux subtracts steal from it when the hypervisor
//! reports steal time, as KVM does.
//!
//! The standard library has no thread CPU clock, so this calls libc's
//! `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, which the standard library
//! already links.

#![allow(unsafe_code)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("servebench reads thread CPU time through 64-bit Linux's clock_gettime");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
}

/// Seconds of CPU time the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a valid, writable `struct timespec` for the call's
    // whole duration, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work_and_not_with_sleep() {
        let start = thread_cpu_s();
        let mut x = 0u64;
        while thread_cpu_s() - start < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let busy = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_s() - busy;
        assert!(busy - start >= 0.02);
        assert!(slept < 0.01, "sleeping used {slept} s of CPU time");
    }
}
