//! The two system calls the open-loop generator needs and std does not
//! offer: a readiness wait with a sub-millisecond timeout, and a tighter
//! timer slack. `SO_RCVTIMEO` and `poll(2)` round to scheduler ticks
//! (1–4 ms), which at thousands of arrivals per second would make every
//! request late; `ppoll(2)` takes nanoseconds.

use std::net::TcpStream;
use std::time::Duration;

#[cfg(target_os = "linux")]
mod imp {
    use std::ffi::{c_int, c_ulong, c_void};
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x001;
    const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            tmo: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn prctl(
            option: c_int,
            arg2: c_ulong,
            arg3: c_ulong,
            arg4: c_ulong,
            arg5: c_ulong,
        ) -> c_int;
        fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
        fn sched_getscheduler(pid: c_int) -> c_int;
    }

    #[repr(C)]
    struct SchedParam {
        sched_priority: c_int,
    }

    const SCHED_FIFO: c_int = 1;

    pub fn realtime() -> bool {
        let param = SchedParam { sched_priority: 1 };
        // SAFETY: `param` is a live `repr(C)` `struct sched_param`; pid 0
        // names the calling thread; the calls touch no other memory.
        unsafe {
            sched_setscheduler(0, SCHED_FIFO, &param);
            sched_getscheduler(0) == SCHED_FIFO
        }
    }

    pub fn wait_readable(stream: Option<&super::TcpStream>, timeout: super::Duration) -> bool {
        let mut fd =
            PollFd { fd: stream.map_or(-1, AsRawFd::as_raw_fd), events: POLLIN, revents: 0 };
        let tmo = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` and `tmo` are live, properly laid out (`repr(C)`,
        // matching the 64-bit Linux `struct pollfd` / `struct timespec`) for
        // the duration of the call; nfds is 1 for that one entry (a negative
        // fd is ignored by the kernel, making this a plain sleep); a null
        // sigmask leaves the signal mask unchanged.
        let n = unsafe { ppoll(&mut fd, 1, &tmo, std::ptr::null()) };
        n > 0 && fd.revents != 0
    }

    pub fn set_timer_slack(ns: u64) {
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
        // no memory; unused arguments are zero as prctl(2) asks.
        unsafe { prctl(PR_SET_TIMERSLACK, ns as c_ulong, 0, 0, 0) };
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn wait_readable(stream: Option<&super::TcpStream>, timeout: super::Duration) -> bool {
        let Some(stream) = stream else {
            std::thread::sleep(timeout);
            return false;
        };
        let timeout = timeout.max(super::Duration::from_micros(1));
        let _ = stream.set_read_timeout(Some(timeout));
        let ready = stream.peek(&mut [0u8; 1]).is_ok();
        let _ = stream.set_read_timeout(None);
        ready
    }

    pub fn set_timer_slack(_ns: u64) {}

    pub fn realtime() -> bool {
        false
    }
}

/// Blocks until `stream` has bytes to read (or reached EOF) or `timeout`
/// passes; `true` when readable. With no stream it is a precise sleep.
pub fn wait_readable(stream: Option<&TcpStream>, timeout: Duration) -> bool {
    imp::wait_readable(stream, timeout)
}

/// Asks the kernel to wake this thread within `ns` nanoseconds of a timer's
/// expiry instead of the default 50 µs (best effort).
pub fn set_timer_slack(ns: u64) {
    imp::set_timer_slack(ns)
}

/// Asks for the lowest real-time priority (`SCHED_FIFO` 1) for the calling
/// thread; `true` when it is in force afterwards (it takes a privilege the
/// process may lack). The open-loop generator stands in for clients on other
/// machines: it must get a CPU the moment a request is due even while the
/// server's threads want both cores, or it is the generator's own wait for a
/// time slice that gets measured. It sleeps between arrivals, so it takes
/// from the server only the time a real client's packets would.
pub fn realtime() -> bool {
    imp::realtime()
}
