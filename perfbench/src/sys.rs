//! The two Linux calls the generator needs beyond std: a nanosecond
//! `ppoll` and `prctl(PR_SET_TIMERSLACK)`.

use std::os::raw::{c_int, c_long, c_ulong, c_void};
use std::time::Duration;

const PR_SET_TIMERSLACK: c_int = 29;
/// `POLLIN`: readable.
pub const POLLIN: i16 = 0x001;
/// `POLLOUT`: writable.
pub const POLLOUT: i16 = 0x004;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        tmo: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Sets the calling thread's timer slack to 1 ns (threads it spawns
/// inherit it). Linux's default 50 µs slack is about the size of a
/// cache-hit round trip, so sleeps until a scheduled send would otherwise
/// end up to 50 µs late.
pub fn lower_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and ignores the
    // rest; no memory is passed. On failure the default slack stays, which
    // only makes sends later, and that shows in the reported send lag.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Waits until `fd` has any of `events` ready or `timeout` passes, with
/// nanosecond timeout resolution (`poll` only takes milliseconds).
pub fn wait(fd: c_int, events: i16, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out locals for the
    // whole call; nfds = 1 matches the single pollfd; a null sigmask leaves
    // the signal mask alone. The result only tells us to go and look.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}
