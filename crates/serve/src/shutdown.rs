//! Graceful-shutdown plumbing: a shared flag the reactor shards,
//! dispatcher pool and solver pool all poll, settable from a POSIX signal
//! handler (SIGTERM/SIGINT), the `POST /shutdown` endpoint, or tests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Set by the signal handler. Process-global because signal handlers
/// cannot carry state; only ever written with a plain atomic store, which
/// is async-signal-safe.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// A cooperative shutdown token.
///
/// `requested()` turns true once [`Shutdown::request`] is called or a
/// registered signal arrives; it never turns back. Every long-lived loop
/// in the daemon polls it between units of work, so shutdown drains
/// in-flight requests instead of dropping them. Loops that *block* on an
/// event source (the reactor shards parked in `epoll_wait`) register a
/// waker so `request()` interrupts the wait instead of riding on the next
/// poll tick; signal-delivered shutdown still relies on the poll backstop,
/// since a signal handler cannot safely walk the waker list.
#[derive(Default)]
pub struct Shutdown {
    flag: AtomicBool,
    wakers: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for Shutdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shutdown")
            .field("requested", &self.requested())
            .finish_non_exhaustive()
    }
}

impl Shutdown {
    /// A fresh token (shared via `Arc`).
    pub fn new() -> Arc<Shutdown> {
        Arc::new(Shutdown::default())
    }

    /// Requests shutdown. Idempotent, callable from any thread. Invokes
    /// every registered waker so blocked waiters notice immediately.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        for waker in self.wakers.lock().expect("waker list lock").iter() {
            waker();
        }
    }

    /// Registers a waker invoked on every [`Shutdown::request`] (and
    /// immediately, when shutdown was already requested — the registrant
    /// must not miss a wake-up that happened first). Wakers must be cheap
    /// and infallible; ringing an eventfd is the intended shape.
    pub fn on_request(&self, waker: impl Fn() + Send + Sync + 'static) {
        if self.requested() {
            waker();
        }
        self.wakers
            .lock()
            .expect("waker list lock")
            .push(Box::new(waker));
    }

    /// True once shutdown has been requested (locally or by signal).
    pub fn requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst)
    }
}

extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Registers `on_signal` for SIGINT and SIGTERM so ctrl-c and service
/// managers trigger a graceful drain. Uses the C library's `signal`
/// directly (std exposes no handler API and the workspace takes no
/// dependencies); glibc gives BSD semantics — the handler persists and
/// interrupted accepts restart.
///
/// No-op on non-unix targets, where only `POST /shutdown` stops the
/// daemon cleanly.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        type Handler = extern "C" fn(i32);
        extern "C" {
            fn signal(signum: i32, handler: Handler) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Real signal delivery is covered in `tests/signal.rs`, a separate
    // process: raising SIGTERM here would flip the process-global flag
    // under every other test in this binary.

    #[test]
    fn wakers_fire_on_request_and_on_late_registration() {
        use std::sync::atomic::AtomicUsize;
        let s = Shutdown::new();
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        s.on_request(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        s.request();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // Registering after the fact must not miss the wake-up.
        let f = Arc::clone(&fired);
        s.on_request(move || {
            f.fetch_add(10, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn request_is_sticky_and_shared() {
        let s = Shutdown::new();
        assert!(!s.requested());
        let clone = Arc::clone(&s);
        clone.request();
        assert!(s.requested());
        s.request();
        assert!(s.requested());
    }
}
