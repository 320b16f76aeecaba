//! Readiness for the TCP fabric's two loops: a safe [`wait`] over
//! `poll(2)` and a [`Waker`] that lets other threads interrupt it.
//!
//! Both loops in [`tcp`](crate::tcp) own nonblocking sockets *and* a
//! command channel. `poll(2)` covers the sockets; the waker turns "a
//! command was queued" into one more readable descriptor, so a loop parks
//! in a single place and wakes for whichever comes first. Unix only, like
//! the rest of the fabric, and the only FFI in the crate.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::ffi::{c_int, c_short};
use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::time::Duration;

/// Data can be read (or a listener has a connection to accept).
pub(crate) const POLLIN: c_short = 0x001;
/// Data can be written without blocking.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error condition (reported whether or not it was asked for).
const POLLERR: c_short = 0x008;
/// Peer hung up (reported whether or not it was asked for).
const POLLHUP: c_short = 0x010;
/// The descriptor is not open (reported whether or not it was asked for).
const POLLNVAL: c_short = 0x020;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the other unixes.
#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

/// One entry of a `poll(2)` set — layout-identical to C's `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for `events` ([`POLLIN`] and/or [`POLLOUT`]).
    pub(crate) fn new(fd: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// A read will not block: data, end of stream, or an error to collect.
    /// Hang-up and error count, so a severed socket is noticed at once.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// A write will make progress.
    pub(crate) fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }

    /// Report everything that was asked for as ready — for a caller whose
    /// [`wait`] failed and who would rather try every descriptor than none.
    pub(crate) fn assume_ready(&mut self) {
        self.revents = self.events;
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until a descriptor in `fds` is ready or `timeout` passes (`None`
/// waits indefinitely); each entry's readiness is then in
/// [`readable`](PollFd::readable) / [`writable`](PollFd::writable). A
/// timeout is rounded *up* to whole milliseconds, so a caller sleeping
/// toward a deadline never wakes before it. A signal (`EINTR`) returns
/// early with nothing ready, like a timeout.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let timeout_ms: c_int = match timeout {
        None => -1,
        Some(d) => d
            .as_nanos()
            .div_ceil(1_000_000)
            .try_into()
            .unwrap_or(c_int::MAX),
    };
    // SAFETY: `fds` is an exclusive borrow of `fds.len()` initialized
    // `PollFd`s, `#[repr(C)]` with the field order and types of `struct
    // pollfd`, and it outlives the call; `poll` writes only the `revents`
    // field of those entries and keeps no pointer. A descriptor number
    // that is not open is reported as `POLLNVAL`, not dereferenced.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
        // The kernel leaves `revents` unspecified on failure.
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
    }
    Ok(())
}

/// Interrupts a loop parked in [`wait`]: a nonblocking socket pair whose
/// read end sits in the loop's poll set.
///
/// Protocol — the loop calls [`park`](Waker::park), *then* checks its
/// command channel one last time, then waits; a sender queues its command,
/// *then* calls [`wake`](Waker::wake). Whichever order the two run in,
/// either the loop's last check sees the command or the sender sees the
/// parked flag and writes the byte that ends the wait. A loop that is busy
/// (flag clear) costs its senders no syscall.
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
    parked: AtomicBool,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            tx,
            rx,
            parked: AtomicBool::new(false),
        })
    }

    /// The entry for the loop's poll set.
    pub(crate) fn pollfd(&self) -> PollFd {
        PollFd::new(&self.rx, POLLIN)
    }

    /// Loop side: declare the intent to wait. Commands queued after this
    /// returns are followed by a wake byte.
    pub(crate) fn park(&self) {
        self.parked.store(true, Ordering::SeqCst);
        // Pairs with the fence in `wake`: of "flag set, then channel
        // checked" here and "command queued, then flag read" there, at
        // least one side sees the other's write.
        fence(Ordering::SeqCst);
    }

    /// Loop side: the wait is over. `signalled` says the wake descriptor
    /// polled readable; its bytes are discarded (a byte written after the
    /// flag clears ends the *next* wait early, once, harmlessly).
    pub(crate) fn unpark(&self, signalled: bool) {
        self.parked.store(false, Ordering::SeqCst);
        if signalled {
            let _ = (&self.rx).read(&mut [0u8; 64]);
        }
    }

    /// Sender side: end the loop's wait if it is (about to be) parked.
    /// The first sender to find the flag set clears it and writes the one
    /// byte; a full pipe means a wake-up is already on its way.
    pub(crate) fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            let _ = (&self.tx).write(&[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn pollfd_matches_the_c_layout() {
        assert_eq!(std::mem::size_of::<PollFd>(), 8);
        assert_eq!(std::mem::align_of::<PollFd>(), 4);
    }

    #[test]
    fn timeout_expires_with_nothing_ready_and_never_early() {
        let w = Waker::new().expect("socket pair");
        let mut fds = [w.pollfd()];
        let t = Instant::now();
        wait(&mut fds, Some(Duration::from_micros(1500))).expect("poll");
        assert!(t.elapsed() >= Duration::from_micros(1500), "rounded up");
        assert!(!fds[0].readable() && !fds[0].writable());
    }

    #[test]
    fn wake_ends_a_wait_only_when_parked() {
        let w = Waker::new().expect("socket pair");
        // Not parked: no byte is written, the wait times out.
        w.wake();
        let mut fds = [w.pollfd()];
        wait(&mut fds, Some(Duration::ZERO)).expect("poll");
        assert!(!fds[0].readable());
        // Parked: one wake (of several) writes one byte.
        w.park();
        w.wake();
        w.wake();
        wait(&mut fds, None).expect("poll");
        assert!(fds[0].readable());
        w.unpark(true);
        wait(&mut fds, Some(Duration::ZERO)).expect("poll");
        assert!(!fds[0].readable(), "unpark drained the byte");
    }

    #[test]
    fn wake_from_another_thread_interrupts_an_indefinite_wait() {
        let w = std::sync::Arc::new(Waker::new().expect("socket pair"));
        w.park();
        let w2 = std::sync::Arc::clone(&w);
        let t = std::thread::spawn(move || w2.wake());
        let mut fds = [w.pollfd()];
        wait(&mut fds, None).expect("poll");
        assert!(fds[0].readable());
        t.join().expect("waker thread");
    }

    #[test]
    fn sockets_report_writable_readable_and_hangup() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut a = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut lfd = [PollFd::new(&listener, POLLIN)];
        wait(&mut lfd, None).expect("poll");
        assert!(lfd[0].readable(), "pending accept is readable");
        let (b, _) = listener.accept().expect("accept");

        let mut fds = [PollFd::new(&b, POLLIN | POLLOUT)];
        wait(&mut fds, None).expect("poll");
        assert!(fds[0].writable() && !fds[0].readable());

        a.write_all(b"x").expect("write");
        let mut fds = [PollFd::new(&b, POLLIN)];
        wait(&mut fds, None).expect("poll");
        assert!(fds[0].readable());

        // Shutdown from a clone (what `sever` does) reads as readable.
        let mut fds = [PollFd::new(&a, POLLIN)];
        b.try_clone()
            .expect("clone")
            .shutdown(std::net::Shutdown::Both)
            .expect("shutdown");
        wait(&mut fds, None).expect("poll");
        assert!(fds[0].readable(), "hang-up counts as readable");
    }
}
