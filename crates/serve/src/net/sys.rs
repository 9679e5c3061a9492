//! Readiness polling for the reactor — epoll on Linux, `poll(2)` elsewhere
//! on unix, a degraded always-ready tick on everything else.
//!
//! The reactor needs exactly four things from the OS: "tell me which of
//! these sockets can make progress", "wake me from another thread", a way
//! to register/deregister sockets, and nothing more. This module provides
//! that surface with raw syscalls behind `extern "C"` declarations (the
//! same pattern [`crate::affinity`] uses for `sched_setaffinity`) so the
//! crate stays free of foreign dependencies.
//!
//! Tokens are caller-chosen `u64`s echoed back with each event. The
//! reactor uses connection-slot indices, reserving [`WAKER_TOKEN`] for the
//! cross-thread waker. Events are *hints*: a stale event for a closed slot
//! is harmless because every read/write on a nonblocking socket rechecks
//! readiness by construction.
//!
//! Every `unsafe` block below is one foreign call whose arguments are an fd
//! this module owns (or was handed for registration) and pointers to live
//! locals of the stated length.

#![deny(clippy::undocumented_unsafe_blocks)]

/// Token the poller reports when [`Waker::wake`] was called.
pub(crate) const WAKER_TOKEN: u64 = u64::MAX;

/// One readiness report.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    pub(crate) token: u64,
    pub(crate) readable: bool,
    /// Part of the readiness ABI; the reactor flushes on every service
    /// pass, so it never branches on this today.
    #[allow(dead_code)]
    pub(crate) writable: bool,
}

#[cfg(target_os = "linux")]
pub(crate) use linux::{Poller, Waker};

#[cfg(all(unix, not(target_os = "linux")))]
pub(crate) use fallback::{Poller, Waker};

#[cfg(not(unix))]
pub(crate) use degraded::{Poller, Waker};

/// Raw fd of a socket, for registration. Events remain hints, so a token
/// outliving its socket never corrupts anything.
#[cfg(unix)]
pub(crate) fn sock_fd(stream: &std::net::TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
pub(crate) fn sock_fd(_stream: &std::net::TcpStream) -> i32 {
    -1
}

#[cfg(target_os = "linux")]
mod linux {
    use super::{Event, WAKER_TOKEN};
    use std::io;
    use std::sync::Arc;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// Kernel `struct epoll_event`. Packed on x86-64 only (the kernel ABI
    /// quirk); naturally aligned everywhere else.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// Owns an fd, closing it on drop.
    struct OwnedFd(i32);

    impl Drop for OwnedFd {
        fn drop(&mut self) {
            // SAFETY: `self.0` came from a successful `epoll_create1`/`eventfd`
            // and is closed exactly once, here, by its only owner.
            unsafe { close(self.0) };
        }
    }

    /// epoll instance plus an eventfd waker registered under [`WAKER_TOKEN`].
    pub(crate) struct Poller {
        epfd: OwnedFd,
        waker: Arc<OwnedFd>,
    }

    /// Wakes the owning [`Poller`] from any thread.
    #[derive(Clone)]
    pub(crate) struct Waker {
        efd: Arc<OwnedFd>,
    }

    impl Waker {
        pub(crate) fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            // A full eventfd counter still wakes the poller; ignore errors.
            // SAFETY: the eventfd stays open while this `Arc` holds it, and
            // `one` is a live 8-byte buffer, the size an eventfd write takes.
            unsafe { write(self.efd.0, one.as_ptr(), one.len()) };
        }
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            // SAFETY: no pointers; the flag is a valid `epoll_create1` flag.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let epfd = OwnedFd(epfd);
            // SAFETY: no pointers; both flags are valid `eventfd` flags.
            let efd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if efd < 0 {
                return Err(io::Error::last_os_error());
            }
            let waker = Arc::new(OwnedFd(efd));
            let mut ev = EpollEvent { events: EPOLLIN, data: WAKER_TOKEN };
            // SAFETY: both fds are open and owned here; `ev` is a live
            // `epoll_event` the kernel only reads during the call.
            if unsafe { epoll_ctl(epfd.0, EPOLL_CTL_ADD, waker.0, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd, waker })
        }

        pub(crate) fn waker(&self) -> Waker {
            Waker { efd: Arc::clone(&self.waker) }
        }

        fn ctl(&self, op: i32, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
            // Error/hangup conditions are always reported by epoll; with
            // both interests off the fd just waits silently (a drained
            // connection parked on in-flight tickets).
            let events =
                if read { EPOLLIN | EPOLLRDHUP } else { 0 } | if write { EPOLLOUT } else { 0 };
            let mut ev = EpollEvent { events, data: token };
            // SAFETY: the epoll fd is owned and open and `ev` is a live local;
            // a stale `fd` costs an error or a wrong registration, not memory.
            if unsafe { epoll_ctl(self.epfd.0, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn add(&self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
        }

        pub(crate) fn modify(
            &self,
            fd: i32,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
        }

        pub(crate) fn delete(&self, fd: i32) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // Kernels before 2.6.9 required a non-null event for DEL.
            // SAFETY: as in `ctl`: owned epoll fd, a live `ev`, and an error
            // for an fd that is no longer registered.
            unsafe { epoll_ctl(self.epfd.0, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        /// Blocks up to `timeout_ms` for readiness; drains the waker if it
        /// fired so the next wait blocks again.
        pub(crate) fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
            // SAFETY: `raw` is a live array of `raw.len()` events, the count
            // passed, and the kernel writes at most that many.
            let n =
                unsafe { epoll_wait(self.epfd.0, raw.as_mut_ptr(), raw.len() as i32, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in raw.iter().take(n as usize) {
                let (bits, token) = (ev.events, ev.data);
                if token == WAKER_TOKEN {
                    let mut buf = [0u8; 8];
                    // SAFETY: the eventfd is owned and open; `buf` is a live
                    // 8-byte buffer, the size an eventfd read takes.
                    unsafe { read(self.waker.0, buf.as_mut_ptr(), buf.len()) };
                    events.push(Event { token, readable: true, writable: false });
                    continue;
                }
                // Error/hangup surfaces as readable: the next read reports
                // the actual condition (EOF or an io::Error) in-band.
                let err = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                events.push(Event {
                    token,
                    readable: bits & EPOLLIN != 0 || err,
                    writable: bits & EPOLLOUT != 0 || err,
                });
            }
            Ok(())
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod fallback {
    use super::{Event, WAKER_TOKEN};
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
    }

    struct Slot {
        fd: i32,
        token: u64,
        want_read: bool,
        want_write: bool,
    }

    /// `poll(2)`-backed poller. The waker is an atomic flag checked every
    /// tick: waits are capped at 5ms so a wake is observed promptly without
    /// needing a self-pipe (no portable non-libc pipe/fcntl surface).
    pub(crate) struct Poller {
        slots: Mutex<Vec<Slot>>,
        woken: Arc<AtomicBool>,
    }

    #[derive(Clone)]
    pub(crate) struct Waker {
        woken: Arc<AtomicBool>,
    }

    impl Waker {
        pub(crate) fn wake(&self) {
            self.woken.store(true, Ordering::Release);
        }
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            Ok(Self { slots: Mutex::new(Vec::new()), woken: Arc::new(AtomicBool::new(false)) })
        }

        pub(crate) fn waker(&self) -> Waker {
            Waker { woken: Arc::clone(&self.woken) }
        }

        pub(crate) fn add(&self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.slots.lock().unwrap().push(Slot { fd, token, want_read: read, want_write: write });
            Ok(())
        }

        pub(crate) fn modify(
            &self,
            fd: i32,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            let mut slots = self.slots.lock().unwrap();
            if let Some(s) = slots.iter_mut().find(|s| s.fd == fd) {
                s.token = token;
                s.want_read = read;
                s.want_write = write;
            }
            Ok(())
        }

        pub(crate) fn delete(&self, fd: i32) {
            self.slots.lock().unwrap().retain(|s| s.fd != fd);
        }

        pub(crate) fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let mut fds: Vec<PollFd> = {
                let slots = self.slots.lock().unwrap();
                slots
                    .iter()
                    .map(|s| PollFd {
                        fd: s.fd,
                        events: if s.want_read { POLLIN } else { 0 }
                            | if s.want_write { POLLOUT } else { 0 },
                        revents: 0,
                    })
                    .collect()
            };
            let cap = if timeout_ms < 0 { 5 } else { timeout_ms.min(5) };
            // SAFETY: `fds` is a live `Vec` of `fds.len()` `pollfd`s, the
            // count passed; the kernel writes only their `revents`.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, cap) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            if self.woken.swap(false, Ordering::AcqRel) {
                events.push(Event { token: WAKER_TOKEN, readable: true, writable: false });
            }
            let slots = self.slots.lock().unwrap();
            for (pf, s) in fds.iter().zip(slots.iter()) {
                if pf.fd != s.fd {
                    continue; // registration changed mid-wait; skip the tick
                }
                let err = pf.revents & (POLLERR | POLLHUP) != 0;
                if pf.revents != 0 {
                    events.push(Event {
                        token: s.token,
                        readable: pf.revents & POLLIN != 0 || err,
                        writable: pf.revents & POLLOUT != 0 || err,
                    });
                }
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
mod degraded {
    use super::{Event, WAKER_TOKEN};
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    /// No readiness API: report every registered token ready each tick and
    /// sleep briefly. Correct (sockets are nonblocking; spurious readiness
    /// just yields `WouldBlock`) but busy — acceptable for the platforms
    /// the serving path doesn't target.
    pub(crate) struct Poller {
        tokens: Mutex<Vec<(i32, u64)>>,
        woken: Arc<AtomicBool>,
    }

    #[derive(Clone)]
    pub(crate) struct Waker {
        woken: Arc<AtomicBool>,
    }

    impl Waker {
        pub(crate) fn wake(&self) {
            self.woken.store(true, Ordering::Release);
        }
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            Ok(Self { tokens: Mutex::new(Vec::new()), woken: Arc::new(AtomicBool::new(false)) })
        }

        pub(crate) fn waker(&self) -> Waker {
            Waker { woken: Arc::clone(&self.woken) }
        }

        pub(crate) fn add(&self, fd: i32, token: u64, _read: bool, _write: bool) -> io::Result<()> {
            self.tokens.lock().unwrap().push((fd, token));
            Ok(())
        }

        pub(crate) fn modify(
            &self,
            _fd: i32,
            _token: u64,
            _read: bool,
            _write: bool,
        ) -> io::Result<()> {
            Ok(())
        }

        pub(crate) fn delete(&self, fd: i32) {
            self.tokens.lock().unwrap().retain(|(f, _)| *f != fd);
        }

        pub(crate) fn wait(&self, events: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<()> {
            events.clear();
            std::thread::sleep(std::time::Duration::from_millis(2));
            if self.woken.swap(false, Ordering::AcqRel) {
                events.push(Event { token: WAKER_TOKEN, readable: true, writable: false });
            }
            for (_, token) in self.tokens.lock().unwrap().iter() {
                events.push(Event { token: *token, readable: true, writable: true });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn waker_interrupts_a_long_wait() {
        let poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        // Poll until the wake is observed (the fallback poller caps each
        // wait at a few ms, so loop rather than rely on one long block).
        loop {
            poller.wait(&mut events, 2_000).expect("wait");
            if events.iter().any(|e| e.token == WAKER_TOKEN) {
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(5), "wake never observed");
        }
        handle.join().unwrap();
    }

    #[test]
    fn readable_socket_reports_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("poller");
        poller.add(sock_fd(&server), 7, true, false).expect("add");

        client.write_all(b"ping").expect("write");
        let mut events = Vec::new();
        let start = Instant::now();
        loop {
            poller.wait(&mut events, 2_000).expect("wait");
            if let Some(ev) = events.iter().find(|e| e.token == 7) {
                assert!(ev.readable, "socket with buffered bytes must be readable");
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(5), "readiness never observed");
        }
        let mut one = { &server };
        let mut buf = [0u8; 16];
        let n = one.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");
        poller.delete(sock_fd(&server));
    }
}
