#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! # dehealth-netpoll
//!
//! Readiness notification for the serving layer: a single [`Poller`]
//! that multiplexes many nonblocking sockets over one thread, so the
//! daemon front can watch thousands of idle connections without a
//! thread per connection.
//!
//! The rest of the workspace denies `unsafe_code`; like
//! `dehealth-mapped`, this shim is allowed to contain it and confines
//! every unsafe operation (the epoll FFI) behind one safe type. The
//! poller is raw level-triggered epoll (`epoll_create1`/`epoll_ctl`/
//! `epoll_wait`), so Linux is the one supported target: any other
//! target stops at a `compile_error!` that says so.
//!
//! ## Waking a wait from another thread
//!
//! [`Poller::waker`] hands out a cloneable [`Waker`]. Any thread may
//! call [`Waker::wake`]; the poller's current `wait` (or its next one,
//! if none is in progress) then returns early, reporting no event for
//! the wake itself. The waker is a nonblocking `UnixStream` pair, made
//! by [`Poller::new`], whose read end is registered under the reserved
//! token [`WAKE_TOKEN`] and drained inside `wait`, so a burst of wakes
//! costs one early return.
//!
//! ## Readiness is advisory
//!
//! An [`Event`] means *try the operation now*, not *the operation will
//! succeed*. Sockets must be nonblocking and callers must treat
//! [`std::io::ErrorKind::WouldBlock`] as "not ready after all";
//! level-triggered epoll only makes spurious wakeups rare.

#[cfg(not(target_os = "linux"))]
compile_error!("dehealth-netpoll supports Linux only: its one readiness backend is epoll");

use std::io::{self, Read as _, Write as _};
use std::os::fd::{AsRawFd, FromRawFd as _, OwnedFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The token the poller registers its [`Waker`]'s socket under. Callers
/// must not register their own sources with it; events for it are never
/// reported.
pub const WAKE_TOKEN: usize = usize::MAX;

/// What a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the source is (probably) readable.
    pub readable: bool,
    /// Wake when the source is (probably) writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle connection.
    pub const READ: Self = Self { readable: true, writable: false };
    /// Both directions — a connection with queued outgoing bytes.
    pub const READ_WRITE: Self = Self { readable: true, writable: true };
}

/// One readiness report from [`Poller::wait`].
///
/// `readable` is also set on error/hangup conditions so a plain read
/// loop observes the EOF or error without inspecting anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token given at registration.
    pub token: usize,
    /// The source is (probably) readable, at EOF, or errored.
    pub readable: bool,
    /// The source is (probably) writable or errored.
    pub writable: bool,
}

mod sys {
    //! The epoll syscall bindings, declared directly against the
    //! platform libc (the workspace has no crates.io access, hence no
    //! `libc` crate). No pointer passed to them outlives a call.
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// The kernel's `struct epoll_event`. Packed on x86-64 (the one
    /// ABI where the kernel declares it `__attribute__((packed))`);
    /// natural layout everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        /// The `epoll_data_t` union; this crate only ever stores the
        /// token here, so a plain `u64` covers it.
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

/// Most events decoded per wait call; more ready sources than this
/// simply surface on the next wait (level-triggered, nothing lost).
const MAX_EVENTS: usize = 256;

/// A readiness multiplexer over nonblocking sources.
///
/// Register sources with a caller-chosen `token`; [`Poller::wait`]
/// blocks until at least one registered source is (probably) ready or
/// the timeout elapses, and reports which. See the crate docs for the
/// advisory-readiness contract.
#[derive(Debug)]
pub struct Poller {
    epoll: OwnedFd,
    /// The wake channel's read end, registered under [`WAKE_TOKEN`] and
    /// read empty after every wait a wake ends.
    wake_rx: UnixStream,
    /// The wake channel's write end, shared by every [`Waker`].
    wake_tx: Arc<UnixStream>,
}

/// A cloneable, thread-safe handle that ends a [`Poller::wait`] early
/// (see [`Poller::waker`]).
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    /// End the poller's current `wait`, or its next one if none is in
    /// progress. Never blocks; wakes that arrive before the poller has
    /// drained an earlier one merge into a single early return.
    pub fn wake(&self) {
        // A full socket buffer (`WouldBlock`) means a wake is already
        // pending, which is all this call needs.
        let _ = (&*self.tx).write(&[1]);
    }
}

impl Poller {
    /// Create an epoll instance with the wake channel registered.
    ///
    /// # Errors
    /// Propagates OS errors from creating the epoll instance or the
    /// waker's socket pair, or from registering the pair's read end.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers involved.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh descriptor that nothing else owns.
        let epoll = unsafe { OwnedFd::from_raw_fd(fd) };
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let poller = Self { epoll, wake_rx, wake_tx: Arc::new(wake_tx) };
        poller.ctl(
            sys::EPOLL_CTL_ADD,
            poller.wake_rx.as_raw_fd(),
            Some(encode(WAKE_TOKEN, Interest::READ)),
        )?;
        Ok(poller)
    }

    /// A [`Waker`] for this poller. Every call returns a handle to the
    /// same wake channel.
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker { tx: Arc::clone(&self.wake_tx) }
    }

    /// Start watching `source` for `interest`, reporting it as `token`.
    ///
    /// Tokens should be unique per live registration (events only carry
    /// the token back). Registering the same source twice without a
    /// [`Poller::deregister`] in between is a caller bug, surfaced as an
    /// error.
    ///
    /// # Errors
    /// Propagates OS errors (bad descriptor, duplicate registration).
    pub fn register(
        &mut self,
        source: &impl AsRawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, source.as_raw_fd(), Some(encode(token, interest)))
    }

    /// Change the interest (and/or token) of an already-registered
    /// source.
    ///
    /// # Errors
    /// Propagates OS errors (e.g. the source was never registered).
    pub fn modify(
        &mut self,
        source: &impl AsRawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, source.as_raw_fd(), Some(encode(token, interest)))
    }

    /// Stop watching `source`.
    ///
    /// Call *before* closing the socket: epoll keys on the descriptor,
    /// and a closed descriptor number can be reused by the next accept.
    ///
    /// # Errors
    /// Propagates OS errors (e.g. the source was never registered).
    pub fn deregister(&mut self, source: &impl AsRawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, source.as_raw_fd(), None)
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: RawFd,
        event: Option<sys::EpollEvent>,
    ) -> io::Result<()> {
        let mut event = event;
        let ptr = event.as_mut().map_or(std::ptr::null_mut(), std::ptr::from_mut);
        // SAFETY: `ptr` is null (allowed for DEL) or points at a live,
        // properly laid out `EpollEvent` for the duration of the call;
        // the kernel copies it and keeps no reference.
        let rc = unsafe { sys::epoll_ctl(self.epoll.as_raw_fd(), op, fd, ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block until at least one registered source is (probably) ready
    /// or `timeout` elapses (`None` = no limit). Clears `events` and
    /// fills it with the ready set; returns how many.
    ///
    /// Interrupted waits (`EINTR`) are retried internally with the
    /// remaining budget, so a signal never surfaces as a spurious
    /// empty return.
    ///
    /// # Errors
    /// Propagates OS errors from `epoll_wait`.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let deadline = timeout.map(|t| Instant::now() + t);
        let n = loop {
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            // SAFETY: `buf` is a live array of MAX_EVENTS properly laid
            // out events; the kernel writes at most `maxevents` entries
            // into it during the call.
            let n = unsafe {
                sys::epoll_wait(
                    self.epoll.as_raw_fd(),
                    buf.as_mut_ptr(),
                    MAX_EVENTS as std::os::raw::c_int,
                    timeout_millis(remaining),
                )
            };
            if n >= 0 {
                break n as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            // Retry with the remaining budget; an elapsed deadline turns
            // into a zero-timeout final poll.
        };
        for event in &buf[..n] {
            let (bits, token) = (event.events, event.data as usize);
            if token == WAKE_TOKEN {
                // A wake ended the wait: drain it (so the next wait
                // blocks again) and keep it out of the caller's events.
                self.drain_wakes();
                continue;
            }
            events.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP)
                    != 0,
                writable: bits & (sys::EPOLLOUT | sys::EPOLLERR) != 0,
            });
        }
        Ok(events.len())
    }

    /// Read every pending wake byte.
    fn drain_wakes(&self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(n) if n > 0 => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }
}

fn encode(token: usize, interest: Interest) -> sys::EpollEvent {
    let mut events = 0u32;
    if interest.readable {
        events |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if interest.writable {
        events |= sys::EPOLLOUT;
    }
    sys::EpollEvent { events, data: token as u64 }
}

/// Convert an optional timeout to the millisecond convention of
/// `epoll_wait`: `-1` blocks forever, `0` returns immediately,
/// sub-millisecond waits round **up** so short deadlines never busy-spin.
fn timeout_millis(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis();
            if ms == 0 && !t.is_zero() {
                1
            } else {
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// Wait (re-polling up to `budget`) until an event for `token`
    /// arrives, then return it. Panics when the budget runs out.
    fn wait_for(poller: &mut Poller, token: usize, budget: Duration) -> Event {
        let deadline = Instant::now() + budget;
        let mut events = Vec::new();
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            assert!(!remaining.is_zero(), "no event for token {token} within {budget:?}");
            poller.wait(&mut events, Some(remaining)).unwrap();
            if let Some(&event) = events.iter().find(|e| e.token == token) {
                return event;
            }
        }
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn listener_becomes_readable_when_a_connection_arrives() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register(&listener, 7, Interest::READ).unwrap();

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let event = wait_for(&mut poller, 7, Duration::from_secs(5));
        assert!(event.readable);
        // The advisory contract holds: accept now succeeds.
        assert!(listener.accept().is_ok());
    }

    #[test]
    fn data_in_flight_makes_the_peer_readable_and_idle_sockets_stay_quiet() {
        let mut poller = Poller::new().unwrap();
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        poller.register(&server, 3, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "idle socket must not report readable: {events:?}");

        client.write_all(b"ping\n").unwrap();
        let event = wait_for(&mut poller, 3, Duration::from_secs(5));
        assert!(event.readable);
        let mut buf = [0u8; 16];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping\n");
    }

    #[test]
    fn write_interest_reports_writable_and_modify_switches_it_off() {
        let mut poller = Poller::new().unwrap();
        let (client, _server) = pair();
        client.set_nonblocking(true).unwrap();
        poller.register(&client, 11, Interest::READ_WRITE).unwrap();
        let event = wait_for(&mut poller, 11, Duration::from_secs(5));
        assert!(event.writable, "a fresh stream with buffer space must be writable");

        poller.modify(&client, 11, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(
            events.iter().all(|e| !e.writable),
            "after dropping write interest nothing should report writable: {events:?}"
        );
    }

    #[test]
    fn peer_close_surfaces_as_readable() {
        let mut poller = Poller::new().unwrap();
        let (client, server) = pair();
        server.set_nonblocking(true).unwrap();
        poller.register(&server, 5, Interest::READ).unwrap();
        drop(client);
        let event = wait_for(&mut poller, 5, Duration::from_secs(5));
        assert!(event.readable, "hangup must surface through the readable bit");
        let mut buf = [0u8; 8];
        assert_eq!((&server).read(&mut buf).unwrap(), 0, "and the read observes EOF");
    }

    #[test]
    fn deregistered_sources_report_nothing_and_double_deregister_errors() {
        let mut poller = Poller::new().unwrap();
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        poller.register(&server, 9, Interest::READ).unwrap();
        poller.deregister(&server).unwrap();

        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.iter().all(|e| e.token != 9), "deregistered token must stay silent");

        assert!(poller.deregister(&server).is_err(), "double deregister is a caller bug");
    }

    #[test]
    fn empty_wait_honors_its_timeout() {
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        let n = poller.wait(&mut events, Some(Duration::from_millis(60))).unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(40), "wait returned too early");
    }

    #[test]
    fn timeout_millis_blocks_on_none_and_rounds_sub_millisecond_waits_up() {
        assert_eq!(timeout_millis(None), -1);
        assert_eq!(timeout_millis(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_millis(Some(Duration::from_micros(1))), 1);
        assert_eq!(timeout_millis(Some(Duration::from_micros(999))), 1);
        assert_eq!(timeout_millis(Some(Duration::from_millis(25))), 25);
        let beyond = Duration::from_millis(u64::try_from(i32::MAX).unwrap() + 1);
        assert_eq!(timeout_millis(Some(beyond)), i32::MAX);
    }

    #[test]
    fn a_wake_from_another_thread_ends_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        // The sleep only makes a wake *during* the wait likely; a wake
        // that lands first must end the wait just the same.
        let waking = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_secs(30))).unwrap();
        assert!(start.elapsed() < Duration::from_secs(10), "the wake did not end the wait");
        assert_eq!(n, 0, "the wake itself is not an event: {events:?}");
        waking.join().unwrap();
    }

    #[test]
    fn a_wake_before_the_wait_ends_the_next_wait_once() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        // Every handle shares one channel; a burst of wakes (more than
        // the socket buffer holds) merges into one early return.
        let clone = poller.waker();
        for _ in 0..100_000 {
            waker.wake();
            clone.wake();
        }
        let mut events = Vec::new();
        let start = Instant::now();
        poller.wait(&mut events, Some(Duration::from_secs(30))).unwrap();
        assert!(start.elapsed() < Duration::from_secs(10), "a pending wake must end the wait");
        assert!(events.is_empty());
        let start = Instant::now();
        poller.wait(&mut events, Some(Duration::from_millis(60))).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(40), "the wake was not drained");
    }

    #[test]
    fn wakes_do_not_hide_socket_events() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        poller.register(&server, 4, Interest::READ).unwrap();
        client.write_all(b"x").unwrap();
        waker.wake();
        let event = wait_for(&mut poller, 4, Duration::from_secs(5));
        assert!(event.readable);
    }
}
