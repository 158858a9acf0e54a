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
//! every unsafe operation (the readiness-API FFI) behind one safe type.
//! Three backends, picked automatically by [`Poller::new`]:
//!
//! - **epoll** (Linux, `os-poll` feature, on by default) — raw
//!   `epoll_create1`/`epoll_ctl`/`epoll_wait`, level-triggered.
//! - **poll** (other unix targets, `os-poll` feature) — `poll(2)` over
//!   the registered descriptor set; O(n) per wait but fully portable
//!   across unix.
//! - **tick** (everything else, or `--no-default-features`) — a timed
//!   tick that reports every registered source as maybe-ready.
//!
//! ## Waking a wait from another thread
//!
//! [`Poller::waker`] hands out a cloneable [`Waker`]. Any thread may
//! call [`Waker::wake`]; the poller's current `wait` (or its next one,
//! if none is in progress) then returns early, reporting no event for
//! the wake itself. On the OS backends the waker is a nonblocking
//! `UnixStream` pair whose read end is registered under the reserved
//! token [`WAKE_TOKEN`] and drained inside `wait`, so a burst of wakes
//! costs one early return. The tick backend needs no waker: while any
//! source is registered, its waits already end every 5 ms.
//!
//! ## Readiness is advisory
//!
//! All three backends share one contract: an [`Event`] means *try the
//! operation now*, not *the operation will succeed*. Sockets must be
//! nonblocking and callers must treat [`std::io::ErrorKind::WouldBlock`]
//! as "not ready after all". Level-triggered OS backends only make
//! spurious wakeups rare; the tick backend makes them universal. Code
//! written against this contract runs identically (if less efficiently)
//! on all three.

use std::io;
use std::time::Duration;

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
    /// Writable only.
    pub const WRITE: Self = Self { readable: false, writable: true };
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

/// The OS-level identity of a pollable source.
///
/// On unix this is the raw file descriptor; on other targets there is
/// no descriptor to speak of and the tick backend keys registrations by
/// token alone, so the identity is an ignored placeholder.
#[cfg(unix)]
pub type RawSource = std::os::unix::io::RawFd;
/// The OS-level identity of a pollable source (non-unix placeholder).
#[cfg(not(unix))]
pub type RawSource = usize;

/// Something the poller can watch. On unix every `AsRawFd` type (e.g.
/// `TcpListener`, `TcpStream`) is a source; elsewhere the identity is
/// irrelevant (the tick backend keys by token) and the common socket
/// types are covered explicitly so callers compile unchanged.
pub trait Pollable {
    /// The backend-level identity to register.
    fn raw_source(&self) -> RawSource;
}

#[cfg(unix)]
impl<T: std::os::unix::io::AsRawFd> Pollable for T {
    fn raw_source(&self) -> RawSource {
        self.as_raw_fd()
    }
}

#[cfg(not(unix))]
impl Pollable for std::net::TcpListener {
    fn raw_source(&self) -> RawSource {
        0
    }
}

#[cfg(not(unix))]
impl Pollable for std::net::TcpStream {
    fn raw_source(&self) -> RawSource {
        0
    }
}

/// How long one tick-backend wait sleeps before reporting everything
/// maybe-ready (also the cap on an unbounded tick wait, so `None`
/// timeouts cannot hang a backend that has no kernel queue to block on).
const TICK: Duration = Duration::from_millis(5);

/// A readiness multiplexer over nonblocking sources.
///
/// Register sources with a caller-chosen `token`; [`Poller::wait`]
/// blocks until at least one registered source is (probably) ready or
/// the timeout elapses, and reports which. See the crate docs for the
/// advisory-readiness contract and backend selection.
#[derive(Debug)]
pub struct Poller {
    inner: Inner,
    /// The waker's socket pair, created by the first [`Poller::waker`]
    /// call on an OS backend.
    #[cfg(all(unix, feature = "os-poll"))]
    wake: Option<wake::WakePair>,
}

/// A cloneable, thread-safe handle that ends a [`Poller::wait`] early
/// (see [`Poller::waker`]). On the tick backend it does nothing: a tick
/// wait with any source registered ends within 5 ms anyway.
#[derive(Debug, Clone, Default)]
pub struct Waker {
    #[cfg(all(unix, feature = "os-poll"))]
    tx: Option<std::sync::Arc<std::os::unix::net::UnixStream>>,
}

impl Waker {
    /// End the poller's current `wait`, or its next one if none is in
    /// progress. Never blocks; wakes that arrive before the poller has
    /// drained an earlier one merge into a single early return.
    pub fn wake(&self) {
        #[cfg(all(unix, feature = "os-poll"))]
        if let Some(tx) = &self.tx {
            use std::io::Write as _;
            // A full socket buffer (`WouldBlock`) means a wake is already
            // pending, which is all this call needs.
            let _ = (&**tx).write(&[1]);
        }
    }
}

#[derive(Debug)]
enum Inner {
    #[cfg(all(target_os = "linux", feature = "os-poll"))]
    Epoll(epoll::Epoll),
    #[cfg(all(unix, not(target_os = "linux"), feature = "os-poll"))]
    Poll(pollset::PollSet),
    Tick(TickPoller),
}

impl Poller {
    /// Create a poller on the best backend this target supports.
    ///
    /// # Errors
    /// Propagates OS errors from creating the kernel readiness queue
    /// (epoll backend only; the others cannot fail).
    pub fn new() -> io::Result<Self> {
        #[cfg(all(target_os = "linux", feature = "os-poll"))]
        {
            return Ok(Self::with(Inner::Epoll(epoll::Epoll::new()?)));
        }
        #[cfg(all(unix, not(target_os = "linux"), feature = "os-poll"))]
        {
            return Ok(Self::with(Inner::Poll(pollset::PollSet::new())));
        }
        #[allow(unreachable_code)]
        Ok(Self::tick())
    }

    /// Create a poller on the portable tick backend regardless of
    /// target — every registered source is reported maybe-ready each
    /// tick (5 ms). Exists so the fallback path stays testable on
    /// targets that would normally pick an OS backend.
    #[must_use]
    pub fn tick() -> Self {
        Self::with(Inner::Tick(TickPoller::default()))
    }

    fn with(inner: Inner) -> Self {
        Self {
            inner,
            #[cfg(all(unix, feature = "os-poll"))]
            wake: None,
        }
    }

    /// A [`Waker`] for this poller. Every call returns a handle to the
    /// same wake channel, created and registered (under [`WAKE_TOKEN`])
    /// by the first call on an OS backend; on the tick backend the
    /// handle does nothing.
    ///
    /// # Errors
    /// Propagates OS errors from creating or registering the socket pair.
    pub fn waker(&mut self) -> io::Result<Waker> {
        #[cfg(all(unix, feature = "os-poll"))]
        if !matches!(self.inner, Inner::Tick(_)) {
            if self.wake.is_none() {
                let pair = wake::WakePair::new()?;
                self.register(&pair.rx, WAKE_TOKEN, Interest::READ)?;
                self.wake = Some(pair);
            }
            let tx = self.wake.as_ref().map(|pair| std::sync::Arc::clone(&pair.tx));
            return Ok(Waker { tx });
        }
        Ok(Waker::default())
    }

    /// Which backend this poller runs on: `"epoll"`, `"poll"`, or
    /// `"tick"`.
    #[must_use]
    pub fn backend(&self) -> &'static str {
        match &self.inner {
            #[cfg(all(target_os = "linux", feature = "os-poll"))]
            Inner::Epoll(_) => "epoll",
            #[cfg(all(unix, not(target_os = "linux"), feature = "os-poll"))]
            Inner::Poll(_) => "poll",
            Inner::Tick(_) => "tick",
        }
    }

    /// Start watching `source` for `interest`, reporting it as `token`.
    ///
    /// Tokens should be unique per live registration (events only carry
    /// the token back). Registering the same source twice without a
    /// [`Poller::deregister`] in between is a caller bug; the OS
    /// backends surface it as an error.
    ///
    /// # Errors
    /// Propagates OS errors (bad descriptor, duplicate registration).
    pub fn register(
        &mut self,
        source: &impl Pollable,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        match &mut self.inner {
            #[cfg(all(target_os = "linux", feature = "os-poll"))]
            Inner::Epoll(e) => e.register(source.raw_source(), token, interest),
            #[cfg(all(unix, not(target_os = "linux"), feature = "os-poll"))]
            Inner::Poll(p) => p.register(source.raw_source(), token, interest),
            Inner::Tick(t) => t.register(token, interest),
        }
    }

    /// Change the interest (and/or token) of an already-registered
    /// source.
    ///
    /// # Errors
    /// Propagates OS errors (e.g. the source was never registered).
    pub fn modify(
        &mut self,
        source: &impl Pollable,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        match &mut self.inner {
            #[cfg(all(target_os = "linux", feature = "os-poll"))]
            Inner::Epoll(e) => e.modify(source.raw_source(), token, interest),
            #[cfg(all(unix, not(target_os = "linux"), feature = "os-poll"))]
            Inner::Poll(p) => p.modify(source.raw_source(), token, interest),
            Inner::Tick(t) => t.register(token, interest),
        }
    }

    /// Stop watching `source` (registered as `token`).
    ///
    /// Call *before* closing the socket: the OS backends key on the
    /// descriptor, and a closed descriptor number can be reused by the
    /// next accept.
    ///
    /// # Errors
    /// Propagates OS errors (e.g. the source was never registered).
    pub fn deregister(&mut self, source: &impl Pollable, token: usize) -> io::Result<()> {
        match &mut self.inner {
            #[cfg(all(target_os = "linux", feature = "os-poll"))]
            Inner::Epoll(e) => e.deregister(source.raw_source(), token),
            #[cfg(all(unix, not(target_os = "linux"), feature = "os-poll"))]
            Inner::Poll(p) => p.deregister(source.raw_source(), token),
            Inner::Tick(t) => t.deregister(token),
        }
    }

    /// Block until at least one registered source is (probably) ready
    /// or `timeout` elapses (`None` = no limit on the OS backends, one
    /// 5 ms tick on the tick backend). Clears `events` and fills it
    /// with the ready set; returns how many.
    ///
    /// Interrupted waits (`EINTR`) are retried internally with the
    /// remaining budget, so a signal never surfaces as a spurious
    /// empty return.
    ///
    /// # Errors
    /// Propagates OS errors from the underlying wait call.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        match &mut self.inner {
            #[cfg(all(target_os = "linux", feature = "os-poll"))]
            Inner::Epoll(e) => e.wait(events, timeout)?,
            #[cfg(all(unix, not(target_os = "linux"), feature = "os-poll"))]
            Inner::Poll(p) => p.wait(events, timeout)?,
            Inner::Tick(t) => {
                t.wait(events, timeout);
                return Ok(events.len());
            }
        };
        // A wake ended the wait: drain it (so the next wait blocks again)
        // and keep it out of the caller's events.
        #[cfg(all(unix, feature = "os-poll"))]
        if let Some(at) = events.iter().position(|e| e.token == WAKE_TOKEN) {
            events.remove(at);
            if let Some(pair) = &self.wake {
                pair.drain();
            }
        }
        Ok(events.len())
    }
}

#[cfg(all(unix, feature = "os-poll"))]
mod wake {
    //! The OS backends' wake channel: a nonblocking `UnixStream` pair.
    //! Wakers write one byte to `tx`; the poller watches `rx` and reads
    //! it empty after every wait it ends.

    use std::io::{self, Read as _};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    #[derive(Debug)]
    pub struct WakePair {
        pub rx: UnixStream,
        pub tx: Arc<UnixStream>,
    }

    impl WakePair {
        pub fn new() -> io::Result<Self> {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(Self { rx, tx: Arc::new(tx) })
        }

        /// Read every pending wake byte.
        pub fn drain(&self) {
            let mut buf = [0u8; 256];
            loop {
                match (&self.rx).read(&mut buf) {
                    Ok(n) if n > 0 => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    _ => return,
                }
            }
        }
    }
}

/// The portable fallback: no kernel queue, just a bounded sleep and a
/// report that everything registered is maybe-ready. Correct under the
/// advisory-readiness contract (callers retry and observe
/// `WouldBlock`), merely less efficient.
#[derive(Debug, Default)]
struct TickPoller {
    registered: std::collections::BTreeMap<usize, Interest>,
}

impl TickPoller {
    fn register(&mut self, token: usize, interest: Interest) -> io::Result<()> {
        self.registered.insert(token, interest);
        Ok(())
    }

    fn deregister(&mut self, token: usize) -> io::Result<()> {
        if self.registered.remove(&token).is_none() {
            return Err(io::Error::new(io::ErrorKind::NotFound, "token was not registered"));
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) {
        if self.registered.is_empty() {
            // Nothing can become ready mid-wait (`&mut self` excludes
            // concurrent registration), so honor the full timeout.
            std::thread::sleep(timeout.unwrap_or(TICK));
            return;
        }
        std::thread::sleep(timeout.unwrap_or(TICK).min(TICK));
        events.extend(self.registered.iter().map(|(&token, &interest)| Event {
            token,
            readable: interest.readable,
            writable: interest.writable,
        }));
    }
}

/// Convert an optional timeout to the millisecond convention of
/// `epoll_wait`/`poll`: `-1` blocks forever, `0` returns immediately,
/// sub-millisecond waits round **up** so short deadlines never busy-spin.
#[cfg(all(unix, feature = "os-poll"))]
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

#[cfg(all(target_os = "linux", feature = "os-poll"))]
mod epoll {
    //! Raw level-triggered epoll. All `unsafe` in this module is plain
    //! FFI onto the epoll syscall wrappers; no pointers outlive a call.

    use super::{timeout_millis, Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    mod sys {
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
            pub fn close(fd: c_int) -> c_int;
        }
    }

    /// Most events decoded per wait call; more ready sources than this
    /// simply surface on the next wait (level-triggered, nothing lost).
    const MAX_EVENTS: usize = 256;

    #[derive(Debug)]
    pub struct Epoll {
        epfd: RawFd,
    }

    impl Epoll {
        pub fn new() -> io::Result<Self> {
            // SAFETY: plain syscall, no pointers involved.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        fn ctl(
            &self,
            op: std::os::raw::c_int,
            fd: RawFd,
            event: Option<sys::EpollEvent>,
        ) -> io::Result<()> {
            let mut event = event;
            let ptr = event.as_mut().map_or(std::ptr::null_mut(), std::ptr::from_mut);
            // SAFETY: `ptr` is null (allowed for DEL) or points at a
            // live, properly laid out `EpollEvent` for the duration of
            // the call; the kernel copies it and keeps no reference.
            let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, ptr) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, Some(encode(token, interest)))
        }

        pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, Some(encode(token, interest)))
        }

        pub fn deregister(&mut self, fd: RawFd, _token: usize) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, None)
        }

        pub fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let mut buf = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let deadline = timeout.map(|t| std::time::Instant::now() + t);
            loop {
                let remaining =
                    deadline.map(|d| d.saturating_duration_since(std::time::Instant::now()));
                // SAFETY: `buf` is a live array of MAX_EVENTS properly
                // laid out events; the kernel writes at most
                // `maxevents` entries into it during the call.
                let n = unsafe {
                    sys::epoll_wait(
                        self.epfd,
                        buf.as_mut_ptr(),
                        MAX_EVENTS as std::os::raw::c_int,
                        timeout_millis(remaining),
                    )
                };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        // Retry with the remaining budget; an elapsed
                        // deadline turns into a zero-timeout final poll.
                        continue;
                    }
                    return Err(err);
                }
                for event in &buf[..n as usize] {
                    let bits = event.events;
                    out.push(Event {
                        token: event.data as usize,
                        readable: bits
                            & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP)
                            != 0,
                        writable: bits & (sys::EPOLLOUT | sys::EPOLLERR) != 0,
                    });
                }
                return Ok(out.len());
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `epfd` is a descriptor this struct owns exclusively.
            let _ = unsafe { sys::close(self.epfd) };
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
}

#[cfg(all(unix, not(target_os = "linux"), feature = "os-poll"))]
mod pollset {
    //! Portable unix fallback over `poll(2)`: the registration list
    //! lives in userspace and every wait rebuilds the `pollfd` array —
    //! O(n) per wait, which is fine at daemon scale and runs on any
    //! unix. All `unsafe` is the single `poll` FFI call.

    use super::{timeout_millis, Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    mod sys {
        use std::os::raw::{c_int, c_short, c_uint};

        pub const POLLIN: c_short = 0x001;
        pub const POLLOUT: c_short = 0x004;
        pub const POLLERR: c_short = 0x008;
        pub const POLLHUP: c_short = 0x010;

        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            pub fd: c_int,
            pub events: c_short,
            pub revents: c_short,
        }

        extern "C" {
            // `nfds_t` is `unsigned int` on the non-Linux unix targets
            // this backend serves (macOS and the BSDs).
            pub fn poll(fds: *mut PollFd, nfds: c_uint, timeout: c_int) -> c_int;
        }
    }

    #[derive(Debug, Default)]
    pub struct PollSet {
        entries: Vec<(RawFd, usize, Interest)>,
    }

    impl PollSet {
        pub fn new() -> Self {
            Self::default()
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            if self.entries.iter().any(|&(f, _, _)| f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "descriptor already registered",
                ));
            }
            self.entries.push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            for entry in &mut self.entries {
                if entry.0 == fd {
                    *entry = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "descriptor was not registered"))
        }

        pub fn deregister(&mut self, fd: RawFd, _token: usize) -> io::Result<()> {
            let before = self.entries.len();
            self.entries.retain(|&(f, _, _)| f != fd);
            if self.entries.len() == before {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "descriptor was not registered",
                ));
            }
            Ok(())
        }

        pub fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let mut fds: Vec<sys::PollFd> = self
                .entries
                .iter()
                .map(|&(fd, _, interest)| sys::PollFd {
                    fd,
                    events: (if interest.readable { sys::POLLIN } else { 0 })
                        | (if interest.writable { sys::POLLOUT } else { 0 }),
                    revents: 0,
                })
                .collect();
            let deadline = timeout.map(|t| std::time::Instant::now() + t);
            loop {
                let remaining =
                    deadline.map(|d| d.saturating_duration_since(std::time::Instant::now()));
                // SAFETY: `fds` is a live, properly laid out array of
                // `nfds` pollfd entries for the duration of the call.
                let n = unsafe {
                    sys::poll(
                        fds.as_mut_ptr(),
                        fds.len() as std::os::raw::c_uint,
                        timeout_millis(remaining),
                    )
                };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(err);
                }
                for (pollfd, &(_, token, _)) in fds.iter().zip(&self.entries) {
                    let bits = pollfd.revents;
                    if bits == 0 {
                        continue;
                    }
                    out.push(Event {
                        token,
                        readable: bits & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0,
                        writable: bits & (sys::POLLOUT | sys::POLLERR) != 0,
                    });
                }
                return Ok(out.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

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

        // Idle: nothing readable yet (OS backends only; the tick
        // backend is spurious by design).
        if poller.backend() != "tick" {
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
            assert!(events.is_empty(), "idle socket must not report readable: {events:?}");
        }

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
        if poller.backend() != "tick" {
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
            assert!(
                events.iter().all(|e| !e.writable),
                "after dropping write interest nothing should report writable: {events:?}"
            );
        }
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
        poller.deregister(&server, 9).unwrap();

        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.iter().all(|e| e.token != 9), "deregistered token must stay silent");

        assert!(poller.deregister(&server, 9).is_err(), "double deregister is a caller bug");
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
    fn a_wake_from_another_thread_ends_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        if poller.backend() == "tick" {
            return; // no wake channel: waits end on the 5 ms tick instead
        }
        let waker = poller.waker().unwrap();
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
        if poller.backend() == "tick" {
            return; // no wake channel: waits end on the 5 ms tick instead
        }
        let waker = poller.waker().unwrap();
        // Every handle shares one channel; a burst of wakes (more than
        // the socket buffer holds) merges into one early return.
        let clone = poller.waker().unwrap();
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
        let waker = poller.waker().unwrap();
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        poller.register(&server, 4, Interest::READ).unwrap();
        client.write_all(b"x").unwrap();
        waker.wake();
        let event = wait_for(&mut poller, 4, Duration::from_secs(5));
        assert!(event.readable);
    }

    #[test]
    fn the_tick_backend_waker_is_a_harmless_no_op() {
        fn send_sync<T: Send + Sync + Clone>(_: &T) {}
        let mut poller = Poller::tick();
        let waker = poller.waker().unwrap();
        send_sync(&waker);
        waker.wake();
        let mut events = Vec::new();
        let start = Instant::now();
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.is_empty());
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn tick_backend_reports_every_registration_as_maybe_ready() {
        let mut poller = Poller::tick();
        assert_eq!(poller.backend(), "tick");
        let (client, server) = pair();
        poller.register(&client, 1, Interest::READ).unwrap();
        poller.register(&server, 2, Interest::READ_WRITE).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], Event { token: 1, readable: true, writable: false });
        assert_eq!(events[1], Event { token: 2, readable: true, writable: true });
        poller.deregister(&client, 1).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(events.len(), 1);
    }
}
