//! Linux readiness primitives — `epoll(7)` and `poll(2)` — declared
//! against the libc that std already links.
//!
//! This is the only module of `mix-serve` allowed to use `unsafe`:
//! every foreign call is wrapped in a safe function here, and every
//! unsafe block carries a `// SAFETY:` argument (enforced by the lint
//! below under `clippy -D warnings`).

#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(not(target_os = "linux"))]
compile_error!("mix-serve's poller is epoll-based and builds only on Linux");

use std::io;
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// Readable (or a pending connection on a listener).
pub const EPOLLIN: u32 = 0x001;
/// An error condition; always reported, even when not requested.
pub const EPOLLERR: u32 = 0x008;
/// Hang-up; always reported, even when not requested.
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const POLLOUT: c_short = 0x004;

/// One readiness report: the ready event bits and the token the file
/// descriptor was registered with. The kernel ABI packs it on x86_64.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// The ready event bits (`EPOLLIN`, `EPOLLHUP`, ...).
    pub fn events(&self) -> u32 {
        self.events
    }

    /// The token given at registration.
    pub fn token(&self) -> u64 {
        self.data
    }
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

fn cvt(rc: c_int) -> io::Result<c_int> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

/// A timeout in whole milliseconds, rounded *up* so a caller waiting
/// for a deadline never wakes just before it and spins; `None` blocks.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_nanos().div_ceil(1_000_000);
            ms.min(c_int::MAX as u128) as c_int
        }
    }
}

/// An owned epoll instance (level-triggered registrations).
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// A fresh, close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall wrapper; no pointers are passed.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly laid out `epoll_event` for
        // the duration of the call (the kernel only reads it, and
        // ignores it for `EPOLL_CTL_DEL`).
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Watch `fd` for `events`, reporting it under `token`.
    pub fn add(&self, fd: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), events, token)
    }

    /// Change the watched events of a registered `fd` (`0` disarms it;
    /// `EPOLLERR`/`EPOLLHUP` are still reported).
    pub fn modify(&self, fd: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), events, token)
    }

    /// Stop watching `fd`.
    pub fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Block until at least one registered descriptor is ready or
    /// `timeout` passes (`None` = no timeout), and return the reports
    /// written into `buf`. A signal interruption reports none.
    pub fn wait<'a>(
        &self,
        buf: &'a mut [EpollEvent],
        timeout: Option<Duration>,
    ) -> io::Result<&'a [EpollEvent]> {
        let max = buf.len().min(c_int::MAX as usize) as c_int;
        // SAFETY: `buf` is valid for writes of `max` entries, and the
        // kernel writes at most `max` of them.
        let rc = unsafe { epoll_wait(self.fd, buf.as_mut_ptr(), max, timeout_ms(timeout)) };
        match cvt(rc) {
            Ok(n) => Ok(&buf[..n as usize]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(&buf[..0]),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is an epoll descriptor this value owns
        // exclusively; it is closed exactly once, here.
        unsafe {
            close(self.fd);
        }
    }
}

/// Wait until `fd` can take more bytes (or has an error to report),
/// for at most `timeout`. `Ok(false)` means the timeout expired.
pub fn wait_writable(fd: &impl AsRawFd, timeout: Duration) -> io::Result<bool> {
    let deadline = Instant::now() + timeout;
    loop {
        let mut pfd = PollFd {
            fd: fd.as_raw_fd(),
            events: POLLOUT,
            revents: 0,
        };
        let left = deadline.saturating_duration_since(Instant::now());
        // SAFETY: `pfd` is one live, correctly laid out `pollfd`, and
        // `nfds` is 1.
        match cvt(unsafe { poll(&mut pfd, 1, timeout_ms(Some(left))) }) {
            Ok(0) => return Ok(false),
            Ok(_) => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}
