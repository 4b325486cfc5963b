//! Serving transports: TCP, Unix-domain sockets, and an in-process pipe.
//!
//! The daemon listens and clients dial in: the listener's address is the
//! only thing a client ever needs to know. All three transports carry the identical newline-delimited
//! frames; the in-process pipe exists so tests and the `serve-load`
//! experiment can drive a daemon with no socket (or port) at all, while
//! still crossing a real byte boundary.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

/// Where a daemon listens (or listened — [`ServeAddr`] is also the
/// resolved form handed back once an ephemeral port is bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// TCP, `host:port` (port `0` binds ephemeral).
    Tcp(String),
    /// Unix-domain socket at a filesystem path.
    #[cfg(unix)]
    Uds(PathBuf),
    /// In-process byte pipes; reachable only through
    /// [`ServerHandle::connect`](crate::server::ServerHandle::connect).
    InProc,
}

impl ServeAddr {
    /// Parses `tcp:host:port`, bare `host:port`, `uds:/path`, or
    /// `inproc`.
    ///
    /// # Errors
    ///
    /// A description of the accepted forms.
    pub fn parse(s: &str) -> Result<ServeAddr, String> {
        if s == "inproc" {
            return Ok(ServeAddr::InProc);
        }
        if let Some(path) = s.strip_prefix("uds:") {
            #[cfg(unix)]
            return Ok(ServeAddr::Uds(PathBuf::from(path)));
            #[cfg(not(unix))]
            return Err(format!("uds addresses are unix-only: {path:?}"));
        }
        let hostport = s.strip_prefix("tcp:").unwrap_or(s);
        if hostport
            .rsplit_once(':')
            .is_some_and(|(h, p)| !h.is_empty() && p.parse::<u16>().is_ok())
        {
            Ok(ServeAddr::Tcp(hostport.to_string()))
        } else {
            Err(format!(
                "expected tcp:host:port, host:port, uds:/path, or inproc, got {s:?}"
            ))
        }
    }
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Tcp(hp) => write!(f, "tcp:{hp}"),
            #[cfg(unix)]
            ServeAddr::Uds(p) => write!(f, "uds:{}", p.display()),
            ServeAddr::InProc => f.write_str("inproc"),
        }
    }
}

/// One client connection, as owned read/write halves.
pub struct Duplex {
    /// Bytes from the peer.
    pub reader: Box<dyn Read + Send>,
    /// Bytes to the peer.
    pub writer: Box<dyn Write + Send>,
}

impl Duplex {
    fn from_tcp(stream: TcpStream) -> io::Result<Duplex> {
        stream.set_nodelay(true)?;
        Ok(Duplex {
            reader: Box::new(stream.try_clone()?),
            writer: Box::new(stream),
        })
    }

    #[cfg(unix)]
    fn from_uds(stream: UnixStream) -> io::Result<Duplex> {
        Ok(Duplex {
            reader: Box::new(stream.try_clone()?),
            writer: Box::new(stream),
        })
    }
}

/// Dials a listening daemon. Retries briefly (the caller may have raced
/// the daemon's bind). In-process daemons cannot be dialed by address —
/// use [`ServerHandle::connect`](crate::server::ServerHandle::connect).
///
/// # Errors
///
/// The last connect failure after the retry window.
pub fn dial(addr: &ServeAddr) -> io::Result<Duplex> {
    match addr {
        ServeAddr::Tcp(hp) => Duplex::from_tcp(retry(|| TcpStream::connect(hp.as_str()))?),
        #[cfg(unix)]
        ServeAddr::Uds(path) => Duplex::from_uds(retry(|| UnixStream::connect(path))?),
        ServeAddr::InProc => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "in-process daemons are dialed through ServerHandle::connect",
        )),
    }
}

fn retry<S>(mut connect: impl FnMut() -> io::Result<S>) -> io::Result<S> {
    let mut last = None;
    for _ in 0..40 {
        match connect() {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("connect never attempted")))
}

/// Hands new in-process connections to a listening daemon.
#[derive(Clone)]
pub struct InProcConnector {
    tx: mpsc::Sender<Duplex>,
}

impl InProcConnector {
    /// Opens a connection: two byte pipes crossed into a [`Duplex`] per
    /// side, the server side delivered to the daemon's acceptor.
    ///
    /// # Errors
    ///
    /// `BrokenPipe` when the daemon has stopped accepting.
    pub fn connect(&self) -> io::Result<Duplex> {
        let (c2s_w, c2s_r) = pipe();
        let (s2c_w, s2c_r) = pipe();
        let server_side = Duplex {
            reader: Box::new(c2s_r),
            writer: Box::new(s2c_w),
        };
        self.tx
            .send(server_side)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "daemon stopped accepting"))?;
        Ok(Duplex {
            reader: Box::new(s2c_r),
            writer: Box::new(c2s_w),
        })
    }
}

/// The daemon's listening end, all transports unified behind a polling
/// accept.
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds {
        listener: UnixListener,
        /// Held so the socket path is unlinked when the daemon stops.
        _guard: UnlinkGuard,
    },
    InProc(mpsc::Receiver<Duplex>),
}

impl Listener {
    /// Binds `addr`. Returns the listener, the *resolved* address
    /// (ephemeral TCP ports materialized), and — for in-process daemons —
    /// the connector clients use.
    pub(crate) fn bind(
        addr: &ServeAddr,
    ) -> io::Result<(Listener, ServeAddr, Option<InProcConnector>)> {
        match addr {
            ServeAddr::Tcp(hp) => {
                let listener = TcpListener::bind(hp.as_str())?;
                let resolved = ServeAddr::Tcp(listener.local_addr()?.to_string());
                listener.set_nonblocking(true)?;
                Ok((Listener::Tcp(listener), resolved, None))
            }
            #[cfg(unix)]
            ServeAddr::Uds(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Ok((
                    Listener::Uds {
                        listener,
                        _guard: UnlinkGuard(path.clone()),
                    },
                    ServeAddr::Uds(path.clone()),
                    None,
                ))
            }
            ServeAddr::InProc => {
                let (tx, rx) = mpsc::channel();
                Ok((
                    Listener::InProc(rx),
                    ServeAddr::InProc,
                    Some(InProcConnector { tx }),
                ))
            }
        }
    }

    /// One nonblocking accept poll: `Some` on a new connection, `None`
    /// when nothing is waiting (including a hung-up in-process
    /// connector — the stop flag, not the listener, ends the acceptor).
    pub(crate) fn poll_accept(&self) -> io::Result<Option<Duplex>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    Duplex::from_tcp(stream).map(Some)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            Listener::Uds { listener: l, .. } => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    Duplex::from_uds(stream).map(Some)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::InProc(rx) => match rx.try_recv() {
                Ok(d) => Ok(Some(d)),
                Err(_) => Ok(None),
            },
        }
    }
}

/// Removes a Unix socket path on drop, so failed starts and clean
/// shutdowns both leave the filesystem as they found it.
#[cfg(unix)]
pub(crate) struct UnlinkGuard(PathBuf);

#[cfg(unix)]
impl Drop for UnlinkGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Sending half of an in-process byte pipe.
struct PipeWriter {
    tx: mpsc::Sender<Vec<u8>>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe peer gone"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Receiving half of an in-process byte pipe: blocking reads, `Ok(0)` on
/// hangup — exactly a socket's shape.
struct PipeReader {
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn pipe() -> (PipeWriter, PipeReader) {
    let (tx, rx) = mpsc::channel();
    (
        PipeWriter { tx },
        PipeReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn addr_parsing_covers_every_form() {
        assert_eq!(
            ServeAddr::parse("tcp:127.0.0.1:7401").unwrap(),
            ServeAddr::Tcp("127.0.0.1:7401".to_string())
        );
        assert_eq!(
            ServeAddr::parse("127.0.0.1:0").unwrap(),
            ServeAddr::Tcp("127.0.0.1:0".to_string())
        );
        #[cfg(unix)]
        assert_eq!(
            ServeAddr::parse("uds:/tmp/deco.sock").unwrap(),
            ServeAddr::Uds(PathBuf::from("/tmp/deco.sock"))
        );
        assert_eq!(ServeAddr::parse("inproc").unwrap(), ServeAddr::InProc);
        for bad in ["", "nonsense", "tcp:nohost", "host:notaport"] {
            assert!(ServeAddr::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Display round-trips.
        for addr in ["tcp:127.0.0.1:7401", "inproc"] {
            assert_eq!(ServeAddr::parse(addr).unwrap().to_string(), addr);
        }
    }

    #[test]
    fn in_process_pipes_carry_lines_and_signal_hangup() {
        let (mut w, r) = pipe();
        w.write_all(b"hello\nworld\n").unwrap();
        drop(w);
        let mut lines = BufReader::new(r).lines();
        assert_eq!(lines.next().unwrap().unwrap(), "hello");
        assert_eq!(lines.next().unwrap().unwrap(), "world");
        assert!(lines.next().is_none(), "hangup reads as EOF");
    }
}
