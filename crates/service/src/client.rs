//! A blocking client for the daemon protocol — used by
//! `examples/attack_service.rs`, the wire benchmarks, and the parity
//! tests.
//!
//! By default every call blocks until the daemon answers. A client
//! talking to an untrusted or flaky daemon should set
//! [`ClientTimeouts`]: a bounded connect ([`ServiceClient::connect_with`])
//! and a bounded per-response read ([`ServiceClient::set_read_timeout`]),
//! both surfacing as the typed [`ServiceError::Timeout`] instead of a
//! hang.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use dehealth_corpus::Forum;

use crate::frame::{encode_add_users_frame, encode_attack_frame};
use crate::json::Json;
use crate::protocol::{forum_to_json, AttackOptions};

/// How this client puts bulk requests (`attack`,
/// `add_auxiliary_users`) on the wire. Control commands and every
/// response stay newline-JSON either way; the daemon detects the
/// encoding per message, so one connection may switch freely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WireEncoding {
    /// Legacy newline-delimited JSON for everything (the default).
    #[default]
    Json,
    /// Length-prefixed, checksummed binary frames
    /// ([`frame`](crate::frame)) for bulk payloads — the forum body
    /// travels in the snapshot codec's byte layout, which decodes
    /// without tokenizing text. Post text dominates either encoding, so
    /// a frame is only slightly smaller than the JSON line (0.25% on the
    /// 600-user benchmark request).
    Binary,
}

/// Client-side failure.
#[derive(Debug)]
pub enum ServiceError {
    /// Socket failure.
    Io(std::io::Error),
    /// The server's bytes did not parse as a protocol response.
    Protocol(String),
    /// The server answered with `"ok": false`.
    Remote(String),
    /// A configured client-side timeout elapsed (the bound that was
    /// exceeded) before the daemon connected or answered.
    Timeout(Duration),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "service I/O error: {e}"),
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::Remote(m) => write!(f, "server error: {m}"),
            ServiceError::Timeout(after) => {
                write!(f, "timed out after {:.3}s waiting for the daemon", after.as_secs_f64())
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// Client-side deadlines. `None` (the default for both) blocks
/// indefinitely — the right call against a trusted local daemon, a
/// footgun against anything else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientTimeouts {
    /// Bound on establishing the TCP connection.
    pub connect: Option<Duration>,
    /// Bound on waiting for each response line.
    pub read: Option<Duration>,
}

/// The parsed result of a wire `attack`.
#[derive(Debug, Clone)]
pub struct AttackReply {
    /// Refined-DA decision per anonymized user (`None` = `u → ⊥`).
    pub mapping: Vec<Option<usize>>,
    /// Final candidate set per anonymized user.
    pub candidates: Vec<Vec<usize>>,
    /// The full response object (per-stage report, counters).
    pub raw: Json,
}

/// One connection to a running [`Daemon`](crate::daemon::Daemon).
#[derive(Debug)]
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    read_timeout: Option<Duration>,
    encoding: WireEncoding,
}

impl ServiceClient {
    /// Connect to a daemon with no client-side deadlines.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, None)
    }

    /// Connect to a daemon with explicit [`ClientTimeouts`]: the
    /// connect attempt and every subsequent response read are bounded,
    /// both reported as [`ServiceError::Timeout`].
    ///
    /// # Errors
    /// [`ServiceError::Timeout`] when the connect bound elapses,
    /// [`ServiceError::Io`] on other socket errors (including
    /// unresolvable addresses).
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        timeouts: ClientTimeouts,
    ) -> Result<Self, ServiceError> {
        let stream = match timeouts.connect {
            None => TcpStream::connect(addr)?,
            Some(bound) => {
                // `TcpStream::connect_timeout` wants one resolved
                // address; try each in turn under the same bound.
                let mut last: Option<std::io::Error> = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, bound) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        let e = last.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to nothing",
                            )
                        });
                        return Err(classify_io(e, bound));
                    }
                }
            }
        };
        let mut client = Self::from_stream(stream, timeouts.read)?;
        client.set_read_timeout(timeouts.read)?;
        Ok(client)
    }

    fn from_stream(stream: TcpStream, read_timeout: Option<Duration>) -> std::io::Result<Self> {
        let read_half = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            read_timeout,
            encoding: WireEncoding::default(),
        })
    }

    /// Choose the wire encoding for subsequent bulk requests (`attack`,
    /// `add_auxiliary_users`). Takes effect immediately — the daemon
    /// detects the encoding per message.
    pub fn set_encoding(&mut self, encoding: WireEncoding) {
        self.encoding = encoding;
    }

    /// The encoding bulk requests currently use.
    #[must_use]
    pub fn encoding(&self) -> WireEncoding {
        self.encoding
    }

    /// Bound (or unbound, with `None`) every subsequent response read;
    /// an elapsed bound surfaces as [`ServiceError::Timeout`]. Attacks
    /// against large corpora run for minutes — size the bound for the
    /// slowest request this client issues, not for a network RTT.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Send one request object and read the matching response line.
    ///
    /// # Errors
    /// [`ServiceError::Io`] on socket failure, [`ServiceError::Timeout`]
    /// when a configured read deadline elapses before the response,
    /// [`ServiceError::Protocol`] when the response is not valid
    /// protocol JSON, and [`ServiceError::Remote`] when the server
    /// reports a failure.
    pub fn request(&mut self, request: &Json) -> Result<Json, ServiceError> {
        self.writer.write_all(request.emit().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_reply()
    }

    /// Send raw request bytes — a pre-encoded binary frame
    /// ([`crate::frame`]) — and read the matching JSON response line
    /// (responses are newline-JSON regardless of request encoding).
    ///
    /// # Errors
    /// Like [`Self::request`].
    pub fn request_frame(&mut self, frame: &[u8]) -> Result<Json, ServiceError> {
        self.writer.write_all(frame)?;
        self.writer.flush()?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<Json, ServiceError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| classify_io(e, self.read_timeout.unwrap_or_default()))?;
        if n == 0 {
            return Err(ServiceError::Protocol("connection closed by server".into()));
        }
        let response = Json::parse(line.trim())
            .map_err(|e| ServiceError::Protocol(format!("unparseable response: {e}")))?;
        match response.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(response),
            Some(false) => Err(ServiceError::Remote(
                response.get("error").and_then(Json::as_str).unwrap_or("unknown error").into(),
            )),
            None => Err(ServiceError::Protocol("response missing ok field".into())),
        }
    }

    /// Ask the daemon to load the snapshot at `path` (a path on the
    /// **daemon's** filesystem).
    ///
    /// # Errors
    /// Like [`Self::request`].
    pub fn load_snapshot(&mut self, path: &str) -> Result<Json, ServiceError> {
        self.request(&Json::Obj(vec![
            ("cmd".into(), Json::Str("load_snapshot".into())),
            ("path".into(), Json::Str(path.into())),
        ]))
    }

    /// Stream a chunk of new auxiliary users into the standing corpus,
    /// in this client's [`WireEncoding`].
    ///
    /// # Errors
    /// Like [`Self::request`].
    pub fn add_auxiliary_users(&mut self, chunk: &Forum) -> Result<Json, ServiceError> {
        match self.encoding {
            WireEncoding::Binary => {
                let frame = encode_add_users_frame(chunk);
                self.request_frame(&frame)
            }
            WireEncoding::Json => self.request(&Json::Obj(vec![
                ("cmd".into(), Json::Str("add_auxiliary_users".into())),
                ("forum".into(), forum_to_json(chunk)),
            ])),
        }
    }

    /// De-anonymize a batch of users against the standing corpus, in
    /// this client's [`WireEncoding`]. Replies are identical across
    /// encodings (the parity suite holds them bit-for-bit equal).
    ///
    /// # Errors
    /// Like [`Self::request`], plus [`ServiceError::Protocol`] when the
    /// response's mapping/candidates have unexpected shapes.
    pub fn attack(
        &mut self,
        anonymized: &Forum,
        options: &AttackOptions,
    ) -> Result<AttackReply, ServiceError> {
        let bytes = self.encode_attack_request(anonymized, options);
        self.writer.write_all(&bytes)?;
        self.writer.flush()?;
        let raw = self.read_reply()?;
        let shape = |m: &str| ServiceError::Protocol(m.into());
        let mapping = raw
            .get("mapping")
            .and_then(Json::as_array)
            .ok_or_else(|| shape("missing mapping"))?
            .iter()
            .map(|v| match v {
                Json::Null => Ok(None),
                v => v.as_usize().map(Some).ok_or_else(|| shape("invalid mapping entry")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let candidates = raw
            .get("candidates")
            .and_then(Json::as_array)
            .ok_or_else(|| shape("missing candidates"))?
            .iter()
            .map(|c| {
                c.as_array()
                    .ok_or_else(|| shape("invalid candidate set"))?
                    .iter()
                    .map(|v| v.as_usize().ok_or_else(|| shape("invalid candidate id")))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AttackReply { mapping, candidates, raw })
    }

    /// The exact bytes [`Self::attack`] puts on the wire for this
    /// request under the current [`WireEncoding`] (the trailing newline
    /// included for JSON) — what a benchmark comparing bytes-on-wire
    /// across encodings should measure.
    #[must_use]
    pub fn encode_attack_request(&self, anonymized: &Forum, options: &AttackOptions) -> Vec<u8> {
        match self.encoding {
            WireEncoding::Binary => encode_attack_frame(anonymized, options),
            WireEncoding::Json => {
                let mut fields = vec![
                    ("cmd".into(), Json::Str("attack".into())),
                    ("forum".into(), forum_to_json(anonymized)),
                ];
                fields.extend(options.to_fields());
                let mut bytes = Json::Obj(fields).emit().into_bytes();
                bytes.push(b'\n');
                bytes
            }
        }
    }

    /// Fetch the daemon's counters.
    ///
    /// # Errors
    /// Like [`Self::request`].
    pub fn stats(&mut self) -> Result<Json, ServiceError> {
        self.request(&Json::Obj(vec![("cmd".into(), Json::Str("stats".into()))]))
    }

    /// Fetch the daemon's full metric registry (the `metrics` command):
    /// the response's `"metrics"` field is the array described by
    /// [`registry_to_json`](crate::metrics::registry_to_json).
    ///
    /// # Errors
    /// Like [`Self::request`].
    pub fn metrics(&mut self) -> Result<Json, ServiceError> {
        self.request(&Json::Obj(vec![("cmd".into(), Json::Str("metrics".into()))]))
    }

    /// Ask the daemon to shut down (the response arrives before the
    /// daemon stops accepting).
    ///
    /// # Errors
    /// Like [`Self::request`].
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        self.request(&Json::Obj(vec![("cmd".into(), Json::Str("shutdown".into()))])).map(|_| ())
    }
}

/// Map an I/O error from a bounded read/connect to the typed timeout
/// (the platform reports an elapsed socket deadline as `WouldBlock` on
/// unix, `TimedOut` elsewhere).
fn classify_io(e: std::io::Error, bound: Duration) -> ServiceError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ServiceError::Timeout(bound)
        }
        _ => ServiceError::Io(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A listener that accepts and then never answers: without a read
    /// timeout the client would block forever on the response line.
    fn stalling_listener() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stalling listener");
        let addr = listener.local_addr().expect("listener addr");
        let handle = std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else { return };
            // Swallow the request so the client's write succeeds, then
            // go silent until the peer hangs up.
            let mut sink = [0u8; 1024];
            while let Ok(n) = stream.read(&mut sink) {
                if n == 0 {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn read_timeout_against_a_stalling_daemon_is_a_typed_error_not_a_hang() {
        let (addr, handle) = stalling_listener();
        let bound = Duration::from_millis(100);
        let mut client = ServiceClient::connect_with(
            addr,
            ClientTimeouts { connect: Some(Duration::from_secs(5)), read: Some(bound) },
        )
        .expect("connect");
        let started = Instant::now();
        let err = client.stats().expect_err("stalling daemon must time out");
        let waited = started.elapsed();
        assert!(matches!(err, ServiceError::Timeout(after) if after == bound), "got {err}");
        assert!(
            waited >= bound && waited < Duration::from_secs(5),
            "timeout fired after {waited:?}, bound was {bound:?}"
        );
        drop(client);
        handle.join().expect("stalling listener thread");
    }

    #[test]
    fn set_read_timeout_can_rebound_and_unbound_an_existing_client() {
        let (addr, handle) = stalling_listener();
        let mut client = ServiceClient::connect(addr).expect("connect");
        client.set_read_timeout(Some(Duration::from_millis(50))).expect("set timeout");
        let err = client.stats().expect_err("stalling daemon must time out");
        assert!(matches!(err, ServiceError::Timeout(_)), "got {err}");
        // Rebinding to a longer bound still times out (typed), proving
        // the stored bound is what the error reports.
        client.set_read_timeout(Some(Duration::from_millis(80))).expect("rebound");
        let err = client.stats().expect_err("still stalling");
        assert!(
            matches!(err, ServiceError::Timeout(after) if after == Duration::from_millis(80)),
            "got {err}"
        );
        drop(client);
        handle.join().expect("stalling listener thread");
    }
}
