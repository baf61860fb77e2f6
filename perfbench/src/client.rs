//! Keep-alive HTTP/1.1 closed-loop load generator: a fixed number of
//! requests stays outstanding, pipelined on one connection per generator
//! thread, and each response is timestamped at its last byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The `x-rpt-trace` stage summary, when the server sent one.
    pub trace: Option<String>,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Incremental response parser over the bytes of one connection.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
}

impl ResponseReader {
    /// Appends bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, if the buffer holds one.
    pub fn next_response(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or("bad status line")?;
        let mut len = None;
        let mut trace = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(format!("bad header line {line:?}"));
            };
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-rpt-trace") {
                trace = Some(value.trim().to_string());
            }
        }
        let len = len.ok_or("response without content-length")?;
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response {
            status,
            trace,
            body,
        }))
    }
}

/// What the load generator keeps of a response: enough to check it
/// without holding its body, so the benchmark's own memory stays flat
/// whatever the throughput (`peak_rss_mb` measures the server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// The `x-rpt-trace` stage summary, when the server sent one.
    pub trace: Option<String>,
    /// [`body_hash`] of the body.
    pub body_hash: u64,
    /// Output tokens the body carries; `None` for a malformed body.
    pub tokens: Option<usize>,
}

/// Counts the output tokens of a response body.
pub type TokenCounter<'a> = &'a (dyn Fn(&[u8]) -> Option<usize> + Sync);

impl Reply {
    fn new(resp: Response, tokens: TokenCounter<'_>) -> Self {
        Self {
            status: resp.status,
            tokens: tokens(&resp.body),
            body_hash: body_hash(&resp.body),
            trace: resp.trace,
        }
    }
}

/// FNV-1a 64 of a response body.
pub fn body_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What happened to one request. Times are offsets from the phase start.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The send sequence (`index % requests` is the request).
    pub index: usize,
    /// When its bytes were written.
    pub sent: Option<Duration>,
    /// When its response's last byte arrived; `None` = no response.
    pub done: Option<Duration>,
    /// The response, when one arrived.
    pub response: Option<Reply>,
}

impl Sample {
    fn new(index: usize) -> Self {
        Self {
            index,
            sent: None,
            done: None,
            response: None,
        }
    }

    /// Status code; 0 when no response arrived.
    pub fn status(&self) -> u16 {
        self.response.as_ref().map_or(0, |r| r.status)
    }

    /// Latency from the send time to the last response byte, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        Some((self.done? - self.sent?).as_secs_f64() * 1e3)
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Reads once (waiting at most `wait`) and hands every completed response
/// to `on_response` with its arrival time. Returns false when the
/// connection is gone or the byte stream is malformed.
fn pump(
    stream: &mut TcpStream,
    reader: &mut ResponseReader,
    buf: &mut [u8],
    wait: Duration,
    start: Instant,
    mut on_response: impl FnMut(Response, Duration),
) -> bool {
    if stream
        .set_read_timeout(Some(wait.max(Duration::from_micros(20))))
        .is_err()
    {
        return false;
    }
    match stream.read(buf) {
        Ok(0) => false,
        Ok(n) => {
            let at = start.elapsed();
            reader.feed(&buf[..n]);
            loop {
                match reader.next_response() {
                    Ok(Some(resp)) => on_response(resp, at),
                    Ok(None) => return true,
                    Err(_) => return false,
                }
            }
        }
        Err(e) => matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    }
}

/// Closed loop: `conns` connections each keep `per_conn` requests
/// outstanding, cycling through `bytes` in order, until `duration` has
/// passed; then every outstanding response is awaited (up to `drain`).
/// `Sample::index` is the global send sequence (`index % bytes.len()` is
/// the request).
pub fn closed_loop(
    addr: SocketAddr,
    bytes: &[Vec<u8>],
    conns: usize,
    per_conn: usize,
    duration: Duration,
    drain: Duration,
    tokens: TokenCounter<'_>,
) -> Vec<Sample> {
    let seq = AtomicUsize::new(0);
    let start = Instant::now();
    let mut out: Vec<Sample> = std::thread::scope(|s| {
        let seq = &seq;
        let handles: Vec<_> = (0..conns.max(1))
            .map(|_| {
                s.spawn(move || {
                    closed_conn(addr, bytes, seq, per_conn, start, duration, drain, tokens)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop generator thread panicked"))
            .collect()
    });
    out.sort_by_key(|s| s.index);
    out
}

#[allow(clippy::too_many_arguments)]
fn closed_conn(
    addr: SocketAddr,
    bytes: &[Vec<u8>],
    seq: &AtomicUsize,
    per_conn: usize,
    start: Instant,
    duration: Duration,
    drain: Duration,
    tokens: TokenCounter<'_>,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = Vec::new();
    let Ok(mut stream) = connect(addr) else {
        return samples;
    };
    let send = |stream: &mut TcpStream, samples: &mut Vec<Sample>| -> bool {
        let index = seq.fetch_add(1, Ordering::Relaxed);
        let mut sample = Sample::new(index);
        sample.sent = Some(start.elapsed());
        samples.push(sample);
        stream.write_all(&bytes[index % bytes.len()]).is_ok()
    };
    for _ in 0..per_conn {
        if !send(&mut stream, &mut samples) {
            return samples;
        }
    }
    let mut reader = ResponseReader::default();
    let mut buf = vec![0u8; 64 * 1024];
    let mut got = 0usize;
    let hard_stop = start + duration + drain;
    while got < samples.len() && Instant::now() < hard_stop {
        let mut arrived = Vec::new();
        let ok = pump(
            &mut stream,
            &mut reader,
            &mut buf,
            Duration::from_millis(50),
            start,
            |resp, t| {
                arrived.push((resp, t));
            },
        );
        for (resp, t) in arrived {
            if got < samples.len() {
                samples[got].done = Some(t);
                samples[got].response = Some(Reply::new(resp, tokens));
                got += 1;
            }
            if start.elapsed() < duration && !send(&mut stream, &mut samples) {
                return samples;
            }
        }
        if !ok {
            break;
        }
    }
    samples
}

/// One-shot `GET path` on a fresh connection (`connection: close`).
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let mut reader = ResponseReader::default();
    reader.feed(&raw);
    match reader.next_response() {
        Ok(Some(r)) => Ok((r.status, r.body)),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bad response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_splits_pipelined_responses_and_reads_the_trace_header() {
        let mut r = ResponseReader::default();
        r.feed(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nx-rpt-trace: id=1; decode_ms=0.5\r\n\r\n{}HTTP/1.1 503 Service Unavailable\r\nContent-Length: 3\r\n\r\nab");
        let first = r.next_response().unwrap().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, b"{}");
        assert_eq!(first.trace.as_deref(), Some("id=1; decode_ms=0.5"));
        assert_eq!(
            r.next_response().unwrap(),
            None,
            "second body is incomplete"
        );
        r.feed(b"c");
        let second = r.next_response().unwrap().unwrap();
        assert_eq!((second.status, second.body.as_slice()), (503, &b"abc"[..]));
        assert_eq!(r.next_response().unwrap(), None);
    }

    #[test]
    fn reader_rejects_a_response_without_length() {
        let mut r = ResponseReader::default();
        r.feed(b"HTTP/1.1 200 OK\r\n\r\n");
        assert!(r.next_response().is_err());
    }
}
