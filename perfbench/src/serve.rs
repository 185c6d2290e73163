//! Socket-level serving: the shipped `leva-serve` daemon as a child
//! process, an open-loop binary-protocol load generator, and an HTTP
//! keep-alive client posting appends beside the reads.
//!
//! The generator sets `TCP_NODELAY` and writes each frame with one
//! `write_all`, so a stall it measures is the server's, not its own.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use leva::{Featurization, FeaturizeRequest, LevaModel};
use leva_embedding::json;
use leva_linalg::Matrix;
use leva_serve::wire;

use crate::data::Inputs;
use crate::fit::same_bits;
use crate::report::{Ops, Phase};
use crate::schedule::{poisson, read_mix, ReadKind};
use crate::stats::{percentile_sorted, Latency};

/// Largest response frame the generator accepts.
const MAX_FRAME: usize = 64 << 20;
/// How long the generator waits for responses after the last send.
const DRAIN: Duration = Duration::from_secs(5);
/// Requests outstanding when a rung's last request is sent beyond which
/// the backlog counts as growing.
const BACKLOG_LIMIT: usize = 8;
/// Generator lateness p99 above which a phase is flagged as behind.
pub const LATE_LIMIT_MS: f64 = 1.0;

/// Pre-encoded read requests, drawn from the seeded mix.
pub struct Pool {
    /// The requests, as the library takes them.
    pub requests: Vec<FeaturizeRequest>,
    /// Each request as one `u32 len | payload` frame.
    pub frames: Vec<Vec<u8>>,
}

impl Pool {
    /// `count` requests of the mix against `inputs`.
    pub fn new(inputs: &Inputs, count: usize, seed: u64) -> Pool {
        let requests: Vec<FeaturizeRequest> =
            read_mix(count, inputs.fitted_rows, inputs.held_out.row_count(), seed)
                .into_iter()
                .map(|k| match k {
                    ReadKind::Base { rows, plus_value } => FeaturizeRequest::base_rows(
                        rows,
                        if plus_value {
                            Featurization::RowPlusValue
                        } else {
                            Featurization::RowOnly
                        },
                    ),
                    ReadKind::External { rows } => FeaturizeRequest::external(
                        inputs.held_out_rows(&rows),
                        Featurization::RowPlusValue,
                    ),
                })
                .collect();
        let frames = requests
            .iter()
            .map(|r| frame(&wire::encode_binary_request(r)))
            .collect();
        Pool { requests, frames }
    }
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A `leva-serve` child process on an ephemeral loopback port.
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin` on `artifact` with default settings and waits until
    /// it reports its address on stderr (captured in `log`).
    pub fn spawn(bin: &Path, artifact: &Path, log: &Path) -> Result<Daemon, String> {
        let err = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .arg(artifact)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            let listening = text
                .lines()
                .find_map(|l| l.strip_prefix("leva-serve listening on "))
                .and_then(|rest| rest.split(' ').next())
                .and_then(|a| a.parse().ok());
            if let Some(addr) = listening {
                daemon.addr = addr;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("leva-serve exited with {status}: {text}"));
            }
            if Instant::now() > deadline {
                return Err("leva-serve did not start within 60 s".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Resident set size from `/proc/<pid>/status`, in MB.
    pub fn rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb * 1024.0 / 1e6)
            .ok_or_else(|| "no VmRSS in daemon status".to_owned())
    }

    /// `GET /metrics`, parsed.
    pub fn metrics(&self) -> Result<json::Value, String> {
        let mut conn = HttpConn::open(self.addr)?;
        let (status, body) = conn.request("GET", "/metrics", "", false)?;
        if status != 200 {
            return Err(format!("/metrics returned {status}"));
        }
        json::parse(&body).map_err(|e| format!("/metrics: {e}"))
    }

    /// Asks the daemon to shut down and waits for it to exit cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = HttpConn::open(self.addr)
            .and_then(|mut c| c.request("POST", "/admin/shutdown", "", false));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && asked.is_ok() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("leva-serve stopped with {status}: {asked:?}"))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("leva-serve did not stop within 20 s".to_owned()),
                Err(e) => return Err(format!("waiting for leva-serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A minimal HTTP/1.1 client connection.
struct HttpConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpConn {
    fn open(addr: SocketAddr) -> Result<HttpConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(HttpConn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request in a single write and reads the response.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        keep_alive: bool,
    ) -> Result<(u16, String), String> {
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nhost: leva\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: {}\r\n\r\n{body}",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" }
        );
        self.writer
            .write_all(msg.as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("{path}: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{path}: bad status line {line:?}"))?;
        let mut length = 0;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("{path}: {e}"))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("{path}: bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("{path}: {e}"))?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|e| e.to_string())
    }
}

fn open_binary(addr: SocketAddr) -> Result<TcpStream, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.write_all(&wire::BINARY_MAGIC)
        .map_err(|e| e.to_string())?;
    Ok(s)
}

/// A response kept for the bitwise check against the in-process model.
pub struct Sample {
    /// Index into the pool.
    pub idx: usize,
    /// Model version stamped on the response.
    pub version: u64,
    /// Artifact checksum stamped on the response.
    pub checksum: u32,
    /// The features.
    pub matrix: Matrix,
}

/// What one connection (or a phase over several) measured.
#[derive(Default)]
pub struct Reads {
    /// Latency of each successful request from when it was due, ms.
    pub latencies_ms: Vec<f64>,
    /// How late each request was sent, ms.
    pub lateness_ms: Vec<f64>,
    /// Requests attempted and failed.
    pub ops: Ops,
    /// Responses with the wrong shape.
    pub malformed: usize,
    /// Responses kept for checking.
    pub samples: Vec<Sample>,
    /// Requests outstanding when the middle one was sent.
    pub backlog_mid: usize,
    /// Requests outstanding when the last one was sent.
    pub backlog_end: usize,
    /// Nanoseconds spent decoding responses.
    pub decode_ns: u128,
    /// Bytes of request frames sent.
    pub request_bytes: usize,
    /// Bytes of response frames received.
    pub response_bytes: usize,
    /// Seconds from the first due time to the last response.
    pub busy_s: f64,
}

impl Reads {
    fn merge(&mut self, other: Reads) {
        self.latencies_ms.extend(other.latencies_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.ops.add(other.ops);
        self.malformed += other.malformed;
        self.samples.extend(other.samples);
        self.backlog_mid += other.backlog_mid;
        self.backlog_end += other.backlog_end;
        self.decode_ns += other.decode_ns;
        self.request_bytes += other.request_bytes;
        self.response_bytes += other.response_bytes;
        self.busy_s = self.busy_s.max(other.busy_s);
    }

    /// Latency summary of the successful requests.
    pub fn latency(&self) -> Latency {
        Latency::of(&self.latencies_ms)
    }

    /// Generator lateness p99, ms.
    pub fn lateness_p99_ms(&self) -> f64 {
        let mut v = self.lateness_ms.clone();
        v.sort_by(f64::total_cmp);
        percentile_sorted(&v, 99.0).max(0.0)
    }

    /// The phase record, warning when the generator fell behind.
    pub fn phase(&self, name: String) -> Phase {
        let late = self.lateness_p99_ms();
        if late > LATE_LIMIT_MS {
            eprintln!("warning: generator fell behind in {name}: lateness p99 {late:.3} ms");
        }
        Phase {
            name,
            ops: self.ops,
            load: Some((late, self.backlog_mid, self.backlog_end)),
        }
    }

    /// Whether requests outstanding grew over the phase.
    pub fn backlog_growing(&self) -> bool {
        self.backlog_end > BACKLOG_LIMIT
    }
}

/// Sends `pool` requests `idx` on `stream` at `start + offsets` and reads
/// the pipelined responses in order. Blocks on the socket until the next
/// request is due; never spins.
fn drive(
    stream: &mut TcpStream,
    start: Instant,
    offsets: &[Duration],
    idx: &[usize],
    pool: &Pool,
    sample_every: usize,
) -> Reads {
    let mut out = Reads::default();
    let n = offsets.len();
    let deadline = start + offsets.last().copied().unwrap_or_default() + DRAIN;
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 256 << 10];
    let mut next = 0;
    let mut done = 0;
    loop {
        let now = Instant::now();
        if next < n && start + offsets[next] <= now {
            let due = start + offsets[next];
            let i = idx[next];
            out.lateness_ms
                .push(now.duration_since(due).as_secs_f64() * 1e3);
            out.ops.attempted += 1;
            if stream.write_all(&pool.frames[i]).is_err() {
                break;
            }
            out.request_bytes += pool.frames[i].len();
            next += 1;
            if next == n / 2 {
                out.backlog_mid = pending.len();
            }
            if next == n {
                out.backlog_end = pending.len();
            }
            pending.push_back((i, due));
            continue;
        }
        if next == n && pending.is_empty() {
            break;
        }
        if now >= deadline {
            break;
        }
        let wake = if next < n {
            start + offsets[next]
        } else {
            deadline
        };
        if !wait_readable(stream, wake.saturating_duration_since(now)) {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        let arrived = Instant::now();
        let mut at = 0;
        while buf.len() - at >= 4 {
            let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME || buf.len() - at - 4 < len {
                break;
            }
            let payload = &buf[at + 4..at + 4 + len];
            at += 4 + len;
            out.response_bytes += 4 + len;
            let Some((i, due)) = pending.pop_front() else {
                out.malformed += 1;
                continue;
            };
            let t = Instant::now();
            let decoded = wire::decode_binary_response(payload);
            out.decode_ns += t.elapsed().as_nanos();
            match decoded {
                Ok(resp) if shape_ok(&pool.requests[i], &resp.matrix) => {
                    out.latencies_ms
                        .push(arrived.duration_since(due).as_secs_f64() * 1e3);
                    out.busy_s = arrived.duration_since(start).as_secs_f64();
                    if done % sample_every == 0 {
                        out.samples.push(Sample {
                            idx: i,
                            version: resp.version,
                            checksum: resp.checksum,
                            matrix: resp.matrix,
                        });
                    }
                    done += 1;
                }
                Ok(_) => {
                    out.malformed += 1;
                    out.ops.failed += 1;
                }
                Err(_) => out.ops.failed += 1,
            }
        }
        buf.drain(..at);
    }
    out.ops.failed += out.ops.attempted - out.ops.failed - out.latencies_ms.len();
    out
}

/// Blocks until `stream` has bytes to read or `timeout` passes. `ppoll`
/// sleeps on a high-resolution timer; a socket read timeout would round
/// up to the scheduler tick, which is 10 ms on some kernels and would
/// make the generator late.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: std::os::fd::AsRawFd::as_raw_fd(stream),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live locals with the C layout of
    // `struct pollfd` and `struct timespec` on 64-bit Linux for the whole
    // call, `nfds` is 1 to match the single descriptor, and a null sigmask
    // leaves the signal mask unchanged.
    unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) > 0 }
}

fn shape_ok(request: &FeaturizeRequest, m: &Matrix) -> bool {
    request.row_count_hint() == Some(m.rows()) && m.cols() > 0
}

/// An open-loop phase at `rate` requests/s split over `conns` fresh
/// binary connections, for `secs` seconds.
pub fn read_phase(
    addr: SocketAddr,
    pool: &Pool,
    rate: f64,
    secs: f64,
    conns: usize,
    seed: u64,
    sample_every: usize,
) -> Result<Reads, String> {
    let mut streams: Vec<TcpStream> = (0..conns)
        .map(|_| open_binary(addr))
        .collect::<Result<_, _>>()?;
    let plans: Vec<(Vec<Duration>, Vec<usize>)> = (0..conns)
        .map(|c| {
            let offsets = poisson(
                rate / conns as f64,
                Duration::from_secs_f64(secs),
                seed ^ ((c as u64 + 1) * 0x9e37),
            );
            let idx = (0..offsets.len())
                .map(|j| (seed as usize).wrapping_add(j * conns + c) % pool.frames.len())
                .collect();
            (offsets, idx)
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<Reads> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(&plans)
            .map(|(stream, (offsets, idx))| {
                s.spawn(move || drive(stream, start, offsets, idx, pool, sample_every))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut all = Reads::default();
    for r in results {
        all.merge(r);
    }
    Ok(all)
}

/// One append posted while reading.
pub struct Appended {
    /// Latency from when it was due, ms.
    pub latency_ms: f64,
    /// Version and checksum the daemon published.
    pub version: u64,
    /// Checksum of the appended model's artifact.
    pub checksum: u32,
}

/// Reads at `read_rate` on one binary connection while one HTTP
/// keep-alive connection posts `bodies` at `append_rate` per second.
pub fn mixed_phase(
    addr: SocketAddr,
    pool: &Pool,
    read_rate: f64,
    secs: f64,
    append_rate: f64,
    bodies: &[String],
    seed: u64,
) -> Result<(Reads, Vec<Appended>, Ops), String> {
    let mut reader = open_binary(addr)?;
    let mut http = HttpConn::open(addr)?;
    let offsets = poisson(read_rate, Duration::from_secs_f64(secs), seed ^ 0x5eed);
    let idx: Vec<usize> = (0..offsets.len())
        .map(|j| (seed as usize).wrapping_add(3 * j) % pool.frames.len())
        .collect();
    let n_appends = ((secs * append_rate) as usize).min(bodies.len());
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let reads = s.spawn(|| drive(&mut reader, start, &offsets, &idx, pool, 4));
        let mut ops = Ops::default();
        let mut appended = Vec::new();
        for (k, body) in bodies[..n_appends].iter().enumerate() {
            let due = start + Duration::from_secs_f64(k as f64 / append_rate);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            ops.attempted += 1;
            let outcome =
                http.request("POST", "/admin/append", body, true)
                    .and_then(|(status, text)| {
                        let done = Instant::now();
                        let doc = json::parse(&text).map_err(|e| e.to_string())?;
                        let field = |k: &str| doc.get(k).and_then(json::Value::as_f64);
                        match (status, field("version"), field("checksum")) {
                            (200, Some(v), Some(c)) => Ok(Appended {
                                latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                                version: v as u64,
                                checksum: c as u32,
                            }),
                            _ => Err(format!("append returned {status}: {text}")),
                        }
                    });
            match outcome {
                Ok(a) => appended.push(a),
                Err(e) => {
                    eprintln!("append failed: {e}");
                    ops.failed += 1;
                    break;
                }
            }
        }
        let reads = reads.join().expect("mixed-phase reader panicked");
        Ok((reads, appended, ops))
    })
}

/// Expected features per pool index from the in-process model.
pub struct Expected<'a> {
    model: &'a LevaModel,
    cache: HashMap<usize, Matrix>,
}

impl<'a> Expected<'a> {
    /// Expectations from `model`.
    pub fn new(model: &'a LevaModel) -> Self {
        Expected {
            model,
            cache: HashMap::new(),
        }
    }

    /// Whether `sample` equals in-process `LevaModel::featurize` bit for
    /// bit.
    pub fn matches(&mut self, pool: &Pool, sample: &Sample) -> bool {
        let model = self.model;
        let want = self.cache.entry(sample.idx).or_insert_with(|| {
            model
                .featurize(&pool.requests[sample.idx])
                .expect("pool requests are valid")
        });
        same_bits(want, &sample.matrix)
    }
}

/// Replays the mixed phase's appends in process, the way the daemon
/// applies them, and checks each sampled read against the model version
/// that served it and each published checksum against the replayed
/// artifact. Returns `(reads checked, reads that matched)`.
pub fn verify_mixed(
    mut model: LevaModel,
    table: &str,
    bodies: &[String],
    appended: &[Appended],
    samples: &[Sample],
    pool: &Pool,
) -> Result<(usize, usize, bool), String> {
    let mut by_version: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        by_version.entry(s.version).or_default().push(s);
    }
    let stamp: BTreeMap<u64, u32> =
        std::iter::once((1, leva_interner::codec::crc32(&model.to_bytes())))
            .chain(appended.iter().map(|a| (a.version, a.checksum)))
            .collect();
    let mut checked = 0;
    let mut matched = 0;
    let tally = |m: &LevaModel, version: u64, checked: &mut usize, matched: &mut usize| {
        let mut expected = Expected::new(m);
        for s in by_version.get(&version).map(Vec::as_slice).unwrap_or(&[]) {
            *checked += 1;
            *matched +=
                usize::from(stamp.get(&version) == Some(&s.checksum) && expected.matches(pool, s));
        }
    };
    let _ = model.featurizer();
    tally(&model, 1, &mut checked, &mut matched);
    for (k, a) in appended.iter().enumerate() {
        // The daemon appends to a clone with the cache carried over; an
        // in-place append on a warm model is the same computation.
        let req = wire::parse_append_request(&bodies[k]).map_err(|e| e.to_string())?;
        model
            .append_rows_with(table, &req.rows, &req.options)
            .map_err(|e| e.to_string())?;
        tally(&model, a.version, &mut checked, &mut matched);
    }
    let unknown = samples
        .iter()
        .filter(|s| !stamp.contains_key(&s.version))
        .count();
    let last_ok = appended
        .last()
        .is_none_or(|a| leva_interner::codec::crc32(&model.to_bytes()) == a.checksum);
    Ok((checked + unknown, matched, last_ok))
}

/// Cold start: spawn to first correct response. Returns milliseconds and
/// whether the response matched the in-process model and stamp.
pub fn cold_start(
    bin: &Path,
    artifact: &Path,
    log: &Path,
    pool: &Pool,
    expected: &mut Expected,
    checksum: u32,
) -> Result<(f64, bool), String> {
    let t = Instant::now();
    let daemon = Daemon::spawn(bin, artifact, log)?;
    let mut s = open_binary(daemon.addr)?;
    s.write_all(&pool.frames[0]).map_err(|e| e.to_string())?;
    let payload = wire::read_frame(&mut s, MAX_FRAME).map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    drop(s);
    let resp = wire::decode_binary_response(&payload).map_err(|e| e.to_string())?;
    let ok = resp.version == 1
        && resp.checksum == checksum
        && expected.matches(
            pool,
            &Sample {
                idx: 0,
                version: resp.version,
                checksum: resp.checksum,
                matrix: resp.matrix,
            },
        );
    daemon.stop()?;
    Ok((ms, ok))
}

/// The `leva-serve` binary built beside this benchmark's executable.
pub fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("leva-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found; build it with `cargo build --release --bin leva-serve`",
            bin.display()
        ))
    }
}
