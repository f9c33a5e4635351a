//! `serve`: the release `tkc serve` binary booted from the packed
//! streamed graph, driven over TCP by two closed-loop connections.
//!
//! Each connection sends whole rounds of a seeded mix: mostly `KAPPA` of
//! edges no connection writes, some `MAXK`, 5% `INSERT`/`REMOVE` of edges
//! the connection owns, and one `TRUSS k` per level of a fixed cycle.
//! Because writes are split by ownership, the final edge set is known
//! whatever the interleaving.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tkc_core::decompose::Decomposition;
use tkc_graph::Graph;
use tkc_verify::KappaCertificate;

use crate::model::{EdgeModel, KappaGraph, TrussCount};
use crate::prepare::prepare_in_child;
use crate::util::{cpu_s, edge_key, log, median, mix, ms, peak_rss_mb, Outcome, Rng};
use crate::{probes, EndToEnd, Opts, SETUPS};

/// The `TRUSS` levels every round asks, once each: low levels of similar
/// cost (each walks most of the graph), so `slow_op_ms` is the median of
/// every `TRUSS` sample, not of one level's.
pub const TRUSS_LEVELS: [u32; 3] = [2, 4, 6];
/// Closed-loop connections.
const CONNS: usize = 2;
/// Sampled `KAPPA` replies checked after the run.
const KAPPA_SAMPLES: usize = 2000;
/// Seed streams (one per connection starting here).
const SCRIPT_STREAM: u64 = 3;
const SAMPLE_STREAM: u64 = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    Kappa(u32, u32),
    MaxK,
    Truss(u32),
    Insert(u32, u32),
    Remove(u32, u32),
}

impl Request {
    pub fn line(self) -> String {
        match self {
            Request::Kappa(u, v) => format!("KAPPA {u} {v}"),
            Request::MaxK => "MAXK".to_string(),
            Request::Truss(k) => format!("TRUSS {k}"),
            Request::Insert(u, v) => format!("INSERT {u} {v}"),
            Request::Remove(u, v) => format!("REMOVE {u} {v}"),
        }
    }

    fn kind(self) -> Kind {
        match self {
            Request::Kappa(..) => Kind::Kappa,
            Request::MaxK => Kind::MaxK,
            Request::Truss(_) => Kind::Truss,
            Request::Insert(..) | Request::Remove(..) => Kind::Write,
        }
    }

    /// Whether `reply` is the success reply this request must get.
    fn accepts(self, reply: &str) -> bool {
        match self {
            Request::Kappa(..) | Request::MaxK => reply
                .strip_prefix("OK ")
                .is_some_and(|k| k.parse::<u32>().is_ok()),
            Request::Truss(_) => reply.starts_with("OK cores="),
            Request::Insert(..) => reply.starts_with("OK kappa="),
            Request::Remove(..) => reply == "OK removed",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Kappa,
    MaxK,
    Truss,
    Write,
}

/// Which connection may write edge `{a, b}`: 0 or 1, or 2 for nobody
/// (those edges are the `KAPPA` targets and never change).
fn owner(seed: u64, a: u32, b: u32) -> usize {
    (mix(edge_key(a, b) ^ mix(seed ^ 0x0A11)) % 3) as usize
}

/// One connection's rounds: the script every run of this seed sends.
pub fn script(
    model: &EdgeModel,
    seed: u64,
    conn: usize,
    round_len: usize,
    rounds: usize,
) -> Vec<Vec<Request>> {
    let mut rng = Rng::new(seed, SCRIPT_STREAM + conn as u64);
    let (mut inserted, mut removed) = (HashSet::new(), HashSet::new());
    let writes = round_len / 20;
    let maxk = round_len / 20;
    (0..rounds)
        .map(|_| {
            let mut round: Vec<Request> = TRUSS_LEVELS.iter().map(|&k| Request::Truss(k)).collect();
            round.extend(std::iter::repeat_n(Request::MaxK, maxk));
            for w in 0..writes {
                round.push(if w % 2 == 0 {
                    loop {
                        let (a, b) = model.wedge_closer(&mut rng);
                        if owner(seed, a, b) == conn && inserted.insert(edge_key(a, b)) {
                            break Request::Insert(a, b);
                        }
                    }
                } else {
                    loop {
                        let (a, b) = model.live_edge(&mut rng);
                        if owner(seed, a, b) == conn && removed.insert(edge_key(a, b)) {
                            break Request::Remove(a, b);
                        }
                    }
                });
            }
            while round.len() < round_len {
                let (a, b) = model.live_edge(&mut rng);
                if owner(seed, a, b) == 2 {
                    round.push(Request::Kappa(a, b));
                }
            }
            rng.shuffle(&mut round);
            round
        })
        .collect()
}

/// A running `tkc serve` child. Dropping it kills and reaps the process.
pub(crate) struct ServerProc {
    child: Child,
    pub(crate) addr: String,
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    pub(crate) fn start(
        tkc: &Path,
        dir: &Path,
        trace_out: Option<&Path>,
    ) -> Result<ServerProc, String> {
        let mut cmd = Command::new(tkc);
        cmd.arg("serve").arg(dir).args(["--addr", "127.0.0.1:0"]);
        if let Some(p) = trace_out {
            cmd.arg("--trace-out").arg(p);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("{}: {e}", tkc.display()))?;
        let stdout = child.stdout.take().ok_or("server stdout")?;
        let mut lines = BufReader::new(stdout).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.map_err(|e| e.to_string())?;
            if let Some(a) = line.strip_prefix("tkc-engine listening on ") {
                addr = Some(a.trim().to_string());
                break;
            }
        }
        // Keep reading so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
        let mut server = ServerProc {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        server.addr = addr.ok_or("server exited before listening")?;
        Ok(server)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    pub(crate) fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Graceful stop: `SHUTDOWN` (the server compacts), then reap.
    pub(crate) fn shutdown(mut self) -> Result<(), String> {
        let reply = self.connect()?.send("SHUTDOWN")?;
        if reply != "OK shutting down" {
            return Err(format!("SHUTDOWN: {reply}"));
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(d) = self.drain.take() {
            d.join().ok();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
        }
        self.child.wait().ok();
        if let Some(d) = self.drain.take() {
            d.join().ok();
        }
    }
}

/// One line-protocol connection.
pub(crate) struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the first reply line.
    pub(crate) fn send(&mut self, request: &str) -> Result<String, String> {
        let mut buf = String::with_capacity(request.len() + 1);
        buf.push_str(request);
        buf.push('\n');
        self.writer
            .write_all(buf.as_bytes())
            .map_err(|e| e.to_string())?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err(format!("{request}: connection closed"));
        }
        Ok(self.line.trim_end().to_string())
    }

    /// Sends a request whose reply is a block ending in a `.` line.
    pub(crate) fn send_block(&mut self, request: &str) -> Result<String, String> {
        let first = self.send(request)?;
        if first != "OK" {
            return Err(format!("{request}: {first}"));
        }
        let mut block = String::new();
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| e.to_string())?;
            if n == 0 || self.line.trim_end() == "." {
                return Ok(block);
            }
            block.push_str(&self.line);
        }
    }
}

/// What one connection saw in one phase.
#[derive(Debug, Default)]
pub(crate) struct ConnResult {
    /// Round-trip times in ms, by kind.
    pub(crate) kappa: Vec<f64>,
    maxk: Vec<f64>,
    truss: Vec<f64>,
    pub(crate) write: Vec<f64>,
    rounds: usize,
    pub(crate) failed: u64,
    pub(crate) errors: Vec<String>,
}

impl ConnResult {
    pub(crate) fn requests(&self) -> usize {
        self.kappa.len() + self.maxk.len() + self.truss.len() + self.write.len()
    }
}

/// Runs whole rounds `script[from..]` until the run's time is up (at
/// least `min_rounds`).
pub(crate) fn drive(
    addr: &str,
    script: &[Vec<Request>],
    from: usize,
    o: &Opts,
    start: Instant,
    truss_turn: &Mutex<()>,
) -> Result<ConnResult, String> {
    let mut conn = Conn::open(addr)?;
    let mut r = ConnResult::default();
    while r.rounds < o.scale.min_rounds() || start.elapsed().as_secs_f64() < o.seconds {
        let Some(round) = script.get(from + r.rounds) else {
            break;
        };
        for &req in round {
            let line = req.line();
            // One `TRUSS` in flight at a time across the connections.
            let _turn = (req.kind() == Kind::Truss)
                .then(|| truss_turn.lock().unwrap_or_else(|p| p.into_inner()));
            let t = Instant::now();
            let reply = conn.send(&line)?;
            let rtt = ms(t.elapsed());
            match req.kind() {
                Kind::Kappa => r.kappa.push(rtt),
                Kind::MaxK => r.maxk.push(rtt),
                Kind::Truss => r.truss.push(rtt),
                Kind::Write => r.write.push(rtt),
            }
            if !req.accepts(&reply) {
                r.failed += 1;
                if r.errors.len() < 5 {
                    r.errors.push(format!("{line} → {reply}"));
                }
            }
        }
        r.rounds += 1;
    }
    Ok(r)
}

/// One phase: both connections, concurrently, from their next rounds.
struct Phase {
    conns: Vec<ConnResult>,
    wall: Duration,
    /// CPU time the server used over the phase, s.
    server_cpu_s: f64,
}

impl Phase {
    fn all(&self, pick: impl Fn(&ConnResult) -> &Vec<f64>) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| pick(c).iter().copied())
            .collect()
    }
    fn requests(&self) -> usize {
        self.conns.iter().map(ConnResult::requests).sum()
    }
    fn end_to_end(&self) -> EndToEnd {
        let requests = self.requests() as f64;
        EndToEnd {
            cpu_ms_per_op: self.server_cpu_s * 1e3 / requests,
            slow_op_ms: median(&mut self.all(|c| &c.truss)),
            ops_per_s: requests / self.wall.as_secs_f64(),
        }
    }
}

fn phase(
    server: &ServerProc,
    scripts: &[Vec<Vec<Request>>],
    done: &mut [usize],
    o: &Opts,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let truss_turn = &Mutex::new(());
    let addr = server.addr.as_str();
    let cpu = cpu_s(Some(server.pid()))?;
    let start = Instant::now();
    let results: Vec<Result<ConnResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .zip(done.iter())
            .map(|(script, &from)| s.spawn(move || drive(addr, script, from, o, start, truss_turn)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();
    let server_cpu_s = cpu_s(Some(server.pid()))? - cpu;
    let mut conns = Vec::new();
    for (r, d) in results.into_iter().zip(done.iter_mut()) {
        let r = r?;
        *d += r.rounds;
        out.attempted += r.requests() as u64;
        out.failed += r.failed;
        for e in &r.errors {
            out.check(false, || format!("unexpected reply: {e}"));
        }
        conns.push(r);
    }
    Ok(Phase {
        conns,
        wall,
        server_cpu_s,
    })
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let work = o.scratch("serve")?;
    let result = run_in(o, &work);
    std::fs::remove_dir_all(&work).ok();
    result
}

fn run_in(o: &Opts, work: &Path) -> Result<Outcome, String> {
    let tkc = o
        .tkc
        .as_deref()
        .ok_or("serve needs --tkc <path to the tkc binary>")?;
    let state = work.join("state");
    let model = EdgeModel::streamed(&o.scale.streamed(o.seed));
    let phases = if o.trace { 2 } else { 1 };
    let scripts: Vec<Vec<Vec<Request>>> = (0..CONNS)
        .map(|c| {
            script(
                &model,
                o.seed,
                c,
                o.scale.serve_round(),
                o.scale.serve_rounds() * phases,
            )
        })
        .collect();

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        // Earlier set-ups are discarded: killed, not shut down.
        drop(server.take());
        if state.exists() {
            std::fs::remove_dir_all(&state).map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        prepare_in_child(o.scale, o.seed, &state, None)?;
        let s = ServerProc::start(tkc, &state, None)?;
        let pong = s.connect()?.send("PING")?;
        if pong != "OK pong" {
            return Err(format!("PING: {pong}"));
        }
        setups.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let mut server = server.ok_or("no set-up ran")?;
    log("set-up done");

    let mut out = Outcome::default();
    let mut done = vec![0usize; CONNS];
    let a = phase(&server, &scripts, &mut done, o, &mut out)?;
    let rss = peak_rss_mb(Some(server.pid()))?;
    log("rounds done");

    if o.trace {
        server.shutdown()?;
        let trace_out: PathBuf = work.join("trace.jsonl");
        server = ServerProc::start(tkc, &state, Some(&trace_out))?;
        let b = phase(&server, &scripts, &mut done, o, &mut out)?;
        a.end_to_end().report_traced(&b.end_to_end(), &mut out);
    } else {
        a.end_to_end().report(median(&mut setups), rss, &mut out);
    }

    let expected = expected_graph(&model, &scripts, &done);
    drop(model);
    let d = Decomposition::compute(&expected);
    log("checking");
    // The certificate runs beside the reply checks: nothing is timed now.
    let (cert, replies) = std::thread::scope(|s| {
        let cert = s.spawn(|| {
            KappaCertificate::new(&expected, d.kappa_slice())
                .check()
                .is_ok()
        });
        let replies = check_replies(o, &server, &expected, &d, &mut out);
        (cert.join().unwrap_or(false), replies)
    });
    replies?;
    out.check(cert, || {
        "κ of the expected final graph fails the certificate".into()
    });
    log("checks done");
    server.shutdown()?;
    if o.trace {
        drop((expected, d));
        probes::run(o, &mut out)?;
    }
    Ok(out)
}

/// The initial edges, minus every removal and plus every insert of the
/// rounds each connection completed.
fn expected_graph(model: &EdgeModel, scripts: &[Vec<Vec<Request>>], done: &[usize]) -> Graph {
    let mut m = model.clone();
    for (script, &rounds) in scripts.iter().zip(done) {
        for req in script[..rounds].iter().flatten() {
            match *req {
                Request::Insert(a, b) => {
                    m.insert(a, b);
                }
                Request::Remove(a, b) => {
                    m.remove(a, b);
                }
                _ => {}
            }
        }
    }
    let edges = m.keys().into_iter().map(|k| ((k >> 32) as u32, k as u32));
    Graph::from_edges(m.num_vertices(), edges)
}

/// After a final `EPOCH`: sampled `KAPPA`, `MAXK` and every `TRUSS k`
/// reply must equal what the certified κ of the expected graph gives.
fn check_replies(
    o: &Opts,
    server: &ServerProc,
    g: &Graph,
    d: &Decomposition,
    out: &mut Outcome,
) -> Result<(), String> {
    let kg = KappaGraph::new(
        g.edges().map(|(_, u, v)| (u.0, v.0)).collect(),
        g.edge_ids().map(|e| d.kappa(e)).collect(),
    );
    let mut conn = server.connect()?;
    let epoch = conn.send("EPOCH")?;
    out.check(epoch.starts_with("OK "), || format!("EPOCH: {epoch}"));
    let edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
    let mut rng = Rng::new(o.seed, SAMPLE_STREAM);
    for _ in 0..KAPPA_SAMPLES.min(edges.len()) {
        let (u, v) = edges[rng.below(edges.len())];
        let reply = conn.send(&format!("KAPPA {u} {v}"))?;
        let want = format!("OK {}", kg.kappa(u, v).unwrap_or(u32::MAX));
        out.check(reply == want, || {
            format!("KAPPA {u} {v}: {reply}, expected {want}")
        });
    }
    let reply = conn.send("MAXK")?;
    let want = format!("OK {}", kg.max_kappa());
    out.check(reply == want, || format!("MAXK: {reply}, expected {want}"));
    for k in TRUSS_LEVELS {
        let reply = conn.send(&format!("TRUSS {k}"))?;
        let TrussCount {
            cores,
            edges,
            vertices,
        } = kg.truss(k);
        let want = format!("OK cores={cores} edges={edges} vertices={vertices}");
        out.check(reply == want, || {
            format!("TRUSS {k}: {reply}, expected {want}")
        });
    }
    Ok(())
}

/// Mean of the server's `tkc_server_command_seconds` histogram for `verb`,
/// from its exact `_sum` and `_count`, in ms.
pub(crate) fn histogram_mean_ms(metrics: &str, verb: &str) -> f64 {
    let value = |series: &str| {
        let prefix = format!("tkc_server_command_seconds_{series}{{cmd=\"{verb}\"}} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .and_then(|v| v.trim().parse::<f64>().ok())
    };
    match (value("sum"), value("count")) {
        (Some(sum), Some(count)) if count > 0.0 => sum / count * 1e3,
        _ => 0.0,
    }
}

/// Median of the server's `tkc_server_command_seconds` histogram over the
/// given verbs, interpolated within its log2 buckets, in ms.
pub(crate) fn histogram_p50_ms(metrics: &str, verbs: &[&str]) -> f64 {
    // Per-bucket counts keyed by upper bound (seconds, as bits for order).
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    for verb in verbs {
        let prefix = format!("tkc_server_command_seconds_bucket{{cmd=\"{verb}\",le=\"");
        let mut prev = 0u64;
        for line in metrics.lines() {
            let Some(rest) = line.strip_prefix(&prefix) else {
                continue;
            };
            let Some((le, count)) = rest.split_once("\"} ") else {
                continue;
            };
            let (Ok(le), Ok(cum)) = (le.parse::<f64>(), count.trim().parse::<u64>()) else {
                continue; // the +Inf line
            };
            *buckets.entry(le.to_bits()).or_default() += cum - prev;
            prev = cum;
        }
    }
    let total: u64 = buckets.values().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = total.div_ceil(2);
    let mut cum = 0;
    let mut lo = None;
    for (&bits, &c) in &buckets {
        let hi = f64::from_bits(bits);
        if cum + c >= rank {
            let lo = lo.unwrap_or(hi / 2.0);
            return (lo + (rank - cum) as f64 / c as f64 * (hi - lo)) * 1e3;
        }
        cum += c;
        lo = Some(hi);
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkc_datasets::streamed::StreamedConfig;

    #[test]
    fn scripts_split_writes_by_owner_and_keep_the_mix() {
        let cfg = StreamedConfig::small(5);
        let model = EdgeModel::streamed(&cfg);
        let s0 = script(&model, 5, 0, 300, 4);
        let s1 = script(&model, 5, 1, 300, 4);
        assert_eq!(s0, script(&model, 5, 0, 300, 4));
        let mut written = HashSet::new();
        for (c, s) in [(0, &s0), (1, &s1)] {
            for round in s {
                assert_eq!(round.len(), 300);
                let truss: Vec<u32> = round
                    .iter()
                    .filter_map(|r| {
                        if let Request::Truss(k) = r {
                            Some(*k)
                        } else {
                            None
                        }
                    })
                    .collect();
                assert_eq!(truss.len(), TRUSS_LEVELS.len());
                for r in round {
                    match *r {
                        Request::Insert(a, b) => {
                            assert_eq!(owner(5, a, b), c);
                            assert!(!model.has(a, b));
                            assert!(written.insert(edge_key(a, b)));
                        }
                        Request::Remove(a, b) => {
                            assert_eq!(owner(5, a, b), c);
                            assert!(model.has(a, b));
                            assert!(written.insert(edge_key(a, b)));
                        }
                        Request::Kappa(a, b) => {
                            assert_eq!(owner(5, a, b), 2);
                            assert!(model.has(a, b));
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn server_histogram_median_interpolates_buckets_and_mean_is_exact() {
        let text = "tkc_server_command_seconds_bucket{cmd=\"KAPPA\",le=\"0.000001\"} 2\n\
                    tkc_server_command_seconds_bucket{cmd=\"KAPPA\",le=\"0.000002\"} 6\n\
                    tkc_server_command_seconds_bucket{cmd=\"KAPPA\",le=\"+Inf\"} 6\n\
                    tkc_server_command_seconds_sum{cmd=\"KAPPA\"} 0.000009\n\
                    tkc_server_command_seconds_count{cmd=\"KAPPA\"} 6\n";
        // Rank 3 of 6 sits 1/4 into the (1µs, 2µs] bucket.
        let p50 = histogram_p50_ms(text, &["KAPPA"]);
        assert!((p50 - 1.25e-3).abs() < 1e-12, "{p50}");
        assert_eq!(histogram_p50_ms(text, &["TRUSS"]), 0.0);
        let mean = histogram_mean_ms(text, "KAPPA");
        assert!((mean - 1.5e-3).abs() < 1e-12, "{mean}");
        assert_eq!(histogram_mean_ms(text, "TRUSS"), 0.0);
    }
}
