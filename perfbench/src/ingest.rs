//! `ingest`: the durable write path. One thread applies single-op
//! `Engine::apply` writes in a closed loop, in segments; after each
//! segment the engine is dropped without compaction (a crash), reopened
//! with WAL replay, and compacted.

use std::path::Path;
use std::time::Instant;

use tkc_engine::{Engine, EngineConfig, WalOp};
use tkc_obs::TraceBuffer;
use tkc_verify::KappaCertificate;

use crate::model::{fingerprint, EdgeModel};
use crate::prepare::{prepare_in_child, read_ops};
use crate::util::{cpu_s, edge_key, log, median, ms, peak_rss_mb, timed, Outcome};
use crate::{probes, EndToEnd, Opts, SETUPS};

/// Segments one phase may run at most (the op file holds this many).
const MAX_SEGMENTS: usize = 8;

/// What one phase of write segments measured.
#[derive(Debug, Default)]
struct Phase {
    /// Writes per second of each segment.
    rates: Vec<f64>,
    /// CPU time per write of each segment, ms.
    cpu_per_write: Vec<f64>,
    /// Latency of each write that carried an epoch publish, ms.
    publishing: Vec<f64>,
}

impl Phase {
    fn end_to_end(&self) -> EndToEnd {
        EndToEnd {
            cpu_ms_per_op: median(&mut self.cpu_per_write.clone()),
            slow_op_ms: median(&mut self.publishing.clone()),
            ops_per_s: median(&mut self.rates.clone()),
        }
    }
}

pub(crate) fn open(dir: &Path) -> Result<Engine, String> {
    // `tkc serve`'s defaults: fsync on, an epoch every 256 ops, 4 MiB
    // compaction threshold.
    Engine::open(EngineConfig::new(dir)).map_err(|e| format!("open {}: {e}", dir.display()))
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let work = o.scratch("ingest")?;
    let result = run_in(o, &work);
    std::fs::remove_dir_all(&work).ok();
    result
}

fn run_in(o: &Opts, work: &Path) -> Result<Outcome, String> {
    let seg = o.scale.segment_ops();
    let phases = if o.trace { 2 } else { 1 };
    let total_ops = seg * MAX_SEGMENTS * phases;
    let state = work.join("state");
    let ops_file = work.join("ops.bin");

    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        if state.exists() {
            std::fs::remove_dir_all(&state).map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        prepare_in_child(o.scale, o.seed, &state, Some((total_ops, &ops_file)))?;
        engine = Some(open(&state)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut engine = engine.ok_or("no set-up ran")?;
    let ops = read_ops(&ops_file)?;
    log("set-up done");

    let mut out = Outcome::default();
    let mut used = 0;
    let (a, e) = segments(engine, &state, &ops, &mut used, o, &mut out)?;
    engine = e;
    let rss = peak_rss_mb(None)?;
    log("write segments done");

    if o.trace {
        TraceBuffer::global().set_enabled(true);
        let phase_b = segments(engine, &state, &ops, &mut used, o, &mut out);
        TraceBuffer::global().set_enabled(false);
        let (b, e) = phase_b?;
        engine = e;
        log("traced write segments done");
        a.end_to_end().report_traced(&b.end_to_end(), &mut out);
    } else {
        a.end_to_end().report(median(&mut setups), rss, &mut out);
    }
    check_final(o, &state, engine, &ops[..used], &mut out)?;
    if o.trace {
        probes::run(o, &mut out)?;
    }
    Ok(out)
}

/// Runs whole segments from `ops[*used..]` until the run's time is up
/// (at least `min_segments`).
fn segments(
    mut engine: Engine,
    state: &Path,
    ops: &[WalOp],
    used: &mut usize,
    o: &Opts,
    out: &mut Outcome,
) -> Result<(Phase, Engine), String> {
    let seg = o.scale.segment_ops();
    let mut p = Phase::default();
    let start = Instant::now();
    let mut n = 0;
    while n < MAX_SEGMENTS
        && (n < o.scale.min_segments() || start.elapsed().as_secs_f64() < o.seconds)
    {
        let chunk = ops.get(*used..*used + seg).ok_or("op stream exhausted")?;
        let mut latencies = Vec::with_capacity(seg);
        let cpu = cpu_s(None)?;
        let t_seg = Instant::now();
        for op in chunk {
            let epochs = engine.metrics().epochs_published.get();
            let t = Instant::now();
            let r = engine.apply(std::slice::from_ref(op));
            let latency = ms(t.elapsed());
            latencies.push(latency);
            if engine.metrics().epochs_published.get() != epochs {
                p.publishing.push(latency);
            }
            out.attempted += 1;
            match r {
                Ok(rep) if rep.inserted + rep.removed == 1 => {}
                Ok(_) => {
                    out.failed += 1;
                    out.check(false, || format!("{op:?} was a no-op"));
                }
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("{op:?}: {e}"));
                }
            }
        }
        p.rates
            .push(chunk.len() as f64 / t_seg.elapsed().as_secs_f64());
        p.cpu_per_write
            .push((cpu_s(None)? - cpu) * 1e3 / chunk.len() as f64);
        *used += chunk.len();

        // The segment ends on an epoch, so the published snapshot holds
        // every write. Crash: drop without compaction.
        let before = fingerprint(&engine.snapshot());
        drop(engine);
        let (reopened, recover) = timed(|| open(state));
        engine = reopened?;
        let after = fingerprint(&engine.snapshot());
        out.check(before == after, || {
            format!("κ changed across crash-restart: {before:?} → {after:?}")
        });
        let (r, compact) = timed(|| engine.compact());
        r.map_err(|e| format!("compact: {e}"))?;
        out.attempted += 2;
        n += 1;
        log(&format!(
            "segment {n}: {:.0} writes/s, {:.3} CPU ms/write, p50 {:.3} ms, \
             publishing write {:.1} ms, recover {:.3} s, compact {:.3} s",
            p.rates[n - 1],
            p.cpu_per_write[n - 1],
            median(&mut latencies),
            p.publishing.last().copied().unwrap_or(0.0),
            recover.as_secs_f64(),
            compact.as_secs_f64()
        ));
    }
    Ok((p, engine))
}

/// Checks made apart from the program, after the timed phases: the
/// compacted state reopens to the same κ, the final edge set is the
/// model's, and the final κ passes the certificate.
fn check_final(
    o: &Opts,
    state: &Path,
    engine: Engine,
    applied: &[WalOp],
    out: &mut Outcome,
) -> Result<(), String> {
    log("checking");
    let before = fingerprint(&engine.snapshot());
    drop(engine);
    let engine = open(state)?;
    let snap = engine.snapshot();
    let after = fingerprint(&snap);
    out.check(before == after, || {
        format!("κ changed across compaction + reopen: {before:?} → {after:?}")
    });

    let g = snap.graph();
    // The certificate runs beside the model check: nothing is timed now.
    let (cert, want) = std::thread::scope(|s| {
        let cert = s.spawn(|| {
            KappaCertificate::new(g, snap.decomposition().kappa_slice())
                .check()
                .is_ok()
        });
        let mut model = EdgeModel::streamed(&o.scale.streamed(o.seed));
        for &op in applied {
            model.apply(op);
        }
        (cert.join().unwrap_or(false), model.keys())
    });
    let mut keys: Vec<u64> = g.edges().map(|(_, u, v)| edge_key(u.0, v.0)).collect();
    keys.sort_unstable();
    out.check(keys == want, || {
        format!(
            "final edge set differs from the model ({} vs {} edges)",
            keys.len(),
            want.len()
        )
    });
    out.check(cert, || "final κ fails the certificate".into());
    log("checks done");
    Ok(())
}
