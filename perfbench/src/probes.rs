//! The per-layer probes of every traced run. Each layer's public functions
//! are timed from the benchmark's own code on the seed's initial streamed
//! graph, its power-law graph and one segment of its ingest op stream, so
//! each per-layer metric is the same measurement in every workload's
//! traced run. Nothing here is timed against the workload's own phase.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use tkc_core::decompose::{triangle_kcore_decomposition_timed, Decomposition};
use tkc_core::dynamic::{DynamicTriangleKCore, UpdateStats};
use tkc_core::extract::cores_at_level;
use tkc_core::persist::write_state_tagged;
use tkc_engine::proto::parse_command;
use tkc_engine::{Wal, WalOp, STATE_FILE, STORE_FILE};
use tkc_graph::csr::{edge_supports_csr, triangle_count_csr};
use tkc_graph::{CsrGraph, Graph, VertexId};
use tkc_store::cache::PageCacheConfig;
use tkc_store::StoreReader;

use crate::analytics::POWERLAW_STREAM;
use crate::ingest::open;
use crate::model::{fingerprint, EdgeModel};
use crate::prepare::{prepare_in_child, read_ops};
use crate::serve::{drive, histogram_mean_ms, histogram_p50_ms, script, ServerProc, TRUSS_LEVELS};
use crate::util::{dir_bytes, median, mix, ms, quantile, timed, Outcome};
use crate::Opts;

/// Repetitions of each single-call probe; the metric is their median.
const PROBE_REPS: usize = 3;

/// Runs every probe and adds its per-layer metrics to `out`.
pub fn run(o: &Opts, out: &mut Outcome) -> Result<(), String> {
    let work = o.scratch("probes")?;
    let result = run_in(o, &work, out);
    std::fs::remove_dir_all(&work).ok();
    result
}

fn run_in(o: &Opts, work: &Path, out: &mut Outcome) -> Result<(), String> {
    crate::util::log("probing layers");
    let state = work.join("state");
    let ops_file = work.join("ops.bin");
    prepare_in_child(
        o.scale,
        o.seed,
        &state,
        Some((o.scale.segment_ops(), &ops_file)),
    )?;
    let ops = read_ops(&ops_file)?;
    // The server gets a copy: the engine probe writes into `state`.
    let served = work.join("served");
    std::fs::create_dir_all(&served).map_err(|e| e.to_string())?;
    for name in [STORE_FILE, STATE_FILE] {
        std::fs::copy(state.join(name), served.join(name))
            .map_err(|e| format!("copy {name}: {e}"))?;
    }

    kernels(o, work, &state, &ops, out)?;
    engine(&state, &ops, out)?;
    server(o, &served, out)?;
    crate::util::log("probes done");
    Ok(())
}

/// Median wall time of `PROBE_REPS` calls of `f`, in ms. Results are
/// dropped after the clock stops.
fn probe_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut t: Vec<f64> = (0..PROBE_REPS)
        .map(|_| ms(timed(|| std::hint::black_box(f())).1))
        .collect();
    median(&mut t)
}

/// The in-process layers: store, persist, publish parts, decomposition,
/// extraction, the bare maintainer and the WAL.
fn kernels(
    o: &Opts,
    work: &Path,
    state: &Path,
    ops: &[WalOp],
    out: &mut Outcome,
) -> Result<(), String> {
    // store: what a reopen reads.
    let store = state.join(STORE_FILE);
    let (g, kappa) = load_store(&store)?;
    out.metric("store.load_ms", probe_ms(|| load_store(&store)), "ms");

    // engine publish, part by part: what `snapshot_of` does per epoch.
    out.metric("engine.publish_clone_ms", probe_ms(|| g.clone()), "ms");
    out.metric(
        "engine.publish_kappa_view_ms",
        probe_ms(|| Decomposition::from_kappa(&g, kappa.clone())),
        "ms",
    );
    out.metric(
        "engine.publish_freeze_ms",
        probe_ms(|| CsrGraph::freeze(&g)),
        "ms",
    );

    // store and persist: what a compaction writes.
    let edges = g.num_edges() as f64;
    out.metric(
        "store.supports_ms",
        probe_ms(|| edge_supports_csr(&g)),
        "ms",
    );
    let supports = edge_supports_csr(&g);
    let store_path = work.join("probe.tkcstor");
    let pack = || -> Result<String, String> {
        let parts =
            tkc_store::pack_graph(&g, &supports, Some(&kappa)).map_err(|e| e.to_string())?;
        parts.write_path(&store_path).map_err(|e| e.to_string())?;
        Ok(parts.stamp())
    };
    let stamp = pack()?;
    out.metric("store.pack_ms", probe_ms(pack), "ms");
    let text_path = work.join("probe.tkc");
    let write_text = || -> Result<(), String> {
        let f = std::fs::File::create(&text_path).map_err(|e| e.to_string())?;
        write_state_tagged(&g, &kappa, Some(&stamp), 0, 0, &f)
            .and_then(|()| f.sync_all())
            .map_err(|e| e.to_string())
    };
    write_text()?;
    out.metric("persist.text_state_write_ms", probe_ms(write_text), "ms");
    let size = |p: &Path| {
        std::fs::metadata(p)
            .map(|m| m.len() as f64)
            .map_err(|e| e.to_string())
    };
    out.metric("store.bytes_per_edge", size(&store_path)? / edges, "B");
    out.metric(
        "persist.text_state_bytes_per_edge",
        size(&text_path)? / edges,
        "B",
    );

    // decompose, peel_parallel and csr: the batch kernels, by phase.
    let powerlaw = o.scale.powerlaw(mix(o.seed ^ POWERLAW_STREAM));
    for (name, graph) in [("streamed", &g), ("powerlaw", &powerlaw)] {
        let mut phases = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..PROBE_REPS {
            let (d, t) = triangle_kcore_decomposition_timed(graph, 1);
            if name == "streamed" {
                out.check(d.kappa_slice() == kappa.as_slice(), || {
                    "timed decomposition disagrees with the packed κ".into()
                });
            }
            phases[0].push(ms(t.freeze));
            phases[1].push(ms(t.supports));
            phases[2].push(ms(t.peel));
        }
        for (phase, mut v) in ["freeze", "supports", "peel"].into_iter().zip(phases) {
            out.metric(format!("decompose.{name}.{phase}_ms"), median(&mut v), "ms");
        }
        out.metric(
            format!("decompose.{name}.triangles"),
            triangle_count_csr(graph) as f64,
            "count",
        );
        out.metric(
            format!("decompose.{name}.wedge_work"),
            graph.wedge_work() as f64,
            "count",
        );
    }
    drop(powerlaw);

    // extract: each `TRUSS` level of `serve`.
    let d = Decomposition::from_kappa(&g, kappa.clone());
    for k in TRUSS_LEVELS {
        out.metric(
            format!("extract.cores_at_level_ms.k{k}"),
            probe_ms(|| cores_at_level(&g, &d, k)),
            "ms",
        );
    }
    drop(d);

    // dynamic: the maintainer with no WAL or publish.
    let (us_per_op, stats) = replay_dynamic(g.clone(), kappa.clone(), ops)?;
    let n = ops.len() as f64;
    out.metric("dynamic.us_per_op", us_per_op, "us");
    out.metric(
        "dynamic.triangles_per_op",
        (stats.triangles_added + stats.triangles_removed) as f64 / n,
        "count",
    );
    out.metric(
        "dynamic.levels_per_op",
        (stats.promotions + stats.demotions) as f64 / n,
        "count",
    );
    out.metric(
        "dynamic.edges_examined_per_op",
        stats.edges_examined as f64 / n,
        "count",
    );

    // wal: the ops appended one at a time to a fresh fsynced log, then
    // the log replayed through the maintainer as a reopen does.
    let wal_path = work.join("probe.wal");
    let (mut wal, _) = Wal::open(&wal_path, true).map_err(|e| e.to_string())?;
    let (mut append_us, mut fsync_us, mut bytes) = (Vec::new(), Vec::new(), 0u64);
    for op in ops {
        let (info, d) = timed(|| wal.append_with(std::slice::from_ref(op)));
        let info = info.map_err(|e| e.to_string())?;
        append_us.push(d.as_secs_f64() * 1e6);
        fsync_us.push(info.fsync.as_secs_f64() * 1e6);
        bytes += info.bytes;
    }
    drop(wal);
    out.metric("wal.append_p50_us", median(&mut append_us), "us");
    out.metric("wal.fsync_p50_us", median(&mut fsync_us), "us");
    out.metric("wal.bytes_per_op", bytes as f64 / n, "B");
    let mut core = DynamicTriangleKCore::from_parts(g, kappa);
    let (replayed, d) = timed(|| -> Result<usize, String> {
        let (_, rec) = Wal::open(&wal_path, true).map_err(|e| e.to_string())?;
        for &op in &rec.ops {
            apply_op(&mut core, op)?;
        }
        Ok(rec.ops.len())
    });
    let replayed = replayed?;
    out.check(replayed == ops.len(), || {
        format!("the log replayed {replayed} of {} ops", ops.len())
    });
    out.metric("engine.wal_replay_ms", ms(d), "ms");
    Ok(())
}

/// The durable engine on the packed state: single-op writes (with their
/// epoch publishes), a crash and reopens that replay the log, compaction.
fn engine(state: &Path, ops: &[WalOp], out: &mut Outcome) -> Result<(), String> {
    let engine = open(state)?;
    let epochs = engine.metrics().epochs_published.get();
    let mut writes = Vec::new();
    for op in ops {
        let (r, d) = timed(|| engine.apply(std::slice::from_ref(op)));
        writes.push(ms(d));
        out.attempted += 1;
        let took_effect = matches!(&r, Ok(rep) if rep.inserted + rep.removed == 1);
        if !took_effect {
            out.failed += 1;
            out.check(false, || format!("engine probe: {op:?} → {r:?}"));
        }
    }
    let epochs = engine.metrics().epochs_published.get() - epochs;
    out.metric("engine.write_p50_ms", median(&mut writes), "ms");
    out.metric(
        "engine.epochs_per_kop",
        epochs as f64 * 1000.0 / ops.len() as f64,
        "1/kop",
    );
    out.metric("engine.publish_ms", probe_ms(|| engine.publish()), "ms");

    // Crash: drop without compaction. Each reopen replays the same log.
    let before = fingerprint(&engine.snapshot());
    drop(engine);
    let mut recover = Vec::new();
    let mut engine = None;
    for _ in 0..PROBE_REPS {
        drop(engine.take());
        let (e, d) = timed(|| open(state));
        engine = Some(e?);
        recover.push(ms(d));
    }
    let engine = engine.ok_or("no reopen ran")?;
    let after = fingerprint(&engine.snapshot());
    out.check(before == after, || {
        format!("engine probe: κ changed across crash-restart: {before:?} → {after:?}")
    });
    out.metric("engine.recover_ms", median(&mut recover), "ms");
    let mut compact = Vec::new();
    for _ in 0..PROBE_REPS {
        let (r, d) = timed(|| engine.compact());
        r.map_err(|e| format!("compact: {e}"))?;
        compact.push(ms(d));
    }
    out.metric("engine.compact_ms", median(&mut compact), "ms");
    out.metric(
        "engine.disk_bytes_per_edge",
        dir_bytes(state)? as f64 / engine.snapshot().num_edges() as f64,
        "B",
    );
    Ok(())
}

/// `tkc serve` on a copy of the packed state: one connection sends one
/// round of connection 0's `serve` script; the server's own per-command
/// histograms split each round trip into server and unattributed time.
fn server(o: &Opts, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let tkc = o
        .tkc
        .as_deref()
        .ok_or("the server probe needs --tkc <path to the tkc binary>")?;
    let model = EdgeModel::streamed(&o.scale.streamed(o.seed));
    let burst = script(&model, o.seed, 0, o.scale.serve_round(), 1);
    drop(model);
    let server = ServerProc::start(tkc, dir, None)?;
    let r = drive(&server.addr, &burst, 0, o, Instant::now(), &Mutex::new(()))?;
    out.attempted += r.requests() as u64;
    out.failed += r.failed;
    for e in &r.errors {
        out.check(false, || format!("server probe: unexpected reply: {e}"));
    }
    let metrics = server.connect()?.send_block("METRICS")?;
    server.shutdown()?;

    let server_kappa = histogram_p50_ms(&metrics, &["KAPPA"]);
    out.metric("server.kappa_p50_ms", server_kappa, "ms");
    // One `TRUSS` per level: too few for a median within log2 buckets.
    out.metric(
        "server.truss_mean_ms",
        histogram_mean_ms(&metrics, "TRUSS"),
        "ms",
    );
    out.metric(
        "server.write_p50_ms",
        histogram_p50_ms(&metrics, &["INSERT", "REMOVE"]),
        "ms",
    );
    let (mut kappa, mut write) = (r.kappa, r.write);
    let client_kappa = median(&mut kappa);
    out.metric(
        "server.kappa_unattributed_p50_ms",
        client_kappa - server_kappa,
        "ms",
    );
    out.metric("client.kappa_p50_ms", client_kappa, "ms");
    out.metric("client.kappa_p99_ms", quantile(&mut kappa, 0.99), "ms");
    out.metric("client.write_p50_ms", median(&mut write), "ms");
    out.metric("client.write_p99_ms", quantile(&mut write, 0.99), "ms");

    // proto: the parser over the round's request lines, in blocks.
    let lines: Vec<String> = burst.iter().flatten().map(|r| r.line()).collect();
    let mut per_parse = Vec::new();
    for _ in 0..10 {
        for block in lines.chunks(1000) {
            let t = Instant::now();
            for line in block {
                std::hint::black_box(parse_command(std::hint::black_box(line)));
            }
            per_parse.push(t.elapsed().as_secs_f64() * 1e9 / block.len() as f64);
        }
    }
    out.metric("proto.parse_ns", median(&mut per_parse), "ns");
    Ok(())
}

fn load_store(path: &Path) -> Result<(Graph, Vec<u32>), String> {
    let reader = StoreReader::open(path, PageCacheConfig::default()).map_err(|e| e.to_string())?;
    let g = reader.load_graph().map_err(|e| e.to_string())?;
    let kappa = reader.read_kappa().map_err(|e| e.to_string())?;
    Ok((g, kappa))
}

fn apply_op(core: &mut DynamicTriangleKCore, op: WalOp) -> Result<(), String> {
    let r = match op {
        WalOp::Insert(a, b) => core.insert_edge(VertexId(a), VertexId(b)).map(|_| ()),
        WalOp::Remove(a, b) => core
            .remove_edge_between(VertexId(a), VertexId(b))
            .map(|_| ()),
        WalOp::AddVertices(n) => {
            core.add_vertices(n as usize);
            Ok(())
        }
    };
    r.map_err(|e| format!("{op:?}: {e}"))
}

/// Replays `ops` through the bare maintainer in blocks of 256 and returns
/// the median per-op time of a block, in µs, with the maintainer's
/// counters over all ops.
fn replay_dynamic(g: Graph, kappa: Vec<u32>, ops: &[WalOp]) -> Result<(f64, UpdateStats), String> {
    let mut core = DynamicTriangleKCore::from_parts(g, kappa);
    core.reset_stats();
    let mut per_op = Vec::new();
    for block in ops.chunks(256) {
        let t = Instant::now();
        for &op in block {
            apply_op(&mut core, op)?;
        }
        per_op.push(t.elapsed().as_secs_f64() * 1e6 / block.len() as f64);
    }
    Ok((median(&mut per_op), core.stats()))
}
