//! Set-up shared by `ingest` and `serve`: pack the streamed graph into an
//! engine state directory (the same store + stamped snapshot pair a
//! compaction leaves), and write the ingest op stream.
//!
//! Runs in a child process of its own, so the generator's and the
//! decomposition's memory never counts towards the peak RSS of the
//! process that holds the engine.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::process::Command;

use tkc_core::decompose::Decomposition;
use tkc_core::persist::write_state_with_store;
use tkc_engine::{WalOp, STATE_FILE, STORE_FILE};
use tkc_graph::csr::edge_supports_csr;

use crate::model::{ingest_ops, EdgeModel};
use crate::util::Rng;
use crate::Scale;

/// Seed stream of the ingest op stream.
const OPS_STREAM: u64 = 2;

/// Packs `scale.streamed(seed)` into the engine state directory `dir`
/// and, when asked, writes `n` ingest ops to `ops_file`.
pub fn prepare(
    scale: Scale,
    seed: u64,
    dir: &Path,
    ops: Option<(usize, &Path)>,
) -> Result<(), String> {
    let cfg = scale.streamed(seed);
    let g = tkc_datasets::build_streamed(&cfg);
    let d = Decomposition::compute(&g);
    let supports = edge_supports_csr(&g);
    let parts = tkc_store::pack_graph(&g, &supports, Some(d.kappa_slice()))
        .map_err(|e| format!("pack: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    parts
        .write_path(&dir.join(STORE_FILE))
        .map_err(|e| format!("store: {e}"))?;
    let state = File::create(dir.join(STATE_FILE)).map_err(|e| format!("state: {e}"))?;
    write_state_with_store(&g, d.kappa_slice(), Some(&parts.stamp()), &state)
        .and_then(|()| state.sync_all())
        .map_err(|e| format!("state: {e}"))?;
    if let Some((n, path)) = ops {
        let mut model = EdgeModel::streamed(&cfg);
        let ops = ingest_ops(&mut model, &mut Rng::new(seed, OPS_STREAM), n);
        write_ops(path, &ops)?;
    }
    // Nothing written here may still be in flight when the timed phase
    // starts: background writeback would compete with the WAL's fsyncs.
    for synced in [dir.join(STORE_FILE), dir.to_path_buf()] {
        File::open(&synced)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {}: {e}", synced.display()))?;
    }
    Ok(())
}

/// Runs [`prepare`] in a child process (this executable's `prepare`
/// subcommand) and waits for it.
pub fn prepare_in_child(
    scale: Scale,
    seed: u64,
    dir: &Path,
    ops: Option<(usize, &Path)>,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("prepare")
        .args(["--scale", scale.name(), "--seed", &seed.to_string()])
        .arg("--dir")
        .arg(dir);
    if let Some((n, path)) = ops {
        cmd.args(["--ops", &n.to_string()])
            .arg("--ops-file")
            .arg(path);
    }
    let status = cmd.status().map_err(|e| format!("prepare: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("prepare exited with {status}"))
    }
}

/// Ops on disk: one byte (0 insert, 1 remove) and two little-endian u32
/// endpoints per op.
fn write_ops(path: &Path, ops: &[WalOp]) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    for &op in ops {
        let (tag, a, b) = match op {
            WalOp::Insert(a, b) => (0u8, a, b),
            WalOp::Remove(a, b) => (1u8, a, b),
            WalOp::AddVertices(_) => return Err("ingest ops never add bare vertices".into()),
        };
        w.write_all(&[tag])
            .and_then(|()| w.write_all(&a.to_le_bytes()))
            .and_then(|()| w.write_all(&b.to_le_bytes()))
            .map_err(|e| e.to_string())?;
    }
    w.flush()
        .and_then(|()| w.get_ref().sync_all())
        .map_err(|e| e.to_string())
}

pub fn read_ops(path: &Path) -> Result<Vec<WalOp>, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if bytes.len() % 9 != 0 {
        return Err(format!("{}: truncated op file", path.display()));
    }
    Ok(bytes
        .chunks_exact(9)
        .map(|c| {
            let a = u32::from_le_bytes([c[1], c[2], c[3], c[4]]);
            let b = u32::from_le_bytes([c[5], c[6], c[7], c[8]]);
            if c[0] == 0 {
                WalOp::Insert(a, b)
            } else {
                WalOp::Remove(a, b)
            }
        })
        .collect())
}
