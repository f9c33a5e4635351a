//! End-to-end benchmark of the triangle k-core system. See README.md for
//! the workloads, the metrics and what each per-layer metric should move.

pub mod analytics;
pub mod ingest;
pub mod model;
pub mod prepare;
pub mod probes;
pub mod serve;
pub mod util;

use std::path::PathBuf;

use tkc_datasets::streamed::StreamedConfig;
use tkc_graph::{generators, Graph};

use util::{overhead_pct, Outcome};

/// How many times each run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// The timed figures every workload reports, each in its own terms
/// (README.md, "End-to-end").
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// CPU time of the process holding the graph per completed operation
    /// of the timed closed loop, ms.
    pub cpu_ms_per_op: f64,
    /// Median latency of the workload's heaviest recurring operation, ms.
    pub slow_op_ms: f64,
    /// Operations completed per second of wall time in the timed loop.
    /// Per-layer only: on `ingest` it follows the disk's fsync latency.
    pub ops_per_s: f64,
}

impl EndToEnd {
    /// Adds the untraced run's end-to-end metrics to `out`.
    pub fn report(&self, setup_s: f64, peak_rss_mb: f64, out: &mut Outcome) {
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", peak_rss_mb, "MiB");
        out.metric("cpu_ms_per_op", self.cpu_ms_per_op, "ms");
        out.metric("slow_op_ms", self.slow_op_ms, "ms");
    }

    /// The traced run's own-loop metrics: `loop.ops_per_s` of this
    /// untraced phase, and `obs.trace_overhead_pct` of `traced` against it.
    pub fn report_traced(&self, traced: &EndToEnd, out: &mut Outcome) {
        out.metric("loop.ops_per_s", self.ops_per_s, "1/s");
        out.metric(
            "obs.trace_overhead_pct",
            overhead_pct(&[
                (self.cpu_ms_per_op, traced.cpu_ms_per_op, false),
                (self.slow_op_ms, traced.slow_op_ms, false),
                (self.ops_per_s, traced.ops_per_s, true),
            ]),
            "%",
        );
    }
}

/// Input size. `Full` is what the benchmark measures; `Small` runs every
/// phase and check on tiny inputs for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

impl Scale {
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "full" => Ok(Scale::Full),
            "small" => Ok(Scale::Small),
            other => Err(format!("unknown --scale {other:?} (full, small)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
        }
    }

    /// The ring-lattice graph every workload starts from: 150k vertices,
    /// 1.57M edges, max κ 22 at full scale.
    pub fn streamed(self, seed: u64) -> StreamedConfig {
        match self {
            Scale::Full => StreamedConfig::bench(seed),
            Scale::Small => StreamedConfig::small(seed),
        }
    }

    /// The power-law clustered graph of `analytics`: ~800k edges, heavy
    /// degree skew, few κ levels at full scale.
    pub fn powerlaw(self, seed: u64) -> Graph {
        match self {
            Scale::Full => generators::holme_kim(100_000, 8, 0.9, seed),
            Scale::Small => generators::holme_kim(2_000, 4, 0.9, seed),
        }
    }

    /// Writes per ingest segment: a multiple of the engine's 256-op epoch,
    /// so every segment ends on a publish.
    pub fn segment_ops(self) -> usize {
        match self {
            Scale::Full => 2048,
            Scale::Small => 512,
        }
    }

    /// Ingest segments per phase at least (full: 8,192 writes with 32
    /// epoch publishes, and four crash-reopens).
    pub fn min_segments(self) -> usize {
        match self {
            Scale::Full => 4,
            Scale::Small => 2,
        }
    }

    /// Requests per connection per `serve` round (each round holds one
    /// `TRUSS` per level of the cycle).
    pub fn serve_round(self) -> usize {
        match self {
            Scale::Full => 1500,
            Scale::Small => 300,
        }
    }

    /// `serve` rounds scripted per connection and phase: more than a run
    /// sends in its time (a phase also ends when its script does), and no
    /// more than the small graph has edges to write.
    pub fn serve_rounds(self) -> usize {
        match self {
            Scale::Full => 64,
            Scale::Small => 8,
        }
    }

    /// Whole rounds every run makes at least, per connection (`serve`) or
    /// in total (`analytics`).
    pub fn min_rounds(self) -> usize {
        match self {
            Scale::Full => 3,
            Scale::Small => 2,
        }
    }
}

/// The command line of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Measurement time; every phase still completes whole rounds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    pub scale: Scale,
    /// The release `tkc` binary (`serve` only).
    pub tkc: Option<PathBuf>,
    /// Scratch space for state directories, removed at the end.
    pub workdir: PathBuf,
}

impl Opts {
    /// The run's private scratch directory, created empty.
    pub fn scratch(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self
            .workdir
            .join(format!("{name}-{}-{}", self.seed, std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}
