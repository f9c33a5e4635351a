//! `analytics`: the static kernels in process. Each round runs the
//! default entry point `Decomposition::compute` on the streamed
//! ring-lattice graph and on the power-law `holme_kim` graph, then
//! `core_hierarchy` on the streamed graph.

use std::time::Instant;

use tkc_core::decompose::Decomposition;
use tkc_core::extract::core_hierarchy;
use tkc_graph::Graph;
use tkc_obs::TraceBuffer;
use tkc_verify::KappaCertificate;

use crate::util::{cpu_s, log, median, ms, peak_rss_mb, timed, Outcome};
use crate::{probes, EndToEnd, Opts, SETUPS};

/// Seed stream of the power-law graph (the streamed graph uses the seed
/// itself).
pub(crate) const POWERLAW_STREAM: u64 = 1;

/// Kernel calls per round: two decompositions and one hierarchy.
const CALLS_PER_ROUND: f64 = 3.0;

/// What the first round produced, for the checks.
struct Firsts {
    streamed: Decomposition,
    powerlaw: Decomposition,
    /// Edges per hierarchy level.
    level_edges: Vec<usize>,
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut graphs = None;
    for _ in 0..SETUPS {
        drop(graphs.take());
        let (gs, d) = timed(|| {
            let streamed = tkc_datasets::build_streamed(&o.scale.streamed(o.seed));
            let powerlaw = o.scale.powerlaw(crate::util::mix(o.seed ^ POWERLAW_STREAM));
            (streamed, powerlaw)
        });
        graphs = Some(gs);
        setups.push(d.as_secs_f64());
    }
    let (streamed, powerlaw) = graphs.ok_or("no set-up ran")?;
    log("set-up done");

    let mut out = Outcome::default();
    let mut firsts = None;
    let a = rounds(o, &streamed, &powerlaw, &mut firsts, &mut out)?;
    let rss = peak_rss_mb(None)?;
    log("rounds done");
    if o.trace {
        TraceBuffer::global().set_enabled(true);
        let b = rounds(o, &streamed, &powerlaw, &mut firsts, &mut out)?;
        TraceBuffer::global().set_enabled(false);
        a.report_traced(&b, &mut out);
    } else {
        a.report(median(&mut setups), rss, &mut out);
    }
    let firsts = firsts.ok_or("no round ran")?;
    log("checking");
    check(&streamed, &powerlaw, &firsts, &mut out);
    log("checks done");
    if o.trace {
        drop((streamed, powerlaw, firsts));
        probes::run(o, &mut out)?;
    }
    Ok(out)
}

/// Whole rounds until the run's time is up (at least `min_rounds`).
/// Every round's output must equal the first round's. Per round:
/// kernel calls per second and CPU time per call; `slow_op_ms` is the
/// median `core_hierarchy`.
fn rounds(
    o: &Opts,
    streamed: &Graph,
    powerlaw: &Graph,
    firsts: &mut Option<Firsts>,
    out: &mut Outcome,
) -> Result<EndToEnd, String> {
    let (mut rates, mut cpu_per_call, mut hierarchy) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while rates.len() < o.scale.min_rounds() || start.elapsed().as_secs_f64() < o.seconds {
        let cpu = cpu_s(None)?;
        let (d_s, t_s) = timed(|| Decomposition::compute(streamed));
        let (d_p, t_p) = timed(|| Decomposition::compute(powerlaw));
        let (hier, t_h) = timed(|| core_hierarchy(streamed, &d_s));
        rates.push(CALLS_PER_ROUND / (t_s + t_p + t_h).as_secs_f64());
        cpu_per_call.push((cpu_s(None)? - cpu) * 1e3 / CALLS_PER_ROUND);
        hierarchy.push(ms(t_h));
        out.attempted += 3;
        let level_edges: Vec<usize> = hier
            .iter()
            .map(|cores| cores.iter().map(|c| c.edges.len()).sum())
            .collect();
        drop(hier);
        match firsts {
            None => {
                *firsts = Some(Firsts {
                    streamed: d_s,
                    powerlaw: d_p,
                    level_edges,
                })
            }
            Some(f) => {
                out.check(f.streamed.kappa_slice() == d_s.kappa_slice(), || {
                    "streamed κ differs between rounds".into()
                });
                out.check(f.powerlaw.kappa_slice() == d_p.kappa_slice(), || {
                    "power-law κ differs between rounds".into()
                });
                out.check(f.level_edges == level_edges, || {
                    "hierarchy differs between rounds".into()
                });
            }
        }
    }
    Ok(EndToEnd {
        cpu_ms_per_op: median(&mut cpu_per_call),
        slow_op_ms: median(&mut hierarchy),
        ops_per_s: median(&mut rates),
    })
}

/// Both κ vectors pass the certificate (run on two threads: they are
/// independent), and hierarchy level k holds exactly the edges with κ ≥ k.
fn check(streamed: &Graph, powerlaw: &Graph, f: &Firsts, out: &mut Outcome) {
    let (cs, cp) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            KappaCertificate::new(streamed, f.streamed.kappa_slice())
                .check()
                .is_ok()
        });
        let b = s.spawn(|| {
            KappaCertificate::new(powerlaw, f.powerlaw.kappa_slice())
                .check()
                .is_ok()
        });
        (a.join().unwrap_or(false), b.join().unwrap_or(false))
    });
    out.check(cs, || "streamed κ fails the certificate".into());
    out.check(cp, || "power-law κ fails the certificate".into());
    let max = f.streamed.max_kappa() as usize;
    out.check(f.level_edges.len() == max, || {
        format!(
            "hierarchy has {} levels, max κ is {max}",
            f.level_edges.len()
        )
    });
    for (i, &got) in f.level_edges.iter().enumerate() {
        let k = i as u32 + 1;
        let want = streamed
            .edge_ids()
            .filter(|&e| f.streamed.kappa(e) >= k)
            .count();
        out.check(got == want, || {
            format!("hierarchy level {k}: {got} core edges, {want} with κ ≥ {k}")
        });
    }
}
