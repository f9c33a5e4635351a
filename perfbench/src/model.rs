//! The benchmark's own view of the graph, kept apart from the program:
//! an adjacency model of the live edge set (which seeds the write
//! streams and predicts the final edge set), an order-independent κ
//! fingerprint, and an independent triangle-connected-components pass
//! that predicts `TRUSS k` replies.

use tkc_datasets::streamed::{stream_edges, StreamedConfig};
use tkc_engine::{EpochSnapshot, WalOp};

use crate::util::{edge_key, mix, Rng};

/// The live edge set as plain adjacency lists.
#[derive(Debug, Clone)]
pub struct EdgeModel {
    adj: Vec<Vec<u32>>,
    edges: usize,
}

impl EdgeModel {
    /// The edges of the streamed graph, read straight from its generator.
    pub fn streamed(cfg: &StreamedConfig) -> EdgeModel {
        let mut m = EdgeModel {
            adj: vec![Vec::new(); cfg.vertices as usize],
            edges: 0,
        };
        let emitted = stream_edges(cfg, |u, v| {
            m.insert(u, v);
            Ok::<(), ()>(())
        });
        debug_assert!(emitted.is_ok());
        m
    }

    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    pub fn num_edges(&self) -> usize {
        self.edges
    }

    pub fn has(&self, a: u32, b: u32) -> bool {
        self.adj[a as usize].contains(&b)
    }

    /// Adds `{a, b}`; `false` if it was already live.
    pub fn insert(&mut self, a: u32, b: u32) -> bool {
        if a == b || self.has(a, b) {
            return false;
        }
        self.adj[a as usize].push(b);
        self.adj[b as usize].push(a);
        self.edges += 1;
        true
    }

    /// Removes `{a, b}`; `false` if it was not live.
    pub fn remove(&mut self, a: u32, b: u32) -> bool {
        let drop_from = |list: &mut Vec<u32>, x: u32| match list.iter().position(|&y| y == x) {
            Some(i) => {
                list.swap_remove(i);
                true
            }
            None => false,
        };
        if !drop_from(&mut self.adj[a as usize], b) {
            return false;
        }
        drop_from(&mut self.adj[b as usize], a);
        self.edges -= 1;
        true
    }

    /// Applies one write; `false` if the model says it would be a no-op.
    pub fn apply(&mut self, op: WalOp) -> bool {
        match op {
            WalOp::Insert(a, b) => self.insert(a, b),
            WalOp::Remove(a, b) => self.remove(a, b),
            WalOp::AddVertices(_) => false,
        }
    }

    /// Every live edge as a sorted list of canonical keys.
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .adj
            .iter()
            .enumerate()
            .flat_map(|(u, list)| {
                list.iter()
                    .filter(move |&&v| (u as u32) < v)
                    .map(move |&v| edge_key(u as u32, v))
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// A random live edge (vertex first, then one of its neighbors).
    pub fn live_edge(&self, rng: &mut Rng) -> (u32, u32) {
        loop {
            let v = rng.below(self.adj.len());
            let list = &self.adj[v];
            if !list.is_empty() {
                return (v as u32, list[rng.below(list.len())]);
            }
        }
    }

    /// A random absent pair `{a, b}` that closes a wedge `a – v – b`.
    pub fn wedge_closer(&self, rng: &mut Rng) -> (u32, u32) {
        loop {
            let v = rng.below(self.adj.len());
            let list = &self.adj[v];
            if list.len() < 2 {
                continue;
            }
            let a = list[rng.below(list.len())];
            let b = list[rng.below(list.len())];
            if a != b && !self.has(a, b) {
                return (a, b);
            }
        }
    }
}

/// The ingest write stream: `n` single-edge writes, each an insert that
/// closes a wedge or a removal of a live edge, every one of which takes
/// effect when applied in order to `model` (which is advanced).
pub fn ingest_ops(model: &mut EdgeModel, rng: &mut Rng, n: usize) -> Vec<WalOp> {
    (0..n)
        .map(|_| {
            let op = if rng.chance(0.5) {
                let (a, b) = model.wedge_closer(rng);
                WalOp::Insert(a, b)
            } else {
                let (a, b) = model.live_edge(rng);
                WalOp::Remove(a, b)
            };
            let took_effect = model.apply(op);
            debug_assert!(took_effect);
            op
        })
        .collect()
}

/// Order-independent fingerprint of a snapshot's `(edge, κ)` pairs:
/// `(live edges, wrapping sum of a hash per pair)`. Equal fingerprints
/// mean the same edges with the same κ, whatever the edge ids.
pub fn fingerprint(snap: &EpochSnapshot) -> (usize, u64) {
    let g = snap.graph();
    let d = snap.decomposition();
    let sum = g.edges().fold(0u64, |acc, (e, u, v)| {
        acc.wrapping_add(mix(edge_key(u.0, v.0)
            ^ (u64::from(d.kappa(e)) << 58)
            ^ 0xF1))
    });
    (g.num_edges(), sum)
}

/// A `TRUSS k` reply: maximal Triangle K-Cores at level `k`, their edges
/// and (per core) vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrussCount {
    pub cores: usize,
    pub edges: usize,
    pub vertices: usize,
}

/// Edges plus κ in a sorted adjacency (neighbor, edge index) layout.
#[derive(Debug)]
pub struct KappaGraph {
    edges: Vec<(u32, u32)>,
    kappa: Vec<u32>,
    adj: Vec<Vec<(u32, u32)>>,
}

impl KappaGraph {
    /// `edges[i]` has κ `kappa[i]`; endpoints need not be ordered.
    pub fn new(edges: Vec<(u32, u32)>, kappa: Vec<u32>) -> KappaGraph {
        let n = edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0);
        let mut adj = vec![Vec::new(); n];
        for (i, &(u, v)) in edges.iter().enumerate() {
            adj[u as usize].push((v, i as u32));
            adj[v as usize].push((u, i as u32));
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        KappaGraph { edges, kappa, adj }
    }

    pub fn max_kappa(&self) -> u32 {
        self.kappa.iter().copied().max().unwrap_or(0)
    }

    /// κ of edge `{u, v}`, or `None` when absent.
    pub fn kappa(&self, u: u32, v: u32) -> Option<u32> {
        let list = self.adj.get(u as usize)?;
        let i = list.binary_search_by_key(&v, |&(w, _)| w).ok()?;
        Some(self.kappa[list[i].1 as usize])
    }

    /// The triangle-connected components of the edges with κ ≥ `k`
    /// (Claim 2), counted by union-find over every triangle whose three
    /// edges all reach `k`.
    pub fn truss(&self, k: u32) -> TrussCount {
        let m = self.edges.len();
        let mut parent: Vec<u32> = (0..m as u32).collect();
        let mut in_core = vec![false; m];
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                let up = parent[parent[x as usize] as usize];
                parent[x as usize] = up;
                x = up;
            }
            x
        }
        for (i, &(a, b)) in self.edges.iter().enumerate() {
            if self.kappa[i] < k {
                continue;
            }
            let (u, v) = if a < b { (a, b) } else { (b, a) };
            // Each triangle u < v < w once, from its lowest edge (u, v).
            let (lu, lv) = (&self.adj[u as usize], &self.adj[v as usize]);
            let (mut x, mut y) = (
                lu.partition_point(|p| p.0 <= v),
                lv.partition_point(|p| p.0 <= v),
            );
            while x < lu.len() && y < lv.len() {
                let (wu, eu) = lu[x];
                let (wv, ev) = lv[y];
                if wu < wv {
                    x += 1;
                } else if wv < wu {
                    y += 1;
                } else {
                    if self.kappa[eu as usize] >= k && self.kappa[ev as usize] >= k {
                        for e in [i as u32, eu, ev] {
                            in_core[e as usize] = true;
                        }
                        let r = find(&mut parent, i as u32);
                        for e in [eu, ev] {
                            let s = find(&mut parent, e);
                            parent[s as usize] = r;
                        }
                    }
                    x += 1;
                    y += 1;
                }
            }
        }
        let mut members: Vec<(u32, u32)> = Vec::new();
        let mut roots: Vec<u32> = Vec::new();
        let mut edges = 0;
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            if !in_core[i] {
                continue;
            }
            edges += 1;
            let r = find(&mut parent, i as u32);
            roots.push(r);
            members.push((r, u));
            members.push((r, v));
        }
        roots.sort_unstable();
        roots.dedup();
        members.sort_unstable();
        members.dedup();
        TrussCount {
            cores: roots.len(),
            edges,
            vertices: members.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkc_core::decompose::Decomposition;
    use tkc_core::extract::cores_at_level;
    use tkc_graph::{generators, VertexId};

    #[test]
    fn ingest_ops_all_take_effect_on_the_graph() {
        let cfg = StreamedConfig::small(3);
        let mut model = EdgeModel::streamed(&cfg);
        let start = model.clone();
        let ops = ingest_ops(&mut model, &mut Rng::new(3, 0), 500);
        let mut g = tkc_datasets::build_streamed(&cfg);
        assert_eq!(g.num_edges(), start.num_edges());
        for op in ops {
            match op {
                WalOp::Insert(a, b) => {
                    assert!(g.add_edge(VertexId(a), VertexId(b)).is_ok());
                }
                WalOp::Remove(a, b) => {
                    assert!(g.remove_edge_between(VertexId(a), VertexId(b)).is_ok());
                }
                WalOp::AddVertices(_) => unreachable!(),
            }
        }
        let mut keys: Vec<u64> = g.edges().map(|(_, u, v)| edge_key(u.0, v.0)).collect();
        keys.sort_unstable();
        assert_eq!(keys, model.keys());
    }

    #[test]
    fn truss_matches_the_program_on_clustered_graphs() {
        for seed in 0..4 {
            let g = generators::holme_kim(300, 4, 0.8, seed);
            let d = Decomposition::compute(&g);
            let edges: Vec<(u32, u32)> = g.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            let kappa: Vec<u32> = g.edge_ids().map(|e| d.kappa(e)).collect();
            let kg = KappaGraph::new(edges, kappa);
            assert_eq!(kg.max_kappa(), d.max_kappa());
            for k in 1..=d.max_kappa() {
                let cores = cores_at_level(&g, &d, k);
                let want = TrussCount {
                    cores: cores.len(),
                    edges: cores.iter().map(|c| c.edges.len()).sum(),
                    vertices: cores.iter().map(|c| c.vertices.len()).sum(),
                };
                assert_eq!(kg.truss(k), want, "seed {seed} level {k}");
            }
        }
    }
}
