//! Workflow (DAG) workload generators.
//!
//! The paper's related work is dominated by *workflow* schedulers
//! (\[18\] Pandey, \[3\] Chen & Zhang, \[23\] Rodriguez & Buyya all schedule
//! DAGs); this module generates the classic shapes so the simulator's
//! precedence engine and the HEFT scheduler in `biosched-core` can be
//! exercised: chains, fork-joins, random layered DAGs and a
//! Montage-style pipeline-of-stages ensemble.

use std::sync::OnceLock;

use rand::Rng;
use simcloud::cloudlet::CloudletSpec;
use simcloud::ids::CloudletId;
use simcloud::rng::stream;

use crate::scenario::Scenario;

/// A workload with precedence constraints.
#[derive(Debug, Clone)]
pub struct Workflow {
    /// Task specs, in id order.
    pub specs: Vec<CloudletSpec>,
    /// `parents[c]` = tasks that must finish before `c` starts.
    pub parents: Vec<Vec<CloudletId>>,
    /// Memoized critical-path length (computed once per workflow; paper-
    /// scale DAGs are queried repeatedly during bench setup).
    critical_path: OnceLock<f64>,
}

impl Workflow {
    /// Builds a workflow from task specs and a parent list.
    pub fn new(specs: Vec<CloudletSpec>, parents: Vec<Vec<CloudletId>>) -> Workflow {
        assert_eq!(
            specs.len(),
            parents.len(),
            "one parent list per task required"
        );
        Workflow {
            specs,
            parents,
            critical_path: OnceLock::new(),
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True for an empty workflow.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Total edges in the DAG.
    pub fn edge_count(&self) -> usize {
        self.parents.iter().map(Vec::len).sum()
    }

    /// Installs this workflow into a scenario (replacing its cloudlets)
    /// and returns the dependency list to pass to the simulator.
    pub fn install(&self, scenario: &mut Scenario) {
        scenario.cloudlets = self.specs.clone();
        scenario.dependencies = Some(self.parents.clone());
    }

    /// Critical-path length in MI assuming unit-capacity execution — a
    /// scheduler-independent lower-bound proxy. Computed once (one
    /// topological pass) and memoized; repeat calls are free.
    pub fn critical_path_mi(&self) -> f64 {
        *self
            .critical_path
            .get_or_init(|| self.compute_critical_path_mi())
    }

    /// One Kahn-style topological DP over the DAG.
    fn compute_critical_path_mi(&self) -> f64 {
        let n = self.len();
        let mut longest = vec![0.0f64; n];
        // parents[] lists only earlier... not guaranteed; do topological DP.
        let mut indegree: Vec<usize> = self.parents.iter().map(Vec::len).collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (c, ps) in self.parents.iter().enumerate() {
            for p in ps {
                children[p.index()].push(c);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|c| indegree[*c] == 0).collect();
        let mut best = 0.0f64;
        while let Some(c) = ready.pop() {
            let finish = longest[c] + self.specs[c].length_mi;
            best = best.max(finish);
            for &child in &children[c] {
                longest[child] = longest[child].max(finish);
                indegree[child] -= 1;
                if indegree[child] == 0 {
                    ready.push(child);
                }
            }
        }
        best
    }
}

/// A linear chain of `n` tasks of `length_mi` each.
pub fn chain(n: usize, length_mi: f64) -> Workflow {
    assert!(n > 0);
    let specs = vec![CloudletSpec::new(length_mi, 0.0, 0.0, 1); n];
    let parents = (0..n)
        .map(|c| {
            if c == 0 {
                vec![]
            } else {
                vec![CloudletId::from_index(c - 1)]
            }
        })
        .collect();
    Workflow::new(specs, parents)
}

/// A fork-join: one source, `width` parallel branches of `depth` tasks,
/// one sink.
pub fn fork_join(width: usize, depth: usize, length_mi: f64) -> Workflow {
    assert!(width > 0 && depth > 0);
    let n = 2 + width * depth;
    let mut specs = vec![CloudletSpec::new(length_mi, 0.0, 0.0, 1); n];
    // Source and sink are lightweight coordination tasks.
    specs[0] = CloudletSpec::new(length_mi / 10.0, 0.0, 0.0, 1);
    specs[n - 1] = CloudletSpec::new(length_mi / 10.0, 0.0, 0.0, 1);
    let mut parents: Vec<Vec<CloudletId>> = vec![Vec::new(); n];
    let task_id = |branch: usize, level: usize| 1 + branch * depth + level;
    for branch in 0..width {
        parents[task_id(branch, 0)].push(CloudletId(0));
        for level in 1..depth {
            parents[task_id(branch, level)]
                .push(CloudletId::from_index(task_id(branch, level - 1)));
        }
        parents[n - 1].push(CloudletId::from_index(task_id(branch, depth - 1)));
    }
    Workflow::new(specs, parents)
}

/// A random layered DAG: `layers` layers of `width` tasks; each task
/// depends on each task of the previous layer with probability `p_edge`
/// (plus one guaranteed parent so layers actually order).
pub fn layered_random(
    layers: usize,
    width: usize,
    p_edge: f64,
    length_range_mi: (f64, f64),
    seed: u64,
) -> Workflow {
    assert!(layers > 0 && width > 0);
    assert!((0.0..=1.0).contains(&p_edge));
    let (lo, hi) = length_range_mi;
    assert!(0.0 < lo && lo <= hi);
    let mut rng = stream(seed, "workflow/layered");
    let n = layers * width;
    let specs = (0..n)
        .map(|_| CloudletSpec::new(rng.gen_range(lo..=hi), 0.0, 0.0, 1))
        .collect();
    let mut parents: Vec<Vec<CloudletId>> = vec![Vec::new(); n];
    for layer in 1..layers {
        for w in 0..width {
            let c = layer * width + w;
            for pw in 0..width {
                let p = (layer - 1) * width + pw;
                if rng.gen_bool(p_edge) {
                    parents[c].push(CloudletId::from_index(p));
                }
            }
            if parents[c].is_empty() {
                // Guarantee layering: inherit one random parent.
                let p = (layer - 1) * width + rng.gen_range(0..width);
                parents[c].push(CloudletId::from_index(p));
            }
        }
    }
    Workflow::new(specs, parents)
}

/// A paper-scale random layered DAG: `layers` layers of `width` tasks,
/// each sampling up to `k_parents` distinct parents from the previous
/// layer (at least one, so layers actually order).
///
/// [`layered_random`] flips a coin per (task, candidate-parent) pair —
/// O(layers × width²), intractable at the paper's 100k width. This
/// generator is O(tasks × k) and is what the DAG benches use for the
/// 1M-task tier.
pub fn layered_sparse(
    layers: usize,
    width: usize,
    k_parents: usize,
    length_range_mi: (f64, f64),
    seed: u64,
) -> Workflow {
    assert!(layers > 0 && width > 0 && k_parents > 0);
    let (lo, hi) = length_range_mi;
    assert!(0.0 < lo && lo <= hi);
    let mut rng = stream(seed, "workflow/layered-sparse");
    let n = layers * width;
    let specs = (0..n)
        .map(|_| CloudletSpec::new(rng.gen_range(lo..=hi), 0.0, 0.0, 1))
        .collect();
    let mut parents: Vec<Vec<CloudletId>> = vec![Vec::new(); n];
    let k = k_parents.min(width);
    let mut picks: Vec<usize> = Vec::with_capacity(k);
    for layer in 1..layers {
        for w in 0..width {
            let c = layer * width + w;
            let want = rng.gen_range(1..=k);
            picks.clear();
            while picks.len() < want {
                let pw = rng.gen_range(0..width);
                if !picks.contains(&pw) {
                    picks.push(pw);
                }
            }
            picks.sort_unstable();
            parents[c] = picks
                .iter()
                .map(|&pw| CloudletId::from_index((layer - 1) * width + pw))
                .collect();
        }
    }
    Workflow::new(specs, parents)
}

/// A Montage-style ensemble: `jobs` independent pipelines, each
/// `stages` long with a fan-out/fan-in middle stage — the scientific
/// workload shape the related work schedules.
pub fn pipeline_ensemble(jobs: usize, stages: usize, length_mi: f64, seed: u64) -> Workflow {
    assert!(jobs > 0 && stages > 0);
    let mut rng = stream(seed, "workflow/ensemble");
    let mut specs = Vec::new();
    let mut parents: Vec<Vec<CloudletId>> = Vec::new();
    for _ in 0..jobs {
        let mut prev: Option<usize> = None;
        for _ in 0..stages {
            let id = specs.len();
            let jitter: f64 = rng.gen_range(0.5..1.5);
            specs.push(CloudletSpec::new(length_mi * jitter, 0.0, 0.0, 1));
            parents.push(match prev {
                Some(p) => vec![CloudletId::from_index(p)],
                None => vec![],
            });
            prev = Some(id);
        }
    }
    Workflow::new(specs, parents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let w = chain(4, 100.0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.edge_count(), 3);
        assert_eq!(w.parents[0], vec![]);
        assert_eq!(w.parents[3], vec![CloudletId(2)]);
        assert!((w.critical_path_mi() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn fork_join_shape() {
        let w = fork_join(3, 2, 1_000.0);
        assert_eq!(w.len(), 2 + 6);
        // Source has no parents; sink has `width` parents.
        assert!(w.parents[0].is_empty());
        assert_eq!(w.parents[7].len(), 3);
        // Critical path: source + 2 levels + sink = 100 + 2000 + 100.
        assert!((w.critical_path_mi() - 2_200.0).abs() < 1e-9);
    }

    #[test]
    fn layered_random_is_layered_and_connected() {
        let w = layered_random(4, 5, 0.3, (100.0, 1_000.0), 7);
        assert_eq!(w.len(), 20);
        // Every non-first-layer task has at least one parent from the
        // previous layer.
        for layer in 1..4 {
            for t in 0..5 {
                let c = layer * 5 + t;
                assert!(!w.parents[c].is_empty(), "task {c} is unparented");
                for p in &w.parents[c] {
                    assert!(p.index() / 5 == layer - 1, "parent not in previous layer");
                }
            }
        }
        // Deterministic per seed.
        let again = layered_random(4, 5, 0.3, (100.0, 1_000.0), 7);
        assert_eq!(w.parents, again.parents);
    }

    #[test]
    fn layered_sparse_is_layered_bounded_and_deterministic() {
        let w = layered_sparse(5, 50, 3, (100.0, 1_000.0), 11);
        assert_eq!(w.len(), 250);
        for layer in 1..5 {
            for t in 0..50 {
                let c = layer * 50 + t;
                let ps = &w.parents[c];
                assert!(!ps.is_empty() && ps.len() <= 3, "task {c} degree");
                for pair in ps.windows(2) {
                    assert!(pair[0] < pair[1], "parents sorted and distinct");
                }
                for p in ps {
                    assert_eq!(p.index() / 50, layer - 1, "parent not in previous layer");
                }
            }
        }
        let again = layered_sparse(5, 50, 3, (100.0, 1_000.0), 11);
        assert_eq!(w.parents, again.parents);
    }

    #[test]
    fn critical_path_is_memoized() {
        let w = chain(100, 10.0);
        assert!((w.critical_path_mi() - 1_000.0).abs() < 1e-9);
        // Second call hits the memo (same value, no recompute observable;
        // the clone carries the cached value too).
        let c = w.clone();
        assert_eq!(
            w.critical_path_mi().to_bits(),
            c.critical_path_mi().to_bits()
        );
    }

    #[test]
    fn ensemble_pipelines_are_independent() {
        let w = pipeline_ensemble(3, 4, 500.0, 1);
        assert_eq!(w.len(), 12);
        assert_eq!(w.edge_count(), 9, "3 pipelines x 3 internal edges");
        // Stage boundaries: tasks 0, 4, 8 are roots.
        assert!(w.parents[0].is_empty());
        assert!(w.parents[4].is_empty());
        assert!(w.parents[8].is_empty());
    }

    #[test]
    fn install_wires_scenario() {
        use crate::homogeneous::HomogeneousScenario;
        let mut scenario = HomogeneousScenario {
            vm_count: 4,
            cloudlet_count: 1, // replaced by install
        }
        .build();
        let w = chain(5, 250.0);
        w.install(&mut scenario);
        assert_eq!(scenario.cloudlet_count(), 5);
        assert!(scenario.dependencies.is_some());
    }

    #[test]
    fn critical_path_handles_diamonds() {
        // c0 -> {c1, c2} -> c3 with c2 longer.
        let w = Workflow::new(
            vec![
                CloudletSpec::new(100.0, 0.0, 0.0, 1),
                CloudletSpec::new(200.0, 0.0, 0.0, 1),
                CloudletSpec::new(900.0, 0.0, 0.0, 1),
                CloudletSpec::new(100.0, 0.0, 0.0, 1),
            ],
            vec![
                vec![],
                vec![CloudletId(0)],
                vec![CloudletId(0)],
                vec![CloudletId(1), CloudletId(2)],
            ],
        );
        assert!((w.critical_path_mi() - 1_100.0).abs() < 1e-9);
    }
}
