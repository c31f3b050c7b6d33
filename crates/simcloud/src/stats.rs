//! Simulation outcomes and the paper's evaluation metrics.
//!
//! [`SimulationOutcome`] is the data the paper's figures are computed from:
//! the folded metrics, optionally one record per cloudlet, and run-level
//! counters. The metric definitions
//! follow Section VI-C: simulation time (Eq. 12), degree of time imbalance
//! (Eq. 13) and processing cost (Section VI-C-4).
//!
//! Every run's metrics are folded once, in cloudlet-id order, into an
//! [`AggregateMetrics`] at outcome construction, and every metric
//! accessor reads that fold. [`RecordMode`] decides only whether the
//! per-cloudlet record vector is kept as well: `Full` keeps it (CSV
//! export, drill-downs), `Aggregate` drops it, cutting a run's retained
//! memory from O(cloudlets) to O(VMs). Both modes therefore answer every
//! metric from the same fold, bit for bit.

use crate::cloudlet::{Cloudlet, CloudletStatus};
use crate::ids::{CloudletId, VmId};
use crate::time::SimTime;

/// How a run's per-cloudlet results are retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordMode {
    /// Also keep one [`CloudletRecord`] per cloudlet (CSV export,
    /// diagnostics, SLA drill-downs). The default.
    #[default]
    Full,
    /// Keep only the folded metrics, no per-cloudlet vector.
    Aggregate,
}

/// Run-level recovery counters accumulated while faults strike and the
/// broker retries orphaned work. All zeros on a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceCounters {
    /// Retry submissions performed (one per cloudlet per retry batch).
    pub retries: u64,
    /// Milliseconds of execution spent on attempts that later failed.
    pub wasted_work_ms: f64,
    /// Cloudlets that failed at least once but eventually finished.
    pub recovered: u64,
    /// Sum over recovered cloudlets of (completion − first failure), ms.
    pub recovery_time_ms: f64,
    /// Cloudlets permanently failed after exhausting their retry budget.
    pub abandoned: u64,
}

impl ResilienceCounters {
    /// Mean time-to-recovery over recovered cloudlets, in ms. `None`
    /// when nothing had to recover.
    pub fn mean_time_to_recovery_ms(&self) -> Option<f64> {
        (self.recovered > 0).then(|| self.recovery_time_ms / self.recovered as f64)
    }
}

/// Number of buckets in a [`WaitHistogram`].
const WAIT_BUCKETS: usize = 256;
/// Log-bucket resolution: buckets per octave (relative error ≈ 2^(1/8) ≈ 9%).
const WAIT_PER_OCTAVE: f64 = 8.0;
/// Lower edge of bucket 1 in ms; waits at or below this land in bucket 0.
const WAIT_MIN_MS: f64 = 1e-3;

/// Fixed log-bucketed histogram of cloudlet wait times (start − submit).
///
/// Bucket insertion is integer counting (order-independent) and the
/// representative value of a bucket is a pure function of its index, so
/// p50/p99 do not depend on fold order. 256 buckets at 8 per octave
/// cover 1 µs to ~4.3 × 10^6 ms with ≈9% relative resolution; anything
/// below the floor reads as a zero wait, anything above clamps to the top
/// bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitHistogram {
    counts: [u64; WAIT_BUCKETS],
    total: u64,
}

impl Default for WaitHistogram {
    fn default() -> Self {
        WaitHistogram {
            counts: [0; WAIT_BUCKETS],
            total: 0,
        }
    }
}

impl WaitHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(wait_ms: f64) -> usize {
        // NaN / negative / sub-floor waits all land in bucket 0 (zero wait).
        if wait_ms.is_nan() || wait_ms <= WAIT_MIN_MS {
            return 0;
        }
        let idx = ((wait_ms / WAIT_MIN_MS).log2() * WAIT_PER_OCTAVE).floor() as usize + 1;
        idx.min(WAIT_BUCKETS - 1)
    }

    /// Representative (geometric-midpoint) wait for bucket `idx`, in ms.
    fn value_of(idx: usize) -> f64 {
        if idx == 0 {
            return 0.0;
        }
        WAIT_MIN_MS * ((idx as f64 - 0.5) / WAIT_PER_OCTAVE).exp2()
    }

    /// Records one wait observation.
    pub fn record(&mut self, wait_ms: f64) {
        self.counts[Self::bucket_of(wait_ms)] += 1;
        self.total += 1;
    }

    /// Number of recorded observations.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile (0 < q ≤ 1) as the representative value of the
    /// bucket holding the ⌈q·n⌉-th smallest observation. `None` on an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::value_of(i));
            }
        }
        None
    }
}

/// Per-VM usage summary: busy time and finished-cloudlet count, read off
/// the run's [`AggregateMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct VmUsage {
    /// Sum of execution times of the cloudlets each VM finished, in ms.
    pub busy_ms: Vec<f64>,
    /// Finished-cloudlet count per VM.
    pub counts: Vec<usize>,
}

/// The paper's metrics folded online, one record at a time, in cloudlet-id
/// order. Every [`SimulationOutcome`] metric accessor reads this fold.
#[derive(Debug, Clone)]
pub struct AggregateMetrics {
    finished: usize,
    failed: usize,
    observed: usize,
    min_start: Option<f64>,
    max_finish: Option<f64>,
    exec_min: f64,
    exec_max: f64,
    exec_sum: f64,
    exec_n: usize,
    /// A finished cloudlet lacked `execution_ms` (makes Eq. 13 undefined).
    exec_missing: bool,
    turn_min: f64,
    turn_max: f64,
    turn_sum: f64,
    turn_n: usize,
    turn_missing: bool,
    total_cost: f64,
    sla_met: usize,
    sla_total: usize,
    min_submit: Option<f64>,
    wait_hist: WaitHistogram,
    wait_sum: f64,
    wait_max: f64,
    wait_n: usize,
    per_vm_busy_ms: Vec<f64>,
    per_vm_counts: Vec<usize>,
}

impl AggregateMetrics {
    /// An empty fold over a fleet of `vm_count` VMs.
    pub fn new(vm_count: usize) -> Self {
        AggregateMetrics {
            finished: 0,
            failed: 0,
            observed: 0,
            min_start: None,
            max_finish: None,
            exec_min: f64::INFINITY,
            exec_max: f64::NEG_INFINITY,
            exec_sum: 0.0,
            exec_n: 0,
            exec_missing: false,
            turn_min: f64::INFINITY,
            turn_max: f64::NEG_INFINITY,
            turn_sum: 0.0,
            turn_n: 0,
            turn_missing: false,
            total_cost: 0.0,
            sla_met: 0,
            sla_total: 0,
            min_submit: None,
            wait_hist: WaitHistogram::new(),
            wait_sum: 0.0,
            wait_max: f64::NEG_INFINITY,
            wait_n: 0,
            per_vm_busy_ms: vec![0.0; vm_count],
            per_vm_counts: vec![0; vm_count],
        }
    }

    /// Folds one cloudlet's final state. Callers fold in cloudlet-id
    /// order, which fixes the floating-point sums' bits.
    pub fn observe(&mut self, r: &CloudletRecord) {
        self.observed += 1;
        if let Some(ok) = r.met_deadline {
            self.sla_total += 1;
            self.sla_met += usize::from(ok);
        }
        if r.status == CloudletStatus::Failed {
            self.failed += 1;
        }
        if r.status != CloudletStatus::Finished {
            return;
        }
        self.finished += 1;
        if let (Some(s), Some(f)) = (r.start, r.finish) {
            let s = s.as_millis();
            let f = f.as_millis();
            self.min_start = Some(self.min_start.map_or(s, |m| m.min(s)));
            self.max_finish = Some(self.max_finish.map_or(f, |m| m.max(f)));
        }
        match r.execution_ms {
            Some(e) => {
                self.exec_min = self.exec_min.min(e);
                self.exec_max = self.exec_max.max(e);
                self.exec_sum += e;
                self.exec_n += 1;
            }
            None => self.exec_missing = true,
        }
        match (r.submit, r.finish) {
            (Some(s), Some(f)) => {
                let t = f.saturating_sub(s).as_millis();
                self.turn_min = self.turn_min.min(t);
                self.turn_max = self.turn_max.max(t);
                self.turn_sum += t;
                self.turn_n += 1;
            }
            _ => self.turn_missing = true,
        }
        if let Some(s) = r.submit {
            let s = s.as_millis();
            self.min_submit = Some(self.min_submit.map_or(s, |m| m.min(s)));
        }
        if let (Some(sub), Some(st)) = (r.submit, r.start) {
            let w = st.saturating_sub(sub).as_millis();
            self.wait_hist.record(w);
            self.wait_sum += w;
            self.wait_max = self.wait_max.max(w);
            self.wait_n += 1;
        }
        self.total_cost += r.cost;
        if let Some(vm) = r.vm {
            if vm.index() < self.per_vm_counts.len() {
                self.per_vm_counts[vm.index()] += 1;
                if let Some(exec) = r.execution_ms {
                    self.per_vm_busy_ms[vm.index()] += exec;
                }
            }
        }
    }
}

/// Final per-cloudlet execution record.
#[derive(Debug, Clone)]
pub struct CloudletRecord {
    /// Which cloudlet this is.
    pub id: CloudletId,
    /// VM it ran on (None if it failed before placement).
    pub vm: Option<VmId>,
    /// Submission time.
    pub submit: Option<SimTime>,
    /// Execution start.
    pub start: Option<SimTime>,
    /// Execution finish.
    pub finish: Option<SimTime>,
    /// Execution span in milliseconds (finish − start).
    pub execution_ms: Option<f64>,
    /// Accrued processing cost.
    pub cost: f64,
    /// Final status.
    pub status: CloudletStatus,
    /// SLA result: `Some(true/false)` for deadline-carrying cloudlets,
    /// `None` for best-effort ones.
    pub met_deadline: Option<bool>,
}

impl From<&Cloudlet> for CloudletRecord {
    fn from(cl: &Cloudlet) -> Self {
        CloudletRecord {
            id: cl.id,
            vm: cl.vm,
            submit: cl.submit_time,
            start: cl.start_time,
            finish: cl.finish_time,
            execution_ms: cl.execution_time().map(|t| t.as_millis()),
            cost: cl.cost,
            status: cl.status,
            met_deadline: cl.met_deadline(),
        }
    }
}

/// Everything measured from one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// One record per cloudlet, in cloudlet-id order. Empty when the run
    /// was executed under [`RecordMode::Aggregate`].
    pub records: Vec<CloudletRecord>,
    /// The run's metrics, folded once at outcome construction in either
    /// record mode. Every metric accessor reads it.
    pub aggregate: AggregateMetrics,
    /// Final simulated clock.
    pub end_time: SimTime,
    /// Kernel events processed.
    pub events_processed: u64,
    /// VMs successfully created.
    pub vms_created: usize,
    /// VMs refused by their datacenter.
    pub vms_rejected: usize,
    /// Recovery counters accumulated during the run (all zeros on a
    /// fault-free run).
    pub resilience: ResilienceCounters,
    /// Which engine executed the run.
    pub engine: crate::simulation::EngineKind,
}

impl SimulationOutcome {
    /// Number of finished cloudlets.
    pub fn finished_count(&self) -> usize {
        self.aggregate.finished
    }

    /// The paper's Eq. 12: `T_sim = T_maxFinish − T_minStart`, in ms.
    ///
    /// `None` when no cloudlet finished.
    pub fn simulation_time_ms(&self) -> Option<f64> {
        Some(self.aggregate.max_finish? - self.aggregate.min_start?)
    }

    /// The paper's Eq. 13: `T_im = (T_max − T_min) / T_avg` over cloudlet
    /// execution times.
    ///
    /// `None` when no cloudlet finished, a finished cloudlet lacks its
    /// execution time, or all execution times are zero.
    pub fn time_imbalance(&self) -> Option<f64> {
        let a = &self.aggregate;
        if a.exec_missing || a.exec_n == 0 || a.exec_sum == 0.0 {
            return None;
        }
        Some((a.exec_max - a.exec_min) / (a.exec_sum / a.exec_n as f64))
    }

    /// Eq. 13 computed over *turnaround* times (finish − submit) instead
    /// of execution times. With batch submission this measures the spread
    /// of completion, which penalizes queueing on overloaded VMs.
    pub fn turnaround_imbalance(&self) -> Option<f64> {
        let a = &self.aggregate;
        if a.turn_missing || a.turn_n == 0 || a.turn_sum == 0.0 {
            return None;
        }
        Some((a.turn_max - a.turn_min) / (a.turn_sum / a.turn_n as f64))
    }

    /// Total processing cost over all finished cloudlets (Fig. 6d's y-axis).
    pub fn total_cost(&self) -> f64 {
        self.aggregate.total_cost
    }

    /// Mean processing cost per finished cloudlet.
    pub fn mean_cost(&self) -> Option<f64> {
        let n = self.finished_count();
        (n > 0).then(|| self.total_cost() / n as f64)
    }

    /// Mean execution time over finished cloudlets that carry one, in ms.
    pub fn mean_execution_ms(&self) -> Option<f64> {
        let a = &self.aggregate;
        (a.exec_n > 0).then(|| a.exec_sum / a.exec_n as f64)
    }

    /// Number of deadline-carrying cloudlets that missed their SLA
    /// (including ones that failed outright).
    pub fn sla_violations(&self) -> usize {
        self.aggregate.sla_total - self.aggregate.sla_met
    }

    /// Fraction of deadline-carrying cloudlets that met their SLA.
    /// `None` when no cloudlet carries a deadline.
    pub fn sla_attainment(&self) -> Option<f64> {
        let a = &self.aggregate;
        (a.sla_total > 0).then(|| a.sla_met as f64 / a.sla_total as f64)
    }

    /// Cloudlets that ended the run in [`CloudletStatus::Failed`].
    pub fn failed_count(&self) -> usize {
        self.aggregate.failed
    }

    /// Cloudlets observed by the run (the workload size).
    pub fn observed_count(&self) -> usize {
        self.aggregate.observed
    }

    /// Fraction of the workload that finished. `None` on an empty run.
    pub fn completion_ratio(&self) -> Option<f64> {
        let n = self.observed_count();
        (n > 0).then(|| self.finished_count() as f64 / n as f64)
    }

    /// Useful-work fraction: execution time banked by finished cloudlets
    /// over that plus the execution time lost to failed attempts. `1.0`
    /// on a fault-free run; `None` when nothing executed at all.
    pub fn goodput(&self) -> Option<f64> {
        let useful = self.aggregate.exec_sum;
        let total = useful + self.resilience.wasted_work_ms;
        (total > 0.0).then(|| useful / total)
    }

    /// Mean time-to-recovery in ms over cloudlets that failed at least
    /// once and eventually finished. `None` when nothing had to recover.
    pub fn mean_time_to_recovery_ms(&self) -> Option<f64> {
        self.resilience.mean_time_to_recovery_ms()
    }

    /// Per-VM busy time and finished-cloudlet counts. VMs at index ≥
    /// `vm_count` are ignored; indexes past the fleet read zero.
    pub fn per_vm_usage(&self, vm_count: usize) -> VmUsage {
        let a = &self.aggregate;
        let mut busy_ms = vec![0.0f64; vm_count];
        let mut counts = vec![0usize; vm_count];
        let n = vm_count.min(a.per_vm_busy_ms.len());
        busy_ms[..n].copy_from_slice(&a.per_vm_busy_ms[..n]);
        counts[..n].copy_from_slice(&a.per_vm_counts[..n]);
        VmUsage { busy_ms, counts }
    }

    /// Per-VM busy time in ms: the sum of execution times of the
    /// cloudlets each VM finished. Under time-sharing, overlapping
    /// executions make this an *occupancy* figure that can exceed the
    /// wall window; see [`crate::energy`] for a clamped interpretation.
    pub fn per_vm_busy_ms(&self, vm_count: usize) -> Vec<f64> {
        self.per_vm_usage(vm_count).busy_ms
    }

    /// Per-VM finished-cloudlet counts (load-spread diagnostics).
    pub fn per_vm_counts(&self, vm_count: usize) -> Vec<usize> {
        self.per_vm_usage(vm_count).counts
    }

    /// The wait-time histogram (start − submit over finished cloudlets).
    pub fn wait_histogram(&self) -> &WaitHistogram {
        &self.aggregate.wait_hist
    }

    /// The `q`-quantile of cloudlet wait time (start − submit) in ms,
    /// estimated from the shared log-bucket histogram (≈9% relative
    /// resolution). `None` when no finished cloudlet carries both stamps.
    pub fn wait_quantile_ms(&self, q: f64) -> Option<f64> {
        self.aggregate.wait_hist.quantile(q)
    }

    /// Median queueing wait in ms (streaming-broker latency headline).
    pub fn wait_p50_ms(&self) -> Option<f64> {
        self.wait_quantile_ms(0.50)
    }

    /// 99th-percentile queueing wait in ms (tail-latency headline).
    pub fn wait_p99_ms(&self) -> Option<f64> {
        self.wait_quantile_ms(0.99)
    }

    /// Mean queueing wait in ms over finished cloudlets, exact (not
    /// histogram-estimated). `None` when nothing finished with stamps.
    pub fn mean_wait_ms(&self) -> Option<f64> {
        let a = &self.aggregate;
        (a.wait_n > 0).then(|| a.wait_sum / a.wait_n as f64)
    }

    /// Maximum queueing wait in ms over finished cloudlets, exact.
    pub fn max_wait_ms(&self) -> Option<f64> {
        let a = &self.aggregate;
        (a.wait_n > 0).then_some(a.wait_max)
    }

    /// Earliest submission time over finished cloudlets, in ms. Opens the
    /// throughput window (arrival-anchored, unlike Eq. 12's `min_start`).
    pub fn min_submit_ms(&self) -> Option<f64> {
        self.aggregate.min_submit
    }

    /// Sustained throughput in finished cloudlets per second over the
    /// window from first submission to last finish (the latest finish of
    /// a cloudlet carrying both start and finish stamps). `None` when
    /// nothing finished or the window is degenerate (zero span).
    pub fn throughput_per_s(&self) -> Option<f64> {
        let window_ms = self.aggregate.max_finish? - self.min_submit_ms()?;
        (window_ms > 0.0).then(|| self.finished_count() as f64 / (window_ms / 1000.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, start: f64, finish: f64, cost: f64) -> CloudletRecord {
        CloudletRecord {
            id: CloudletId(id),
            vm: Some(VmId(id % 2)),
            submit: Some(SimTime::ZERO),
            start: Some(SimTime::new(start)),
            finish: Some(SimTime::new(finish)),
            execution_ms: Some(finish - start),
            cost,
            status: CloudletStatus::Finished,
            met_deadline: None,
        }
    }

    /// A two-VM outcome folded from `records`, as `outcome_from_world`
    /// folds a run.
    fn outcome(records: Vec<CloudletRecord>) -> SimulationOutcome {
        let mut aggregate = AggregateMetrics::new(2);
        for r in &records {
            aggregate.observe(r);
        }
        SimulationOutcome {
            records,
            aggregate,
            end_time: SimTime::new(100.0),
            events_processed: 1,
            vms_created: 2,
            vms_rejected: 0,
            resilience: ResilienceCounters::default(),
            engine: crate::simulation::EngineKind::Sequential,
        }
    }

    #[test]
    fn eq12_simulation_time() {
        let o = outcome(vec![rec(0, 5.0, 20.0, 1.0), rec(1, 10.0, 50.0, 2.0)]);
        assert_eq!(o.simulation_time_ms(), Some(45.0));
    }

    #[test]
    fn eq13_imbalance() {
        // exec times 10 and 30 -> (30-10)/20 = 1.0
        let o = outcome(vec![rec(0, 0.0, 10.0, 0.0), rec(1, 0.0, 30.0, 0.0)]);
        assert!((o.time_imbalance().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_balanced_run_has_zero_imbalance() {
        let o = outcome(vec![rec(0, 0.0, 10.0, 0.0), rec(1, 5.0, 15.0, 0.0)]);
        assert_eq!(o.time_imbalance(), Some(0.0));
    }

    #[test]
    fn cost_rollups() {
        let o = outcome(vec![rec(0, 0.0, 1.0, 3.0), rec(1, 0.0, 1.0, 5.0)]);
        assert_eq!(o.total_cost(), 8.0);
        assert_eq!(o.mean_cost(), Some(4.0));
    }

    #[test]
    fn unfinished_cloudlets_excluded() {
        let mut failed = rec(2, 0.0, 0.0, 99.0);
        failed.status = CloudletStatus::Failed;
        failed.execution_ms = None;
        let o = outcome(vec![rec(0, 0.0, 10.0, 1.0), failed]);
        assert_eq!(o.finished_count(), 1);
        assert_eq!(o.total_cost(), 1.0);
        assert_eq!(o.simulation_time_ms(), Some(10.0));
    }

    #[test]
    fn empty_outcome_yields_none_metrics() {
        let o = outcome(vec![]);
        assert_eq!(o.simulation_time_ms(), None);
        assert_eq!(o.time_imbalance(), None);
        assert_eq!(o.mean_cost(), None);
        assert_eq!(o.mean_execution_ms(), None);
        assert_eq!(o.total_cost(), 0.0);
    }

    #[test]
    fn per_vm_counts_spread() {
        let o = outcome(vec![
            rec(0, 0.0, 1.0, 0.0),
            rec(1, 0.0, 1.0, 0.0),
            rec(2, 0.0, 1.0, 0.0),
        ]);
        let counts = o.per_vm_counts(2);
        assert_eq!(counts, vec![2, 1]);
    }

    #[test]
    fn per_vm_busy_accumulates_execution() {
        // ids 0 and 2 land on vm0, id 1 on vm1 (rec uses id % 2).
        let o = outcome(vec![
            rec(0, 0.0, 10.0, 0.0),
            rec(1, 0.0, 30.0, 0.0),
            rec(2, 5.0, 15.0, 0.0),
        ]);
        let busy = o.per_vm_busy_ms(2);
        assert!((busy[0] - 20.0).abs() < 1e-12);
        assert!((busy[1] - 30.0).abs() < 1e-12);
    }

    #[test]
    fn fold_answers_a_mixed_run() {
        let mut failed = rec(3, 0.0, 0.0, 99.0);
        failed.status = CloudletStatus::Failed;
        failed.execution_ms = None;
        failed.met_deadline = Some(false);
        let mut hit = rec(4, 2.0, 9.5, 0.25);
        hit.met_deadline = Some(true);
        let o = outcome(vec![
            rec(0, 5.0, 20.0, 1.5),
            rec(1, 10.0, 50.0, 2.25),
            rec(2, 0.5, 13.0, 0.125),
            failed,
            hit,
        ]);
        assert_eq!(o.finished_count(), 4);
        assert_eq!(o.simulation_time_ms(), Some(49.5));
        // exec 15, 40, 12.5, 7.5: (40 − 7.5) / 18.75.
        assert_eq!(o.time_imbalance(), Some(32.5 / 18.75));
        assert_eq!(
            o.total_cost(),
            4.125,
            "the failed cloudlet's cost is excluded"
        );
        assert_eq!(o.sla_violations(), 1);
        assert_eq!(o.sla_attainment(), Some(0.5));
        // ids 0, 2 and 4 ran on vm0, id 1 on vm1; id 3 failed.
        let usage = o.per_vm_usage(2);
        assert_eq!(usage.counts, vec![3, 1]);
        assert_eq!(usage.busy_ms, vec![35.0, 40.0]);
        // Asking for more VM slots than the fleet had pads with zeros;
        // asking for fewer truncates.
        assert_eq!(
            o.per_vm_usage(4),
            VmUsage {
                busy_ms: vec![35.0, 40.0, 0.0, 0.0],
                counts: vec![3, 1, 0, 0],
            }
        );
        assert_eq!(
            o.per_vm_usage(1),
            VmUsage {
                busy_ms: vec![35.0],
                counts: vec![3],
            }
        );
    }

    #[test]
    fn missing_exec_on_finished_voids_imbalance_but_not_the_mean() {
        let mut odd = rec(1, 0.0, 30.0, 0.0);
        odd.execution_ms = None;
        let o = outcome(vec![rec(0, 0.0, 10.0, 0.0), odd]);
        assert_eq!(o.time_imbalance(), None);
        // The mean skips the hole instead.
        assert_eq!(o.mean_execution_ms(), Some(10.0));
    }

    #[test]
    fn per_vm_usage_fuses_busy_and_counts() {
        let o = outcome(vec![
            rec(0, 0.0, 10.0, 0.0),
            rec(1, 0.0, 30.0, 0.0),
            rec(2, 5.0, 15.0, 0.0),
        ]);
        let usage = o.per_vm_usage(2);
        assert_eq!(usage.busy_ms, o.per_vm_busy_ms(2));
        assert_eq!(usage.counts, o.per_vm_counts(2));
        assert_eq!(usage.counts, vec![2, 1]);
    }

    #[test]
    fn failed_and_observed_counts() {
        let mut failed = rec(2, 0.0, 0.0, 0.0);
        failed.status = CloudletStatus::Failed;
        failed.execution_ms = None;
        let o = outcome(vec![rec(0, 0.0, 10.0, 1.0), rec(1, 0.0, 20.0, 1.0), failed]);
        assert_eq!(o.failed_count(), 1);
        assert_eq!(o.observed_count(), 3);
        assert!((o.completion_ratio().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn resilience_accessors() {
        let mut o = outcome(vec![rec(0, 0.0, 100.0, 0.0)]);
        assert_eq!(o.goodput(), Some(1.0), "fault-free run wastes nothing");
        assert_eq!(o.mean_time_to_recovery_ms(), None);
        o.resilience = ResilienceCounters {
            retries: 3,
            wasted_work_ms: 100.0,
            recovered: 2,
            recovery_time_ms: 500.0,
            abandoned: 1,
        };
        assert!((o.goodput().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(o.mean_time_to_recovery_ms(), Some(250.0));
        // Empty run: no execution anywhere -> None.
        let empty = outcome(vec![]);
        assert_eq!(empty.goodput(), None);
    }

    #[test]
    fn wait_histogram_buckets_resolve_to_nine_percent() {
        let mut h = WaitHistogram::new();
        for w in [0.0, 1.0, 10.0, 100.0, 1000.0] {
            h.record(w);
        }
        assert_eq!(h.len(), 5);
        // p50 is the 3rd smallest (10 ms) up to one bucket of error.
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 10.0).abs() / 10.0 < 0.10, "p50 = {p50}");
        // p99 rounds up to the largest observation's bucket.
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 1000.0).abs() / 1000.0 < 0.10, "p99 = {p99}");
        // The zero bucket reads back as exactly zero wait.
        let mut z = WaitHistogram::new();
        z.record(0.0);
        assert_eq!(z.quantile(0.5), Some(0.0));
        assert_eq!(WaitHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn wait_metrics_measure_submit_to_start() {
        // rec() submits at t=0, so wait == start.
        let o = outcome(vec![rec(0, 5.0, 20.0, 0.0), rec(1, 40.0, 50.0, 0.0)]);
        assert_eq!(o.mean_wait_ms(), Some(22.5));
        assert_eq!(o.max_wait_ms(), Some(40.0));
        let p50 = o.wait_p50_ms().unwrap();
        assert!((p50 - 5.0).abs() / 5.0 < 0.10, "p50 = {p50}");
        // No records at all -> None everywhere.
        let empty = outcome(vec![]);
        assert_eq!(empty.wait_p50_ms(), None);
        assert_eq!(empty.mean_wait_ms(), None);
        assert_eq!(empty.max_wait_ms(), None);
    }

    #[test]
    fn throughput_spans_submit_to_finish() {
        // Two cloudlets, submits at 0, last finish at 50 ms -> 40/s.
        let o = outcome(vec![rec(0, 5.0, 20.0, 0.0), rec(1, 10.0, 50.0, 0.0)]);
        assert!((o.throughput_per_s().unwrap() - 40.0).abs() < 1e-12);
        assert_eq!(o.min_submit_ms(), Some(0.0));
        // Degenerate window (submit == finish) -> None.
        let z = outcome(vec![rec(0, 0.0, 0.0, 0.0)]);
        assert_eq!(z.throughput_per_s(), None);
        assert_eq!(outcome(vec![]).throughput_per_s(), None);
    }

    #[test]
    fn sla_rollups() {
        let mut hit = rec(0, 0.0, 10.0, 0.0);
        hit.met_deadline = Some(true);
        let mut miss = rec(1, 0.0, 99.0, 0.0);
        miss.met_deadline = Some(false);
        let best_effort = rec(2, 0.0, 10.0, 0.0);
        let o = outcome(vec![hit, miss, best_effort]);
        assert_eq!(o.sla_violations(), 1);
        assert!((o.sla_attainment().unwrap() - 0.5).abs() < 1e-12);
        // No deadlines at all -> None.
        let o2 = outcome(vec![rec(0, 0.0, 1.0, 0.0)]);
        assert_eq!(o2.sla_attainment(), None);
        assert_eq!(o2.sla_violations(), 0);
    }
}
