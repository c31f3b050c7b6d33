//! Per-VM cloudlet execution schedulers.
//!
//! Each VM runs one `CloudletScheduler` that decides how the VM's compute
//! capacity is divided among the cloudlets bound to it. Two policies mirror
//! CloudSim's stock implementations:
//!
//! * [`SpaceShared`] — cloudlets occupy PEs exclusively; at most
//!   `vm.pes` PEs' worth of cloudlets run at once, the rest wait FIFO.
//! * [`TimeShared`] — all cloudlets run concurrently, splitting the VM's
//!   total MIPS evenly (capped at each cloudlet's PE demand).
//!
//! The scheduler is a pure state machine over simulated time: the
//! datacenter calls [`CloudletScheduler::advance`] whenever an event
//! touches the VM, and schedules the returned `next_completion` as a
//! `VmTick`.

use std::collections::VecDeque;

use crate::ids::CloudletId;
use crate::time::SimTime;

/// Execution state of one cloudlet inside a VM scheduler.
#[derive(Debug, Clone)]
pub struct RunningCloudlet {
    /// Which cloudlet this is.
    pub id: CloudletId,
    /// Compute still owed, in million instructions.
    pub remaining_mi: f64,
    /// PEs the cloudlet occupies while running.
    pub pes: u32,
}

impl RunningCloudlet {
    /// Creates the execution record for a cloudlet of `length_mi` MI.
    pub fn new(id: CloudletId, length_mi: f64, pes: u32) -> Self {
        RunningCloudlet {
            id,
            remaining_mi: length_mi,
            pes,
        }
    }
}

/// Result of advancing a scheduler to a point in time.
#[derive(Debug, Default)]
pub struct Tick {
    /// Cloudlets that began executing during this advance.
    pub started: Vec<CloudletId>,
    /// Cloudlets that completed during this advance.
    pub finished: Vec<CloudletId>,
    /// Absolute time of the next completion, if any cloudlet is running.
    pub next_completion: Option<SimTime>,
}

/// Remaining-work threshold below which a cloudlet counts as finished.
/// Guards against floating-point residue at predicted completion times.
const DONE_EPS_MI: f64 = 1e-6;

/// How a VM divides its compute among bound cloudlets.
pub trait CloudletScheduler: Send {
    /// Binds a cloudlet to this VM at time `now` and returns the resulting
    /// state change (it may start immediately or queue).
    fn submit(&mut self, now: SimTime, cl: RunningCloudlet) -> Tick;

    /// Binds a whole batch arriving at the same instant, settling the
    /// clock once for the group instead of once per cloudlet. Equivalent
    /// to submitting each cloudlet in order at `now`.
    fn submit_many(&mut self, now: SimTime, cls: Vec<RunningCloudlet>) -> Tick {
        let mut out = Tick::default();
        for cl in cls {
            let t = self.submit(now, cl);
            out.started.extend(t.started);
            out.finished.extend(t.finished);
            out.next_completion = t.next_completion;
        }
        out
    }

    /// Advances execution to `now`, collecting completions and starts.
    fn advance(&mut self, now: SimTime) -> Tick;

    /// Cloudlets currently executing.
    fn running_count(&self) -> usize;

    /// Cloudlets waiting to execute.
    fn waiting_count(&self) -> usize;

    /// Total MI of work still bound to this VM (running + waiting).
    fn backlog_mi(&self) -> f64;

    /// Removes and returns every cloudlet still bound to this VM, running
    /// or waiting — used when the VM is destroyed (host failure).
    fn drain(&mut self) -> Vec<CloudletId>;

    /// Changes the VM's per-PE rate at time `now` (straggler injection).
    ///
    /// Work executed before `now` is settled under the *old* rate first —
    /// completions that land exactly at `now` are harvested into the
    /// returned tick — then the new rate applies from `now` on. The tick's
    /// `next_completion` reflects the new rate.
    fn set_rate(&mut self, now: SimTime, mips_per_pe: f64) -> Tick;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// FIFO space-shared scheduler (CloudSim `CloudletSchedulerSpaceShared`),
/// optionally with backfilling.
#[derive(Debug)]
pub struct SpaceShared {
    mips_per_pe: f64,
    total_pes: u32,
    running: Vec<RunningCloudlet>,
    waiting: VecDeque<RunningCloudlet>,
    last_update: SimTime,
    /// PEs held by `running` cloudlets, maintained incrementally so the
    /// promotion loop does not rescan `running` on every iteration.
    pes_in_use: u32,
    /// Set by `submit`: a cloudlet was added after the last harvest pass,
    /// so a same-time `advance` cannot take the cached fast path.
    dirty: bool,
    /// `next_completion` from the last full settle; valid while `!dirty`
    /// and the clock has not moved past `last_update`.
    cached_next: Option<SimTime>,
    /// With backfilling, a waiting cloudlet behind a blocked queue head
    /// may start if enough PEs are free — curing the multi-PE
    /// head-of-line blocking strict FIFO suffers.
    backfill: bool,
}

impl SpaceShared {
    /// Creates a scheduler for a VM with `total_pes` PEs of `mips_per_pe`.
    pub fn new(mips_per_pe: f64, total_pes: u32) -> Self {
        assert!(mips_per_pe > 0.0 && total_pes > 0);
        SpaceShared {
            mips_per_pe,
            total_pes,
            running: Vec::new(),
            waiting: VecDeque::new(),
            last_update: SimTime::ZERO,
            pes_in_use: 0,
            dirty: false,
            cached_next: None,
            backfill: false,
        }
    }

    /// Enables backfilling.
    fn with_backfill(mut self) -> Self {
        self.backfill = true;
        self
    }

    /// Execution rate of one cloudlet in MI per millisecond.
    fn rate_mi_per_ms(&self, cl: &RunningCloudlet) -> f64 {
        // Each of the cloudlet's PEs advances at the VM's per-PE MIPS.
        self.mips_per_pe * f64::from(cl.pes) / 1_000.0
    }

    /// Runs the clock forward and harvests completions / promotions.
    fn settle(&mut self, now: SimTime, tick: &mut Tick) {
        // A stale `now` (an out-of-date duplicate tick) must not rewind the
        // clock or shrink completion predictions below what was already
        // settled.
        let now = now.max(self.last_update);
        let dt_ms = now.saturating_sub(self.last_update).as_millis();
        if dt_ms > 0.0 {
            for cl in self.running.iter_mut() {
                cl.remaining_mi -= self.mips_per_pe * f64::from(cl.pes) / 1_000.0 * dt_ms;
            }
        }
        self.last_update = now;
        // Harvest finished in one order-preserving pass, giving their PEs
        // back as we go.
        let pes_in_use = &mut self.pes_in_use;
        self.running.retain(|cl| {
            if cl.remaining_mi <= DONE_EPS_MI {
                *pes_in_use -= cl.pes;
                tick.finished.push(cl.id);
                false
            } else {
                true
            }
        });
        // Promote waiting cloudlets into freed PEs: strict FIFO by
        // default; with backfilling, scan past a blocked head for the
        // first job that fits.
        loop {
            let free = self.total_pes - self.pes_in_use;
            if free == 0 {
                break;
            }
            let fits = |cl: &RunningCloudlet| cl.pes.min(self.total_pes) <= free;
            let pick = if self.backfill {
                self.waiting.iter().position(fits)
            } else {
                self.waiting.front().and_then(|h| fits(h).then_some(0))
            };
            let Some(pos) = pick else { break };
            let mut cl = self.waiting.remove(pos).expect("position checked");
            // A cloudlet demanding more PEs than the VM owns is clamped
            // (CloudSim runs it on all available PEs).
            cl.pes = cl.pes.min(self.total_pes);
            self.pes_in_use += cl.pes;
            tick.started.push(cl.id);
            self.running.push(cl);
        }
    }

    fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let now = now.max(self.last_update);
        self.running
            .iter()
            .map(|cl| {
                let ms = cl.remaining_mi.max(0.0) / self.rate_mi_per_ms(cl);
                now + SimTime::new(ms)
            })
            .min()
    }
}

impl CloudletScheduler for SpaceShared {
    fn submit(&mut self, now: SimTime, cl: RunningCloudlet) -> Tick {
        let mut tick = Tick::default();
        self.settle(now, &mut tick);
        self.waiting.push_back(cl);
        // Re-settle to promote immediately if PEs are free.
        self.settle(now, &mut tick);
        self.dirty = true;
        tick.next_completion = self.next_completion(now);
        self.cached_next = tick.next_completion;
        tick
    }

    fn submit_many(&mut self, now: SimTime, cls: Vec<RunningCloudlet>) -> Tick {
        let mut tick = Tick::default();
        self.settle(now, &mut tick);
        self.waiting.extend(cls);
        // One promotion pass fills the free PEs in the same FIFO (or
        // backfill) order the per-cloudlet path would.
        self.settle(now, &mut tick);
        self.dirty = true;
        tick.next_completion = self.next_completion(now);
        self.cached_next = tick.next_completion;
        tick
    }

    fn advance(&mut self, now: SimTime) -> Tick {
        // A same-time (or stale) advance with no submissions since the
        // last settle cannot change any state: answer from the cache.
        if !self.dirty && now <= self.last_update {
            return Tick {
                next_completion: self.cached_next,
                ..Tick::default()
            };
        }
        let mut tick = Tick::default();
        self.settle(now, &mut tick);
        self.dirty = false;
        tick.next_completion = self.next_completion(now);
        self.cached_next = tick.next_completion;
        tick
    }

    fn running_count(&self) -> usize {
        self.running.len()
    }

    fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    fn backlog_mi(&self) -> f64 {
        self.running
            .iter()
            .map(|c| c.remaining_mi.max(0.0))
            .chain(self.waiting.iter().map(|c| c.remaining_mi))
            .sum()
    }

    fn drain(&mut self) -> Vec<CloudletId> {
        self.pes_in_use = 0;
        self.dirty = false;
        self.cached_next = None;
        self.running
            .drain(..)
            .map(|c| c.id)
            .chain(self.waiting.drain(..).map(|c| c.id))
            .collect()
    }

    fn set_rate(&mut self, now: SimTime, mips_per_pe: f64) -> Tick {
        assert!(mips_per_pe > 0.0, "degraded rate must stay positive");
        let mut tick = Tick::default();
        // Settle progress under the old rate, harvesting on-time finishes
        // and promoting into freed PEs, then switch.
        self.settle(now, &mut tick);
        self.mips_per_pe = mips_per_pe;
        self.dirty = false;
        tick.next_completion = self.next_completion(now);
        self.cached_next = tick.next_completion;
        tick
    }

    fn name(&self) -> &'static str {
        "space-shared"
    }
}

/// Fair time-shared scheduler (CloudSim `CloudletSchedulerTimeShared`).
#[derive(Debug)]
pub struct TimeShared {
    mips_per_pe: f64,
    total_pes: u32,
    running: Vec<RunningCloudlet>,
    last_update: SimTime,
    /// Set by `submit`: a cloudlet was added after the last harvest pass,
    /// so a same-time `advance` cannot take the cached fast path.
    dirty: bool,
    /// `next_completion` from the last full settle; valid while `!dirty`
    /// and the clock has not moved past `last_update`.
    cached_next: Option<SimTime>,
}

impl TimeShared {
    /// Creates a scheduler for a VM with `total_pes` PEs of `mips_per_pe`.
    pub fn new(mips_per_pe: f64, total_pes: u32) -> Self {
        assert!(mips_per_pe > 0.0 && total_pes > 0);
        TimeShared {
            mips_per_pe,
            total_pes,
            running: Vec::new(),
            last_update: SimTime::ZERO,
            dirty: false,
            cached_next: None,
        }
    }

    /// Per-cloudlet execution rate in MI/ms under an even capacity split,
    /// capped by the cloudlet's own PE demand.
    fn rate_mi_per_ms(&self, cl: &RunningCloudlet) -> f64 {
        let n = self.running.len().max(1) as f64;
        let total_mips = self.mips_per_pe * f64::from(self.total_pes);
        let fair = total_mips / n;
        let cap = self.mips_per_pe * f64::from(cl.pes);
        fair.min(cap) / 1_000.0
    }

    fn settle(&mut self, now: SimTime, tick: &mut Tick) {
        // Same stale-`now` clamp as the space-shared scheduler.
        let now = now.max(self.last_update);
        let dt_ms = now.saturating_sub(self.last_update).as_millis();
        if dt_ms > 0.0 {
            // Inline `rate_mi_per_ms`, hoisting the parts shared by every
            // cloudlet; the arithmetic (and its evaluation order) is
            // identical, so results match the per-element form bit for bit.
            let n = self.running.len().max(1) as f64;
            let total_mips = self.mips_per_pe * f64::from(self.total_pes);
            let fair = total_mips / n;
            for cl in self.running.iter_mut() {
                let rate = fair.min(self.mips_per_pe * f64::from(cl.pes)) / 1_000.0;
                cl.remaining_mi -= rate * dt_ms;
            }
        }
        self.last_update = now;
        self.running.retain(|cl| {
            if cl.remaining_mi <= DONE_EPS_MI {
                tick.finished.push(cl.id);
                false
            } else {
                true
            }
        });
    }

    fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        let now = now.max(self.last_update);
        self.running
            .iter()
            .map(|cl| {
                let ms = cl.remaining_mi.max(0.0) / self.rate_mi_per_ms(cl);
                now + SimTime::new(ms)
            })
            .min()
    }
}

impl CloudletScheduler for TimeShared {
    fn submit(&mut self, now: SimTime, cl: RunningCloudlet) -> Tick {
        let mut tick = Tick::default();
        self.settle(now, &mut tick);
        tick.started.push(cl.id);
        self.running.push(cl);
        self.dirty = true;
        tick.next_completion = self.next_completion(now);
        self.cached_next = tick.next_completion;
        tick
    }

    fn submit_many(&mut self, now: SimTime, cls: Vec<RunningCloudlet>) -> Tick {
        let mut tick = Tick::default();
        self.settle(now, &mut tick);
        for cl in cls {
            tick.started.push(cl.id);
            self.running.push(cl);
        }
        self.dirty = true;
        tick.next_completion = self.next_completion(now);
        self.cached_next = tick.next_completion;
        tick
    }

    fn advance(&mut self, now: SimTime) -> Tick {
        // Same cached fast path as the space-shared scheduler.
        if !self.dirty && now <= self.last_update {
            return Tick {
                next_completion: self.cached_next,
                ..Tick::default()
            };
        }
        let mut tick = Tick::default();
        self.settle(now, &mut tick);
        self.dirty = false;
        tick.next_completion = self.next_completion(now);
        self.cached_next = tick.next_completion;
        tick
    }

    fn running_count(&self) -> usize {
        self.running.len()
    }

    fn waiting_count(&self) -> usize {
        0
    }

    fn backlog_mi(&self) -> f64 {
        self.running.iter().map(|c| c.remaining_mi.max(0.0)).sum()
    }

    fn drain(&mut self) -> Vec<CloudletId> {
        self.dirty = false;
        self.cached_next = None;
        self.running.drain(..).map(|c| c.id).collect()
    }

    fn set_rate(&mut self, now: SimTime, mips_per_pe: f64) -> Tick {
        assert!(mips_per_pe > 0.0, "degraded rate must stay positive");
        let mut tick = Tick::default();
        self.settle(now, &mut tick);
        self.mips_per_pe = mips_per_pe;
        self.dirty = false;
        tick.next_completion = self.next_completion(now);
        self.cached_next = tick.next_completion;
        tick
    }

    fn name(&self) -> &'static str {
        "time-shared"
    }
}

/// Which stock scheduler a scenario wants on each VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// FIFO, PEs held exclusively (the paper's setting).
    #[default]
    SpaceShared,
    /// FIFO with backfilling: short jobs may overtake a blocked multi-PE
    /// queue head when enough PEs are free.
    SpaceSharedBackfill,
    /// Even MIPS split among all bound cloudlets.
    TimeShared,
}

impl SchedulerKind {
    /// Instantiates the scheduler for a VM with the given shape.
    pub fn build(self, mips_per_pe: f64, pes: u32) -> Box<dyn CloudletScheduler> {
        match self {
            SchedulerKind::SpaceShared => Box::new(SpaceShared::new(mips_per_pe, pes)),
            SchedulerKind::SpaceSharedBackfill => {
                Box::new(SpaceShared::new(mips_per_pe, pes).with_backfill())
            }
            SchedulerKind::TimeShared => Box::new(TimeShared::new(mips_per_pe, pes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cl(id: u32, mi: f64) -> RunningCloudlet {
        RunningCloudlet::new(CloudletId(id), mi, 1)
    }

    #[test]
    fn space_shared_runs_fifo() {
        let mut s = SpaceShared::new(1_000.0, 1); // 1 MI/ms
        let t0 = SimTime::ZERO;
        let tick = s.submit(t0, cl(0, 100.0));
        assert_eq!(tick.started, vec![CloudletId(0)]);
        assert_eq!(tick.next_completion, Some(SimTime::new(100.0)));

        let tick = s.submit(t0, cl(1, 50.0));
        assert!(tick.started.is_empty(), "second cloudlet must queue");
        assert_eq!(s.waiting_count(), 1);

        // First finishes at t=100; second starts then, finishes at t=150.
        let tick = s.advance(SimTime::new(100.0));
        assert_eq!(tick.finished, vec![CloudletId(0)]);
        assert_eq!(tick.started, vec![CloudletId(1)]);
        assert_eq!(tick.next_completion, Some(SimTime::new(150.0)));

        let tick = s.advance(SimTime::new(150.0));
        assert_eq!(tick.finished, vec![CloudletId(1)]);
        assert_eq!(tick.next_completion, None);
        assert_eq!(s.running_count(), 0);
    }

    #[test]
    fn space_shared_parallel_pes() {
        let mut s = SpaceShared::new(1_000.0, 2);
        let t0 = SimTime::ZERO;
        s.submit(t0, cl(0, 100.0));
        let tick = s.submit(t0, cl(1, 100.0));
        assert_eq!(s.running_count(), 2, "two PEs run two cloudlets at once");
        assert_eq!(tick.next_completion, Some(SimTime::new(100.0)));
        let tick = s.advance(SimTime::new(100.0));
        assert_eq!(tick.finished.len(), 2);
    }

    #[test]
    fn space_shared_clamps_oversized_pe_demand() {
        let mut s = SpaceShared::new(1_000.0, 2);
        let wide = RunningCloudlet::new(CloudletId(0), 100.0, 8);
        let tick = s.submit(SimTime::ZERO, wide);
        assert_eq!(tick.started, vec![CloudletId(0)]);
        // Runs on 2 PEs -> 2 MI/ms -> done at 50ms.
        assert_eq!(tick.next_completion, Some(SimTime::new(50.0)));
    }

    #[test]
    fn time_shared_splits_capacity() {
        let mut s = TimeShared::new(1_000.0, 1); // 1 MI/ms total
        let t0 = SimTime::ZERO;
        s.submit(t0, cl(0, 100.0));
        let tick = s.submit(t0, cl(1, 100.0));
        // Each runs at 0.5 MI/ms -> both complete at 200ms.
        assert_eq!(tick.next_completion, Some(SimTime::new(200.0)));
        let tick = s.advance(SimTime::new(200.0));
        assert_eq!(tick.finished.len(), 2);
    }

    #[test]
    fn time_shared_speeds_up_after_departure() {
        let mut s = TimeShared::new(1_000.0, 1);
        let t0 = SimTime::ZERO;
        s.submit(t0, cl(0, 50.0));
        s.submit(t0, cl(1, 100.0));
        // Both at 0.5 MI/ms. cl0 done at t=100 (50/0.5).
        let tick = s.advance(SimTime::new(100.0));
        assert_eq!(tick.finished, vec![CloudletId(0)]);
        // cl1 has 50 MI left, now at full 1 MI/ms -> done at 150.
        assert_eq!(tick.next_completion, Some(SimTime::new(150.0)));
        let tick = s.advance(SimTime::new(150.0));
        assert_eq!(tick.finished, vec![CloudletId(1)]);
    }

    #[test]
    fn time_shared_caps_at_pe_demand() {
        // VM has 4 PEs x 1000 MIPS but the lone cloudlet only uses 1 PE.
        let mut s = TimeShared::new(1_000.0, 4);
        let tick = s.submit(SimTime::ZERO, cl(0, 100.0));
        // Rate capped at 1 MI/ms, not 4.
        assert_eq!(tick.next_completion, Some(SimTime::new(100.0)));
    }

    #[test]
    fn backlog_accounts_running_and_waiting() {
        let mut s = SpaceShared::new(1_000.0, 1);
        s.submit(SimTime::ZERO, cl(0, 100.0));
        s.submit(SimTime::ZERO, cl(1, 60.0));
        assert!((s.backlog_mi() - 160.0).abs() < 1e-9);
        s.advance(SimTime::new(40.0));
        assert!((s.backlog_mi() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn backfill_cures_head_of_line_blocking() {
        // 2-PE VM running a 1-PE job; queue: [2-PE job (blocked), 1-PE job].
        // Strict FIFO idles the free PE; backfill runs the 1-PE job now.
        let strict = {
            let mut s = SpaceShared::new(1_000.0, 2);
            s.submit(
                SimTime::ZERO,
                RunningCloudlet::new(CloudletId(0), 1_000.0, 1),
            );
            s.submit(
                SimTime::ZERO,
                RunningCloudlet::new(CloudletId(1), 1_000.0, 2),
            );
            let tick = s.submit(SimTime::ZERO, RunningCloudlet::new(CloudletId(2), 100.0, 1));
            assert!(tick.started.is_empty(), "FIFO must not jump the queue");
            s
        };
        assert_eq!(strict.running_count(), 1);

        let mut bf = SpaceShared::new(1_000.0, 2).with_backfill();
        bf.submit(
            SimTime::ZERO,
            RunningCloudlet::new(CloudletId(0), 1_000.0, 1),
        );
        bf.submit(
            SimTime::ZERO,
            RunningCloudlet::new(CloudletId(1), 1_000.0, 2),
        );
        let tick = bf.submit(SimTime::ZERO, RunningCloudlet::new(CloudletId(2), 100.0, 1));
        assert_eq!(
            tick.started,
            vec![CloudletId(2)],
            "backfill starts the small job"
        );
        assert_eq!(bf.running_count(), 2);
        assert_eq!(bf.waiting_count(), 1);
        // The blocked 2-PE job still runs eventually.
        let t = bf.advance(SimTime::new(10_000.0));
        assert!(t.finished.contains(&CloudletId(1)) || bf.running_count() > 0);
    }

    #[test]
    fn backfill_kind_builds() {
        assert_eq!(
            SchedulerKind::SpaceSharedBackfill.build(100.0, 2).name(),
            "space-shared"
        );
    }

    #[test]
    fn drain_empties_both_queues() {
        let mut s = SpaceShared::new(1_000.0, 1);
        s.submit(SimTime::ZERO, cl(0, 100.0));
        s.submit(SimTime::ZERO, cl(1, 100.0));
        let drained = s.drain();
        assert_eq!(drained, vec![CloudletId(0), CloudletId(1)]);
        assert_eq!(s.running_count(), 0);
        assert_eq!(s.waiting_count(), 0);
        assert_eq!(s.backlog_mi(), 0.0);

        let mut t = TimeShared::new(1_000.0, 1);
        t.submit(SimTime::ZERO, cl(2, 50.0));
        assert_eq!(t.drain(), vec![CloudletId(2)]);
        assert_eq!(t.running_count(), 0);
    }

    #[test]
    fn kind_builds_expected_impl() {
        assert_eq!(
            SchedulerKind::SpaceShared.build(100.0, 1).name(),
            "space-shared"
        );
        assert_eq!(
            SchedulerKind::TimeShared.build(100.0, 1).name(),
            "time-shared"
        );
    }

    #[test]
    fn stale_advance_does_not_rewind_progress() {
        // A duplicate tick carrying an older timestamp must neither re-run
        // work nor shrink the completion prediction.
        let mut t = TimeShared::new(1_000.0, 1); // 1 MI/ms
        t.submit(SimTime::ZERO, cl(0, 100.0));
        t.advance(SimTime::new(60.0)); // 40 MI left, clock at 60
        let stale = t.advance(SimTime::new(40.0));
        assert!(stale.finished.is_empty());
        assert_eq!(stale.next_completion, Some(SimTime::new(100.0)));

        let mut s = SpaceShared::new(1_000.0, 1);
        s.submit(SimTime::ZERO, cl(0, 100.0));
        s.advance(SimTime::new(50.0));
        let stale = s.advance(SimTime::new(20.0));
        assert!(stale.finished.is_empty());
        assert_eq!(stale.next_completion, Some(SimTime::new(100.0)));
    }

    #[test]
    fn submit_many_matches_sequential_submits_space_shared() {
        let cls = || vec![cl(0, 100.0), cl(1, 50.0), cl(2, 75.0)];
        let mut one_by_one = SpaceShared::new(1_000.0, 2);
        let mut started = Vec::new();
        let mut last = None;
        for c in cls() {
            let t = one_by_one.submit(SimTime::ZERO, c);
            started.extend(t.started);
            last = t.next_completion;
        }

        let mut batched = SpaceShared::new(1_000.0, 2);
        let tick = batched.submit_many(SimTime::ZERO, cls());
        assert_eq!(tick.started, started);
        assert_eq!(tick.next_completion, last);
        assert_eq!(batched.running_count(), one_by_one.running_count());
        assert_eq!(batched.waiting_count(), one_by_one.waiting_count());

        // The two instances stay in lockstep through the whole run.
        for t_ms in [50.0, 100.0, 125.0, 200.0] {
            let a = one_by_one.advance(SimTime::new(t_ms));
            let b = batched.advance(SimTime::new(t_ms));
            assert_eq!(a.finished, b.finished, "at t={t_ms}");
            assert_eq!(a.started, b.started, "at t={t_ms}");
            assert_eq!(a.next_completion, b.next_completion, "at t={t_ms}");
        }
    }

    #[test]
    fn submit_many_matches_sequential_submits_time_shared() {
        let cls = || vec![cl(0, 100.0), cl(1, 40.0)];
        let mut one_by_one = TimeShared::new(1_000.0, 1);
        let mut last = None;
        for c in cls() {
            last = one_by_one.submit(SimTime::ZERO, c).next_completion;
        }
        let mut batched = TimeShared::new(1_000.0, 1);
        let tick = batched.submit_many(SimTime::ZERO, cls());
        assert_eq!(tick.started, vec![CloudletId(0), CloudletId(1)]);
        assert_eq!(tick.next_completion, last);
        let a = one_by_one.advance(SimTime::new(80.0));
        let b = batched.advance(SimTime::new(80.0));
        assert_eq!(a.finished, b.finished);
        assert_eq!(a.next_completion, b.next_completion);
    }

    #[test]
    fn cached_fast_path_survives_interleaved_submit() {
        // advance → submit (dirty) → same-time advance must re-settle and
        // still report the fresh prediction, not a stale cache.
        let mut s = SpaceShared::new(1_000.0, 2);
        s.submit(SimTime::ZERO, cl(0, 100.0));
        s.advance(SimTime::new(10.0));
        s.submit(SimTime::new(10.0), cl(1, 20.0));
        let t = s.advance(SimTime::new(10.0));
        assert_eq!(t.next_completion, Some(SimTime::new(30.0)));
    }

    #[test]
    fn set_rate_settles_old_rate_then_slows() {
        // 1 MI/ms for 50ms (50 MI done), then halved: the remaining 50 MI
        // takes 100ms, finishing at t=150 instead of t=100.
        let mut t = TimeShared::new(1_000.0, 1);
        t.submit(SimTime::ZERO, cl(0, 100.0));
        let tick = t.set_rate(SimTime::new(50.0), 500.0);
        assert!(tick.finished.is_empty());
        assert_eq!(tick.next_completion, Some(SimTime::new(150.0)));
        let done = t.advance(SimTime::new(150.0));
        assert_eq!(done.finished, vec![CloudletId(0)]);

        let mut s = SpaceShared::new(1_000.0, 1);
        s.submit(SimTime::ZERO, cl(0, 100.0));
        let tick = s.set_rate(SimTime::new(50.0), 500.0);
        assert_eq!(tick.next_completion, Some(SimTime::new(150.0)));
        // Restoring the rate mid-flight speeds the remainder back up:
        // 25 MI done by t=100 under 0.5 MI/ms, 25 MI left at 1 MI/ms.
        let tick = s.set_rate(SimTime::new(100.0), 1_000.0);
        assert_eq!(tick.next_completion, Some(SimTime::new(125.0)));
    }

    #[test]
    fn set_rate_harvests_on_time_completions() {
        let mut s = SpaceShared::new(1_000.0, 1);
        s.submit(SimTime::ZERO, cl(0, 100.0));
        s.submit(SimTime::ZERO, cl(1, 40.0));
        // cl0 finishes exactly at the rate-change instant; cl1 is promoted
        // and runs at the new (halved) rate: 40 MI / 0.5 = 80ms.
        let tick = s.set_rate(SimTime::new(100.0), 500.0);
        assert_eq!(tick.finished, vec![CloudletId(0)]);
        assert_eq!(tick.started, vec![CloudletId(1)]);
        assert_eq!(tick.next_completion, Some(SimTime::new(180.0)));
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let mut s = SpaceShared::new(1_000.0, 1);
        s.submit(SimTime::ZERO, cl(0, 100.0));
        let t = SimTime::new(30.0);
        let first = s.advance(t);
        let second = s.advance(t);
        assert_eq!(first.next_completion, second.next_completion);
        assert!(second.finished.is_empty());
    }
}
