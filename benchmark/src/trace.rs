//! Wall-clock spans recorded around calls into the library's layers.
//!
//! The benchmark never instruments the library itself: it times calls
//! into each layer's public functions from its own code. Calls the
//! library makes on its own (the stream broker's `schedule_warm`, the
//! simulator's retry replans) are reached by handing it wrapped trait
//! objects, [`TimedScheduler`] and [`TimedRescheduler`]. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use biosched_core::assignment::Assignment;
use biosched_core::eval::EvalCache;
use biosched_core::problem::SchedulingProblem;
use biosched_core::scheduler::{MetaProvenance, Scheduler};
use biosched_core::warm::WarmState;
use simcloud::broker::Rescheduler;
use simcloud::ids::{CloudletId, VmId};
use simcloud::kernel::World;
use simcloud::time::SimTime;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sched.aco` or `sim.batch.sharded`.
    pub name: String,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span recorder shared by the runner and the wrappers it hands to the
/// library. [`Tracer::off`] records nothing and adds no timing calls.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Mutex<Recorder>>>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer(Some(Arc::new(Mutex::new(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))))
    }

    /// True when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    fn lock(rec: &Mutex<Recorder>) -> MutexGuard<'_, Recorder> {
        rec.lock().expect("span recorder poisoned by a panic")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let Some(rec) = &self.0 else {
            return f();
        };
        let idx = {
            let mut r = Self::lock(rec);
            let start_ns = r.origin.elapsed().as_nanos() as u64;
            let parent = r.open.last().copied();
            r.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent,
            });
            let idx = r.spans.len() - 1;
            r.open.push(idx);
            idx
        };
        let out = f();
        let mut r = Self::lock(rec);
        r.spans[idx].end_ns = r.origin.elapsed().as_nanos() as u64;
        r.open.pop();
        out
    }

    /// Number of spans recorded so far (a mark for [`Tracer::since`]).
    pub fn mark(&self) -> usize {
        self.0.as_ref().map_or(0, |rec| Self::lock(rec).spans.len())
    }

    /// Spans recorded since `mark`, with parent indices rebased onto the
    /// returned slice (parents opened before `mark` become `None`).
    pub fn since(&self, mark: usize) -> Vec<Span> {
        let Some(rec) = &self.0 else {
            return Vec::new();
        };
        Self::lock(rec).spans[mark..]
            .iter()
            .map(|s| Span {
                parent: s.parent.and_then(|p| p.checked_sub(mark)),
                ..s.clone()
            })
            .collect()
    }

    /// Every span recorded, as one JSON document tagged with `workload`.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [");
        for (i, s) in self.since(0).iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"name\": \"{}\", \"workload\": \"{workload}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time per span name, in ms: each span's duration minus the time
/// its direct children cover.
pub fn self_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ms = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    let mut out = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ms) {
        *out.entry(s.name.clone()).or_insert(0.0) += s.ms() - child;
    }
    out
}

/// Total duration of the spans without a parent, in ms.
pub fn top_level_ms(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::ms)
        .sum()
}

/// Samples that must lie beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the sample at 1-based rank ⌈q·n⌉ of the
/// sorted values. Errors when fewer than [`MIN_BEYOND`] samples lie beyond
/// that rank, since such a tail would rest on a handful of samples.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let n = values.len();
    // The tolerance keeps q·n's representation error (0.99·1000 is not
    // exactly 990 in binary) from bumping the rank by one.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples leaves {} beyond rank {rank}; need {MIN_BEYOND}",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Lower quartile of a non-empty sample: the value at sorted index
/// ⌊(n−1)/4⌋.
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 4]
}

/// A scheduler whose every entry point runs inside a `sched.<family>`
/// span. Each trait method is forwarded explicitly: the trait's defaults
/// would silently turn `schedule_warm` into a cold `schedule_with_cache`
/// and drop the racer's `last_meta`.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    span: String,
    tracer: Tracer,
}

impl TimedScheduler {
    /// Wraps `inner`; spans are named `sched.<family>`.
    pub fn new(inner: Box<dyn Scheduler>, family: &str, tracer: Tracer) -> Self {
        TimedScheduler {
            inner,
            span: format!("sched.{family}"),
            tracer,
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        let inner = &mut self.inner;
        self.tracer.span(&self.span, || inner.schedule(problem))
    }

    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        let inner = &mut self.inner;
        self.tracer
            .span(&self.span, || inner.schedule_with_cache(problem, cache))
    }

    fn schedule_warm(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
        warm: &mut WarmState,
    ) -> Assignment {
        let inner = &mut self.inner;
        self.tracer
            .span(&self.span, || inner.schedule_warm(problem, cache, warm))
    }

    fn last_meta(&self) -> Option<MetaProvenance> {
        self.inner.last_meta()
    }
}

/// A broker rescheduler whose replans run inside `resched.replan` spans.
pub struct TimedRescheduler {
    inner: Box<dyn Rescheduler>,
    tracer: Tracer,
}

impl TimedRescheduler {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Rescheduler>, tracer: Tracer) -> Self {
        TimedRescheduler { inner, tracer }
    }
}

impl Rescheduler for TimedRescheduler {
    fn replan(&mut self, world: &World, now: SimTime, batch: &[CloudletId]) -> Vec<VmId> {
        let inner = &mut self.inner;
        self.tracer
            .span("resched.replan", || inner.replan(world, now, batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_the_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Ok(50.0));
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
        // ⌈0.99·1000⌉ = 990 leaves exactly ten samples beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Ok(990.0));
        // ⌈0.5·21⌉ = 11 rounds the rank up.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Ok(11.0));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&v, 0.99).unwrap_err().contains("need 10"));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&v, 0.95).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |name: &str, start_ns, end_ns, parent| Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        };
        let spans = [
            span("outer", 0, 10_000_000, None),
            span("inner", 1_000_000, 4_000_000, Some(0)),
            span("leaf", 2_000_000, 3_000_000, Some(1)),
            span("inner", 5_000_000, 6_000_000, Some(0)),
        ];
        let s = self_ms(&spans);
        assert_eq!(s["outer"], 6.0);
        assert_eq!(s["inner"], 3.0);
        assert_eq!(s["leaf"], 1.0);
        assert_eq!(top_level_ms(&spans), 10.0);
    }

    #[test]
    fn spans_nest_and_rebase() {
        let t = Tracer::on();
        t.span("a", || ());
        let mark = t.mark();
        t.span("b", || t.span("c", || ()));
        let spans = t.since(mark);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(Tracer::off().since(0).is_empty());
        assert!(t
            .to_json("w")
            .contains("\"name\": \"c\", \"workload\": \"w\""));
    }

    #[test]
    fn median_and_lower_quartile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(lower_quartile(&[3.0]), 3.0);
        assert_eq!(lower_quartile(&[5.0, 4.0, 3.0, 2.0, 1.0]), 2.0);
        let v: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&v), 3.0);
    }
}
