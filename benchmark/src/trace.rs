//! Tracing taken from outside the program: spans held in memory, and probes
//! that wrap the public seams of each layer (scheduler, event sink, fold
//! loop). Only traced runs build these; end-to-end numbers never pass
//! through them.

use crate::harness::Clock;
use pilot_core::events::{EventSink, ProjEvent};
use pilot_core::scheduler::{FirstFitScheduler, PilotSnapshot, Scheduler, UnitRequest};
use pilot_core::state::UnitState;
use pilot_core::PilotId;
use pilot_query::{BrokerSink, Materializer};
use pilot_streaming::Broker;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed interval. Spans of one unit's journey share `unit`; `parent`
/// indexes the span that caused this one.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub unit: Option<u64>,
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (s.start_s.max(spans[p].start_s), s.end_s.min(spans[p].end_s));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut edge) = (0.0, f64::NEG_INFINITY);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(edge);
                if hi > lo {
                    covered += hi - lo;
                    edge = hi;
                }
            }
            (s.end_s - s.start_s - covered).max(0.0)
        })
        .collect()
}

/// Spans as a JSON array (the format of `out/trace-<workload>.json`), each
/// with its self time.
pub fn spans_json(spans: &[Span]) -> String {
    let self_s = self_times(spans);
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"self_s\":{:.9},\"parent\":{},\"unit\":{}}}{}\n",
            s.name,
            s.start_s,
            s.end_s,
            self_s[i],
            opt(s.parent.map(|p| p as u64)),
            opt(s.unit),
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

fn secs(counter: &AtomicU64) -> f64 {
    counter.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Counters of the late-binding scheduler, filled by [`TimedScheduler`].
#[derive(Default)]
pub struct SchedProbe {
    passes: AtomicU64,
    selects: AtomicU64,
    sampled_ns: AtomicU64,
}

/// One `select` in this many is timed; the total is scaled back up. A burst
/// offers its whole backlog every pass, so timing every call would cost more
/// than the calls.
const SELECT_SAMPLE: u64 = 16;

impl SchedProbe {
    /// Forget what was counted so far (the warm-up pass).
    pub fn reset(&self) {
        for c in [&self.passes, &self.selects, &self.sampled_ns] {
            c.store(0, Ordering::Relaxed);
        }
    }
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }
    /// Units offered to the policy (one `select` each).
    pub fn offered(&self) -> u64 {
        self.selects.load(Ordering::Relaxed)
    }
    pub fn select_busy_s(&self) -> f64 {
        secs(&self.sampled_ns) * SELECT_SAMPLE as f64
    }
}

/// First-fit with its calls counted and `select` timed.
pub struct TimedScheduler {
    inner: FirstFitScheduler,
    probe: Arc<SchedProbe>,
}

impl TimedScheduler {
    pub fn new(probe: Arc<SchedProbe>) -> Self {
        TimedScheduler {
            inner: FirstFitScheduler,
            probe,
        }
    }
}

impl Scheduler for TimedScheduler {
    fn select(&mut self, unit: &UnitRequest<'_>, pilots: &[PilotSnapshot]) -> Option<PilotId> {
        let n = self.probe.selects.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(SELECT_SAMPLE) {
            return self.inner.select(unit, pilots);
        }
        let t0 = Instant::now();
        let r = self.inner.select(unit, pilots);
        self.probe
            .sampled_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn begin_pass(&mut self) {
        self.probe.passes.fetch_add(1, Ordering::Relaxed);
        self.inner.begin_pass();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// When a unit's `Done` event left the sink, and when the service says the
/// unit finished (service timebase).
#[derive(Clone, Copy, Debug)]
pub struct DoneStamp {
    pub unit: u64,
    pub finished_svc_s: f64,
    pub emitted_s: f64,
}

/// Counters and stamps of the event sink, filled by [`TimedSink`].
#[derive(Default)]
pub struct SinkProbe {
    calls: AtomicU64,
    events: AtomicU64,
    busy_ns: AtomicU64,
    done: Mutex<Vec<DoneStamp>>,
    call_spans: Mutex<Vec<(f64, f64)>>,
}

impl SinkProbe {
    /// Forget what was counted and stamped so far (the warm-up pass).
    pub fn reset(&self) {
        for c in [&self.calls, &self.events, &self.busy_ns] {
            c.store(0, Ordering::Relaxed);
        }
        self.take_done();
        self.take_call_spans();
    }
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
    pub fn busy_s(&self) -> f64 {
        secs(&self.busy_ns)
    }
    pub fn take_done(&self) -> Vec<DoneStamp> {
        std::mem::take(&mut *self.done.lock().expect("sink probe lock"))
    }
    pub fn take_call_spans(&self) -> Vec<(f64, f64)> {
        std::mem::take(&mut *self.call_spans.lock().expect("sink probe lock"))
    }
}

/// `BrokerSink` with every `emit_batch` timed and every `Done` stamped on the
/// harness clock once its batch is appended. Runs on the manager thread.
pub struct TimedSink {
    inner: Arc<BrokerSink>,
    probe: Arc<SinkProbe>,
    clock: Clock,
}

impl TimedSink {
    pub fn new(inner: Arc<BrokerSink>, probe: Arc<SinkProbe>, clock: Clock) -> Arc<Self> {
        Arc::new(TimedSink {
            inner,
            probe,
            clock,
        })
    }
}

impl EventSink for TimedSink {
    fn emit_batch(&self, events: &[ProjEvent]) {
        let t0 = self.clock.now();
        self.inner.emit_batch(events);
        let t1 = self.clock.now();
        let p = &self.probe;
        p.calls.fetch_add(1, Ordering::Relaxed);
        p.events.fetch_add(events.len() as u64, Ordering::Relaxed);
        p.busy_ns
            .fetch_add(((t1 - t0) * 1e9) as u64, Ordering::Relaxed);
        p.call_spans.lock().expect("sink probe lock").push((t0, t1));
        let mut done = p.done.lock().expect("sink probe lock");
        for e in events {
            if let ProjEvent::Unit {
                unit,
                state: UnitState::Done,
                t_s,
                ..
            } = *e
            {
                done.push(DoneStamp {
                    unit: unit.0,
                    finished_svc_s: t_s,
                    emitted_s: t1,
                });
            }
        }
    }
}

/// What one fold loop did, as seen from its caller.
#[derive(Clone, Debug, Default)]
pub struct FoldStats {
    pub busy_s: f64,
    pub idle_s: f64,
    pub events_applied: u64,
    pub lag_max: u64,
    pub poll_spans: Vec<(f64, f64)>,
    /// The broker error that ended the loop early, if one did.
    pub error: Option<String>,
}

impl FoldStats {
    pub fn absorb(&mut self, other: FoldStats) {
        self.busy_s += other.busy_s;
        self.idle_s += other.idle_s;
        self.events_applied += other.events_applied;
        self.lag_max = self.lag_max.max(other.lag_max);
        self.poll_spans.extend(other.poll_spans);
        self.error = self.error.take().or(other.error);
    }
}

/// Events between publications, set explicitly on every materializer so the
/// traced loop below can mirror `poll_apply`'s publish cadence.
pub const PUBLISH_EVERY: u64 = 64;

/// `Materializer::run_until_stopped`, driven call by call from here so each
/// call can be timed: poll, publish what a dry poll left pending, park on the
/// broker's data signal, and drain once more after `stop`.
pub fn traced_fold(
    m: &mut Materializer,
    broker: &Broker,
    stop: &AtomicBool,
    clock: Clock,
) -> FoldStats {
    let mut st = FoldStats::default();
    // `poll_apply` publishes whenever PUBLISH_EVERY applied events have
    // accumulated, so what it leaves unpublished is the running count modulo
    // the cadence.
    let mut pending = 0u64;
    let mut polls = 0u64;
    loop {
        let seen = broker.data_seq();
        let t0 = clock.now();
        let applied = m.poll_apply(512);
        let t1 = clock.now();
        st.busy_s += t1 - t0;
        match applied {
            Ok(0) => {
                if pending > 0 {
                    let t0 = clock.now();
                    m.publish();
                    st.busy_s += clock.now() - t0;
                    pending = 0;
                }
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let t0 = Instant::now();
                broker.wait_for_data(seen, Duration::from_millis(5));
                st.idle_s += t0.elapsed().as_secs_f64();
            }
            Ok(n) => {
                st.poll_spans.push((t0, t1));
                st.events_applied += n as u64;
                pending = (pending + n as u64) % PUBLISH_EVERY;
                polls += 1;
                if polls.is_multiple_of(64) {
                    st.lag_max = st.lag_max.max(m.lag().unwrap_or(0));
                }
            }
            Err(e) => {
                st.error = Some(e.to_string());
                return st;
            }
        }
    }
    match m.catch_up() {
        Ok(n) => st.events_applied += n,
        Err(e) => st.error = Some(e.to_string()),
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            unit: Some(7),
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let spans = vec![
            span("journey", 0.0, 10.0, None),
            span("control", 1.0, 4.0, Some(0)),
            span("emit", 3.0, 6.0, Some(0)), // overlaps control by 1
            span("visible", 8.0, 12.0, Some(0)), // clipped to the parent's end
            span("bind", 1.5, 2.0, Some(1)),
        ];
        let st = self_times(&spans);
        // Children cover [1,6] and [8,10] of the journey: 7 of 10.
        assert!((st[0] - 3.0).abs() < 1e-12);
        assert!((st[1] - 2.5).abs() < 1e-12);
        assert!((st[2] - 3.0).abs() < 1e-12);
        assert!((st[3] - 4.0).abs() < 1e-12);
        assert!((st[4] - 0.5).abs() < 1e-12);
        // Self times of a parent and its non-overlapping children add up.
        let seq = vec![
            span("p", 0.0, 3.0, None),
            span("a", 0.0, 1.0, Some(0)),
            span("b", 1.0, 3.0, Some(0)),
        ];
        let st = self_times(&seq);
        assert!(st[0].abs() < 1e-12);
        assert!((st.iter().sum::<f64>() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_ignores_a_dangling_parent() {
        let spans = vec![span("a", 0.0, 1.0, Some(9))];
        assert_eq!(self_times(&spans), vec![1.0]);
    }
}
