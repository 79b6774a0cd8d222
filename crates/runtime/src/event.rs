//! The event queue and the streaming front end of the serving engine.
//!
//! There is one decision loop, `Executor::advance`: rank the idle nodes,
//! apply the events due at their clocks, form and dispatch a batch, or jump
//! the clock. It pops completions from the executor's [`EventQueue`], a
//! binary heap keyed `(end_cycle, seq)`, merged with at most one staged
//! arrival. [`Executor::step`] runs one round of it with no streamed
//! arrivals; [`EventEngine`] adds the two things a long run needs around it:
//!
//! * **Arrivals stream in lazily.** Instead of materializing a whole trace
//!   into the scheduler up front, the engine stages one arrival event at a
//!   time from a [`WorkloadStream`](crate::workload::WorkloadStream) (or
//!   any request iterator), submitted when simulated time reaches it.
//! * **Finished sessions fold away.** [`EventEngine::run_stream_folded`]
//!   retires every finished session into a [`StatsFold`] at each
//!   completion, so memory stays O(live sessions) however long the stream
//!   runs.
//!
//! The loop's original per-step form — a linear `(end, seq)` scan of the
//! in-flight batches instead of the heap — is kept as a test-only oracle
//! (`src/oracle.rs`), and a property test holds the two bit-identical.
//!
//! Migration retries and swap-in barriers deliberately ride *inside*
//! completion events rather than as separate heap entries: KV pages are
//! freed exclusively by completion effects, and servicing a migration at
//! any other instant could pick a different target pool than the per-step
//! oracle — breaking bit-identity for no modeling gain.
//!
//! Event submission is passive (admission control aside, submitting a
//! request affects nothing until a batch forms at or after its arrival), so
//! lazy submission is equivalent to pre-submitted traces for every
//! state-independent admission configuration. The stateful admission
//! checks (`max_live_sessions` backpressure, SLO projection) evaluate
//! against the population *at submission time*, which under lazy submission
//! is the arrival instant — the more realistic reading, but a divergence
//! from pre-submitted runs; equivalence tests therefore exercise them with
//! those bounds unset.

use crate::executor::Executor;
use crate::kv::AdmissionError;
use crate::request::{Request, RequestId};
use crate::stats::{RuntimeReport, ScaleReport, StatsFold};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a popped event asks the engine to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A request's arrival instant: submit it to the scheduler and stage
    /// the next one from the stream.
    Arrival(Request),
    /// A dispatched micro-batch (identified by its dispatch sequence
    /// number) reached its end cycle: apply its completion effects,
    /// service KV migrations and retire finished sessions.
    Completion {
        /// Dispatch sequence number of the finishing batch.
        flight: u64,
    },
}

/// One scheduled event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle the event fires at.
    pub time: u64,
    /// Global push order, the tie-break within a cycle.
    pub seq: u64,
    /// What fires.
    pub kind: EventKind,
}

/// The engine loop's priority queue: node-completion events in a binary
/// min-heap keyed `(end_cycle, seq)`, plus at most one *staged* arrival —
/// the stream's next request, so unbounded request streams occupy O(1)
/// queue memory. Popping merges the two sources in `(time, seq)` order.
///
/// The queue tracks its own observability counters: pops, the queue-length
/// high-water mark, and per-kind time regressions (a pop earlier than the
/// previous pop of the same kind). Arrival pops are monotone whenever the
/// stream's arrivals are sorted; completion pops are monotone except in one
/// documented per-step-oracle artifact — a node with a lagging clock may
/// form a batch *in the past* using KV pages freed by a completion that
/// popped at a later cycle (bounded multi-pool placement only), and the
/// engine reproduces that batch exactly rather than breaking bit-identity.
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    completions: BinaryHeap<Reverse<(u64, u64, u64)>>,
    staged_arrival: Option<(u64, u64, Request)>,
    next_seq: u64,
    pops: u64,
    peak_len: usize,
    last_completion_pop: u64,
    last_arrival_pop: u64,
    completion_regressions: u64,
    arrival_regressions: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    fn bump_peak(&mut self) {
        let len = self.len();
        self.peak_len = self.peak_len.max(len);
    }

    /// Queued events (completions plus the staged arrival).
    pub fn len(&self) -> usize {
        self.completions.len() + usize::from(self.staged_arrival.is_some())
    }

    /// Whether no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules a completion event for the batch dispatched as `flight`.
    pub fn push_completion(&mut self, time: u64, flight: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.completions.push(Reverse((time, seq, flight)));
        self.bump_peak();
    }

    /// Stages the stream's next arrival (at most one at a time).
    ///
    /// # Panics
    /// Debug-asserts no arrival is already staged.
    pub fn stage_arrival(&mut self, request: Request) {
        debug_assert!(self.staged_arrival.is_none(), "one staged arrival at a time");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.staged_arrival = Some((request.arrival_cycle, seq, request));
        self.bump_peak();
    }

    /// `(time, seq)` of the next event without popping it.
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        let completion = self.completions.peek().map(|&Reverse((t, s, _))| (t, s));
        let arrival = self.staged_arrival.as_ref().map(|&(t, s, _)| (t, s));
        match (completion, arrival) {
            (Some(c), Some(a)) => Some(c.min(a)),
            (c, a) => c.or(a),
        }
    }

    /// Arrival cycle of the staged arrival, if any.
    pub fn staged_arrival_time(&self) -> Option<u64> {
        self.staged_arrival.as_ref().map(|&(t, _, _)| t)
    }

    /// Pops the next event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<Event> {
        let take_arrival = match (self.completions.peek(), &self.staged_arrival) {
            (Some(&Reverse((ct, cs, _))), Some((at, asq, _))) => (*at, *asq) < (ct, cs),
            (None, Some(_)) => true,
            _ => false,
        };
        if !take_arrival {
            return self.pop_completion();
        }
        let (time, seq, request) = self.staged_arrival.take()?;
        if time < self.last_arrival_pop {
            self.arrival_regressions += 1;
        }
        self.last_arrival_pop = time;
        self.pops += 1;
        Some(Event { time, seq, kind: EventKind::Arrival(request) })
    }

    /// Pops the next event if it fires at or before cycle `t`.
    pub(crate) fn pop_due(&mut self, t: u64) -> Option<Event> {
        match self.peek_key() {
            Some((time, _)) if time <= t => self.pop(),
            _ => None,
        }
    }

    /// Pops the earliest completion, skipping any staged arrival (the loop
    /// finishes a pending batch before jumping to an earlier arrival).
    pub(crate) fn pop_completion(&mut self) -> Option<Event> {
        let Reverse((time, seq, flight)) = self.completions.pop()?;
        if time < self.last_completion_pop {
            self.completion_regressions += 1;
        }
        self.last_completion_pop = time;
        self.pops += 1;
        Some(Event { time, seq, kind: EventKind::Completion { flight } })
    }

    /// Stages the next request of `stream`, if any, as the arrival event.
    pub(crate) fn stage_next(&mut self, stream: &mut impl Iterator<Item = Request>) {
        if let Some(request) = stream.next() {
            debug_assert!(
                self.last_arrival_pop <= request.arrival_cycle,
                "streamed arrivals must be nondecreasing"
            );
            self.stage_arrival(request);
        }
    }

    /// Events popped so far.
    pub fn pop_count(&self) -> u64 {
        self.pops
    }

    /// Queue-length high-water mark.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Completion pops that went back in time (see the type docs; zero on
    /// every single-pool or unbounded configuration).
    pub fn completion_time_regressions(&self) -> u64 {
        self.completion_regressions
    }

    /// Arrival pops that went back in time (zero whenever the stream's
    /// arrivals are nondecreasing).
    pub fn arrival_time_regressions(&self) -> u64 {
        self.arrival_regressions
    }
}

/// The streaming front end of the engine loop. Construction mirrors
/// [`Executor`]; the run paths add lazy request streaming
/// ([`EventEngine::run_stream`]) and an O(live-sessions)-memory folded mode
/// ([`EventEngine::run_stream_folded`]).
#[derive(Clone, Debug)]
pub struct EventEngine {
    ex: Executor,
}

impl EventEngine {
    /// Creates a single-node event engine (cf. [`Executor::new`]).
    pub fn new(accel: mugi::MugiAccelerator, scheduler: crate::scheduler::Scheduler) -> Self {
        EventEngine { ex: Executor::new(accel, scheduler) }
    }

    /// Creates an event engine dispatching onto a NoC mesh under
    /// `placement` (cf. [`Executor::with_placement`]).
    ///
    /// # Panics
    /// Panics under the same configuration errors as
    /// [`Executor::with_placement`].
    pub fn with_placement(
        accel: mugi::MugiAccelerator,
        scheduler: crate::scheduler::Scheduler,
        config: crate::executor::ExecutorConfig,
        placement: crate::placement::Placement,
    ) -> Self {
        EventEngine { ex: Executor::with_placement(accel, scheduler, config, placement) }
    }

    /// Submits a request up front (the materialized-trace path, as
    /// [`Executor::submit`]).
    ///
    /// # Panics
    /// Panics if admission control rejects the request.
    pub fn submit(&mut self, request: Request) -> RequestId {
        self.ex.submit(request)
    }

    /// Submits a request unless admission control rejects it.
    pub fn try_submit(&mut self, request: Request) -> Result<RequestId, AdmissionError> {
        self.ex.try_submit(request)
    }

    /// The underlying executor state (scheduler, clocks, placement).
    pub fn executor(&self) -> &Executor {
        &self.ex
    }

    /// The event queue's observability counters.
    pub fn queue(&self) -> &EventQueue {
        &self.ex.queue
    }

    /// Runs every pre-submitted request to completion and reports — the
    /// same loop as [`Executor::run`].
    pub fn run(&mut self) -> RuntimeReport {
        self.run_stream(std::iter::empty())
    }

    /// Serves `stream` lazily to completion: each request is submitted at
    /// its arrival event, not up front. Requests the admission control
    /// rejects are counted in the report's KV statistics and dropped, as
    /// with [`Executor::try_submit`]. The stream's arrivals must be
    /// nondecreasing (true for Poisson and single-burst
    /// [`WorkloadStream`](crate::workload::WorkloadStream)s) and no later
    /// than any pre-[`submit`](EventEngine::submit)ted request still
    /// outstanding.
    pub fn run_stream<I>(&mut self, stream: I) -> RuntimeReport
    where
        I: IntoIterator<Item = Request>,
    {
        let mut stream = stream.into_iter();
        self.ex.queue.stage_next(&mut stream);
        while self.ex.advance(&mut stream, None) {}
        self.ex.report()
    }

    /// Serves `stream` lazily like [`EventEngine::run_stream`], but retires
    /// every finished session into a [`StatsFold`] instead of keeping its
    /// statistics, so memory stays O(live sessions) for arbitrarily long
    /// streams and the report is the O(1) [`ScaleReport`].
    pub fn run_stream_folded<I>(&mut self, stream: I) -> ScaleReport
    where
        I: IntoIterator<Item = Request>,
    {
        let mut stream = stream.into_iter();
        self.ex.queue.stage_next(&mut stream);
        let mut fold = StatsFold::default();
        while self.ex.advance(&mut stream, Some(&mut fold)) {}
        self.ex.retire_finished_with(|stats| fold.add(&stats));
        self.scale_report(fold)
    }

    /// Builds the folded report for the completed run.
    fn scale_report(&self, fold: StatsFold) -> ScaleReport {
        let freq = self.ex.cost.frequency_hz;
        let makespan_s = self.ex.clock_cycles() as f64 / freq;
        let throughput_tokens_per_s =
            if makespan_s > 0.0 { fold.output_tokens as f64 / makespan_s } else { 0.0 };
        ScaleReport {
            fold,
            makespan_s,
            throughput_tokens_per_s,
            micro_batches: self.ex.steps(),
            nodes: self.ex.node_clocks().len(),
            peak_live_sessions: self.ex.scheduler().peak_live_sessions(),
            peak_event_queue: self.ex.queue.peak_len(),
            kv: self.ex.kv_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Scheduler, SchedulerConfig};
    use mugi::MugiAccelerator;
    use mugi_workloads::models::ModelId;

    #[test]
    fn event_queue_merges_completions_and_arrival_in_time_order() {
        let mut q = EventQueue::new();
        q.push_completion(400, 0);
        q.push_completion(400, 1);
        q.push_completion(200, 2);
        q.stage_arrival(Request::new(ModelId::Llama2_7b, 8, 1).arriving_at(300));
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_key(), Some((200, 2)));
        assert_eq!(q.staged_arrival_time(), Some(300));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        // Same-time completions pop in push (seq) order.
        assert_eq!(order, [200, 300, 400, 400]);
        assert!(q.is_empty());
        assert_eq!(q.pop_count(), 4);
        assert_eq!(q.peak_len(), 4);
        assert_eq!(q.completion_time_regressions(), 0);
        assert_eq!(q.arrival_time_regressions(), 0);
    }

    #[test]
    fn event_queue_counts_time_regressions() {
        let mut q = EventQueue::new();
        q.push_completion(500, 0);
        q.pop();
        q.push_completion(100, 1); // pushed below the last popped time
        q.pop();
        assert_eq!(q.completion_time_regressions(), 1);
    }

    #[test]
    fn single_request_event_run_matches_per_step() {
        let request = Request::new(ModelId::Llama2_7b, 200, 5);
        let mut ex = crate::executor::Executor::new(
            MugiAccelerator::new(128),
            Scheduler::new(SchedulerConfig::default()),
        );
        ex.submit(request);
        let mut ev =
            EventEngine::new(MugiAccelerator::new(128), Scheduler::new(SchedulerConfig::default()));
        ev.submit(request);
        assert_eq!(ex.run(), ev.run());
    }

    #[test]
    fn streamed_and_presubmitted_runs_agree() {
        let requests: Vec<Request> = (0..8)
            .map(|i| {
                Request::new(ModelId::Llama2_7b, 64 + i * 16, 4).arriving_at(i as u64 * 500_000)
            })
            .collect();
        let mut pre =
            EventEngine::new(MugiAccelerator::new(128), Scheduler::new(SchedulerConfig::default()));
        for r in &requests {
            pre.submit(*r);
        }
        let streamed =
            EventEngine::new(MugiAccelerator::new(128), Scheduler::new(SchedulerConfig::default()))
                .run_stream(requests.clone());
        assert_eq!(pre.run(), streamed);
    }

    #[test]
    fn folded_run_matches_the_full_report() {
        let requests: Vec<Request> =
            (0..12).map(|i| Request::new(ModelId::Llama2_7b, 100 + i * 8, 6)).collect();
        let full =
            EventEngine::new(MugiAccelerator::new(128), Scheduler::new(SchedulerConfig::default()))
                .run_stream(requests.clone());
        let folded =
            EventEngine::new(MugiAccelerator::new(128), Scheduler::new(SchedulerConfig::default()))
                .run_stream_folded(requests.clone());
        assert_eq!(folded.fold, StatsFold::of_report(&full), "folded stats must be bit-identical");
        assert_eq!(folded.micro_batches, full.micro_batches);
        assert_eq!(folded.makespan_s.to_bits(), full.makespan_s.to_bits());
        assert_eq!(folded.fold.identity_checksum, StatsFold::identity_checksum_of(0, &requests));
        assert!(folded.peak_event_queue >= 1);
        assert!(folded.peak_live_sessions <= requests.len());
    }
}
