//! The standalone replay of the traced run: the event engine's decision
//! loop rebuilt on the runtime's public API, so that each call into the
//! scheduler and the accelerator can carry its own span.
//!
//! It follows `EventEngine::run_stream_folded` step for step — the same
//! `(time, seq)` event order, idle-node ranking, completion handling, KV
//! handoffs and retirement — but calls `MugiAccelerator::estimate_micro_batch`
//! directly instead of going through the executor's front memo, and leaves
//! out the per-request accounting and the control plane (off in every
//! workload). Its batch count is reported beside the engine's, so any
//! divergence from the engine's behaviour is visible.

use crate::trace::{tag, Layer, SpanLog};
use crate::workload::{Workload, ARRAY_HEIGHT};
use mugi::workloads::ops::{BatchSlice, Phase};
use mugi::MugiAccelerator;
use mugi_runtime::{
    MicroBatch, PhaseFilter, PlacementPolicy, PoolRole, Request, RequestId, Scheduler, SessionState,
};
use std::cmp::Reverse;

/// What the replay did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayOutcome {
    /// Micro-batches formed.
    pub batches: u64,
    /// Tokens those batches processed.
    pub tokens: u64,
    /// Estimates that added an entry to the accelerator's shared memo.
    pub estimate_misses: u64,
    /// Requests admission control rejected.
    pub rejected: u64,
}

/// A dispatched batch awaiting its completion event.
struct Flight {
    end: u64,
    /// Event order among same-cycle events.
    seq: u64,
    /// The batch's span id (its formation index).
    id: u64,
    node: usize,
    batch: MicroBatch,
}

/// Replay state: the scheduler, one clock per node and the event sources.
struct Replay<'a, I> {
    w: &'a Workload,
    log: &'a mut SpanLog,
    accel: MugiAccelerator,
    sched: Scheduler,
    stream: I,
    generated: u64,
    /// The stream's next request with its event sequence number.
    staged: Option<(Request, u64)>,
    next_seq: u64,
    clocks: Vec<u64>,
    roles: Vec<PoolRole>,
    disagg: bool,
    flights: Vec<Flight>,
    pending: Vec<RequestId>,
    slices: Vec<BatchSlice>,
    out: ReplayOutcome,
}

/// Replays `w`'s stream for `seed` into `log`.
pub fn replay(w: &Workload, seed: u64, log: &mut SpanLog) -> ReplayOutcome {
    let placement = w.placement;
    let nodes = placement.nodes();
    let roles: Vec<PoolRole> = (0..nodes).map(|i| placement.node_role(i)).collect();
    let disagg = matches!(placement.policy, PlacementPolicy::Disaggregated { .. });
    let mut sched = w.scheduler();
    if disagg {
        sched.configure_kv_pools_with_roles(&roles, 1);
    } else {
        sched.configure_kv_pools(nodes, 1);
    }
    let mut r = Replay {
        w,
        log,
        accel: MugiAccelerator::new(ARRAY_HEIGHT),
        sched,
        stream: w.stream(seed, 0).take(w.requests),
        generated: 0,
        staged: None,
        next_seq: 0,
        clocks: vec![0; nodes],
        roles,
        disagg,
        flights: Vec::new(),
        pending: Vec::new(),
        slices: Vec::new(),
        out: ReplayOutcome::default(),
    };
    r.pull();
    while r.advance() {}
    r.out
}

impl<I: Iterator<Item = Request>> Replay<'_, I> {
    fn seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Stages the stream's next request, timing the generator.
    fn pull(&mut self) {
        let stream = &mut self.stream;
        let (request, _) = self.log.time(Layer::Generate, self.generated, || stream.next());
        self.generated += 1;
        if let Some(request) = request {
            let seq = self.seq();
            self.staged = Some((request, seq));
        }
    }

    /// `(time, seq, flight index)` of the earliest completion.
    fn earliest_flight(&self) -> Option<(u64, u64, usize)> {
        self.flights.iter().enumerate().map(|(i, f)| (f.end, f.seq, i)).min()
    }

    /// `(time, seq)` of the next event of either kind.
    fn peek(&self) -> Option<(u64, u64)> {
        let arrival = self.staged.map(|(r, s)| (r.arrival_cycle, s));
        let completion = self.earliest_flight().map(|(t, s, _)| (t, s));
        match (arrival, completion) {
            (Some(a), Some(c)) => Some(a.min(c)),
            (a, c) => a.or(c),
        }
    }

    /// Handles the next event; `true` if it was a completion.
    fn pop(&mut self) -> bool {
        let arrival = self.staged.map(|(r, s)| (r.arrival_cycle, s));
        let completion = self.earliest_flight();
        let take_arrival = match (arrival, completion) {
            (Some(a), Some((t, s, _))) => a < (t, s),
            (a, _) => a.is_some(),
        };
        if take_arrival {
            let (request, _) = self.staged.take().expect("staged arrival");
            if self.sched.try_submit(request).is_err() {
                self.out.rejected += 1;
            }
            self.pull();
            return false;
        }
        match completion {
            Some((_, _, i)) => {
                self.finish(i);
                true
            }
            None => false,
        }
    }

    /// Handles every event due at or before `t`; `true` as soon as a
    /// completion was applied.
    fn drain_due(&mut self, t: u64) -> bool {
        while self.peek().is_some_and(|(time, _)| time <= t) {
            if self.pop() {
                return true;
            }
        }
        false
    }

    /// Applies a completion: scheduler effects, KV handoffs, retirement.
    fn finish(&mut self, i: usize) {
        let f = self.flights.remove(i);
        let prefilled: Vec<RequestId> =
            f.batch.items.iter().filter(|i| i.phase == Phase::Prefill).map(|i| i.id).collect();
        let (sched, batch, end) = (&mut self.sched, f.batch, f.end);
        self.log.time(Layer::Complete, f.id, || {
            sched.complete(&batch, end);
            sched.recycle(batch);
        });
        if self.disagg {
            for id in prefilled {
                if self.sched.session(id).state == SessionState::Decoding
                    && !self.pending.contains(&id)
                {
                    self.pending.push(id);
                }
            }
            self.service_migrations(end);
        }
        self.sched.retire_finished_prefix();
    }

    /// Moves every pending session whose pages have landed into the decode
    /// pool with the most free pages that fits it.
    fn service_migrations(&mut self, now: u64) {
        let noc = self.w.placement.noc;
        let mut i = 0;
        while i < self.pending.len() {
            let id = self.pending[i];
            let s = self.sched.session(id);
            let on_prefill =
                matches!(s.page_table.home(), Some(p) if self.roles[p] == PoolRole::Prefill);
            if s.is_finished() || s.state != SessionState::Decoding || !on_prefill {
                self.pending.remove(i);
                continue;
            }
            if s.ready_cycle > now {
                i += 1;
                continue;
            }
            let pages = s.page_table.mapped_pages();
            let target = (0..self.roles.len())
                .filter(|&n| {
                    self.roles[n] == PoolRole::Decode && self.sched.kv_free_pages(n).fits(pages)
                })
                .max_by_key(|&n| (self.sched.kv_free_pages(n).ranking(), Reverse(n)));
            match target.and_then(|n| self.sched.migrate_session(id, n).map(|m| (n, m))) {
                Some((n, m)) => {
                    let landed = now + noc.transfer_cycles(m.bytes);
                    self.sched.stall_session_until(id, landed);
                    self.clocks[n] = self.clocks[n].max(landed);
                    self.pending.remove(i);
                }
                None => i += 1,
            }
        }
    }

    /// Estimates `batch` and occupies `node` until it completes.
    fn dispatch(&mut self, node: usize, batch: MicroBatch, start: u64) {
        let cfg = self.w.executor_config();
        let noc = self.w.placement.noc;
        let id = self.out.batches;
        self.out.batches += 1;
        self.out.tokens += batch.total_tokens() as u64;
        let slices = &mut self.slices;
        self.log.time(Layer::Slices, id, || batch.slices_into(cfg.kv_bucket, slices));
        let entries = self.accel.perf_cache_entries();
        let (accel, slices) = (&self.accel, &self.slices);
        let (perf, span) =
            self.log.time(Layer::Estimate, id, || accel.estimate_micro_batch(batch.model, slices));
        if self.accel.perf_cache_entries() > entries {
            self.out.estimate_misses += 1;
            self.log.tag(span, tag::PERF_MISS);
        }
        let swap_bytes: u64 = batch.swapped_out.iter().map(|s| s.bytes).sum();
        let swap_stall = noc.transfer_cycles(swap_bytes);
        for swap in &batch.swapped_out {
            self.sched.stall_session_until(swap.id, start + swap_stall);
            self.clocks[swap.to_pool] = self.clocks[swap.to_pool].max(start + swap_stall);
            self.pending.push(swap.id);
        }
        let cycles = perf.node.total_cycles.max(1)
            + batch.evicted_pages as u64 * cfg.fault_stall_cycles
            + swap_stall;
        let end = start + cycles;
        self.clocks[node] = end;
        let seq = self.seq();
        self.flights.push(Flight { end, seq, id, node, batch });
    }

    /// One decision round of the engine; `false` once everything finished.
    fn advance(&mut self) -> bool {
        'outer: loop {
            if self.flights.is_empty() && self.sched.all_finished() && self.staged.is_none() {
                return false;
            }
            let mut idle: Vec<usize> = (0..self.clocks.len())
                .filter(|&i| self.flights.iter().all(|f| f.node != i))
                .collect();
            if idle.is_empty() {
                self.pop();
                continue;
            }
            idle.sort_by_key(|&i| {
                (self.clocks[i], Reverse(self.sched.kv_free_pages(i).ranking()), i)
            });
            let primary = idle[0];
            let now = self.clocks[primary];
            if self.drain_due(now) {
                continue;
            }
            let tries = if self.disagg { idle.len() } else { 1 };
            for &node in &idle[..tries] {
                let node_now = self.clocks[node];
                if self.drain_due(node_now) {
                    continue 'outer;
                }
                let phase = match self.roles[node] {
                    PoolRole::Colocated => PhaseFilter::Both,
                    PoolRole::Prefill => PhaseFilter::PrefillOnly,
                    PoolRole::Decode => PhaseFilter::DecodeOnly,
                };
                let sched = &mut self.sched;
                let (batch, _) = self.log.time(Layer::Form, self.out.batches, || {
                    sched.next_micro_batch_phased(node_now, node, phase)
                });
                if let Some(batch) = batch {
                    self.dispatch(node, batch, node_now);
                    return true;
                }
            }
            if let Some((end, _, i)) = self.earliest_flight() {
                self.finish(i);
                self.clocks[primary] = self.clocks[primary].max(end);
                continue;
            }
            let scheduled = self.sched.next_arrival_after(now);
            let staged = self.staged.map(|(r, _)| r.arrival_cycle).filter(|&t| t > now);
            let next = scheduled
                .into_iter()
                .chain(staged)
                .min()
                .expect("unfinished sessions but no runnable work and no future arrival");
            for clock in &mut self.clocks {
                *clock = (*clock).max(next);
            }
        }
    }
}
