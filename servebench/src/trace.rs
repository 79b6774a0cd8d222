//! The traced invocation: per-layer host time and exact work counters.
//!
//! Its numbers never feed the end-to-end metrics. Spans are timed from the
//! benchmark's side of each call into the runtime, kept in memory and
//! written out when the run ends (`spans/<workload>.tsv` beside this
//! package's manifest). Three parts:
//!
//! 1. the same stream through the per-step [`Executor`], one `step` span per
//!    `Executor::step()` call, tagged with the estimate-memo, preemption and
//!    migration counter deltas read between calls; alternated with untraced
//!    passes to measure the tracing overhead, and each pass's fold checked
//!    against the event engine's;
//! 2. a standalone replay ([`replay`]) that calls the scheduler and the
//!    accelerator directly, one span per call, so each layer's self time is
//!    its span's duration;
//! 3. a `generate` span around each `WorkloadStream::next` call of the
//!    replay.

use crate::endtoend::fold_bits;
use crate::endtoend::pct;
use crate::replay::replay;
use crate::report::Outcome;
use crate::stats::median;
use crate::workload::Workload;
use crate::{clock, seconds_since, Args};
use mugi_runtime::{Executor, StatsFold};
use std::io::Write as _;
use std::time::{Duration, Instant};

/// The layer a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One `Executor::step()` call (executor, with everything beneath it).
    Step,
    /// `Scheduler::next_micro_batch_phased` (batch formation and paging).
    Form,
    /// `MicroBatch::slices_into`.
    Slices,
    /// `MugiAccelerator::estimate_micro_batch` (the core estimate memo).
    Estimate,
    /// `Scheduler::complete` then `Scheduler::recycle`.
    Complete,
    /// One `WorkloadStream::next` call.
    Generate,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Step => "executor.step",
            Layer::Form => "scheduler.form",
            Layer::Slices => "scheduler.slices",
            Layer::Estimate => "core.estimate",
            Layer::Complete => "scheduler.complete",
            Layer::Generate => "workload.next",
        }
    }
}

/// Tag bits of a span.
pub mod tag {
    /// The step's dispatch hit the executor's front estimate memo.
    pub const FRONT_HIT: u32 = 1;
    /// The step's dispatch missed the front memo.
    pub const FRONT_MISS: u32 = 2;
    /// The call added an entry to the accelerator's shared estimate memo.
    pub const PERF_MISS: u32 = 4;
    /// The call preempted at least one session.
    pub const PREEMPTED: u32 = 8;
    /// The call migrated at least one session's KV pages.
    pub const MIGRATED: u32 = 16;
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer called.
    pub layer: Layer,
    /// Micro-batch (step or replay batch) the call belongs to; the request
    /// index for [`Layer::Generate`].
    pub id: u64,
    /// Start, in nanoseconds since the log's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// [`tag`] bits.
    pub tag: u32,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog { origin: clock(), spans: Vec::new() }
    }

    /// Times `f` as one span of `layer`; returns `f`'s value and the span's
    /// index.
    pub fn time<T>(&mut self, layer: Layer, id: u64, f: impl FnOnce() -> T) -> (T, usize) {
        let start = clock();
        let value = f();
        let end = clock();
        self.spans.push(Span {
            layer,
            id,
            start_ns: nanos(start.duration_since(self.origin)),
            dur_ns: nanos(end.duration_since(start)),
            tag: 0,
        });
        (value, self.spans.len() - 1)
    }

    /// Sets tag bits on span `index`.
    pub fn tag(&mut self, index: usize, bits: u32) {
        self.spans[index].tag |= bits;
    }

    /// Durations of `layer`'s spans whose tag `keep` accepts.
    fn durations(&self, layer: Layer, keep: impl Fn(u32) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && keep(s.tag))
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Writes every span as a tab-separated line to `path`.
    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("writing {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(fail)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
        writeln!(out, "layer\tid\tstart_ns\tdur_ns\ttag").map_err(fail)?;
        for s in &self.spans {
            writeln!(out, "{}\t{}\t{}\t{}\t{}", s.layer.name(), s.id, s.start_ns, s.dur_ns, s.tag)
                .map_err(fail)?;
        }
        out.flush().map_err(fail)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Counters read between calls to tag a `step` span.
#[derive(Clone, Copy, PartialEq, Eq)]
struct StepCounters {
    front_hits: u64,
    front_misses: u64,
    perf_entries: usize,
    preemptions: u64,
    migrations: u64,
}

impl StepCounters {
    fn of(ex: &Executor) -> Self {
        let (front_hits, front_misses, _) = ex.perf_front_stats();
        StepCounters {
            front_hits,
            front_misses,
            perf_entries: ex.accelerator().perf_cache_entries(),
            preemptions: ex.scheduler().preemption_count(),
            migrations: ex.scheduler().migration_count(),
        }
    }

    fn tag_since(&self, before: &StepCounters) -> u32 {
        let mut t = 0;
        if self.front_hits > before.front_hits {
            t |= tag::FRONT_HIT;
        }
        if self.front_misses > before.front_misses {
            t |= tag::FRONT_MISS;
        }
        if self.perf_entries > before.perf_entries {
            t |= tag::PERF_MISS;
        }
        if self.preemptions > before.preemptions {
            t |= tag::PREEMPTED;
        }
        if self.migrations > before.migrations {
            t |= tag::MIGRATED;
        }
        t
    }
}

/// One pass of the stream through the per-step executor, every request
/// submitted up front. Returns the step loop's wall time and the run's
/// fold; with a log, every `step()` call is a span.
fn per_step_pass(w: &Workload, seed: u64, log: Option<&mut SpanLog>) -> (f64, StatsFold) {
    let mut ex = w.executor();
    for r in w.stream(seed, 0).take(w.requests) {
        // A rejection is counted by the scheduler and shows in the fold.
        let _ = ex.try_submit(r);
    }
    let t = clock();
    match log {
        None => while ex.step() {},
        Some(log) => {
            let mut step = 0u64;
            loop {
                let before = StepCounters::of(&ex);
                let (more, i) = log.time(Layer::Step, step, || ex.step());
                log.tag(i, StepCounters::of(&ex).tag_since(&before));
                step += 1;
                if !more {
                    break;
                }
            }
        }
    }
    let wall = seconds_since(t);
    (wall, StatsFold::of_report(&ex.report()))
}

/// Runs the traced measurement of `args.workload`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = &args.workload;
    let n = w.requests;

    // The production path, untimed: the reference fold and exact counters.
    let mut engine = w.engine();
    let folded = engine.run_stream_folded(w.stream(args.seed, 0).take(n));
    let ex = engine.executor();
    let (front_hits, front_misses, _) = ex.perf_front_stats();
    let accel = ex.accelerator();
    let busy = ex.report();
    let freq_hz = accel.frequency_hz();
    let expected = fold_bits(&folded.fold);

    // Per-step passes, untraced and traced alternately, for `--seconds`.
    let deadline = clock() + Duration::from_secs(args.seconds);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut log = SpanLog::new();
    while traced.is_empty() || clock() < deadline {
        let (wall, fold) = per_step_pass(w, args.seed, None);
        if fold_bits(&fold) != expected {
            return Err("untraced per-step fold differs from the event engine's".into());
        }
        untraced.push(wall);
        // Spans are kept from the first traced pass only.
        let mut scratch = SpanLog::new();
        let target = if traced.is_empty() { &mut log } else { &mut scratch };
        let (wall, fold) = per_step_pass(w, args.seed, Some(target));
        if fold_bits(&fold) != expected {
            return Err("traced per-step fold differs from the event engine's".into());
        }
        traced.push(wall);
    }
    let replayed = replay(w, args.seed, &mut log);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{}.tsv", w.name));
    log.write(&path)?;
    println!("wrote {} spans to {}", log.spans.len(), path.display());

    let kv = &folded.kv;
    let batches = folded.micro_batches;
    // Tokens processed: every prompt token, every re-prefilled token, and
    // one decode token per output token after the first (which the prefill
    // emits).
    let tokens = folded.fold.prompt_tokens + kv.reprefill_tokens + folded.fold.output_tokens
        - folded.fold.requests;
    let makespan = busy.makespan_s * freq_hz;
    let busy_frac: Vec<f64> = busy.node_busy_cycles.iter().map(|&b| b as f64 / makespan).collect();
    let steps = log.durations(Layer::Step, |_| true);
    let gen = log.durations(Layer::Generate, |_| true);

    let mut out =
        Outcome { attempted: n as u64, failed: kv.rejected_requests, metrics: Vec::new() };
    let form = log.durations(Layer::Form, |_| true);
    out.real(
        "scheduler.form_ns_p50",
        pct(&form, 50.0)?,
        "ns",
        format!("{} replay calls", form.len()),
    );
    out.real("scheduler.form_ns_p99", pct(&form, 99.0)?, "ns", String::new());
    let slices = log.durations(Layer::Slices, |_| true);
    out.real("scheduler.slices_ns_p50", pct(&slices, 50.0)?, "ns", String::new());
    let complete = log.durations(Layer::Complete, |_| true);
    out.real("scheduler.complete_ns_p50", pct(&complete, 50.0)?, "ns", String::new());
    out.count("scheduler.micro_batches", batches, "count");
    out.real(
        "scheduler.tokens_per_batch",
        tokens as f64 / batches as f64,
        "tokens",
        "exact, from the engine's counters".into(),
    );
    out.count("scheduler.peak_live_sessions", folded.peak_live_sessions as u64, "count");
    out.real(
        "executor.step_ns_p50",
        pct(&steps, 50.0)?,
        "ns",
        format!("{} step calls", steps.len()),
    );
    out.real("executor.step_ns_p99", pct(&steps, 99.0)?, "ns", String::new());
    let hit_steps = log.durations(Layer::Step, |t| t & tag::FRONT_HIT != 0);
    out.real(
        "executor.step_ns_p50_front_hit",
        pct(&hit_steps, 50.0)?,
        "ns",
        format!("{} steps", hit_steps.len()),
    );
    let miss_steps = log.durations(Layer::Step, |t| t & tag::FRONT_MISS != 0);
    out.real(
        "executor.step_ns_p50_front_miss",
        pct(&miss_steps, 50.0)?,
        "ns",
        format!("{} steps", miss_steps.len()),
    );
    out.count("executor.front_hits", front_hits, "count");
    out.count("executor.front_misses", front_misses, "count");
    out.real(
        "executor.front_hit_rate",
        front_hits as f64 / (front_hits + front_misses) as f64,
        "ratio",
        String::new(),
    );
    let hits = log.durations(Layer::Estimate, |t| t & tag::PERF_MISS == 0);
    let misses = log.durations(Layer::Estimate, |t| t & tag::PERF_MISS != 0);
    out.real(
        "core.estimate_hit_ns",
        pct(&hits, 50.0)?,
        "ns",
        format!("p50 of {} hits", hits.len()),
    );
    out.real(
        "core.estimate_miss_us",
        pct(&misses, 50.0)? / 1e3,
        "us",
        format!("p50 of {} misses", misses.len()),
    );
    out.count("core.estimate_misses", replayed.estimate_misses, "count");
    out.count("core.trace_cache_entries", accel.trace_cache_entries() as u64, "count");
    out.count("core.perf_cache_entries", accel.perf_cache_entries() as u64, "count");
    out.count("kv.preemptions", kv.preemptions, "count");
    out.count("kv.reprefill_tokens", kv.reprefill_tokens, "tokens");
    out.count("kv.evicted_pages", kv.evicted_pages, "pages");
    out.count("kv.fault_stall_cycles", kv.fault_stall_cycles, "cycles");
    out.count("kv.migrations", kv.migrations, "count");
    out.count("kv.migrated_pages", kv.migrated_pages, "pages");
    out.count("kv.swap_outs", kv.swap_outs, "count");
    out.count("kv.transfer_bytes", kv.transfer_bytes, "B");
    out.count("kv.transfer_stall_cycles", kv.transfer_stall_cycles, "cycles");
    out.count("kv.peak_used_pages", kv.peak_used_pages, "pages");
    out.count("event.events_popped", engine.queue().pop_count(), "count");
    out.count("event.peak_queue", folded.peak_event_queue as u64, "count");
    let gen_total: f64 = gen.iter().sum();
    out.real(
        "workload.gen_ns_per_req",
        gen_total / gen.len() as f64,
        "ns",
        format!("mean of {} calls", gen.len()),
    );
    out.real(
        "placement.node_busy_frac_mean",
        busy_frac.iter().sum::<f64>() / busy_frac.len() as f64,
        "ratio",
        format!("{} nodes, modelled", busy_frac.len()),
    );
    out.real(
        "placement.node_busy_frac_min",
        busy_frac.iter().copied().fold(f64::INFINITY, f64::min),
        "ratio",
        String::new(),
    );
    let (un, tr) = (median(&untraced).unwrap_or(f64::NAN), median(&traced).unwrap_or(f64::NAN));
    out.real("trace.untraced_step_wall_s", un, "s", format!("median of {}", untraced.len()));
    out.real("trace.traced_step_wall_s", tr, "s", format!("median of {}", traced.len()));
    out.real("trace.overhead_ratio", tr / un, "ratio", "traced / untraced wall".into());
    out.count("replay.micro_batches", replayed.batches, "count");
    out.real(
        "replay.tokens_per_batch",
        replayed.tokens as f64 / replayed.batches as f64,
        "tokens",
        format!("{} rejected; engine batches {batches}", replayed.rejected),
    );
    Ok(out)
}
