//! The untraced invocation: host speed of the production serving path and
//! the modelled system's end-to-end figures, behind a correctness gate.

use crate::cputime::thread_cpu_s;
use crate::report::Outcome;
use crate::stats::{median, percentile, quartiles};
use crate::workload::{Workload, LADDER_STREAMS, SLO_LADDER};
use crate::{clock, seconds_since, Args};
use mugi_runtime::{RuntimeReport, ScaleReport, StatsFold};
use std::hint::black_box;
use std::time::Duration;

/// Engine set-ups timed before each repetition; `setup_s` is the median of
/// all of them, so set-up is sampled across the whole run.
const SETUPS_PER_REP: usize = 16;

/// A stream's last-quarter median TTFT above this multiple of its
/// second-quarter median (its backlog growth) means the backlog is growing.
const BACKLOG_GROWTH: f64 = 1.5;

/// One timed repetition of the production path.
struct Rep {
    stream: usize,
    /// CPU time of the serving thread, which the host-speed metrics use.
    cpu_s: f64,
    /// Wall time, shown beside them for comparison.
    wall_s: f64,
    report: ScaleReport,
}

/// Runs the end-to-end measurement of `args.workload`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = &args.workload;
    let n = w.requests;

    // Timed rounds: each serves every stream once on a fresh engine, so
    // caches start empty; rounds repeat for `--seconds` seconds. Set-up —
    // building the engine, its pools and the stream — is timed separately.
    let deadline = clock() + Duration::from_secs(args.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut setup: Vec<f64> = Vec::new();
    while reps.is_empty() || clock() < deadline {
        for j in 0..w.streams {
            for _ in 0..SETUPS_PER_REP {
                let t = clock();
                let built = black_box((w.engine(), w.stream(args.seed, j)));
                setup.push(seconds_since(t));
                drop(built);
            }
            let mut engine = w.engine();
            let stream = w.stream(args.seed, j).take(n);
            let (t, cpu) = (clock(), thread_cpu_s());
            let report = engine.run_stream_folded(stream);
            let cpu_s = thread_cpu_s() - cpu;
            let wall_s = seconds_since(t);
            reps.push(Rep { stream: j, cpu_s, wall_s, report: black_box(report) });
        }
    }
    let peak_rss_mib = peak_rss_mib()?;

    // Untimed reference passes keeping every request's statistics.
    let mut pooled = Pooled::default();
    let mut freq_hz = 0.0;
    for j in 0..w.streams {
        let mut engine = w.engine();
        let reference = engine.run_stream(w.stream(args.seed, j).take(n));
        freq_hz = engine.executor().accelerator().frequency_hz();
        check(w, args.seed, j, reps.iter().filter(|r| r.stream == j), &reference)?;
        pooled.add(&reference);
    }
    let (slo_rate, slo_note) = slo_rate_rps(w, args.seed, freq_hz)?;

    // One sample per round, pooling its streams, so a sample does not
    // depend on which stream it served.
    let rounds: Vec<&[Rep]> = reps.chunks(w.streams).collect();
    let sum = |round: &[Rep], f: fn(&Rep) -> f64| round.iter().map(f).sum::<f64>();
    let round_requests = (n * w.streams) as f64;
    let req_per_s: Vec<f64> =
        rounds.iter().map(|round| round_requests / sum(round, |r| r.cpu_s)).collect();
    let ns_per_batch: Vec<f64> = rounds
        .iter()
        .map(|round| sum(round, |r| r.cpu_s) * 1e9 / sum(round, |r| r.report.micro_batches as f64))
        .collect();
    let wall_req_per_s: Vec<f64> =
        rounds.iter().map(|round| round_requests / sum(round, |r| r.wall_s)).collect();
    let generated = (n * w.streams) as u64;
    let mut out = Outcome {
        attempted: (n * reps.len()) as u64,
        failed: reps.iter().map(|r| r.report.kv.rejected_requests).sum(),
        metrics: Vec::new(),
    };
    let note = format!(
        "per CPU second, {}; per wall second {:.6e}",
        spread(&req_per_s),
        med(&wall_req_per_s)?
    );
    out.real("host_req_per_s", med(&req_per_s)?, "1/s", note);
    let note = format!("CPU time, {}", spread(&ns_per_batch));
    out.real("host_ns_per_batch", med(&ns_per_batch)?, "ns", note);
    out.real("host_peak_rss_mib", peak_rss_mib, "MiB", "VmHWM after the timed runs".into());
    out.real("setup_s", med(&setup)?, "s", spread(&setup));
    let note = format!("modelled, {} requests of {} streams", pooled.ttft.len(), w.streams);
    out.real("model_ttft_p50_s", pct(&pooled.ttft, 50.0)?, "s", note.clone());
    out.real("model_ttft_p99_s", pct(&pooled.ttft, 99.0)?, "s", note);
    let note = format!("modelled, {} multi-token requests", pooled.tpot.len());
    out.real("model_tpot_p50_ms", pct(&pooled.tpot, 50.0)? * 1e3, "ms", note.clone());
    out.real("model_tpot_p99_ms", pct(&pooled.tpot, 99.0)? * 1e3, "ms", note);
    out.real(
        "model_tokens_per_s",
        pooled.output_tokens as f64 / pooled.makespan_s,
        "1/s",
        "modelled output tokens per simulated second".into(),
    );
    out.real(
        "model_energy_per_req_mj",
        pooled.energy_uj / pooled.served as f64 / 1e3,
        "mJ",
        "modelled compute + NoC + KV-transfer energy".into(),
    );
    out.real("model_slo_rate_rps", slo_rate, "1/s", slo_note);
    out.real(
        "model_served_frac",
        pooled.served as f64 / generated as f64,
        "ratio",
        format!("{} of {generated} requests served", pooled.served),
    );
    Ok(out)
}

/// The modelled figures of several reference passes, pooled.
#[derive(Default)]
struct Pooled {
    ttft: Vec<f64>,
    tpot: Vec<f64>,
    served: u64,
    output_tokens: u64,
    makespan_s: f64,
    energy_uj: f64,
}

impl Pooled {
    fn add(&mut self, r: &RuntimeReport) {
        self.ttft.extend(r.requests.iter().map(|s| s.ttft_s));
        self.tpot.extend(r.requests.iter().filter(|s| s.output_tokens > 1).map(|s| s.tpot_s));
        self.served += r.requests.len() as u64;
        self.output_tokens += r.total_output_tokens;
        self.makespan_s += r.makespan_s;
        self.energy_uj += r
            .requests
            .iter()
            .map(|s| s.energy_uj + s.noc_energy_uj + s.kv_transfer_energy_uj)
            .sum::<f64>();
    }
}

/// The correctness gate for stream `j`: every repetition equals the
/// reference pass bit for bit, the fold's identity checksum equals an
/// independent pass over the seeded stream, and every generated request
/// retired or was rejected.
fn check<'a>(
    w: &Workload,
    seed: u64,
    j: usize,
    reps: impl Iterator<Item = &'a Rep>,
    reference: &RuntimeReport,
) -> Result<(), String> {
    let n = w.requests as u64;
    let expected = fold_bits(&StatsFold::of_report(reference));
    let mut first: Option<&ScaleReport> = None;
    for (i, rep) in reps.enumerate() {
        let r = &rep.report;
        let fail = |what: &str| Err(format!("stream {j}, repetition {i}: {what}"));
        if fold_bits(&r.fold) != expected {
            return fail("folded stats differ from the reference pass");
        }
        if r.micro_batches != reference.micro_batches
            || r.kv != reference.kv
            || r.makespan_s.to_bits() != reference.makespan_s.to_bits()
        {
            return fail("run counters differ from the reference pass");
        }
        if first.is_some_and(|f| f != r) {
            return fail("report differs from the stream's first repetition");
        }
        first.get_or_insert(r);
    }
    let r = first.ok_or_else(|| format!("stream {j} was never timed"))?;
    if r.fold.requests + r.kv.rejected_requests != n {
        return Err(format!(
            "stream {j}: {} retired + {} rejected != {n} generated",
            r.fold.requests, r.kv.rejected_requests
        ));
    }
    // Ids are dense over admitted requests, so the stream-side checksum
    // applies only when nothing was rejected.
    if r.kv.rejected_requests == 0 {
        let checksum = stream_checksum(w.stream(seed, j).take(w.requests));
        if checksum != r.fold.identity_checksum {
            return Err(format!(
                "stream {j}: fold identity checksum differs from a second pass of the stream"
            ));
        }
    }
    Ok(())
}

/// The identity checksum a run over `stream` must end with, computed
/// without the runtime's engine.
fn stream_checksum(stream: impl Iterator<Item = mugi_runtime::Request>) -> u64 {
    stream.enumerate().fold(0, |sum, (id, r)| {
        StatsFold::fold_identity(sum, id as u64, r.prompt_tokens, r.output_tokens)
    })
}

/// Every field of a fold as raw bits, so equality is bit for bit.
pub fn fold_bits(f: &StatsFold) -> [u64; 12] {
    [
        f.requests,
        f.prompt_tokens,
        f.output_tokens,
        f.micro_batches,
        f.energy_uj.to_bits(),
        f.noc_energy_uj.to_bits(),
        f.kv_transfer_bytes,
        f.kv_transfer_energy_uj.to_bits(),
        f.ttft_sum_s.to_bits(),
        f.e2e_sum_s.to_bits(),
        f.max_ttft_s.to_bits(),
        f.identity_checksum,
    ]
}

/// The highest rate of [`SLO_LADDER`] at which short streams meet the
/// workload's TTFT and TPOT p99 limits without a growing backlog, in
/// requests per simulated second (zero if even the lowest rung fails).
/// Each rung serves the run's first [`LADDER_STREAMS`] streams and pools
/// them; rungs are tried
/// lowest first and the climb stops at the first failure.
fn slo_rate_rps(w: &Workload, seed: u64, freq_hz: f64) -> Result<(f64, String), String> {
    let mut best = 0.0;
    let mut verdicts = Vec::new();
    for multiple in SLO_LADDER {
        let reports: Vec<RuntimeReport> = (0..LADDER_STREAMS)
            .map(|j| {
                let stream = w.stream_at(seed, j, multiple).take(w.ladder_requests);
                w.engine().run_stream(stream)
            })
            .collect();
        let (ok, why) = meets_slo(w, &reports)?;
        verdicts.push(format!("x{multiple} {why}"));
        if !ok {
            break;
        }
        best = multiple;
    }
    let base_rps = freq_hz / w.mean_gap_cycles as f64;
    let note = format!(
        "modelled, limits TTFT p99 {} s / TPOT p99 {} s, {}x{} requests per rung: {}",
        w.ttft_p99_limit_s,
        w.tpot_p99_limit_s,
        LADDER_STREAMS,
        w.ladder_requests,
        verdicts.join(", ")
    );
    Ok((best * base_rps, note))
}

/// Whether one ladder rung meets the limits (a rejected request counts as
/// missing them), with a short verdict.
fn meets_slo(w: &Workload, reports: &[RuntimeReport]) -> Result<(bool, String), String> {
    let mut ttft = Vec::new();
    let mut tpot = Vec::new();
    for r in reports {
        ttft.extend(r.requests.iter().map(|s| s.ttft_s));
        ttft.extend((0..r.kv.rejected_requests).map(|_| f64::INFINITY));
        tpot.extend(r.requests.iter().filter(|s| s.output_tokens > 1).map(|s| s.tpot_s));
    }
    let (ttft_p99, tpot_p99) = (pct(&ttft, 99.0)?, pct(&tpot, 99.0)?);
    let mut growth: f64 = 0.0;
    for r in reports {
        let by_id: Vec<f64> = r.requests.iter().map(|s| s.ttft_s).collect();
        let q = by_id.len() / 4;
        growth = growth.max(med(&by_id[3 * q..])? / med(&by_id[q..2 * q])?);
    }
    let ok = ttft_p99 <= w.ttft_p99_limit_s
        && tpot_p99 <= w.tpot_p99_limit_s
        && growth <= BACKLOG_GROWTH;
    let verdict = format!(
        "{} (TTFT p99 {ttft_p99:.1} s, TPOT p99 {tpot_p99:.3} s, backlog growth {growth:.2})",
        if ok { "meets" } else { "misses" }
    );
    Ok((ok, verdict))
}

fn med(values: &[f64]) -> Result<f64, String> {
    median(values).ok_or_else(|| "no samples".to_string())
}

/// The nearest-rank `p`-th percentile, or an error naming why the sample
/// cannot support it.
pub fn pct(values: &[f64], p: f64) -> Result<f64, String> {
    percentile(values, p).ok_or_else(|| {
        format!("{} samples cannot support p{p}: fewer than ten lie beyond it", values.len())
    })
}

/// `median of N, quartiles q1 .. q3` for a human-readable note.
fn spread(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, _, q3]) => format!("median of {}, quartiles {q1:.6e} .. {q3:.6e}", values.len()),
        None => format!("median of {}", values.len()),
    }
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
