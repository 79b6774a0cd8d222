//! Pinned upper bounds on the engine loop's deterministic work counters.
//!
//! Wall-clock speed jitters; these counters do not. Each run below serves a
//! seeded stream to completion and bounds three exact quantities:
//!
//! * formation attempts per dispatched batch
//!   ([`Scheduler::formation_calls`] / [`Executor::steps`]);
//! * idle nodes tried per dispatched batch ([`Executor::nodes_tried`]);
//! * ready-index entries examined per formation attempt
//!   ([`Scheduler::sessions_examined`] / [`Scheduler::formation_calls`]),
//!   which must stay within `2 × max_batch` however many sessions are live.
//!
//! Before the ready index, the disaggregated run below tried 28.4 idle
//! nodes per batch (every idle node, with a formation on each) and every
//! formation filtered its model's whole queue: 46.7 sessions per attempt
//! there and 114 on the saturated single node, whose queue peaks at ~250
//! live sessions. The bounds sit just above the values the ready index
//! measures (1.10, 1.7 and 14.9), so a change that brings a scan back
//! fails here.

use mugi::arch::noc::NocConfig;
use mugi::MugiAccelerator;
use mugi_runtime::{
    EventEngine, Executor, ExecutorConfig, KvConfig, Placement, Scheduler, SchedulerConfig,
    WorkloadSpec, WorkloadStream,
};
use mugi_workloads::models::ModelId;

const MODEL: ModelId = ModelId::Llama2_7b;

/// What one run's counters came to.
struct Work {
    batches: u64,
    formations_per_batch: f64,
    tried_per_batch: f64,
    examined_per_formation: f64,
    peak_live: usize,
}

/// Serves `requests` requests of a Poisson stream (seed 1) on `placement`
/// under `kv`, folding finished sessions away, and reads the counters.
fn serve(
    spec: WorkloadSpec,
    kv: KvConfig,
    placement: Placement,
    requests: usize,
) -> (Work, Executor) {
    let mut engine = EventEngine::with_placement(
        MugiAccelerator::new(64),
        Scheduler::with_kv(SchedulerConfig::default(), kv),
        ExecutorConfig { kv_bucket: kv.page_tokens, ..ExecutorConfig::default() },
        placement,
    );
    let report = engine.run_stream_folded(WorkloadStream::new(1, &[MODEL], spec).take(requests));
    assert_eq!(report.fold.requests, requests as u64, "every request is served");
    let ex = engine.executor().clone();
    let sched = ex.scheduler();
    let steps = ex.steps() as f64;
    let work = Work {
        batches: ex.steps(),
        formations_per_batch: sched.formation_calls() as f64 / steps,
        tried_per_batch: ex.nodes_tried() as f64 / steps,
        examined_per_formation: sched.sessions_examined() as f64 / sched.formation_calls() as f64,
        peak_live: report.peak_live_sessions,
    };
    (work, ex)
}

#[test]
fn disaggregated_mesh_tries_about_one_node_per_batch() {
    // `disagg_8x8` scaled down: the same traffic, KV pools and 8×8 mesh
    // split 32 prefill / 32 decode, for 3 000 requests.
    let spec = WorkloadSpec {
        prompt_tokens: (32, 128),
        output_tokens: (2, 12),
        ..WorkloadSpec::default()
    }
    .with_poisson_arrivals(220_000_000);
    let kv = KvConfig::bounded(128, 64).with_swap_preemption();
    let placement = Placement::disaggregated(NocConfig { rows: 8, cols: 8 }, 32);
    let (work, ex) = serve(spec, kv, placement, 3_000);
    let max_batch = ex.scheduler().config().max_batch as f64;
    assert!(work.batches > 10_000, "{} batches", work.batches);
    assert!(work.peak_live > 500, "the mesh must be saturated: peak {}", work.peak_live);
    assert!(
        work.formations_per_batch <= 1.25,
        "formation attempts per batch: {:.3}",
        work.formations_per_batch
    );
    assert!(
        work.tried_per_batch <= 1.25,
        "idle nodes tried per batch: {:.3}",
        work.tried_per_batch
    );
    assert!(
        work.examined_per_formation <= 2.0 * max_batch,
        "sessions examined per formation: {:.3}",
        work.examined_per_formation
    );
    assert!(work.examined_per_formation <= 2.5, "{:.3}", work.examined_per_formation);
}

#[test]
fn saturated_single_node_examines_a_batch_not_the_queue() {
    // `chat_saturated_1node` scaled down: chat-length requests past the
    // node's service rate into a 6 GiB KV pool, for 1 500 requests.
    let spec = WorkloadSpec {
        prompt_tokens: (128, 1024),
        output_tokens: (32, 256),
        ..WorkloadSpec::default()
    }
    .with_poisson_arrivals(100_000_000_000);
    let kv = KvConfig::for_budget(MODEL, 6 << 30, 128);
    let (work, ex) = serve(spec, kv, Placement::single_node(), 1_500);
    let max_batch = ex.scheduler().config().max_batch as f64;
    assert!(work.peak_live > 200, "the queue must build up: peak {}", work.peak_live);
    assert!(ex.scheduler().preemption_count() > 0, "the pool must be under pressure");
    assert!(
        work.formations_per_batch <= 1.05,
        "formation attempts per batch: {:.3}",
        work.formations_per_batch
    );
    assert!(
        work.examined_per_formation <= 2.0 * max_batch,
        "sessions examined per formation: {:.3} with {} live at peak",
        work.examined_per_formation,
        work.peak_live
    );
}
