//! The per-step oracle: the engine loop's decision procedure in a naive,
//! heap-free form, kept only to test the production loop against.
//!
//! [`step`] finds the earliest completion by a linear `(end, seq)` scan
//! of the in-flight batches and never touches the executor's
//! [`EventQueue`](crate::event::EventQueue). It decides occupancy by
//! scanning the in-flight batches too, and sorts every idle node and tries
//! each in turn, where the production loop keeps per-node occupancy slots
//! and tries only the nodes the scheduler could serve. It shares
//! `dispatch`, `finish` and the migration and control code with the
//! production loop, so the property below compares two independent
//! decision procedures over the same effects — across every placement
//! policy, every KV regime and with the adaptive controller off and on.

use crate::executor::{Executor, InFlight};
use crate::placement::PlacementPolicy;
use crate::stats::RuntimeReport;

/// The in-flight batches, in no particular order.
fn in_flight(ex: &Executor) -> impl Iterator<Item = &InFlight> {
    ex.flights.iter().flatten()
}

/// Dispatch sequence number of the earliest-finishing pending batch.
fn earliest_completion(ex: &Executor) -> Option<u64> {
    in_flight(ex).min_by_key(|f| (f.end, f.seq)).map(|f| f.seq)
}

/// End cycle of the batch dispatched as `seq`.
fn end_of(ex: &Executor, seq: u64) -> u64 {
    in_flight(ex).find(|f| f.seq == seq).expect("batch in flight").end
}

/// Whether node `i` executes an in-flight batch, by a scan of the batches'
/// executing nodes (independent of the executor's occupancy slots).
fn occupied(ex: &Executor, i: usize) -> bool {
    match ex.placement().policy {
        PlacementPolicy::Sharded => in_flight(ex).next().is_some(),
        PlacementPolicy::DataParallel | PlacementPolicy::Disaggregated { .. } => {
            in_flight(ex).any(|f| f.node == i)
        }
    }
}

/// Dispatches one micro-batch; `false` once every submitted request has
/// finished and every pending completion has been applied.
fn step(ex: &mut Executor) -> bool {
    let mut idle = Vec::new();
    'outer: loop {
        if in_flight(ex).next().is_none() && ex.scheduler.all_finished() {
            return false;
        }
        idle.clear();
        idle.extend((0..ex.pool.len()).filter(|&i| !occupied(ex, i)));
        if idle.is_empty() {
            // Every node is busy: retire the earliest completion first.
            let seq = earliest_completion(ex).expect("busy nodes imply in-flight batches");
            ex.finish(seq);
            continue;
        }
        idle.sort_by_key(|&i| {
            let free = ex.kv_free_pages(i).ranking();
            (ex.pool.free_at(i), std::cmp::Reverse(free), i)
        });
        let primary = idle[0];
        let now = ex.pool.free_at(primary);
        // Completions at or before this node's clock must apply first so
        // the batch formed at `now` sees their effects.
        if let Some(seq) = earliest_completion(ex) {
            if end_of(ex, seq) <= now {
                ex.finish(seq);
                continue;
            }
        }
        let tries = if ex.multi_pool || ex.disagg { idle.len() } else { 1 };
        for &node in &idle[..tries] {
            let node_now = ex.pool.free_at(node);
            // Later idle nodes have later clocks; completions in between
            // must land before a batch forms at that clock.
            if let Some(seq) = earliest_completion(ex) {
                if end_of(ex, seq) <= node_now {
                    ex.finish(seq);
                    continue 'outer;
                }
            }
            let Some(phase) = ex.phase_for(node) else { continue };
            if let Some(batch) =
                ex.scheduler.next_micro_batch_phased(node_now, ex.pool_for(node), phase)
            {
                ex.dispatch(node, batch, node_now);
                return true;
            }
        }
        // Nothing runnable on any idle node's clock: wait for the next
        // completion or jump to the next arrival.
        if let Some(seq) = earliest_completion(ex) {
            let end = end_of(ex, seq);
            ex.finish(seq);
            ex.pool.wait_until(primary, end);
            continue;
        }
        let next = ex
            .scheduler
            .next_arrival_after(now)
            .expect("unfinished sessions but no runnable work and no future arrival");
        ex.pool.wait_all_until(next);
    }
}

/// Runs every submitted request to completion under the oracle, then
/// reports.
fn run(ex: &mut Executor) -> RuntimeReport {
    while step(ex) {}
    ex.report()
}

mod tests {
    use super::run;
    use crate::control::ControlConfig;
    use crate::event::EventEngine;
    use crate::executor::{Executor, ExecutorConfig};
    use crate::kv::{pages_for, KvConfig};
    use crate::placement::Placement;
    use crate::request::Request;
    use crate::scheduler::{Scheduler, SchedulerConfig};
    use mugi::arch::noc::NocConfig;
    use mugi::MugiAccelerator;
    use mugi_workloads::models::ModelId;
    use proptest::prelude::*;

    // Small workloads: every case runs two full simulations.
    prop_compose! {
        fn small_request_strategy()(
            model_idx in 0usize..2,
            prompt in 1usize..120,
            output in 1usize..8,
            arrival in 0u64..200,
        ) -> Request {
            let models = [ModelId::Llama2_7b, ModelId::Llama2_13b];
            Request::new(models[model_idx], prompt, output).arriving_at(arrival)
        }
    }

    // One placement drawn from every policy family, over a 2×2 mesh or a
    // 4×4 one (where more than four idle nodes compete in one ranking).
    prop_compose! {
        fn placement_strategy()(
            kind in 0usize..4,
            wide in any::<bool>(),
            prefill_share in 0usize..1000,
        ) -> Placement {
            let noc = if wide {
                NocConfig { rows: 4, cols: 4 }
            } else {
                NocConfig { rows: 2, cols: 2 }
            };
            let prefill_nodes = 1 + prefill_share % (noc.rows * noc.cols - 1);
            match kind {
                0 => Placement::single_node(),
                1 => Placement::data_parallel(noc),
                2 => Placement::sharded(noc),
                _ => Placement::disaggregated(noc, prefill_nodes),
            }
        }
    }

    proptest! {
        #[test]
        fn event_engine_is_bit_identical_to_the_per_step_oracle(
            requests in prop::collection::vec(small_request_strategy(), 1..10),
            placement in placement_strategy(),
            bounded in any::<bool>(),
            swap in any::<bool>(),
            headroom in 0usize..3,
            adaptive in any::<bool>(),
        ) {
            // On any workload, any placement policy, any KV regime —
            // unbounded, bounded with recompute preemption, bounded with
            // swap preemption — and with the adaptive controller off or on,
            // the engine loop's report equals the oracle's exactly, every
            // float included. A completion event addressing a retired
            // session would panic the run, so this also proves no event
            // ever targets one.
            let page_tokens = 32;
            let kv = if bounded {
                let max_need = requests
                    .iter()
                    .map(|r| pages_for(r.prompt_tokens + r.output_tokens, page_tokens))
                    .max()
                    .unwrap();
                let kv = KvConfig::bounded(page_tokens, max_need + headroom);
                if swap { kv.with_swap_preemption() } else { kv }
            } else {
                KvConfig::unbounded()
            };
            // The adaptive controller with its cooldown and demand dead-band
            // shortened, so it re-rolls roles on these small workloads too.
            let control = if adaptive {
                ControlConfig {
                    min_flip_interval_cycles: 0,
                    min_demand_tokens: 1,
                    ..ControlConfig::adaptive()
                }
            } else {
                ControlConfig::default()
            };
            let exec =
                ExecutorConfig { kv_bucket: page_tokens, control, ..ExecutorConfig::default() };

            let mut ex = Executor::with_placement(
                MugiAccelerator::new(64),
                Scheduler::with_kv(SchedulerConfig::default(), kv),
                exec,
                placement,
            );
            for r in &requests {
                ex.submit(*r);
            }
            let oracle = run(&mut ex);
            prop_assert!(ex.queue.is_empty(), "the oracle never touches the event queue");

            let mut ev = EventEngine::with_placement(
                MugiAccelerator::new(64),
                Scheduler::with_kv(SchedulerConfig::default(), kv),
                exec,
                placement,
            );
            for r in &requests {
                ev.submit(*r);
            }
            let event = ev.run();

            prop_assert_eq!(&oracle, &event, "the engine loop diverged from the oracle");
            prop_assert_eq!(
                ex.role_reroll_count(),
                ev.executor().role_reroll_count(),
                "the controller re-rolled differently"
            );
            // Exactly one completion event per dispatched micro-batch, all
            // consumed, none left behind.
            prop_assert_eq!(ev.queue().pop_count(), event.micro_batches);
            prop_assert!(ev.queue().is_empty());
            prop_assert_eq!(ev.queue().arrival_time_regressions(), 0);
        }
    }
}
