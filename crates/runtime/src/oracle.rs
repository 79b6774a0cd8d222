//! The per-step oracle: the engine loop's decision procedure in a naive,
//! heap-free form, kept only to test the production loop against.
//!
//! [`step`] finds the earliest completion by a linear `(end, index)` scan
//! of the in-flight batches and never touches the executor's
//! [`EventQueue`](crate::event::EventQueue). It shares
//! `dispatch`, `finish` and the migration and control code with the
//! production loop, so the property below compares two independent
//! decision procedures over the same effects — across every placement
//! policy, every KV regime and with the adaptive controller off and on.

use crate::executor::Executor;
use crate::stats::RuntimeReport;

/// Index (into `in_flight`) of the earliest-finishing pending batch.
fn earliest_completion(ex: &Executor) -> Option<usize> {
    (0..ex.in_flight.len()).min_by_key(|&i| (ex.in_flight[i].end, i))
}

/// Dispatches one micro-batch; `false` once every submitted request has
/// finished and every pending completion has been applied.
fn step(ex: &mut Executor) -> bool {
    let mut idle = std::mem::take(&mut ex.idle_scratch);
    let stepped = 'outer: loop {
        if ex.in_flight.is_empty() && ex.scheduler.all_finished() {
            break false;
        }
        idle.clear();
        idle.extend((0..ex.pool.len()).filter(|&i| !ex.occupied(i)));
        if idle.is_empty() {
            // Every node is busy: retire the earliest completion first.
            let idx = earliest_completion(ex).expect("busy nodes imply in-flight batches");
            ex.finish(idx);
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
        if let Some(idx) = earliest_completion(ex) {
            if ex.in_flight[idx].end <= now {
                ex.finish(idx);
                continue;
            }
        }
        let tries = if ex.multi_pool || ex.disagg { idle.len() } else { 1 };
        for &node in &idle[..tries] {
            let node_now = ex.pool.free_at(node);
            // Later idle nodes have later clocks; completions in between
            // must land before a batch forms at that clock.
            if let Some(idx) = earliest_completion(ex) {
                if ex.in_flight[idx].end <= node_now {
                    ex.finish(idx);
                    continue 'outer;
                }
            }
            let Some(phase) = ex.phase_for(node) else { continue };
            if let Some(batch) =
                ex.scheduler.next_micro_batch_phased(node_now, ex.pool_for(node), phase)
            {
                ex.dispatch(node, batch, node_now);
                break 'outer true;
            }
        }
        // Nothing runnable on any idle node's clock: wait for the next
        // completion or jump to the next arrival.
        if let Some(idx) = earliest_completion(ex) {
            let end = ex.in_flight[idx].end;
            ex.finish(idx);
            ex.pool.wait_until(primary, end);
            continue;
        }
        let next = ex
            .scheduler
            .next_arrival_after(now)
            .expect("unfinished sessions but no runnable work and no future arrival");
        ex.pool.wait_all_until(next);
    };
    ex.idle_scratch = idle;
    stepped
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

    // One placement drawn from every policy family, over a 2×2 mesh.
    prop_compose! {
        fn placement_strategy()(
            kind in 0usize..4,
            prefill_nodes in 1usize..4,
        ) -> Placement {
            let noc = NocConfig { rows: 2, cols: 2 };
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
