//! The benchmark's named workloads: every one serves Llama-2-7B on Mugi(64)
//! nodes from an open-loop Poisson stream at a fixed rate (see README.md for
//! why each was chosen).

use mugi::arch::noc::NocConfig;
use mugi::workloads::models::ModelId;
use mugi::MugiAccelerator;
use mugi_runtime::{
    EventEngine, Executor, ExecutorConfig, KvConfig, Placement, Scheduler, SchedulerConfig,
    WorkloadSpec, WorkloadStream,
};

/// The one model every workload serves.
pub const MODEL: ModelId = ModelId::Llama2_7b;

/// Array height of every modelled node (the paper's Mugi(64)).
pub const ARRAY_HEIGHT: usize = 64;

/// Arrival-rate multiples tried by the SLO ladder, lowest first.
pub const SLO_LADDER: [f64; 7] = [0.25, 0.35, 0.5, 0.7, 1.0, 1.4, 2.0];

/// Streams each SLO-ladder rung serves: the first ones of the run.
pub const LADDER_STREAMS: usize = 4;

/// One named serving workload: the traffic, the system it runs on and how
/// much of it one run serves.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Inclusive prompt-length range in tokens.
    pub prompt_tokens: (usize, usize),
    /// Inclusive output-length range in tokens.
    pub output_tokens: (usize, usize),
    /// Mean Poisson inter-arrival gap in simulated cycles.
    pub mean_gap_cycles: u64,
    /// KV pool of every node.
    pub kv: KvConfig,
    /// How micro-batches map onto nodes.
    pub placement: Placement,
    /// Independent request streams one run serves, derived from its seed;
    /// the modelled metrics pool them, so they depend less on one stream's
    /// luck.
    pub streams: usize,
    /// Requests of each stream (one timed repetition serves one stream).
    pub requests: usize,
    /// Requests of each stream at each rung of the SLO ladder.
    pub ladder_requests: usize,
    /// Modelled TTFT p99 limit of the SLO ladder, in seconds.
    pub ttft_p99_limit_s: f64,
    /// Modelled TPOT p99 limit of the SLO ladder, in seconds.
    pub tpot_p99_limit_s: f64,
}

/// Every named workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["tiny_1node", "chat_saturated_1node", "disagg_8x8"];

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            // Tiny requests at ~0.6x the node's service rate: fixed
            // per-batch costs dominate. The same traffic and pool as the
            // `bounded` rows of BENCH_scale.json.
            "tiny_1node" => Some(Workload {
                name: "tiny_1node",
                prompt_tokens: (8, 24),
                output_tokens: (1, 4),
                mean_gap_cycles: 3_000_000_000,
                kv: KvConfig::bounded(128, 48),
                placement: Placement::single_node(),
                streams: 4,
                requests: 200_000,
                ladder_requests: 20_000,
                ttft_p99_limit_s: 60.0,
                tpot_p99_limit_s: 30.0,
            }),
            // Chat-length requests at ~1.2x the service rate into a 6 GiB
            // KV pool: over a thousand waiting sessions, preemption and
            // re-prefill, and a shape population the estimate memo misses.
            "chat_saturated_1node" => Some(Workload {
                name: "chat_saturated_1node",
                prompt_tokens: (128, 1024),
                output_tokens: (32, 256),
                mean_gap_cycles: 100_000_000_000,
                kv: KvConfig::for_budget(MODEL, 6 << 30, 128),
                placement: Placement::single_node(),
                streams: 16,
                requests: 5_000,
                ladder_requests: 2_000,
                ttft_p99_limit_s: 2_000.0,
                tpot_p99_limit_s: 40.0,
            }),
            // Mid-size requests at ~1.15x the service rate of an 8x8 mesh
            // split 32 prefill / 32 decode: multi-node dispatch and one KV
            // migration per request, with an estimate memo that almost
            // always hits.
            "disagg_8x8" => Some(Workload {
                name: "disagg_8x8",
                prompt_tokens: (32, 128),
                output_tokens: (2, 12),
                mean_gap_cycles: 220_000_000,
                kv: KvConfig::bounded(128, 64).with_swap_preemption(),
                placement: Placement::disaggregated(NocConfig { rows: 8, cols: 8 }, 32),
                streams: 12,
                requests: 15_000,
                ladder_requests: 4_000,
                ttft_p99_limit_s: 800.0,
                tpot_p99_limit_s: 3.1,
            }),
            _ => None,
        }
    }

    /// The traffic at `rate_multiple` times the workload's arrival rate.
    pub fn spec_at(&self, rate_multiple: f64) -> WorkloadSpec {
        let gap = (self.mean_gap_cycles as f64 / rate_multiple).round() as u64;
        WorkloadSpec {
            prompt_tokens: self.prompt_tokens,
            output_tokens: self.output_tokens,
            ..WorkloadSpec::default()
        }
        .with_poisson_arrivals(gap.max(1))
    }

    /// Request stream `j` of a run with seed `seed` (unbounded; callers
    /// take what they serve). Stream 0 is the seed's own stream.
    pub fn stream(&self, seed: u64, j: usize) -> WorkloadStream {
        self.stream_at(seed, j, 1.0)
    }

    /// Stream `j` of `seed` at `rate_multiple` times the workload's rate.
    pub fn stream_at(&self, seed: u64, j: usize, rate_multiple: f64) -> WorkloadStream {
        let sub_seed = seed ^ (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        WorkloadStream::new(sub_seed, &[MODEL], self.spec_at(rate_multiple))
    }

    /// Executor configuration: the trace bucket equals the KV page size, as
    /// a bounded pool requires. The control plane stays off.
    pub fn executor_config(&self) -> ExecutorConfig {
        ExecutorConfig { kv_bucket: self.kv.page_tokens, ..ExecutorConfig::default() }
    }

    /// A fresh scheduler over the workload's KV pool.
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::with_kv(SchedulerConfig::default(), self.kv)
    }

    /// A fresh event engine on a fresh accelerator, so every cache starts
    /// empty.
    pub fn engine(&self) -> EventEngine {
        EventEngine::with_placement(
            MugiAccelerator::new(ARRAY_HEIGHT),
            self.scheduler(),
            self.executor_config(),
            self.placement,
        )
    }

    /// A fresh per-step executor on a fresh accelerator.
    pub fn executor(&self) -> Executor {
        Executor::with_placement(
            MugiAccelerator::new(ARRAY_HEIGHT),
            self.scheduler(),
            self.executor_config(),
            self.placement,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed the workload sizes, SLO limits and rate ladder were tuned on.
    const TUNING_SEED: u64 = 4242;

    /// Seed held out from tuning: a claim made with this benchmark must also
    /// hold on it.
    const HELD_OUT_SEED: u64 = 9001;

    /// `(prompt_tokens, output_tokens, arrival_cycle)` of a stream's first
    /// request.
    fn first_request(name: &str, seed: u64) -> (usize, usize, u64) {
        let r =
            Workload::named(name).expect("named workload").stream(seed, 0).next().expect("request");
        (r.prompt_tokens, r.output_tokens, r.arrival_cycle)
    }

    #[test]
    fn every_listed_workload_resolves() {
        for name in WORKLOADS {
            assert_eq!(Workload::named(name).expect("listed workload").name, name);
        }
        assert!(Workload::named("tiny").is_none());
    }

    #[test]
    fn first_requests_are_pinned() {
        let firsts: Vec<_> =
            WORKLOADS.iter().map(|name| first_request(name, TUNING_SEED)).collect();
        assert_eq!(firsts, FIRST_REQUESTS);
    }

    #[test]
    fn seeds_and_stream_indices_select_different_streams() {
        for name in WORKLOADS {
            let w = Workload::named(name).expect("named workload");
            assert_ne!(first_request(name, TUNING_SEED), first_request(name, HELD_OUT_SEED));
            let first = |j| w.stream(TUNING_SEED, j).next().expect("request");
            assert_ne!(first(0), first(1));
            assert_eq!(first(1), first(1));
        }
    }

    #[test]
    fn chat_pool_is_the_six_gib_budget() {
        let w = Workload::named("chat_saturated_1node").expect("chat");
        assert_eq!(w.kv.node_pages, Some(96));
    }

    /// `(prompt_tokens, output_tokens, arrival_cycle)` of stream 0's first
    /// request under [`TUNING_SEED`], in [`WORKLOADS`] order.
    const FIRST_REQUESTS: [(usize, usize, u64); 3] =
        [(16, 2, 1_549_132_523), (993, 43, 51_637_750_768), (115, 5, 113_603_052)];
}
