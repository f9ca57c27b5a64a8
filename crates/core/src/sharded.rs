//! Multi-channel sharded simulation.
//!
//! A live-streaming service runs many independent channel swarms at once —
//! same software, same tuning, different audiences. [`ShardedWorkload`]
//! models exactly that: C channels of the same [`ExperimentConfig`], each
//! with a per-channel seed derived as `base_seed ^ fnv1a(channel_id)`,
//! fanned across worker threads and merged into per-channel plus
//! cross-channel [`AveragedMetrics`].
//!
//! Determinism contract: like [`Grid::run`](crate::Grid::run), results are
//! bit-identical for any worker count ≥ 1 — each channel is an independent
//! deterministic simulation, workers only claim whole channels, and the
//! output slots preserve channel order.

use crate::config::ExperimentConfig;
use crate::experiment::{run_ordered, AveragedMetrics};
use crate::runner::{PreparedExperiment, RunResult};

/// FNV-1a over `bytes` — the channel-id hash feeding seed derivation.
/// Stable across platforms and Rust versions (unlike `DefaultHasher`), so
/// sharded runs reproduce everywhere.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The seed channel `channel_id` runs with for `base_seed`: independent
/// channels must not replay each other's randomness, so each base seed is
/// XOR-folded with the channel id's hash.
pub fn channel_seed(base_seed: u64, channel_id: &str) -> u64 {
    base_seed ^ fnv1a(channel_id.as_bytes())
}

/// One channel's share of a sharded outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelResult {
    /// The channel id the seeds were derived from.
    pub channel: String,
    /// This channel's averaged metrics over its seeded runs.
    pub averaged: AveragedMetrics,
}

/// Everything a sharded run produces: per-channel averages plus the
/// cross-channel aggregate (an [`AveragedMetrics`] folded over every run
/// of every channel, in channel order).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Per-channel results, in the order the channels were given.
    pub channels: Vec<ChannelResult>,
    /// All channels' runs folded together.
    pub aggregate: AveragedMetrics,
}

/// C independent channel swarms of one configuration, ready to fan out
/// over worker threads.
///
/// # Examples
///
/// ```no_run
/// use splicecast_core::{ExperimentConfig, ShardedWorkload};
///
/// let config = ExperimentConfig::paper_baseline().with_scale_profile();
/// let workload = ShardedWorkload::with_channel_count(&config, 8, &[101]);
/// let outcome = workload.run(4);
/// println!("{} stalls across 8 channels", outcome.aggregate.rounded_stalls);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedWorkload {
    prepared: PreparedExperiment,
    channels: Vec<String>,
    seeds: Vec<u64>,
}

impl ShardedWorkload {
    /// A workload over explicitly named channels. The media is encoded and
    /// spliced once here and shared by every channel's runs.
    ///
    /// # Panics
    ///
    /// Panics when `channels` or `seeds` is empty, or on an invalid
    /// configuration.
    pub fn new(config: &ExperimentConfig, channels: &[String], seeds: &[u64]) -> Self {
        assert!(!channels.is_empty(), "need at least one channel");
        assert!(!seeds.is_empty(), "need at least one seed");
        ShardedWorkload {
            prepared: PreparedExperiment::new(config),
            channels: channels.to_vec(),
            seeds: seeds.to_vec(),
        }
    }

    /// A workload over `count` generated channel ids (`ch0`, `ch1`, …).
    ///
    /// # Panics
    ///
    /// Panics when `count` is zero or `seeds` is empty.
    pub fn with_channel_count(config: &ExperimentConfig, count: usize, seeds: &[u64]) -> Self {
        let channels: Vec<String> = (0..count).map(|i| format!("ch{i}")).collect();
        Self::new(config, &channels, seeds)
    }

    /// The channel ids this workload fans out over.
    pub fn channels(&self) -> &[String] {
        &self.channels
    }

    /// Runs every channel (each averaged over the derived per-channel
    /// seeds) across `workers` threads and merges the results. Bit-identical
    /// for any `workers` ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero or any channel run panics (the
    /// channel's panic message is propagated).
    pub fn run(&self, workers: usize) -> ShardedOutcome {
        let per_channel: Vec<Vec<RunResult>> = run_ordered(
            self.channels.len(),
            workers,
            |i| format!("channel '{}'", self.channels[i]),
            |i| {
                self.seeds
                    .iter()
                    .map(|&s| self.prepared.run(channel_seed(s, &self.channels[i])))
                    .collect()
            },
        );
        let all_runs: Vec<RunResult> = per_channel.iter().flatten().cloned().collect();
        let channels = self
            .channels
            .iter()
            .zip(&per_channel)
            .map(|(channel, runs)| ChannelResult {
                channel: channel.clone(),
                averaged: AveragedMetrics::from_runs(runs),
            })
            .collect();
        ShardedOutcome {
            channels,
            aggregate: AveragedMetrics::from_runs(&all_runs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VideoSpec;
    use crate::experiment::run_averaged;

    fn quick_config() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_baseline()
            .with_bandwidth(512_000.0)
            .with_leechers(3);
        cfg.video = VideoSpec {
            duration_secs: 12.0,
            ..VideoSpec::default()
        };
        cfg.swarm.max_sim_secs = 300.0;
        cfg
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn channel_seeds_differ_between_channels() {
        let base = 101;
        let a = channel_seed(base, "ch0");
        let b = channel_seed(base, "ch1");
        assert_ne!(a, b);
        // ... and re-derive identically.
        assert_eq!(a, channel_seed(base, "ch0"));
    }

    #[test]
    fn sharded_run_is_identical_across_worker_counts() {
        let workload = ShardedWorkload::with_channel_count(&quick_config(), 4, &[3]);
        let one = workload.run(1);
        let two = workload.run(2);
        let eight = workload.run(8);
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn channels_match_standalone_runs_on_derived_seeds() {
        // On the paper stack and on the scale profile's.
        for cfg in [quick_config(), quick_config().with_scale_profile()] {
            let workload = ShardedWorkload::with_channel_count(&cfg, 2, &[3, 4]);
            let outcome = workload.run(2);
            assert_eq!(outcome.channels.len(), 2);
            for result in &outcome.channels {
                let derived: Vec<u64> = [3u64, 4]
                    .iter()
                    .map(|&s| channel_seed(s, &result.channel))
                    .collect();
                let standalone = run_averaged(&cfg, &derived);
                assert_eq!(result.averaged, standalone, "channel {}", result.channel);
            }
            // The aggregate folds all channels' runs: 2 channels × 2 seeds,
            // every viewer of every one finishing, memory accounted.
            assert_eq!(outcome.aggregate.runs, 4);
            assert_eq!(outcome.aggregate.completion_rate, 1.0);
            assert!(outcome.aggregate.mem_bytes_per_peer(cfg.swarm.n_leechers) > 0.0);
        }
    }

    #[test]
    fn sharded_propagates_channel_panics() {
        let mut bad = quick_config();
        bad.swarm.n_leechers = 0;
        let workload = ShardedWorkload::with_channel_count(&bad, 1, &[1]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| workload.run(2)));
        let payload = result.expect_err("sharded run should propagate the panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("channel 'ch0' panicked"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn empty_channels_panic() {
        let _ = ShardedWorkload::with_channel_count(&quick_config(), 0, &[1]);
    }
}
