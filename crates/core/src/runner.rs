//! Executing a single experiment run.

use std::sync::Arc;

use splicecast_media::SegmentList;
use splicecast_swarm::{run_swarm_shared, SwarmMetrics};

use crate::config::ExperimentConfig;

/// Result of one seeded run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The seed the swarm ran with.
    pub seed: u64,
    /// Per-peer and aggregate streaming metrics.
    pub metrics: SwarmMetrics,
    /// How many segments the splice produced.
    pub segment_count: usize,
    /// Total bytes a full download transfers (media + splicing overhead).
    pub total_transfer_bytes: u64,
    /// Splicing overhead as a fraction of media bytes.
    pub overhead_ratio: f64,
}

/// Builds the video, splices it, runs the swarm once.
///
/// Deterministic for a given `(config, seed)`.
///
/// # Panics
///
/// Panics on invalid configuration.
///
/// # Examples
///
/// ```no_run
/// use splicecast_core::{run_once, ExperimentConfig};
///
/// let result = run_once(&ExperimentConfig::paper_baseline(), 1);
/// println!("{} stalls", result.metrics.mean_stalls());
/// ```
pub fn run_once(config: &ExperimentConfig, seed: u64) -> RunResult {
    PreparedExperiment::new(config).run(seed)
}

/// An experiment with its media already built: encoding the synthetic
/// video and splicing it are deterministic in the config, so averaging
/// over seeds (or sweeping swarm parameters over the same clip) only needs
/// to do that work once. The segment list is shared with every swarm run
/// through an [`Arc`].
#[derive(Debug, Clone)]
pub struct PreparedExperiment {
    config: ExperimentConfig,
    segments: Arc<SegmentList>,
}

impl PreparedExperiment {
    /// Builds and splices the configured video.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration.
    pub fn new(config: &ExperimentConfig) -> Self {
        let video = config.video.build();
        let segments = config.splicing.splice(&video);
        debug_assert!(segments.validate(&video).is_ok());
        PreparedExperiment {
            config: config.clone(),
            segments: Arc::new(segments),
        }
    }

    /// The configuration this experiment was prepared for.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Re-uses this experiment's built media for another configuration,
    /// when that configuration encodes and splices the identical video
    /// (only swarm parameters differ). Returns `None` otherwise.
    pub fn try_share(&self, config: &ExperimentConfig) -> Option<Self> {
        if self.config.video == config.video && self.config.splicing == config.splicing {
            Some(PreparedExperiment {
                config: config.clone(),
                segments: Arc::clone(&self.segments),
            })
        } else {
            None
        }
    }

    /// Runs the swarm once over the prepared media. Deterministic for a
    /// given `(config, seed)` and identical to [`run_once`] on the same
    /// inputs.
    pub fn run(&self, seed: u64) -> RunResult {
        let metrics = run_swarm_shared(&self.segments, &self.config.swarm, seed);
        RunResult {
            seed,
            segment_count: self.segments.len(),
            total_transfer_bytes: self.segments.total_bytes(),
            overhead_ratio: self.segments.overhead_ratio(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VideoSpec;
    use crate::SplicingSpec;

    fn quick_config() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_baseline()
            .with_bandwidth(512_000.0)
            .with_leechers(3);
        cfg.video = VideoSpec {
            duration_secs: 16.0,
        };
        cfg.swarm.max_sim_secs = 300.0;
        cfg
    }

    #[test]
    fn run_once_produces_consistent_result() {
        let cfg = quick_config();
        let result = run_once(&cfg, 5);
        assert_eq!(result.seed, 5);
        assert_eq!(result.metrics.reports.len(), 3);
        assert_eq!(result.segment_count, 4); // 16 s / 4 s
        assert!(
            result.overhead_ratio > 0.0,
            "duration splicing has overhead"
        );
        assert!(result.total_transfer_bytes > 16.0 as u64 * 125_000 / 8);
    }

    #[test]
    fn run_once_is_deterministic() {
        let cfg = quick_config();
        assert_eq!(run_once(&cfg, 9), run_once(&cfg, 9));
    }

    #[test]
    fn gop_splicing_has_no_overhead() {
        let cfg = quick_config().with_splicing(SplicingSpec::Gop);
        let result = run_once(&cfg, 1);
        assert_eq!(result.overhead_ratio, 0.0);
    }

    #[test]
    fn prepared_run_matches_run_once() {
        let cfg = quick_config();
        let prepared = PreparedExperiment::new(&cfg);
        assert_eq!(prepared.run(5), run_once(&cfg, 5));
    }

    #[test]
    fn fluid_model_tracks_round_model_on_the_paper_baseline() {
        // The fluid model is an approximation, not a re-derivation: on the
        // paper's baseline swarm it must land in the same regime as the
        // round model (peers finish, playback works, stall counts are of
        // the same order), not match it bit for bit.
        let rounds_cfg = ExperimentConfig::paper_baseline();
        let fluid_cfg =
            ExperimentConfig::paper_baseline().with_flow_model(splicecast_netsim::FlowModel::Fluid);
        let rounds = run_once(&rounds_cfg, 101);
        let fluid = run_once(&fluid_cfg, 101);
        assert_eq!(
            rounds.metrics.reports.len(),
            fluid.metrics.reports.len(),
            "both models must field the full swarm"
        );
        for report in &fluid.metrics.reports {
            assert!(report.finished, "fluid peer failed to finish the stream");
        }
        let (rs, fs) = (rounds.metrics.mean_stalls(), fluid.metrics.mean_stalls());
        assert!(
            (fs - rs).abs() <= (rs * 0.5).max(3.0),
            "mean stalls diverged: rounds {rs:.1} vs fluid {fs:.1}"
        );
        let (ru, fu) = (
            rounds.metrics.mean_startup_secs(),
            fluid.metrics.mean_startup_secs(),
        );
        assert!(
            (fu - ru).abs() <= (ru * 0.5).max(2.0),
            "startup diverged: rounds {ru:.2} s vs fluid {fu:.2} s"
        );
    }

    #[test]
    fn prepared_media_is_shared_across_same_video_configs() {
        let cfg = quick_config();
        let prepared = PreparedExperiment::new(&cfg);
        let other = cfg.clone().with_bandwidth(256_000.0);
        let shared = prepared
            .try_share(&other)
            .expect("same video + splice should share");
        assert!(Arc::ptr_eq(&prepared.segments, &shared.segments));
        assert_eq!(shared.run(5), run_once(&other, 5));
        // Different splicing must not share.
        assert!(prepared
            .try_share(&cfg.with_splicing(SplicingSpec::Gop))
            .is_none());
    }
}
