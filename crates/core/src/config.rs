//! Experiment configuration: video, splicing, and swarm in one bundle.

use serde::{Deserialize, Serialize};

use splicecast_media::{Video, PAPER_CONTENT_SEED};
use splicecast_swarm::SwarmConfig;

use crate::rule;
use crate::splicing::SplicingSpec;

/// Describes the synthetic test video: the paper's clip, 1 Mbps, 30 fps
/// MPEG-4 with mixed content, of a settable length (2 minutes by default).
/// The content seed is [`PAPER_CONTENT_SEED`], so every run streams the
/// *same* video, as in the paper (run-to-run randomness comes from the swarm
/// seed instead).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoSpec {
    /// Clip length in seconds.
    pub duration_secs: f64,
}

/// Longest clip [`VideoSpec::check`] admits: 24 h, 2.6 M frames at 30 fps.
const MAX_CLIP_SECS: f64 = 86_400.0;

impl Default for VideoSpec {
    fn default() -> Self {
        VideoSpec {
            duration_secs: 120.0,
        }
    }
}

impl VideoSpec {
    /// The rule the clip length breaks, if any: one that [`Self::build`]
    /// would panic on, or one so long that its frame table would exhaust
    /// memory instead. Callers holding outside input (the CLI) check first
    /// and report the message.
    pub fn check(&self) -> Result<(), String> {
        rule(
            self.duration_secs > 0.0 && self.duration_secs <= MAX_CLIP_SECS,
            format!(
                "clip length must be a positive number of seconds, at most {MAX_CLIP_SECS}, got {}",
                self.duration_secs
            ),
        )
    }

    /// Encodes the video.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::check`] fails, with the media crate's message.
    pub fn build(&self) -> Video {
        Video::builder()
            .duration_secs(self.duration_secs)
            .seed(PAPER_CONTENT_SEED)
            .build()
    }
}

/// One complete experiment: what video, how it is spliced, and what swarm
/// streams it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The test video.
    pub video: VideoSpec,
    /// The splicing strategy under test.
    pub splicing: SplicingSpec,
    /// The swarm and network configuration.
    pub swarm: SwarmConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            video: VideoSpec::default(),
            splicing: SplicingSpec::Duration(4.0),
            swarm: SwarmConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// Checks all three parts — video, splicing, swarm — and names the
    /// first rule that fails; `Ok` means the experiment runs without a
    /// configuration panic.
    pub fn check(&self) -> Result<(), String> {
        self.video.check()?;
        self.splicing.check()?;
        self.swarm.check()
    }

    /// The paper's baseline setup (Fig. 2 operating point with 4 s
    /// splicing).
    pub fn paper_baseline() -> Self {
        ExperimentConfig::default()
    }

    /// Sets both peer and seeder access bandwidth, bytes per second (the
    /// figures' x-axis variable).
    pub fn with_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.swarm.peer_bandwidth_bytes_per_sec = bytes_per_sec;
        self.swarm.seeder_bandwidth_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Sets the splicing strategy.
    pub fn with_splicing(mut self, splicing: SplicingSpec) -> Self {
        self.splicing = splicing;
        self
    }

    /// Sets the download policy.
    pub fn with_policy(mut self, policy: splicecast_swarm::PolicyConfig) -> Self {
        self.swarm.policy = policy;
        self
    }

    /// Sets the number of leechers.
    pub fn with_leechers(mut self, n: usize) -> Self {
        self.swarm.n_leechers = n;
        self
    }

    /// Selects the network flow model: per-RTT rounds (default) or the
    /// event-driven fluid rate model for large swarms.
    pub fn with_flow_model(mut self, model: splicecast_netsim::FlowModel) -> Self {
        self.swarm.flow_model = model;
        self
    }

    /// Selects the swarm control plane: per-segment `Have` broadcasts with
    /// a fixed-rate pump (default), or coalesced `HaveBundle` dissemination
    /// with demand-driven pumps for large swarms.
    pub fn with_control_plane(mut self, plane: splicecast_swarm::ControlPlane) -> Self {
        self.swarm.control_plane = plane;
        self
    }

    /// The blessed big-swarm preset: every scalability optimisation at
    /// once — the fluid flow model and the eventful control plane (the
    /// skipped scheduling passes are what every leecher runs anyway). This
    /// is what `--profile scale` selects on the CLI; individual knobs can
    /// still be overridden afterwards.
    pub fn with_scale_profile(self) -> Self {
        self.with_flow_model(splicecast_netsim::FlowModel::Fluid)
            .with_control_plane(splicecast_swarm::ControlPlane::Eventful)
    }

    /// Installs a deterministic fault-injection plan (crash-stop churn,
    /// control-message loss/delay, link flaps, CDN outages).
    pub fn with_faults(mut self, faults: splicecast_swarm::FaultPlanConfig) -> Self {
        self.swarm.faults = Some(faults);
        self
    }

    /// Enables the peer-side failure defense: source backoff bans.
    pub fn with_defense(mut self, defense: splicecast_swarm::DefenseConfig) -> Self {
        self.swarm.defense = Some(defense);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_video_matches_paper() {
        let v = VideoSpec::default().build();
        assert!((v.duration().as_secs_f64() - 120.0).abs() < 0.2);
        assert!((v.bitrate_bps() - 1e6).abs() < 2e4);
    }

    #[test]
    fn video_build_is_deterministic() {
        assert_eq!(VideoSpec::default().build(), VideoSpec::default().build());
    }

    /// `check()` fails exactly where `build()` panics.
    #[test]
    fn video_check_agrees_with_build() {
        for duration_secs in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let spec = VideoSpec { duration_secs };
            assert!(spec.check().is_err(), "{spec:?}");
            assert!(
                std::panic::catch_unwind(|| spec.build()).is_err(),
                "{spec:?}"
            );
        }
        let good = VideoSpec { duration_secs: 4.0 };
        assert_eq!(good.check(), Ok(()));
        good.build();
        assert_eq!(ExperimentConfig::default().check(), Ok(()));
        let bad_splicing = ExperimentConfig::default().with_splicing(SplicingSpec::Bytes(0));
        assert_eq!(
            bad_splicing.check(),
            Err("segment size must be positive".to_owned())
        );
    }

    /// The clip bound sits at 24 h: `build()` would not panic beyond it,
    /// it would allocate until the process dies.
    #[test]
    fn clip_length_is_bounded_at_a_day() {
        let of = |duration_secs| VideoSpec { duration_secs };
        assert_eq!(of(86_400.0).check(), Ok(()));
        for too_long in [86_400.5, 1e9, f64::MAX] {
            let err = of(too_long).check().unwrap_err();
            assert!(err.contains("at most 86400"), "{err}");
        }
    }

    #[test]
    fn builders_chain() {
        let cfg = ExperimentConfig::paper_baseline()
            .with_bandwidth(256_000.0)
            .with_splicing(SplicingSpec::Gop)
            .with_policy(splicecast_swarm::PolicyConfig::Fixed(2))
            .with_leechers(5)
            .with_control_plane(splicecast_swarm::ControlPlane::Eventful);
        assert_eq!(cfg.swarm.peer_bandwidth_bytes_per_sec, 256_000.0);
        assert_eq!(cfg.swarm.seeder_bandwidth_bytes_per_sec, 256_000.0);
        assert_eq!(cfg.splicing, SplicingSpec::Gop);
        assert_eq!(cfg.swarm.n_leechers, 5);
        assert_eq!(
            cfg.swarm.control_plane,
            splicecast_swarm::ControlPlane::Eventful
        );
    }

    #[test]
    fn config_serializes() {
        let cfg = ExperimentConfig::default();
        let json = serde_json_like(&cfg);
        assert!(json.contains("Duration"));
    }

    // serde_json is not a dependency; use the debug form as a stand-in for
    // "it derives Serialize without blowing up" (compile-time check) and
    // check Debug formatting here.
    fn serde_json_like(cfg: &ExperimentConfig) -> String {
        format!("{cfg:?}")
    }
}
