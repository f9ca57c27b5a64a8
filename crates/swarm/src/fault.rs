//! Fault-injection plans and peer-side failure defenses.
//!
//! Graceful churn ([`crate::ChurnConfig`]) models peers that *announce*
//! their departure with a Goodbye. Real swarms also fail silently and
//! partially: peers crash-stop, control messages get lost or delayed,
//! access links degrade, and the CDN blinks. [`FaultPlanConfig`] describes
//! a deterministic, seeded schedule of such faults; [`DefenseConfig`]
//! describes the peer-side countermeasure, exponential source backoff
//! bans. Both are optional, and a run with neither configured is
//! bit-identical to one predating their existence. A crash needs no
//! countermeasure of its own: like a TCP connection reset, it surfaces as a
//! failed send, a failed transfer or an offline probe. A CDN outage needs
//! none either: it is a pause, and the CDN serves again when it is back.

use rand::rngs::StdRng;
use rand::Rng;

use crate::churn::sample_lifetimes;
use crate::{must, positive_secs, rule, MAX_KNOB_SECS};

/// The most link-flap or CDN-outage windows one plan may schedule. Every
/// window is events pending from time zero; the event queue holds 2²⁴.
const MAX_FAULT_WINDOWS: usize = 10_000;

/// The rule for a window count.
fn window_count(what: &str, count: usize) -> Result<(), String> {
    rule(
        count <= MAX_FAULT_WINDOWS,
        format!("at most {MAX_FAULT_WINDOWS} {what} windows, got {count}"),
    )
}

/// Crash-stop churn: a fraction of leechers vanish *without* a Goodbye,
/// leaving every other peer's view of them stale until a send, a transfer
/// or an online probe finds them gone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashChurnConfig {
    /// Fraction of leechers that will crash-stop before finishing.
    pub crash_fraction: f64,
    /// Mean uptime of a crashing peer after joining, seconds
    /// (exponentially distributed).
    pub mean_uptime_secs: f64,
}

impl CrashChurnConfig {
    /// Creates a crash-churn config.
    ///
    /// # Panics
    ///
    /// Panics if `crash_fraction` is outside `[0, 1]` or the uptime is not
    /// positive.
    pub fn new(crash_fraction: f64, mean_uptime_secs: f64) -> Self {
        let config = CrashChurnConfig {
            crash_fraction,
            mean_uptime_secs,
        };
        must(config.check());
        config
    }

    /// Checks the knobs: a fraction outside `[0, 1]` or an uptime that is
    /// not positive or longer than a day is an `Err` naming the rule.
    pub fn check(&self) -> Result<(), String> {
        rule(
            (0.0..=1.0).contains(&self.crash_fraction),
            format!(
                "crash fraction must be in [0,1], got {}",
                self.crash_fraction
            ),
        )?;
        positive_secs("mean uptime", self.mean_uptime_secs)
    }

    /// Samples a crash delay (seconds after joining) for each of `n_peers`
    /// leechers; `None` means the peer never crashes.
    pub fn sample_crashes(&self, n_peers: usize, rng: &mut StdRng) -> Vec<Option<f64>> {
        sample_lifetimes(self.crash_fraction, self.mean_uptime_secs, n_peers, rng)
    }
}

/// Flapping access links: windows during which a random leecher's access
/// link runs at a degraded rate before recovering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFlapConfig {
    /// Number of degradation windows to schedule.
    pub count: usize,
    /// Link rate during a window, bytes per second.
    pub degraded_bytes_per_sec: f64,
    /// Length of each window, seconds.
    pub duration_secs: f64,
    /// Window start times are drawn uniformly from `[0, window_secs)`.
    pub window_secs: f64,
}

impl LinkFlapConfig {
    /// Checks the knobs: too many windows, a rate that is not positive and
    /// finite, or a duration or window that is not positive or longer than
    /// a day is an `Err` naming the rule.
    pub fn check(&self) -> Result<(), String> {
        window_count("flap", self.count)?;
        rule(
            self.degraded_bytes_per_sec > 0.0 && self.degraded_bytes_per_sec.is_finite(),
            "degraded rate must be positive and finite",
        )?;
        positive_secs("flap duration", self.duration_secs)?;
        positive_secs("flap window", self.window_secs)
    }

    /// Samples `(leecher index, start_secs)` for each scheduled flap.
    pub fn sample_flaps(&self, n_leechers: usize, rng: &mut StdRng) -> Vec<(usize, f64)> {
        (0..self.count)
            .map(|_| {
                let leecher = rng.gen_range(0..n_leechers);
                let start = rng.gen_range(0.0..self.window_secs);
                (leecher, start)
            })
            .collect()
    }
}

/// CDN outage intervals: windows during which the CDN node is offline
/// (flows fail, requests to it error out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdnOutageConfig {
    /// Number of outage windows to schedule.
    pub count: usize,
    /// Length of each outage, seconds.
    pub duration_secs: f64,
    /// Outage start times are drawn uniformly from `[0, window_secs)`.
    pub window_secs: f64,
}

impl CdnOutageConfig {
    /// Checks the knobs: too many windows, or a duration or window that is
    /// not positive or longer than a day, is an `Err` naming the rule.
    pub fn check(&self) -> Result<(), String> {
        window_count("outage", self.count)?;
        positive_secs("outage duration", self.duration_secs)?;
        positive_secs("outage window", self.window_secs)
    }

    /// Samples the start time of each scheduled outage.
    pub fn sample_outages(&self, rng: &mut StdRng) -> Vec<f64> {
        (0..self.count)
            .map(|_| rng.gen_range(0.0..self.window_secs))
            .collect()
    }
}

/// A deterministic fault-injection plan for one scenario. All sampling
/// derives from the run's setup RNG (and the message-fault plane's own
/// seeded stream), so the same seed replays the same fault schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlanConfig {
    /// Crash-stop departures (no Goodbye), if any.
    pub crash: Option<CrashChurnConfig>,
    /// Probability that a droppable control message (Have/HaveBundle/
    /// Bitfield) silently vanishes.
    pub message_loss: f64,
    /// Probability that a surviving droppable message gets extra delay.
    pub message_delay_prob: f64,
    /// Upper bound of the injected extra delay, seconds.
    pub message_delay_max_secs: f64,
    /// Flapping access-link windows, if any.
    pub link_flaps: Option<LinkFlapConfig>,
    /// CDN outage windows, if any (requires a CDN in the scenario).
    pub cdn_outages: Option<CdnOutageConfig>,
}

impl FaultPlanConfig {
    /// Checks the plan against the scenario: out-of-range probabilities, a
    /// delay bound that is negative, infinite or longer than a day, invalid
    /// sub-configs, or CDN outages without a CDN are an `Err` naming the
    /// rule.
    pub fn check(&self, has_cdn: bool) -> Result<(), String> {
        rule(
            (0.0..=1.0).contains(&self.message_loss),
            format!("message loss must be in [0,1], got {}", self.message_loss),
        )?;
        rule(
            (0.0..=1.0).contains(&self.message_delay_prob),
            format!(
                "message delay probability must be in [0,1], got {}",
                self.message_delay_prob
            ),
        )?;
        rule(
            (0.0..=MAX_KNOB_SECS).contains(&self.message_delay_max_secs),
            format!(
                "message delay bound must be in [0,{MAX_KNOB_SECS}] s, got {}",
                self.message_delay_max_secs
            ),
        )?;
        if let Some(crash) = &self.crash {
            crash.check()?;
        }
        if let Some(flaps) = &self.link_flaps {
            flaps.check()?;
        }
        if let Some(outages) = &self.cdn_outages {
            outages.check()?;
            rule(
                has_cdn || outages.count == 0,
                "CDN outages require a CDN in the scenario",
            )?;
        }
        Ok(())
    }
}

/// First backoff-ban window after a source failure, seconds; doubles per
/// consecutive failure.
pub(crate) const BACKOFF_BASE_SECS: f64 = 5.0;
/// Ceiling of the backoff-ban window, seconds.
pub(crate) const BACKOFF_MAX_SECS: f64 = 60.0;

/// Peer-side failure defenses: exponential backoff bans on failing
/// sources, `BACKOFF_BASE_SECS` doubling up to `BACKOFF_MAX_SECS`. Off
/// unless this config is present on the swarm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn crash_sampling_is_deterministic_and_bounded() {
        let cfg = CrashChurnConfig::new(0.5, 20.0);
        let a = cfg.sample_crashes(40, &mut StdRng::seed_from_u64(3));
        let b = cfg.sample_crashes(40, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        assert!(a.iter().flatten().all(|&t| t > 0.0));
        let crashed = a.iter().filter(|c| c.is_some()).count();
        assert!(crashed > 0 && crashed < 40, "fraction 0.5 got {crashed}/40");
    }

    #[test]
    fn zero_crash_fraction_draws_nobody() {
        let cfg = CrashChurnConfig::new(0.0, 20.0);
        let d = cfg.sample_crashes(50, &mut StdRng::seed_from_u64(1));
        assert!(d.iter().all(Option::is_none));
    }

    #[test]
    fn flap_and_outage_windows_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let flaps = LinkFlapConfig {
            count: 20,
            degraded_bytes_per_sec: 10_000.0,
            duration_secs: 5.0,
            window_secs: 100.0,
        };
        assert_eq!(flaps.check(), Ok(()));
        for (leecher, start) in flaps.sample_flaps(7, &mut rng) {
            assert!(leecher < 7);
            assert!((0.0..100.0).contains(&start));
        }
        let outages = CdnOutageConfig {
            count: 3,
            duration_secs: 10.0,
            window_secs: 60.0,
        };
        assert_eq!(outages.check(), Ok(()));
        for start in outages.sample_outages(&mut rng) {
            assert!((0.0..60.0).contains(&start));
        }
    }

    #[test]
    #[should_panic(expected = "CDN outages require a CDN")]
    fn outages_without_cdn_panic() {
        let plan = FaultPlanConfig {
            cdn_outages: Some(CdnOutageConfig {
                count: 1,
                duration_secs: 5.0,
                window_secs: 30.0,
            }),
            ..FaultPlanConfig::default()
        };
        crate::SwarmConfig {
            faults: Some(plan),
            ..crate::SwarmConfig::default()
        }
        .validate();
    }

    /// Every time in a plan is finite and at most a day, every window
    /// count at most `MAX_FAULT_WINDOWS`: what lies beyond used to pass
    /// `check()` and panic inside the run.
    #[test]
    fn unbounded_times_and_window_counts_are_check_errors() {
        let flaps = LinkFlapConfig {
            count: 1,
            degraded_bytes_per_sec: 10_000.0,
            duration_secs: 10.0,
            window_secs: 120.0,
        };
        let outages = CdnOutageConfig {
            count: 1,
            duration_secs: 10.0,
            window_secs: 120.0,
        };
        let crash = |mean_uptime_secs| CrashChurnConfig {
            crash_fraction: 0.5,
            mean_uptime_secs,
        };
        let plan = FaultPlanConfig {
            crash: Some(crash(86_400.0)),
            message_delay_prob: 0.5,
            message_delay_max_secs: 86_400.0,
            link_flaps: Some(LinkFlapConfig {
                count: MAX_FAULT_WINDOWS,
                ..flaps
            }),
            cdn_outages: Some(CdnOutageConfig {
                count: MAX_FAULT_WINDOWS,
                ..outages
            }),
            ..FaultPlanConfig::default()
        };
        assert_eq!(plan.check(true), Ok(()));
        let too_many = MAX_FAULT_WINDOWS + 1;
        for beyond in [f64::INFINITY, 1e30, 86_400.5, f64::NAN] {
            let delay = FaultPlanConfig {
                message_delay_max_secs: beyond,
                ..plan
            };
            let (duration_secs, window_secs) = (beyond, beyond);
            let cases = [
                (
                    delay.check(true),
                    "message delay bound must be in [0,86400]",
                ),
                (crash(beyond).check(), "mean uptime must be positive and at"),
                (
                    LinkFlapConfig {
                        duration_secs,
                        ..flaps
                    }
                    .check(),
                    "flap duration must be positive and at most 86400 s",
                ),
                (
                    LinkFlapConfig {
                        window_secs,
                        ..flaps
                    }
                    .check(),
                    "flap window must be positive and at most 86400 s",
                ),
                (
                    CdnOutageConfig {
                        duration_secs,
                        ..outages
                    }
                    .check(),
                    "outage duration must be positive and at most 86400 s",
                ),
                (
                    CdnOutageConfig {
                        window_secs,
                        ..outages
                    }
                    .check(),
                    "outage window must be positive and at most 86400 s",
                ),
            ];
            for (checked, message) in cases {
                let err = checked.unwrap_err();
                assert!(err.contains(message), "{beyond}: {err}");
            }
        }
        let err = LinkFlapConfig {
            degraded_bytes_per_sec: f64::INFINITY,
            ..flaps
        }
        .check()
        .unwrap_err();
        assert_eq!(err, "degraded rate must be positive and finite");
        let err = LinkFlapConfig {
            count: too_many,
            ..flaps
        }
        .check()
        .unwrap_err();
        assert_eq!(err, "at most 10000 flap windows, got 10001");
        let err = CdnOutageConfig {
            count: too_many,
            ..outages
        }
        .check()
        .unwrap_err();
        assert_eq!(err, "at most 10000 outage windows, got 10001");
    }

    #[test]
    fn default_defense_validates() {
        crate::SwarmConfig {
            defense: Some(DefenseConfig),
            ..crate::SwarmConfig::default()
        }
        .validate();
    }

    #[test]
    fn zeroed_plan_validates_and_is_default() {
        let plan = FaultPlanConfig::default();
        assert_eq!(plan.check(false), Ok(()));
        assert_eq!(plan.message_loss, 0.0);
        assert!(plan.crash.is_none());
    }
}
