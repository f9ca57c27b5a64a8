//! Splicing selector: which strategy an experiment cuts its clip with.

use splicecast_media::{
    ByteSplicer, DurationSplicer, GopSplicer, MediaTicks, RampSplicer, SegmentList, Splicer, Video,
};

use crate::rule;

/// Which splicing strategy an experiment uses (§II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplicingSpec {
    /// One segment per closed GOP (§II-A).
    Gop,
    /// Frame-accurate cuts every given number of seconds (§II-B).
    Duration(f64),
    /// PPLive-style fixed-byte blocks.
    Bytes(u64),
    /// Ramped durations from `initial` to `max` seconds (growth 1.5×) —
    /// the §VIII "adaptive splicing" future work.
    Ramp {
        /// First segment's target duration, seconds.
        initial: f64,
        /// Steady-state target duration, seconds.
        max: f64,
    },
}

/// A cut interval under half a 90 kHz tick rounds to zero ticks, which
/// the splicers refuse (their boundary walk would never advance).
fn whole_tick(secs: f64) -> Result<(), String> {
    rule(
        !MediaTicks::from_secs_f64(secs).is_zero(),
        format!("segment duration must be at least one media tick, got {secs}"),
    )
}

impl SplicingSpec {
    /// The rule a parameter breaks, if any: an `Err` here is exactly a
    /// panic in [`Self::build`]. Callers holding outside input (the CLI)
    /// check first and report the message.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            SplicingSpec::Gop => Ok(()),
            SplicingSpec::Duration(secs) => {
                rule(
                    secs.is_finite() && secs > 0.0,
                    format!("segment duration must be positive, got {secs}"),
                )?;
                whole_tick(secs)
            }
            SplicingSpec::Bytes(bytes) => rule(bytes > 0, "segment size must be positive"),
            SplicingSpec::Ramp { initial, max } => {
                rule(
                    initial.is_finite() && initial > 0.0 && initial <= max,
                    format!("bad ramp range [{initial}, {max}]"),
                )?;
                whole_tick(initial)
            }
        }
    }

    /// Instantiates the splicer.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::check`] fails, with the splicer's own message.
    pub fn build(&self) -> Box<dyn Splicer> {
        match self {
            SplicingSpec::Gop => Box::new(GopSplicer),
            SplicingSpec::Duration(secs) => Box::new(DurationSplicer::new(*secs)),
            SplicingSpec::Bytes(bytes) => Box::new(ByteSplicer::new(*bytes)),
            SplicingSpec::Ramp { initial, max } => Box::new(RampSplicer::new(*initial, *max)),
        }
    }

    /// Cuts the video.
    pub fn splice(&self, video: &Video) -> SegmentList {
        self.build().splice(video)
    }

    /// Short label for reports ("gop", "4s", ...).
    pub fn label(&self) -> String {
        self.build().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_build_and_label() {
        assert_eq!(SplicingSpec::Gop.label(), "gop");
        assert_eq!(SplicingSpec::Duration(2.0).label(), "2s");
        assert_eq!(SplicingSpec::Bytes(1024).label(), "1024B");
    }

    #[test]
    fn ramp_spec_builds() {
        assert_eq!(
            SplicingSpec::Ramp {
                initial: 1.0,
                max: 8.0
            }
            .label(),
            "ramp(1→8s)"
        );
    }

    /// `check()` fails exactly where `build()` panics.
    #[test]
    fn check_agrees_with_build() {
        let bad = [
            SplicingSpec::Duration(0.0),
            SplicingSpec::Duration(-2.0),
            SplicingSpec::Duration(f64::NAN),
            SplicingSpec::Duration(f64::INFINITY),
            SplicingSpec::Bytes(0),
            SplicingSpec::Ramp {
                initial: 8.0,
                max: 1.0,
            },
            SplicingSpec::Ramp {
                initial: 0.0,
                max: 1.0,
            },
            // Under half a 90 kHz tick: zero ticks, an endless boundary walk.
            SplicingSpec::Duration(1e-6),
            SplicingSpec::Ramp {
                initial: 1e-6,
                max: 1.0,
            },
        ];
        for spec in bad {
            assert!(spec.check().is_err(), "{spec:?}");
            assert!(
                std::panic::catch_unwind(|| spec.build()).is_err(),
                "{spec:?}"
            );
        }
        for spec in [
            SplicingSpec::Gop,
            SplicingSpec::Duration(0.5),
            SplicingSpec::Duration(1e-5),
            SplicingSpec::Bytes(1),
            SplicingSpec::Ramp {
                initial: 2.0,
                max: 2.0,
            },
        ] {
            assert_eq!(spec.check(), Ok(()), "{spec:?}");
            spec.build();
        }
    }

    #[test]
    fn specs_splice_consistently() {
        let video = Video::builder().duration_secs(20.0).seed(1).build();
        for spec in [
            SplicingSpec::Gop,
            SplicingSpec::Duration(4.0),
            SplicingSpec::Bytes(200_000),
            SplicingSpec::Ramp {
                initial: 1.0,
                max: 8.0,
            },
        ] {
            let list = spec.splice(&video);
            list.validate(&video).unwrap();
            assert!(!list.is_empty());
        }
    }
}
