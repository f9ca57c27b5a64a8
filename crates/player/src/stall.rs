//! Stall events and quality-of-experience metrics.

/// One playback interruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallEvent {
    /// Wall-clock second the play-out ran dry.
    pub start_secs: f64,
    /// Wall-clock second playback resumed (or the run ended).
    pub end_secs: f64,
}

impl StallEvent {
    /// Length of the interruption in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.end_secs - self.start_secs
    }
}

/// Quality-of-experience summary for one viewer — exactly the quantities
/// the paper measures ("total number of stalls, total stall duration, and
/// startup time", §V).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QoeMetrics {
    /// Seconds from join to first frame, if playback started.
    pub startup_secs: Option<f64>,
    /// Number of interruptions after startup.
    pub stall_count: usize,
    /// Summed interruption time in seconds.
    pub total_stall_secs: f64,
    /// When the whole video finished playing, if it did.
    pub finished_secs: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::playback::Playback;
    use splicecast_media::{ContentProfile, DurationSplicer, Splicer, Video};

    /// A player over a 20 s video in 4 s segments; its accounting is
    /// what [`QoeMetrics`] summarises.
    fn playback() -> Playback {
        let v = Video::builder()
            .duration_secs(20.0)
            .profile(ContentProfile::Uniform { gop_secs: 1.0 })
            .seed(3)
            .build();
        Playback::new(DurationSplicer::new(4.0).splice(&v))
    }

    #[test]
    fn close_truncates_open_stall() {
        let mut p = playback();
        p.on_segment(0, 1.0); // dry at t=5
        p.finish(8.0);
        assert_eq!(
            p.stalls(),
            [StallEvent {
                start_secs: 5.0,
                end_secs: 8.0
            }]
        );
        assert_eq!(p.metrics().total_stall_secs, 3.0);
        // Closing again is a no-op.
        let m = p.metrics();
        p.finish(9.0);
        assert_eq!(p.stalls().len(), 1);
        assert_eq!(p.metrics(), m);
    }

    #[test]
    fn metrics_of_untouched_tracker() {
        let m = playback().metrics();
        assert_eq!(m.startup_secs, None);
        assert_eq!(m.stall_count, 0);
        assert_eq!(m.total_stall_secs, 0.0);
        assert_eq!(m.finished_secs, None);
        assert_eq!(m, QoeMetrics::default());
    }

    #[test]
    fn stall_event_duration() {
        let e = StallEvent {
            start_secs: 1.5,
            end_secs: 4.0,
        };
        assert!((e.duration_secs() - 2.5).abs() < 1e-12);
    }
}
