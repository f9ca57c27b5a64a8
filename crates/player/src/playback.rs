//! The sequential play-out state machine and its QoE accounting.

use std::sync::Arc;

use splicecast_media::{MediaTicks, SegmentList};

use crate::buffer::SegmentBuffer;
use crate::stall::{QoeMetrics, StallEvent};

/// Where the player is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlaybackState {
    /// Waiting for the first segment; nothing has played yet.
    WaitingForStart,
    /// Playing normally.
    Playing,
    /// Play-out ran dry; waiting for the segment under the play head.
    Stalled,
    /// The whole video has played.
    Finished,
}

/// A sequential viewer: plays the video front to back in real time,
/// stalling whenever the play head reaches undownloaded media, and
/// accounting startup, stalls and the finish as it goes.
///
/// The machine is driven by two calls: [`Playback::on_segment`] when a
/// segment finishes downloading, and [`Playback::advance`] with the current
/// wall-clock time. While playing, the player keeps only when the current
/// stretch began and where on the timeline; the instant the buffered run
/// ends (the *dry instant*) follows from those and the buffer. A stall, or
/// the finish, is recorded at that instant once the clock reaches it, so
/// how often and at which instants `advance` is called never changes the
/// accounting.
///
/// # Examples
///
/// ```
/// use splicecast_media::{DurationSplicer, Splicer, Video};
/// use splicecast_player::{Playback, PlaybackState};
///
/// let video = Video::builder().duration_secs(8.0).seed(1).build();
/// let segments = DurationSplicer::new(4.0).splice(&video);
/// let mut playback = Playback::new(segments);
///
/// playback.on_segment(0, 1.0); // first segment at t=1s → playback starts
/// playback.on_segment(1, 2.0);
/// playback.advance(9.0);       // 8s of media played by t=9
/// assert_eq!(playback.state(), PlaybackState::Finished);
/// assert_eq!(playback.metrics().stall_count, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Playback {
    buffer: SegmentBuffer,
    state: PlaybackState,
    /// Wall time when the current `Playing` stretch began.
    playing_since_secs: f64,
    /// Play-head position when the current `Playing` stretch began; while
    /// stalled, where the head stopped.
    position_at_since: MediaTicks,
    /// Media that must be buffered ahead before resuming from a stall.
    resume_threshold: MediaTicks,
    startup_secs: Option<f64>,
    finished_secs: Option<f64>,
    stalls: Vec<StallEvent>,
    /// Start of the stall in progress, until playback resumes or
    /// [`Playback::finish`] closes it.
    open_since: Option<f64>,
}

impl Playback {
    /// Creates a player for the given splice, waiting for segment 0.
    /// Stalls resume as soon as the segment under the play head arrives;
    /// see [`Playback::set_resume_threshold`] for re-buffering behaviour.
    pub fn new(segments: impl Into<Arc<SegmentList>>) -> Self {
        Playback {
            buffer: SegmentBuffer::new(segments),
            state: PlaybackState::WaitingForStart,
            playing_since_secs: 0.0,
            position_at_since: MediaTicks::ZERO,
            resume_threshold: MediaTicks::ZERO,
            startup_secs: None,
            finished_secs: None,
            stalls: Vec::new(),
            open_since: None,
        }
    }

    /// Requires at least `secs` of contiguous media ahead of the play head
    /// before resuming from a stall (or the rest of the video, when less
    /// remains) — the re-buffering behaviour of real players like the
    /// paper's vlcj/LibVLC setup. Zero (the default) resumes on the next
    /// segment.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn set_resume_threshold(&mut self, secs: f64) {
        self.resume_threshold = MediaTicks::from_secs_f64(secs);
    }

    /// The current lifecycle state.
    pub fn state(&self) -> PlaybackState {
        self.state
    }

    /// The downloaded-segment buffer.
    pub fn buffer(&self) -> &SegmentBuffer {
        &self.buffer
    }

    /// Buffered playback time ahead of the play head — the paper's `T`.
    /// Zero before startup, while stalled, and after finishing.
    pub fn buffered_ahead(&mut self, now_secs: f64) -> MediaTicks {
        self.advance(now_secs);
        if self.state != PlaybackState::Playing {
            return MediaTicks::ZERO;
        }
        let elapsed = (now_secs - self.playing_since_secs).max(0.0);
        let head = self.position_at_since + MediaTicks::from_secs_f64(elapsed);
        self.run_end().saturating_sub(head)
    }

    /// Records that `index` finished downloading at `now_secs`, starting or
    /// resuming playback if that unblocks the play head.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn on_segment(&mut self, index: usize, now_secs: f64) {
        self.advance(now_secs);
        self.buffer.insert(index);
        match self.state {
            PlaybackState::WaitingForStart => {
                if self.buffer.has(0) {
                    self.startup_secs = Some(now_secs);
                    self.state = PlaybackState::Playing;
                    self.playing_since_secs = now_secs;
                }
            }
            PlaybackState::Stalled => {
                let head = self.position_at_since;
                let playable = self.run_end();
                let goal = (head + self.resume_threshold).min(self.buffer.media_end());
                if playable > head && playable >= goal {
                    self.close_stall(now_secs);
                    self.state = PlaybackState::Playing;
                    self.playing_since_secs = now_secs;
                }
            }
            PlaybackState::Playing | PlaybackState::Finished => {}
        }
    }

    /// Brings the player up to `now_secs`: once the clock reaches the dry
    /// instant, the stall (or, at the end of the video, the finish) is
    /// recorded at that instant.
    pub fn advance(&mut self, now_secs: f64) {
        if self.state != PlaybackState::Playing {
            return;
        }
        debug_assert!(
            now_secs - self.playing_since_secs >= -1e-9,
            "time ran backwards"
        );
        let run_end = self.run_end();
        let dry_at = self.playing_since_secs + (run_end - self.position_at_since).as_secs_f64();
        if now_secs < dry_at {
            return;
        }
        if run_end >= self.buffer.media_end() {
            self.finished_secs = Some(dry_at);
            self.state = PlaybackState::Finished;
        } else {
            self.open_since = Some(dry_at);
            self.position_at_since = run_end;
            self.state = PlaybackState::Stalled;
        }
    }

    /// Ends the session at `now_secs`: advances the head one final time and
    /// closes any open stall so its duration counts.
    pub fn finish(&mut self, now_secs: f64) {
        self.advance(now_secs);
        self.close_stall(now_secs);
    }

    /// The QoE summary so far.
    pub fn metrics(&self) -> QoeMetrics {
        QoeMetrics {
            startup_secs: self.startup_secs,
            stall_count: self.stalls.len(),
            total_stall_secs: self.stalls.iter().map(StallEvent::duration_secs).sum(),
            finished_secs: self.finished_secs,
        }
    }

    /// The individual stall events recorded so far.
    pub fn stalls(&self) -> &[StallEvent] {
        &self.stalls
    }

    /// Moves the stall log out, leaving it empty: how a finished session
    /// hands its one copy to a report. Read [`Self::metrics`] first, which
    /// counts the stalls still held.
    pub fn take_stalls(&mut self) -> Vec<StallEvent> {
        std::mem::take(&mut self.stalls)
    }

    /// End of the held run under the play head's last fixed position.
    fn run_end(&self) -> MediaTicks {
        self.buffer.playable_until(self.position_at_since)
    }

    fn close_stall(&mut self, now_secs: f64) {
        if let Some(start_secs) = self.open_since.take() {
            self.stalls.push(StallEvent {
                start_secs,
                end_secs: now_secs,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splicecast_media::{ContentProfile, DurationSplicer, Splicer, Video};

    /// 20 s video in 4 s segments (5 segments), deterministic GOPs.
    fn playback() -> Playback {
        let v = Video::builder()
            .duration_secs(20.0)
            .profile(ContentProfile::Uniform { gop_secs: 1.0 })
            .seed(3)
            .build();
        Playback::new(DurationSplicer::new(4.0).splice(&v))
    }

    #[test]
    fn startup_waits_for_segment_zero() {
        let mut p = playback();
        assert_eq!(p.state(), PlaybackState::WaitingForStart);
        p.on_segment(2, 1.0); // out-of-order arrival does not start playback
        assert_eq!(p.state(), PlaybackState::WaitingForStart);
        p.on_segment(0, 3.0);
        assert_eq!(p.state(), PlaybackState::Playing);
        assert_eq!(p.metrics().startup_secs, Some(3.0));
    }

    #[test]
    fn smooth_playback_has_no_stalls() {
        let mut p = playback();
        for i in 0..5 {
            p.on_segment(i, i as f64);
        }
        p.finish(25.0);
        let m = p.metrics();
        assert_eq!(m.stall_count, 0);
        assert_eq!(m.total_stall_secs, 0.0);
        // Started at t=0, 20 s of media → finished at t=20.
        assert_eq!(m.finished_secs, Some(20.0));
        assert_eq!(p.state(), PlaybackState::Finished);
    }

    #[test]
    fn late_segment_causes_an_exact_stall() {
        let mut p = playback();
        p.on_segment(0, 0.0); // play starts at t=0, runs to media 4 s
        p.on_segment(1, 1.0); // runs to media 8 s
                              // Segment 2 arrives at t=11, but the head ran dry at t=8.
        p.on_segment(2, 11.0);
        assert_eq!(p.state(), PlaybackState::Playing);
        let stalls = p.stalls();
        assert_eq!(stalls.len(), 1);
        assert!((stalls[0].start_secs - 8.0).abs() < 1e-6, "{stalls:?}");
        assert!((stalls[0].end_secs - 11.0).abs() < 1e-6);
        // Finish the rest smoothly.
        p.on_segment(3, 12.0);
        p.on_segment(4, 13.0);
        p.finish(40.0);
        let m = p.metrics();
        assert_eq!(m.stall_count, 1);
        assert!((m.total_stall_secs - 3.0).abs() < 1e-6);
        // 20 s media + 3 s stall = finished at t=23.
        assert!((m.finished_secs.unwrap() - 23.0).abs() < 1e-6);
    }

    #[test]
    fn stall_detection_does_not_depend_on_advance_cadence() {
        // Same scenario, but advance() is called at odd times.
        let mut p = playback();
        p.on_segment(0, 0.0);
        p.advance(0.5);
        p.advance(3.9);
        p.on_segment(1, 1.0); // (delivered earlier in wall time than advance calls — fine)
        p.advance(10.0); // head dry since t=8
        assert_eq!(p.state(), PlaybackState::Stalled);
        p.on_segment(2, 11.0);
        assert_eq!(p.stalls()[0].start_secs, 8.0);
    }

    #[test]
    fn a_poll_just_before_the_dry_instant_does_not_stall() {
        // The buffered run ends at t=8; a poll 3 µs earlier is within
        // half a media tick of it, and still plays.
        let mut p = playback();
        p.on_segment(0, 0.0);
        p.on_segment(1, 1.0);
        p.advance(8.0 - 3e-6);
        assert_eq!(p.state(), PlaybackState::Playing);
        p.on_segment(2, 11.0);
        assert_eq!(
            p.stalls(),
            [StallEvent {
                start_secs: 8.0,
                end_secs: 11.0
            }]
        );
    }

    #[test]
    fn stalls_accumulate() {
        let mut p = playback();
        p.on_segment(0, 2.0); // plays media 0–4 s from t=2
        assert_eq!(p.metrics().startup_secs, Some(2.0));
        p.advance(7.0);
        assert_eq!(p.state(), PlaybackState::Stalled, "dry since t=6");
        p.on_segment(1, 8.5); // 2.5 s stall, then dry again at t=12.5
        assert_eq!(p.state(), PlaybackState::Playing);
        p.on_segment(2, 13.5); // 1 s stall
        p.on_segment(3, 13.5);
        p.on_segment(4, 13.5);
        p.advance(30.0);
        let m = p.metrics();
        assert_eq!(m.startup_secs, Some(2.0));
        assert_eq!(m.stall_count, 2);
        assert_eq!(m.total_stall_secs, 3.5);
        // 20 s of media + 3.5 s of stalls after a start at t=2.
        assert_eq!(m.finished_secs, Some(25.5));
    }

    /// `take_stalls` hands the log over whole and keeps no copy.
    #[test]
    fn take_stalls_moves_the_log() {
        let mut p = playback();
        p.on_segment(0, 2.0);
        p.on_segment(1, 8.5); // a 2.5 s stall from t=6
        p.finish(20.0); // and one from t=10.5 to the end
        let logged = p.stalls().to_vec();
        assert_eq!(logged.len(), 2);
        assert_eq!(p.take_stalls(), logged);
        assert!(p.stalls().is_empty());
        assert!(p.take_stalls().is_empty());
    }

    #[test]
    fn gap_in_buffer_stalls_even_with_later_segments() {
        let mut p = playback();
        p.on_segment(0, 0.0);
        p.on_segment(2, 0.5); // 1 missing
        p.on_segment(3, 0.5);
        p.on_segment(4, 0.5);
        p.advance(30.0);
        assert_eq!(p.state(), PlaybackState::Stalled);
        p.on_segment(1, 30.0);
        // Head stuck at media 4 s, dry since t=4.
        assert_eq!(p.stalls()[0].start_secs, 4.0);
        p.advance(46.0);
        assert_eq!(p.state(), PlaybackState::Finished);
        let m = p.metrics();
        assert_eq!(m.stall_count, 1);
        assert!((m.total_stall_secs - 26.0).abs() < 1e-6);
    }

    #[test]
    fn finish_truncates_open_stall() {
        let mut p = playback();
        p.on_segment(0, 0.0);
        p.finish(10.0);
        let m = p.metrics();
        assert_eq!(m.stall_count, 1);
        // Dry at t=4 (4 s of media), closed at t=10.
        assert!((m.total_stall_secs - 6.0).abs() < 1e-6);
        assert_eq!(m.finished_secs, None);
    }

    #[test]
    fn buffered_ahead_reports_t() {
        let mut p = playback();
        p.on_segment(0, 0.0);
        p.on_segment(1, 0.0);
        // At t=1 the head is at media 1 s with 8 s buffered → T = 7 s.
        let t = p.buffered_ahead(1.0);
        assert!((t.as_secs_f64() - 7.0).abs() < 1e-6);
        // Before startup T is zero.
        let mut fresh = playback();
        assert_eq!(fresh.buffered_ahead(5.0), MediaTicks::ZERO);
    }

    #[test]
    fn never_started_session_has_no_metrics() {
        let mut p = playback();
        p.finish(60.0);
        let m = p.metrics();
        assert_eq!(m.startup_secs, None);
        assert_eq!(m.stall_count, 0);
        assert_eq!(m.finished_secs, None);
    }
}
