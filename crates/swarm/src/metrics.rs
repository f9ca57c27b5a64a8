//! Swarm-level metric collection.

use std::cell::RefCell;
use std::rc::Rc;

use splicecast_player::{QoeMetrics, StallEvent};

/// Control-plane traffic counters for one leecher: how segment
/// availability was disseminated and how often the maintenance pump ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlPlaneStats {
    /// Individual `Have` messages sent (a plane that does not bundle Haves).
    pub haves_sent: u64,
    /// Per-peer availability announcements skipped because the peer's
    /// view already showed every announced segment or the peer never
    /// completed a handshake.
    pub haves_suppressed: u64,
    /// `HaveBundle` messages sent (a plane that bundles Haves).
    pub have_bundles_sent: u64,
    /// Announcements carried inside bundles (indices × receiving peers).
    pub haves_coalesced: u64,
    /// Pump fires triggered by a due deadline (flush, request timeout,
    /// tracker re-announce).
    pub pumps_armed: u64,
    /// Pump fires from the fallback heartbeat with nothing due.
    pub pumps_heartbeat: u64,
}

impl ControlPlaneStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &ControlPlaneStats) {
        self.haves_sent += other.haves_sent;
        self.haves_suppressed += other.haves_suppressed;
        self.have_bundles_sent += other.have_bundles_sent;
        self.haves_coalesced += other.haves_coalesced;
        self.pumps_armed += other.pumps_armed;
        self.pumps_heartbeat += other.pumps_heartbeat;
    }

    /// Mean number of indices per sent bundle (0 when none were sent).
    pub fn mean_bundle_size(&self) -> f64 {
        if self.have_bundles_sent == 0 {
            0.0
        } else {
            self.haves_coalesced as f64 / self.have_bundles_sent as f64
        }
    }

    /// Total pump fires, armed and heartbeat alike.
    pub fn pumps(&self) -> u64 {
        self.pumps_armed + self.pumps_heartbeat
    }
}

/// Scheduler-efficiency counters for one leecher: how often the download
/// scheduler actually ran versus proved itself unnecessary, and where the
/// passes that ran stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Scheduling passes that ran (walked the wanted segments).
    pub passes: u64,
    /// Scheduling passes skipped because nothing changed since a previous
    /// pass proved no request could be issued (dirty-flag scheduling).
    pub skips: u64,
    /// Always 0: no leecher keeps a per-segment holder index any more.
    /// Kept only because the benchmark's `swarm.sched.holder_adds_n`
    /// reads it.
    pub holder_adds: u64,
    /// Always 0, kept for the benchmark's `swarm.sched.holder_removes_n`.
    pub holder_removes: u64,
    /// Passes that stopped at the pool-size cap.
    pub full_pool: u64,
    /// Passes that stopped on a wanted segment with no eligible source.
    pub no_source: u64,
    /// Passes that found every segment held or in flight.
    pub exhausted: u64,
}

impl SchedulerStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &SchedulerStats) {
        self.passes += other.passes;
        self.skips += other.skips;
        self.holder_adds += other.holder_adds;
        self.holder_removes += other.holder_removes;
        self.full_pool += other.full_pool;
        self.no_source += other.no_source;
        self.exhausted += other.exhausted;
    }
}

/// Retired availability-dissemination counters: every field is always 0
/// and stays only because `benchmark/src/counters.rs` reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DisseminationStats {
    /// Always 0: the sender-side window protocol is gone. Kept because
    /// `benchmark/src/counters.rs` reads the field.
    pub windows_sent: u64,
    /// Always 0, kept for the same reader.
    pub catchup_bundles: u64,
    /// Always 0, kept for the same reader.
    pub window_suppressed: u64,
    /// Always 0: no leecher folds announcements into a holder index any
    /// more. Kept for the benchmark's `swarm.dissem.folds_n`.
    pub fold_inserts: u64,
}

/// Memory-footprint accounting for one leecher, sampled when its report is
/// written: allocator-visible bytes behind the peer's swarm state.
/// Deterministic for a given (segments, config, seed) — capacities follow
/// the deterministic insert/remove sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerMemStats {
    /// Bytes behind the neighbour-view columns: every slot they
    /// allocated (one per node id, occupied or not) of the three flag
    /// bitsets and the holdings rows.
    pub view_bytes: u64,
    /// Live peer views at sample time.
    pub views: u64,
    /// Bytes behind auxiliary per-peer state that is empty in the common
    /// case: timeout bans, source-health tracking.
    pub aux_bytes: u64,
}

impl PeerMemStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &PeerMemStats) {
        self.view_bytes += other.view_bytes;
        self.views += other.views;
        self.aux_bytes += other.aux_bytes;
    }

    /// Total measured bytes (views + auxiliary state).
    pub fn total_bytes(&self) -> u64 {
        self.view_bytes + self.aux_bytes
    }
}

/// Fault and defense counters for one leecher: what the fault plane did to
/// it and what its defenses did about it. All counters so totals sum
/// naturally across peers and runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerFaultStats {
    /// 1 when this peer crash-stopped (vanished without a Goodbye).
    pub crashes: u64,
    /// Always zero: no leecher evicts a neighbour for silence (a crash
    /// surfaces as a failed send, transfer or online probe). Kept only
    /// because the benchmark's `swarm.fault.evictions_n` reads it.
    pub silent_evictions: u64,
    /// Exponential-backoff ban windows opened against failing sources.
    pub backoff_bans: u64,
}

impl PeerFaultStats {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &PeerFaultStats) {
        self.crashes += other.crashes;
        self.silent_evictions += other.silent_evictions;
        self.backoff_bans += other.backoff_bans;
    }
}

/// Final accounting for one leecher.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeerReport {
    /// Leecher index (0-based, excluding the seeder).
    pub peer: usize,
    /// Startup / stall / completion summary.
    pub qoe: QoeMetrics,
    /// The individual stall events.
    pub stalls: Vec<StallEvent>,
    /// Payload bytes received over completed transfers.
    pub bytes_downloaded: u64,
    /// Payload bytes sent over completed uploads.
    pub bytes_uploaded: u64,
    /// Segments obtained from the seeder.
    pub segments_from_seeder: usize,
    /// Segments obtained from other leechers.
    pub segments_from_peers: usize,
    /// Segments obtained from the CDN (hybrid mode).
    pub segments_from_cdn: usize,
    /// Whether the peer finished watching the whole video.
    pub finished: bool,
    /// Whether the peer churned out before finishing.
    pub departed: bool,
    /// Control-plane traffic this peer generated.
    pub control: ControlPlaneStats,
    /// Scheduler-efficiency counters for this peer.
    pub sched: SchedulerStats,
    /// Fault and defense counters for this peer.
    pub fault: PeerFaultStats,
    /// Memory-footprint accounting for this peer.
    pub mem: PeerMemStats,
}

/// Shared sink the leechers report into. Single-threaded by design: one
/// simulation runs on one thread (experiment sweeps parallelise across
/// whole simulations).
pub type MetricsSink = Rc<RefCell<Vec<PeerReport>>>;

/// Results of one swarm run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SwarmMetrics {
    /// Per-leecher reports, ordered by peer index.
    pub reports: Vec<PeerReport>,
    /// Simulated time at which the run ended, in seconds.
    pub sim_end_secs: f64,
    /// Network-level traffic counters for the whole run.
    pub net: splicecast_netsim::SimStats,
    /// Counters of faults the simulator injected (message drops/delays,
    /// outage windows). All zero when no fault plan is configured.
    pub injected: splicecast_netsim::InjectedFaults,
}

impl SwarmMetrics {
    /// Reports of peers that stayed for the whole run (the paper measures
    /// viewers, not churners).
    pub fn watching(&self) -> impl Iterator<Item = &PeerReport> {
        self.reports.iter().filter(|r| !r.departed)
    }

    /// Mean number of stalls per watching peer.
    pub fn mean_stalls(&self) -> f64 {
        mean(self.watching().map(|r| r.qoe.stall_count as f64))
    }

    /// Mean total stall duration per watching peer, seconds.
    pub fn mean_stall_secs(&self) -> f64 {
        mean(self.watching().map(|r| r.qoe.total_stall_secs))
    }

    /// Mean startup time over watching peers that started, seconds.
    pub fn mean_startup_secs(&self) -> f64 {
        mean(self.watching().filter_map(|r| r.qoe.startup_secs))
    }

    /// Fraction of watching peers that finished the video.
    pub fn completion_rate(&self) -> f64 {
        mean(self.watching().map(|r| if r.finished { 1.0 } else { 0.0 }))
    }

    /// Wire bytes per payload byte delivered — protocol-plus-loss expense
    /// of moving the stream (1.0 would be a perfect lossless unicast).
    pub fn wire_expansion(&self) -> f64 {
        if self.net.payload_bytes_delivered == 0 {
            0.0
        } else {
            self.net.wire_bytes_sent as f64 / self.net.payload_bytes_delivered as f64
        }
    }

    /// Summed control-plane counters over every report (churners
    /// included: their control traffic was real).
    pub fn control_totals(&self) -> ControlPlaneStats {
        let mut total = ControlPlaneStats::default();
        for report in &self.reports {
            total.absorb(&report.control);
        }
        total
    }

    /// Summed scheduler counters over every report.
    pub fn sched_totals(&self) -> SchedulerStats {
        let mut total = SchedulerStats::default();
        for report in &self.reports {
            total.absorb(&report.sched);
        }
        total
    }

    /// The retired dissemination counters: all 0.
    pub fn dissem_totals(&self) -> DisseminationStats {
        DisseminationStats::default()
    }

    /// Summed fault and defense counters over every report.
    pub fn fault_totals(&self) -> PeerFaultStats {
        let mut total = PeerFaultStats::default();
        for report in &self.reports {
            total.absorb(&report.fault);
        }
        total
    }

    /// Summed memory accounting over every report.
    pub fn mem_totals(&self) -> PeerMemStats {
        let mut total = PeerMemStats::default();
        for report in &self.reports {
            total.absorb(&report.mem);
        }
        total
    }

    /// Persistent peers (neither churned nor crashed) that never finished
    /// the video — the peers a healthy swarm must not leave behind.
    pub fn stuck_peers(&self) -> impl Iterator<Item = &PeerReport> {
        self.reports.iter().filter(|r| !r.departed && !r.finished)
    }

    /// Human-readable diagnosis of stuck persistent peers, one line each:
    /// which peer, how far it got, and what its defenses saw. Empty string
    /// when nobody is stuck.
    pub fn stuck_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for r in self.stuck_peers() {
            let _ = writeln!(
                out,
                "peer {}: {} segments ({} seeder / {} peers / {} cdn), \
                 {} stalls, backoff bans {}",
                r.peer,
                r.segments_from_seeder + r.segments_from_peers + r.segments_from_cdn,
                r.segments_from_seeder,
                r.segments_from_peers,
                r.segments_from_cdn,
                r.qoe.stall_count,
                r.fault.backoff_bans,
            );
        }
        out
    }

    /// Fraction of segment deliveries that came from other leechers rather
    /// than the seeder or CDN (peer offload).
    pub fn peer_offload_ratio(&self) -> f64 {
        let from_peers: usize = self.reports.iter().map(|r| r.segments_from_peers).sum();
        let total: usize = self
            .reports
            .iter()
            .map(|r| r.segments_from_peers + r.segments_from_seeder + r.segments_from_cdn)
            .sum();
        if total == 0 {
            0.0
        } else {
            from_peers as f64 / total as f64
        }
    }
}

/// The mean of `values`; 0 when there are none.
pub(crate) fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(peer: usize, stalls: usize, stall_secs: f64, departed: bool) -> PeerReport {
        PeerReport {
            peer,
            qoe: QoeMetrics {
                startup_secs: Some(peer as f64),
                stall_count: stalls,
                total_stall_secs: stall_secs,
                finished_secs: (!departed).then_some(100.0),
            },
            finished: !departed,
            departed,
            segments_from_peers: 3,
            segments_from_seeder: 1,
            ..PeerReport::default()
        }
    }

    #[test]
    fn aggregates_exclude_departed_peers() {
        let m = SwarmMetrics {
            reports: vec![
                report(0, 2, 4.0, false),
                report(1, 4, 8.0, false),
                report(2, 100, 100.0, true),
            ],
            sim_end_secs: 200.0,
            net: Default::default(),
            injected: Default::default(),
        };
        assert_eq!(m.watching().count(), 2);
        assert!((m.mean_stalls() - 3.0).abs() < 1e-9);
        assert!((m.mean_stall_secs() - 6.0).abs() < 1e-9);
        assert!((m.mean_startup_secs() - 0.5).abs() < 1e-9);
        assert_eq!(m.completion_rate(), 1.0);
    }

    #[test]
    fn offload_counts_all_reports() {
        let m = SwarmMetrics {
            reports: vec![report(0, 0, 0.0, false), report(1, 0, 0.0, false)],
            sim_end_secs: 1.0,
            net: Default::default(),
            injected: Default::default(),
        };
        assert!((m.peer_offload_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = SwarmMetrics::default();
        assert_eq!(m.mean_stalls(), 0.0);
        assert_eq!(m.mean_startup_secs(), 0.0);
        assert_eq!(m.peer_offload_ratio(), 0.0);
        assert_eq!(m.completion_rate(), 0.0);
        assert_eq!(m.wire_expansion(), 0.0);
    }

    #[test]
    fn control_totals_sum_over_all_reports() {
        let mut a = report(0, 0, 0.0, false);
        a.control.haves_sent = 5;
        a.control.have_bundles_sent = 2;
        a.control.haves_coalesced = 6;
        let mut b = report(1, 0, 0.0, true); // churners count too
        b.control.haves_sent = 3;
        b.control.pumps_heartbeat = 4;
        let m = SwarmMetrics {
            reports: vec![a, b],
            sim_end_secs: 1.0,
            net: Default::default(),
            injected: Default::default(),
        };
        let total = m.control_totals();
        assert_eq!(total.haves_sent, 8);
        assert_eq!(total.have_bundles_sent, 2);
        assert_eq!(total.pumps(), 4);
        assert!((total.mean_bundle_size() - 3.0).abs() < 1e-12);
        assert_eq!(ControlPlaneStats::default().mean_bundle_size(), 0.0);
    }

    #[test]
    fn sched_totals_sum_over_all_reports() {
        let mut a = report(0, 0, 0.0, false);
        a.sched.passes = 10;
        a.sched.skips = 90;
        let mut b = report(1, 0, 0.0, true);
        b.sched.passes = 5;
        let m = SwarmMetrics {
            reports: vec![a, b],
            sim_end_secs: 1.0,
            net: Default::default(),
            injected: Default::default(),
        };
        let total = m.sched_totals();
        assert_eq!(total.passes, 15);
        assert_eq!(total.skips, 90);
    }

    #[test]
    fn mem_totals_sum_over_all_reports() {
        let mut a = report(0, 0, 0.0, false);
        a.mem.view_bytes = 400;
        a.mem.views = 10;
        let mut b = report(1, 0, 0.0, true); // churners count too
        b.mem.view_bytes = 200;
        b.mem.aux_bytes = 50;
        let m = SwarmMetrics {
            reports: vec![a, b],
            sim_end_secs: 1.0,
            net: Default::default(),
            injected: Default::default(),
        };
        let total = m.mem_totals();
        assert_eq!(total.view_bytes, 600);
        assert_eq!(total.views, 10);
        assert_eq!(total.aux_bytes, 50);
        assert_eq!(total.total_bytes(), 650);
    }

    #[test]
    fn fault_totals_sum_over_all_reports() {
        let mut a = report(0, 0, 0.0, false);
        a.fault.backoff_bans = 2;
        let mut b = report(1, 0, 0.0, true);
        b.fault.crashes = 1;
        b.fault.backoff_bans = 3;
        let m = SwarmMetrics {
            reports: vec![a, b],
            sim_end_secs: 1.0,
            net: Default::default(),
            injected: Default::default(),
        };
        let total = m.fault_totals();
        assert_eq!(total.crashes, 1);
        assert_eq!(total.backoff_bans, 5);
    }

    #[test]
    fn stuck_report_names_unfinished_persistent_peers() {
        let healthy = report(0, 0, 0.0, false);
        let churned = report(1, 0, 0.0, true);
        let mut stuck = report(2, 5, 0.0, false);
        stuck.finished = false;
        stuck.fault.backoff_bans = 4;
        let m = SwarmMetrics {
            reports: vec![healthy, churned, stuck],
            sim_end_secs: 1.0,
            net: Default::default(),
            injected: Default::default(),
        };
        assert_eq!(m.stuck_peers().count(), 1);
        let diag = m.stuck_report();
        assert!(diag.contains("peer 2"), "{diag}");
        assert!(diag.contains("backoff bans 4"), "{diag}");
        assert!(!diag.contains("peer 0"), "{diag}");
        assert!(!diag.contains("peer 1"), "{diag}");
        // A healthy swarm diagnoses nothing.
        let all_done = SwarmMetrics {
            reports: vec![report(0, 0, 0.0, false)],
            sim_end_secs: 1.0,
            net: Default::default(),
            injected: Default::default(),
        };
        assert!(all_done.stuck_report().is_empty());
    }

    #[test]
    fn wire_expansion_ratio() {
        let mut m = SwarmMetrics::default();
        m.net.payload_bytes_delivered = 1_000;
        m.net.wire_bytes_sent = 1_250;
        assert!((m.wire_expansion() - 1.25).abs() < 1e-12);
    }
}
