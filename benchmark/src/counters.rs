//! Every read of the program's run results lives in this file: the
//! simulated end-to-end quantities, the per-layer counts, the digest, and
//! the per-run output checks. It is, with `traced.rs`, the benchmark's
//! widest dependency on program API, so a counter that moves or is renamed
//! is a one-file fix. `sched_wall_ns` and the modeled pre-diet accounting
//! are deliberately not read: both are slated for deletion.

use splicecast_core::RunResult;

use crate::json::Json;

/// Counts read from `SwarmMetrics`, all exact per seed, summed over the
/// runs of a pass. The first `METRIC_COUNTS` are per-layer metrics, by
/// their metric names.
pub const COUNT_NAMES: [&str; 19] = [
    "netsim.msgs_n",
    "netsim.flows_n",
    "netsim.flows_failed_n",
    "swarm.ctrl.bundles_n",
    "swarm.ctrl.suppressed_n",
    "swarm.ctrl.pumps_n",
    "swarm.sched.passes_n",
    "swarm.sched.skips_n",
    "swarm.sched.holder_adds_n",
    "swarm.sched.holder_removes_n",
    "swarm.dissem.windows_n",
    "swarm.dissem.catchups_n",
    "swarm.dissem.suppressed_n",
    "swarm.dissem.folds_n",
    "swarm.fault.evictions_n",
    "swarm.fault.bans_n",
    // The remaining three feed derived metrics (wire expansion, bytes per
    // peer) and the exact-equality checks; they are not metrics themselves.
    "wire_bytes",
    "payload_bytes",
    "mem_bytes",
];
pub const METRIC_COUNTS: usize = 16;

fn counts_of(result: &RunResult) -> [u64; COUNT_NAMES.len()] {
    let m = &result.metrics;
    let (ctrl, sched, dissem, fault) = (
        m.control_totals(),
        m.sched_totals(),
        m.dissem_totals(),
        m.fault_totals(),
    );
    [
        m.net.messages_sent,
        m.net.flows_started,
        m.net.flows_failed,
        ctrl.have_bundles_sent,
        ctrl.haves_suppressed,
        ctrl.pumps(),
        sched.passes,
        sched.skips,
        sched.holder_adds,
        sched.holder_removes,
        dissem.windows_sent,
        dissem.catchup_bundles,
        dissem.window_suppressed,
        dissem.fold_inserts,
        fault.silent_evictions,
        fault.backoff_bans,
        m.net.wire_bytes_sent,
        m.net.payload_bytes_delivered,
        m.mem_totals().total_bytes(),
    ]
}

/// The paper's Figure 2/3/4 quantities for one run or one grid point:
/// means over persistent viewers, in simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Qoe {
    pub stalls: f64,
    pub stall_secs: f64,
    pub startup_secs: f64,
}

impl Qoe {
    pub fn mean(items: &[Qoe]) -> Qoe {
        let n = items.len().max(1) as f64;
        Qoe {
            stalls: items.iter().map(|q| q.stalls).sum::<f64>() / n,
            stall_secs: items.iter().map(|q| q.stall_secs).sum::<f64>() / n,
            startup_secs: items.iter().map(|q| q.startup_secs).sum::<f64>() / n,
        }
    }
}

/// What one pass accumulates over its runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Persistent viewers (neither churned out nor crashed).
    pub viewers_attempted: u64,
    /// Persistent viewers that watched the whole clip.
    pub viewers_finished: u64,
    /// Runs that were cut off at `max_sim_secs`.
    pub capped_runs: u64,
    pub leechers: u64,
    /// Payload downloaded by finished viewers, and what they needed.
    finished_bytes: u64,
    needed_bytes: u64,
    pub counts: [u64; COUNT_NAMES.len()],
    /// FNV-1a-64 over every run's per-peer QoE fields, byte counts and
    /// `sim_end_secs`, in run order.
    pub digest: u64,
    /// Per-run QoE, in run order (the pass groups them by grid point).
    pub qoe: Vec<Qoe>,
    pub check_failures: Vec<String>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
}

impl Totals {
    pub fn new() -> Totals {
        Totals {
            digest: FNV_OFFSET,
            ..Totals::default()
        }
    }

    /// Folds one run in and applies the per-run output checks.
    pub fn add_run(&mut self, label: &str, result: &RunResult, n_leechers: usize, cap_secs: f64) {
        let m = &result.metrics;
        self.leechers += m.reports.len() as u64;
        if m.reports.len() != n_leechers {
            self.check_failures.push(format!(
                "{label}: {} reports for {n_leechers} leechers",
                m.reports.len()
            ));
        }
        if m.sim_end_secs >= cap_secs {
            // Cut off with flows still in flight: nothing to reconcile.
            self.capped_runs += 1;
        } else if m.net.flows_started != m.net.flows_completed + m.net.flows_failed {
            self.check_failures.push(format!(
                "{label}: {} flows started but {} completed + {} failed",
                m.net.flows_started, m.net.flows_completed, m.net.flows_failed
            ));
        }
        for r in m.watching() {
            self.viewers_attempted += 1;
            if r.finished {
                self.viewers_finished += 1;
                self.finished_bytes += r.bytes_downloaded;
                self.needed_bytes += result.total_transfer_bytes;
                if r.bytes_downloaded < result.total_transfer_bytes {
                    self.check_failures.push(format!(
                        "{label}: viewer {} finished on {} of {} bytes",
                        r.peer, r.bytes_downloaded, result.total_transfer_bytes
                    ));
                }
            }
        }
        for (total, count) in self.counts.iter_mut().zip(counts_of(result)) {
            *total += count;
        }
        self.qoe.push(Qoe {
            stalls: m.mean_stalls(),
            stall_secs: m.mean_stall_secs(),
            startup_secs: m.mean_startup_secs(),
        });

        let d = &mut self.digest;
        for r in &m.reports {
            fnv(d, r.peer as u64);
            fnv(d, r.qoe.startup_secs.map_or(u64::MAX, f64::to_bits));
            fnv(d, r.qoe.stall_count as u64);
            fnv(d, r.qoe.total_stall_secs.to_bits());
            fnv(d, r.qoe.finished_secs.map_or(u64::MAX, f64::to_bits));
            fnv(d, r.bytes_downloaded);
            fnv(d, r.bytes_uploaded);
            fnv(d, r.segments_from_seeder as u64);
            fnv(d, r.segments_from_peers as u64);
            fnv(d, r.segments_from_cdn as u64);
            fnv(d, u64::from(r.finished) | u64::from(r.departed) << 1);
        }
        fnv(d, m.sim_end_secs.to_bits());
    }

    pub fn viewers_failed(&self) -> u64 {
        self.viewers_attempted - self.viewers_finished
    }

    pub fn count(&self, name: &str) -> u64 {
        let i = COUNT_NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("no count named {name}"));
        self.counts[i]
    }

    /// Wire bytes per payload byte delivered.
    pub fn wire_expansion(&self) -> f64 {
        self.count("wire_bytes") as f64 / (self.count("payload_bytes") as f64).max(1.0)
    }

    /// Mean accounted bytes of swarm state per leecher.
    pub fn mem_bytes_per_peer(&self) -> f64 {
        self.count("mem_bytes") as f64 / (self.leechers as f64).max(1.0)
    }

    /// Payload downloaded by finished viewers over what they needed, − 1:
    /// the share of their download that was duplicate.
    pub fn dup_bytes_frac(&self) -> f64 {
        self.finished_bytes as f64 / (self.needed_bytes as f64).max(1.0) - 1.0
    }

    /// Everything the parent needs from a child, as one JSON object.
    pub fn to_json(&self) -> Json {
        let mut counts = Json::obj();
        for (name, value) in COUNT_NAMES.iter().zip(self.counts) {
            counts.set(name, value);
        }
        let qoe = Qoe::mean(&self.qoe);
        let mut out = Json::obj();
        out.set("viewers_attempted", self.viewers_attempted)
            .set("viewers_finished", self.viewers_finished)
            .set("viewers_failed", self.viewers_failed())
            .set("capped_runs", self.capped_runs)
            .set("stalls_per_viewer", qoe.stalls)
            .set("stall_s_per_viewer", qoe.stall_secs)
            .set("startup_s", qoe.startup_secs)
            .set("sim_digest", format!("{:016x}", self.digest))
            .set("counts", counts)
            .set("netsim.wire_expansion", self.wire_expansion())
            .set("swarm.mem.bytes_per_peer", self.mem_bytes_per_peer())
            .set("swarm.dup_bytes_frac", self.dup_bytes_frac())
            .set("check_failures", self.check_failures.clone());
        out
    }
}
