//! `fig_scale`: wall-clock scaling of the two network flow models.
//!
//! A swarm-shaped transfer workload — senders fanning segment-sized chunks
//! out to several receivers over paper-parameter access links (128 kB/s,
//! 50 ms peer-to-peer latency, ~5 % end-to-end loss) — pushed to 100, 250,
//! and 500 leechers under both flow models. The per-RTT round model
//! schedules one event per flow per RTT, so its cost grows with simulated
//! transfer-seconds; the fluid model recomputes max–min fair rates only
//! when the flow set changes, so its event count is O(transfers). The gap
//! between `scale/rounds/N` and `scale/fluid/N` is what makes 500+-leecher
//! experiments feasible, and `BENCH_scale.json` gates it at ≥10× for 250
//! leechers and up.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use splicecast_netsim::{
    star, Ctx, FlowModel, FluidSolverStats, LinkSpec, NodeBehavior, NodeEvent, NodeId,
    NullBehavior, SimDuration, SimStats, SimTime, Simulator, TcpConfig,
};

/// Receivers per sender: each sender's uplink is shared `FAN_OUT` ways,
/// like a seeder or peer serving several upload slots.
const FAN_OUT: usize = 5;
/// One "segment" worth of bulk data per transfer. Sized so that each
/// receiver streams roughly a 2-minute VoD session's worth of video and
/// the round model's per-RTT event count dominates the wall clock.
const CHUNK_BYTES: u64 = 8_000_000;
/// Further chunks each receiver gets after its first.
const EXTRA_CHUNKS: u32 = 2;

/// Streams chunks to each of its receivers: sequentially per receiver,
/// concurrently across receivers (the upload-slot pattern of the swarm).
struct FanSender {
    receivers: Vec<NodeId>,
    remaining: Vec<u32>,
}

impl NodeBehavior for FanSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, &to) in self.receivers.iter().enumerate() {
            ctx.start_transfer(to, CHUNK_BYTES, i as u64)
                .expect("start transfer");
        }
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        if let NodeEvent::UploadComplete { to, tag, .. } = event {
            let i = tag as usize;
            if self.remaining[i] > 0 {
                self.remaining[i] -= 1;
                ctx.start_transfer(to, CHUNK_BYTES, tag)
                    .expect("next chunk");
            }
        }
    }
}

fn run_scale(n_leechers: usize, model: FlowModel) -> (SimStats, FluidSolverStats) {
    let senders = n_leechers.div_ceil(FAN_OUT);
    let spec = LinkSpec::from_bytes_per_sec(128_000.0, SimDuration::from_millis(25), 0.025);
    let s = star(&vec![spec; senders + n_leechers]);
    let mut sim = Simulator::new(s.network, 2015);
    sim.set_tcp_config(TcpConfig {
        flow_model: model,
        ..TcpConfig::default()
    });
    sim.add_node(Box::new(NullBehavior)); // the hub
    for i in 0..senders {
        let receivers: Vec<NodeId> = (0..FAN_OUT)
            .map(|j| i * FAN_OUT + j)
            .filter(|&r| r < n_leechers)
            .map(|r| s.leaves[senders + r])
            .collect();
        let n = receivers.len();
        sim.add_node(Box::new(FanSender {
            receivers,
            remaining: vec![EXTRA_CHUNKS; n],
        }));
    }
    for _ in 0..n_leechers {
        sim.add_node(Box::new(NullBehavior));
    }
    sim.run_until_idle(SimTime::from_secs_f64(3_600.0));
    let stats = sim.stats();
    assert_eq!(
        stats.flows_completed,
        n_leechers as u64 * (EXTRA_CHUNKS as u64 + 1),
        "every chunk must be delivered within the deadline"
    );
    (stats, sim.fluid_stats())
}

fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    for &n in &[100usize, 250, 500] {
        let rounds = format!("rounds/{n}");
        group.bench_function(&rounds, |b| {
            b.iter(|| black_box(run_scale(black_box(n), FlowModel::Rounds)))
        });
        let fluid = format!("fluid/{n}");
        group.bench_function(&fluid, |b| {
            b.iter(|| black_box(run_scale(black_box(n), FlowModel::Fluid)))
        });
    }
    group.finish();

    // How local the fluid solver's work was: per rebalance, the flows whose
    // ceilings were re-evaluated and whose completion was rescheduled, and
    // the water-level steps per tight component filled.
    if std::env::args().any(|a| a == "--bench") {
        for &n in &[100usize, 250, 500] {
            let (stats, solver) = run_scale(n, FlowModel::Fluid);
            let per_rebalance = |count: u64| count as f64 / solver.rebalances as f64;
            println!(
                "info: scale/fluid/{n} flows {} rebalances {} per rebalance: dirty links {:.1} \
                 flows reseeded {:.1} rescheduled {:.2} components filled {:.2}; \
                 iterations per fill {:.1}",
                stats.flows_started,
                solver.rebalances,
                per_rebalance(solver.dirty_links),
                per_rebalance(solver.flows_reseeded),
                per_rebalance(solver.flows_rescheduled),
                per_rebalance(solver.components_filled),
                solver.fill_iterations as f64 / solver.components_filled.max(1) as f64,
            );
        }
    }
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
