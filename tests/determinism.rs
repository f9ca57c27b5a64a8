//! Reproducibility: identical seeds give bit-identical results across the
//! whole stack, different seeds diverge.

use splicecast_core::{run_averaged, run_once, ExperimentConfig, SplicingSpec, VideoSpec};
use splicecast_swarm::{ChurnConfig, EstimatorKind, PolicyConfig};

fn config(variant: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(384_000.0)
        .with_leechers(4);
    config.video = VideoSpec {
        duration_secs: 20.0,
    };
    config.swarm.max_sim_secs = 400.0;
    match variant {
        0 => {}
        1 => {
            config.splicing = SplicingSpec::Gop;
            config.swarm.policy = PolicyConfig::Fixed(4);
        }
        2 => {
            config.swarm.churn = Some(ChurnConfig::new(0.5, 15.0));
            config.swarm.estimator = EstimatorKind::Ewma { alpha: 0.3 };
        }
        _ => {
            config.swarm.cdn = Some(splicecast_swarm::CdnConfig::default());
        }
    }
    config
}

#[test]
fn same_seed_same_everything() {
    for variant in 0..4 {
        let cfg = config(variant);
        let a = run_once(&cfg, 99);
        let b = run_once(&cfg, 99);
        assert_eq!(a, b, "variant {variant} diverged under an identical seed");
    }
}

#[test]
fn different_seeds_diverge() {
    let cfg = config(0);
    let a = run_once(&cfg, 1);
    let b = run_once(&cfg, 2);
    assert_ne!(a.metrics, b.metrics);
}

#[test]
fn averaging_is_order_independent_and_stable() {
    let cfg = config(0);
    let forward = run_averaged(&cfg, &[1, 2, 3]);
    let again = run_averaged(&cfg, &[1, 2, 3]);
    assert_eq!(forward, again);
}

#[test]
fn netsim_traces_are_reproducible() {
    use bytes::Bytes;
    use splicecast_netsim::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<(NodeId, &'static str, SimTime, u64)>>>;

    /// Messages and starts a transfer to each of `peers`, and logs every
    /// event it is handed as (node, kind, time, bytes).
    struct Chatter {
        peers: Vec<NodeId>,
        log: Log,
    }
    impl NodeBehavior for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, &peer) in self.peers.iter().enumerate() {
                let _ = ctx.send(peer, Bytes::from(vec![i as u8; 100]));
                let _ = ctx.start_transfer(peer, 50_000, i as u64);
            }
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            let (kind, bytes) = match event {
                NodeEvent::Message { payload, .. } => ("message", payload.len() as u64),
                NodeEvent::TransferComplete { bytes, .. } => ("received", bytes),
                NodeEvent::UploadComplete { .. } => ("acked", 0),
                NodeEvent::TransferFailed { delivered, .. } => ("failed", delivered),
                _ => ("other", 0),
            };
            self.log
                .borrow_mut()
                .push((ctx.me(), kind, ctx.now(), bytes));
        }
    }

    fn run(seed: u64) -> Vec<(NodeId, &'static str, SimTime, u64)> {
        let spec = LinkSpec::from_bytes_per_sec(100_000.0, SimDuration::from_millis(20), 0.05);
        let star = star(&[spec; 4]);
        let log = Log::default();
        let mut sim = Simulator::new(star.network, seed);
        sim.add_node(Box::new(NullBehavior));
        let mut peers = star.leaves[1..].to_vec();
        for _ in &star.leaves {
            let log = log.clone();
            sim.add_node(Box::new(Chatter { peers, log }));
            peers = Vec::new();
        }
        sim.run_until_idle(SimTime::from_secs_f64(120.0));
        let log = log.borrow().clone();
        // Three messages and three transfers, each heard at both ends.
        assert_eq!(log.len(), 9, "{log:?}");
        log
    }

    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}
