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

    struct Chatter {
        peers: Vec<NodeId>,
    }
    impl NodeBehavior for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, &peer) in self.peers.clone().iter().enumerate() {
                let _ = ctx.send(peer, Bytes::from(vec![i as u8; 100]));
                let _ = ctx.start_transfer(peer, 50_000, i as u64);
            }
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
    }

    fn run(seed: u64) -> Trace {
        let spec = LinkSpec::from_bytes_per_sec(100_000.0, SimDuration::from_millis(20), 0.05);
        let star = star(&[spec; 4]);
        let mut sim = Simulator::new(star.network, seed);
        sim.enable_trace();
        sim.add_node(Box::new(NullBehavior));
        sim.add_node(Box::new(Chatter {
            peers: star.leaves[1..].to_vec(),
        }));
        for _ in 1..4 {
            sim.add_node(Box::new(NullBehavior));
        }
        sim.run_until_idle(SimTime::from_secs_f64(120.0));
        sim.take_trace()
    }

    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}
