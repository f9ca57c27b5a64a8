//! Criterion micro-benchmarks of the substrate itself: splicing speed,
//! protocol codec throughput, distribution sampling, and a full small
//! swarm simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;
use splicecast_core::{run_once, ExperimentConfig, SplicingSpec, VideoSpec};
use splicecast_media::{DurationSplicer, GopSplicer, Splicer, Video};
use splicecast_netsim::{
    star, Ctx, LinkSpec, NodeBehavior, NodeEvent, NodeId, NullBehavior, SimDuration, SimTime,
    Simulator,
};
use splicecast_protocol::{encode_to_bytes, Bitfield, Decoder, Message};
use std::rc::Rc;

fn bench_splicers(c: &mut Criterion) {
    let video = Video::builder().seed(1).build();
    c.bench_function("splice/gop/2min", |b| {
        b.iter(|| GopSplicer.splice(black_box(&video)))
    });
    c.bench_function("splice/4s/2min", |b| {
        b.iter(|| DurationSplicer::new(4.0).splice(black_box(&video)))
    });
    c.bench_function("encode/2min-video", |b| {
        b.iter(|| Video::builder().seed(black_box(1)).build())
    });
}

fn bench_codec(c: &mut Criterion) {
    let mut held = Bitfield::new(1024);
    for i in (0..1024).step_by(3) {
        held.set(i);
    }
    let messages = vec![
        Message::Handshake {
            peer_id: 7,
            info_hash: [9; 20],
            version: 1,
        },
        Message::Bitfield(held),
        Message::Request { index: 42 },
        Message::SegmentHeader {
            index: 42,
            bytes: 512_000,
        },
        Message::Have { index: 42 },
    ];
    let wire: Vec<u8> = messages
        .iter()
        .flat_map(|m| encode_to_bytes(m).to_vec())
        .collect();
    c.bench_function("codec/encode-5-messages", |b| {
        b.iter(|| {
            for m in &messages {
                black_box(encode_to_bytes(black_box(m)));
            }
        })
    });
    c.bench_function("codec/decode-5-messages", |b| {
        b.iter(|| {
            let mut dec = Decoder::new();
            dec.feed(black_box(&wire));
            while let Ok(Some(m)) = dec.poll() {
                black_box(m);
            }
        })
    });
}

fn bench_sampling(c: &mut Criterion) {
    c.bench_function("rng/binomial-small-n", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| splicecast_netsim::rng::binomial(&mut rng, black_box(20), black_box(0.05)))
    });
    c.bench_function("rng/binomial-large-n", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| splicecast_netsim::rng::binomial(&mut rng, black_box(10_000), black_box(0.05)))
    });
}

fn bench_swarm(c: &mut Criterion) {
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(512_000.0)
        .with_splicing(SplicingSpec::Duration(4.0))
        .with_leechers(5);
    config.video = VideoSpec {
        duration_secs: 24.0,
        ..VideoSpec::default()
    };
    config.swarm.max_sim_secs = 600.0;
    let mut group = c.benchmark_group("swarm");
    group.sample_size(10);
    group.bench_function("5-peers-24s-video", |b| {
        b.iter(|| run_once(black_box(&config), black_box(1)))
    });
    group.finish();
}

/// A sender that keeps a star busy: transfers `bytes` to `to`, then starts
/// the next transfer as soon as the upload completes, `repeats` times.
struct RepeatSender {
    to: NodeId,
    bytes: u64,
    remaining: u32,
}

impl NodeBehavior for RepeatSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.start_transfer(self.to, self.bytes, 0)
            .expect("start transfer");
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        if let NodeEvent::UploadComplete { .. } = event {
            // Exercise the per-node flow index the way the swarm layer does.
            black_box(ctx.active_transfer_count());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.start_transfer(self.to, self.bytes, 0)
                    .expect("restart transfer");
            }
        }
    }
}

/// Sends one small message to every other leaf at start, then only
/// receives.
struct Broadcaster {
    me: NodeId,
    leaves: Rc<[NodeId]>,
}

impl NodeBehavior for Broadcaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let payload = bytes::Bytes::from_static(&[0; 16]);
        for &to in self.leaves.iter().filter(|&&to| to != self.me) {
            ctx.send(to, payload.clone()).expect("send");
        }
    }
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: NodeEvent) {
        black_box(event);
    }
}

fn bench_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    group.sample_size(10);

    // The TCP flow-advance hot path: 8 concurrent lossy flows stepping
    // round after round through the flow table.
    group.bench_function("flow-advance", |b| {
        b.iter(|| {
            let spec =
                LinkSpec::from_bytes_per_sec(1_000_000.0, SimDuration::from_millis(10), 0.02);
            let s = star(&vec![spec; 16]);
            let mut sim = Simulator::new(s.network, black_box(11));
            sim.add_node(Box::new(NullBehavior)); // the hub
            for pair in 0..8 {
                let to = s.leaves[pair * 2 + 1];
                sim.add_node(Box::new(RepeatSender {
                    to,
                    bytes: 512_000,
                    remaining: 4,
                }));
                sim.add_node(Box::new(NullBehavior));
            }
            sim.run_until_idle(SimTime::from_secs_f64(600.0));
            black_box(sim.stats())
        })
    });

    // The control-message hot path with no swarm on it: every leaf of a
    // 250-leaf star messages every other leaf once (62 250 messages over
    // as many ordered pairs), run to idle — route lookup, FIFO clamp,
    // queue push, pop and dispatch, nothing else. A lookup keyed by node
    // pair on this path shows up here first.
    group.bench_function("mesh-broadcast", |b| {
        b.iter(|| {
            let spec = LinkSpec::from_bytes_per_sec(256_000.0, SimDuration::from_millis(25), 0.05);
            let s = star(&vec![spec; 250]);
            let leaves: Rc<[NodeId]> = s.leaves.as_slice().into();
            let mut sim = Simulator::new(s.network, black_box(13));
            sim.add_node(Box::new(NullBehavior)); // the hub
            for &me in leaves.iter() {
                sim.add_node(Box::new(Broadcaster {
                    me,
                    leaves: leaves.clone(),
                }));
            }
            sim.run_until_idle(SimTime::from_secs_f64(600.0));
            assert_eq!(sim.stats().messages_sent, 250 * 249);
            black_box(sim.stats())
        })
    });

    // The segment-request hot path: a request-dense swarm (many short
    // segments, fast links) dominated by Request/Have/scheduling traffic.
    let mut config = ExperimentConfig::paper_baseline()
        .with_bandwidth(1_024_000.0)
        .with_splicing(SplicingSpec::Duration(1.0))
        .with_leechers(8);
    config.video = VideoSpec {
        duration_secs: 60.0,
        ..VideoSpec::default()
    };
    config.swarm.max_sim_secs = 600.0;
    group.bench_function("segment-request", |b| {
        b.iter(|| run_once(black_box(&config), black_box(2)))
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_splicers,
    bench_codec,
    bench_sampling,
    bench_swarm,
    bench_hotpath
);
criterion_main!(benches);
