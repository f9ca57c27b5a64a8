//! Layer drivers: small programs that exercise one layer's public API with
//! no other layer in the loop, so a per-layer cost has a number of its own
//! that a whole-run trace can be checked against.
//!
//! Each driver repeats its unit of work until its time slice is used and
//! reports the median cost per operation. A unit that outlasts the slice
//! (the 1400-flow star) runs once.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use splicecast_core::VideoSpec;
use splicecast_media::{DurationSplicer, GopSplicer, Splicer};
use splicecast_netsim::{
    star, Ctx, FlowModel, LinkSpec, NodeBehavior, NodeEvent, NodeId, NullBehavior, SimDuration,
    SimTime, Simulator, TcpConfig,
};
use splicecast_protocol::{decode_single, encode_to_bytes, Bitfield, EncodeBuf, Message};
use splicecast_swarm::{pick_source, HolderIndex, SourceCandidate};

/// Calls `unit` until `slice` is used; each call returns the time it
/// measured and how many operations that covered. Returns the median
/// nanoseconds per operation. The first call also warms caches, so it is
/// dropped once three others exist.
fn median_ns_per_op(slice: Duration, mut unit: impl FnMut() -> (Duration, u64)) -> f64 {
    let deadline = Instant::now() + slice;
    let mut samples = Vec::new();
    loop {
        let (took, ops) = unit();
        samples.push(took.as_nanos() as f64 / ops as f64);
        if Instant::now() >= deadline {
            break;
        }
    }
    if samples.len() > 3 {
        samples.remove(0);
    }
    crate::median(&samples)
}

/// Times `ops` back-to-back calls of `op`.
fn timed(ops: u64, mut op: impl FnMut()) -> (Duration, u64) {
    let started = Instant::now();
    for _ in 0..ops {
        op();
    }
    (started.elapsed(), ops)
}

/// Keeps one transfer up to each target: starts it, and restarts it on
/// completion until that target has had `restarts` restarts. A transfer's
/// tag is its target's position.
struct RestartingSender {
    targets: Vec<NodeId>,
    bytes: u64,
    restarts: Vec<u32>,
}

impl NodeBehavior for RestartingSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (tag, &to) in self.targets.iter().enumerate() {
            ctx.start_transfer(to, self.bytes, tag as u64)
                .expect("start transfer");
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        if let NodeEvent::UploadComplete { to, tag, .. } = event {
            let left = &mut self.restarts[tag as usize];
            if *left > 0 {
                *left -= 1;
                ctx.start_transfer(to, self.bytes, tag)
                    .expect("restart transfer");
            }
        }
    }
}

/// A star of `flows / fan` senders, each keeping `fan` flows up to `fan`
/// receivers of its own. Returns the time inside the simulator and the
/// number of flows that completed.
fn sender_star(
    model: FlowModel,
    flows: usize,
    fan: usize,
    link: LinkSpec,
    bytes: u64,
    restarts: u32,
) -> (Duration, u64) {
    let senders = flows / fan;
    let s = star(&vec![link; senders + flows]);
    let mut sim = Simulator::new(s.network, 11);
    sim.set_tcp_config(TcpConfig {
        flow_model: model,
        ..TcpConfig::default()
    });
    sim.add_node(Box::new(NullBehavior)); // the hub
    for sender in 0..senders {
        let first = senders + sender * fan;
        sim.add_node(Box::new(RestartingSender {
            targets: s.leaves[first..first + fan].to_vec(),
            bytes,
            restarts: vec![restarts; fan],
        }));
    }
    for _ in 0..flows {
        sim.add_node(Box::new(NullBehavior));
    }
    let started = Instant::now();
    sim.run_until_idle(SimTime::from_secs_f64(36_000.0));
    let took = started.elapsed();
    let stats = sim.stats();
    assert_eq!(stats.flows_failed, 0);
    assert_eq!(
        stats.flows_completed,
        (flows as u64) * u64::from(restarts + 1)
    );
    (took, stats.flows_completed)
}

/// Forwards every message it gets to `next` and re-arms its timer, until
/// it has handled `remaining` events: an event queue under a message and
/// timer storm, with no flow in sight.
struct Storm {
    next: NodeId,
    remaining: u32,
}

impl NodeBehavior for Storm {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let hello = encode_to_bytes(&Message::Have { index: 1 });
        ctx.send(self.next, hello).expect("send");
        ctx.set_timer(SimDuration::from_millis(10), 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        match event {
            NodeEvent::Message { payload, .. } => ctx.send(self.next, payload).expect("send"),
            NodeEvent::Timer { token } => ctx.set_timer(SimDuration::from_millis(10), token),
            _ => {}
        }
    }
}

fn queue_storm() -> (Duration, u64) {
    const NODES: usize = 64;
    const EVENTS_PER_NODE: u32 = 2_000;
    let link = LinkSpec::from_bytes_per_sec(16e6, SimDuration::from_millis(25), 0.0);
    let s = star(&vec![link; NODES]);
    let mut sim = Simulator::new(s.network, 11);
    sim.add_node(Box::new(NullBehavior)); // the hub
    for i in 0..NODES {
        sim.add_node(Box::new(Storm {
            next: s.leaves[(i + 1) % NODES],
            remaining: EVENTS_PER_NODE,
        }));
    }
    let started = Instant::now();
    sim.run_until_idle(SimTime::from_secs_f64(36_000.0));
    (started.elapsed(), NODES as u64 * u64::from(EVENTS_PER_NODE))
}

/// The index a leecher of a 500-node swarm builds over 60 segments, with
/// every second peer holding every segment (dense sets).
fn filled_index() -> HolderIndex {
    let mut index = HolderIndex::with_universe(60, 500);
    for peer in (0..500).step_by(2) {
        for segment in 0..60 {
            index.insert(segment, NodeId::from_index(peer));
        }
    }
    index
}

fn half_set(len: u32) -> Bitfield {
    let mut held = Bitfield::new(len);
    for i in (0..len).step_by(2) {
        held.set(i);
    }
    held
}

/// How many drivers `run_all` runs.
const DRIVERS: u32 = 21;

/// Runs every driver, sharing `total` host time equally among them.
/// Returns `(metric name, unit, value)` in a fixed order.
pub fn run_all(total: Duration) -> Vec<(&'static str, &'static str, f64)> {
    let slice = total / DRIVERS;
    let mut out = Vec::new();
    let us = |ns: f64| ns / 1e3;

    // netsim, fluid model, no link saturated: one flow per 16 MB/s link
    // pair at 1 % loss sits at its loss ceiling, as on `swarm_fat`.
    let fat = {
        let loss = 1.0 - (1.0f64 - 0.01).sqrt();
        LinkSpec::from_bytes_per_sec(16e6, SimDuration::from_millis(25), loss)
    };
    for (name, flows) in [
        ("netsim.fluid.ceiling.us_per_flow.f64", 64),
        ("netsim.fluid.ceiling.us_per_flow.f512", 512),
        ("netsim.fluid.ceiling.us_per_flow.f1400", 1400),
    ] {
        let ns = median_ns_per_op(slice, || {
            sender_star(FlowModel::Fluid, flows, 1, fat, 250_000, 1)
        });
        out.push((name, "us", us(ns)));
    }
    // netsim, fluid model, saturated: four flows share each 256 kB/s
    // uplink at the paper's 5 % loss, as on `swarm_gop`.
    let thin = {
        let loss = 1.0 - (1.0f64 - 0.05).sqrt();
        LinkSpec::from_bytes_per_sec(256e3, SimDuration::from_millis(25), loss)
    };
    for (name, flows) in [
        ("netsim.fluid.saturated.us_per_flow.f64", 64),
        ("netsim.fluid.saturated.us_per_flow.f512", 512),
    ] {
        let ns = median_ns_per_op(slice, || {
            sender_star(FlowModel::Fluid, flows, 4, thin, 76_000, 1)
        });
        out.push((name, "us", us(ns)));
    }
    // netsim, round model: eight concurrent lossy flows stepping RTT by
    // RTT, the regime of the 19-leecher paper grid.
    let ns = median_ns_per_op(slice, || {
        let link = LinkSpec::from_bytes_per_sec(1e6, SimDuration::from_millis(10), 0.02);
        sender_star(FlowModel::Rounds, 8, 1, link, 512_000, 4)
    });
    out.push(("netsim.rounds.us_per_flow.f8", "us", us(ns)));
    out.push((
        "netsim.queue.ns_per_event",
        "ns",
        median_ns_per_op(slice, queue_storm),
    ));

    // swarm: the holder index at 60 segments in a 500-node universe.
    let ns = median_ns_per_op(slice, || {
        let started = Instant::now();
        black_box(filled_index());
        (started.elapsed(), 250 * 60)
    });
    out.push(("swarm.holder_index.insert_ns", "ns", ns));
    let ns = median_ns_per_op(slice, || {
        let mut index = filled_index();
        let started = Instant::now();
        for peer in (0..500).step_by(2) {
            black_box(index.remove_peer(NodeId::from_index(peer)));
        }
        (started.elapsed(), 250)
    });
    out.push(("swarm.holder_index.remove_peer_us", "us", us(ns)));
    let index = filled_index();
    let ns = median_ns_per_op(slice, || {
        let started = Instant::now();
        let mut visited = 0;
        for segment in 0..60 {
            visited += black_box(&index).of(segment).count() as u64;
        }
        (started.elapsed(), black_box(visited))
    });
    out.push(("swarm.holder_index.scan_ns", "ns", ns));
    for (name, candidates) in [
        ("swarm.pick_source_ns.c8", 8),
        ("swarm.pick_source_ns.c64", 64),
    ] {
        let pool: Vec<SourceCandidate> = (0..candidates)
            .map(|i| SourceCandidate {
                peer: NodeId::from_index(i),
                outstanding: (i % 3) as u32,
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let ns = median_ns_per_op(slice, || {
            timed(1_000, || {
                black_box(pick_source(black_box(&pool), &mut rng));
            })
        });
        out.push((name, "ns", ns));
    }

    // protocol: the codec on the messages the scale stack sends most.
    let bundle = Message::HaveBundle {
        indices: (10..18).collect(),
    };
    let bitfield = Message::Bitfield(half_set(197));
    let request = Message::Request { index: 42 };
    let mut buf = EncodeBuf::new();
    for (enc_name, dec_name, msg) in [
        (
            "protocol.encode_ns.have_bundle8",
            "protocol.decode_ns.have_bundle8",
            &bundle,
        ),
        (
            "protocol.encode_ns.bitfield197",
            "protocol.decode_ns.bitfield197",
            &bitfield,
        ),
    ] {
        let ns = median_ns_per_op(slice, || {
            timed(1_000, || {
                black_box(buf.wire(black_box(msg)));
            })
        });
        out.push((enc_name, "ns", ns));
        let wire = encode_to_bytes(msg);
        let ns = median_ns_per_op(slice, || {
            timed(1_000, || {
                black_box(decode_single(black_box(&wire)).expect("decodes"));
            })
        });
        out.push((dec_name, "ns", ns));
    }
    let ns = median_ns_per_op(slice, || {
        timed(1_000, || {
            let wire = buf.wire(black_box(&request));
            black_box(decode_single(&wire).expect("decodes"));
        })
    });
    out.push(("protocol.roundtrip_ns.small", "ns", ns));
    let (mine, theirs) = (half_set(197), Bitfield::full(197));
    let ns = median_ns_per_op(slice, || {
        timed(1_000, || {
            black_box(black_box(&mine).has_any_not_in(black_box(&theirs)));
        })
    });
    out.push(("protocol.bitfield.has_any_not_in_ns", "ns", ns));

    // media: what `PreparedExperiment::new` spends per configuration.
    let spec = VideoSpec::default();
    let ns = median_ns_per_op(slice, || {
        timed(1, || {
            black_box(black_box(&spec).build());
        })
    });
    out.push(("media.encode_ms", "ms", ns / 1e6));
    let video = spec.build();
    let ns = median_ns_per_op(slice, || {
        timed(1, || {
            black_box(GopSplicer.splice(black_box(&video)));
        })
    });
    out.push(("media.splice_gop_us", "us", us(ns)));
    let ns = median_ns_per_op(slice, || {
        timed(1, || {
            black_box(DurationSplicer::new(2.0).splice(black_box(&video)));
        })
    });
    out.push(("media.splice_2s_us", "us", us(ns)));

    assert_eq!(out.len(), DRIVERS as usize, "update DRIVERS");
    out
}
