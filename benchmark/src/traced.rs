//! The traced run: `splicecast_swarm::run_swarm_shared`, rebuilt from the
//! program's public constructors with every node wrapped in a behaviour
//! that times its handlers.
//!
//! The run span is the parent; each `on_start` / `on_event` / `on_sim_end`
//! call is a child span, classified by node role and event kind. Millions
//! of spans are not kept one by one: each (role, kind) keeps a count, the
//! total and maximum duration, and a log2 histogram, all in memory until
//! the run ends. `netsim` self time is the run span minus its children.
//!
//! The caller compares the returned `SwarmMetrics` with an untraced run of
//! the same inputs, so any drift between this rebuild and the program's
//! own wiring is caught, not measured. Scenario features the rebuild does
//! not wire (CDN, cross traffic, link flaps, CDN outages, bandwidth
//! schedules) are refused up front.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splicecast_media::SegmentList;
use splicecast_netsim::{
    star, Ctx, LinkSpec, MessageFaults, NodeBehavior, NodeEvent, NullBehavior, SimDuration,
    SimTime, Simulator, TcpConfig,
};
use splicecast_swarm::{
    auto_coalesce_secs, BandwidthEstimator, LeecherConfig, LeecherNode, SeederNode, SwarmConfig,
    SwarmMetrics,
};

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Seeder,
    Leecher,
}

/// Event kinds, by the names the per-layer metrics use. The eight message
/// kinds come first; `classify` relies on that order.
pub const KINDS: [&str; 12] = [
    "have",
    "have_bundle",
    "interest_window",
    "bitfield",
    "request",
    "cancel",
    "handshake",
    "other",
    "timer",
    "transfer",
    "start",
    "sim_end",
];
pub const MSG_KINDS: usize = 8;
const TIMER: usize = 8;
const TRANSFER: usize = 9;
const START: usize = 10;
const SIM_END: usize = 11;

/// A message's kind is its wire type: byte 4 of the frame, after the
/// length prefix. A keep-alive is the bare prefix and counts as `other`.
fn classify(event: &NodeEvent) -> usize {
    match event {
        NodeEvent::Message { payload, .. } => match payload.get(4) {
            Some(4) => 0,
            Some(15) => 1,
            Some(16) => 2,
            Some(5) => 3,
            Some(6) => 4,
            Some(8) => 5,
            Some(20) => 6,
            _ => 7,
        },
        NodeEvent::Timer { .. } => TIMER,
        _ => TRANSFER,
    }
}

/// Aggregate of the spans of one (role, kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spans {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
    /// `hist[b]` counts spans of `[2^(b-1), 2^b)` ns (`hist[0]`: 0 ns).
    pub hist: [u64; 40],
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            count: 0,
            total_ns: 0,
            max_ns: 0,
            hist: [0; 40],
        }
    }
}

impl Spans {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        let bucket = (64 - ns.leading_zeros() as usize).min(self.hist.len() - 1);
        self.hist[bucket] += 1;
    }

    fn absorb(&mut self, other: &Spans) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        for (mine, theirs) in self.hist.iter_mut().zip(other.hist) {
            *mine += theirs;
        }
    }

    /// Upper edge, in ns, of the histogram bucket holding quantile `q`.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let rank = (self.count as f64 * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bucket, n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (1u64 << bucket) as f64;
            }
        }
        self.max_ns as f64
    }
}

/// Everything one or more traced runs measured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The run span: build, simulate, collect.
    pub run_ns: u64,
    /// Swarm construction, up to the call that starts the event loop.
    pub build_ns: u64,
    pub seeder: [Spans; KINDS.len()],
    pub leecher: [Spans; KINDS.len()],
}

impl Trace {
    pub fn absorb(&mut self, other: &Trace) {
        self.run_ns += other.run_ns;
        self.build_ns += other.build_ns;
        for (mine, theirs) in self.seeder.iter_mut().zip(&other.seeder) {
            mine.absorb(theirs);
        }
        for (mine, theirs) in self.leecher.iter_mut().zip(&other.leecher) {
            mine.absorb(theirs);
        }
    }

    /// Spans of one kind, seeder and leechers together.
    pub fn kind(&self, name: &str) -> Spans {
        let i = KINDS
            .iter()
            .position(|k| *k == name)
            .unwrap_or_else(|| panic!("no span kind named {name}"));
        let mut both = self.seeder[i];
        both.absorb(&self.leecher[i]);
        both
    }

    fn sum(spans: &[Spans]) -> Spans {
        let mut total = Spans::default();
        for s in spans {
            total.absorb(s);
        }
        total
    }

    pub fn seeder_total(&self) -> Spans {
        Trace::sum(&self.seeder)
    }

    /// Every message span, all kinds and both roles.
    pub fn messages(&self) -> Spans {
        let mut total = Trace::sum(&self.seeder[..MSG_KINDS]);
        total.absorb(&Trace::sum(&self.leecher[..MSG_KINDS]));
        total
    }

    /// Every handler span.
    pub fn handlers(&self) -> Spans {
        let mut total = Trace::sum(&self.seeder);
        total.absorb(&Trace::sum(&self.leecher));
        total
    }

    /// The aggregates as written at the end of a traced run: one object
    /// per (role, kind) that saw a span.
    pub fn to_json(&self) -> Json {
        let mut spans = Vec::new();
        for (role, table) in [("seeder", &self.seeder), ("leecher", &self.leecher)] {
            for (kind, s) in KINDS.iter().zip(table) {
                if s.count == 0 {
                    continue;
                }
                let last = s.hist.iter().rposition(|n| *n > 0).unwrap_or(0);
                let mut span = Json::obj();
                span.set("role", role)
                    .set("kind", *kind)
                    .set("count", s.count)
                    .set("total_ns", s.total_ns)
                    .set("max_ns", s.max_ns)
                    .set("log2_hist", s.hist[..=last].to_vec());
                spans.push(span);
            }
        }
        let mut out = Json::obj();
        out.set("run_ns", self.run_ns)
            .set("build_ns", self.build_ns)
            .set("spans", spans);
        out
    }
}

/// Times every handler of the node it wraps.
struct Timed<B> {
    inner: B,
    role: Role,
    trace: Rc<RefCell<Trace>>,
}

impl<B> Timed<B> {
    fn record(&self, kind: usize, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        let mut trace = self.trace.borrow_mut();
        match self.role {
            Role::Seeder => trace.seeder[kind].record(ns),
            Role::Leecher => trace.leecher[kind].record(ns),
        }
    }
}

impl<B: NodeBehavior> NodeBehavior for Timed<B> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let started = Instant::now();
        self.inner.on_start(ctx);
        self.record(START, started);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        let kind = classify(&event);
        let started = Instant::now();
        self.inner.on_event(ctx, event);
        self.record(kind, started);
    }

    fn on_sim_end(&mut self, ctx: &mut Ctx<'_>) {
        let started = Instant::now();
        self.inner.on_sim_end(ctx);
        self.record(SIM_END, started);
    }
}

/// Panics, naming the feature, on a configuration this rebuild does not
/// wire. Better a clear refusal than a traced run that silently differs.
pub fn refuse_unsupported(config: &SwarmConfig) {
    let faults = config.faults.unwrap_or_default();
    for (present, feature) in [
        (config.cdn.is_some(), "a CDN"),
        (config.cross_traffic.is_some(), "cross traffic"),
        (faults.link_flaps.is_some(), "link flaps"),
        (faults.cdn_outages.is_some(), "CDN outages"),
        (
            !config.bandwidth_schedule.is_empty(),
            "a bandwidth schedule",
        ),
    ] {
        assert!(
            !present,
            "the traced harness does not rebuild {feature}; \
             extend benchmark/src/traced.rs before tracing such a scenario"
        );
    }
}

/// Runs one swarm exactly as `run_swarm_shared` does, timing every handler.
pub fn run_traced(
    segments: &Arc<SegmentList>,
    config: &SwarmConfig,
    seed: u64,
) -> (SwarmMetrics, Trace) {
    let run_started = Instant::now();
    config.validate();
    refuse_unsupported(config);
    assert!(!segments.is_empty(), "cannot stream an empty segment list");

    let per_link_loss = config.per_link_loss();
    let peer_link_latency = SimDuration::from_secs_f64(config.peer_one_way_latency_secs / 2.0);
    let seeder_link_latency = SimDuration::from_secs_f64(
        config.seeder_one_way_latency_secs - config.peer_one_way_latency_secs / 2.0,
    );
    // Leaf order: seeder, then leechers.
    let mut leaf_specs = vec![LinkSpec::from_bytes_per_sec(
        config.seeder_bandwidth_bytes_per_sec,
        seeder_link_latency,
        per_link_loss,
    )];
    leaf_specs.extend(std::iter::repeat_n(
        LinkSpec::from_bytes_per_sec(
            config.peer_bandwidth_bytes_per_sec,
            peer_link_latency,
            per_link_loss,
        ),
        config.n_leechers,
    ));
    let star = star(&leaf_specs);
    let seeder_id = star.leaves[0];
    let leecher_ids = star.leaves[1..=config.n_leechers].to_vec();

    // The same draws, in the same order, as the program's setup stream.
    let mut setup_rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED_5EED_5EED);
    let join_delays: Vec<f64> = (0..config.n_leechers)
        .map(|_| setup_rng.gen_range(0.0..=config.join_stagger_secs))
        .collect();
    let departures = match &config.churn {
        Some(churn) => churn.sample_departures(config.n_leechers, &mut setup_rng),
        None => vec![None; config.n_leechers],
    };
    let crashes = match config.faults.and_then(|f| f.crash) {
        Some(crash) => crash.sample_crashes(config.n_leechers, &mut setup_rng),
        None => vec![None; config.n_leechers],
    };

    let trace = Rc::new(RefCell::new(Trace::default()));
    let sink = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulator::new(star.network, seed);
    sim.set_tcp_config(TcpConfig {
        flow_model: config.flow_model,
        ..TcpConfig::default()
    });
    sim.add_node(Box::new(NullBehavior)); // the hub
    sim.add_node(Box::new(Timed {
        inner: SeederNode::new(segments.clone(), 0, config.seeder_upload_slots),
        role: Role::Seeder,
        trace: trace.clone(),
    }));
    let coalesce_secs = config.have_coalesce_secs.unwrap_or_else(|| {
        auto_coalesce_secs(
            segments.total_duration().as_secs_f64() / segments.len() as f64,
            config.pump_interval_secs,
        )
    });
    for index in 0..config.n_leechers {
        let mut others = leecher_ids.clone();
        others.remove(index);
        let leecher = LeecherNode::new(LeecherConfig {
            index,
            seeder: seeder_id,
            cdn: None,
            others,
            segments: segments.clone(),
            policy: config.policy.build(),
            estimator: BandwidthEstimator::new(
                config.estimator,
                config.peer_bandwidth_bytes_per_sec,
            ),
            upload_slots: config.peer_upload_slots,
            join_delay: SimDuration::from_secs_f64(join_delays[index]),
            depart_after: departures[index].map(SimDuration::from_secs_f64),
            crash_after: crashes[index].map(SimDuration::from_secs_f64),
            defense: config.defense,
            pump_interval: SimDuration::from_secs_f64(config.pump_interval_secs),
            request_timeout: SimDuration::from_secs_f64(config.request_timeout_secs),
            resume_buffer_secs: config.resume_buffer_secs,
            w_estimate: config.w_estimate,
            p2p: config.p2p,
            discovery: config.discovery,
            control_plane: config.control_plane,
            scheduler: config.scheduler,
            dissemination: config.dissemination,
            coalesce_window: SimDuration::from_secs_f64(coalesce_secs),
            sparse_holders: config.sparse_holders,
            sink: sink.clone(),
        });
        sim.add_node(Box::new(Timed {
            inner: leecher,
            role: Role::Leecher,
            trace: trace.clone(),
        }));
    }
    if let Some(plan) = config.faults {
        sim.set_message_faults(MessageFaults {
            seed: seed ^ 0xFA17_FA17_FA17_FA17,
            loss: plan.message_loss,
            delay_prob: plan.message_delay_prob,
            delay_max: SimDuration::from_secs_f64(plan.message_delay_max_secs),
        });
    }
    let build_ns = run_started.elapsed().as_nanos() as u64;

    let end = sim.run_until_idle(SimTime::from_secs_f64(config.max_sim_secs));

    let mut reports = sink.take();
    reports.sort_by_key(|r| r.peer);
    let metrics = SwarmMetrics {
        reports,
        sim_end_secs: end.as_secs_f64(),
        net: sim.stats(),
        injected: sim.fault_stats(),
    };
    drop(sim); // the nodes hold the other handles on `trace`
    let mut trace = Rc::try_unwrap(trace)
        .expect("every node was dropped with the simulator")
        .into_inner();
    trace.build_ns = build_ns;
    trace.run_ns = run_started.elapsed().as_nanos() as u64;
    (metrics, trace)
}
