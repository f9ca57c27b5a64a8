//! Property-based tests for the network simulator.

use proptest::prelude::*;

use bytes::Bytes;
use splicecast_netsim::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binomial_stays_in_range(n in 0u64..100_000, p in 0.0f64..1.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = rng::binomial(&mut rng, n, p);
        prop_assert!(k <= n);
    }

    #[test]
    fn sim_time_arithmetic_is_consistent(a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let t = SimTime::from_micros(a);
        let d = SimDuration::from_micros(b);
        let later = t + d;
        prop_assert!(later >= t);
        prop_assert_eq!(later - t, d);
        prop_assert_eq!(later.saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(later), SimDuration::ZERO);
    }

    #[test]
    fn random_trees_route_between_all_pairs(
        leaves in prop::collection::vec((1_000.0f64..1e9, 0u64..500, 0.0f64..0.5), 1..24),
    ) {
        // The one tree the network is: a star, each leaf on its own spec.
        let specs: Vec<LinkSpec> = leaves
            .iter()
            .map(|&(capacity, ms, loss)| LinkSpec::new(capacity, SimDuration::from_millis(ms), loss))
            .collect();
        let s = star(&specs);
        let net = &s.network;
        let nodes: Vec<NodeId> = std::iter::once(s.hub).chain(s.leaves.iter().copied()).collect();
        prop_assert_eq!(nodes.len(), net.node_count());
        // Every pair routes; path properties are sane.
        for &a in &nodes {
            for &b in &nodes {
                let path = net.path(a, b).unwrap();
                if a == b {
                    prop_assert!(path.is_empty());
                    continue;
                }
                let hub_ends = usize::from(a == s.hub) + usize::from(b == s.hub);
                prop_assert_eq!(path.len(), 2 - hub_ends);
                let props = net.path_properties(&path);
                prop_assert!(props.loss < 1.0);
                prop_assert!(props.min_capacity_bps > 0.0);
                // Reverse route has the same hop count.
                prop_assert_eq!(net.path(b, a).unwrap().len(), path.len());
            }
        }
    }

    #[test]
    fn transfers_deliver_exactly_once_regardless_of_size(
        bytes in 1u64..2_000_000,
        loss in 0.0f64..0.3,
        seed in any::<u64>(),
    ) {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Sender { to: NodeId, bytes: u64 }
        impl NodeBehavior for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.start_transfer(self.to, self.bytes, 1).unwrap();
            }
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
        }
        #[derive(Default)]
        struct Sink { got: Rc<RefCell<Vec<u64>>> }
        impl NodeBehavior for Sink {
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::TransferComplete { bytes, .. } = event {
                    self.got.borrow_mut().push(bytes);
                }
            }
        }

        let spec = LinkSpec::from_bytes_per_sec(250_000.0, SimDuration::from_millis(10), loss);
        let star = star(&[spec; 2]);
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(star.network, seed);
        sim.add_node(Box::new(NullBehavior));
        sim.add_node(Box::new(Sender { to: star.leaves[1], bytes }));
        sim.add_node(Box::new(Sink { got: got.clone() }));
        sim.run_until_idle(SimTime::from_secs_f64(3_600.0));
        prop_assert_eq!(&*got.borrow(), &vec![bytes], "exactly one complete delivery");
        prop_assert_eq!(sim.active_flow_count(), 0);
    }

    #[test]
    fn messages_arrive_reliably_and_in_order(
        count in 1usize..40,
        loss in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Burst { to: NodeId, count: usize }
        impl NodeBehavior for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for i in 0..self.count {
                    ctx.send(self.to, Bytes::from(vec![i as u8])).unwrap();
                }
            }
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: NodeEvent) {}
        }
        #[derive(Default)]
        struct Collect { seen: Rc<RefCell<Vec<u8>>> }
        impl NodeBehavior for Collect {
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: NodeEvent) {
                if let NodeEvent::Message { payload, .. } = event {
                    self.seen.borrow_mut().push(payload[0]);
                }
            }
        }

        let spec = LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(15), loss);
        let star = star(&[spec; 2]);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(star.network, seed);
        sim.add_node(Box::new(NullBehavior));
        sim.add_node(Box::new(Burst { to: star.leaves[1], count }));
        sim.add_node(Box::new(Collect { seen: seen.clone() }));
        sim.run_until_idle(SimTime::from_secs_f64(600.0));
        let expected: Vec<u8> = (0..count as u8).collect();
        prop_assert_eq!(&*seen.borrow(), &expected);
    }
}

/// One round of the multicast oracle: a message of `size` bytes to each
/// of `targets`, through the fault plane when `faulty`. A target is drawn
/// wide and folded onto the node ids plus one past the end (an unknown
/// node), so repeats are common.
#[derive(Debug, Clone)]
struct Round {
    targets: Vec<usize>,
    size: usize,
    faulty: bool,
}

fn round() -> impl Strategy<Value = Round> {
    (
        prop::collection::vec(0usize..64, 1..24),
        1usize..3_000,
        any::<bool>(),
    )
        .prop_map(|(targets, size, faulty)| Round {
            targets,
            size,
            faulty,
        })
}

mod oracle {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Every delivery in dispatch order: `(now, receiver, from, payload)`.
    pub type Log = Rc<RefCell<Vec<(SimTime, NodeId, NodeId, Bytes)>>>;

    /// What the sender saw: per round, the sends that succeeded and the
    /// targets whose send failed.
    pub type Outcomes = Rc<RefCell<Vec<(u64, Vec<NodeId>)>>>;

    /// Logs every message; goes offline at start when `leaves`. The
    /// sender also sends `bulk` (large messages, so later ones on the
    /// same pairs hit the FIFO clamp) and then one round per millisecond,
    /// as one multicast each or one send per target.
    pub struct Node {
        pub log: Log,
        pub leaves: bool,
        pub bulk: Vec<(NodeId, usize)>,
        pub rounds: Vec<(Vec<NodeId>, usize, bool)>,
        pub multicast: bool,
        pub outcomes: Outcomes,
    }

    impl NodeBehavior for Node {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.leaves {
                ctx.go_offline();
                return;
            }
            for &(to, size) in &self.bulk {
                ctx.send(to, Bytes::from(vec![0xb0; size])).unwrap();
            }
            for k in 0..self.rounds.len() {
                ctx.set_timer(SimDuration::from_millis(k as u64), k as u64);
            }
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            match event {
                NodeEvent::Message { from, payload } => {
                    self.log
                        .borrow_mut()
                        .push((ctx.now(), ctx.me(), from, payload));
                }
                NodeEvent::Timer { token } => {
                    let (targets, size, faulty) = &self.rounds[token as usize];
                    let payload = Bytes::from(vec![token as u8; *size]);
                    let mut failed = Vec::new();
                    let sent = if self.multicast {
                        ctx.multicast(targets, &payload, *faulty, &mut failed)
                    } else {
                        let mut sent = 0;
                        for &to in targets {
                            let result = if *faulty {
                                ctx.send_faulty(to, payload.clone())
                            } else {
                                ctx.send(to, payload.clone())
                            };
                            match result {
                                Ok(()) => sent += 1,
                                Err(_) => failed.push(to),
                            }
                        }
                        sent
                    };
                    self.outcomes.borrow_mut().push((sent, failed));
                }
                _ => {}
            }
        }
    }
}

/// The multicast oracle's network: the hub, the sender, and `receivers`
/// leaves; receiver `r` sits on the thin link spec when `thin[r]`, and
/// is offline from the start when `offline[r]`.
struct OracleCase<'a> {
    receivers: usize,
    thin: &'a [bool],
    offline: &'a [u32],
    bulk: &'a [(usize, usize)],
    rounds: &'a [Round],
    faults: MessageFaults,
    seed: u64,
}

/// Everything one run of the multicast oracle reports.
type OracleRun = (
    Vec<(SimTime, NodeId, NodeId, Bytes)>,
    Vec<(u64, Vec<NodeId>)>,
    SimStats,
    InjectedFaults,
);

fn run_oracle(case: &OracleCase<'_>, multicast: bool) -> OracleRun {
    let fast = LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(20), 0.05);
    let thin = LinkSpec::from_bytes_per_sec(40_000.0, SimDuration::from_millis(35), 0.0);
    // Leaf 0 is the sender; the rest receive on one of the two specs.
    let specs: Vec<LinkSpec> = std::iter::once(fast)
        .chain((0..case.receivers).map(|r| if case.thin[r] { thin } else { fast }))
        .collect();
    let star = star(&specs);
    let nodes = star.network.node_count();
    // Folds a drawn index onto the ids 0..=nodes, the last one unknown.
    let id = |i: usize| NodeId::from_index(i % (nodes + 1));
    let outcomes = oracle::Outcomes::default();
    let log = oracle::Log::default();
    let mut sim = Simulator::new(star.network, case.seed);
    sim.set_message_faults(case.faults);
    for i in 0..nodes {
        let sender = i == 1;
        let mut node = oracle::Node {
            log: log.clone(),
            leaves: i >= 2 && case.offline[i - 2] == 0,
            bulk: Vec::new(),
            rounds: Vec::new(),
            multicast,
            outcomes: outcomes.clone(),
        };
        if sender {
            // Bulk messages go to known nodes only: their sends unwrap.
            node.bulk = case
                .bulk
                .iter()
                .map(|&(to, size)| (NodeId::from_index(to % nodes), size))
                .collect();
            node.rounds = case
                .rounds
                .iter()
                .map(|r| (r.targets.iter().map(|&t| id(t)).collect(), r.size, r.faulty))
                .collect();
        }
        sim.add_node(Box::new(node));
    }
    sim.run_until_idle(SimTime::from_secs_f64(3_600.0));
    let log = log.borrow().clone();
    let outcomes = outcomes.borrow().clone();
    (log, outcomes, sim.stats(), sim.fault_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4_096 }))]

    /// `Ctx::multicast` is exactly one `send` / `send_faulty` per target:
    /// every node receives the same messages at the same instants, in the
    /// same order across nodes too, the counters and fault counters agree, and `failed` holds exactly the
    /// targets whose send returned an error. The targets repeat and
    /// include offline and unknown nodes, the hub and the sender itself;
    /// the receivers sit on two link specs; large messages queued first
    /// make the FIFO clamp move later ones; and the fault plane drops and
    /// delays.
    #[test]
    fn multicast_equals_one_send_per_target(
        receivers in 2usize..9,
        thin in prop::collection::vec(any::<bool>(), 8..9),
        // One receiver in five is offline.
        offline in prop::collection::vec(0u32..5, 8..9),
        bulk in prop::collection::vec((0usize..64, 1_000usize..40_000), 0..4),
        rounds in prop::collection::vec(round(), 1..6),
        loss in prop_oneof![Just(0.0), 0.0f64..0.5],
        delay_prob in prop_oneof![Just(0.0), 0.0f64..0.5],
        delay_ms in 1u64..400,
        seed in any::<u64>(),
    ) {
        let case = OracleCase {
            receivers,
            thin: &thin,
            offline: &offline,
            bulk: &bulk,
            rounds: &rounds,
            faults: MessageFaults {
                seed: seed ^ 0x5eed,
                loss,
                delay_prob,
                delay_max: SimDuration::from_millis(delay_ms),
            },
            seed,
        };
        let one_by_one = run_oracle(&case, false);
        let multicast = run_oracle(&case, true);
        prop_assert_eq!(&multicast.0, &one_by_one.0, "deliveries");
        prop_assert_eq!(&multicast.1, &one_by_one.1, "sent counts and failed targets");
        prop_assert_eq!(multicast.2, one_by_one.2, "SimStats");
        prop_assert_eq!(multicast.3, one_by_one.3, "fault_stats()");
        prop_assert_eq!(one_by_one.1.len(), rounds.len());
    }
}
