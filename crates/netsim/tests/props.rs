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
                let route = net.route(a, b).unwrap();
                if a == b {
                    prop_assert!(route.is_empty());
                    continue;
                }
                let hub_ends = usize::from(a == s.hub) + usize::from(b == s.hub);
                prop_assert_eq!(route.len(), 2 - hub_ends);
                let props = net.path_properties(&route);
                prop_assert!(props.loss < 1.0);
                prop_assert!(props.min_capacity_bps > 0.0);
                // Reverse route has the same hop count.
                prop_assert_eq!(net.route(b, a).unwrap().len(), route.len());
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

    /// Every departure: `(log length when it left, node)`.
    pub type Departures = Rc<RefCell<Vec<(usize, NodeId)>>>;

    /// The first byte of an echo, which is never echoed.
    const ECHO: u8 = 0xec;

    /// The quit timer's token (round timers count up from zero).
    const QUIT: u64 = u64::MAX;

    /// Logs every message; goes offline at start when `leaves`, at
    /// `quit_at` by a timer, and inside the handler of its `quit_after`-th
    /// message. Answers each round message with one multicast to `echo`
    /// (when not empty): pooled entries pushed while the entry being
    /// delivered has its members out. The sender also sends `bulk` (large
    /// messages, so later ones on the same pairs hit the FIFO clamp) and
    /// then one round per millisecond, as one multicast or one send per
    /// target as `multicast` says for that round.
    pub struct Node {
        pub log: Log,
        pub leaves: bool,
        pub quit_at: Option<SimDuration>,
        pub quit_after: Option<usize>,
        pub echo: Vec<NodeId>,
        pub bulk: Vec<(NodeId, usize)>,
        pub rounds: Vec<(Vec<NodeId>, usize, bool)>,
        pub multicast: Vec<bool>,
        pub outcomes: Outcomes,
        pub departures: Departures,
    }

    impl Node {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            if self.leaves {
                self.leave(ctx);
                return;
            }
            if let Some(at) = self.quit_at {
                ctx.set_timer(at, QUIT);
            }
            for &(to, size) in &self.bulk {
                ctx.send(to, Bytes::from(vec![0xb0; size])).unwrap();
            }
            for k in 0..self.rounds.len() {
                ctx.set_timer(SimDuration::from_millis(k as u64), k as u64);
            }
        }

        fn leave(&mut self, ctx: &mut Ctx<'_>) {
            let logged = self.log.borrow().len();
            self.departures.borrow_mut().push((logged, ctx.me()));
            ctx.go_offline();
        }

        fn message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: Bytes) {
            let echo = !self.echo.is_empty() && payload[0] < ECHO;
            self.log
                .borrow_mut()
                .push((ctx.now(), ctx.me(), from, payload));
            if echo {
                ctx.multicast(
                    self.echo.iter().copied(),
                    &Bytes::from_static(&[ECHO]),
                    false,
                );
            }
            if let Some(left) = &mut self.quit_after {
                *left -= 1;
                if *left == 0 {
                    self.leave(ctx);
                }
            }
        }

        fn event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            match event {
                NodeEvent::Message { from, payload } => self.message(ctx, from, payload),
                NodeEvent::Timer { token: QUIT } => self.leave(ctx),
                NodeEvent::Timer { token } => {
                    let k = token as usize;
                    let (targets, size, faulty) = &self.rounds[k];
                    let payload = Bytes::from(vec![token as u8; *size]);
                    let mut failed = Vec::new();
                    let sent = if self.multicast[k] {
                        let (sent, missed) =
                            ctx.multicast(targets.iter().copied(), &payload, *faulty);
                        failed.extend_from_slice(missed);
                        sent
                    } else {
                        let mut sent = 0;
                        for &to in targets {
                            let ok = if *faulty {
                                ctx.multicast([to], &payload, true).0 == 1
                            } else {
                                ctx.send(to, payload.clone()).is_ok()
                            };
                            if ok {
                                sent += 1;
                            } else {
                                failed.push(to);
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

    /// Implements only `on_event`: every message comes through the default
    /// `on_message`, as an owned `NodeEvent::Message`.
    pub struct Owned(pub Node);

    impl NodeBehavior for Owned {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.0.start(ctx);
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            self.0.event(ctx, event);
        }
    }

    /// Overrides `on_message`: every message is lent, and `on_event` never
    /// sees one.
    pub struct Lent(pub Node);

    impl NodeBehavior for Lent {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.0.start(ctx);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
            self.0.message(ctx, from, payload.clone());
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
            assert!(
                !matches!(event, NodeEvent::Message { .. }),
                "a message reached on_event past an overridden on_message"
            );
            self.0.event(ctx, event);
        }
    }
}

/// The multicast oracle's network: the hub, the sender, and `receivers`
/// leaves; receiver `r` sits on the thin link spec when `thin[r]`, is
/// offline from the start when `offline[r]` is zero, goes offline at
/// `quit_at[r]` milliseconds and inside the handler of its
/// `quit_after[r]`-th message, and echoes to every other leaf when
/// `echo[r]`. Round `k` is one multicast when `multicast[k]`, else one
/// send per target.
struct OracleCase<'a> {
    receivers: usize,
    thin: &'a [bool],
    offline: &'a [u32],
    quit_at: &'a [Option<u64>],
    quit_after: &'a [Option<usize>],
    echo: &'a [bool],
    bulk: &'a [(usize, usize)],
    rounds: &'a [Round],
    multicast: &'a [bool],
    faults: MessageFaults,
    seed: u64,
}

/// Everything one run of the multicast oracle reports.
struct OracleRun {
    log: Vec<(SimTime, NodeId, NodeId, Bytes)>,
    departures: Vec<(usize, NodeId)>,
    outcomes: Vec<(u64, Vec<NodeId>)>,
    stats: SimStats,
    faults: InjectedFaults,
}

/// Runs `case` with every node taking its messages lent (`lent`) or owned.
fn run_oracle(case: &OracleCase<'_>, lent: bool) -> OracleRun {
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
    let departures = oracle::Departures::default();
    let mut sim = Simulator::new(star.network, case.seed);
    sim.set_message_faults(case.faults);
    for i in 0..nodes {
        let sender = i == 1;
        let receiver = i.checked_sub(2);
        let mut node = oracle::Node {
            log: log.clone(),
            leaves: receiver.is_some_and(|r| case.offline[r] == 0),
            quit_at: receiver
                .and_then(|r| case.quit_at[r])
                .map(SimDuration::from_millis),
            quit_after: receiver.and_then(|r| case.quit_after[r]),
            echo: match receiver {
                Some(r) if case.echo[r] => (1..nodes)
                    .filter(|&j| j != i)
                    .map(NodeId::from_index)
                    .collect(),
                _ => Vec::new(),
            },
            bulk: Vec::new(),
            rounds: Vec::new(),
            multicast: case.multicast.to_vec(),
            outcomes: outcomes.clone(),
            departures: departures.clone(),
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
        if lent {
            sim.add_node(Box::new(oracle::Lent(node)));
        } else {
            sim.add_node(Box::new(oracle::Owned(node)));
        }
    }
    sim.run_until_idle(SimTime::from_secs_f64(3_600.0));
    let log = log.borrow().clone();
    let departures = departures.borrow().clone();
    let outcomes = outcomes.borrow().clone();
    OracleRun {
        log,
        departures,
        outcomes,
        stats: sim.stats(),
        faults: sim.fault_stats(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4_096 }))]

    /// `Ctx::multicast` is exactly one `send` per target (a faulty one,
    /// one faulty multicast of one per target):
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
        let sends = vec![false; rounds.len()];
        let multicasts = vec![true; rounds.len()];
        let mut case = OracleCase {
            receivers,
            thin: &thin,
            offline: &offline,
            quit_at: &[None; 8],
            quit_after: &[None; 8],
            echo: &[false; 8],
            bulk: &bulk,
            rounds: &rounds,
            multicast: &sends,
            faults: MessageFaults {
                seed: seed ^ 0x5eed,
                loss,
                delay_prob,
                delay_max: SimDuration::from_millis(delay_ms),
            },
            seed,
        };
        let one_by_one = run_oracle(&case, false);
        case.multicast = &multicasts;
        let multicast = run_oracle(&case, false);
        prop_assert_eq!(&multicast.log, &one_by_one.log, "deliveries");
        prop_assert_eq!(&multicast.outcomes, &one_by_one.outcomes, "sent counts and failed targets");
        prop_assert_eq!(multicast.stats, one_by_one.stats, "SimStats");
        prop_assert_eq!(multicast.faults, one_by_one.faults, "fault_stats()");
        prop_assert_eq!(one_by_one.outcomes.len(), rounds.len());
    }

    /// A message lent to `on_message` is the message an `on_event`-only
    /// behaviour gets owned: one schedule of sends and multicasts, run
    /// once with every node overriding `on_message` and once with none
    /// doing so, delivers the same messages at the same instants in the
    /// same order, and the senders see the same outcomes. Receivers go
    /// offline by timer, often between a multicast's push and its pop, and
    /// inside their own handler while later members of the same entry are
    /// still to be delivered; echoes push new multicasts while an entry's
    /// members are out.
    #[test]
    fn lent_and_owned_deliveries_agree(
        receivers in 2usize..9,
        thin in prop::collection::vec(any::<bool>(), 8..9),
        offline in prop::collection::vec(0u32..5, 8..9),
        // Half the receivers quit by timer, at 0-119 ms: rounds go out at
        // 0-4 ms and arrive 40 ms or more later.
        quit_at in prop::collection::vec(0u64..240, 8..9),
        // Half quit inside the handler of their first to third message.
        quit_after in prop::collection::vec(0usize..6, 8..9),
        echo in prop::collection::vec(any::<bool>(), 8..9),
        bulk in prop::collection::vec((0usize..64, 1_000usize..40_000), 0..4),
        rounds in prop::collection::vec(round(), 1..6),
        multicast in prop::collection::vec(any::<bool>(), 5..6),
        loss in prop_oneof![Just(0.0), 0.0f64..0.5],
        delay_prob in prop_oneof![Just(0.0), 0.0f64..0.5],
        delay_ms in 1u64..400,
        seed in any::<u64>(),
    ) {
        let quit_at: Vec<Option<u64>> = quit_at.iter().map(|&ms| (ms < 120).then_some(ms)).collect();
        let quit_after: Vec<Option<usize>> =
            quit_after.iter().map(|&n| (1..4).contains(&n).then_some(n)).collect();
        let case = OracleCase {
            receivers,
            thin: &thin,
            offline: &offline,
            quit_at: &quit_at,
            quit_after: &quit_after,
            echo: &echo,
            bulk: &bulk,
            rounds: &rounds,
            multicast: &multicast,
            faults: MessageFaults {
                seed: seed ^ 0x5eed,
                loss,
                delay_prob,
                delay_max: SimDuration::from_millis(delay_ms),
            },
            seed,
        };
        let owned = run_oracle(&case, false);
        let lent = run_oracle(&case, true);
        prop_assert_eq!(&lent.log, &owned.log, "deliveries");
        prop_assert_eq!(&lent.departures, &owned.departures, "departures");
        prop_assert_eq!(&lent.outcomes, &owned.outcomes, "sent counts and failed targets");
        prop_assert_eq!(lent.stats, owned.stats, "SimStats");
        prop_assert_eq!(lent.faults, owned.faults, "fault_stats()");
        prop_assert_eq!(owned.outcomes.len(), rounds.len());
        // Both runs share the delivery path, so pin it to a model too:
        // nothing reaches a node once it has left.
        for &(logged, node) in &owned.departures {
            prop_assert!(owned.log[logged..].iter().all(|d| d.1 != node), "delivered to {node} after it left");
        }
    }
}

/// The two departures `lent_and_owned_deliveries_agree` draws, pinned: a
/// receiver that leaves between a multicast's push and its pop gets
/// none of it, and one that leaves inside its first handler misses its
/// repeat while the later members of its entry still get theirs. (A
/// repeated target is clamped one microsecond later, into a second
/// entry.)
#[test]
fn lent_deliveries_stop_at_a_departure() {
    let rounds = [Round {
        // Leaves 1..=4 are nodes 2..=5: the receivers 0..=3.
        targets: vec![2, 3, 4, 3, 5, 4],
        size: 100,
        faulty: false,
    }];
    for lent in [false, true] {
        let case = OracleCase {
            receivers: 4,
            thin: &[false; 4],
            offline: &[1; 4],
            quit_at: &[Some(10), None, None, None],
            quit_after: &[None, Some(1), None, None],
            echo: &[false; 4],
            bulk: &[],
            rounds: &rounds,
            multicast: &[true],
            faults: MessageFaults {
                seed: 7,
                loss: 0.0,
                delay_prob: 0.0,
                delay_max: SimDuration::ZERO,
            },
            seed: 7,
        };
        let OracleRun { log, outcomes, .. } = run_oracle(&case, lent);
        // Every send was booked while all receivers were online.
        assert_eq!(outcomes, vec![(6, vec![])]);
        let got: Vec<usize> = log.iter().map(|&(_, to, ..)| to.index()).collect();
        assert_eq!(got, [3, 4, 5, 4], "lent: {lent}");
        let at = log[0].0;
        assert!(at > SimTime::from_micros(10_000), "arrives after the quit");
        let times: Vec<SimTime> = log.iter().map(|&(t, ..)| t).collect();
        let next = at + SimDuration::from_micros(1);
        assert_eq!(times, [at, at, at, next], "two entries");
    }
}
