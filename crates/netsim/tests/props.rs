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
