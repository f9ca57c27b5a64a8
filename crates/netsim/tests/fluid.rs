//! The fluid model's local rate solver, through the public API: a seeded
//! chaos schedule that has to get past the debug-build oracle (every
//! rebalance is re-solved in full and compared bit for bit) and conserve
//! bytes, the locality of a single activation, and the bound on
//! completion events per flow.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use splicecast_netsim::*;

fn fluid() -> TcpConfig {
    TcpConfig {
        flow_model: FlowModel::Fluid,
    }
}

/// On every tick: starts a transfer to a random leaf, cancels one of its
/// own, or (rarely) leaves for good.
struct Chaos {
    leaves: Vec<NodeId>,
    ticks: u32,
    mine: Vec<FlowId>,
}

impl NodeBehavior for Chaos {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let after = ctx.rng().gen_range(0..2_000u64);
        ctx.set_timer(SimDuration::from_millis(after), 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        match event {
            NodeEvent::Timer { .. } => {
                match ctx.rng().gen_range(0..100u32) {
                    0..=59 => {
                        let to = self.leaves[ctx.rng().gen_range(0..self.leaves.len())];
                        let bytes = ctx.rng().gen_range(20_000..400_000u64);
                        // Fails when `to` is this node or has left.
                        if let Ok(flow) = ctx.start_transfer(to, bytes, 0) {
                            self.mine.push(flow);
                        }
                    }
                    60..=84 if !self.mine.is_empty() => {
                        let at = ctx.rng().gen_range(0..self.mine.len());
                        ctx.cancel_transfer(self.mine.swap_remove(at));
                    }
                    85..=86 => return ctx.go_offline(),
                    _ => {}
                }
                self.ticks -= 1;
                if self.ticks > 0 {
                    let after = ctx.rng().gen_range(50..800u64);
                    ctx.set_timer(SimDuration::from_millis(after), 0);
                }
            }
            NodeEvent::UploadComplete { flow, .. } | NodeEvent::TransferFailed { flow, .. } => {
                self.mine.retain(|&f| f != flow);
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chaos_schedule_conserves_bytes_under_the_oracle(seed in any::<u64>()) {
        // 40 leaves; every fourth link is fat, so that slack and saturated
        // links, handshaking and rated flows all mix in one problem.
        let mut rng = StdRng::seed_from_u64(seed);
        let specs: Vec<LinkSpec> = (0..40)
            .map(|i| {
                let rate = if i % 4 == 0 { 4_000_000.0 } else { 200_000.0 };
                LinkSpec::from_bytes_per_sec(rate, SimDuration::from_millis(20), 0.01)
            })
            .collect();
        let s = star(&specs);
        let mut sim = Simulator::new(s.network, seed);
        sim.set_tcp_config(fluid());
        sim.enable_trace();
        for _ in 0..60 {
            let link = s.links[rng.gen_range(0..s.links.len())];
            sim.schedule_capacity(
                SimTime::from_secs_f64(rng.gen_range(0.0..30.0)),
                if rng.gen() {
                    DirLinkId::new_forward(link)
                } else {
                    DirLinkId::new_backward(link)
                },
                rng.gen_range(50_000.0..8_000_000.0) * 8.0,
            );
        }
        sim.add_node(Box::new(NullBehavior)); // the hub
        for _ in 0..40 {
            sim.add_node(Box::new(Chaos {
                leaves: s.leaves.clone(),
                ticks: 60,
                mine: Vec::new(),
            }));
        }
        sim.run_until_idle(SimTime::from_secs_f64(3_600.0));

        let stats = sim.stats();
        prop_assert_eq!(sim.active_flow_count(), 0);
        prop_assert!(stats.flows_completed > 100 && stats.flows_failed > 50, "{:?}", stats);
        prop_assert_eq!(stats.flows_started, stats.flows_completed + stats.flows_failed);
        // Payload delivered = Σ sizes of the flows that completed.
        let trace = sim.take_trace();
        let mut size = std::collections::HashMap::new();
        let mut completed_bytes = 0;
        for record in trace.records() {
            match record {
                TraceRecord::FlowStarted { flow, bytes, .. } => {
                    size.insert(*flow, *bytes);
                }
                TraceRecord::FlowCompleted { flow, .. } => completed_bytes += size[flow],
                _ => {}
            }
        }
        prop_assert_eq!(stats.payload_bytes_delivered, completed_bytes);
        prop_assert!(stats.wire_bytes_sent >= completed_bytes);
        let solver = sim.fluid_stats();
        prop_assert!(solver.components_filled > 0, "some link must saturate: {:?}", solver);
        prop_assert!(solver.flows_rescheduled >= stats.flows_completed);
    }
}

/// Starts one transfer when its timer fires.
struct Starter {
    at: SimDuration,
    to: NodeId,
}

impl NodeBehavior for Starter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.at, 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        if let NodeEvent::Timer { .. } = event {
            ctx.start_transfer(self.to, 50_000_000, 0).unwrap();
        }
    }
}

/// What one activation costs the solver with `background` other flows
/// running between pairs of their own, all on slack links.
fn activation_cost(background: usize) -> FluidSolverStats {
    let spec = LinkSpec::from_bytes_per_sec(16e6, SimDuration::from_millis(25), 0.005);
    let s = star(&vec![spec; 4 + 2 * background]);
    let leaf = |i: usize| s.leaves[i];
    let mut sim = Simulator::new(s.network, 7);
    sim.set_tcp_config(fluid());
    sim.add_node(Box::new(NullBehavior)); // the hub
    let at = |secs: u64| SimDuration::from_secs(secs);
    // Leaves 0 and 1 send to leaf 2 from the start, leaf 3 to leaf 1; five
    // seconds in, leaf 2 starts sending to leaf 1. The new flow's two links
    // (leaf 2's uplink, leaf 1's downlink) then carry two flows: itself and
    // the one from leaf 3.
    let plan = [(0, 2), (0, 2), (5, 1), (0, 1)];
    for (secs, to) in plan {
        sim.add_node(Box::new(Starter {
            at: at(secs),
            to: leaf(to),
        }));
    }
    for pair in 0..background {
        let to = leaf(4 + 2 * pair + 1);
        sim.add_node(Box::new(Starter { at: at(0), to }));
        sim.add_node(Box::new(NullBehavior));
    }
    // The handshake takes 1.5 RTT = 150 ms: stop between the start call and
    // the activation, then just after it.
    sim.run_until_idle(SimTime::from_secs_f64(5.1));
    let before = sim.fluid_stats();
    assert_eq!(before.rebalances as usize, 3 + background);
    sim.run_until_idle(SimTime::from_secs_f64(5.2));
    let after = sim.fluid_stats();
    assert_eq!(sim.active_flow_count(), 4 + background, "nothing finished");
    FluidSolverStats {
        rebalances: after.rebalances - before.rebalances,
        dirty_links: after.dirty_links - before.dirty_links,
        flows_reseeded: after.flows_reseeded - before.flows_reseeded,
        components_filled: after.components_filled - before.components_filled,
        fill_iterations: after.fill_iterations - before.fill_iterations,
        flows_rescheduled: after.flows_rescheduled - before.flows_rescheduled,
    }
}

#[test]
fn one_activation_reseeds_only_the_flows_on_its_links() {
    let small = activation_cost(4);
    assert_eq!(small.rebalances, 1);
    assert_eq!(small.dirty_links, 2);
    assert!(
        (1..=2).contains(&small.flows_reseeded),
        "the new flow and the one sharing leaf 1's downlink: {small:?}"
    );
    assert_eq!(small.components_filled, 0, "all links are slack");
    assert!(small.flows_rescheduled >= 1);
    // Independent of how many other flows are active.
    assert_eq!(activation_cost(300), small);
}

/// Sends `left` transfers of `bytes` to `to`, each started when the one
/// before it is acknowledged.
struct Chain {
    to: NodeId,
    bytes: u64,
    left: u32,
}

impl Chain {
    fn next(&mut self, ctx: &mut Ctx<'_>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.start_transfer(self.to, self.bytes, 0).unwrap();
        }
    }
}

impl NodeBehavior for Chain {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.next(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        if let NodeEvent::UploadComplete { .. } = event {
            self.next(ctx);
        }
    }
}

/// One long flow into a downlink that 40 short flows cross one after
/// another: every short flow halves the long one's rate when it activates
/// and restores it when it finishes. A completion event is pushed only when
/// a flow's finish moves *earlier* than the event it has pending, and these
/// 80 rate changes only ever move the long flow's finish later than the
/// event armed at its activation — so it costs a handful of re-arms, not
/// two events per short flow.
#[test]
fn completion_events_stay_within_a_constant_per_completed_flow() {
    const SHORT_FLOWS: u32 = 40;
    let spec = LinkSpec::from_bytes_per_sec(125_000.0, SimDuration::from_millis(25), 0.0);
    let s = star(&[spec; 3]);
    let mut sim = Simulator::new(s.network, 7);
    sim.set_tcp_config(fluid());
    sim.add_node(Box::new(NullBehavior)); // the hub
    let chain = |bytes, left| {
        let to = s.leaves[2];
        Box::new(Chain { to, bytes, left })
    };
    sim.add_node(chain(4_000_000, 1));
    sim.add_node(chain(50_000, SHORT_FLOWS));
    sim.add_node(Box::new(NullBehavior));
    // The short flows are done after about 42 s; the long one needs at
    // least 32 s alone.
    sim.run_until_idle(SimTime::from_secs_f64(41.0));
    assert_eq!(sim.active_flow_count(), 2, "the long flow outlives them");
    sim.run_until_idle(SimTime::from_secs_f64(600.0));
    let completed = sim.stats().flows_completed;
    assert_eq!(completed, u64::from(SHORT_FLOWS) + 1);
    let pushed = sim.fluid_stats().flows_rescheduled;
    assert!(
        (completed..=completed + 8).contains(&pushed),
        "{pushed} completion events for {completed} flows"
    );
}
