//! The fluid flow model's rate solver.
//!
//! Instead of stepping every flow once per RTT ([`crate::tcp`]'s round
//! model), the fluid model treats each active flow as a constant-rate pipe
//! and recomputes rates only when the flow set changes (start, completion,
//! failure, churn, capacity change). Rates are the max–min fair
//! allocation over the directed links of the network under a per-flow rate
//! ceiling that folds loss and window limits in (Mathis-style), solved
//! twice: pass 1 shapes loss as if every link were saturated, pass 2
//! refines the ceilings with the utilization pass 1 implies.
//!
//! The solver is **local**. Three facts keep a flow event from costing a
//! whole-swarm solve:
//!
//! 1. A link whose crossing ceilings sum to clearly less than its capacity
//!    ([`SLACK_MARGIN`]) can neither bound the water level nor saturate, so
//!    it leaves the problem. A flow that crosses only such *slack* links
//!    runs at its ceiling.
//! 2. Flows connected through the remaining *tight* links form components
//!    that are filled independently by progressive filling (uniform water
//!    level, freeze at a ceiling or behind a saturated link). No step walks
//!    an unfrozen flow's path: the flows at their ceiling turn up in the
//!    scan of the unfrozen ceilings that also yields the next step's
//!    `delta`, and the flows behind a saturated link on the flow lists of
//!    the links that still count unfrozen flows and entered the saturation
//!    band. Within a fill a link's `remaining` only falls, so a saturated
//!    link stays saturated and, once its flows froze, counts none. Each
//!    flow's path is stored inline, beside the RTT and loss its ceiling
//!    reads.
//! 3. Per-link flow lists, ceiling sums and rate sums persist between
//!    solves. Each flow event marks the links it touches dirty, and a solve
//!    recomputes only what is reachable from them: ceilings of the flows on
//!    dirty links → the components those flows sit in → the rate sums of
//!    the links whose flows' rates moved → (pass 2) the ceilings of the
//!    flows on those links, and so on.
//!
//! **Purity rule.** Every stored quantity is a pure function of the current
//! flow set, loads and capacities, never an accumulated delta: a link's sums
//! are re-summed over its flow list, in list order, whenever a member or a
//! member's value changed, and a component's fill depends only on its flows'
//! ceilings and its tight links' capacities (`min`, `level += delta`, the
//! per-link `remaining -= delta · count` and the per-flow freeze test are
//! all independent of the order flows and links are visited in, so BFS
//! discovery order does not matter). Hence an incremental solve equals the
//! full solve — the same code with everything invalidated — **bit for bit**,
//! which [`FluidSolver::assert_matches_full_solve`] checks after every
//! rebalance in debug builds.

use crate::id::{DirLinkId, FlowId};

/// Relative slack below which a link is considered saturated and a flow is
/// considered to have reached its ceiling.
const REL_EPS: f64 = 1e-9;

/// A link is *slack* in a pass when the ceilings of the flows crossing it
/// sum to at most `(1 − SLACK_MARGIN) · capacity`, and *tight* otherwise.
///
/// A constant with a proof obligation, not a setting. Rates never exceed
/// ceilings, so were a slack link kept in the fill, its `remaining` would
/// stay at or above `capacity − Σ ceilings ≥ 10⁻⁶ · capacity`, less the
/// rounding of at most `F` sequential updates (`F · 2⁻⁵³ · capacity`). So it
/// is never `blocked`: the saturation band is `REL_EPS · capacity`, a
/// thousand times narrower. And it is never the `delta` argmin: with `u`
/// unfrozen flows on it, `remaining ≥ Σ_unfrozen (ceiling − level) + 10⁻⁶ ·
/// capacity`, so its share `remaining / u` exceeds the smallest `ceiling −
/// level` among them by `10⁻⁶ · capacity / u` and a flow ceiling sets the
/// step. Dropping the link changes no `delta` and no freeze decision. The
/// test is written so that an infinite or NaN sum counts as tight.
const SLACK_MARGIN: f64 = 1e-6;

/// Work counters of the fluid rate solver since the start of the run; see
/// [`crate::Simulator::fluid_stats`]. All stay zero under the round model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FluidSolverStats {
    /// Rate re-solves (one per flow activation, completion, failure and
    /// capacity change).
    pub rebalances: u64,
    /// Directed links marked dirty by flow events, summed over rebalances.
    pub dirty_links: u64,
    /// Flows whose ceilings were re-evaluated, each counted once per
    /// rebalance.
    pub flows_reseeded: u64,
    /// Tight components filled (both passes; a flow that crosses no tight
    /// link takes its ceiling without a fill).
    pub components_filled: u64,
    /// Water-level steps taken by those fills.
    pub fill_iterations: u64,
    /// Completion events pushed: a material rate change that moved a
    /// flow's finish earlier than its pending event, or a pending event
    /// that popped early and re-armed itself.
    pub flows_rescheduled: u64,
}

/// Persistent per-directed-link state. `[_; 2]` fields are indexed by pass.
#[derive(Debug, Clone, Default)]
struct LinkState {
    capacity: f64,
    /// Slots of the active flows crossing the link; list order is the
    /// summation order of the two sums below.
    flows: Vec<u32>,
    /// Σ ceilings of `flows`.
    sum_ceil: [f64; 2],
    /// Σ solver rates of `flows`.
    rate: [f64; 2],
    tight: [bool; 2],
    /// Already in [`FluidSolver::dirty`].
    dirty: bool,
    /// Fill scratch: capacity not yet handed out, and unfrozen flows.
    remaining: f64,
    count: u32,
    /// Dedupe stamp, compared against [`FluidSolver::tick`].
    mark: u64,
}

/// The most hops a solver flow's path may have: a [`crate::Route`] has at
/// most two, and the tests bridge two stars with a third.
const MAX_HOPS: usize = 3;

/// A rated flow as its ceiling sees it, fixed at [`FluidSolver::add_flow`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolverFlow {
    pub id: FlowId,
    /// Round-trip time, seconds.
    pub rtt_secs: f64,
    /// Loss of the path.
    pub loss: f64,
    /// Directed-link indices of the path, inline: the first `hops` count.
    links: [u32; MAX_HOPS],
    hops: u8,
}

impl SolverFlow {
    /// Directed-link indices of the path.
    pub fn path(&self) -> &[u32] {
        &self.links[..usize::from(self.hops)]
    }
}

/// [`FlowState::at`] of a flow the current fill has frozen.
const FROZEN: u32 = u32::MAX;

/// Persistent per-flow state, indexed by the flow table's slot.
#[derive(Debug, Clone)]
struct FlowState {
    input: SolverFlow,
    active: bool,
    ceil: [f64; 2],
    rate: [f64; 2],
    /// Effective loss behind the pass-2 ceiling.
    eff: f64,
    /// Per-solve dedupe stamp of the reseed counter.
    seeded: u64,
    /// Fill scratch: the flow's index in the unfrozen list, or [`FROZEN`].
    at: u32,
}

impl FlowState {
    /// An unoccupied slot. NaN differs in bits from every solved value, so
    /// the first solve after [`FluidSolver::add_flow`] rates the flow and
    /// reports it as changed.
    fn vacant() -> Self {
        FlowState {
            input: SolverFlow {
                id: FlowId(0),
                rtt_secs: f64::NAN,
                loss: f64::NAN,
                links: [0; MAX_HOPS],
                hops: 0,
            },
            active: false,
            ceil: [f64::NAN; 2],
            rate: [f64::NAN; 2],
            eff: f64::NAN,
            seeded: 0,
            at: FROZEN,
        }
    }
}

/// The local max–min solver; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct FluidSolver {
    links: Vec<LinkState>,
    flows: Vec<FlowState>,
    /// Per-phase dedupe stamp of each flow slot (beside `flows`, so that a
    /// walk over one flow's path can stamp others).
    flow_marks: Vec<u64>,
    /// Links whose membership, load or capacity changed since the last
    /// solve.
    dirty: Vec<u32>,
    /// Output of the last solve: slots of the flows whose pass-2 rate or
    /// effective loss changed bits (newly added flows included), ascending.
    pub changed: Vec<u32>,
    pub stats: FluidSolverStats,
    tick: u64,
    // Scratch, reused between solves.
    seeds: Vec<u32>,
    resum: Vec<u32>,
    fill_seeds: Vec<u32>,
    comp_flows: Vec<u32>,
    comp_links: Vec<u32>,
    rate_changed: Vec<u32>,
    /// Links whose pass-1 rate sum changed bits: they seed pass 2.
    util_changed: Vec<u32>,
}

fn differs(a: f64, b: f64) -> bool {
    a.to_bits() != b.to_bits()
}

/// Resets `resum` to the dirty links plus the links crossed by the flows in
/// `slots`, each once.
fn collect_resum(
    links: &mut [LinkState],
    flows: &[FlowState],
    dirty: &[u32],
    slots: &[u32],
    tick: u64,
    resum: &mut Vec<u32>,
) {
    resum.clear();
    let crossed = slots.iter().flat_map(|&s| flows[s as usize].input.path());
    for &l in dirty.iter().chain(crossed) {
        let link = &mut links[l as usize];
        if link.mark != tick {
            link.mark = tick;
            resum.push(l);
        }
    }
}

impl FluidSolver {
    /// A solver over directed links of the given capacities (bits/sec).
    pub fn new(capacities: impl IntoIterator<Item = f64>) -> Self {
        let links = capacities
            .into_iter()
            .map(|capacity| LinkState {
                capacity,
                ..LinkState::default()
            })
            .collect();
        FluidSolver {
            links,
            ..FluidSolver::default()
        }
    }

    /// Marks links whose load changed (a flow that is not — or not yet —
    /// rated was inserted or removed): the pressure term of every flow
    /// crossing them reads it.
    pub fn touch(&mut self, path: &[DirLinkId]) {
        for dir in path {
            self.mark_dirty(dir.index() as u32);
        }
    }

    fn mark_dirty(&mut self, l: u32) {
        let link = &mut self.links[l as usize];
        if !link.dirty {
            link.dirty = true;
            self.dirty.push(l);
        }
    }

    /// Applies a capacity change.
    pub fn set_capacity(&mut self, dir: DirLinkId, capacity_bps: f64) {
        self.links[dir.index()].capacity = capacity_bps;
        self.mark_dirty(dir.index() as u32);
    }

    /// A flow finished its handshake: it joins the solver, unrated until the
    /// next solve. `rtt_secs` and `loss` are what its ceiling reads of it.
    ///
    /// # Panics
    ///
    /// Panics for a path of more than three hops.
    pub fn add_flow(&mut self, id: FlowId, path: &[DirLinkId], rtt_secs: f64, loss: f64) {
        let slot = id.slot();
        if slot >= self.flows.len() {
            self.flows.resize_with(slot + 1, FlowState::vacant);
            self.flow_marks.resize(slot + 1, 0);
        }
        let flow = &mut self.flows[slot];
        debug_assert!(!flow.active, "slot added twice");
        assert!(path.len() <= MAX_HOPS, "a path of {} hops", path.len());
        let mut links = [0; MAX_HOPS];
        for (to, dir) in links.iter_mut().zip(path) {
            *to = dir.index() as u32;
        }
        *flow = FlowState {
            input: SolverFlow {
                id,
                rtt_secs,
                loss,
                links,
                hops: path.len() as u8,
            },
            active: true,
            ..FlowState::vacant()
        };
        for dir in path {
            self.links[dir.index()].flows.push(slot as u32);
        }
        self.touch(path);
    }

    /// A flow left the table (done, failed, endpoint offline).
    /// Handles flows that never joined (still handshaking) too: their
    /// departure changes the load all the same.
    pub fn remove_flow(&mut self, id: FlowId, path: &[DirLinkId]) {
        self.touch(path);
        let slot = id.slot();
        match self.flows.get_mut(slot) {
            Some(flow) if flow.active && flow.input.id == id => flow.active = false,
            _ => return,
        }
        for dir in path {
            let list = &mut self.links[dir.index()].flows;
            let at = list
                .iter()
                .position(|&s| s as usize == slot)
                .expect("active flow is on its links' lists");
            list.swap_remove(at);
        }
    }

    /// The pass-2 rate sum of a directed link, bits/sec: the instantaneous
    /// allocated rate the utilization reads are based on.
    pub fn link_rate(&self, dir: DirLinkId) -> f64 {
        self.links[dir.index()].rate[1]
    }

    /// `(id, rate_bps, eff_loss)` of a solved flow, by slot.
    pub fn solved(&self, slot: u32) -> (FlowId, f64, f64) {
        let flow = &self.flows[slot as usize];
        (flow.input.id, flow.rate[1], flow.eff)
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Brings every stored quantity in line with the current flow set,
    /// recomputing only what the dirty links reach. `ceiling(flow,
    /// utilization)` returns the flow's `(rate ceiling, effective loss)`
    /// given the highest utilization along its path; it must be a pure
    /// function of state that only changes together with a dirty mark.
    pub fn solve(&mut self, ceiling: &impl Fn(&SolverFlow, f64) -> (f64, f64)) {
        self.stats.rebalances += 1;
        self.stats.dirty_links += self.dirty.len() as u64;
        self.changed.clear();
        self.util_changed.clear();
        let solve_tick = self.next_tick();
        self.run_pass(0, solve_tick, ceiling);
        self.run_pass(1, solve_tick, ceiling);
        for &l in &self.dirty {
            self.links[l as usize].dirty = false;
        }
        self.dirty.clear();
        // A flow is pushed once for its loss and once for its rate.
        self.changed.sort_unstable();
        self.changed.dedup();
    }

    fn run_pass(
        &mut self,
        pass: usize,
        solve_tick: u64,
        ceiling: &impl Fn(&SolverFlow, f64) -> (f64, f64),
    ) {
        // Seeds: the flows on every link whose membership, load or capacity
        // changed, and in pass 2 on every link whose pass-1 rate changed.
        let tick = self.next_tick();
        self.seeds.clear();
        let rated = if pass == 1 {
            &self.util_changed[..]
        } else {
            &[]
        };
        for &l in self.dirty.iter().chain(rated) {
            for &s in &self.links[l as usize].flows {
                if self.flow_marks[s as usize] != tick {
                    self.flow_marks[s as usize] = tick;
                    self.seeds.push(s);
                    let flow = &mut self.flows[s as usize];
                    if flow.seeded != solve_tick {
                        flow.seeded = solve_tick;
                        self.stats.flows_reseeded += 1;
                    }
                }
            }
        }

        // Their ceilings. A changed ceiling invalidates the fill of the
        // flow's component and the sums of its links.
        self.fill_seeds.clear();
        for &s in &self.seeds {
            let flow = &self.flows[s as usize];
            let utilization = if pass == 0 {
                1.0
            } else {
                let mut utilization = 0.0_f64;
                for &l in flow.input.path() {
                    let link = &self.links[l as usize];
                    utilization = utilization.max(link.rate[0] / link.capacity);
                }
                utilization.min(1.0)
            };
            let (ceil, eff) = ceiling(&flow.input, utilization);
            let flow = &mut self.flows[s as usize];
            if pass == 1 && differs(eff, flow.eff) {
                flow.eff = eff;
                self.changed.push(s);
            }
            if differs(ceil, flow.ceil[pass]) {
                flow.ceil[pass] = ceil;
                self.fill_seeds.push(s);
            }
        }

        // Re-sum and re-classify the links those flows cross. A link that is
        // or was tight couples its flows, so all of them must be re-filled:
        // a link that went slack is in this list itself, which is how both
        // halves of a split component are reached.
        let tick = self.next_tick();
        collect_resum(
            &mut self.links,
            &self.flows,
            &self.dirty,
            &self.fill_seeds,
            tick,
            &mut self.resum,
        );
        for &s in &self.fill_seeds {
            self.flow_marks[s as usize] = tick;
        }
        for &l in &self.resum {
            let link = &mut self.links[l as usize];
            let mut sum = 0.0_f64;
            for &s in &link.flows {
                sum += self.flows[s as usize].ceil[pass];
            }
            let was_tight = link.tight[pass];
            link.sum_ceil[pass] = sum;
            // An infinite or NaN sum fails the comparison: tight.
            let slack = sum <= (1.0 - SLACK_MARGIN) * link.capacity;
            link.tight[pass] = !slack;
            if was_tight || link.tight[pass] {
                for &s in &link.flows {
                    if self.flow_marks[s as usize] != tick {
                        self.flow_marks[s as usize] = tick;
                        self.fill_seeds.push(s);
                    }
                }
            }
        }

        // Rate the component of every fill seed: breadth-first across the
        // links that are tight now.
        let tick = self.next_tick();
        self.rate_changed.clear();
        for i in 0..self.fill_seeds.len() {
            let seed = self.fill_seeds[i];
            if self.flow_marks[seed as usize] == tick {
                continue;
            }
            self.flow_marks[seed as usize] = tick;
            self.comp_flows.clear();
            self.comp_links.clear();
            self.comp_flows.push(seed);
            let mut head = 0;
            while head < self.comp_flows.len() {
                let s = self.comp_flows[head] as usize;
                head += 1;
                for &l in self.flows[s].input.path() {
                    let link = &mut self.links[l as usize];
                    if link.tight[pass] && link.mark != tick {
                        link.mark = tick;
                        self.comp_links.push(l);
                        for &g in &link.flows {
                            if self.flow_marks[g as usize] != tick {
                                self.flow_marks[g as usize] = tick;
                                self.comp_flows.push(g);
                            }
                        }
                    }
                }
            }
            if self.comp_links.is_empty() {
                let ceil = self.flows[seed as usize].ceil[pass];
                self.set_rate(pass, seed, ceil);
            } else {
                #[cfg(not(test))]
                self.fill(pass);
                #[cfg(test)]
                self.fill_checked(pass);
            }
        }

        // Re-sum the rates of the links whose membership or members' rates
        // changed.
        let tick = self.next_tick();
        collect_resum(
            &mut self.links,
            &self.flows,
            &self.dirty,
            &self.rate_changed,
            tick,
            &mut self.resum,
        );
        for &l in &self.resum {
            let link = &mut self.links[l as usize];
            let mut sum = 0.0_f64;
            for &s in &link.flows {
                sum += self.flows[s as usize].rate[pass];
            }
            if pass == 0 && !link.dirty && differs(sum, link.rate[0]) {
                self.util_changed.push(l);
            }
            link.rate[pass] = sum;
        }
    }

    fn set_rate(&mut self, pass: usize, slot: u32, rate: f64) {
        let flow = &mut self.flows[slot as usize];
        if differs(rate, flow.rate[pass]) {
            flow.rate[pass] = rate;
            self.rate_changed.push(slot);
            if pass == 1 {
                self.changed.push(slot);
            }
        }
    }

    /// Progressive filling of the component in `comp_flows` / `comp_links`
    /// (consumes `comp_flows`, prunes `comp_links`).
    ///
    /// The water level rises uniformly across all unfrozen flows; a flow
    /// freezes when it hits its own ceiling or when a tight link on its
    /// path saturates. Each step freezes at least one flow, and finds them
    /// without walking any unfrozen flow's path: the flows at their ceiling
    /// in the scan of the unfrozen ceilings that also yields the next
    /// step's `delta`, and the flows behind a saturated link in the flow
    /// lists of the links still counting unfrozen flows. Within a fill
    /// `remaining` only falls, so a saturated link stays saturated, and
    /// once its flows are frozen it counts none.
    fn fill(&mut self, pass: usize) {
        self.stats.components_filled += 1;
        for &l in &self.comp_links {
            let link = &mut self.links[l as usize];
            link.remaining = link.capacity;
            link.count = 0;
        }
        let mut unfrozen = std::mem::take(&mut self.comp_flows);
        let mut level = 0.0_f64;
        // The smallest `ceiling - level` among the unfrozen flows.
        let mut flow_delta = f64::INFINITY;
        for (at, &s) in unfrozen.iter().enumerate() {
            let flow = &mut self.flows[s as usize];
            flow.at = at as u32;
            flow_delta = flow_delta.min((flow.ceil[pass] - level).max(0.0));
            for &l in flow.input.path() {
                let link = &mut self.links[l as usize];
                link.count += u32::from(link.tight[pass]);
            }
        }
        while !unfrozen.is_empty() {
            self.stats.fill_iterations += 1;
            // The next event: a link's fair share exhausts, or a flow's
            // ceiling is reached, whichever is nearer. A link that counts
            // no unfrozen flow leaves the list for the rest of the fill.
            let mut delta = flow_delta;
            let links = &self.links;
            self.comp_links.retain(|&l| {
                let link = &links[l as usize];
                if link.count > 0 {
                    delta = delta.min(link.remaining.max(0.0) / link.count as f64);
                }
                link.count > 0
            });
            if !delta.is_finite() {
                // Infinite ceilings on links no unfrozen flow is counted on
                // (cannot happen for well-formed paths): bail, do not spin.
                delta = 0.0;
            }
            level += delta;
            for &l in &self.comp_links {
                let link = &mut self.links[l as usize];
                link.remaining -= delta * link.count as f64;
            }
            // Freeze the flows behind a link that saturated in this step.
            let before = unfrozen.len();
            for i in 0..self.comp_links.len() {
                let l = self.comp_links[i] as usize;
                let link = &self.links[l];
                if link.count == 0 || link.remaining > link.capacity.max(1.0) * REL_EPS {
                    continue;
                }
                for j in 0..link.flows.len() {
                    let s = self.links[l].flows[j];
                    if self.flows[s as usize].at != FROZEN {
                        self.freeze(pass, &mut unfrozen, s, level);
                    }
                }
            }
            // Freeze the flows at their ceiling; the others set the next
            // step's flow share.
            flow_delta = f64::INFINITY;
            let mut i = 0;
            while i < unfrozen.len() {
                let s = unfrozen[i];
                let ceil = self.flows[s as usize].ceil[pass];
                if level >= ceil * (1.0 - REL_EPS) {
                    self.freeze(pass, &mut unfrozen, s, level);
                } else {
                    flow_delta = flow_delta.min((ceil - level).max(0.0));
                    i += 1;
                }
            }
            if unfrozen.len() == before {
                // Numerical stall (all deltas rounded to zero without a
                // freeze): freeze everything at the current level.
                for s in unfrozen.drain(..) {
                    self.set_rate(pass, s, level);
                }
            }
        }
        self.comp_flows = unfrozen;
    }

    /// Fill: freezes the unfrozen flow in `slot` at `level`, taking it off
    /// its tight links' counts and out of `unfrozen`.
    fn freeze(&mut self, pass: usize, unfrozen: &mut Vec<u32>, slot: u32, level: f64) {
        let flow = &mut self.flows[slot as usize];
        let at = flow.at as usize;
        flow.at = FROZEN;
        for &l in flow.input.path() {
            let link = &mut self.links[l as usize];
            link.count -= u32::from(link.tight[pass]);
        }
        unfrozen.swap_remove(at);
        if let Some(&moved) = unfrozen.get(at) {
            self.flows[moved as usize].at = at as u32;
        }
        self.set_rate(pass, slot, level);
    }

    /// Forgets every solved value, so that the next [`FluidSolver::solve`]
    /// recomputes the whole problem: the full solve is the incremental one
    /// with every link dirty and every stored value stale.
    #[cfg(any(test, debug_assertions))]
    fn invalidate_all(&mut self) {
        for l in 0..self.links.len() {
            self.links[l].sum_ceil = [f64::NAN; 2];
            self.links[l].rate = [f64::NAN; 2];
            self.mark_dirty(l as u32);
        }
        for flow in &mut self.flows {
            flow.ceil = [f64::NAN; 2];
            flow.rate = [f64::NAN; 2];
            flow.eff = f64::NAN;
        }
    }

    /// The oracle of the purity rule: re-solves everything on a copy and
    /// demands the bits of every per-flow `(c1, r1, c2, r2, eff)` and every
    /// per-link sum to equal what the incremental solves left behind.
    #[cfg(any(test, debug_assertions))]
    pub fn assert_matches_full_solve(&self, ceiling: &impl Fn(&SolverFlow, f64) -> (f64, f64)) {
        let mut full = self.clone();
        full.invalidate_all();
        full.solve(ceiling);
        let bits = |v: [f64; 2]| v.map(f64::to_bits);
        for (slot, (inc, full)) in self.flows.iter().zip(&full.flows).enumerate() {
            if inc.active {
                assert_eq!(
                    (bits(inc.ceil), bits(inc.rate), inc.eff.to_bits()),
                    (bits(full.ceil), bits(full.rate), full.eff.to_bits()),
                    "flow in slot {slot}: incremental {inc:?} vs full {full:?}"
                );
            }
        }
        for (l, (inc, full)) in self.links.iter().zip(&full.links).enumerate() {
            assert_eq!(
                (bits(inc.sum_ceil), bits(inc.rate), inc.tight),
                (bits(full.sum_ceil), bits(full.rate), full.tight),
                "link {l}: incremental {inc:?} vs full {full:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One flow of a test problem: directed-link indices and ceiling.
    type TestFlow = (Vec<u32>, f64);

    /// The global progressive fill this module's solver replaced, kept as
    /// its mathematical reference: every flow and every link in one
    /// problem, one water level, no slack rule and no components.
    fn global_fill(capacity: &[f64], flows: &[TestFlow]) -> Vec<f64> {
        let n = flows.len();
        let mut rates = vec![0.0; n];
        let mut frozen = vec![false; n];
        let mut remaining = capacity.to_vec();
        let mut count = vec![0u32; capacity.len()];
        for (path, _) in flows {
            for &l in path {
                count[l as usize] += 1;
            }
        }
        let mut unfrozen = n;
        let mut level = 0.0_f64;
        while unfrozen > 0 {
            let mut delta = f64::INFINITY;
            for l in 0..capacity.len() {
                if count[l] > 0 {
                    delta = delta.min(remaining[l].max(0.0) / count[l] as f64);
                }
            }
            for i in 0..n {
                if !frozen[i] {
                    delta = delta.min((flows[i].1 - level).max(0.0));
                }
            }
            if !delta.is_finite() {
                delta = 0.0;
            }
            level += delta;
            for l in 0..capacity.len() {
                if count[l] > 0 {
                    remaining[l] -= delta * count[l] as f64;
                }
            }
            let mut froze_any = false;
            for i in 0..n {
                if frozen[i] {
                    continue;
                }
                let capped = level >= flows[i].1 * (1.0 - REL_EPS);
                let blocked = flows[i]
                    .0
                    .iter()
                    .any(|&l| remaining[l as usize] <= capacity[l as usize].max(1.0) * REL_EPS);
                if capped || blocked {
                    frozen[i] = true;
                    rates[i] = level;
                    unfrozen -= 1;
                    froze_any = true;
                    for &l in &flows[i].0 {
                        count[l as usize] -= 1;
                    }
                }
            }
            if !froze_any {
                for i in 0..n {
                    if !frozen[i] {
                        frozen[i] = true;
                        rates[i] = level;
                        unfrozen -= 1;
                    }
                }
            }
        }
        rates
    }

    impl FluidSolver {
        /// The fill [`FluidSolver::fill`] replaced, kept as its reference:
        /// each step walks every unfrozen flow's path for a saturated link.
        fn fill_by_scan(&mut self, pass: usize) {
            self.stats.components_filled += 1;
            for &l in &self.comp_links {
                let link = &mut self.links[l as usize];
                link.remaining = link.capacity;
                link.count = 0;
            }
            for &s in &self.comp_flows {
                for &l in self.flows[s as usize].input.path() {
                    let link = &mut self.links[l as usize];
                    link.count += u32::from(link.tight[pass]);
                }
            }
            let mut unfrozen = std::mem::take(&mut self.comp_flows);
            let mut level = 0.0_f64;
            while !unfrozen.is_empty() {
                self.stats.fill_iterations += 1;
                // The next event: a link's fair share exhausts, or a flow's
                // ceiling is reached, whichever is nearer.
                let mut delta = f64::INFINITY;
                for &l in &self.comp_links {
                    let link = &self.links[l as usize];
                    if link.count > 0 {
                        delta = delta.min(link.remaining.max(0.0) / link.count as f64);
                    }
                }
                for &s in &unfrozen {
                    delta = delta.min((self.flows[s as usize].ceil[pass] - level).max(0.0));
                }
                if !delta.is_finite() {
                    // Infinite ceilings on links no unfrozen flow is counted on
                    // (cannot happen for well-formed paths): bail, do not spin.
                    delta = 0.0;
                }
                level += delta;
                for &l in &self.comp_links {
                    let link = &mut self.links[l as usize];
                    if link.count > 0 {
                        link.remaining -= delta * link.count as f64;
                    }
                }
                // Freeze flows at their ceiling or behind a saturated link.
                let before = unfrozen.len();
                let mut i = 0;
                while i < unfrozen.len() {
                    let s = unfrozen[i];
                    let flow = &self.flows[s as usize];
                    let capped = level >= flow.ceil[pass] * (1.0 - REL_EPS);
                    let blocked = flow.input.path().iter().any(|&l| {
                        let link = &self.links[l as usize];
                        link.tight[pass] && link.remaining <= link.capacity.max(1.0) * REL_EPS
                    });
                    if capped || blocked {
                        for &l in flow.input.path() {
                            let link = &mut self.links[l as usize];
                            link.count -= u32::from(link.tight[pass]);
                        }
                        unfrozen.swap_remove(i);
                        self.set_rate(pass, s, level);
                    } else {
                        i += 1;
                    }
                }
                if unfrozen.len() == before {
                    // Numerical stall (all deltas rounded to zero without a
                    // freeze): freeze everything at the current level.
                    for s in unfrozen.drain(..) {
                        self.set_rate(pass, s, level);
                    }
                }
            }
            self.comp_flows = unfrozen;
        }

        /// Every fill of a test build runs both ways, [`FluidSolver::fill`]
        /// here and [`FluidSolver::fill_by_scan`] on a copy, and must give
        /// every flow the same rate bits, change the rates of the same
        /// slots and take the same number of steps.
        pub(super) fn fill_checked(&mut self, pass: usize) {
            let mut by_scan = self.clone();
            by_scan.fill_by_scan(pass);
            let from = self.rate_changed.len();
            self.fill(pass);
            let rates = |solver: &FluidSolver| -> Vec<u64> {
                solver
                    .flows
                    .iter()
                    .map(|f| f.rate[pass].to_bits())
                    .collect()
            };
            let moved = |solver: &FluidSolver| {
                let mut slots = solver.rate_changed[from..].to_vec();
                slots.sort_unstable();
                slots
            };
            assert_eq!(rates(self), rates(&by_scan), "rate bits, pass {pass}");
            assert_eq!(moved(self), moved(&by_scan), "changed slots, pass {pass}");
            assert_eq!(self.stats, by_scan.stats, "fill steps, pass {pass}");
        }
    }

    fn dirs(path: &[u32]) -> Vec<DirLinkId> {
        path.iter().map(|&l| DirLinkId(l)).collect()
    }

    /// Solves the problem from scratch with the local solver (fixed
    /// ceilings, so both passes agree) and checks the purity oracle.
    fn local_fill(capacity: &[f64], flows: &[TestFlow]) -> (Vec<f64>, FluidSolver) {
        let mut solver = FluidSolver::new(capacity.iter().copied());
        for (slot, (path, _)) in flows.iter().enumerate() {
            solver.add_flow(FlowId(slot as u64), &dirs(path), 0.0, 0.0);
        }
        let ceiling = |flow: &SolverFlow, _utilization: f64| (flows[flow.id.slot()].1, 0.0);
        solver.solve(&ceiling);
        solver.assert_matches_full_solve(&ceiling);
        let rates = (0..flows.len() as u32)
            .map(|slot| solver.solved(slot).1)
            .collect();
        (rates, solver)
    }

    fn close(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * a.abs().max(b.abs())
    }

    /// Local rates, after checking them against the global reference.
    fn rates(capacity: &[f64], flows: &[TestFlow]) -> Vec<f64> {
        let (local, _) = local_fill(capacity, flows);
        let global = global_fill(capacity, flows);
        for (i, (&l, &g)) in local.iter().zip(&global).enumerate() {
            assert!(close(l, g, 1e-6), "flow {i}: local {l} vs global {g}");
        }
        local
    }

    const INF: f64 = f64::INFINITY;

    #[test]
    fn single_flow_takes_the_bottleneck() {
        let caps = [1_000_000.0, 250_000.0];
        let flows = [(vec![0, 1], INF)];
        assert_eq!(rates(&caps, &flows), vec![250_000.0]);
        let (_, solver) = local_fill(&caps, &flows);
        assert_eq!(solver.link_rate(DirLinkId(1)), 250_000.0);
    }

    #[test]
    fn two_flows_split_a_shared_link_evenly() {
        let r = rates(&[1_000_000.0], &[(vec![0], INF), (vec![0], INF)]);
        assert!((r[0] - 500_000.0).abs() < 1.0, "{r:?}");
        assert!((r[1] - 500_000.0).abs() < 1.0, "{r:?}");
    }

    #[test]
    fn capped_flow_leaves_headroom_to_the_other() {
        // A loss-limited flow next to an unlimited one.
        let r = rates(&[1_000_000.0], &[(vec![0], 200_000.0), (vec![0], INF)]);
        assert!((r[0] - 200_000.0).abs() < 1.0, "{r:?}");
        assert!((r[1] - 800_000.0).abs() < 1.0, "{r:?}");
    }

    #[test]
    fn max_min_is_bottleneck_local() {
        // Flow A crosses a thin link; flow B shares only the fat link with
        // A and should soak up what A cannot use.
        let r = rates(
            &[100_000.0, 1_000_000.0],
            &[(vec![0, 1], INF), (vec![1], INF)],
        );
        assert!((r[0] - 100_000.0).abs() < 1.0, "{r:?}");
        assert!((r[1] - 900_000.0).abs() < 1.0, "{r:?}");
    }

    #[test]
    fn empty_problem_is_fine() {
        let (rates, solver) = local_fill(&[1.0, 2.0, 3.0], &[]);
        assert!(rates.is_empty());
        assert!(solver.changed.is_empty());
        for l in 0..3 {
            assert_eq!(solver.link_rate(DirLinkId(l)), 0.0);
        }
    }

    #[test]
    fn fill_is_deterministic() {
        let build = || {
            let caps: Vec<f64> = (0..4).map(|l| 1_000_000.0 / (l + 1) as f64).collect();
            let flows: Vec<TestFlow> = (0..16u32)
                .map(|i| (vec![i % 4, (i + 1) % 4], 300_000.0 + 10_000.0 * i as f64))
                .collect();
            rates(&caps, &flows)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn slack_links_leave_the_problem() {
        // Ceilings sum to 60 % of the shared link: nobody is filled, every
        // flow takes its ceiling to the bit, and nothing is iterated.
        let flows: Vec<TestFlow> = (0..6).map(|i| (vec![0], 100_000.0 + i as f64)).collect();
        let (rates, solver) = local_fill(&[1_000_000.0], &flows);
        for (rate, (_, ceil)) in rates.iter().zip(&flows) {
            assert_eq!(rate, ceil);
        }
        assert_eq!(solver.stats.components_filled, 0);
        assert_eq!(solver.stats.fill_iterations, 0);
    }

    #[test]
    fn removing_a_flow_refills_only_its_component() {
        // Two saturated links with three flows each, nothing in common.
        let flows: Vec<TestFlow> = (0..6).map(|i| (vec![i / 3], INF)).collect();
        let (_, mut solver) = local_fill(&[900_000.0, 600_000.0], &flows);
        let ceiling = |_: &SolverFlow, _: f64| (INF, 0.0);
        solver.stats = FluidSolverStats::default();
        solver.remove_flow(FlowId(0), &dirs(&[0]));
        solver.solve(&ceiling);
        solver.assert_matches_full_solve(&ceiling);
        assert_eq!(solver.changed, vec![1, 2], "only link 0's survivors move");
        assert_eq!(solver.solved(1).1, 450_000.0);
        assert_eq!(solver.solved(4).1, 200_000.0);
        assert_eq!(solver.stats.flows_reseeded, 2);
        assert_eq!(solver.stats.components_filled, 2, "one per pass");
    }

    /// A random star (`up(i) = 2i`, `down(i) = 2i + 1`) problem, or a
    /// bridged one (the leaves split into two sides joined by one more link
    /// pair, so some paths are three links long).
    /// `capacity_mode` picks, per link, a random capacity, the exact sum of
    /// the ceilings crossing it, or that sum moved by up to ±10⁻⁵.
    fn build_problem(
        leaves: u32,
        bridged: bool,
        pairs: &[(u32, u32, u32, f64)],
        links: &[(u32, f64, f64)],
    ) -> (Vec<f64>, Vec<TestFlow>) {
        let side = |leaf: u32| leaf < leaves / 2;
        let flows: Vec<TestFlow> = pairs
            .iter()
            .map(|&(a, b, inf, ceil)| {
                let (a, b) = (a % leaves, b % leaves);
                let b = if a == b { (b + 1) % leaves } else { b };
                let mut path = vec![2 * a];
                if bridged && side(a) != side(b) {
                    path.push(2 * leaves + u32::from(side(a)));
                }
                path.push(2 * b + 1);
                (path, if inf == 0 { INF } else { ceil })
            })
            .collect();
        let n_links = 2 * leaves as usize + 2;
        let capacity = (0..n_links)
            .map(|l| {
                let (mode, random, nudge) = links[l % links.len()];
                let sum: f64 = flows
                    .iter()
                    .filter(|(path, _)| path.contains(&(l as u32)))
                    .map(|(_, ceil)| ceil)
                    .sum();
                match mode {
                    _ if !sum.is_finite() || sum == 0.0 => random,
                    0 => sum,
                    1 => sum * (1.0 + nudge),
                    _ => random,
                }
            })
            .collect();
        (capacity, flows)
    }

    /// The max–min conditions on solver output (before the simulator's
    /// one-MSS-per-RTT floor): no link above capacity, and every flow at
    /// its ceiling or crossing a saturated link on which no flow is faster.
    fn assert_max_min(capacity: &[f64], flows: &[TestFlow], rates: &[f64]) {
        let mut load = vec![0.0; capacity.len()];
        let mut fastest = vec![0.0_f64; capacity.len()];
        for ((path, _), &rate) in flows.iter().zip(rates) {
            for &l in path {
                load[l as usize] += rate;
                fastest[l as usize] = fastest[l as usize].max(rate);
            }
        }
        for (l, (&load, &cap)) in load.iter().zip(capacity).enumerate() {
            assert!(load <= cap * (1.0 + 1e-9), "link {l}: {load} over {cap}");
        }
        for (i, ((path, ceil), &rate)) in flows.iter().zip(rates).enumerate() {
            assert!(rate <= ceil * (1.0 + 1e-12), "flow {i}: {rate} over {ceil}");
            let at_ceiling = rate >= ceil * (1.0 - 2e-9);
            let bottlenecked = path.iter().any(|&l| {
                let l = l as usize;
                load[l] >= capacity[l] * (1.0 - 1e-8) && rate >= fastest[l] * (1.0 - 1e-8)
            });
            assert!(
                at_ceiling || bottlenecked,
                "flow {i} at {rate} is neither at its ceiling {ceil} nor bottlenecked"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn local_fill_is_max_min_and_matches_the_global_fill(
            leaves in 2u32..10,
            bridged in any::<bool>(),
            pairs in prop::collection::vec(
                (any::<u32>(), any::<u32>(), 0u32..6, 1e3f64..1e7), 1..48),
            links in prop::collection::vec((0u32..4, 1e3f64..3e7, -1e-5f64..1e-5), 1..24),
        ) {
            let (capacity, flows) = build_problem(leaves, bridged, &pairs, &links);
            let (local, _) = local_fill(&capacity, &flows);
            assert_max_min(&capacity, &flows, &local);
            let global = global_fill(&capacity, &flows);
            for (i, (&l, &g)) in local.iter().zip(&global).enumerate() {
                prop_assert!(close(l, g, 1e-6), "flow {}: local {} vs global {}", i, l, g);
            }
        }

        #[test]
        fn incremental_solves_match_the_full_solve_bit_for_bit(
            leaves in 3u32..12,
            ops in prop::collection::vec(
                (0u32..8, any::<u32>(), any::<u32>(), 2e4f64..2e6), 1..120),
        ) {
            // Thin links (some saturate, some do not) and ceilings that
            // depend on the pass-1 utilization, as the simulator's do.
            let caps: Vec<f64> = (0..2 * leaves).map(|l| 4e5 * (1 + l % 5) as f64).collect();
            let mut solver = FluidSolver::new(caps.iter().copied());
            let mut live: Vec<(FlowId, Vec<DirLinkId>)> = Vec::new();
            let mut base: Vec<f64> = Vec::new();
            let mut free: Vec<usize> = Vec::new();
            let mut gen = 0u64;
            for (kind, x, y, v) in ops {
                match kind {
                    // Add a flow (reusing freed slots, as the flow table does).
                    0..=3 => {
                        let (a, b) = (x % leaves, y % leaves);
                        let b = if a == b { (b + 1) % leaves } else { b };
                        let slot = free.pop().unwrap_or_else(|| {
                            base.push(0.0);
                            base.len() - 1
                        });
                        base[slot] = v;
                        gen += 1;
                        let id = FlowId(gen << 32 | slot as u64);
                        let path = dirs(&[2 * a, 2 * b + 1]);
                        solver.add_flow(id, &path, 0.0, 0.0);
                        live.push((id, path));
                    }
                    4 | 5 if !live.is_empty() => {
                        let (id, path) = live.swap_remove(x as usize % live.len());
                        solver.remove_flow(id, &path);
                        free.push(id.slot());
                    }
                    6 => solver.set_capacity(DirLinkId(x % (2 * leaves)), v),
                    // A load change only: a handshaking flow came or went.
                    _ => solver.touch(&dirs(&[x % (2 * leaves)])),
                }
                let ceiling = |flow: &SolverFlow, utilization: f64| {
                    (base[flow.id.slot()] / (0.25 + 0.75 * utilization), utilization)
                };
                solver.solve(&ceiling);
                solver.assert_matches_full_solve(&ceiling);
                for l in 0..2 * leaves {
                    let link = &solver.links[l as usize];
                    prop_assert!(link.rate[1] <= link.capacity * (1.0 + 1e-9));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4_096 }))]

        /// Every fill of a test build is checked against
        /// [`FluidSolver::fill_by_scan`] (see [`FluidSolver::fill_checked`]):
        /// the same rate bits, the same changed slots, the same steps. This
        /// drives fills through links that saturate inside them, with fixed
        /// ceilings and with ceilings that depend on the utilization, then
        /// refills after departures, where some rates keep their bits.
        #[test]
        fn fill_by_links_matches_fill_by_scan_bit_for_bit(
            leaves in 2u32..10,
            bridged in any::<bool>(),
            shaped in any::<bool>(),
            pairs in prop::collection::vec(
                (any::<u32>(), any::<u32>(), 0u32..6, 1e3f64..1e7), 1..48),
            links in prop::collection::vec((0u32..4, 1e3f64..3e7, -1e-5f64..1e-5), 1..24),
            departures in prop::collection::vec(any::<u32>(), 0..8),
        ) {
            let (capacity, flows) = build_problem(leaves, bridged, &pairs, &links);
            let mut solver = FluidSolver::new(capacity.iter().copied());
            for (slot, (path, _)) in flows.iter().enumerate() {
                solver.add_flow(FlowId(slot as u64), &dirs(path), 0.0, 0.0);
            }
            // Pass 1 reads utilization 1, so its ceilings are the ones
            // `build_problem` summed into the capacities.
            let ceiling = |flow: &SolverFlow, utilization: f64| {
                let ceil = flows[flow.id.slot()].1;
                if shaped {
                    (ceil / (0.25 + 0.75 * utilization), utilization)
                } else {
                    (ceil, 0.0)
                }
            };
            solver.solve(&ceiling);
            let mut live: Vec<usize> = (0..flows.len()).collect();
            for x in departures {
                if live.is_empty() {
                    break;
                }
                let slot = live.swap_remove(x as usize % live.len());
                solver.remove_flow(FlowId(slot as u64), &dirs(&flows[slot].0));
                solver.solve(&ceiling);
            }
            solver.assert_matches_full_solve(&ceiling);
        }
    }
}
