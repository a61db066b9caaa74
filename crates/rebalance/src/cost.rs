//! The unified placement cost model (Placement v2).
//!
//! One scalar [`PlacementCost::cost`] scores a [`ClusterView`]; the
//! greedy [`PlacementCost::propose_batch`] search emits a batch of
//! strictly-cost-reducing moves. Replacing the PR 4 first-match policy
//! chain with a single objective removes the chain's oscillation mode
//! by construction: on a static view every
//! accepted move strictly lowers the same scalar, so no sequence of
//! accepted moves can revisit a configuration — in particular A→B→A
//! ping-pong is impossible. Under fluctuating traffic, [`Hysteresis`]
//! adds a decaying per-shard penalty to the acceptance margin of
//! recently moved shards, damping window-to-window jitter.
//!
//! Everything here is a pure, deterministic function of the view — no
//! RNG, no cluster access — so the proptests in
//! `tests/cost_model_props.rs` can drive it on synthetic views.

use crate::{ClusterView, HostSlot};
use globaldb::MigrationKind;
use std::collections::{BTreeMap, BTreeSet};

/// Weights of the placement objective. The defaults encode the paper's
/// WAN reality: a cross-region round trip (25–55 ms) dwarfs local
/// queueing, so remote traffic dominates the score and load spread and
/// replica balance act as tie-breakers. Placements on draining hosts
/// carry a large constant penalty so scale-in moves always clear the
/// acceptance margin.
#[derive(Debug, Clone, Copy)]
pub struct PlacementCost {
    /// Weight of the remote-ops fraction (ops hitting a shard from a
    /// region other than its primary's).
    pub cross_region_weight: f64,
    /// Weight of the load-spread term (`max/mean − 1` of per-host
    /// primary load).
    pub spread_weight: f64,
    /// Weight of the replica-distribution term (normalized standard
    /// deviation of per-host replica counts).
    pub replica_balance_weight: f64,
    /// Flat cost per primary or replica placed on a draining host.
    pub drain_weight: f64,
}

impl Default for PlacementCost {
    fn default() -> Self {
        PlacementCost {
            cross_region_weight: 1.0,
            spread_weight: 0.15,
            replica_balance_weight: 0.1,
            drain_weight: 10.0,
        }
    }
}

/// Search/acceptance knobs for [`PlacementCost::propose_batch`].
#[derive(Debug, Clone, Copy)]
pub struct CostPolicy {
    /// Primary moves need at least this many windowed ops on the shard
    /// (don't chase noise); moves off a draining host are exempt.
    pub min_shard_ops: u64,
    /// A move must reduce the modeled cost by more than this margin.
    pub base_margin: f64,
    /// Extra margin charged against a shard right after it moved
    /// (hysteresis), decaying by [`CostPolicy::decay`] per tick.
    pub move_penalty: f64,
    /// Multiplicative decay of the per-shard penalty per controller tick.
    pub decay: f64,
    /// Maximum moves per batched plan.
    pub max_batch: usize,
}

impl Default for CostPolicy {
    fn default() -> Self {
        CostPolicy {
            min_shard_ops: 64,
            base_margin: 0.02,
            move_penalty: 0.25,
            decay: 0.5,
            max_batch: 4,
        }
    }
}

/// Decaying per-shard acceptance penalties: the "recent move" memory
/// that turns the margin into hysteresis.
#[derive(Debug, Clone, Default)]
pub struct Hysteresis {
    penalties: BTreeMap<usize, f64>,
}

impl Hysteresis {
    pub fn new() -> Self {
        Self::default()
    }

    /// Decay every penalty one tick; drop the negligible ones.
    pub fn decay(&mut self, policy: &CostPolicy) {
        for p in self.penalties.values_mut() {
            *p *= policy.decay;
        }
        self.penalties.retain(|_, p| *p > 1e-3);
    }

    /// Charge a shard that just completed a move.
    pub fn note_move(&mut self, shard: usize, policy: &CostPolicy) {
        self.penalties.insert(shard, policy.move_penalty);
    }

    /// Clear a shard's penalty (its move aborted: the history entry must
    /// not suppress a re-proposal).
    pub fn clear(&mut self, shard: usize) {
        self.penalties.remove(&shard);
    }

    pub fn penalty(&self, shard: usize) -> f64 {
        self.penalties.get(&shard).copied().unwrap_or(0.0)
    }
}

/// One accepted move of the greedy search, with the modeled cost before
/// and after it (each strictly decreasing within a batch).
#[derive(Debug, Clone)]
pub struct CostProposal {
    pub shard: usize,
    pub kind: MigrationKind,
    /// Slot the moved placement currently occupies.
    pub from: HostSlot,
    pub to: HostSlot,
    pub cost_before: f64,
    pub cost_after: f64,
    /// Human-readable trail for logs/tests.
    pub reason: String,
}

impl PlacementCost {
    /// Score a view: weighted sum of the remote-traffic fraction, the
    /// primary load spread, the replica-distribution imbalance, and the
    /// drain pressure. Lower is better; an idle balanced cluster scores
    /// 0. Pure f64 arithmetic over sorted inputs — deterministic.
    pub fn cost(&self, view: &ClusterView) -> f64 {
        let total_ops: u64 = view.shards.iter().map(|s| s.ops).sum();
        let mut remote = 0u64;
        for s in &view.shards {
            for (ri, &ops) in s.by_region.iter().enumerate() {
                if view.regions.get(ri).copied() != Some(s.region) {
                    remote += ops;
                }
            }
        }
        let cross = if total_ops == 0 {
            0.0
        } else {
            remote as f64 / total_ops as f64
        };

        let spread_term = (view.spread() - 1.0).max(0.0);

        let replica_term = if view.hosts.is_empty() {
            0.0
        } else {
            let counts: Vec<usize> = view
                .hosts
                .iter()
                .map(|&h| {
                    view.shards
                        .iter()
                        .flat_map(|s| &s.replicas)
                        .filter(|r| r.slot == h)
                        .count()
                })
                .collect();
            let total: usize = counts.iter().sum();
            if total == 0 {
                0.0
            } else {
                let mean = total as f64 / counts.len() as f64;
                let var = counts
                    .iter()
                    .map(|&c| {
                        let d = c as f64 - mean;
                        d * d
                    })
                    .sum::<f64>()
                    / counts.len() as f64;
                var.sqrt() / mean
            }
        };

        let on_draining: usize = view
            .shards
            .iter()
            .map(|s| {
                let primary = view.draining.contains(&HostSlot {
                    region: s.region,
                    host: s.host,
                }) as usize;
                primary
                    + s.replicas
                        .iter()
                        .filter(|r| view.draining.contains(&r.slot))
                        .count()
            })
            .sum();

        self.cross_region_weight * cross
            + self.spread_weight * spread_term
            + self.replica_balance_weight * replica_term
            + self.drain_weight * on_draining as f64
    }

    /// Greedy batch search: repeatedly pick the single move (primary or
    /// replica relocation) that lowers the modeled cost the most, apply
    /// it to a simulated copy of the view, and repeat — up to
    /// `policy.max_batch` moves, never touching the same shard twice
    /// (`busy` shards — e.g. already migrating — are excluded from the
    /// start). A move is accepted only if it clears
    /// `base_margin + hysteresis.penalty(shard)`, so every emitted
    /// proposal strictly reduces cost and recently moved shards need a
    /// bigger win to move again.
    pub fn propose_batch(
        &self,
        view: &ClusterView,
        policy: &CostPolicy,
        hysteresis: &Hysteresis,
        busy: &BTreeSet<usize>,
    ) -> Vec<CostProposal> {
        let mut sim = view.clone();
        let mut moved: BTreeSet<usize> = busy.clone();
        let mut out = Vec::new();
        while out.len() < policy.max_batch {
            let before = self.cost(&sim);
            let mut best: Option<CostProposal> = None;
            for si in 0..sim.shards.len() {
                let s = &sim.shards[si];
                let shard = s.shard;
                if moved.contains(&shard) {
                    continue;
                }
                let margin = policy.base_margin + hysteresis.penalty(shard);
                let primary_slot = HostSlot {
                    region: s.region,
                    host: s.host,
                };
                // Primary relocation: hot enough, or fleeing a drain.
                if s.ops >= policy.min_shard_ops || sim.draining.contains(&primary_slot) {
                    for &to in &sim.hosts {
                        if to == primary_slot || sim.draining.contains(&to) {
                            continue;
                        }
                        let mut trial = sim.clone();
                        trial.shards[si].region = to.region;
                        trial.shards[si].host = to.host;
                        let after = self.cost(&trial);
                        let better = match &best {
                            None => true,
                            Some(b) => after < b.cost_after,
                        };
                        if before - after > margin && better {
                            best = Some(CostProposal {
                                shard,
                                kind: MigrationKind::Primary,
                                from: primary_slot,
                                to,
                                cost_before: before,
                                cost_after: after,
                                reason: format!(
                                    "cost: shard {shard} primary ({},{})→({},{}) \
                                     {before:.3}→{after:.3}",
                                    primary_slot.region.0, primary_slot.host, to.region.0, to.host
                                ),
                            });
                        }
                    }
                }
                // Replica relocation: balance replica counts / flee a
                // drain. Keep a shard's replicas off its primary's host
                // and off each other.
                for (ri, r) in s.replicas.iter().enumerate() {
                    for &to in &sim.hosts {
                        if to == r.slot
                            || sim.draining.contains(&to)
                            || to == primary_slot
                            || s.replicas.iter().any(|o| o.slot == to)
                        {
                            continue;
                        }
                        let mut trial = sim.clone();
                        trial.shards[si].replicas[ri].slot = to;
                        let after = self.cost(&trial);
                        let better = match &best {
                            None => true,
                            Some(b) => after < b.cost_after,
                        };
                        if before - after > margin && better {
                            best = Some(CostProposal {
                                shard,
                                kind: MigrationKind::Replica { node: r.node },
                                from: r.slot,
                                to,
                                cost_before: before,
                                cost_after: after,
                                reason: format!(
                                    "cost: shard {shard} replica ({},{})→({},{}) \
                                     {before:.3}→{after:.3}",
                                    r.slot.region.0, r.slot.host, to.region.0, to.host
                                ),
                            });
                        }
                    }
                }
            }
            let Some(p) = best else { break };
            apply_move(&mut sim, &p);
            moved.insert(p.shard);
            out.push(p);
        }
        out
    }
}

/// Apply a proposal to a view in place (the greedy search's simulation
/// step; also used by the oscillation proptests to roll a view forward).
pub fn apply_move(view: &mut ClusterView, p: &CostProposal) {
    let Some(s) = view.shards.iter_mut().find(|s| s.shard == p.shard) else {
        return;
    };
    match p.kind {
        MigrationKind::Primary => {
            s.region = p.to.region;
            s.host = p.to.host;
        }
        MigrationKind::Replica { node } => {
            if let Some(r) = s.replicas.iter_mut().find(|r| r.node == node) {
                r.slot = p.to;
            }
        }
    }
}
