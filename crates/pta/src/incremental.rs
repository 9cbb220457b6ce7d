//! Edit-delta incremental points-to: solve program edits, not programs.
//!
//! [`IncrementalPta`] owns a resident delta solver whose state survives
//! across program edits. Pure additions reuse the old/delta split directly:
//! the new constraints are registered against the already-solved state and
//! the worklist drains only what the edit disturbs. Edits that can *retract*
//! facts (statement removal or replacement, method removal, method addition
//! that changes virtual dispatch) run deletion-then-rederive: a joint
//! fixpoint finds the set of nodes whose facts may depend on a retracted
//! derivation (`dirty`) together with the set of method instances still
//! provably reachable (`live`), the dirty facts and the whole constraint
//! structure are dropped, live bodies are re-registered in a non-propagating
//! rebuild mode, and a single boundary scan re-seeds propagation from every
//! surviving fact into the rebuilt edges. Clean facts — the vast majority
//! for a local edit — are never recomputed, only re-pushed one hop.
//!
//! Correctness leans on three invariants, checked by the oracle tests at the
//! bottom of this file (incremental state vs. a from-scratch reference solve,
//! byte-identical after [`LocTable`] canonicalization):
//!
//! 1. *Dirty closure soundness*: any node whose fixpoint value can shrink is
//!    forward-reachable (over copy, load, store, and dispatch edges of the
//!    pre-edit structure) from a seed of the edit, so clearing the dirty set
//!    and re-deriving reaches the true fixpoint from below.
//! 2. *Liveness under-approximation is safe*: an instance not proven live is
//!    only suspended, never forgotten — if re-derived dispatch reaches it
//!    during the drain, [`Solver::instance`] revives it and re-registers its
//!    body against the current program.
//! 3. *Dead locations cannot re-derive*: each abstract location has a unique
//!    creating instance, so a location whose allocation site was removed (or
//!    whose creator is suspended) only ever appears in dirty sets, and the
//!    live-location snapshot taken by [`IncrementalPta::result`] drops it
//!    from the exported table.

use std::collections::{HashMap, HashSet};

use tir::{AppliedEdit, Callee, CmdId, Command, MethodId, Operand, Program};

use crate::analysis::{Ctx, InstId, NodeId, NodeKind, PtaOptions, Solver};
use crate::bitset::BitSet;
use crate::context::ContextPolicy;
use crate::loc::{AbsLoc, LocId, LocTable};
use crate::result::PtaResult;

/// Cost and impact telemetry for one [`IncrementalPta::apply_edits`] batch.
#[derive(Clone, Debug)]
pub struct EditSolveStats {
    /// Worklist pops spent solving this batch (comparable unit to a
    /// from-scratch solve's propagation count).
    pub propagations: u64,
    /// True if the batch took the deletion-then-rederive path; false for
    /// the pure-addition fast path.
    pub rebuilt: bool,
    /// Nodes whose facts were dropped and re-derived (0 on the fast path).
    pub dirty_nodes: usize,
    /// Total solver nodes after the batch (denominator for dirty ratio).
    pub total_nodes: usize,
    /// Method instances suspended after the batch.
    pub suspended_instances: usize,
    /// Methods whose points-to facts, call targets, or reachability may
    /// have changed — the invalidation set for downstream fingerprint
    /// caches. Sorted and deduplicated.
    pub changed_methods: Vec<MethodId>,
}

/// A resident points-to analysis that accepts program edits.
pub struct IncrementalPta {
    solver: Solver,
}

impl IncrementalPta {
    /// Solves `program` from scratch (delta engine) and retains the state.
    ///
    /// # Panics
    ///
    /// Panics if `program` has no entry method.
    pub fn new(program: &Program, policy: ContextPolicy, options: &PtaOptions) -> Self {
        let mut solver = Solver::new(policy);
        solver.options = options.clone();
        solver.solve(program, program.entry());
        IncrementalPta { solver }
    }

    /// Worklist pops performed over the lifetime of this solver.
    pub fn propagations(&self) -> u64 {
        self.solver.propagations
    }

    /// Snapshots the current fixpoint as a [`PtaResult`].
    ///
    /// Abstract locations whose creating instance is suspended (or whose
    /// allocation site was edited away) are dropped from the exported
    /// table, so the result is indistinguishable from a from-scratch solve
    /// of the current program.
    pub fn result(&self, program: &Program) -> PtaResult {
        let live = self.live_loc_table(program);
        let result = self.solver.build_result(program, Some(live));
        result.check_types(program);
        result
    }

    /// Incorporates an already-applied edit batch into the fixpoint.
    ///
    /// `program` must be the *post-edit* program and `applied` the receipt
    /// returned by [`tir::apply_edits`] for this batch. Batches must be
    /// applied in order; the solver state always mirrors exactly one
    /// program version.
    pub fn apply_edits(&mut self, program: &Program, applied: &[AppliedEdit]) -> EditSolveStats {
        let _span = obs::span(obs::SpanKind::Pta, "incremental edit solve");
        let start_props = self.solver.propagations;
        let pre_suspended: HashSet<InstId> = self.solver.suspended.clone();
        let old_call_edges = self.solver.call_edges.clone();
        self.solver.drain_log = Some(Vec::new());

        let needs_rebuild = applied.iter().any(|e| match e {
            AppliedEdit::AddedCmd { .. } | AppliedEdit::AddedVar { .. } => false,
            // Adding a method only retracts facts if it can capture an
            // already-performed virtual dispatch (override hazard). A name
            // no pending virtual call mentions cannot.
            AppliedEdit::AddedMethod { method, .. } => {
                let name = &program.method(*method).name;
                self.solver.calls.iter().any(|c| c.fixed_target.is_none() && &c.method_name == name)
            }
            _ => true,
        });

        let mut changed: HashSet<MethodId> = applied.iter().map(edited_method).collect();
        let dirty_nodes = if needs_rebuild {
            self.rebuild(program, applied, &mut changed)
        } else {
            self.apply_additions(program, applied);
            0
        };

        // Facts that grew are visible as drain pops; facts that shrank are
        // visible as dirty nodes (folded into `changed` inside `rebuild` —
        // a rederived-to-smaller or rederived-to-empty set never reaches
        // the drain log). Either way a Var/Ret node names the owning
        // method.
        let log = self.solver.drain_log.take().unwrap_or_default();
        let popped: HashSet<usize> =
            log.iter().map(|n| self.solver.find_read(n.0 as usize)).collect();
        for (idx, kind) in self.solver.nodes.iter().enumerate() {
            if !popped.contains(&self.solver.find_read(idx)) {
                continue;
            }
            if let NodeKind::Var(i, _) | NodeKind::Ret(i) = kind {
                changed.insert(self.solver.insts[i.0 as usize].0);
            }
        }
        // A method whose call targets changed re-fingerprints even if its
        // local facts did not (the slice hash covers callee names).
        for &(cmd, _) in old_call_edges.symmetric_difference(&self.solver.call_edges) {
            changed.insert(program.cmd_method(cmd));
        }
        // Reachability flips invalidate too (a method leaving the reached
        // set must not warm-hit as if still analyzed).
        for i in 0..self.solver.insts.len() {
            let inst = InstId(i as u32);
            if pre_suspended.contains(&inst) != self.solver.suspended.contains(&inst) {
                changed.insert(self.solver.insts[i].0);
            }
        }
        let mut changed_methods: Vec<MethodId> = changed.into_iter().collect();
        changed_methods.sort_by_key(|m| m.index());

        EditSolveStats {
            propagations: self.solver.propagations - start_props,
            rebuilt: needs_rebuild,
            dirty_nodes,
            total_nodes: self.solver.nodes.len(),
            suspended_instances: self.solver.suspended.len(),
            changed_methods,
        }
    }

    /// Pure-addition fast path: register the new constraints against the
    /// solved state and drain. Monotone, so no retraction machinery runs.
    fn apply_additions(&mut self, program: &Program, applied: &[AppliedEdit]) {
        // Snapshot instance lists up front: an added call can create new
        // instances mid-batch, and those self-register their (current,
        // fully edited) bodies — re-processing an added command for them
        // would double-register constraints.
        let mut insts_of: HashMap<MethodId, Vec<InstId>> = HashMap::new();
        for e in applied {
            if let AppliedEdit::AddedCmd { method, .. } = e {
                insts_of.entry(*method).or_insert_with(|| self.instances_of(*method));
            }
        }
        for e in applied {
            match e {
                AppliedEdit::AddedCmd { method, cmd } => {
                    let command = program.cmd(*cmd).clone();
                    for inst in insts_of[method].clone() {
                        self.solver.process_cmd(program, inst, *cmd, &command);
                    }
                }
                AppliedEdit::AddedVar { .. } | AppliedEdit::AddedMethod { .. } => {}
                _ => unreachable!("non-addition edit on the fast path"),
            }
        }
        self.solver.drain_delta(program);
    }

    /// Non-suspended instances of `method`, in creation order.
    fn instances_of(&self, method: MethodId) -> Vec<InstId> {
        (0..self.solver.insts.len())
            .map(|i| InstId(i as u32))
            .filter(|&i| {
                self.solver.insts[i.0 as usize].0 == method && !self.solver.suspended.contains(&i)
            })
            .collect()
    }

    /// Deletion-then-rederive. Returns the number of dirtied nodes.
    fn rebuild(
        &mut self,
        program: &Program,
        applied: &[AppliedEdit],
        changed: &mut HashSet<MethodId>,
    ) -> usize {
        let existing = self.solver.insts.len();
        let nnodes = self.solver.nodes.len();
        // Union-find groups are frozen during the closure (no collapsing
        // runs), so membership can be precomputed once.
        let mut members: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..nnodes {
            members.entry(self.solver.find_read(i)).or_default().push(i);
        }

        // --- Stage 1: seeds -------------------------------------------------
        let mut seeds: Vec<NodeId> = Vec::new();
        for e in applied {
            match e {
                AppliedEdit::RemovedCmd { method, cmd } => {
                    self.seed_removed_cmd(program, *method, *cmd, &mut seeds);
                }
                AppliedEdit::ReplacedCmd { method, old, .. } => {
                    self.seed_removed_cmd(program, *method, *old, &mut seeds);
                }
                // Removed methods need no command-level seeds: their
                // instances fall out of the live set below, and callers'
                // result variables are forward-reachable from the dead
                // instances' Ret nodes.
                _ => {}
            }
        }
        // Method-set changes can silently re-route already-performed
        // dispatches (an added override shadows, a removed override
        // exposes the super). Re-resolve every recorded dispatch and seed
        // the bindings whose target changed.
        let method_set_changed = applied.iter().any(|e| {
            matches!(e, AppliedEdit::AddedMethod { .. } | AppliedEdit::RemovedMethod { .. })
        });
        if method_set_changed {
            for ci in 0..self.solver.calls.len() {
                let dispatched = self.solver.calls[ci].dispatched.clone();
                for (lbit, inst) in dispatched {
                    let old_target = self.solver.insts[inst.0 as usize].0;
                    if self.solver.dispatch_target(program, ci, LocId(lbit as u32))
                        != Some(old_target)
                    {
                        self.seed_call_binding(program, ci, inst, &mut seeds);
                    }
                }
            }
        }

        // --- Stage 2: joint (dirty, live) fixpoint --------------------------
        let mut dirty = BitSet::new();
        let mut queue: Vec<usize> = Vec::new();
        for &s in &seeds {
            let r = self.solver.find_read(s.0 as usize);
            if dirty.insert(r) {
                queue.push(r);
            }
        }
        self.dirty_closure(program, &members, &mut dirty, &mut queue);
        let live = loop {
            let live = self.liveness(program, &dirty);
            let mut grew = false;
            for idx in 0..nnodes {
                let owner = match self.solver.nodes[idx] {
                    NodeKind::Var(i, _) | NodeKind::Ret(i) => i,
                    _ => continue,
                };
                if live.contains(owner.0 as usize) {
                    continue;
                }
                let r = self.solver.find_read(idx);
                if dirty.insert(r) {
                    queue.push(r);
                    grew = true;
                }
            }
            if !grew {
                break live;
            }
            self.dirty_closure(program, &members, &mut dirty, &mut queue);
        };
        let member_dirty: Vec<bool> =
            (0..nnodes).map(|i| dirty.contains(self.solver.find_read(i))).collect();
        let dirty_count = member_dirty.iter().filter(|&&d| d).count();
        // A dirty node's set may shrink — or empty out entirely, in which
        // case rederivation never re-pushes it and the drain log stays
        // silent. Charge every dirty Var/Ret node's owner to the changed
        // set here, where the dirty closure is still in hand.
        for (idx, kind) in self.solver.nodes.iter().enumerate() {
            if !member_dirty[idx] {
                continue;
            }
            if let NodeKind::Var(i, _) | NodeKind::Ret(i) = kind {
                changed.insert(self.solver.insts[i.0 as usize].0);
            }
        }

        // --- Stage 3: drop dirty facts, rebuild structure -------------------
        let s = &mut self.solver;
        for (i, &is_dirty) in member_dirty.iter().enumerate().take(nnodes) {
            let r = s.find_read(i);
            if is_dirty {
                s.pts[i] = BitSet::new();
            } else if r != i {
                // Clean collapsed members resume life as ordinary nodes
                // carrying their representative's (final, correct) set.
                s.pts[i] = s.pts[r].clone();
            }
            debug_assert!(s.delta[i].is_empty(), "edit applied mid-drain");
            s.delta[i] = BitSet::new();
            s.copy_succs[i].clear();
            s.loads[i].clear();
            s.stores[i].clear();
            s.recv_calls[i].clear();
            s.parent[i] = i as u32;
        }
        s.calls.clear();
        s.lcd_attempted.clear();
        s.call_edges.clear();
        s.worklist.clear();
        s.reached_methods = BitSet::new();
        for i in 0..existing {
            let inst = InstId(i as u32);
            if live.contains(i) {
                s.suspended.remove(&inst);
                s.reached_methods.insert(s.insts[i].0.index());
            } else {
                s.suspended.insert(inst);
            }
        }
        s.rebuilding = true;
        for i in 0..existing {
            let inst = InstId(i as u32);
            if !s.suspended.contains(&inst) {
                s.process_body(program, inst);
            }
            // Instances created during the rebuild (fresh dispatch
            // targets) register their own bodies inside `instance`.
        }
        s.rebuilding = false;

        // --- Stage 4: boundary scan + drain ---------------------------------
        // Every surviving fact is pushed one hop into the rebuilt edges;
        // clean targets absorb them as no-ops, dirty targets re-derive.
        for i in 0..s.nodes.len() {
            if s.pts[i].is_empty() || s.copy_succs[i].is_empty() {
                continue;
            }
            let bits = s.pts[i].clone();
            let succs = s.copy_succs[i].clone();
            for t in succs {
                s.push_delta(t, &bits);
            }
        }
        s.drain_delta(program);
        debug_assert!(s.delta.iter().all(BitSet::is_empty));
        dirty_count
    }

    /// Seeds for retracting one unlinked (but still readable) command.
    fn seed_removed_cmd(
        &self,
        program: &Program,
        method: MethodId,
        cmd: CmdId,
        seeds: &mut Vec<NodeId>,
    ) {
        let s = &self.solver;
        let insts: Vec<InstId> = (0..s.insts.len())
            .map(|i| InstId(i as u32))
            .filter(|&i| s.insts[i.0 as usize].0 == method)
            .collect();
        let var_seed = |seeds: &mut Vec<NodeId>, inst: InstId, v| {
            if let Some(&n) = s.node_index.get(&NodeKind::Var(inst, v)) {
                seeds.push(n);
            }
        };
        let field_seeds = |seeds: &mut Vec<NodeId>, base, field| {
            for &inst in &insts {
                let Some(&b) = s.node_index.get(&NodeKind::Var(inst, base)) else { continue };
                for l in s.pts[s.find_read(b.0 as usize)].iter() {
                    if let Some(&f) = s.node_index.get(&NodeKind::Field(LocId(l as u32), field)) {
                        seeds.push(f);
                    }
                }
            }
        };
        match program.cmd(cmd) {
            Command::WriteField { obj, field, .. } => field_seeds(seeds, *obj, *field),
            Command::WriteArray { arr, .. } => field_seeds(seeds, *arr, program.contents_field),
            Command::WriteGlobal { global, .. } => {
                if let Some(&n) = s.node_index.get(&NodeKind::Global(*global)) {
                    seeds.push(n);
                }
            }
            Command::Return { val: Some(Operand::Var(_)) } => {
                for &inst in &insts {
                    if let Some(&n) = s.node_index.get(&NodeKind::Ret(inst)) {
                        seeds.push(n);
                    }
                }
            }
            Command::Call { dst, callee, .. } => {
                match callee {
                    Callee::Static { method: callee_m }
                        if program.method(*callee_m).class.is_none() =>
                    {
                        // Free function: one context-insensitive instance.
                        if let Some(&ci) = s.inst_index.get(&(*callee_m, Ctx::None)) {
                            for &p in &program.method(*callee_m).params {
                                var_seed(seeds, ci, p);
                            }
                        }
                        if let Some(d) = dst {
                            for &inst in &insts {
                                var_seed(seeds, inst, *d);
                            }
                        }
                    }
                    _ => {
                        // Receiver-indexed: one RecvCall per caller
                        // instance; its dispatch record names every
                        // binding this site ever created.
                        for ci in 0..s.calls.len() {
                            if s.calls[ci].cmd != cmd {
                                continue;
                            }
                            for &(_, inst) in &s.calls[ci].dispatched {
                                self.seed_call_binding(program, ci, inst, seeds);
                            }
                        }
                    }
                }
            }
            other => {
                if let Some(d) = other.def() {
                    for &inst in &insts {
                        var_seed(seeds, inst, d);
                    }
                }
            }
        }
    }

    /// Seeds the nodes wired by `bind_call` for one (call, callee instance)
    /// binding: callee formals (including `this`) and the caller's result
    /// variable.
    fn seed_call_binding(
        &self,
        program: &Program,
        ci: usize,
        callee_inst: InstId,
        seeds: &mut Vec<NodeId>,
    ) {
        let s = &self.solver;
        let callee_m = s.insts[callee_inst.0 as usize].0;
        for &p in &program.method(callee_m).params {
            if let Some(&n) = s.node_index.get(&NodeKind::Var(callee_inst, p)) {
                seeds.push(n);
            }
        }
        let call = &s.calls[ci];
        if let Some(d) = call.dst {
            if let Some(&n) = s.node_index.get(&NodeKind::Var(call.caller, d)) {
                seeds.push(n);
            }
        }
    }

    /// Forward closure of `dirty` over the pre-edit constraint structure:
    /// anything a dirty node's facts flowed into may shrink.
    fn dirty_closure(
        &self,
        program: &Program,
        members: &HashMap<usize, Vec<usize>>,
        dirty: &mut BitSet,
        queue: &mut Vec<usize>,
    ) {
        let s = &self.solver;
        let mark = |dirty: &mut BitSet, queue: &mut Vec<usize>, n: NodeId| {
            let r = s.find_read(n.0 as usize);
            if dirty.insert(r) {
                queue.push(r);
            }
        };
        while let Some(r) = queue.pop() {
            // Constraint lists may live on any member of a collapsed group
            // (merge moves them to the representative, but scanning all
            // members is correct regardless and immune to merge policy).
            for &m in members.get(&r).map(Vec::as_slice).unwrap_or(&[]) {
                for &t in &s.copy_succs[m] {
                    mark(dirty, queue, t);
                }
                for &(_, dst) in &s.loads[m] {
                    mark(dirty, queue, dst);
                }
                for &(f, _) in &s.stores[m] {
                    // The derived edges src → (l.f) vanish when the base
                    // loses l; the field nodes must re-derive.
                    for l in s.pts[r].iter() {
                        if let Some(&fnode) = s.node_index.get(&NodeKind::Field(LocId(l as u32), f))
                        {
                            mark(dirty, queue, fnode);
                        }
                    }
                }
                for &ci in &s.recv_calls[m] {
                    for &(_, inst) in &s.calls[ci].dispatched {
                        let callee_m = s.insts[inst.0 as usize].0;
                        for &p in &program.method(callee_m).params {
                            if let Some(&n) = s.node_index.get(&NodeKind::Var(inst, p)) {
                                mark(dirty, queue, n);
                            }
                        }
                        if let Some(d) = s.calls[ci].dst {
                            if let Some(&n) =
                                s.node_index.get(&NodeKind::Var(s.calls[ci].caller, d))
                            {
                                mark(dirty, queue, n);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Instances provably reachable from the entry through the *current*
    /// program, trusting only dispatch through clean receivers. An
    /// under-approximation: anything missed is suspended, and revived on
    /// demand if the drain re-derives a dispatch to it.
    fn liveness(&self, program: &Program, dirty: &BitSet) -> BitSet {
        let s = &self.solver;
        let mut live = BitSet::new();
        let entry = s.inst_index[&(program.entry(), Ctx::None)];
        let mut stack = vec![entry];
        live.insert(entry.0 as usize);
        while let Some(inst) = stack.pop() {
            let method = s.insts[inst.0 as usize].0;
            if program.method(method).removed {
                continue;
            }
            for cmd_id in program.method_cmds(method) {
                let Command::Call { callee, args, .. } = program.cmd(cmd_id) else { continue };
                let visit = |i2: InstId, live: &mut BitSet, stack: &mut Vec<InstId>| {
                    if live.insert(i2.0 as usize) {
                        stack.push(i2);
                    }
                };
                let recv_var = match callee {
                    Callee::Static { method: m2 } if program.method(*m2).class.is_none() => {
                        if let Some(&i2) = s.inst_index.get(&(*m2, Ctx::None)) {
                            visit(i2, &mut live, &mut stack);
                        }
                        continue;
                    }
                    Callee::Static { .. } => match args.first() {
                        Some(Operand::Var(v)) => *v,
                        _ => continue,
                    },
                    Callee::Virtual { receiver, .. } => *receiver,
                };
                let Some(&rnode) = s.node_index.get(&NodeKind::Var(inst, recv_var)) else {
                    continue;
                };
                let r = s.find_read(rnode.0 as usize);
                if dirty.contains(r) {
                    continue; // receiver uncertain: let the drain decide
                }
                for l in s.pts[r].iter() {
                    let lid = LocId(l as u32);
                    let class = s.locs.class_of(lid, program);
                    let target = match callee {
                        Callee::Virtual { method: name, .. } => program.resolve_method(class, name),
                        Callee::Static { method: m2 } => {
                            let tc = program.method(*m2).class.expect("instance method");
                            program.is_subclass(class, tc).then_some(*m2)
                        }
                    };
                    let Some(t) = target else { continue };
                    let ctx = s.callee_ctx(program, t, lid);
                    if let Some(&i2) = s.inst_index.get(&(t, ctx)) {
                        visit(i2, &mut live, &mut stack);
                    }
                }
            }
        }
        live
    }

    /// Builds the fresh location table containing exactly the locations
    /// allocated by live instances, plus the old→fresh mapping.
    ///
    /// Safe to build in ascending instance order: every location has a
    /// unique creating instance, and a location used as a context
    /// qualifier was interned (by its creator) before any instance keyed
    /// on it existed — so the qualifier's fresh id is always available.
    fn live_loc_table(&self, program: &Program) -> (LocTable, Vec<Option<LocId>>) {
        let s = &self.solver;
        let mut table = LocTable::new();
        let mut map: Vec<Option<LocId>> = vec![None; s.locs.len()];
        for i in 0..s.insts.len() {
            let inst = InstId(i as u32);
            if s.suspended.contains(&inst) {
                continue;
            }
            let (method, _) = s.insts[i];
            if program.method(method).removed {
                continue;
            }
            let qual = s.alloc_qualifier(program, inst);
            for cmd_id in program.method_cmds(method) {
                let alloc = match program.cmd(cmd_id) {
                    Command::New { alloc, .. } | Command::NewArray { alloc, .. } => *alloc,
                    _ => continue,
                };
                let old = s
                    .locs
                    .lookup(AbsLoc { alloc, ctx: qual })
                    .expect("live instance's allocation was never interned");
                if map[old.index()].is_some() {
                    continue;
                }
                let fresh_ctx =
                    qual.map(|q| map[q.index()].expect("qualifier interned before dependent"));
                map[old.index()] = Some(table.intern(AbsLoc { alloc, ctx: fresh_ctx }));
            }
        }
        (table, map)
    }
}

/// The method named by an applied edit (for the changed-method set).
fn edited_method(e: &AppliedEdit) -> MethodId {
    match e {
        AppliedEdit::AddedCmd { method, .. }
        | AppliedEdit::ReplacedCmd { method, .. }
        | AppliedEdit::RemovedCmd { method, .. }
        | AppliedEdit::AddedVar { method, .. }
        | AppliedEdit::AddedMethod { method, .. }
        | AppliedEdit::RemovedMethod { method, .. } => *method,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_reference;
    use crate::result::canonical_text;
    use tir::{apply_edits, EditOp};

    /// The insensitive policy and container sensitivity over every class
    /// of `program` (receiver contexts for every instance method).
    fn policies(program: &Program) -> Vec<ContextPolicy> {
        let names: Vec<&str> =
            program.class_ids().map(|c| program.class(c).name.as_str()).collect();
        vec![ContextPolicy::Insensitive, ContextPolicy::containers_named(program, &names)]
    }

    /// Applies each edit batch in sequence and, after every batch, checks
    /// the incremental state byte-for-byte against a from-scratch solve by
    /// the reference engine — under every context policy.
    fn check_oracle(src: &str, batches: &[Vec<EditOp>]) {
        for policy in policies(&tir::parse(src).expect("test program parses")) {
            let mut program = tir::parse(src).expect("test program parses");
            let options = PtaOptions::default();
            let mut inc = IncrementalPta::new(&program, policy.clone(), &options);
            assert_eq!(
                canonical_text(&program, &inc.result(&program)),
                canonical_text(&program, &analyze_reference(&program, policy.clone(), &options)),
                "initial state diverges under {policy:?}"
            );
            for (bi, batch) in batches.iter().enumerate() {
                let applied = apply_edits(&mut program, batch)
                    .unwrap_or_else(|e| panic!("batch {bi} rejected: {}", e.message));
                inc.apply_edits(&program, &applied);
                let got = canonical_text(&program, &inc.result(&program));
                let want = canonical_text(
                    &program,
                    &analyze_reference(&program, policy.clone(), &options),
                );
                assert_eq!(got, want, "batch {bi} diverges under {policy:?}");
            }
        }
    }

    fn add(method: &str, at: usize, text: &str) -> EditOp {
        EditOp::AddStmt { method: method.into(), at, text: text.into() }
    }

    fn replace(method: &str, at: usize, text: &str) -> EditOp {
        EditOp::ReplaceStmt { method: method.into(), at, text: text.into() }
    }

    fn remove(method: &str, at: usize) -> EditOp {
        EditOp::RemoveStmt { method: method.into(), at }
    }

    // main's command ordinals: 0 `a = new A @a0`, 1 `o = new Object @o0`,
    // 2 `call a.set(o)`, 3 `r = call a.get()`, 4 `return`.
    const BASE: &str = r#"
class A {
  field f: Object;
  method get(this: A): Object {
    var r: Object;
    r = this.f;
    return r;
  }
  method set(this: A, v: Object) {
    this.f = v;
    return;
  }
}
class B extends A {
  method get(this: B): Object {
    var o: Object;
    o = new Object @bobj;
    return o;
  }
}
fn main() {
  var a: A;
  var o: Object;
  var r: Object;
  a = new A @a0;
  o = new Object @o0;
  call a.set(o);
  r = call a.get();
  return;
}
entry main;
"#;

    #[test]
    fn add_statement_takes_fast_path() {
        for policy in policies(&tir::parse(BASE).unwrap()) {
            let mut program = tir::parse(BASE).unwrap();
            let mut inc = IncrementalPta::new(&program, policy, &PtaOptions::default());
            let applied =
                apply_edits(&mut program, &[add("main", 2, "o = new Object @o1;")]).unwrap();
            let stats = inc.apply_edits(&program, &applied);
            assert!(!stats.rebuilt, "pure addition must not rebuild");
            assert_eq!(stats.dirty_nodes, 0);
        }
        check_oracle(BASE, &[vec![add("main", 2, "o = new Object @o1;")]]);
    }

    #[test]
    fn remove_statement_rederives() {
        let mut program = tir::parse(BASE).unwrap();
        let mut inc =
            IncrementalPta::new(&program, ContextPolicy::Insensitive, &PtaOptions::default());
        // Remove `call a.set(o)`: the heap edge a0.f -> o0 (and hence
        // get()'s result) must be retracted.
        let applied = apply_edits(&mut program, &[remove("main", 2)]).unwrap();
        let stats = inc.apply_edits(&program, &applied);
        assert!(stats.rebuilt);
        assert!(stats.dirty_nodes > 0);
        let got = canonical_text(&program, &inc.result(&program));
        let want = canonical_text(
            &program,
            &analyze_reference(&program, ContextPolicy::Insensitive, &PtaOptions::default()),
        );
        assert_eq!(got, want);
        assert!(!got.contains("a0.f"), "retracted store left a heap edge:\n{got}");
    }

    #[test]
    fn edit_sequences_match_reference() {
        check_oracle(
            BASE,
            &[
                // Route the store through a second receiver as well.
                vec![
                    add("main", 2, "var a2: A;"),
                    add("main", 2, "a2 = new A @a1;"),
                    add("main", 3, "call a2.set(o);"),
                ],
                // Remove the original store; a0.f must empty while a1.f stays.
                vec![remove("main", 4)],
                // Swap the dispatch receiver's class: get() resolves to B.get.
                vec![replace("main", 0, "a = new B @ab;")],
            ],
        );
    }

    #[test]
    fn scc_split_removal_matches_reference() {
        // x, y, z form a copy cycle the delta solver collapses; removing
        // one edge splits the SCC and must un-merge the facts: afterwards
        // z still sees both objects but x and y only the first.
        let src = r#"
fn main() {
  var x: Object;
  var y: Object;
  var z: Object;
  var w: Object;
  x = new Object @w0;
  loop {
    y = x;
    z = y;
    x = z;
    choice {
      w = new Object @w1;
      z = w;
    } or {
    }
  }
  return;
}
entry main;
"#;
        // Ordinals: 0 new@w0, 1 y=x, 2 z=y, 3 x=z, 4 new@w1, 5 z=w.
        check_oracle(src, &[vec![remove("main", 3)]]);
    }

    #[test]
    fn method_addition_changes_dispatch() {
        // B has no set() override initially; adding one must re-route the
        // already-performed dispatch of `call b.set(o)`.
        let src = r#"
class A {
  field f: Object;
  method set(this: A, v: Object) {
    this.f = v;
    return;
  }
}
class B extends A {
}
global sink: Object;
fn main() {
  var b: B;
  var o: Object;
  b = new B @b0;
  o = new Object @o0;
  call b.set(o);
  return;
}
entry main;
"#;
        check_oracle(
            src,
            &[vec![EditOp::AddMethod {
                class: Some("B".into()),
                text: "method set(this: B, v: Object) {\n  $sink = v;\n  return;\n}".into(),
            }]],
        );
    }

    #[test]
    fn method_removal_falls_back_to_super() {
        check_oracle(
            BASE,
            &[
                // main's receiver becomes a B, dispatching B.get.
                vec![replace("main", 0, "a = new B @ab;")],
                // Removing the override exposes A.get again.
                vec![EditOp::RemoveMethod { method: "B.get".into() }],
            ],
        );
    }

    #[test]
    fn suspension_and_revival_round_trip() {
        check_oracle(
            BASE,
            &[
                // Removing the only call to get() suspends its instance...
                vec![remove("main", 3)],
                // ...and re-adding an equivalent call must revive it exactly.
                vec![add("main", 3, "r = call a.get();")],
            ],
        );
    }

    #[test]
    fn edit_solve_is_cheaper_than_scratch() {
        // On a program with many untouched sibling methods, an edit local
        // to main must not re-propagate the siblings' facts.
        let mut src = String::from("class A {\n  field f: Object;\n");
        for i in 0..30 {
            src.push_str(&format!(
                "  method m{i}(this: A): Object {{\n    var o: Object;\n    var r: Object;\n    o = new Object @s{i};\n    this.f = o;\n    r = this.f;\n    return r;\n  }}\n"
            ));
        }
        src.push_str("}\nfn main() {\n  var a: A;\n  var r: Object;\n  a = new A @a0;\n");
        for i in 0..30 {
            src.push_str(&format!("  r = call a.m{i}();\n"));
        }
        src.push_str("  return;\n}\nentry main;\n");
        let mut program = tir::parse(&src).unwrap();
        let mut inc =
            IncrementalPta::new(&program, ContextPolicy::Insensitive, &PtaOptions::default());
        let scratch = inc.propagations();
        let applied = apply_edits(&mut program, &[add("main", 1, "r = call a.m0();")]).unwrap();
        let stats = inc.apply_edits(&program, &applied);
        assert!(
            stats.propagations * 4 <= scratch,
            "edit cost {} vs scratch {} exceeds 25%",
            stats.propagations,
            scratch
        );
    }

    #[test]
    fn changed_methods_are_tight() {
        let mut program = tir::parse(BASE).unwrap();
        let mut inc =
            IncrementalPta::new(&program, ContextPolicy::Insensitive, &PtaOptions::default());
        let applied = apply_edits(&mut program, &[remove("main", 2)]).unwrap();
        let stats = inc.apply_edits(&program, &applied);
        let names: Vec<String> =
            stats.changed_methods.iter().map(|&m| program.method_name(m)).collect();
        assert!(names.iter().any(|n| n == "main"), "edited method missing from {names:?}");
        // B.get is never reached; removing main's store cannot touch it.
        assert!(!names.iter().any(|n| n == "B.get"), "unaffected method invalidated: {names:?}");
    }
}
