//! The flow-insensitive Andersen-style points-to analysis with on-the-fly
//! call-graph construction.
//!
//! Subset constraints are solved with a worklist over a node graph:
//! variable nodes (per method instance), global nodes, heap field nodes
//! (per abstract location), and return-value nodes. Field reads/writes and
//! virtual calls are *complex* constraints indexed on their base/receiver
//! node and re-processed as that node's points-to set grows.
//!
//! Two fixpoint engines share that constraint graph:
//!
//! * **Delta propagation** (the default): each node keeps an `old/delta`
//!   split — `old` holds locations already pushed downstream, `delta` the
//!   ones not yet propagated. A worklist round drains one node's delta,
//!   pushes only those bits along copy edges, and re-evaluates the node's
//!   complex constraints against the delta alone. Copy cycles — ubiquitous
//!   with call-graph-on-the-fly analyses, where parameter/return wiring
//!   closes loops — are detected lazily (when a copy edge propagates
//!   nothing and both endpoint sets are equal) and collapsed into a
//!   representative node via union-find, Nuutila/LCD style.
//! * **Reference**: the textbook full-set worklist solver, kept as the
//!   differential-testing oracle ([`analyze_reference`]).
//!
//! Both engines renumber abstract locations canonically after solving
//! ([`LocTable::canonicalize`]), so their final [`PtaResult`]s are
//! identical bit for bit.

use std::collections::{HashMap, HashSet, VecDeque};

use tir::{
    AllocId, Callee, ClassId, CmdId, Command, FieldId, GlobalId, MethodId, Operand, Program, VarId,
};

use crate::bitset::BitSet;
use crate::context::{ContextPolicy, MAX_CONTEXT_DEPTH};
use crate::loc::{AbsLoc, LocId, LocTable};
use crate::result::{HeapEdge, PtaResult};

/// A method-analysis context: the receiver's abstract location (container
/// sensitivity) or nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum Ctx {
    /// Context-insensitive instance.
    None,
    /// Keyed by receiver location (container sensitivity).
    Recv(LocId),
}

/// Interned (method, context) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct InstId(pub(crate) u32);

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum NodeKind {
    /// A local variable of a method instance.
    Var(InstId, VarId),
    /// A global variable.
    Global(GlobalId),
    /// Field `f` of objects abstracted by a location.
    Field(LocId, FieldId),
    /// The return value of a method instance.
    Ret(InstId),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct NodeId(pub(crate) u32);

/// A pending receiver-indexed call: dispatch is re-run as the receiver's
/// points-to set grows.
#[derive(Clone, Debug)]
pub(crate) struct RecvCall {
    pub(crate) caller: InstId,
    pub(crate) cmd: CmdId,
    /// `None` for virtual dispatch by name; `Some` for a direct call to an
    /// instance method (constructor-style), which skips re-resolution.
    pub(crate) fixed_target: Option<MethodId>,
    pub(crate) method_name: String,
    pub(crate) dst: Option<VarId>,
    pub(crate) args: Vec<Operand>,
    /// Receiver locations already dispatched.
    pub(crate) seen: BitSet,
    /// Dispatch record: (receiver location bit, callee instance) pairs, in
    /// dispatch order. The incremental solver reads this to find which
    /// callee bindings a program edit may invalidate.
    pub(crate) dispatched: Vec<(usize, InstId)>,
}

/// Inserts `v` into a sorted vector if absent; returns true if inserted.
fn insert_sorted(list: &mut Vec<NodeId>, v: NodeId) -> bool {
    match list.binary_search(&v) {
        Ok(_) => false,
        Err(pos) => {
            list.insert(pos, v);
            true
        }
    }
}

pub(crate) struct Solver {
    pub(crate) policy: ContextPolicy,
    pub(crate) locs: LocTable,
    pub(crate) insts: Vec<(MethodId, Ctx)>,
    pub(crate) inst_index: HashMap<(MethodId, Ctx), InstId>,
    pub(crate) nodes: Vec<NodeKind>,
    pub(crate) node_index: HashMap<NodeKind, NodeId>,
    /// Points-to sets: the full set under the reference solver; the
    /// already-propagated "old" half of the old/delta split under the
    /// delta solver.
    pub(crate) pts: Vec<BitSet>,
    /// Locations not yet pushed downstream. Delta solver only; always
    /// disjoint from the node's `pts`, and non-empty only while the node
    /// sits on the worklist.
    pub(crate) delta: Vec<BitSet>,
    /// Copy successors, sorted by raw node id and dedup'd: the iteration
    /// order *is* the deterministic propagation order.
    pub(crate) copy_succs: Vec<Vec<NodeId>>,
    pub(crate) loads: Vec<Vec<(FieldId, NodeId)>>,
    pub(crate) stores: Vec<Vec<(FieldId, NodeId)>>,
    pub(crate) recv_calls: Vec<Vec<usize>>,
    pub(crate) calls: Vec<RecvCall>,
    pub(crate) worklist: VecDeque<NodeId>,
    /// Union-find over nodes for online cycle collapsing; stays the
    /// identity under the reference solver.
    pub(crate) parent: Vec<u32>,
    /// Copy edges already probed for a cycle, packed `(n << 32) | s`
    /// (LCD fires once per edge).
    pub(crate) lcd_attempted: HashSet<u64>,
    /// (caller cmd, callee method) call-graph edges.
    pub(crate) call_edges: HashSet<(CmdId, MethodId)>,
    pub(crate) reached_methods: BitSet,
    pub(crate) options: PtaOptions,
    /// The fixpoint engine; [`SolverKind::Delta`] except in the oracle.
    pub(crate) kind: SolverKind,
    /// Incremental rebuild mode: registration lays down constraint
    /// structure (and evaluates complex constraints of already-solved
    /// nodes structurally) but copy edges push nothing — the boundary
    /// scan after the rebuild seeds all propagation at once.
    pub(crate) rebuilding: bool,
    /// Instances whose constraints were dropped by an incremental rebuild
    /// because their reachability became uncertain. Revived (body
    /// re-registered) if dispatch re-derives them.
    pub(crate) suspended: HashSet<InstId>,
    /// Worklist pops performed by this solver (the unit the incremental
    /// CI gate measures).
    pub(crate) propagations: u64,
    /// When set, every drained node id is appended here (the incremental
    /// solver reads it to find which methods' facts changed).
    pub(crate) drain_log: Option<Vec<NodeId>>,
    /// Reusable per-pop buffers for the drain loop. Constraint lists must
    /// be read through a snapshot (`eval_*` may grow the originals
    /// mid-iteration), but cloning four `Vec`s per pop dominated the
    /// solve on sub-500-node programs; copying into retained-capacity
    /// scratch is allocation-free after warm-up.
    scratch_succs: Vec<NodeId>,
    scratch_fields: Vec<(FieldId, NodeId)>,
    scratch_calls: Vec<usize>,
}

impl Solver {
    pub(crate) fn new(policy: ContextPolicy) -> Self {
        Solver {
            policy,
            locs: LocTable::new(),
            insts: Vec::new(),
            inst_index: HashMap::new(),
            nodes: Vec::new(),
            node_index: HashMap::new(),
            pts: Vec::new(),
            delta: Vec::new(),
            copy_succs: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            recv_calls: Vec::new(),
            calls: Vec::new(),
            worklist: VecDeque::new(),
            parent: Vec::new(),
            lcd_attempted: HashSet::new(),
            call_edges: HashSet::new(),
            reached_methods: BitSet::new(),
            options: PtaOptions::default(),
            kind: SolverKind::Delta,
            rebuilding: false,
            suspended: HashSet::new(),
            propagations: 0,
            drain_log: None,
            scratch_succs: Vec::new(),
            scratch_fields: Vec::new(),
            scratch_calls: Vec::new(),
        }
    }

    pub(crate) fn node(&mut self, kind: NodeKind) -> NodeId {
        if let Some(&id) = self.node_index.get(&kind) {
            return id;
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node overflow"));
        obs::add(obs::Counter::PtaNodes, 1);
        self.nodes.push(kind);
        self.node_index.insert(kind, id);
        self.pts.push(BitSet::new());
        self.delta.push(BitSet::new());
        self.copy_succs.push(Vec::new());
        self.loads.push(Vec::new());
        self.stores.push(Vec::new());
        self.recv_calls.push(Vec::new());
        self.parent.push(id.0);
        id
    }

    /// Union-find lookup with path halving. The identity under the
    /// reference solver, which never links nodes.
    pub(crate) fn find(&mut self, n: NodeId) -> NodeId {
        let mut x = n.0 as usize;
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        NodeId(x as u32)
    }

    /// Read-only union-find lookup (no path compression), for post-solve
    /// passes over `&self`.
    pub(crate) fn find_read(&self, n: usize) -> usize {
        let mut x = n;
        while self.parent[x] as usize != x {
            x = self.parent[x] as usize;
        }
        x
    }

    pub(crate) fn add_loc(&mut self, node: NodeId, loc: LocId) {
        match self.kind {
            SolverKind::Reference => {
                if self.pts[node.0 as usize].insert(loc.index()) {
                    self.worklist.push_back(node);
                }
            }
            SolverKind::Delta => {
                let n = self.find(node);
                let i = n.0 as usize;
                if self.pts[i].contains(loc.index()) {
                    return;
                }
                let was_empty = self.delta[i].is_empty();
                if self.delta[i].insert(loc.index()) && was_empty {
                    self.worklist.push_back(n);
                }
            }
        }
    }

    fn add_copy(&mut self, from: NodeId, to: NodeId) {
        match self.kind {
            SolverKind::Reference => {
                if insert_sorted(&mut self.copy_succs[from.0 as usize], to)
                    && !self.pts[from.0 as usize].is_empty()
                {
                    self.worklist.push_back(from);
                }
            }
            SolverKind::Delta => {
                let f = self.find(from);
                let t = self.find(to);
                if f == t {
                    return;
                }
                if insert_sorted(&mut self.copy_succs[f.0 as usize], t)
                    && !self.rebuilding
                    && !self.pts[f.0 as usize].is_empty()
                {
                    // Everything already propagated out of `f` must reach
                    // the new successor now; `f`'s pending delta follows
                    // through the worklist (`f` is queued whenever its
                    // delta is non-empty). During an incremental rebuild
                    // the boundary scan performs this push for every edge
                    // at once, so nothing is pushed here.
                    self.push_delta_from(f, t);
                }
            }
        }
    }

    /// [`Solver::push_delta`] with the source bits read in place from
    /// `from`'s old set — no clone of the source set (the dominant
    /// allocation on small programs, where `add_copy` fires once per
    /// assignment).
    fn push_delta_from(&mut self, from: NodeId, t: NodeId) -> bool {
        let (fi, ti) = (from.0 as usize, t.0 as usize);
        let was_empty = self.delta[ti].is_empty();
        // `pts` and `delta` are separate vectors, so the source old set,
        // the target old set, and the target delta borrow disjointly.
        let (pts, delta) = (&self.pts, &mut self.delta);
        if !delta[ti].union_with_delta(&pts[fi], &pts[ti]) {
            return false;
        }
        obs::add(obs::Counter::PtaDeltasPushed, 1);
        if was_empty {
            self.worklist.push_back(t);
        }
        true
    }

    /// Folds `bits \ old(t)` into `delta(t)`, enqueueing `t` when its delta
    /// transitions from empty to non-empty. Returns true if anything new
    /// arrived.
    pub(crate) fn push_delta(&mut self, t: NodeId, bits: &BitSet) -> bool {
        let i = t.0 as usize;
        let old = &self.pts[i];
        let delta = &mut self.delta[i];
        let was_empty = delta.is_empty();
        if !delta.union_with_delta(bits, old) {
            return false;
        }
        obs::add(obs::Counter::PtaDeltasPushed, 1);
        if was_empty {
            self.worklist.push_back(t);
        }
        true
    }

    /// Gets or creates the instance of `method` under `ctx`, analyzing its
    /// body on first creation. A suspended instance (constraints dropped
    /// by an incremental rebuild) is revived: re-marked reached and its
    /// body re-registered against the current program.
    pub(crate) fn instance(&mut self, program: &Program, method: MethodId, ctx: Ctx) -> InstId {
        if let Some(&id) = self.inst_index.get(&(method, ctx)) {
            if self.suspended.remove(&id) {
                self.reached_methods.insert(method.index());
                self.process_body(program, id);
            }
            return id;
        }
        let id = InstId(u32::try_from(self.insts.len()).expect("instance overflow"));
        obs::add(obs::Counter::PtaInstances, 1);
        self.insts.push((method, ctx));
        self.inst_index.insert((method, ctx), id);
        self.reached_methods.insert(method.index());
        self.process_body(program, id);
        id
    }

    fn is_ref(&self, program: &Program, v: VarId) -> bool {
        program.var(v).ty.is_ref()
    }

    pub(crate) fn var_node(&mut self, inst: InstId, v: VarId) -> NodeId {
        self.node(NodeKind::Var(inst, v))
    }

    /// The context qualifier an allocation in `inst` receives: the
    /// receiver location, when the policy qualifies the instance's class.
    pub(crate) fn alloc_qualifier(&self, program: &Program, inst: InstId) -> Option<LocId> {
        let (method, ctx) = self.insts[inst.0 as usize];
        let qualifies = match program.method(method).class {
            Some(c) => self.policy.qualifies(program, c),
            None => false,
        };
        match ctx {
            Ctx::Recv(l) if qualifies => Some(l),
            _ => None,
        }
    }

    /// The abstract location for an allocation executed in instance `inst`.
    fn alloc_loc(&mut self, program: &Program, inst: InstId, alloc: AllocId) -> LocId {
        let ctx = self.alloc_qualifier(program, inst);
        self.locs.intern(AbsLoc { alloc, ctx })
    }

    pub(crate) fn process_body(&mut self, program: &Program, inst: InstId) {
        let (method, _) = self.insts[inst.0 as usize];
        let cmds = program.method_cmds(method);
        for cmd_id in cmds {
            let cmd = program.cmd(cmd_id).clone();
            self.process_cmd(program, inst, cmd_id, &cmd);
        }
    }

    /// Registers a load constraint `dst = base.f` and seeds it: the
    /// reference solver re-queues the base node, the delta solver runs the
    /// new constraint against the base's already-propagated set at once
    /// (the pending delta reaches it through the worklist).
    fn register_load(&mut self, base: NodeId, f: FieldId, dst: NodeId) {
        match self.kind {
            SolverKind::Reference => {
                self.loads[base.0 as usize].push((f, dst));
                if !self.pts[base.0 as usize].is_empty() {
                    self.worklist.push_back(base);
                }
            }
            SolverKind::Delta => {
                let b = self.find(base);
                self.loads[b.0 as usize].push((f, dst));
                // Most registrations happen before any fact reaches the
                // base, so check emptiness before paying for the clone.
                if !self.pts[b.0 as usize].is_empty() {
                    let old = self.pts[b.0 as usize].clone();
                    self.eval_load(&old, f, dst);
                }
            }
        }
    }

    /// Registers a store constraint `base.f = src`; seeding mirrors
    /// [`Solver::register_load`].
    fn register_store(&mut self, program: &Program, base: NodeId, f: FieldId, src: NodeId) {
        match self.kind {
            SolverKind::Reference => {
                self.stores[base.0 as usize].push((f, src));
                if !self.pts[base.0 as usize].is_empty() {
                    self.worklist.push_back(base);
                }
            }
            SolverKind::Delta => {
                let b = self.find(base);
                self.stores[b.0 as usize].push((f, src));
                if !self.pts[b.0 as usize].is_empty() {
                    let old = self.pts[b.0 as usize].clone();
                    self.eval_store(program, &old, f, src);
                }
            }
        }
    }

    /// Registers a receiver-indexed call; seeding mirrors
    /// [`Solver::register_load`].
    fn register_recv_call(&mut self, program: &Program, recv: NodeId, call: RecvCall) {
        let idx = self.calls.len();
        self.calls.push(call);
        match self.kind {
            SolverKind::Reference => {
                self.recv_calls[recv.0 as usize].push(idx);
                if !self.pts[recv.0 as usize].is_empty() {
                    self.worklist.push_back(recv);
                }
            }
            SolverKind::Delta => {
                let r = self.find(recv);
                self.recv_calls[r.0 as usize].push(idx);
                if !self.pts[r.0 as usize].is_empty() {
                    let old = self.pts[r.0 as usize].clone();
                    self.eval_recv_call(program, idx, &old);
                }
            }
        }
    }

    pub(crate) fn process_cmd(
        &mut self,
        program: &Program,
        inst: InstId,
        cmd_id: CmdId,
        cmd: &Command,
    ) {
        let contents = program.contents_field;
        match cmd {
            Command::Assign { dst, src: Operand::Var(y) }
                if self.is_ref(program, *dst) && self.is_ref(program, *y) =>
            {
                let from = self.var_node(inst, *y);
                let to = self.var_node(inst, *dst);
                self.add_copy(from, to);
            }
            Command::ReadField { dst, obj, field } if self.is_ref(program, *dst) => {
                let base = self.var_node(inst, *obj);
                let to = self.var_node(inst, *dst);
                self.register_load(base, *field, to);
            }
            Command::WriteField { obj, field, src: Operand::Var(y) }
                if self.is_ref(program, *y) =>
            {
                let base = self.var_node(inst, *obj);
                let from = self.var_node(inst, *y);
                self.register_store(program, base, *field, from);
            }
            Command::ReadGlobal { dst, global } if self.is_ref(program, *dst) => {
                let from = self.node(NodeKind::Global(*global));
                let to = self.var_node(inst, *dst);
                self.add_copy(from, to);
            }
            Command::WriteGlobal { global, src: Operand::Var(y) } if self.is_ref(program, *y) => {
                let from = self.var_node(inst, *y);
                let to = self.node(NodeKind::Global(*global));
                self.add_copy(from, to);
            }
            Command::ReadArray { dst, arr, .. } if self.is_ref(program, *dst) => {
                let base = self.var_node(inst, *arr);
                let to = self.var_node(inst, *dst);
                self.register_load(base, contents, to);
            }
            Command::WriteArray { arr, src: Operand::Var(y), .. } if self.is_ref(program, *y) => {
                let base = self.var_node(inst, *arr);
                let from = self.var_node(inst, *y);
                self.register_store(program, base, contents, from);
            }
            Command::New { dst, alloc, .. } => {
                let loc = self.alloc_loc(program, inst, *alloc);
                let node = self.var_node(inst, *dst);
                self.add_loc(node, loc);
            }
            Command::NewArray { dst, alloc, .. } => {
                let loc = self.alloc_loc(program, inst, *alloc);
                let node = self.var_node(inst, *dst);
                self.add_loc(node, loc);
            }
            Command::Call { dst, callee, args } => match callee {
                Callee::Virtual { receiver, method } => {
                    let recv = self.var_node(inst, *receiver);
                    let call = RecvCall {
                        caller: inst,
                        cmd: cmd_id,
                        fixed_target: None,
                        method_name: method.clone(),
                        dst: *dst,
                        args: args.clone(),
                        seen: BitSet::new(),
                        dispatched: Vec::new(),
                    };
                    self.register_recv_call(program, recv, call);
                }
                Callee::Static { method } => {
                    let callee_m = program.method(*method);
                    if callee_m.class.is_some() {
                        // Direct call to an instance method (constructor
                        // style): the receiver is args[0]. Context depends
                        // on the receiver's locations, so treat it as a
                        // receiver-indexed call with a fixed target.
                        let recv_var = match args.first() {
                            Some(Operand::Var(v)) => *v,
                            _ => return, // receiver null/constant: no-op call
                        };
                        let recv = self.var_node(inst, recv_var);
                        let call = RecvCall {
                            caller: inst,
                            cmd: cmd_id,
                            fixed_target: Some(*method),
                            method_name: callee_m.name.clone(),
                            dst: *dst,
                            args: args[1..].to_vec(),
                            seen: BitSet::new(),
                            dispatched: Vec::new(),
                        };
                        self.register_recv_call(program, recv, call);
                    } else {
                        // Free function: context-insensitive.
                        let callee = self.instance(program, *method, Ctx::None);
                        self.bind_call(program, inst, cmd_id, callee, *method, None, *dst, args);
                    }
                }
            },
            Command::Return { val: Some(Operand::Var(v)) } if self.is_ref(program, *v) => {
                let from = self.var_node(inst, *v);
                let to = self.node(NodeKind::Ret(inst));
                self.add_copy(from, to);
            }
            _ => {}
        }
    }

    /// Wires actual arguments and return value between a call site and a
    /// callee instance. `this_loc` carries the dispatched receiver location
    /// for instance methods.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn bind_call(
        &mut self,
        program: &Program,
        caller: InstId,
        cmd: CmdId,
        callee_inst: InstId,
        callee: MethodId,
        this_loc: Option<LocId>,
        dst: Option<VarId>,
        args: &[Operand],
    ) {
        self.call_edges.insert((cmd, callee));
        let callee_m = program.method(callee).clone();
        let mut params = callee_m.params.iter();
        if callee_m.class.is_some() {
            let this_param = *params.next().expect("instance method has this");
            let this_node = self.var_node(callee_inst, this_param);
            if let Some(l) = this_loc {
                self.add_loc(this_node, l);
            }
        }
        for (param, arg) in params.zip(args.iter()) {
            if let Operand::Var(a) = arg {
                if self.is_ref(program, *a) && self.is_ref(program, *param) {
                    let from = self.var_node(caller, *a);
                    let to = self.var_node(callee_inst, *param);
                    self.add_copy(from, to);
                }
            }
        }
        if let Some(d) = dst {
            if self.is_ref(program, d) {
                let from = self.node(NodeKind::Ret(callee_inst));
                let to = self.var_node(caller, d);
                self.add_copy(from, to);
            }
        }
    }

    /// True if writes into `l.f` are suppressed by an annotation.
    fn is_blocked_cell(&self, program: &Program, l: LocId, f: FieldId) -> bool {
        f == program.contents_field
            && self.options.empty_contents_allocs.contains(&self.locs.get(l).alloc)
    }

    /// Context for a callee dispatched on receiver location `l`.
    pub(crate) fn callee_ctx(&self, program: &Program, callee: MethodId, l: LocId) -> Ctx {
        let Some(class) = program.method(callee).class else {
            return Ctx::None;
        };
        if !self.policy.qualifies(program, class) {
            return Ctx::None;
        }
        if self.locs.depth(l) + 1 > MAX_CONTEXT_DEPTH {
            return Ctx::None;
        }
        Ctx::Recv(l)
    }

    /// Resolves the dispatch target of call `ci` on receiver location `l`,
    /// mirroring [`Solver::eval_recv_call`]'s rules: `None` when the
    /// receiver class is incompatible or the name does not resolve.
    pub(crate) fn dispatch_target(
        &self,
        program: &Program,
        ci: usize,
        l: LocId,
    ) -> Option<MethodId> {
        let class = self.locs.class_of(l, program);
        match self.calls[ci].fixed_target {
            Some(t) => {
                let tc = program.method(t).class.expect("instance method");
                if program.is_subclass(class, tc) {
                    Some(t)
                } else {
                    None
                }
            }
            None => program.resolve_method(class, &self.calls[ci].method_name),
        }
    }

    /// Applies a load constraint `dst = base.f` for each base location in
    /// `bits`.
    fn eval_load(&mut self, bits: &BitSet, f: FieldId, dst: NodeId) {
        for l in bits.iter() {
            let fnode = self.node(NodeKind::Field(LocId(l as u32), f));
            self.add_copy(fnode, dst);
        }
    }

    /// Applies a store constraint `base.f = src` for each base location in
    /// `bits`, unless the target cell is covered by an empty-contents
    /// annotation.
    fn eval_store(&mut self, program: &Program, bits: &BitSet, f: FieldId, src: NodeId) {
        for l in bits.iter() {
            let lid = LocId(l as u32);
            if self.is_blocked_cell(program, lid, f) {
                continue;
            }
            let fnode = self.node(NodeKind::Field(lid, f));
            self.add_copy(src, fnode);
        }
    }

    /// Dispatches receiver-indexed call `ci` on each receiver location in
    /// `bits` not yet seen.
    pub(crate) fn eval_recv_call(&mut self, program: &Program, ci: usize, bits: &BitSet) {
        for l in bits.iter() {
            if self.calls[ci].seen.contains(l) {
                continue;
            }
            self.calls[ci].seen.insert(l);
            let lid = LocId(l as u32);
            let Some(target) = self.dispatch_target(program, ci, lid) else {
                continue;
            };
            let call = self.calls[ci].clone();
            let ctx = self.callee_ctx(program, target, lid);
            let callee_inst = self.instance(program, target, ctx);
            self.calls[ci].dispatched.push((l, callee_inst));
            self.bind_call(
                program,
                call.caller,
                call.cmd,
                callee_inst,
                target,
                Some(lid),
                call.dst,
                &call.args,
            );
        }
    }

    pub(crate) fn solve(&mut self, program: &Program, entry: MethodId) {
        let _span = obs::span(obs::SpanKind::Pta, "points-to solve");
        match self.kind {
            SolverKind::Reference => self.solve_reference(program, entry),
            SolverKind::Delta => self.solve_delta(program, entry),
        }
    }

    /// The textbook worklist: re-propagates a node's *full* points-to set
    /// to every copy successor and re-evaluates every complex constraint
    /// against the full set on each round.
    fn solve_reference(&mut self, program: &Program, entry: MethodId) {
        self.instance(program, entry, Ctx::None);
        while let Some(node) = self.worklist.pop_front() {
            self.propagations += 1;
            if obs::enabled() {
                obs::add(obs::Counter::PtaPropagations, 1);
                obs::observe(obs::Hist::PtaWorklist, self.worklist.len() as u64 + 1);
            }
            let i = node.0 as usize;
            let pts = self.pts[i].clone();
            let succs = self.copy_succs[i].clone();
            for s in succs {
                if self.pts[s.0 as usize].union_with(&pts) {
                    self.worklist.push_back(s);
                }
            }
            let loads = self.loads[i].clone();
            for (f, dst) in loads {
                self.eval_load(&pts, f, dst);
            }
            let stores = self.stores[i].clone();
            for (f, src) in stores {
                self.eval_store(program, &pts, f, src);
            }
            let call_ids = self.recv_calls[i].clone();
            for ci in call_ids {
                self.eval_recv_call(program, ci, &pts);
            }
        }
    }

    /// Difference propagation: each round drains one node's delta, merges
    /// it into the node's old set, pushes only the delta along copy edges,
    /// and re-evaluates complex constraints against the delta alone. A
    /// copy edge that propagates nothing between equal sets triggers lazy
    /// cycle detection ([`Solver::try_collapse`]).
    fn solve_delta(&mut self, program: &Program, entry: MethodId) {
        self.instance(program, entry, Ctx::None);
        self.drain_delta(program);
    }

    /// The delta-propagation pop loop, runnable from any consistent
    /// mid-solve state (initial solve, or after an incremental rebuild's
    /// boundary scan has seeded the worklist).
    pub(crate) fn drain_delta(&mut self, program: &Program) {
        'pop: while let Some(node) = self.worklist.pop_front() {
            let n = self.find(node);
            let i = n.0 as usize;
            if self.delta[i].is_empty() {
                continue; // stale entry: already drained or collapsed away
            }
            let d = std::mem::take(&mut self.delta[i]);
            self.pts[i].union_with(&d);
            self.propagations += 1;
            if let Some(log) = self.drain_log.as_mut() {
                log.push(n);
            }
            if obs::enabled() {
                obs::add(obs::Counter::PtaPropagations, 1);
                obs::observe(obs::Hist::PtaWorklist, self.worklist.len() as u64 + 1);
                obs::observe(obs::Hist::PtaDeltaLen, d.len() as u64);
            }
            let mut succs = std::mem::take(&mut self.scratch_succs);
            succs.clear();
            succs.extend_from_slice(&self.copy_succs[i]);
            let mut collapsed = false;
            for &s_raw in &succs {
                let s = self.find(s_raw);
                if s == n {
                    continue;
                }
                if !self.push_delta(s, &d) && self.try_collapse(n, s) {
                    // `n` was swallowed by a cycle collapse. Its
                    // representative was re-enqueued with the full merged
                    // set (which includes `d`), so the rest of this round
                    // — remaining successors and complex constraints — is
                    // subsumed by the representative's next round.
                    collapsed = true;
                    break;
                }
            }
            self.scratch_succs = succs;
            if collapsed {
                continue 'pop;
            }
            let mut fields = std::mem::take(&mut self.scratch_fields);
            fields.clear();
            fields.extend_from_slice(&self.loads[i]);
            for &(f, dst) in &fields {
                self.eval_load(&d, f, dst);
            }
            fields.clear();
            fields.extend_from_slice(&self.stores[i]);
            for &(f, src) in &fields {
                self.eval_store(program, &d, f, src);
            }
            self.scratch_fields = fields;
            let mut calls = std::mem::take(&mut self.scratch_calls);
            calls.clear();
            calls.extend_from_slice(&self.recv_calls[i]);
            for &ci in &calls {
                self.eval_recv_call(program, ci, &d);
            }
            self.scratch_calls = calls;
        }
    }

    /// Lazy cycle detection, fired when propagating `n → s` added nothing:
    /// if the endpoint sets are equal — the cheap necessary condition for
    /// `n` and `s` to sit on a common copy cycle — probe the copy graph
    /// from `n` and collapse every SCC found. The equality test gates the
    /// probe ledger: an edge whose sets are still unequal stays eligible
    /// (its sets may converge later and then deserve the probe), and the
    /// common near-fixpoint miss costs one word-wise compare instead of a
    /// hash insert. Each (n, s) edge runs the Tarjan probe at most once.
    /// Returns true if `n` itself was collapsed.
    fn try_collapse(&mut self, n: NodeId, s: NodeId) -> bool {
        if !self.sets_equal(n, s) {
            return false;
        }
        if !self.lcd_attempted.insert(((n.0 as u64) << 32) | s.0 as u64) {
            return false;
        }
        self.collapse_cycles_from(n)
    }

    /// Element-wise equality of the full (old ∪ delta) sets, computed word
    /// by word without materializing either union. Word vectors can differ
    /// by trailing zero words, so derived `Eq` is not usable.
    fn sets_equal(&self, a: NodeId, b: NodeId) -> bool {
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        BitSet::pair_union_eq(&self.pts[ai], &self.delta[ai], &self.pts[bi], &self.delta[bi])
    }

    /// The current successors of `v`, union-find-resolved with self-loops
    /// dropped, in deterministic (stored) order.
    fn resolved_succs(&mut self, v: NodeId) -> Vec<NodeId> {
        let raw = self.copy_succs[v.0 as usize].clone();
        let mut out = Vec::with_capacity(raw.len());
        for s in raw {
            let r = self.find(s);
            if r != v {
                out.push(r);
            }
        }
        out
    }

    /// Runs (iterative) Tarjan over the resolved copy graph reachable from
    /// `origin` and collapses every SCC of size ≥ 2 into its minimum-id
    /// member — the deterministic representative choice. Merged state:
    /// points-to sets, deltas, successor lists (re-sorted and dedup'd, so
    /// propagation order stays canonical), and pending complex
    /// constraints. The representative's old set is flushed back into its
    /// delta and the node re-enqueued: every member's constraints must see
    /// the locations the other members had already propagated. Returns
    /// true if `origin` was part of a collapsed SCC.
    fn collapse_cycles_from(&mut self, origin: NodeId) -> bool {
        let root = self.find(origin);
        let mut index: HashMap<NodeId, u32> = HashMap::new();
        let mut lowlink: HashMap<NodeId, u32> = HashMap::new();
        let mut on_stack: HashSet<NodeId> = HashSet::new();
        let mut stack: Vec<NodeId> = Vec::new();
        let mut sccs: Vec<Vec<NodeId>> = Vec::new();
        let mut next_index = 0u32;
        let mut frames: Vec<(NodeId, Vec<NodeId>, usize)> = Vec::new();

        index.insert(root, next_index);
        lowlink.insert(root, next_index);
        next_index += 1;
        stack.push(root);
        on_stack.insert(root);
        let root_succs = self.resolved_succs(root);
        frames.push((root, root_succs, 0));

        while let Some(top) = frames.last_mut() {
            let v = top.0;
            let next_child = if top.2 < top.1.len() {
                let w = top.1[top.2];
                top.2 += 1;
                Some(w)
            } else {
                None
            };
            match next_child {
                Some(w) => {
                    if let Some(&wi) = index.get(&w) {
                        if on_stack.contains(&w) {
                            let low = lowlink[&v].min(wi);
                            lowlink.insert(v, low);
                        }
                    } else {
                        index.insert(w, next_index);
                        lowlink.insert(w, next_index);
                        next_index += 1;
                        stack.push(w);
                        on_stack.insert(w);
                        let succs = self.resolved_succs(w);
                        frames.push((w, succs, 0));
                    }
                }
                None => {
                    frames.pop();
                    let low = lowlink[&v];
                    if let Some(parent) = frames.last() {
                        let pv = parent.0;
                        if low < lowlink[&pv] {
                            lowlink.insert(pv, low);
                        }
                    }
                    if low == index[&v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack.remove(&w);
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        if scc.len() > 1 {
                            sccs.push(scc);
                        }
                    }
                }
            }
        }

        let mut origin_collapsed = false;
        for scc in sccs {
            let rep = *scc.iter().min().expect("non-empty scc");
            obs::add(obs::Counter::PtaSccsCollapsed, 1);
            origin_collapsed |= scc.contains(&root);
            let ri = rep.0 as usize;
            for &m in &scc {
                if m == rep {
                    continue;
                }
                let mi = m.0 as usize;
                self.parent[mi] = rep.0;
                let mpts = std::mem::take(&mut self.pts[mi]);
                self.pts[ri].union_with(&mpts);
                let mdelta = std::mem::take(&mut self.delta[mi]);
                self.delta[ri].union_with(&mdelta);
                let msuccs = std::mem::take(&mut self.copy_succs[mi]);
                self.copy_succs[ri].extend(msuccs);
                let mloads = std::mem::take(&mut self.loads[mi]);
                self.loads[ri].extend(mloads);
                let mstores = std::mem::take(&mut self.stores[mi]);
                self.stores[ri].extend(mstores);
                let mcalls = std::mem::take(&mut self.recv_calls[mi]);
                self.recv_calls[ri].extend(mcalls);
            }
            // Normalize the merged successor list: resolve, drop edges
            // internal to the collapsed cycle, restore sorted-dedup'd
            // order.
            let mut succs = std::mem::take(&mut self.copy_succs[ri]);
            for s in succs.iter_mut() {
                *s = self.find(*s);
            }
            succs.retain(|&s| s != rep);
            succs.sort_unstable();
            succs.dedup();
            self.copy_succs[ri] = succs;
            // Flush old back into delta: one full re-evaluation round for
            // the merged node covers every member-to-member hand-off.
            let old = std::mem::take(&mut self.pts[ri]);
            self.delta[ri].union_with(&old);
            if !self.delta[ri].is_empty() {
                self.worklist.push_back(rep);
            }
        }
        origin_collapsed
    }

    fn finish(self, program: &Program) -> PtaResult {
        self.build_result(program, None)
    }

    /// Publishes the solver's current fixpoint as a [`PtaResult`] without
    /// consuming or mutating the solver, so a resident incremental solver
    /// can snapshot after every edit batch.
    ///
    /// `live` optionally supplies a replacement location table plus a map
    /// from the solver's (append-only) location ids into it; the
    /// incremental solver uses this to drop locations whose allocation
    /// sites edits have removed. `None` publishes every interned location
    /// (the full-solve path).
    ///
    /// The published table is canonically renumbered either way: interning
    /// order is a fixpoint-strategy artifact; the published numbering must
    /// not be.
    pub(crate) fn build_result(
        &self,
        program: &Program,
        live: Option<(LocTable, Vec<Option<LocId>>)>,
    ) -> PtaResult {
        let (mut table, map): (LocTable, Vec<Option<LocId>>) = match live {
            Some(x) => x,
            None => (self.locs.clone(), self.locs.ids().map(Some).collect()),
        };
        let perm = table.canonicalize(program);
        let final_loc = |l: usize| -> LocId {
            let fresh = map[l].expect("dead abstract location survived in a live set");
            perm[fresh.index()]
        };
        let remap = |bs: &BitSet| -> BitSet { bs.iter().map(|l| final_loc(l).index()).collect() };
        let n_nodes = self.nodes.len();
        let reps: Vec<usize> = (0..n_nodes).map(|i| self.find_read(i)).collect();
        let resolved: Vec<BitSet> = (0..n_nodes)
            .map(|i| if reps[i] == i { remap(&self.pts[i]) } else { BitSet::new() })
            .collect();

        // Conflate per-instance variable points-to sets. Collapsed members
        // read their representative's set under their own node kind.
        let mut var_pt: HashMap<VarId, BitSet> = HashMap::new();
        let mut global_pt: Vec<BitSet> = vec![BitSet::new(); program.global_ids().count()];
        let mut heap: HashMap<(LocId, FieldId), BitSet> = HashMap::new();
        for (i, kind) in self.nodes.iter().enumerate() {
            let pts = &resolved[reps[i]];
            if pts.is_empty() {
                continue;
            }
            match kind {
                NodeKind::Var(_, v) => {
                    var_pt.entry(*v).or_default().union_with(pts);
                }
                NodeKind::Global(g) => {
                    global_pt[g.index()].union_with(pts);
                }
                NodeKind::Field(l, f) => {
                    heap.entry((final_loc(l.index()), *f)).or_default().union_with(pts);
                }
                NodeKind::Ret(_) => {}
            }
        }

        // Producer map: which write commands may produce each heap edge.
        let mut producers: HashMap<HeapEdge, Vec<CmdId>> = HashMap::new();
        let empty = BitSet::new();
        let reached: Vec<MethodId> =
            program.method_ids().filter(|m| self.reached_methods.contains(m.index())).collect();
        for &m in &reached {
            for cmd_id in program.method_cmds(m) {
                match program.cmd(cmd_id) {
                    Command::WriteField { obj, field, src: Operand::Var(y) } => {
                        let base_pt = var_pt.get(obj).unwrap_or(&empty).clone();
                        let val_pt = var_pt.get(y).unwrap_or(&empty).clone();
                        record_producers(&mut producers, &base_pt, *field, &val_pt, cmd_id);
                    }
                    Command::WriteArray { arr, src: Operand::Var(y), .. } => {
                        let mut base_pt = var_pt.get(arr).unwrap_or(&empty).clone();
                        // Annotated arrays have no producible contents edges.
                        let blocked: Vec<usize> = base_pt
                            .iter()
                            .filter(|&l| {
                                // `base_pt` is already canonically numbered;
                                // blocked cells are keyed by allocation
                                // site, so resolve through the fresh table.
                                self.options
                                    .empty_contents_allocs
                                    .contains(&table.get(LocId(l as u32)).alloc)
                            })
                            .collect();
                        for l in blocked {
                            base_pt.remove(l);
                        }
                        let val_pt = var_pt.get(y).unwrap_or(&empty).clone();
                        record_producers(
                            &mut producers,
                            &base_pt,
                            program.contents_field,
                            &val_pt,
                            cmd_id,
                        );
                    }
                    Command::WriteGlobal { global, src: Operand::Var(y) } => {
                        let val_pt = var_pt.get(y).unwrap_or(&empty);
                        for t in val_pt.iter() {
                            producers
                                .entry(HeapEdge::Global {
                                    global: *global,
                                    target: LocId(t as u32),
                                })
                                .or_default()
                                .push(cmd_id);
                        }
                    }
                    _ => {}
                }
            }
        }

        // Call graph, conflated over contexts.
        let mut call_targets: HashMap<CmdId, Vec<MethodId>> = HashMap::new();
        let mut callers: HashMap<MethodId, Vec<CmdId>> = HashMap::new();
        for &(cmd, callee) in &self.call_edges {
            call_targets.entry(cmd).or_default().push(callee);
            callers.entry(callee).or_default().push(cmd);
        }
        for v in call_targets.values_mut() {
            v.sort();
            v.dedup();
        }
        for v in callers.values_mut() {
            v.sort();
            v.dedup();
        }

        let loc_class: Vec<ClassId> = table.ids().map(|l| table.class_of(l, program)).collect();
        let mut alloc_locs: HashMap<AllocId, BitSet> = HashMap::new();
        for l in table.ids() {
            alloc_locs.entry(table.get(l).alloc).or_default().insert(l.index());
        }

        PtaResult::new(
            table,
            var_pt,
            global_pt,
            heap,
            producers,
            call_targets,
            callers,
            self.reached_methods.clone(),
            loc_class,
            alloc_locs,
        )
    }
}

fn record_producers(
    producers: &mut HashMap<HeapEdge, Vec<CmdId>>,
    base_pt: &BitSet,
    field: FieldId,
    val_pt: &BitSet,
    cmd: CmdId,
) {
    for b in base_pt.iter() {
        for t in val_pt.iter() {
            producers
                .entry(HeapEdge::Field { base: LocId(b as u32), field, target: LocId(t as u32) })
                .or_default()
                .push(cmd);
        }
    }
}

/// Runs the points-to analysis on `program` from its entry method.
///
/// # Panics
///
/// Panics if `program` has no entry method.
pub fn analyze(program: &Program, policy: ContextPolicy) -> PtaResult {
    analyze_with(program, policy, &PtaOptions::default())
}

/// Which fixpoint engine a solve runs. Both produce the same
/// [`PtaResult`], bit for bit; only the amount of work differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SolverKind {
    /// Difference propagation with online cycle collapsing: nodes keep an
    /// old/delta split, only deltas flow along copy edges, and copy cycles
    /// are merged into a representative node via union-find. The one
    /// production engine ([`crate::IncrementalPta`] needs its state).
    Delta,
    /// The textbook full-set worklist solver, kept as the differential-
    /// testing reference for [`SolverKind::Delta`].
    Reference,
}

/// Extra inputs to the analysis.
#[derive(Clone, Debug, Default)]
pub struct PtaOptions {
    /// Allocation sites whose array `contents` are trusted to stay empty —
    /// the `EMPTY_TABLE` annotation of the paper's `Ann?=Y` configuration.
    /// Stores into (and hence loads out of) the `contents` field of these
    /// arrays are suppressed.
    pub empty_contents_allocs: Vec<tir::AllocId>,
}

/// Runs the points-to analysis with annotations (see [`PtaOptions`]).
///
/// # Panics
///
/// Panics if `program` has no entry method.
pub fn analyze_with(program: &Program, policy: ContextPolicy, options: &PtaOptions) -> PtaResult {
    solve_with(program, policy, options, SolverKind::Delta)
}

/// The differential-testing oracle: [`analyze_with`] run by the textbook
/// full-set worklist engine instead of difference propagation. The result
/// is the same [`PtaResult`], bit for bit (canonical location numbering);
/// only the amount of work differs. The tests hold [`analyze_with`] and
/// [`crate::IncrementalPta`] to it.
///
/// # Panics
///
/// Panics if `program` has no entry method.
pub fn analyze_reference(
    program: &Program,
    policy: ContextPolicy,
    options: &PtaOptions,
) -> PtaResult {
    solve_with(program, policy, options, SolverKind::Reference)
}

fn solve_with(
    program: &Program,
    policy: ContextPolicy,
    options: &PtaOptions,
    kind: SolverKind,
) -> PtaResult {
    let mut solver = Solver::new(policy);
    solver.options = options.clone();
    solver.kind = kind;
    solver.solve(program, program.entry());
    let result = solver.finish(program);
    result.check_types(program);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::parse;

    fn run(src: &str) -> (Program, PtaResult) {
        let p = parse(src).expect("parse");
        let r = analyze(&p, ContextPolicy::Insensitive);
        (p, r)
    }

    #[test]
    fn tracks_direct_assignment() {
        let (p, r) = run(r#"
fn main() {
  var x: Object;
  var y: Object;
  x = new Object @o0;
  y = x;
}
entry main;
"#);
        let main = p.entry();
        let y = p.method(main).locals.iter().copied().find(|&v| p.var(v).name == "y").unwrap();
        let pt = r.pt_var(y);
        assert_eq!(pt.len(), 1);
        let l = LocId(pt.iter().next().unwrap() as u32);
        assert_eq!(r.loc_name(&p, l), "o0");
    }

    #[test]
    fn field_writes_flow_to_reads() {
        let (p, r) = run(r#"
class Box { field item: Object; }
fn main() {
  var b: Box;
  var o: Object;
  var got: Object;
  b = new Box @box0;
  o = new Object @obj0;
  b.item = o;
  got = b.item;
}
entry main;
"#);
        let main = p.entry();
        let got = p.method(main).locals.iter().copied().find(|&v| p.var(v).name == "got").unwrap();
        let names: Vec<String> =
            r.pt_var(got).iter().map(|l| r.loc_name(&p, LocId(l as u32))).collect();
        assert_eq!(names, vec!["obj0"]);
    }

    #[test]
    fn virtual_dispatch_selects_targets_per_loc() {
        let (p, r) = run(r#"
class A {
  method mk(this: A): Object {
    var o: Object;
    o = new Object @fromA;
    return o;
  }
}
class B extends A {
  method mk(this: B): Object {
    var o: Object;
    o = new Object @fromB;
    return o;
  }
}
fn main() {
  var a: A;
  var got: Object;
  a = new B @b0;
  got = call a.mk();
}
entry main;
"#);
        let main = p.entry();
        let got = p.method(main).locals.iter().copied().find(|&v| p.var(v).name == "got").unwrap();
        let names: Vec<String> =
            r.pt_var(got).iter().map(|l| r.loc_name(&p, LocId(l as u32))).collect();
        // Only B::mk is a dispatch target since a only points to b0.
        assert_eq!(names, vec!["fromB"]);
        let a_cls = p.class_by_name("A").unwrap();
        let a_mk = p.method_on(a_cls, "mk").unwrap();
        assert!(!r.is_reached(a_mk));
    }

    #[test]
    fn globals_flow_interprocedurally() {
        let (p, r) = run(r#"
global G: Object;
fn put() {
  var o: Object;
  o = new Object @stored;
  $G = o;
}
fn main() {
  var got: Object;
  call put();
  got = $G;
}
entry main;
"#);
        let g = p.global_by_name("G").unwrap();
        let names: Vec<String> =
            r.pt_global(g).iter().map(|l| r.loc_name(&p, LocId(l as u32))).collect();
        assert_eq!(names, vec!["stored"]);
        let main = p.entry();
        let got = p.method(main).locals.iter().copied().find(|&v| p.var(v).name == "got").unwrap();
        assert_eq!(r.pt_var(got).len(), 1);
    }

    #[test]
    fn arrays_conflate_contents() {
        let (p, r) = run(r#"
fn main() {
  var a: array;
  var x: Object;
  var y: Object;
  a = newarray @arr0 [2];
  x = new Object @o0;
  a[0] = x;
  y = a[1];
}
entry main;
"#);
        let main = p.entry();
        let y = p.method(main).locals.iter().copied().find(|&v| p.var(v).name == "y").unwrap();
        let names: Vec<String> =
            r.pt_var(y).iter().map(|l| r.loc_name(&p, LocId(l as u32))).collect();
        assert_eq!(names, vec!["o0"]);
    }

    #[test]
    fn container_sensitivity_splits_allocations() {
        let src = r#"
class Holder {
  field item: Object;
  method fill(this: Holder) {
    var o: Object;
    o = new Object @inner;
    this.item = o;
  }
}
fn main() {
  var h1: Holder;
  var h2: Holder;
  var a: Object;
  var b: Object;
  h1 = new Holder @h1;
  h2 = new Holder @h2;
  call h1.fill();
  call h2.fill();
  a = h1.item;
  b = h2.item;
}
entry main;
"#;
        let p = parse(src).expect("parse");
        // Insensitive: both reads see the same `inner` loc.
        let r0 = analyze(&p, ContextPolicy::Insensitive);
        let main = p.entry();
        let var =
            |n: &str| p.method(main).locals.iter().copied().find(|&v| p.var(v).name == n).unwrap();
        assert_eq!(r0.pt_var(var("a")), r0.pt_var(var("b")));

        // Container-sensitive on Holder: the allocations split.
        let policy = ContextPolicy::containers_named(&p, &["Holder"]);
        let r1 = analyze(&p, policy);
        let a_names: Vec<String> =
            r1.pt_var(var("a")).iter().map(|l| r1.loc_name(&p, LocId(l as u32))).collect();
        let b_names: Vec<String> =
            r1.pt_var(var("b")).iter().map(|l| r1.loc_name(&p, LocId(l as u32))).collect();
        assert_eq!(a_names, vec!["h1.inner"]);
        assert_eq!(b_names, vec!["h2.inner"]);
    }

    #[test]
    fn producer_map_names_field_writes() {
        let (p, r) = run(r#"
class Box { field item: Object; }
fn main() {
  var b: Box;
  var o: Object;
  b = new Box @box0;
  o = new Object @obj0;
  b.item = o;
}
entry main;
"#);
        let box_cls = p.class_by_name("Box").unwrap();
        let item = p.resolve_field(box_cls, "item").unwrap();
        let (box_loc, obj_loc) = {
            let mut box_loc = None;
            let mut obj_loc = None;
            for l in r.locs().ids() {
                match r.loc_name(&p, l).as_str() {
                    "box0" => box_loc = Some(l),
                    "obj0" => obj_loc = Some(l),
                    _ => {}
                }
            }
            (box_loc.unwrap(), obj_loc.unwrap())
        };
        let edge = HeapEdge::Field { base: box_loc, field: item, target: obj_loc };
        let prods = r.producers(&edge);
        assert_eq!(prods.len(), 1);
        assert!(matches!(p.cmd(prods[0]), Command::WriteField { .. }));
    }

    #[test]
    fn call_graph_records_callers() {
        let (p, r) = run(r#"
fn helper() { return; }
fn main() {
  call helper();
  call helper();
}
entry main;
"#);
        let helper = p.free_function("helper").unwrap();
        assert_eq!(r.callers(helper).len(), 2);
        assert!(r.is_reached(helper));
    }

    #[test]
    fn copy_cycles_collapse_to_one_set() {
        // x → y → z → x via assignments in a loop body: all three share
        // one fixpoint set; the delta solver must collapse the cycle and
        // still agree with the reference solver.
        let src = r#"
fn main() {
  var x: Object;
  var y: Object;
  var z: Object;
  x = new Object @a0;
  while (0 == 0) {
    y = x;
    z = y;
    x = z;
  }
  y = new Object @b0;
}
entry main;
"#;
        let p = parse(src).expect("parse");
        for solver in [SolverKind::Delta, SolverKind::Reference] {
            let r = solve_with(&p, ContextPolicy::Insensitive, &PtaOptions::default(), solver);
            let main = p.entry();
            let var = |n: &str| {
                p.method(main).locals.iter().copied().find(|&v| p.var(v).name == n).unwrap()
            };
            let names = |v| {
                let mut ns: Vec<String> =
                    r.pt_var(v).iter().map(|l| r.loc_name(&p, LocId(l as u32))).collect();
                ns.sort();
                ns
            };
            assert_eq!(names(var("x")), vec!["a0", "b0"], "{solver:?}");
            assert_eq!(names(var("z")), vec!["a0", "b0"], "{solver:?}");
            assert_eq!(names(var("y")), vec!["a0", "b0"], "{solver:?}");
        }
    }

    #[test]
    fn solvers_agree_on_recursive_flows() {
        // Mutual recursion threads a parameter cycle through calls and a
        // field; both solvers must reach the same result.
        let src = r#"
class Cell { field item: Object; }
global OUT: Object;
fn ping(o: Object, c: Cell): Object {
  var r: Object;
  c.item = o;
  r = call pong(o, c);
  return r;
}
fn pong(o: Object, c: Cell): Object {
  var r: Object;
  var got: Object;
  got = c.item;
  if (0 == 0) {
    r = call ping(o, c);
    got = r;
  }
  return got;
}
fn main() {
  var o: Object;
  var c: Cell;
  var out: Object;
  o = new Object @seed;
  c = new Cell @cell;
  out = call ping(o, c);
  $OUT = out;
}
entry main;
"#;
        let p = parse(src).expect("parse");
        let delta = analyze_with(&p, ContextPolicy::Insensitive, &PtaOptions::default());
        let reference = analyze_reference(&p, ContextPolicy::Insensitive, &PtaOptions::default());
        let g = p.global_by_name("OUT").unwrap();
        assert_eq!(delta.pt_global(g), reference.pt_global(g));
        assert!(!delta.pt_global(g).is_empty());
        let names: Vec<String> =
            delta.pt_global(g).iter().map(|l| delta.loc_name(&p, LocId(l as u32))).collect();
        assert_eq!(names, vec!["seed"]);
    }
}
