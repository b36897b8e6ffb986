//! The compiler pipeline (§5): BSP transformation and the two
//! communication-elision optimizations.
//!
//! For every `KimbapWhile`, the compiler:
//!
//! 1. wraps the operator in a do-while on `IsUpdated()` (**DoWhile**);
//! 2. assigns every `Read` a *request level* — 0 if its key is computable
//!    from the active node/edge alone, `k+1` if the key depends on a
//!    level-`k` read — and emits one *request phase* (a sliced copy of the
//!    operator with reads-become-requests, paper §5.1 "split operator and
//!    request") per level, each followed by `RequestSync()`;
//! 3. appends `ReduceSync()` for every map the operator reduces into —
//!    placed, like the paper, at the immediate post-dominator of the
//!    `ParFor` (the statement right after it);
//! 4. **master-elision** (§5.2): if the operator never touches edges, the
//!    iterator is restricted to masters and requests whose key is the
//!    active node are deleted (they are local by construction);
//! 5. **adjacent-elision / pinned mirrors** (§5.2): maps whose reads are
//!    all to the active node or its edge endpoints are pinned — their
//!    requests disappear and a `BroadcastSync()` follows every
//!    `ReduceSync()`. (The paper applies this when *all* reads in the
//!    operator are adjacent; we apply it per map, which degenerates to the
//!    paper's rule for single-map operators like CC-SV and strictly
//!    removes more communication for multi-map operators.)
//!
//! The paper places requests and syncs with a statement-level CFG and its
//! dominator / post-dominator trees. This IR has no jumps, so the
//! statement tree already answers both questions: a statement's
//! dominators are the statements on its prefix path, and a `ParFor`'s
//! immediate post-dominator is the next top-level statement. Slicing and
//! sync placement therefore walk the tree, and no CFG is built.

use crate::classify::{classify_map_reads, ReadDep};
use crate::ir::{
    BinOp, Expr, KimbapWhile, MapDecl, MapId, NodeIterator, Program, Stmt, TopStmt, Var,
};
use crate::lower::{lower, lower_value, Code};
use kimbap_npm::DynReduceOp;
use std::collections::{HashMap, HashSet};

/// Whether the §5.2 optimizations are applied — the OPT / NO-OPT axis of
/// Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Required transformations only (requests + syncs, no elision).
    None,
    /// Master-elision and adjacent-elision (pinned mirrors) enabled.
    #[default]
    Full,
}

/// One request-compute phase: a sliced operator issuing `Request()` calls,
/// followed by `RequestSync()` on `sync_maps`.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestPhase {
    /// The sliced ParFor body.
    pub body: Vec<Stmt>,
    /// `body` lowered to register code — what the engine executes.
    pub code: Code,
    /// Maps to `RequestSync()` after the ParFor.
    pub sync_maps: Vec<MapId>,
}

/// The compiler's certificate that frontier (active-set) execution of a
/// loop is sound: emitted only when skipping nodes whose read inputs did
/// not change in the previous round provably yields the same result as
/// dense iteration. Absent (`None` on [`CompiledLoop::sparse`]) the engine
/// must iterate densely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePlan {
    /// Per read map (sorted by id): how the body depends on its keys,
    /// i.e. which nodes a changed key of that map activates.
    pub read_deps: Vec<(MapId, ReadDep)>,
}

/// A compiled `KimbapWhile`: the BSP do-while of §4.1.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledLoop {
    /// Quiescence map (`IsUpdated()` target).
    pub quiesce_map: MapId,
    /// Node iterator after optimization.
    pub iterator: NodeIterator,
    /// Maps pinned for the duration of the loop (PinMirrors/UnpinMirrors).
    pub pinned_maps: Vec<MapId>,
    /// Request phases, in execution order.
    pub request_phases: Vec<RequestPhase>,
    /// The reduce-compute operator body.
    pub body: Vec<Stmt>,
    /// `body` lowered to register code — what the engine executes.
    pub code: Code,
    /// Maps to `ReduceSync()` after the body.
    pub reduce_maps: Vec<MapId>,
    /// Maps to `BroadcastSync()` after reduce-sync (pinned ∩ reduced).
    pub broadcast_maps: Vec<MapId>,
    /// Sparse-execution certificate, when frontier iteration is sound.
    pub sparse: Option<SparsePlan>,
    /// Host-local fixpoint certificate: every reduce is `x_t <- op(x_t,
    /// x_s)` over an edge `(s, t)` into the loop's one pinned `Min` / `Max`
    /// map, so a host may relax its own masters and mirrors until quiet
    /// before the round's one exchange and still reach the same final maps
    /// (DESIGN.md §10, "Host-local fixpoint"). Never set on a one-shot
    /// `ParFor`.
    pub local_fixpoint: bool,
}

/// A compiled top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledTop {
    /// Initialize a map over masters.
    InitMap {
        /// Target map.
        map: MapId,
        /// Value per node.
        value: Expr,
        /// `value` lowered to register code (see
        /// [`crate::lower::lower_value`]).
        code: Code,
    },
    /// Reset a map to its identity (per-round scratch maps).
    ResetMap {
        /// Target map.
        map: MapId,
    },
    /// Set a scalar reducer.
    SetScalar {
        /// Target reducer.
        reducer: usize,
        /// Value.
        value: u64,
    },
    /// A compiled `KimbapWhile`.
    Loop(CompiledLoop),
    /// A compiled single-shot ParFor (no quiescence loop): request phases,
    /// body, reduce-syncs.
    Once(CompiledLoop),
    /// `do { … } while (reducer sums non-zero)`.
    DoWhileScalar {
        /// Loop body.
        body: Vec<CompiledTop>,
        /// Controlling reducer.
        reducer: usize,
    },
}

/// A fully compiled program, executable by the `kimbap` engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// Program name.
    pub name: &'static str,
    /// Map declarations (same ids as the source program).
    pub maps: Vec<MapDecl>,
    /// Scalar reducer count.
    pub num_reducers: usize,
    /// Virtual register count.
    pub num_vars: usize,
    /// Compiled body.
    pub body: Vec<CompiledTop>,
    /// The optimization level this was compiled with.
    pub opt: OptLevel,
}

/// Compiles a program (see the [module docs](self) for the pipeline).
///
/// # Panics
///
/// Panics on IR no front end produces: an operator that uses
/// [`Expr::EdgeDst`] or [`Expr::EdgeWeight`] outside a `ForEdges` or nests
/// one `ForEdges` in another, or a map initializer that mentions an edge
/// or a variable (see [`crate::lower`]). [`crate::frontend::parse`]
/// reports all of these as [`crate::frontend::ParseError`]s.
pub fn compile(p: &Program, opt: OptLevel) -> CompiledProgram {
    CompiledProgram {
        name: p.name,
        maps: p.maps.clone(),
        num_reducers: p.num_reducers,
        num_vars: p.num_vars,
        body: compile_tops(&p.body, &p.maps, opt),
        opt,
    }
}

fn compile_tops(tops: &[TopStmt], maps: &[MapDecl], opt: OptLevel) -> Vec<CompiledTop> {
    tops.iter()
        .map(|t| match t {
            TopStmt::InitMap { map, value } => CompiledTop::InitMap {
                map: *map,
                value: value.clone(),
                code: lower_value(value),
            },
            TopStmt::SetScalar { reducer, value } => CompiledTop::SetScalar {
                reducer: *reducer,
                value: *value,
            },
            TopStmt::ResetMap { map } => CompiledTop::ResetMap { map: *map },
            TopStmt::ParForOnce { body } => CompiledTop::Once(compile_while(
                &KimbapWhile {
                    quiesce_map: 0, // unused by Once
                    iterator: NodeIterator::AllNodes,
                    body: body.clone(),
                },
                maps,
                opt,
                false,
            )),
            TopStmt::While(w) => CompiledTop::Loop(compile_while(w, maps, opt, true)),
            TopStmt::DoWhileScalar { body, reducer } => CompiledTop::DoWhileScalar {
                body: compile_tops(body, maps, opt),
                reducer: *reducer,
            },
        })
        .collect()
}

/// Facts gathered about an operator body.
#[derive(Debug, Default)]
struct BodyFacts {
    /// Does the operator touch edges (ForEdges or EdgeDst/EdgeWeight)?
    touches_edges: bool,
    /// Per map: are all reads adjacent (Node/EdgeDst keys)?
    map_reads_adjacent: HashMap<MapId, bool>,
    /// Maps reduced into.
    reduced_maps: Vec<MapId>,
    /// Request level of each read, keyed by tree path.
    read_levels: HashMap<Vec<usize>, usize>,
    /// Highest request level.
    max_level: Option<usize>,
    /// Does the operator reduce into a scalar reducer?
    has_reduce_scalar: bool,
}

fn expr_uses_edge(e: &Expr) -> bool {
    match e {
        Expr::EdgeDst | Expr::EdgeWeight => true,
        Expr::Bin(_, a, b) => expr_uses_edge(a) || expr_uses_edge(b),
        _ => false,
    }
}

fn gather_facts(body: &[Stmt]) -> BodyFacts {
    let mut f = BodyFacts::default();
    let mut var_level: HashMap<Var, usize> = HashMap::new();
    fn expr_level(e: &Expr, var_level: &HashMap<Var, usize>) -> usize {
        let mut vs = Vec::new();
        e.vars(&mut vs);
        vs.iter()
            .map(|v| *var_level.get(v).expect("use before def"))
            .max()
            .unwrap_or(0)
    }
    fn walk(
        stmts: &[Stmt],
        path: &mut Vec<usize>,
        ctx_level: usize,
        var_level: &mut HashMap<Var, usize>,
        f: &mut BodyFacts,
    ) {
        for (i, s) in stmts.iter().enumerate() {
            path.push(i);
            match s {
                Stmt::Let { dst, value } => {
                    if expr_uses_edge(value) {
                        f.touches_edges = true;
                    }
                    var_level.insert(*dst, expr_level(value, var_level).max(ctx_level));
                }
                Stmt::Read { dst, map, key } => {
                    if expr_uses_edge(key) {
                        f.touches_edges = true;
                    }
                    let lvl = expr_level(key, var_level).max(ctx_level);
                    f.read_levels.insert(path.clone(), lvl);
                    f.max_level = Some(f.max_level.map_or(lvl, |m: usize| m.max(lvl)));
                    var_level.insert(*dst, lvl + 1);
                    let adj = f.map_reads_adjacent.entry(*map).or_insert(true);
                    *adj = *adj && key.is_adjacent_key();
                }
                Stmt::Reduce { map, key, value } => {
                    if expr_uses_edge(key) || expr_uses_edge(value) {
                        f.touches_edges = true;
                    }
                    if !f.reduced_maps.contains(map) {
                        f.reduced_maps.push(*map);
                    }
                }
                Stmt::Request { .. } => {
                    unreachable!("source programs contain no Request statements")
                }
                Stmt::ReduceScalar { value, .. } => {
                    if expr_uses_edge(value) {
                        f.touches_edges = true;
                    }
                    f.has_reduce_scalar = true;
                }
                Stmt::If { cond, then } => {
                    if expr_uses_edge(cond) {
                        f.touches_edges = true;
                    }
                    let lvl = expr_level(cond, var_level).max(ctx_level);
                    walk(then, path, lvl, var_level, f);
                }
                Stmt::ForEdges { body } => {
                    f.touches_edges = true;
                    walk(body, path, ctx_level, var_level, f);
                }
            }
            path.pop();
        }
    }
    walk(body, &mut Vec::new(), 0, &mut var_level, &mut f);
    f
}

/// Slices the operator into the request phase for `level`: reads below the
/// level survive (their values feed later keys), reads *at* the level
/// become `Request`s, everything else is dropped; dead code is then
/// eliminated. `skip_request` suppresses requests (pinned maps,
/// master-elided keys).
fn slice_requests(
    body: &[Stmt],
    level: usize,
    facts: &BodyFacts,
    skip_request: &dyn Fn(MapId, &Expr) -> bool,
) -> Vec<Stmt> {
    fn go(
        stmts: &[Stmt],
        path: &mut Vec<usize>,
        level: usize,
        facts: &BodyFacts,
        skip: &dyn Fn(MapId, &Expr) -> bool,
    ) -> Vec<Stmt> {
        let mut out = Vec::new();
        for (i, s) in stmts.iter().enumerate() {
            path.push(i);
            match s {
                Stmt::Let { .. } => out.push(s.clone()),
                Stmt::Read { dst, map, key } => {
                    let lvl = facts.read_levels[path.as_slice()];
                    if lvl < level {
                        out.push(Stmt::Read {
                            dst: *dst,
                            map: *map,
                            key: key.clone(),
                        });
                    } else if lvl == level && !skip(*map, key) {
                        out.push(Stmt::Request {
                            map: *map,
                            key: key.clone(),
                        });
                    }
                }
                Stmt::If { cond, then } => {
                    let inner = go(then, path, level, facts, skip);
                    if !inner.is_empty() {
                        out.push(Stmt::If {
                            cond: cond.clone(),
                            then: inner,
                        });
                    }
                }
                Stmt::ForEdges { body } => {
                    let inner = go(body, path, level, facts, skip);
                    if !inner.is_empty() {
                        out.push(Stmt::ForEdges { body: inner });
                    }
                }
                Stmt::Reduce { .. } | Stmt::ReduceScalar { .. } | Stmt::Request { .. } => {}
            }
            path.pop();
        }
        out
    }
    let sliced = go(body, &mut Vec::new(), level, facts, skip_request);
    eliminate_dead(sliced)
}

/// Removes `Let`/`Read` statements whose results feed nothing (single
/// backward pass; sound because programs are SSA and defs precede uses).
fn eliminate_dead(body: Vec<Stmt>) -> Vec<Stmt> {
    fn collect_into(used: &mut HashSet<Var>, exprs: &[&Expr]) {
        let mut tmp = Vec::new();
        for e in exprs {
            e.vars(&mut tmp);
        }
        used.extend(tmp);
    }
    fn go(stmts: Vec<Stmt>, used: &mut HashSet<Var>) -> Vec<Stmt> {
        let mut kept_rev = Vec::new();
        for s in stmts.into_iter().rev() {
            match s {
                Stmt::Let { dst, value } => {
                    if used.contains(&dst) {
                        collect_into(used, &[&value]);
                        kept_rev.push(Stmt::Let { dst, value });
                    }
                }
                Stmt::Read { dst, map, key } => {
                    if used.contains(&dst) {
                        collect_into(used, &[&key]);
                        kept_rev.push(Stmt::Read { dst, map, key });
                    }
                }
                Stmt::Request { map, key } => {
                    collect_into(used, &[&key]);
                    kept_rev.push(Stmt::Request { map, key });
                }
                Stmt::If { cond, then } => {
                    let inner = go(then, used);
                    if !inner.is_empty() {
                        collect_into(used, &[&cond]);
                        kept_rev.push(Stmt::If { cond, then: inner });
                    }
                }
                Stmt::ForEdges { body } => {
                    let inner = go(body, used);
                    if !inner.is_empty() {
                        kept_rev.push(Stmt::ForEdges { body: inner });
                    }
                }
                other @ (Stmt::Reduce { .. } | Stmt::ReduceScalar { .. }) => kept_rev.push(other),
            }
        }
        kept_rev.reverse();
        kept_rev
    }
    let mut used = HashSet::new();
    go(body, &mut used)
}

/// Maps requested in a phase body, in first-use order.
fn requested_maps(body: &[Stmt]) -> Vec<MapId> {
    fn go(stmts: &[Stmt], out: &mut Vec<MapId>) {
        for s in stmts {
            match s {
                Stmt::Request { map, .. }
                    if !out.contains(map) => {
                        out.push(*map);
                    }
                Stmt::If { then, .. } => go(then, out),
                Stmt::ForEdges { body } => go(body, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    go(body, &mut out);
    out
}

/// Decides whether a loop may run over a changed-key frontier instead of
/// all nodes, and if so how changed keys map to nodes that must re-run.
///
/// The conditions are the soundness argument of DESIGN.md §10:
///
/// * `Full` only — NO-OPT plans exist to measure unoptimized communication
///   and stay dense;
/// * every reduced map's operator is idempotent (Min/Max): a skipped
///   node's unchanged contribution is already folded into the canonical
///   value, so omitting the re-reduce cannot change the result. Sum is
///   not idempotent — skipping would under-count;
/// * no scalar reductions: they observe every iteration, skipped or not;
/// * no request phases: request-materialized values change outside the
///   maps' per-key delta tracking;
/// * every read is covered by the delta — under `Masters` all reads are
///   self-keyed master reads (tracked by the owner's master bits); under
///   `AllNodes` every read map must be pinned, so remote-key changes
///   arrive through the broadcast delta. Trans-vertex reads are never
///   covered.
fn sparse_plan(
    opt: OptLevel,
    iterator: NodeIterator,
    pinned_maps: &[MapId],
    request_phases: &[RequestPhase],
    facts: &BodyFacts,
    body: &[Stmt],
    maps: &[MapDecl],
) -> Option<SparsePlan> {
    if opt != OptLevel::Full || facts.has_reduce_scalar || !request_phases.is_empty() {
        return None;
    }
    let idempotent = |op: DynReduceOp| matches!(op, DynReduceOp::Min | DynReduceOp::Max);
    if facts.reduced_maps.iter().any(|&m| !idempotent(maps[m].op)) {
        return None;
    }
    let read_deps = classify_map_reads(body);
    for &(m, dep) in &read_deps {
        let covered = match (iterator, dep) {
            (_, ReadDep::Trans) => false,
            (NodeIterator::Masters, ReadDep::SelfKey) => true,
            (NodeIterator::Masters, ReadDep::Adjacent) => false,
            (NodeIterator::AllNodes, _) => pinned_maps.contains(&m),
        };
        if !covered {
            return None;
        }
    }
    Some(SparsePlan { read_deps })
}

/// Decides whether a loop may repeat its body on each host until the host
/// is quiet before every global exchange (DESIGN.md §10 "Host-local
/// fixpoint"). `true` only when:
///
/// * the loop has a [`SparsePlan`] — `Full`, no scalar reductions, no
///   request phases — and `repeat`s (a one-shot `ParFor` runs once);
/// * it reduces exactly one map, its pinned quiescence map, whose operator
///   is `Min` or `Max`;
/// * every `Reduce` into that map is keyed by one endpoint `t` of the
///   current edge and writes the map's read at the other endpoint `s`, or
///   the operator applied to the reads at both;
/// * every guard around a `Reduce` is a strict-improvement test between
///   the written value and the read at `t` (`Lt` / `Gt` / `Ne`, in the
///   operator's direction), so it only skips reductions that would change
///   nothing.
///
/// Every reduction is then `x_t <- op(x_t, x_s)`, and any fair schedule of
/// such relaxations reaches the same single fixpoint.
fn certify_local_fixpoint(
    w: &KimbapWhile,
    repeat: bool,
    sparse: Option<&SparsePlan>,
    pinned_maps: &[MapId],
    reduced_maps: &[MapId],
    maps: &[MapDecl],
) -> bool {
    let q = w.quiesce_map;
    repeat
        && sparse.is_some()
        && reduced_maps == [q]
        && pinned_maps.contains(&q)
        && matches!(maps[q].op, DynReduceOp::Min | DynReduceOp::Max)
        && relaxes_only(&w.body, q, maps[q].op)
}

/// What a variable or expression holds, as far as [`relaxes_only`] cares:
/// the quiescence map's read at one endpoint of the current edge, or the
/// map's operator applied to the reads at both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Relax {
    At(Endpoint),
    Both,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Node,
    Dst,
}

impl Endpoint {
    fn of(key: &Expr) -> Option<Endpoint> {
        match key {
            Expr::Node => Some(Endpoint::Node),
            Expr::EdgeDst => Some(Endpoint::Dst),
            _ => None,
        }
    }

    fn other(self) -> Endpoint {
        match self {
            Endpoint::Node => Endpoint::Dst,
            Endpoint::Dst => Endpoint::Node,
        }
    }
}

/// The body half of [`certify_local_fixpoint`]: every `Reduce` into `q` is a
/// guarded relaxation along the current edge.
fn relaxes_only(body: &[Stmt], q: MapId, op: DynReduceOp) -> bool {
    fn norm(e: &Expr, vars: &HashMap<Var, Relax>, op: DynReduceOp) -> Option<Relax> {
        match e {
            Expr::Var(v) => vars.get(v).copied(),
            Expr::Bin(BinOp::Min, a, b) if op == DynReduceOp::Min => {
                let ends = (norm(a, vars, op)?, norm(b, vars, op)?);
                matches!(
                    ends,
                    (Relax::At(Endpoint::Node), Relax::At(Endpoint::Dst))
                        | (Relax::At(Endpoint::Dst), Relax::At(Endpoint::Node))
                )
                .then_some(Relax::Both)
            }
            _ => None,
        }
    }
    /// Whether `cond` holds whenever writing `val` into the read at `t`
    /// would change it under `op`.
    fn improves(
        cond: &Expr,
        val: Relax,
        t: Endpoint,
        vars: &HashMap<Var, Relax>,
        op: DynReduceOp,
    ) -> bool {
        let Expr::Bin(cmp, a, b) = cond else {
            return false;
        };
        let (a, b) = (norm(a, vars, op), norm(b, vars, op));
        let (w, tgt) = (Some(val), Some(Relax::At(t)));
        match (cmp, op) {
            (BinOp::Ne, _) => (a == w && b == tgt) || (a == tgt && b == w),
            (BinOp::Lt, DynReduceOp::Min) | (BinOp::Gt, DynReduceOp::Max) => a == w && b == tgt,
            (BinOp::Gt, DynReduceOp::Min) | (BinOp::Lt, DynReduceOp::Max) => a == tgt && b == w,
            _ => false,
        }
    }
    fn walk(
        stmts: &[Stmt],
        q: MapId,
        op: DynReduceOp,
        in_edges: bool,
        guards: &mut Vec<Expr>,
        vars: &mut HashMap<Var, Relax>,
    ) -> bool {
        stmts.iter().all(|s| match s {
            Stmt::Let { dst, value } => {
                if let Some(r) = norm(value, vars, op) {
                    vars.insert(*dst, r);
                }
                true
            }
            Stmt::Read { dst, map, key } => {
                if let (true, Some(end)) = (*map == q, Endpoint::of(key)) {
                    vars.insert(*dst, Relax::At(end));
                }
                true
            }
            Stmt::Reduce { map, key, value } => {
                let Some(t) = Endpoint::of(key).filter(|_| in_edges && *map == q) else {
                    return false;
                };
                let val = match norm(value, vars, op) {
                    Some(v @ Relax::Both) => v,
                    Some(v @ Relax::At(s)) if s == t.other() => v,
                    _ => return false,
                };
                guards.iter().all(|g| improves(g, val, t, vars, op))
            }
            Stmt::If { cond, then } => {
                guards.push(cond.clone());
                let ok = walk(then, q, op, in_edges, guards, vars);
                guards.pop();
                ok
            }
            Stmt::ForEdges { body } => walk(body, q, op, true, guards, vars),
            Stmt::ReduceScalar { .. } | Stmt::Request { .. } => false,
        })
    }
    walk(body, q, op, false, &mut Vec::new(), &mut HashMap::new())
}

fn compile_while(w: &KimbapWhile, maps: &[MapDecl], opt: OptLevel, repeat: bool) -> CompiledLoop {
    let facts = gather_facts(&w.body);

    // §5.2 master elision: no edge accesses -> masters only.
    let iterator = if opt == OptLevel::Full && !facts.touches_edges {
        NodeIterator::Masters
    } else {
        w.iterator
    };

    // §5.2 adjacent elision: pin maps whose reads are all adjacent.
    let pinned_maps: Vec<MapId> = if opt == OptLevel::Full && iterator == NodeIterator::AllNodes {
        let mut v: Vec<MapId> = facts
            .map_reads_adjacent
            .iter()
            .filter(|&(_, &adj)| adj)
            .map(|(&m, _)| m)
            .collect();
        v.sort_unstable();
        v
    } else {
        Vec::new()
    };

    let masters_only = iterator == NodeIterator::Masters;
    let pinned = pinned_maps.clone();
    let skip = move |map: MapId, key: &Expr| -> bool {
        if pinned.contains(&map) {
            return true; // served by pinned mirrors
        }
        // Master elision: requests for the active node are local.
        masters_only && matches!(key, Expr::Node)
    };

    let mut request_phases = Vec::new();
    if let Some(max) = facts.max_level {
        for level in 0..=max {
            let body = slice_requests(&w.body, level, &facts, &skip);
            let sync_maps = requested_maps(&body);
            if !sync_maps.is_empty() {
                let code = lower(&body);
                request_phases.push(RequestPhase {
                    body,
                    code,
                    sync_maps,
                });
            }
        }
    }

    let broadcast_maps: Vec<MapId> = pinned_maps
        .iter()
        .copied()
        .filter(|m| facts.reduced_maps.contains(m))
        .collect();

    let sparse = sparse_plan(
        opt,
        iterator,
        &pinned_maps,
        &request_phases,
        &facts,
        &w.body,
        maps,
    );

    let local_fixpoint = certify_local_fixpoint(
        w,
        repeat,
        sparse.as_ref(),
        &pinned_maps,
        &facts.reduced_maps,
        maps,
    );

    CompiledLoop {
        quiesce_map: w.quiesce_map,
        iterator,
        pinned_maps,
        request_phases,
        body: w.body.clone(),
        code: lower(&w.body),
        reduce_maps: facts.reduced_maps.clone(),
        broadcast_maps,
        sparse,
        local_fixpoint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::BinOp;
    use crate::programs;

    fn sv_loops(opt: OptLevel) -> (CompiledLoop, CompiledLoop) {
        let plan = compile(&programs::cc_sv(), opt);
        let CompiledTop::DoWhileScalar { body, .. } = &plan.body[1] else {
            panic!("expected do-while");
        };
        let CompiledTop::Loop(hook) = &body[1] else {
            panic!("expected hook loop");
        };
        let CompiledTop::Loop(shortcut) = &body[2] else {
            panic!("expected shortcut loop");
        };
        (hook.clone(), shortcut.clone())
    }

    #[test]
    fn optimized_cc_sv_matches_fig8() {
        let (hook, shortcut) = sv_loops(OptLevel::Full);

        // Hook (Fig. 8 left): pinned mirrors, no request phases, broadcast
        // after reduce-sync, all nodes iterated.
        assert_eq!(hook.iterator, NodeIterator::AllNodes);
        assert_eq!(hook.pinned_maps, vec![0]);
        assert!(hook.request_phases.is_empty());
        assert_eq!(hook.reduce_maps, vec![0]);
        assert_eq!(hook.broadcast_maps, vec![0]);

        // Shortcut (Fig. 8 right): masters only, exactly one request phase
        // (the first was elided), requesting `parent(node)`'s value.
        assert_eq!(shortcut.iterator, NodeIterator::Masters);
        assert!(shortcut.pinned_maps.is_empty());
        assert_eq!(shortcut.request_phases.len(), 1);
        let phase = &shortcut.request_phases[0];
        assert_eq!(phase.sync_maps, vec![0]);
        // Phase body: Read parent(node) into v0; Request parent(v0).
        assert_eq!(phase.body.len(), 2);
        assert!(matches!(&phase.body[0], Stmt::Read { key: Expr::Node, .. }));
        assert!(matches!(&phase.body[1], Stmt::Request { key: Expr::Var(0), .. }));
        assert!(shortcut.broadcast_maps.is_empty());
    }

    #[test]
    fn unoptimized_cc_sv_keeps_requests() {
        let (hook, shortcut) = sv_loops(OptLevel::None);
        // NO-OPT: everything iterates all nodes, nothing pinned, every read
        // generates requests.
        assert_eq!(hook.iterator, NodeIterator::AllNodes);
        assert!(hook.pinned_maps.is_empty());
        assert_eq!(hook.request_phases.len(), 1); // both reads are level 0
        assert!(hook.broadcast_maps.is_empty());

        assert_eq!(shortcut.iterator, NodeIterator::AllNodes);
        // Two phases: request parent(node); then read it, request
        // parent(parent(node)).
        assert_eq!(shortcut.request_phases.len(), 2);
        assert!(matches!(
            &shortcut.request_phases[0].body[0],
            Stmt::Request { key: Expr::Node, .. }
        ));
    }

    #[test]
    fn cc_lp_is_fully_pinned_when_optimized() {
        let plan = compile(&programs::cc_lp(), OptLevel::Full);
        let CompiledTop::Loop(lp) = &plan.body[1] else {
            panic!()
        };
        assert_eq!(lp.pinned_maps, vec![0]);
        assert!(lp.request_phases.is_empty());
        assert_eq!(lp.broadcast_maps, vec![0]);

        let noopt = compile(&programs::cc_lp(), OptLevel::None);
        let CompiledTop::Loop(lp0) = &noopt.body[1] else {
            panic!()
        };
        assert_eq!(lp0.request_phases.len(), 1);
        assert!(lp0.pinned_maps.is_empty());
    }

    #[test]
    fn mis_phase2_gets_master_elision() {
        let plan = compile(&programs::mis(), OptLevel::Full);
        let CompiledTop::DoWhileScalar { body, .. } = &plan.body[1] else {
            panic!()
        };
        // phase2 is the third entry (after SetScalar and ResetMap it's
        // index 3; ParForOnce order: phase1@2, phase2@3, phase3@4, count@5).
        let CompiledTop::Once(p2) = &body[3] else {
            panic!()
        };
        assert_eq!(p2.iterator, NodeIterator::Masters);
        assert!(p2.request_phases.is_empty(), "all keys are the active node");
        let CompiledTop::Once(count) = &body[5] else {
            panic!()
        };
        assert_eq!(count.iterator, NodeIterator::Masters);
    }

    #[test]
    fn dead_code_elimination_drops_unused_reads() {
        // Body: read a (used only by dropped reduce), read b, reduce keyed
        // by b. Slicing level 0 must request both; the phase for level 0
        // keeps no reads at all.
        let body = vec![
            Stmt::Read { dst: 0, map: 0, key: Expr::Node },
            Stmt::Read { dst: 1, map: 0, key: Expr::EdgeDst },
            Stmt::Reduce { map: 0, key: Expr::Var(1), value: Expr::Var(0) },
        ];
        let facts = gather_facts(&body);
        let sliced = slice_requests(&body, 0, &facts, &|_, _| false);
        assert!(sliced
            .iter()
            .all(|s| matches!(s, Stmt::Request { .. })));
        assert_eq!(sliced.len(), 2);
    }

    #[test]
    fn request_levels_follow_dependencies() {
        // read a(Node) -> read b(a) -> read c(b): levels 0, 1, 2.
        let body = vec![
            Stmt::Read { dst: 0, map: 0, key: Expr::Node },
            Stmt::Read { dst: 1, map: 0, key: Expr::Var(0) },
            Stmt::Read { dst: 2, map: 0, key: Expr::Var(1) },
        ];
        let facts = gather_facts(&body);
        assert_eq!(facts.max_level, Some(2));
        assert_eq!(facts.read_levels[&vec![0]], 0);
        assert_eq!(facts.read_levels[&vec![1]], 1);
        assert_eq!(facts.read_levels[&vec![2]], 2);
    }

    #[test]
    fn condition_context_raises_level() {
        // A read guarded by a condition on a level-0 read's value can only
        // be requested once the condition is evaluable.
        let body = vec![
            Stmt::Read { dst: 0, map: 0, key: Expr::Node },
            Stmt::If {
                cond: Expr::bin(BinOp::Gt, Expr::Var(0), Expr::Const(0)),
                then: vec![Stmt::Read { dst: 1, map: 1, key: Expr::Node }],
            },
        ];
        let facts = gather_facts(&body);
        assert_eq!(facts.read_levels[&vec![1, 0]], 1);
    }

    fn loops_of(body: &[CompiledTop]) -> Vec<&CompiledLoop> {
        let mut out = Vec::new();
        for t in body {
            match t {
                CompiledTop::Loop(l) => out.push(l),
                CompiledTop::DoWhileScalar { body, .. } => out.extend(loops_of(body)),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn sparse_plan_certifies_cc_lp_only_under_full_opt() {
        // CC-LP under Full: one idempotent (Min) map, pinned, no request
        // phases, adjacent reads -> sparse execution is sound.
        let plan = compile(&programs::cc_lp(), OptLevel::Full);
        let CompiledTop::Loop(lp) = &plan.body[1] else {
            panic!()
        };
        assert_eq!(
            lp.sparse,
            Some(SparsePlan {
                read_deps: vec![(0, ReadDep::Adjacent)]
            })
        );
        // NO-OPT keeps request phases and nothing pinned -> dense.
        let noopt = compile(&programs::cc_lp(), OptLevel::None);
        let CompiledTop::Loop(lp0) = &noopt.body[1] else {
            panic!()
        };
        assert_eq!(lp0.sparse, None);
    }

    #[test]
    fn trans_and_scalar_operators_stay_dense() {
        // CC-SV: the hook counts work in a scalar reducer and reduces
        // through a computed key; the shortcut reads parent(parent(n)).
        let (hook, shortcut) = sv_loops(OptLevel::Full);
        assert_eq!(hook.sparse, None);
        assert_eq!(shortcut.sparse, None);
        // CC-SCLP: every loop carries a scalar work counter.
        let sclp = compile(&programs::cc_sclp(), OptLevel::Full);
        for l in loops_of(&sclp.body) {
            assert_eq!(l.sparse, None, "CC-SCLP loop must stay dense");
        }
    }

    #[test]
    fn non_idempotent_reduction_stays_dense() {
        // A Sum-reduced map forbids skipping: a skipped node's contribution
        // from the previous round is not re-folded, so totals would drift.
        let p = Program {
            name: "sum-loop",
            maps: vec![MapDecl {
                op: kimbap_npm::DynReduceOp::Sum,
                name: "acc",
            }],
            num_reducers: 0,
            num_vars: 1,
            body: vec![TopStmt::While(KimbapWhile {
                quiesce_map: 0,
                iterator: NodeIterator::AllNodes,
                body: vec![Stmt::ForEdges {
                    body: vec![
                        Stmt::Read {
                            dst: 0,
                            map: 0,
                            key: Expr::EdgeDst,
                        },
                        Stmt::Reduce {
                            map: 0,
                            key: Expr::Node,
                            value: Expr::Var(0),
                        },
                    ],
                }],
            })],
        };
        let plan = compile(&p, OptLevel::Full);
        let CompiledTop::Loop(l) = &plan.body[0] else {
            panic!()
        };
        assert!(l.request_phases.is_empty(), "adjacent reads are pinned");
        assert_eq!(l.sparse, None);
    }

    /// CC-LP's loop with its edge body replaced by `edge`.
    fn lp_with_edge_body(op: kimbap_npm::DynReduceOp, edge: Vec<Stmt>) -> Program {
        let mut p = programs::cc_lp();
        p.maps[0].op = op;
        p.num_vars = 4;
        let TopStmt::While(w) = &mut p.body[1] else {
            panic!("cc-lp's second statement is its loop")
        };
        w.body = vec![
            Stmt::Read {
                dst: 0,
                map: 0,
                key: Expr::Node,
            },
            Stmt::ForEdges { body: edge },
        ];
        p
    }

    fn certified(p: &Program, opt: OptLevel) -> Vec<bool> {
        loops_of(&compile(p, opt).body)
            .iter()
            .map(|l| l.local_fixpoint)
            .collect()
    }

    fn read_dst(dst: usize) -> Stmt {
        Stmt::Read {
            dst,
            map: 0,
            key: Expr::EdgeDst,
        }
    }

    fn guarded(cond: Expr, key: Expr, value: Expr) -> Stmt {
        Stmt::If {
            cond,
            then: vec![Stmt::Reduce { map: 0, key, value }],
        }
    }

    #[test]
    fn local_fixpoint_certifies_cc_lp_under_full_opt_only() {
        assert_eq!(certified(&programs::cc_lp(), OptLevel::Full), [true]);
        assert_eq!(certified(&programs::cc_lp(), OptLevel::None), [false]);
        // A one-shot ParFor never repeats, whatever its body.
        let (hook, shortcut) = sv_loops(OptLevel::Full);
        assert!(!hook.local_fixpoint && !shortcut.local_fixpoint);
    }

    #[test]
    fn local_fixpoint_refuses_scalar_trans_and_phase_programs() {
        // CC-SCLP's LP loop counts work in a scalar reducer; its shortcut
        // reads label(label(n)).
        assert_eq!(certified(&programs::cc_sclp(), OptLevel::Full), [false, false]);
        // MIS runs one-shot phases over three maps, one of them Sum.
        let mis = compile(&programs::mis(), OptLevel::Full);
        fn any_certified(body: &[CompiledTop]) -> bool {
            body.iter().any(|t| match t {
                CompiledTop::Loop(l) | CompiledTop::Once(l) => l.local_fixpoint,
                CompiledTop::DoWhileScalar { body, .. } => any_certified(body),
                _ => false,
            })
        }
        assert!(!any_certified(&mis.body));
    }

    #[test]
    fn local_fixpoint_accepts_only_improvement_guards() {
        use kimbap_npm::DynReduceOp::{Max, Min};
        let lt = |a, b| Expr::bin(BinOp::Lt, Expr::Var(a), Expr::Var(b));
        let gt = |a, b| Expr::bin(BinOp::Gt, Expr::Var(a), Expr::Var(b));
        let ne = |a, b| Expr::bin(BinOp::Ne, Expr::Var(a), Expr::Var(b));
        let push = |cond| vec![read_dst(1), guarded(cond, Expr::EdgeDst, Expr::Var(0))];
        let pull = |cond| vec![read_dst(1), guarded(cond, Expr::Node, Expr::Var(1))];
        let cases: Vec<(&str, Program, bool)> = vec![
            ("push, v0 < v1", lp_with_edge_body(Min, push(lt(0, 1))), true),
            ("push, v1 > v0", lp_with_edge_body(Min, push(gt(1, 0))), true),
            ("push, v0 != v1", lp_with_edge_body(Min, push(ne(0, 1))), true),
            ("push max, v0 > v1", lp_with_edge_body(Max, push(gt(0, 1))), true),
            ("pull, v1 < v0", lp_with_edge_body(Min, pull(lt(1, 0))), true),
            (
                "pull min(v0, v1), unguarded",
                lp_with_edge_body(
                    Min,
                    vec![
                        read_dst(1),
                        Stmt::Reduce {
                            map: 0,
                            key: Expr::Node,
                            value: Expr::bin(BinOp::Min, Expr::Var(0), Expr::Var(1)),
                        },
                    ],
                ),
                true,
            ),
            // Wrong direction: skips exactly the reductions that matter.
            ("push min, v0 > v1", lp_with_edge_body(Min, push(gt(0, 1))), false),
            ("push max, v0 < v1", lp_with_edge_body(Max, push(lt(0, 1))), false),
            (
                "guard v0 == 7",
                lp_with_edge_body(
                    Min,
                    vec![
                        read_dst(1),
                        Stmt::If {
                            cond: Expr::bin(BinOp::Eq, Expr::Var(0), Expr::Const(7)),
                            then: vec![guarded(lt(0, 1), Expr::EdgeDst, Expr::Var(0))],
                        },
                    ],
                ),
                false,
            ),
            (
                "writes a constant",
                lp_with_edge_body(
                    Min,
                    vec![read_dst(1), guarded(lt(0, 1), Expr::EdgeDst, Expr::Const(0))],
                ),
                false,
            ),
            (
                "writes the target's own read",
                lp_with_edge_body(
                    Min,
                    vec![read_dst(1), guarded(lt(0, 1), Expr::EdgeDst, Expr::Var(1))],
                ),
                false,
            ),
            (
                "Sum map",
                lp_with_edge_body(kimbap_npm::DynReduceOp::Sum, push(lt(0, 1))),
                false,
            ),
        ];
        for (what, p, want) in cases {
            assert_eq!(certified(&p, OptLevel::Full), [want], "{what}");
            assert_eq!(certified(&p, OptLevel::None), [false], "{what} at NO-OPT");
        }
    }

    /// One line per compiled step: a loop's iterator, its pinned, reduced
    /// and broadcast maps, its request-phase count and both certificates.
    fn skeleton(tops: &[CompiledTop], depth: usize, out: &mut Vec<String>) {
        let pad = "  ".repeat(depth);
        for t in tops {
            let line = match t {
                CompiledTop::InitMap { map, .. } => format!("init m{map}"),
                CompiledTop::ResetMap { map } => format!("reset m{map}"),
                CompiledTop::SetScalar { reducer, value } => format!("set s{reducer} = {value}"),
                CompiledTop::Loop(l) | CompiledTop::Once(l) => {
                    let head = match t {
                        CompiledTop::Loop(_) => format!("while m{}", l.quiesce_map),
                        _ => "once".to_owned(),
                    };
                    let sparse = l.sparse.as_ref().map(|s| &s.read_deps);
                    format!(
                        "{head} over {:?}: pin {:?}, reduce {:?}, broadcast {:?}, \
                         {} request phase(s), sparse {sparse:?}, local fixpoint {}",
                        l.iterator,
                        l.pinned_maps,
                        l.reduce_maps,
                        l.broadcast_maps,
                        l.request_phases.len(),
                        l.local_fixpoint,
                    )
                }
                CompiledTop::DoWhileScalar { body, reducer } => {
                    out.push(format!("{pad}do while s{reducer}"));
                    skeleton(body, depth + 1, out);
                    continue;
                }
            };
            out.push(format!("{pad}{line}"));
        }
    }

    #[test]
    fn every_built_in_plan_keeps_its_skeleton() {
        let mut got = Vec::new();
        for (name, p) in [
            ("cc-sv", programs::cc_sv()),
            ("cc-lp", programs::cc_lp()),
            ("cc-sclp", programs::cc_sclp()),
            ("mis", programs::mis()),
            ("louvain", programs::louvain_sketch()),
            ("leiden", programs::leiden_sketch()),
            ("msf", programs::msf_sketch()),
        ] {
            for opt in [OptLevel::Full, OptLevel::None] {
                got.push(format!("{name} at {opt:?}"));
                skeleton(&compile(&p, opt).body, 1, &mut got);
            }
        }
        let want = [
        "cc-sv at Full",
        "  init m0",
        "  do while s0",
        "    set s0 = 0",
        "    while m0 over AllNodes: pin [0], reduce [0], broadcast [0], 0 request phase(s), sparse None, local fixpoint false",
        "    while m0 over Masters: pin [], reduce [0], broadcast [], 1 request phase(s), sparse None, local fixpoint false",
        "cc-sv at None",
        "  init m0",
        "  do while s0",
        "    set s0 = 0",
        "    while m0 over AllNodes: pin [], reduce [0], broadcast [], 1 request phase(s), sparse None, local fixpoint false",
        "    while m0 over AllNodes: pin [], reduce [0], broadcast [], 2 request phase(s), sparse None, local fixpoint false",
        "cc-lp at Full",
        "  init m0",
        "  while m0 over AllNodes: pin [0], reduce [0], broadcast [0], 0 request phase(s), sparse Some([(0, Adjacent)]), local fixpoint true",
        "cc-lp at None",
        "  init m0",
        "  while m0 over AllNodes: pin [], reduce [0], broadcast [], 1 request phase(s), sparse None, local fixpoint false",
        "cc-sclp at Full",
        "  init m0",
        "  do while s0",
        "    set s0 = 0",
        "    while m0 over AllNodes: pin [0], reduce [0], broadcast [0], 0 request phase(s), sparse None, local fixpoint false",
        "    while m0 over Masters: pin [], reduce [0], broadcast [], 1 request phase(s), sparse None, local fixpoint false",
        "cc-sclp at None",
        "  init m0",
        "  do while s0",
        "    set s0 = 0",
        "    while m0 over AllNodes: pin [], reduce [0], broadcast [], 1 request phase(s), sparse None, local fixpoint false",
        "    while m0 over AllNodes: pin [], reduce [0], broadcast [], 2 request phase(s), sparse None, local fixpoint false",
        "mis at Full",
        "  once over AllNodes: pin [], reduce [0], broadcast [], 0 request phase(s), sparse None, local fixpoint false",
        "  do while s0",
        "    set s0 = 0",
        "    reset m2",
        "    once over AllNodes: pin [0, 1], reduce [2], broadcast [], 0 request phase(s), sparse Some([(0, Adjacent), (1, Adjacent)]), local fixpoint false",
        "    once over Masters: pin [], reduce [1], broadcast [], 0 request phase(s), sparse Some([(0, SelfKey), (1, SelfKey), (2, SelfKey)]), local fixpoint false",
        "    once over AllNodes: pin [1], reduce [1], broadcast [1], 0 request phase(s), sparse Some([(1, Adjacent)]), local fixpoint false",
        "    once over Masters: pin [], reduce [], broadcast [], 0 request phase(s), sparse None, local fixpoint false",
        "mis at None",
        "  once over AllNodes: pin [], reduce [0], broadcast [], 0 request phase(s), sparse None, local fixpoint false",
        "  do while s0",
        "    set s0 = 0",
        "    reset m2",
        "    once over AllNodes: pin [], reduce [2], broadcast [], 3 request phase(s), sparse None, local fixpoint false",
        "    once over AllNodes: pin [], reduce [1], broadcast [], 2 request phase(s), sparse None, local fixpoint false",
        "    once over AllNodes: pin [], reduce [1], broadcast [], 2 request phase(s), sparse None, local fixpoint false",
        "    once over AllNodes: pin [], reduce [], broadcast [], 1 request phase(s), sparse None, local fixpoint false",
        "louvain at Full",
        "  init m0",
        "  while m0 over AllNodes: pin [0], reduce [0], broadcast [0], 1 request phase(s), sparse None, local fixpoint false",
        "  while m0 over AllNodes: pin [0], reduce [], broadcast [], 0 request phase(s), sparse None, local fixpoint false",
        "louvain at None",
        "  init m0",
        "  while m0 over AllNodes: pin [], reduce [0], broadcast [], 2 request phase(s), sparse None, local fixpoint false",
        "  while m0 over AllNodes: pin [], reduce [], broadcast [], 1 request phase(s), sparse None, local fixpoint false",
        "leiden at Full",
        "  init m0",
        "  while m0 over AllNodes: pin [0], reduce [0], broadcast [0], 1 request phase(s), sparse None, local fixpoint false",
        "  while m0 over AllNodes: pin [0], reduce [], broadcast [], 0 request phase(s), sparse None, local fixpoint false",
        "  while m2 over AllNodes: pin [2], reduce [2], broadcast [2], 1 request phase(s), sparse None, local fixpoint false",
        "leiden at None",
        "  init m0",
        "  while m0 over AllNodes: pin [], reduce [0], broadcast [], 2 request phase(s), sparse None, local fixpoint false",
        "  while m0 over AllNodes: pin [], reduce [], broadcast [], 1 request phase(s), sparse None, local fixpoint false",
        "  while m2 over AllNodes: pin [], reduce [2], broadcast [], 2 request phase(s), sparse None, local fixpoint false",
        "msf at Full",
        "  init m0",
        "  while m0 over AllNodes: pin [0], reduce [1], broadcast [], 0 request phase(s), sparse Some([(0, Adjacent)]), local fixpoint false",
        "  while m0 over Masters: pin [], reduce [0], broadcast [], 1 request phase(s), sparse None, local fixpoint false",
        "  while m0 over Masters: pin [], reduce [0], broadcast [], 1 request phase(s), sparse None, local fixpoint false",
        "msf at None",
        "  init m0",
        "  while m0 over AllNodes: pin [], reduce [1], broadcast [], 1 request phase(s), sparse None, local fixpoint false",
        "  while m0 over AllNodes: pin [], reduce [0], broadcast [], 2 request phase(s), sparse None, local fixpoint false",
        "  while m0 over AllNodes: pin [], reduce [0], broadcast [], 2 request phase(s), sparse None, local fixpoint false",
        ];
        assert_eq!(got, want);
    }
}
