//! Lowering of operator bodies to flat register code.
//!
//! The paper's compiler emits C++ that calls the node-property map
//! directly, so a compiled operator costs what a hand-written one costs.
//! This reproduction's stand-in for that emission is [`lower`]: every
//! operator body — a tree of [`Stmt`]s over boxed [`Expr`]s — becomes a
//! [`Code`]: a flat sequence of three-address [`Op`]s whose operands are
//! all register indices, executed by the `kimbap` engine with no `Expr`
//! or `Stmt` in sight. The `Stmt` body stays beside it for the analyses
//! that want the tree (classification, sparse certification).
//!
//! # Register file
//!
//! One frame of `u64` registers per executing chunk, laid out as
//!
//! ```text
//! r0 .. r(V-1)   the body's variables (Var v lives in register v)
//! rV             the active node's global id   (filled iff uses_node)
//! rV+1           the edge destination's global id (filled iff uses_dst)
//! rV+2           the edge weight               (filled iff uses_weight)
//! rV+3 ..        constants, scalar-reducer accumulators and expression
//!                temporaries, in first-use order
//! ```
//!
//! Constants are loaded once per frame ([`Code::consts`]) and never
//! written again; accumulators ([`Code::scalars`]) start at zero and are
//! flushed into their reducers when the frame retires; temporaries are
//! reused from statement to statement.
//!
//! # Keys
//!
//! A map access keyed by [`Expr::Node`] or [`Expr::EdgeDst`] is
//! *positional*: the executor already holds the local id of that proxy, so
//! the access lowers to a `…Node` / `…Dst` op that goes through the map's
//! local-id accessors and never materializes a global id. Only computed
//! keys (`…At`) carry a global id in a register. The three reserved
//! registers are therefore filled only when the body uses `node`, `dst` or
//! `weight` as a *value*, and a body that never mentions `weight` iterates
//! edge targets without decoding weights.
//!
//! # Control flow
//!
//! `If` lowers to [`Op::SkipUnless`], a fused compare-and-skip ([`Test`])
//! over the next `skip` ops; `ForEdges` lowers to an [`Op::ForEdges`]
//! header over the next `len` ops, which contain no further header (edge
//! loops do not nest). Two peepholes serve the shapes every program in
//! [`crate::programs`] has: the edge-body opening "read the neighbour,
//! test it" fuses into [`Op::ReadDstSkipUnless`], and a guarded block
//! that opens with a scalar-reducer contribution (`if … { work_done += 1;
//! … }`) folds that contribution into its test ([`Test::count`]).

use crate::ir::{BinOp, Expr, ReducerId, Stmt, Var};
use std::fmt;

/// Index of a register in an operator's frame.
pub type Reg = u32;

/// The comparison of a [`Op::SkipUnless`]. `a > b` lowers to `b < a`, and
/// a condition that is not a comparison to `cond != 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `a < b`.
    Lt,
    /// `a == b`.
    Eq,
    /// `a != b`.
    Ne,
}

impl Cmp {
    /// Evaluates the comparison.
    #[inline(always)]
    pub fn test(self, a: u64, b: u64) -> bool {
        match self {
            Cmp::Lt => a < b,
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
        }
    }
}

/// A fused compare-and-skip: the ops of the guarded block follow, and are
/// skipped unless `a <cmp> b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Test {
    /// The comparison.
    pub cmp: Cmp,
    /// Left operand.
    pub a: Reg,
    /// Right operand.
    pub b: Reg,
    /// Ops to skip when the comparison fails.
    pub skip: u32,
    /// `(acc, val)`: when the comparison holds, `acc += val` (wrapping)
    /// before the block runs — the block's leading [`Op::Acc`], folded in.
    pub count: Option<(Reg, Reg)>,
}

/// The arithmetic of an [`Op::Bin`].
#[inline(always)]
pub fn apply_bin(op: BinOp, a: u64, b: u64) -> u64 {
    match op {
        BinOp::Lt => (a < b) as u64,
        BinOp::Gt => (a > b) as u64,
        BinOp::Ne => (a != b) as u64,
        BinOp::Eq => (a == b) as u64,
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Min => a.min(b),
    }
}

/// One lowered operation. `…Node` ops address the active node's proxy and
/// `…Dst` ops the current edge destination's, both by local id; `…At` ops
/// address the global id held in register `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst = a <op> b`.
    Bin {
        /// The operation.
        op: BinOp,
        /// Result register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = src`.
    Mov {
        /// Result register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = map[node]`.
    ReadNode {
        /// Result register.
        dst: Reg,
        /// Map read.
        map: u32,
    },
    /// `dst = map[dst]`.
    ReadDst {
        /// Result register.
        dst: Reg,
        /// Map read.
        map: u32,
    },
    /// `dst = map[key]` for a computed global id.
    ReadAt {
        /// Result register.
        dst: Reg,
        /// Map read.
        map: u32,
        /// Register holding the global id.
        key: Reg,
    },
    /// `map[node] <- val`.
    ReduceNode {
        /// Map reduced into.
        map: u32,
        /// Value register.
        val: Reg,
    },
    /// `map[dst] <- val`.
    ReduceDst {
        /// Map reduced into.
        map: u32,
        /// Value register.
        val: Reg,
    },
    /// `map[key] <- val` for a computed global id.
    ReduceAt {
        /// Map reduced into.
        map: u32,
        /// Register holding the global id.
        key: Reg,
        /// Value register.
        val: Reg,
    },
    /// `map.request(node)`.
    RequestNode {
        /// Map requested from.
        map: u32,
    },
    /// `map.request(dst)`.
    RequestDst {
        /// Map requested from.
        map: u32,
    },
    /// `map.request(key)` for a computed global id.
    RequestAt {
        /// Map requested from.
        map: u32,
        /// Register holding the global id.
        key: Reg,
    },
    /// `acc += val` (wrapping): a scalar-reducer contribution, kept in the
    /// frame until it retires.
    Acc {
        /// Accumulator register (see [`Code::scalars`]).
        acc: Reg,
        /// Value register.
        val: Reg,
    },
    /// Skips the guarded block unless the test holds.
    SkipUnless(Test),
    /// [`Op::ReadDst`] followed by [`Op::SkipUnless`] in one dispatch; the
    /// read lands in `dst` before the test looks at its operands.
    ReadDstSkipUnless {
        /// Result register of the read.
        dst: Reg,
        /// Map read.
        map: u32,
        /// The test.
        test: Test,
    },
    /// Runs the next `len` ops once per out-edge of the active node, then
    /// continues after them.
    ForEdges {
        /// Length of the edge body.
        len: u32,
    },
}

/// A lowered operator body. Built only by [`lower`] and [`lower_value`],
/// which establish what the executor relies on: every register operand is
/// below [`Code::num_regs`], every skip and edge body ends inside its
/// enclosing block, edge bodies hold no [`Op::ForEdges`], and `…Dst` ops
/// and the `dst` / `weight` registers occur only inside edge bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Code {
    ops: Vec<Op>,
    consts: Vec<(Reg, u64)>,
    scalars: Vec<(ReducerId, Reg)>,
    num_vars: Reg,
    num_regs: Reg,
    uses_node: bool,
    uses_dst: bool,
    uses_weight: bool,
}

impl Code {
    /// The ops, in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Constant registers and their values: loaded when a frame is set up,
    /// never written by an op.
    pub fn consts(&self) -> &[(Reg, u64)] {
        &self.consts
    }

    /// Scalar reducers the body contributes to, each with the accumulator
    /// register its [`Op::Acc`]s add into. Accumulators start at zero.
    pub fn scalars(&self) -> &[(ReducerId, Reg)] {
        &self.scalars
    }

    /// Size of the register frame.
    pub fn num_regs(&self) -> usize {
        self.num_regs as usize
    }

    /// Register receiving the active node's global id when
    /// [`Code::uses_node`].
    pub fn node_reg(&self) -> Reg {
        self.num_vars
    }

    /// Register receiving the edge destination's global id when
    /// [`Code::uses_dst`].
    pub fn dst_reg(&self) -> Reg {
        self.num_vars + 1
    }

    /// Register receiving the edge weight when [`Code::uses_weight`].
    pub fn weight_reg(&self) -> Reg {
        self.num_vars + 2
    }

    /// The body uses the active node's global id as a value.
    pub fn uses_node(&self) -> bool {
        self.uses_node
    }

    /// The body uses the edge destination's global id as a value.
    pub fn uses_dst(&self) -> bool {
        self.uses_dst
    }

    /// The body reads edge weights; when false its edge loops iterate
    /// targets only.
    pub fn uses_weight(&self) -> bool {
        self.uses_weight
    }
}

fn max_var_expr(e: &Expr, max: &mut Option<Var>) {
    match e {
        Expr::Var(v) => *max = (*max).max(Some(*v)),
        Expr::Bin(_, a, b) => {
            max_var_expr(a, max);
            max_var_expr(b, max);
        }
        Expr::Const(_) | Expr::Node | Expr::EdgeDst | Expr::EdgeWeight => {}
    }
}

fn max_var(stmts: &[Stmt], max: &mut Option<Var>) {
    for s in stmts {
        match s {
            Stmt::Let { dst, value } => {
                *max = (*max).max(Some(*dst));
                max_var_expr(value, max);
            }
            Stmt::Read { dst, key, .. } => {
                *max = (*max).max(Some(*dst));
                max_var_expr(key, max);
            }
            Stmt::Reduce { key, value, .. } => {
                max_var_expr(key, max);
                max_var_expr(value, max);
            }
            Stmt::Request { key, .. } => max_var_expr(key, max),
            Stmt::ReduceScalar { value, .. } => max_var_expr(value, max),
            Stmt::If { cond, then } => {
                max_var_expr(cond, max);
                max_var(then, max);
            }
            Stmt::ForEdges { body } => max_var(body, max),
        }
    }
}

fn reg(i: usize) -> Reg {
    Reg::try_from(i).expect("an operator body addressing 2^32 registers cannot be built")
}

struct Lowerer {
    ops: Vec<Op>,
    consts: Vec<(Reg, u64)>,
    scalars: Vec<(ReducerId, Reg)>,
    num_vars: Reg,
    /// Next register never handed out.
    next: Reg,
    /// Temporaries allocated so far; the first `live_temps` are in use by
    /// the statement being lowered.
    temps: Vec<Reg>,
    live_temps: usize,
    uses_node: bool,
    uses_dst: bool,
    uses_weight: bool,
    in_edges: bool,
    /// Index of a just-emitted [`Op::ReadDst`] that an immediately
    /// following test may fuse with: nothing was emitted after it and no
    /// skip lands behind it.
    fusable: Option<usize>,
}

impl Lowerer {
    fn new(num_vars: Reg) -> Self {
        Lowerer {
            ops: Vec::new(),
            consts: Vec::new(),
            scalars: Vec::new(),
            num_vars,
            next: num_vars + 3,
            temps: Vec::new(),
            live_temps: 0,
            uses_node: false,
            uses_dst: false,
            uses_weight: false,
            in_edges: false,
            fusable: None,
        }
    }

    fn fresh(&mut self) -> Reg {
        let r = self.next;
        self.next = reg(r as usize + 1);
        r
    }

    fn temp(&mut self) -> Reg {
        if self.live_temps == self.temps.len() {
            let r = self.fresh();
            self.temps.push(r);
        }
        self.live_temps += 1;
        self.temps[self.live_temps - 1]
    }

    fn constant(&mut self, value: u64) -> Reg {
        if let Some(&(r, _)) = self.consts.iter().find(|&&(_, v)| v == value) {
            return r;
        }
        let r = self.fresh();
        self.consts.push((r, value));
        r
    }

    fn accumulator(&mut self, reducer: ReducerId) -> Reg {
        if let Some(&(_, r)) = self.scalars.iter().find(|&&(id, _)| id == reducer) {
            return r;
        }
        let r = self.fresh();
        self.scalars.push((reducer, r));
        r
    }

    fn emit(&mut self, op: Op) -> usize {
        self.fusable = None;
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// The register holding `e`'s value, emitting ops for nested
    /// operations.
    fn value(&mut self, e: &Expr) -> Reg {
        match e {
            Expr::Const(x) => self.constant(*x),
            Expr::Var(v) => reg(*v),
            Expr::Node => {
                self.uses_node = true;
                self.num_vars
            }
            Expr::EdgeDst => {
                assert!(self.in_edges, "EdgeDst outside ForEdges");
                self.uses_dst = true;
                self.num_vars + 1
            }
            Expr::EdgeWeight => {
                assert!(self.in_edges, "EdgeWeight outside ForEdges");
                self.uses_weight = true;
                self.num_vars + 2
            }
            Expr::Bin(..) => {
                let t = self.temp();
                self.value_into(e, t);
                t
            }
        }
    }

    /// Emits ops leaving `e`'s value in `dst`. Operands are evaluated
    /// before `dst` is written, so `dst` may occur in `e`.
    fn value_into(&mut self, e: &Expr, dst: Reg) {
        if let Expr::Bin(op, a, b) = e {
            let (a, b) = (self.value(a), self.value(b));
            self.emit(Op::Bin { op: *op, dst, a, b });
        } else {
            let src = self.value(e);
            self.emit(Op::Mov { dst, src });
        }
    }

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.stmt(s);
            self.live_temps = 0;
        }
        // A skip patched after this block lands behind its last op.
        self.fusable = None;
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let { dst, value } => self.value_into(value, reg(*dst)),
            Stmt::Read { dst, map, key } => {
                let (dst, map) = (reg(*dst), reg(*map));
                match key {
                    Expr::Node => {
                        self.emit(Op::ReadNode { dst, map });
                    }
                    Expr::EdgeDst => {
                        assert!(self.in_edges, "EdgeDst outside ForEdges");
                        let at = self.emit(Op::ReadDst { dst, map });
                        self.fusable = Some(at);
                    }
                    _ => {
                        let key = self.value(key);
                        self.emit(Op::ReadAt { dst, map, key });
                    }
                }
            }
            Stmt::Reduce { map, key, value } => {
                let map = reg(*map);
                match key {
                    Expr::Node => {
                        let val = self.value(value);
                        self.emit(Op::ReduceNode { map, val });
                    }
                    Expr::EdgeDst => {
                        assert!(self.in_edges, "EdgeDst outside ForEdges");
                        let val = self.value(value);
                        self.emit(Op::ReduceDst { map, val });
                    }
                    _ => {
                        let (key, val) = (self.value(key), self.value(value));
                        self.emit(Op::ReduceAt { map, key, val });
                    }
                }
            }
            Stmt::Request { map, key } => {
                let map = reg(*map);
                match key {
                    Expr::Node => {
                        self.emit(Op::RequestNode { map });
                    }
                    Expr::EdgeDst => {
                        assert!(self.in_edges, "EdgeDst outside ForEdges");
                        self.emit(Op::RequestDst { map });
                    }
                    _ => {
                        let key = self.value(key);
                        self.emit(Op::RequestAt { map, key });
                    }
                }
            }
            Stmt::ReduceScalar { reducer, value } => {
                let val = self.value(value);
                let acc = self.accumulator(*reducer);
                self.emit(Op::Acc { acc, val });
            }
            Stmt::If { cond, then } => {
                let (cmp, a, b) = match cond {
                    Expr::Bin(BinOp::Lt, a, b) => (Cmp::Lt, self.value(a), self.value(b)),
                    Expr::Bin(BinOp::Gt, a, b) => {
                        let (a, b) = (self.value(a), self.value(b));
                        (Cmp::Lt, b, a)
                    }
                    Expr::Bin(BinOp::Eq, a, b) => (Cmp::Eq, self.value(a), self.value(b)),
                    Expr::Bin(BinOp::Ne, a, b) => (Cmp::Ne, self.value(a), self.value(b)),
                    _ => (Cmp::Ne, self.value(cond), self.constant(0)),
                };
                // A block opening with `reducer += <leaf>` counts in its test.
                let (count, then) = match then.split_first() {
                    Some((Stmt::ReduceScalar { reducer, value }, tail))
                        if !matches!(value, Expr::Bin(..)) =>
                    {
                        let val = self.value(value);
                        (Some((self.accumulator(*reducer), val)), tail)
                    }
                    _ => (None, &then[..]),
                };
                self.live_temps = 0;
                let test = Test {
                    cmp,
                    a,
                    b,
                    skip: 0,
                    count,
                };
                // Still set only if the operands emitted nothing.
                let at = match self.fusable.take() {
                    Some(at) => {
                        let Op::ReadDst { dst, map } = self.ops[at] else {
                            unreachable!("fusable marks a ReadDst");
                        };
                        self.ops[at] = Op::ReadDstSkipUnless { dst, map, test };
                        at
                    }
                    None => self.emit(Op::SkipUnless(test)),
                };
                self.block(then);
                let distance = reg(self.ops.len() - at - 1);
                match &mut self.ops[at] {
                    Op::SkipUnless(test) | Op::ReadDstSkipUnless { test, .. } => {
                        test.skip = distance;
                    }
                    _ => unreachable!("patching a skip"),
                }
            }
            Stmt::ForEdges { body } => {
                assert!(!self.in_edges, "ForEdges nested in ForEdges");
                let at = self.emit(Op::ForEdges { len: 0 });
                self.in_edges = true;
                self.block(body);
                self.in_edges = false;
                self.ops[at] = Op::ForEdges {
                    len: reg(self.ops.len() - at - 1),
                };
            }
        }
    }

    fn finish(self) -> Code {
        Code {
            ops: self.ops,
            consts: self.consts,
            scalars: self.scalars,
            num_vars: self.num_vars,
            num_regs: self.next,
            uses_node: self.uses_node,
            uses_dst: self.uses_dst,
            uses_weight: self.uses_weight,
        }
    }
}

/// Lowers an operator body.
///
/// # Panics
///
/// Panics if the body uses [`Expr::EdgeDst`] or [`Expr::EdgeWeight`]
/// outside a [`Stmt::ForEdges`], or nests one `ForEdges` in another — the
/// conditions [`crate::frontend::parse`] rejects with a [`ParseError`]
/// (hand-built IR meets them here, once, instead of on a pool thread in
/// the middle of a run).
///
/// [`ParseError`]: crate::frontend::ParseError
pub fn lower(body: &[Stmt]) -> Code {
    let mut max = None;
    max_var(body, &mut max);
    let mut l = Lowerer::new(max.map_or(0, |v| reg(v + 1)));
    l.block(body);
    l.finish()
}

/// Lowers a per-node value expression (a map initializer) as the body
/// `let v0 = <value>`: after execution the value is in register 0.
///
/// # Panics
///
/// Panics if `value` mentions a variable or an edge: an initializer runs
/// once per node, outside any operator.
pub fn lower_value(value: &Expr) -> Code {
    let mut max = None;
    max_var_expr(value, &mut max);
    assert!(max.is_none(), "a map initializer cannot read variables");
    let mut l = Lowerer::new(1);
    l.value_into(value, 0);
    l.finish()
}

impl fmt::Display for Test {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Test {
            cmp,
            a,
            b,
            skip,
            count,
        } = self;
        write!(f, "unless r{a} {} r{b} skip {skip}", cmp.symbol())?;
        if let Some((acc, val)) = count {
            write!(f, ", counting r{acc} += r{val}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Bin { op, dst, a, b } => {
                let sym = match op {
                    BinOp::Lt => "<",
                    BinOp::Gt => ">",
                    BinOp::Ne => "!=",
                    BinOp::Eq => "==",
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Min => "min",
                };
                write!(f, "r{dst} = r{a} {sym} r{b}")
            }
            Op::Mov { dst, src } => write!(f, "r{dst} = r{src}"),
            Op::ReadNode { dst, map } => write!(f, "r{dst} = m{map}[node]"),
            Op::ReadDst { dst, map } => write!(f, "r{dst} = m{map}[dst]"),
            Op::ReadAt { dst, map, key } => write!(f, "r{dst} = m{map}[@r{key}]"),
            Op::ReduceNode { map, val } => write!(f, "m{map}[node] <- r{val}"),
            Op::ReduceDst { map, val } => write!(f, "m{map}[dst] <- r{val}"),
            Op::ReduceAt { map, key, val } => write!(f, "m{map}[@r{key}] <- r{val}"),
            Op::RequestNode { map } => write!(f, "request m{map}[node]"),
            Op::RequestDst { map } => write!(f, "request m{map}[dst]"),
            Op::RequestAt { map, key } => write!(f, "request m{map}[@r{key}]"),
            Op::Acc { acc, val } => write!(f, "r{acc} += r{val}"),
            Op::SkipUnless(test) => write!(f, "{test}"),
            Op::ReadDstSkipUnless { dst, map, test } => {
                write!(f, "r{dst} = m{map}[dst]; {test}")
            }
            Op::ForEdges { len } => write!(f, "for edges (next {len})"),
        }
    }
}

/// One line for the frame (size, reserved registers in use, constants,
/// accumulators), then one line per op; edge bodies are indented.
impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame: {} regs", self.num_regs)?;
        if self.uses_node {
            write!(f, ", r{} = node", self.node_reg())?;
        }
        if self.uses_dst {
            write!(f, ", r{} = dst", self.dst_reg())?;
        }
        if self.uses_weight {
            write!(f, ", r{} = weight", self.weight_reg())?;
        }
        for (r, v) in &self.consts {
            write!(f, ", r{r} = {v}")?;
        }
        for (id, r) in &self.scalars {
            write!(f, ", r{r} -> reducer {id}")?;
        }
        let mut edge_body_end = 0;
        for (pc, op) in self.ops.iter().enumerate() {
            let indent = if pc < edge_body_end { "  " } else { "" };
            write!(f, "\n{pc:>3}: {indent}{op}")?;
            if let Op::ForEdges { len } = op {
                edge_body_end = pc + 1 + *len as usize;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use crate::transform::{compile, CompiledLoop, CompiledTop, OptLevel};

    /// Every skip and edge body ends inside its enclosing block, edge
    /// bodies hold no header, `dst` ops sit in edge bodies, and every
    /// register is inside the frame.
    fn assert_well_formed(code: &Code) {
        fn block(ops: &[Op], lo: usize, hi: usize, in_edges: bool) {
            let mut pc = lo;
            while pc < hi {
                match ops[pc] {
                    Op::SkipUnless(t) | Op::ReadDstSkipUnless { test: t, .. } => {
                        assert!(pc + 1 + t.skip as usize <= hi, "skip at {pc} leaves its block");
                    }
                    Op::ForEdges { len } => {
                        assert!(!in_edges, "nested edge loop at {pc}");
                        let end = pc + 1 + len as usize;
                        assert!(end <= hi, "edge body at {pc} leaves its block");
                        block(ops, pc + 1, end, true);
                        pc = end;
                        continue;
                    }
                    _ => {}
                }
                if matches!(
                    ops[pc],
                    Op::ReadDst { .. }
                        | Op::ReduceDst { .. }
                        | Op::RequestDst { .. }
                        | Op::ReadDstSkipUnless { .. }
                ) {
                    assert!(in_edges, "dst op at {pc} outside an edge body");
                }
                pc += 1;
            }
        }
        block(code.ops(), 0, code.ops().len(), false);
        let test_regs = |t: Test| {
            let mut regs = vec![t.a, t.b];
            regs.extend(t.count.into_iter().flat_map(|(acc, val)| [acc, val]));
            regs
        };
        for op in code.ops() {
            let regs: Vec<Reg> = match *op {
                Op::Bin { dst, a, b, .. } => vec![dst, a, b],
                Op::Mov { dst, src } => vec![dst, src],
                Op::ReadNode { dst, .. } | Op::ReadDst { dst, .. } => vec![dst],
                Op::ReadAt { dst, key, .. } => vec![dst, key],
                Op::ReduceNode { val, .. } | Op::ReduceDst { val, .. } => vec![val],
                Op::ReduceAt { key, val, .. } => vec![key, val],
                Op::RequestNode { .. } | Op::RequestDst { .. } | Op::ForEdges { .. } => vec![],
                Op::RequestAt { key, .. } => vec![key],
                Op::Acc { acc, val } => vec![acc, val],
                Op::SkipUnless(t) => test_regs(t),
                Op::ReadDstSkipUnless { dst, test, .. } => [vec![dst], test_regs(test)].concat(),
            };
            assert!(
                regs.iter().all(|&r| (r as usize) < code.num_regs()),
                "{op} addresses outside {} regs",
                code.num_regs()
            );
        }
    }

    /// The golden form of a lowering: its listing, checked for
    /// well-formedness on the way.
    fn listing(code: &Code) -> Vec<String> {
        assert_well_formed(code);
        code.to_string().lines().map(str::to_owned).collect()
    }

    fn loops(tops: &[CompiledTop]) -> Vec<&CompiledLoop> {
        let mut out = Vec::new();
        for t in tops {
            match t {
                CompiledTop::Loop(l) | CompiledTop::Once(l) => out.push(l),
                CompiledTop::DoWhileScalar { body, .. } => out.extend(loops(body)),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn cc_sv_lowers_to_the_expected_ops() {
        let plan = compile(&programs::cc_sv(), OptLevel::Full);
        let ls = loops(&plan.body);
        let (hook, shortcut) = (ls[0], ls[1]);
        // The read of the neighbour fuses with its test, and `work_done +=
        // 1` counts in it: a firing edge dispatches one op, any other none.
        assert_eq!(
            listing(&hook.code),
            [
                "frame: 7 regs, r5 = 1, r6 -> reducer 0",
                "  0: r0 = m0[node]",
                "  1: for edges (next 2)",
                "  2:   r1 = m0[dst]; unless r1 < r0 skip 1, counting r6 += r5",
                "  3:   m0[@r0] <- r1",
            ]
        );
        assert!(!hook.code.uses_weight() && !hook.code.uses_node() && !hook.code.uses_dst());
        assert_eq!(
            listing(&shortcut.code),
            [
                "frame: 5 regs",
                "  0: r0 = m0[node]",
                "  1: r1 = m0[@r0]",
                "  2: unless r0 != r1 skip 1",
                "  3: m0[node] <- r1",
            ]
        );
        // The shortcut's one request phase: read the parent, request the
        // grandparent.
        assert_eq!(
            listing(&shortcut.request_phases[0].code),
            ["frame: 4 regs", "  0: r0 = m0[node]", "  1: request m0[@r0]"]
        );
    }

    #[test]
    fn cc_lp_lowers_to_the_expected_ops() {
        let plan = compile(&programs::cc_lp(), OptLevel::Full);
        let code = &loops(&plan.body)[0].code;
        assert_eq!(
            listing(code),
            [
                "frame: 5 regs",
                "  0: r0 = m0[node]",
                "  1: for edges (next 2)",
                "  2:   r1 = m0[dst]; unless r0 < r1 skip 1",
                "  3:   m0[dst] <- r0",
            ]
        );
        assert!(!code.uses_weight());
        // NO-OPT keeps the positional requests, as local-id ops.
        let noopt = compile(&programs::cc_lp(), OptLevel::None);
        assert_eq!(
            listing(&loops(&noopt.body)[0].request_phases[0].code),
            [
                "frame: 3 regs",
                "  0: request m0[node]",
                "  1: for edges (next 1)",
                "  2:   request m0[dst]",
            ]
        );
    }

    #[test]
    fn mis_lowers_to_the_expected_ops() {
        let plan = compile(&programs::mis(), OptLevel::Full);
        let ls = loops(&plan.body);
        assert_eq!(ls.len(), 5);
        // Degree count.
        assert_eq!(
            listing(&ls[0].code),
            ["frame: 4 regs, r3 = 1", "  0: for edges (next 1)", "  1:   m0[node] <- r3"]
        );
        // Phase 1: the edge loop sits under the node-level test, `dst` is
        // used as a value, the priority's nested arithmetic is flattened
        // into two temporaries.
        assert_eq!(
            listing(&ls[1].code),
            [
                "frame: 12 regs, r5 = dst, r7 = 0, r10 = 4294967295, r11 = 4294967296",
                "  0: r0 = m1[node]",
                "  1: unless r0 == r7 skip 7",
                "  2: for edges (next 6)",
                "  3:   r1 = m1[dst]; unless r1 == r7 skip 5",
                "  4:   r2 = m0[dst]",
                "  5:   r9 = r10 - r2",
                "  6:   r8 = r9 * r11",
                "  7:   r3 = r8 + r5",
                "  8:   m2[node] <- r3",
            ]
        );
        // Phase 3 fuses too, and reduces by local id.
        assert_eq!(
            listing(&ls[3].code)[3..],
            [
                "  2: for edges (next 2)",
                "  3:   r1 = m1[dst]; unless r1 == r6 skip 1",
                "  4:   m1[dst] <- r7",
            ]
        );
        // The count operator is nothing but the counting idiom.
        assert_eq!(
            listing(&ls[4].code),
            [
                "frame: 7 regs, r4 = 0, r5 = 1, r6 -> reducer 0",
                "  0: r0 = m1[node]",
                "  1: unless r0 == r4 skip 0, counting r6 += r5",
            ]
        );
        for l in ls {
            assert!(!l.code.uses_weight());
            l.request_phases.iter().for_each(|p| assert_well_formed(&p.code));
        }
    }

    fn edges(body: Vec<Stmt>) -> Vec<Stmt> {
        vec![Stmt::ForEdges { body }]
    }

    #[test]
    fn a_read_is_not_fused_across_a_block_end() {
        // if v0 { v1 = m[dst] }  if v1 < v0 { … }: the first skip lands on
        // the second test, which therefore stays an op of its own.
        let code = lower(&edges(vec![
            Stmt::If {
                cond: Expr::Var(0),
                then: vec![Stmt::Read { dst: 1, map: 0, key: Expr::EdgeDst }],
            },
            Stmt::If {
                cond: Expr::bin(BinOp::Lt, Expr::Var(1), Expr::Var(0)),
                then: vec![Stmt::Reduce { map: 0, key: Expr::EdgeDst, value: Expr::Var(1) }],
            },
        ]));
        assert_eq!(
            listing(&code)[1..],
            [
                "  0: for edges (next 4)",
                "  1:   unless r0 != r5 skip 1",
                "  2:   r1 = m0[dst]",
                "  3:   unless r1 < r0 skip 1",
                "  4:   m0[dst] <- r1",
            ]
        );
    }

    #[test]
    fn a_test_with_computed_operands_is_not_fused() {
        let code = lower(&edges(vec![
            Stmt::Read { dst: 0, map: 0, key: Expr::EdgeDst },
            Stmt::If {
                cond: Expr::bin(
                    BinOp::Gt,
                    Expr::bin(BinOp::Add, Expr::Var(0), Expr::EdgeWeight),
                    Expr::Const(9),
                ),
                then: vec![Stmt::ReduceScalar { reducer: 2, value: Expr::EdgeWeight }],
            },
        ]));
        assert_eq!(
            listing(&code),
            [
                "frame: 7 regs, r3 = weight, r5 = 9, r6 -> reducer 2",
                "  0: for edges (next 3)",
                "  1:   r0 = m0[dst]",
                "  2:   r4 = r0 + r3",
                "  3:   unless r5 < r4 skip 0, counting r6 += r3",
            ]
        );
        assert!(code.uses_weight() && !code.uses_dst());
    }

    #[test]
    fn a_contribution_counts_in_its_test_only_when_it_opens_the_block() {
        // Behind another statement, or with a computed value, it stays an
        // op of its own.
        let code = lower(&[
            Stmt::Read { dst: 0, map: 0, key: Expr::Node },
            Stmt::If {
                cond: Expr::Var(0),
                then: vec![
                    Stmt::Reduce { map: 0, key: Expr::Node, value: Expr::Var(0) },
                    Stmt::ReduceScalar { reducer: 0, value: Expr::Const(1) },
                ],
            },
            Stmt::If {
                cond: Expr::Var(0),
                then: vec![Stmt::ReduceScalar {
                    reducer: 1,
                    value: Expr::bin(BinOp::Add, Expr::Var(0), Expr::Const(1)),
                }],
            },
        ]);
        assert_eq!(
            listing(&code),
            [
                "frame: 9 regs, r4 = 0, r5 = 1, r6 -> reducer 0, r8 -> reducer 1",
                "  0: r0 = m0[node]",
                "  1: unless r0 != r4 skip 2",
                "  2: m0[node] <- r0",
                "  3: r6 += r5",
                "  4: unless r0 != r4 skip 2",
                "  5: r7 = r0 + r5",
                "  6: r8 += r7",
            ]
        );
    }

    #[test]
    fn temporaries_are_reused_and_the_frame_grows_with_the_body() {
        // 40 statements each needing one temporary share it; 40 distinct
        // constants each get a register.
        let body: Vec<Stmt> = (0..40)
            .map(|i| Stmt::Reduce {
                map: 0,
                key: Expr::bin(BinOp::Add, Expr::Node, Expr::Const(i)),
                value: Expr::Const(i),
            })
            .collect();
        let code = lower(&body);
        assert_eq!(code.consts().len(), 40);
        assert_eq!(code.num_regs(), 3 + 40 + 1);
        assert!(code.uses_node());
        assert_well_formed(&code);
    }

    #[test]
    fn initializers_leave_their_value_in_register_zero() {
        let code = lower_value(&Expr::bin(BinOp::Add, Expr::Node, Expr::Const(7)));
        assert_eq!(listing(&code), ["frame: 5 regs, r1 = node, r4 = 7", "  0: r0 = r1 + r4"]);
        assert_eq!(listing(&lower_value(&Expr::Node))[1..], ["  0: r0 = r1"]);
    }

    #[test]
    #[should_panic(expected = "EdgeDst outside ForEdges")]
    fn dst_outside_an_edge_loop_is_rejected_at_compile_time() {
        lower(&[Stmt::Read { dst: 0, map: 0, key: Expr::EdgeDst }]);
    }

    #[test]
    #[should_panic(expected = "EdgeWeight outside ForEdges")]
    fn weight_in_an_initializer_is_rejected_at_compile_time() {
        lower_value(&Expr::EdgeWeight);
    }

    #[test]
    #[should_panic(expected = "ForEdges nested in ForEdges")]
    fn nested_edge_loops_are_rejected_at_compile_time() {
        lower(&edges(edges(vec![])));
    }
}
