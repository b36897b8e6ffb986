//! Seed-derived random vertex programs and graphs for the engine's
//! differential suites (`tests/prop_engine.rs`, and the lowered-executor
//! vs tree-walk-reference proptest inside `kimbap::engine`, which includes
//! this file by path).
//!
//! Every generated program terminates and keeps every key in range:
//!
//! * map 0 is the *label* map (`Min` or `Max`, initialized to the node
//!   id). Only values drawn from the closed finite set {labels, node ids}
//!   are ever reduced into it, so a `While` on it descends (or ascends) a
//!   finite lattice, and any variable read from it is a valid computed
//!   key;
//! * maps 1 and 2 take arbitrary wrapping arithmetic (nested `Add` / `Sub`
//!   / `Mul` / `Min` over variables, constants, `node`, `dst`, `weight`),
//!   but only inside single-shot `ParForOnce` operators, and values read
//!   from them never become keys;
//! * variables are single-assignment and never used outside the block
//!   that defines them, so no execution reads a register another node
//!   wrote.
//!
//! Within those rules the shapes vary as widely as the IR allows: `Let`,
//! reads and reduces keyed by `node` / `dst` / computed expressions,
//! scalar reductions inside and outside edge loops (opening a guarded
//! block, in the middle of one, at node level), `If` nested in `If`,
//! conditions that are comparisons and conditions that are arbitrary
//! values, edge-free operators (which `OptLevel::Full` turns into
//! `Masters` loops) and operators that name `Masters` themselves.

use kimbap_compiler::ir::{
    BinOp, Expr, KimbapWhile, MapDecl, NodeIterator, Program, Stmt, TopStmt, Var,
};
use kimbap_npm::DynReduceOp;

/// SplitMix64: the generator's only source of randomness.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True `num` times in `den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize].clone()
    }
}

/// The label map every program declares first.
const LABEL: usize = 0;
const NUM_MAPS: usize = 3;
const NUM_REDUCERS: usize = 2;

struct Gen {
    rng: Rng,
    next_var: Var,
    /// In-scope variables holding labels (valid keys).
    labels: Vec<Var>,
    /// In-scope variables holding anything.
    values: Vec<Var>,
    in_edges: bool,
    /// Scalar reductions allowed (off for sparse-eligible operators).
    scalars: bool,
}

impl Gen {
    fn fresh(&mut self, label: bool) -> Var {
        let v = self.next_var;
        self.next_var += 1;
        self.values.push(v);
        if label {
            self.labels.push(v);
        }
        v
    }

    /// Runs `f` in a nested block: variables it defines go out of scope.
    fn scoped<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let (l, v) = (self.labels.len(), self.values.len());
        let out = f(self);
        self.labels.truncate(l);
        self.values.truncate(v);
        out
    }

    /// An expression whose value is a label or a node id.
    fn label_expr(&mut self) -> Expr {
        let mut leaves = vec![Expr::Node];
        if self.in_edges {
            leaves.push(Expr::EdgeDst);
        }
        leaves.extend(self.labels.iter().map(|&v| Expr::Var(v)));
        let a = self.rng.pick(&leaves);
        if self.rng.chance(1, 3) {
            Expr::bin(BinOp::Min, a, self.rng.pick(&leaves))
        } else {
            a
        }
    }

    /// A key: positional, a label variable, or computed from labels.
    fn key(&mut self) -> Expr {
        match self.rng.below(4) {
            0 => Expr::Node,
            1 if self.in_edges => Expr::EdgeDst,
            2 if !self.labels.is_empty() => Expr::Var(self.rng.pick(&self.labels)),
            _ => self.label_expr(),
        }
    }

    /// Arbitrary wrapping arithmetic, nested up to `depth`.
    fn arith(&mut self, depth: u32) -> Expr {
        if depth == 0 || self.rng.chance(1, 3) {
            let mut leaves = vec![
                Expr::Node,
                Expr::Const(self.rng.below(5)),
                Expr::Const(0x1_0000_0001 * (1 + self.rng.below(3))),
            ];
            if self.in_edges {
                leaves.push(Expr::EdgeDst);
                leaves.push(Expr::EdgeWeight);
            }
            leaves.extend(self.values.iter().map(|&v| Expr::Var(v)));
            return self.rng.pick(&leaves);
        }
        let op = self
            .rng
            .pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Add]);
        Expr::bin(op, self.arith(depth - 1), self.arith(depth - 1))
    }

    /// A condition: usually a comparison, sometimes a bare value.
    fn cond(&mut self, arbitrary: bool) -> Expr {
        let operand = |g: &mut Self| {
            if arbitrary {
                g.arith(1)
            } else {
                g.label_expr()
            }
        };
        if arbitrary && self.rng.chance(1, 5) {
            return self.arith(2);
        }
        let op = self.rng.pick(&[BinOp::Lt, BinOp::Gt, BinOp::Ne, BinOp::Eq]);
        Expr::bin(op, operand(self), operand(self))
    }

    fn scalar(&mut self, arbitrary: bool) -> Stmt {
        Stmt::ReduceScalar {
            reducer: self.rng.below(NUM_REDUCERS as u64) as usize,
            value: if arbitrary && self.rng.chance(1, 2) {
                self.arith(2)
            } else {
                self.rng.pick(&[Expr::Const(1), Expr::Const(3), Expr::Node])
            },
        }
    }

    /// A read into a fresh variable: of the label map (the result is a
    /// label) or, in arbitrary operators, of any map.
    fn read(&mut self, arbitrary: bool) -> Stmt {
        let map = if arbitrary {
            self.rng.below(NUM_MAPS as u64) as usize
        } else {
            LABEL
        };
        let key = self.key();
        Stmt::Read {
            dst: self.fresh(map == LABEL),
            map,
            key,
        }
    }

    /// A reduce: labels into the label map, or (arbitrary operators)
    /// anything into maps 1 and 2.
    fn reduce(&mut self, arbitrary: bool) -> Stmt {
        let key = self.key();
        if arbitrary && self.rng.chance(2, 3) {
            Stmt::Reduce {
                map: 1 + self.rng.below(2) as usize,
                key,
                value: self.arith(3),
            }
        } else {
            Stmt::Reduce {
                map: LABEL,
                key,
                value: self.label_expr(),
            }
        }
    }

    /// A guarded block ending in a reduce, possibly with a nested guard
    /// and scalar contributions before, between and after.
    fn guarded(&mut self, arbitrary: bool, depth: u32) -> Stmt {
        let cond = self.cond(arbitrary);
        let then = self.scoped(|g| {
            let mut then = Vec::new();
            if g.scalars && g.rng.chance(1, 3) {
                then.push(g.scalar(arbitrary));
            }
            if arbitrary && g.rng.chance(1, 3) {
                let value = g.arith(2);
                then.push(Stmt::Let {
                    dst: g.fresh(false),
                    value,
                });
            }
            if depth > 0 && g.rng.chance(1, 3) {
                then.push(g.guarded(arbitrary, depth - 1));
            }
            if g.scalars && g.rng.chance(1, 4) {
                then.push(g.scalar(arbitrary));
            }
            then.push(g.reduce(arbitrary));
            then
        });
        Stmt::If { cond, then }
    }

    /// One operator body. `arbitrary` bodies may do anything the module
    /// docs allow in a `ParForOnce`; the others are monotone on the label
    /// map. `plain` bodies are the sparse-eligible shape: adjacent reads,
    /// no scalar reductions.
    fn operator(&mut self, arbitrary: bool, plain: bool) -> Vec<Stmt> {
        self.next_var = 0;
        self.labels.clear();
        self.values.clear();
        self.scalars = !plain;
        let mut body = Vec::new();
        body.push(Stmt::Read {
            dst: self.fresh(true),
            map: LABEL,
            key: Expr::Node,
        });
        if !plain && self.rng.chance(1, 3) {
            // A chained (trans-vertex) read.
            let key = Expr::Var(self.labels[0]);
            let map = if arbitrary {
                self.rng.below(NUM_MAPS as u64) as usize
            } else {
                LABEL
            };
            body.push(Stmt::Read {
                dst: self.fresh(map == LABEL),
                map,
                key,
            });
        }
        if self.scalars && self.rng.chance(1, 4) {
            body.push(self.scalar(arbitrary));
        }
        if plain || self.rng.chance(3, 4) {
            let edge_body = self.scoped(|g| {
                g.in_edges = true;
                let mut b = Vec::new();
                if plain {
                    b.push(Stmt::Read {
                        dst: g.fresh(true),
                        map: LABEL,
                        key: Expr::EdgeDst,
                    });
                } else {
                    b.push(g.read(arbitrary));
                    if g.rng.chance(1, 3) {
                        b.push(g.read(arbitrary));
                    }
                    if g.rng.chance(1, 3) {
                        let (label, value) = if arbitrary && g.rng.chance(1, 2) {
                            (false, g.arith(3))
                        } else {
                            (true, g.label_expr())
                        };
                        b.push(Stmt::Let {
                            dst: g.fresh(label),
                            value,
                        });
                    }
                }
                b.push(g.guarded(arbitrary, 1));
                if !plain && g.rng.chance(1, 4) {
                    b.push(g.reduce(arbitrary));
                }
                if g.scalars && g.rng.chance(1, 5) {
                    b.push(g.scalar(arbitrary));
                }
                g.in_edges = false;
                b
            });
            let edges = Stmt::ForEdges { body: edge_body };
            if !plain && self.rng.chance(1, 4) {
                // The edge loop under a node-level guard (the MIS shape).
                let cond = self.cond(arbitrary);
                body.push(Stmt::If {
                    cond,
                    then: vec![edges],
                });
            } else {
                body.push(edges);
            }
        }
        if !plain && self.rng.chance(1, 2) {
            body.push(self.guarded(arbitrary, 1));
        }
        body
    }

    /// A positional initializer for a non-label map.
    fn initializer(&mut self) -> Expr {
        let c = Expr::Const(1 + self.rng.below(9));
        match self.rng.below(3) {
            0 => c,
            1 => Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::Node, c),
                Expr::Const(7),
            ),
            _ => Expr::bin(BinOp::Min, Expr::Node, c),
        }
    }
}

/// A random program (see the [module docs](self)). Without `sums` every
/// map reduces idempotently (`Min` / `Max`), so final map values do not
/// depend on how many proxies a node has — what the optimization levels
/// and host counts must agree on; with `sums`, maps 1 and 2 may also be
/// `Sum` maps.
pub fn random_program(seed: u64, sums: bool) -> Program {
    let mut g = Gen {
        rng: Rng::new(seed),
        next_var: 0,
        labels: Vec::new(),
        values: Vec::new(),
        in_edges: false,
        scalars: true,
    };
    let ops = [DynReduceOp::Min, DynReduceOp::Max, DynReduceOp::Sum];
    let any = &ops[..if sums { 3 } else { 2 }];
    let maps = vec![
        MapDecl {
            op: g.rng.pick(&ops[..2]),
            name: "label",
        },
        MapDecl {
            op: g.rng.pick(any),
            name: "a",
        },
        MapDecl {
            op: g.rng.pick(any),
            name: "b",
        },
    ];
    let mut body = vec![TopStmt::InitMap {
        map: LABEL,
        value: Expr::Node,
    }];
    for map in 1..NUM_MAPS {
        if g.rng.chance(2, 3) {
            let value = g.initializer();
            body.push(TopStmt::InitMap { map, value });
        }
    }
    let mut num_vars = 0;
    for _ in 0..2 + g.rng.below(3) {
        let top = match g.rng.below(3) {
            0 => TopStmt::ParForOnce {
                body: g.operator(true, false),
            },
            kind => TopStmt::While(KimbapWhile {
                quiesce_map: LABEL,
                iterator: if g.rng.chance(1, 5) {
                    NodeIterator::Masters
                } else {
                    NodeIterator::AllNodes
                },
                body: g.operator(false, kind == 1),
            }),
        };
        num_vars = num_vars.max(g.next_var);
        body.push(top);
        if g.rng.chance(1, 5) {
            body.push(TopStmt::SetScalar {
                reducer: g.rng.below(NUM_REDUCERS as u64) as usize,
                value: g.rng.below(4),
            });
        }
    }
    Program {
        name: "random",
        maps,
        num_reducers: NUM_REDUCERS,
        num_vars,
        body,
    }
}

/// A random weighted edge list over up to `max_nodes` nodes.
pub fn random_edges(seed: u64, max_nodes: u32, max_edges: u64) -> Vec<(u32, u32, u64)> {
    let mut rng = Rng::new(seed ^ 0x6564_6765);
    let n = 2 + rng.below(max_nodes as u64 - 1) as u32;
    (0..1 + rng.below(max_edges))
        .map(|_| {
            (
                rng.below(n as u64) as u32,
                rng.below(n as u64) as u32,
                1 + rng.below(9),
            )
        })
        .collect()
}
