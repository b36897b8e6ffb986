//! A textual front-end for vertex programs.
//!
//! The paper's programmers write `KimbapWhile … ParFor` constructs in C++
//! (Fig. 4). This module provides the equivalent surface syntax for this
//! reproduction: a small language parsed into the [`crate::ir`] program
//! form, which then flows through the ordinary compiler pipeline. The
//! built-in programs of [`crate::programs`] are written in it.
//!
//! # Grammar
//!
//! ```text
//! program   := 'program' IDENT '{' decl* top* '}'
//! decl      := 'map' IDENT ':' ('min' | 'max' | 'sum') ';'
//!            | 'reducer' IDENT ';'
//! top       := 'init' IDENT '=' expr ';'
//!            | 'reset' IDENT ';'
//!            | 'set' IDENT '=' NUM ';'
//!            | 'parfor' block
//!            | 'while' 'updated' '(' IDENT ')' block
//!            | 'do' '{' top* '}' 'while' IDENT ';'
//! block     := '{' stmt* '}'
//! stmt      := 'let' IDENT '=' expr ';'
//!            | 'let' IDENT '=' IDENT '[' expr ']' ';'     (map read)
//!            | IDENT '[' expr ']' '<-' expr ';'           (map reduce)
//!            | IDENT '+=' expr ';'                        (scalar reduce)
//!            | 'if' expr block
//!            | 'for' 'edges' block
//! expr      := cmp ( ('<' | '>' | '!=' | '==') cmp )?
//! cmp       := term ( ('+' | '-') term )*
//! term      := atom ( '*' atom )*
//! atom      := NUM | 'node' | 'dst' | 'weight' | IDENT
//!            | '(' expr ')' | 'min' '(' expr ',' expr ')'
//! ```
//!
//! Line comments start with `//`.
//!
//! # Example
//!
//! ```
//! use kimbap_compiler::frontend::parse;
//!
//! let src = r#"
//! program cc_lp {
//!     map label : min;
//!     init label = node;
//!     while updated(label) {
//!         let my = label[node];
//!         for edges {
//!             let other = label[dst];
//!             if my < other {
//!                 label[dst] <- my;
//!             }
//!         }
//!     }
//! }
//! "#;
//! let program = parse(src).unwrap();
//! assert_eq!(program.name, "cc_lp");
//! assert_eq!(program.maps.len(), 1);
//! ```

use crate::ir::{
    BinOp, Expr, KimbapWhile, MapDecl, NodeIterator, Program, Stmt, TopStmt,
};
use kimbap_npm::DynReduceOp;
use std::collections::HashMap;
use std::fmt;

/// A parse error with line/column position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(u64),
    Sym(&'static str),
}

struct Lexer {
    toks: Vec<(Tok, usize, usize)>,
    pos: usize,
}

fn lex(src: &str) -> Result<Lexer, ParseError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        let (l, co) = (line, col);
        let bump = |ch: char, line: &mut usize, col: &mut usize| {
            if ch == '\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
        };
        if c.is_whitespace() {
            chars.next();
            bump(c, &mut line, &mut col);
            continue;
        }
        if c == '/' {
            chars.next();
            col += 1;
            if chars.peek() == Some(&'/') {
                for ch in chars.by_ref() {
                    bump(ch, &mut line, &mut col);
                    if ch == '\n' {
                        break;
                    }
                }
                continue;
            }
            return Err(ParseError {
                line: l,
                col: co,
                message: "unexpected '/'".into(),
            });
        }
        if c.is_ascii_digit() {
            let mut n: u64 = 0;
            while let Some(&d) = chars.peek() {
                if let Some(v) = d.to_digit(10) {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(v as u64))
                        .ok_or(ParseError {
                            line: l,
                            col: co,
                            message: "number too large".into(),
                        })?;
                    chars.next();
                    col += 1;
                } else {
                    break;
                }
            }
            toks.push((Tok::Num(n), l, co));
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let mut s = String::new();
            while let Some(&d) = chars.peek() {
                if d.is_ascii_alphanumeric() || d == '_' {
                    s.push(d);
                    chars.next();
                    col += 1;
                } else {
                    break;
                }
            }
            toks.push((Tok::Ident(s), l, co));
            continue;
        }
        // Multi-char symbols.
        let two: String = {
            let mut it = chars.clone();
            let a = it.next().unwrap_or(' ');
            let b = it.next().unwrap_or(' ');
            [a, b].iter().collect()
        };
        let sym2 = ["<-", "+=", "!=", "=="].iter().find(|&&s| s == two);
        if let Some(&s) = sym2 {
            chars.next();
            chars.next();
            col += 2;
            toks.push((Tok::Sym(s), l, co));
            continue;
        }
        let sym1 = ["{", "}", "(", ")", "[", "]", ";", ":", ",", "=", "<", ">", "+", "-", "*"]
            .iter()
            .find(|&&s| s.starts_with(c));
        if let Some(&s) = sym1 {
            chars.next();
            col += 1;
            toks.push((Tok::Sym(s), l, co));
            continue;
        }
        return Err(ParseError {
            line: l,
            col: co,
            message: format!("unexpected character '{c}'"),
        });
    }
    Ok(Lexer { toks, pos: 0 })
}

struct Parser {
    lx: Lexer,
    maps: HashMap<String, usize>,
    map_decls: Vec<MapDecl>,
    reducers: HashMap<String, usize>,
    vars: HashMap<String, usize>,
    num_vars: usize,
    name: String,
    /// Inside a `for edges` block: `dst` and `weight` mean something, and
    /// another `for edges` does not.
    in_edges: bool,
}

impl Parser {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let (line, col) = self
            .lx
            .toks
            .get(self.lx.pos.min(self.lx.toks.len().saturating_sub(1)))
            .map(|&(_, l, c)| (l, c))
            .unwrap_or((0, 0));
        Err(ParseError {
            line,
            col,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.lx.toks.get(self.lx.pos).map(|(t, _, _)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.lx.toks.get(self.lx.pos).map(|(t, _, _)| t.clone());
        self.lx.pos += 1;
        t
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Sym(t)) if t == s => Ok(()),
            other => {
                self.lx.pos -= 1;
                let _ = other;
                self.err(format!("expected '{s}'"))
            }
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Ident(t)) if t == kw => Ok(()),
            _ => {
                self.lx.pos -= 1;
                self.err(format!("expected keyword '{kw}'"))
            }
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => {
                self.lx.pos -= 1;
                self.err("expected identifier")
            }
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(t)) if *t == s) {
            self.lx.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(t)) if t == kw) {
            self.lx.pos += 1;
            true
        } else {
            false
        }
    }

    fn map_id(&self, name: &str) -> Result<usize, ParseError> {
        self.maps
            .get(name)
            .copied()
            .ok_or(ParseError {
                line: 0,
                col: 0,
                message: format!("unknown map '{name}'"),
            })
    }

    fn var_id(&mut self, name: &str) -> usize {
        if let Some(&v) = self.vars.get(name) {
            return v;
        }
        // Registers are numbered per operator (each ParFor body starts a
        // fresh scope); `num_vars` records the program-wide maximum.
        let v = self.vars.len();
        self.vars.insert(name.to_string(), v);
        self.num_vars = self.num_vars.max(self.vars.len());
        v
    }

    fn parse_program(&mut self) -> Result<Program, ParseError> {
        self.expect_kw("program")?;
        self.name = self.ident()?;
        self.expect_sym("{")?;
        // Declarations.
        loop {
            if self.eat_kw("map") {
                let name = self.ident()?;
                self.expect_sym(":")?;
                let op = match self.ident()?.as_str() {
                    "min" => DynReduceOp::Min,
                    "max" => DynReduceOp::Max,
                    "sum" => DynReduceOp::Sum,
                    other => return self.err(format!("unknown reduction '{other}'")),
                };
                self.expect_sym(";")?;
                let id = self.map_decls.len();
                self.maps.insert(name.clone(), id);
                self.map_decls.push(MapDecl {
                    op,
                    name: Box::leak(name.into_boxed_str()),
                });
            } else if self.eat_kw("reducer") {
                let name = self.ident()?;
                self.expect_sym(";")?;
                let id = self.reducers.len();
                self.reducers.insert(name, id);
            } else {
                break;
            }
        }
        let mut body = Vec::new();
        while !matches!(self.peek(), Some(Tok::Sym("}"))) {
            body.push(self.parse_top()?);
        }
        self.expect_sym("}")?;
        Ok(Program {
            name: Box::leak(self.name.clone().into_boxed_str()),
            maps: self.map_decls.clone(),
            num_reducers: self.reducers.len(),
            num_vars: self.num_vars,
            body,
        })
    }

    fn parse_top(&mut self) -> Result<TopStmt, ParseError> {
        if self.eat_kw("init") {
            let name = self.ident()?;
            let map = self.map_id(&name)?;
            self.expect_sym("=")?;
            // An initializer sees the node and constants only: no
            // operator's variables are in scope here.
            self.vars.clear();
            let value = self.parse_expr()?;
            self.expect_sym(";")?;
            return Ok(TopStmt::InitMap { map, value });
        }
        if self.eat_kw("reset") {
            let name = self.ident()?;
            let map = self.map_id(&name)?;
            self.expect_sym(";")?;
            return Ok(TopStmt::ResetMap { map });
        }
        if self.eat_kw("set") {
            let name = self.ident()?;
            let reducer = *self
                .reducers
                .get(&name)
                .ok_or(ParseError {
                    line: 0,
                    col: 0,
                    message: format!("unknown reducer '{name}'"),
                })?;
            self.expect_sym("=")?;
            let value = match self.next() {
                Some(Tok::Num(n)) => n,
                _ => return self.err("expected number"),
            };
            self.expect_sym(";")?;
            return Ok(TopStmt::SetScalar { reducer, value });
        }
        if self.eat_kw("parfor") {
            self.vars.clear();
            let body = self.parse_block()?;
            return Ok(TopStmt::ParForOnce { body });
        }
        if self.eat_kw("while") {
            self.expect_kw("updated")?;
            self.expect_sym("(")?;
            let qname = self.ident()?;
            let quiesce_map = self.map_id(&qname)?;
            self.expect_sym(")")?;
            self.vars.clear();
            let body = self.parse_block()?;
            return Ok(TopStmt::While(KimbapWhile {
                quiesce_map,
                iterator: NodeIterator::AllNodes,
                body,
            }));
        }
        if self.eat_kw("do") {
            self.expect_sym("{")?;
            let mut body = Vec::new();
            while !matches!(self.peek(), Some(Tok::Sym("}"))) {
                body.push(self.parse_top()?);
            }
            self.expect_sym("}")?;
            self.expect_kw("while")?;
            let name = self.ident()?;
            let reducer = *self
                .reducers
                .get(&name)
                .ok_or(ParseError {
                    line: 0,
                    col: 0,
                    message: format!("unknown reducer '{name}'"),
                })?;
            self.expect_sym(";")?;
            return Ok(TopStmt::DoWhileScalar { body, reducer });
        }
        self.err("expected a top-level statement (init/reset/set/parfor/while/do)")
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_sym("{")?;
        let mut out = Vec::new();
        while !matches!(self.peek(), Some(Tok::Sym("}"))) {
            out.push(self.parse_stmt()?);
        }
        self.expect_sym("}")?;
        Ok(out)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_kw("let") {
            let name = self.ident()?;
            self.expect_sym("=")?;
            // Map read (`m[expr]`) or plain expression.
            if let Some(Tok::Ident(maybe_map)) = self.peek().cloned() {
                if self.maps.contains_key(&maybe_map) {
                    self.lx.pos += 1;
                    if self.eat_sym("[") {
                        let key = self.parse_expr()?;
                        self.expect_sym("]")?;
                        self.expect_sym(";")?;
                        let dst = self.var_id(&name);
                        let map = self.map_id(&maybe_map)?;
                        return Ok(Stmt::Read { dst, map, key });
                    }
                    self.lx.pos -= 1; // plain expression starting with an identifier
                }
            }
            let value = self.parse_expr()?;
            self.expect_sym(";")?;
            let dst = self.var_id(&name);
            return Ok(Stmt::Let { dst, value });
        }
        if self.eat_kw("if") {
            let cond = self.parse_expr()?;
            let then = self.parse_block()?;
            return Ok(Stmt::If { cond, then });
        }
        if self.eat_kw("for") {
            if self.in_edges {
                self.lx.pos -= 1;
                return self.err("'for edges' cannot be nested in another 'for edges'");
            }
            self.expect_kw("edges")?;
            self.in_edges = true;
            let body = self.parse_block();
            self.in_edges = false;
            return Ok(Stmt::ForEdges { body: body? });
        }
        // `name[key] <- value;` (map reduce) or `name += value;` (scalar).
        let name = self.ident()?;
        if self.eat_sym("[") {
            let map = self.map_id(&name)?;
            let key = self.parse_expr()?;
            self.expect_sym("]")?;
            self.expect_sym("<-")?;
            let value = self.parse_expr()?;
            self.expect_sym(";")?;
            return Ok(Stmt::Reduce { map, key, value });
        }
        if self.eat_sym("+=") {
            let reducer = *self
                .reducers
                .get(&name)
                .ok_or(ParseError {
                    line: 0,
                    col: 0,
                    message: format!("unknown reducer '{name}'"),
                })?;
            let value = self.parse_expr()?;
            self.expect_sym(";")?;
            return Ok(Stmt::ReduceScalar { reducer, value });
        }
        self.err("expected a statement")
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_additive()?;
        for (sym, op) in [("<", BinOp::Lt), (">", BinOp::Gt), ("!=", BinOp::Ne), ("==", BinOp::Eq)]
        {
            if self.eat_sym(sym) {
                let rhs = self.parse_additive()?;
                return Ok(Expr::bin(op, lhs, rhs));
            }
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_term()?;
        loop {
            if self.eat_sym("+") {
                e = Expr::bin(BinOp::Add, e, self.parse_term()?);
            } else if self.eat_sym("-") {
                e = Expr::bin(BinOp::Sub, e, self.parse_term()?);
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_atom()?;
        while self.eat_sym("*") {
            e = Expr::bin(BinOp::Mul, e, self.parse_atom()?);
        }
        Ok(e)
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        if self.eat_sym("(") {
            let e = self.parse_expr()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        match self.next() {
            Some(Tok::Num(n)) => Ok(Expr::Const(n)),
            Some(Tok::Ident(s)) => match s.as_str() {
                "node" => Ok(Expr::Node),
                "dst" | "weight" if !self.in_edges => {
                    self.lx.pos -= 1;
                    self.err(format!("'{s}' is only defined inside 'for edges'"))
                }
                "dst" => Ok(Expr::EdgeDst),
                "weight" => Ok(Expr::EdgeWeight),
                "min" => {
                    self.expect_sym("(")?;
                    let a = self.parse_expr()?;
                    self.expect_sym(",")?;
                    let b = self.parse_expr()?;
                    self.expect_sym(")")?;
                    Ok(Expr::bin(BinOp::Min, a, b))
                }
                _ => {
                    if let Some(&v) = self.vars.get(&s) {
                        Ok(Expr::Var(v))
                    } else {
                        self.lx.pos -= 1;
                        self.err(format!("unknown variable '{s}'"))
                    }
                }
            },
            _ => {
                self.lx.pos -= 1;
                self.err("expected an expression")
            }
        }
    }
}

/// Parses vertex-program source text into an IR [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] with position information on malformed input,
/// unknown maps/reducers/variables, invalid reduction names, `dst` or
/// `weight` outside a `for edges` block (map initializers included), and a
/// `for edges` nested in another — the shapes [`crate::lower`] would
/// otherwise panic on inside [`crate::compile`].
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let lx = lex(src)?;
    let mut p = Parser {
        lx,
        maps: HashMap::new(),
        map_decls: Vec::new(),
        reducers: HashMap::new(),
        vars: HashMap::new(),
        num_vars: 0,
        name: String::new(),
        in_edges: false,
    };
    p.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_lp() {
        let src = r#"
        program lp {
            map label : min;
            init label = node;
            while updated(label) {
                let my = label[node];
                for edges {
                    let other = label[dst];
                    if my < other { label[dst] <- my; }
                }
            }
        }
        "#;
        let p = parse(src).unwrap();
        let (my, other) = (Expr::Var(0), Expr::Var(1));
        assert_eq!(
            p.body,
            [
                TopStmt::InitMap { map: 0, value: Expr::Node },
                TopStmt::While(KimbapWhile {
                    quiesce_map: 0,
                    iterator: NodeIterator::AllNodes,
                    body: vec![
                        Stmt::Read { dst: 0, map: 0, key: Expr::Node },
                        Stmt::ForEdges {
                            body: vec![
                                Stmt::Read { dst: 1, map: 0, key: Expr::EdgeDst },
                                Stmt::If {
                                    cond: Expr::bin(BinOp::Lt, my.clone(), other),
                                    then: vec![Stmt::Reduce {
                                        map: 0,
                                        key: Expr::EdgeDst,
                                        value: my,
                                    }],
                                },
                            ],
                        },
                    ],
                }),
            ]
        );
        assert_eq!((p.name, p.num_vars, p.num_reducers), ("lp", 2, 0));
    }

    #[test]
    fn arithmetic_precedence() {
        let src = r#"
        program t {
            map m : sum;
            parfor {
                let a = m[node];
                let b = a + 2 * 3 - 1;
                m[node] <- b;
            }
        }
        "#;
        let p = parse(src).unwrap();
        let TopStmt::ParForOnce { body } = &p.body[0] else {
            panic!()
        };
        let Stmt::Let { value, .. } = &body[1] else {
            panic!()
        };
        // ((a + (2*3)) - 1)
        assert_eq!(
            *value,
            Expr::bin(
                BinOp::Sub,
                Expr::bin(
                    BinOp::Add,
                    Expr::Var(0),
                    Expr::bin(BinOp::Mul, Expr::Const(2), Expr::Const(3))
                ),
                Expr::Const(1)
            )
        );
    }

    #[test]
    fn error_reports_position() {
        let err = parse("program x {\n  map m min;\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("expected ':'"), "{err}");
    }

    #[test]
    fn unknown_map_is_an_error() {
        let err = parse(
            "program x { map m : min; while updated(q) { let a = m[node]; } }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown map"), "{err}");
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let err =
            parse("program x { map m : min; parfor { m[node] <- ghost; } }").unwrap_err();
        assert!(err.message.contains("unknown variable"), "{err}");
    }

    #[test]
    fn dst_and_weight_outside_an_edge_loop_are_errors() {
        let err = parse(
            "program x {\n  map m : min;\n  parfor {\n    m[node] <- dst;\n  }\n}",
        )
        .unwrap_err();
        assert_eq!((err.line, err.col), (4, 16), "{err}");
        assert!(err.message.contains("'dst' is only defined inside 'for edges'"), "{err}");
        // After the loop closes they are undefined again, and a map
        // initializer never sees an edge.
        let err = parse(
            "program x { map m : sum; parfor { for edges { m[dst] <- weight; } m[node] <- weight; } }",
        )
        .unwrap_err();
        assert!(err.message.contains("'weight' is only defined"), "{err}");
        let err = parse("program x { map m : min; init m = dst; }").unwrap_err();
        assert!(err.message.contains("'dst' is only defined"), "{err}");
    }

    #[test]
    fn nested_edge_loops_are_an_error() {
        let err = parse(
            "program x {\n map m : min;\n parfor {\n  for edges {\n   for edges { m[dst] <- 1; }\n  }\n }\n}",
        )
        .unwrap_err();
        assert_eq!((err.line, err.col), (5, 4), "{err}");
        assert!(err.message.contains("cannot be nested"), "{err}");
        // Two loops side by side are fine.
        parse("program x { map m : min; parfor { for edges { m[dst] <- 1; } for edges { m[node] <- 2; } } }")
            .unwrap();
    }

    #[test]
    fn initializers_do_not_see_operator_variables() {
        let err = parse(
            "program x { map m : min; parfor { let a = m[node]; m[node] <- a; } init m = a; }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown variable 'a'"), "{err}");
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let p = parse("program x { // nothing\n map m : max; // decl\n }").unwrap();
        assert_eq!(p.maps[0].op, kimbap_npm::DynReduceOp::Max);
    }
}
