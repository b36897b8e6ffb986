//! The Kimbap compiler (§5 of the paper).
//!
//! Takes shared-memory vertex programs written in a small IR ([`ir`]) and
//! produces distributed BSP plans ([`transform::CompiledProgram`]) with all
//! required communication inserted and — at [`transform::OptLevel::Full`]
//! — the paper's two elision optimizations applied:
//!
//! * **master-nodes RequestSync elision**: operators that touch no edges
//!   iterate masters only and lose their self-requests;
//! * **adjacent-neighbors RequestSync elision**: maps read only at the
//!   active node / edge endpoints are served by pinned mirrors and
//!   broadcast instead of request/response.
//!
//! Placement needs no CFG: the IR is structured (no jumps), so the
//! statement tree is the compiler's one control-flow representation — a
//! statement's dominators are its prefix path, and a `ParFor`'s immediate
//! post-dominator is the statement after it (see [`transform`]).
//! [`classify`] reproduces Table 2's adjacent/trans-vertex classification;
//! [`programs`] contains the paper's applications as source text in the
//! [`frontend`]'s surface syntax, parsed into the IR on first use. Every
//! operator body is finally lowered to flat register code ([`lower`]),
//! which is what the `kimbap` crate's engine executes.
//!
//! # Example
//!
//! ```
//! use kimbap_compiler::{compile, programs, OptLevel};
//! use kimbap_compiler::transform::CompiledTop;
//!
//! let plan = compile(&programs::cc_sv(), OptLevel::Full);
//! // The shortcut loop (second While inside the do-while) iterates
//! // masters only and kept exactly one request phase — Fig. 8.
//! let CompiledTop::DoWhileScalar { body, .. } = &plan.body[1] else {
//!     panic!()
//! };
//! let CompiledTop::Loop(shortcut) = &body[2] else { panic!() };
//! assert_eq!(shortcut.request_phases.len(), 1);
//! ```

pub mod classify;
pub mod frontend;
pub mod ir;
pub mod lower;
pub mod programs;
pub mod transform;

pub use classify::{classify_map_reads, classify_operator, classify_program, AppClassification, OperatorKind, ReadDep};
pub use frontend::{parse, ParseError};
pub use transform::{compile, CompiledProgram, OptLevel, SparsePlan};
