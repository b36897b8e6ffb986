//! Simulated distributed-memory cluster.
//!
//! The paper evaluates Kimbap on a CPU cluster of up to 256 hosts connected
//! by 100 Gb/s Omni-Path, with MPI-style bulk-synchronous communication.
//! This crate substitutes a **simulated cluster inside one process**: every
//! host is an OS thread, inter-host messages are serialized byte buffers
//! moved through in-memory mailboxes, and all collective operations
//! (barrier, all-to-all exchange, all-reduce) are implemented on top of
//! those mailboxes. Intra-host parallelism uses a persistent [`WorkerPool`]
//! per host.
//!
//! Because payloads really are serialized and no references cross host
//! boundaries, the algorithmic behaviour (message counts, byte volumes,
//! phase structure, reduction contention) is identical to a wire-connected
//! deployment; only absolute latencies differ. Per-host counters
//! ([`HostStats`]) expose messages, bytes, and time spent inside
//! communication calls, which the benchmark harness uses for the paper's
//! computation/communication breakdowns.
//!
//! # Example
//!
//! ```
//! use kimbap_comm::Cluster;
//!
//! let cluster = Cluster::new(4);
//! let sums = cluster.run(|ctx| {
//!     // Every host contributes its id; all hosts see the global sum.
//!     ctx.all_reduce_u64(ctx.host() as u64, |a, b| a + b)
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

pub mod clock;
pub mod cluster;
pub mod fault;
pub mod pool;
pub mod transport;
pub mod wire;

pub use clock::{Clock, RealClock};
pub use cluster::{
    run_transport_host, Backend, Cluster, CommError, CrashSignal, HostCtx, HostError, HostStats,
    MembershipChange, SyncPhase, JOB_ROUND_STRIDE, KILLED_EXIT_CODE,
};
pub use fault::{Fault, FaultKind, FaultPlan};
pub use pool::WorkerPool;
pub use transport::sim::{new_trace_sink, SimTransport, TraceEvent, TraceSink};
pub use transport::tcp::TcpTransport;
pub use transport::{
    Backoff, Deadline, GrowVerdict, HeartbeatConfig, RetxRequest, Transport, TransportConfig,
};
pub use wire::{ChunkHeader, FrameError, Wire, CHUNK_PAYLOAD};
