//! The TCP carrier: a full mesh of host-pair connections carrying the
//! same wire-format frames as the in-proc fabric, for multi-process runs.
//!
//! Each connection carries tagged messages `[tag u8][len u32 LE][body]`:
//! `DATA` bodies are untouched `wire.rs` frames (the generic layer still
//! validates their CRC), `HB` is a heartbeat (any received message counts
//! as liveness; this one just guarantees a minimum rate), and every other
//! tag is a [`Ctrl`] in the codec documented in [`super::membership`].
//! One reader thread per connection applies control messages to this
//! host's [`Membership`] view; one writer thread per peer drains that
//! peer's send queue, so per-link FIFO order holds and a slow peer never
//! stalls the others.

use super::membership::TAG_SHRINK;
use super::{Backoff, Ctrl, Deadline, Membership, Transport, TransportConfig};
use crate::clock;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::time::Duration;

const TAG_DATA: u8 = 1;
const TAG_HB: u8 = 5;

/// Upper bound on a single stream message body; anything larger means a
/// corrupted length header, and the connection is dropped.
const MAX_BODY: usize = 1 << 31;

/// How long mesh construction waits for every peer to show up.
const SETUP_TIMEOUT: Duration = Duration::from_secs(30);

/// Outgoing messages for one peer, drained by that peer's writer thread.
struct SendQueue {
    pending: VecDeque<Vec<u8>>,
    /// Teardown: the writer drains what is pending, then exits; new
    /// messages are dropped.
    stop: bool,
    /// The link was declared dead (revive exhausted); messages are dropped
    /// immediately instead of burning the reconnect budget each.
    dead: bool,
}

/// One peer's outgoing side: the connection write half plus the send
/// queue its dedicated writer thread drains.
///
/// Splitting the queue from the socket is what keeps one slow peer from
/// stalling the whole scatter: `send` only appends to `queue` (never
/// touches the socket), and each peer's writer makes progress
/// independently with bounded, readiness-style writes.
struct PeerLink {
    /// Write half of the connection. Taken by the writer thread for the
    /// duration of a write, so the acceptor can install a replacement
    /// without blocking behind a wedged socket.
    conn: StdMutex<Option<TcpStream>>,
    queue: StdMutex<SendQueue>,
    /// Signals the writer thread: new message, new connection, or stop.
    ready: Condvar,
    /// Set once any connection to this peer has been installed (mesh
    /// setup waits on it).
    connected: AtomicBool,
}

impl PeerLink {
    fn new() -> Self {
        PeerLink {
            conn: StdMutex::new(None),
            queue: StdMutex::new(SendQueue {
                pending: VecDeque::new(),
                stop: false,
                dead: false,
            }),
            ready: Condvar::new(),
            connected: AtomicBool::new(false),
        }
    }
}

struct Inner {
    host: usize,
    hosts: usize,
    cfg: TransportConfig,
    ports: Vec<u16>,
    view: StdMutex<Membership>,
    cv: Condvar,
    /// Received data frames, per sending peer.
    inbox: Vec<StdMutex<Vec<Vec<u8>>>>,
    /// Per-peer outgoing links, locked independently of `view`: a socket
    /// write may block on a full send buffer, and holding the state lock
    /// across it would wedge our readers and deadlock the mesh.
    links: Vec<PeerLink>,
    shutdown: AtomicBool,
    /// Clock-nanoseconds of the last message from each peer.
    last_rx: Vec<AtomicU64>,
    /// Heartbeats are suppressed until this time (hang-simulation hook).
    silence_until: AtomicU64,
    threads: StdMutex<Vec<std::thread::JoinHandle<()>>>,
    /// Writer threads, joined before `shutdown` is set so pending control
    /// notices (DEPARTED) still reach the wire during teardown.
    tx_threads: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Inner {
    fn now_nanos(&self) -> u64 {
        clock::now_nanos()
    }

    fn lock(&self) -> MutexGuard<'_, Membership> {
        self.view.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Changes this host's view from a carrier thread and wakes its waits.
    fn update(&self, f: impl FnOnce(&mut Membership)) {
        f(&mut self.lock());
        self.cv.notify_all();
    }
}

/// Transport over a TCP mesh (one connection per host pair), for
/// multi-process runs and in-process loopback testing.
pub struct TcpTransport {
    inner: Arc<Inner>,
}

fn read_exact(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<()> {
    stream.read_exact(buf)
}

fn reader_loop(inner: Arc<Inner>, peer: usize, mut stream: TcpStream) {
    let mut hdr = [0u8; 5];
    loop {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if read_exact(&mut stream, &mut hdr).is_err() {
            break;
        }
        let tag = hdr[0];
        let len = u32::from_le_bytes([hdr[1], hdr[2], hdr[3], hdr[4]]) as usize;
        if len > MAX_BODY {
            break;
        }
        let mut body = vec![0u8; len];
        if read_exact(&mut stream, &mut body).is_err() {
            break;
        }
        inner.last_rx[peer].store(inner.now_nanos(), Ordering::Relaxed);
        apply(&inner, peer, tag, body);
    }
    if inner.shutdown.load(Ordering::Relaxed) {
        return;
    }
    // EOF without a `Departed` notice means the peer process died.
    inner.update(|v| v.link_lost(peer, true));
}

fn apply(inner: &Inner, peer: usize, tag: u8, body: Vec<u8>) {
    match tag {
        TAG_DATA => inner.inbox[peer]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(body),
        TAG_HB => {}
        _ => {
            if let Some(msg) = Ctrl::decode(tag, &body) {
                inner.update(|v| v.apply(peer, msg));
            }
        }
    }
}

fn handshake_connect(inner: &Inner, peer: usize) -> io::Result<TcpStream> {
    let addr = SocketAddr::from(([127, 0, 0, 1], inner.ports[peer]));
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    (&stream).write_all(&[inner.host as u8])?;
    Ok(stream)
}

/// Installs `stream` as the connection to `peer`: write half into the
/// link's connection slot (waking the writer thread), read half into a
/// fresh reader thread.
fn install(inner: &Arc<Inner>, peer: usize, stream: TcpStream) {
    let reader = stream.try_clone().expect("tcp stream clone");
    inner.last_rx[peer].store(inner.now_nanos(), Ordering::Relaxed);
    let link = &inner.links[peer];
    *link.conn.lock().unwrap_or_else(|e| e.into_inner()) = Some(stream);
    link.connected.store(true, Ordering::Relaxed);
    link.ready.notify_all();
    let inner2 = inner.clone();
    let handle = std::thread::Builder::new()
        .name(format!("kimbap-tcp-rx-{}-{peer}", inner.host))
        .spawn(move || reader_loop(inner2, peer, reader))
        .expect("failed to spawn tcp reader");
    inner
        .threads
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
}

fn acceptor_loop(inner: Arc<Inner>, listener: TcpListener) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    while !inner.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // The accepted socket must block for the reader thread.
                if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let mut id = [0u8; 1];
                let mut s = stream;
                let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
                if read_exact(&mut s, &mut id).is_err() {
                    continue;
                }
                let _ = s.set_read_timeout(None);
                let peer = id[0] as usize;
                if peer >= inner.hosts || peer == inner.host {
                    continue;
                }
                install(&inner, peer, s);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn heartbeat_loop(inner: Arc<Inner>, hb: super::HeartbeatConfig) {
    let limit = hb.suspect_after.as_nanos() as u64;
    while !inner.shutdown.load(Ordering::Relaxed) {
        let now = inner.now_nanos();
        if inner.silence_until.load(Ordering::Relaxed) <= now {
            for peer in 0..inner.hosts {
                if peer != inner.host {
                    send_on(&inner, peer, TAG_HB, &[]);
                }
            }
        }
        // Monitor: prolonged silence from a live peer is suspicion.
        let mut view = inner.lock();
        let mut woke = false;
        for peer in 0..inner.hosts {
            let seen = inner.last_rx[peer].load(Ordering::Relaxed);
            if now.saturating_sub(seen) > limit {
                woke |= view.suspect(peer);
            }
        }
        drop(view);
        if woke {
            inner.cv.notify_all();
        }
        clock::sleep(hb.interval);
    }
}

/// Enqueues one tagged message for `peer`. Returns immediately: the
/// peer's writer thread moves the bytes, so a slow or wedged peer never
/// stalls the caller (or the scatter to other peers).
fn send_on(inner: &Arc<Inner>, peer: usize, tag: u8, body: &[u8]) {
    {
        // Never write to a gone peer: reviving a permanently dead host's
        // socket burns the whole reconnect budget per message and can
        // re-fail a healed mesh. Latent peers that have not knocked yet
        // are equally unreachable — their process may not even exist.
        if !inner.lock().reachable(peer) {
            return;
        }
    }
    let mut buf = Vec::with_capacity(5 + body.len());
    buf.push(tag);
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(body);
    let link = &inner.links[peer];
    let mut q = link.queue.lock().unwrap_or_else(|e| e.into_inner());
    if q.stop || q.dead {
        return;
    }
    q.pending.push_back(buf);
    drop(q);
    link.ready.notify_all();
}

/// How long each bounded socket write waits for readiness before
/// returning `WouldBlock` and letting the writer re-check shutdown.
const WRITE_TICK: Duration = Duration::from_millis(20);

/// Writes all of `buf` with bounded, readiness-style writes: `SO_SNDTIMEO`
/// turns a full send buffer into a `WouldBlock` tick instead of an
/// unbounded block, so the writer thread stays responsive to shutdown and
/// teardown never wedges on a stalled peer.
fn write_all_ready(inner: &Inner, peer: usize, stream: &TcpStream, buf: &[u8]) -> bool {
    let _ = stream.set_write_timeout(Some(WRITE_TICK));
    let mut off = 0;
    let mut stalled_ticks = 0u32;
    while off < buf.len() {
        if inner.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        match { stream }.write(&buf[off..]) {
            Ok(0) => return false,
            Ok(n) => {
                off += n;
                stalled_ticks = 0;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                stalled_ticks += 1;
                // During teardown a peer that stays unwritable for ~5s is
                // abandoned so Drop can finish joining the writer.
                let stopping = inner.links[peer]
                    .queue
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .stop;
                if stopping && stalled_ticks > 250 {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    true
}

/// One attempt to write `buf` on the currently installed connection. The
/// stream is taken out of the slot for the write (so the acceptor can
/// install a replacement concurrently) and put back on success; a failed
/// stream is dropped so the next attempt reconnects fresh.
fn try_write(inner: &Inner, peer: usize, buf: &[u8]) -> bool {
    let taken = inner.links[peer]
        .conn
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    let Some(stream) = taken else {
        return false;
    };
    let ok = write_all_ready(inner, peer, &stream, buf);
    if ok {
        let mut slot = inner.links[peer].conn.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(stream);
        }
    }
    ok
}

/// Writes `buf` to `peer`, re-establishing the connection with
/// exponential backoff and decorrelated jitter on failure. Returns false
/// once the link is considered permanently dead.
fn write_or_revive(inner: &Arc<Inner>, peer: usize, buf: &[u8]) -> bool {
    if try_write(inner, peer, buf) {
        return true;
    }
    let mut backoff = Backoff::reconnect(inner.host);
    for _ in 0..8 {
        if inner.shutdown.load(Ordering::Relaxed) {
            return true;
        }
        if !inner.lock().reachable(peer) {
            return true;
        }
        if peer < inner.host {
            // We are the client for this pair: reconnect and re-handshake.
            if let Ok(stream) = handshake_connect(inner, peer) {
                install(inner, peer, stream);
            }
        }
        // Server side (or post-reconnect): use whatever connection is
        // present — the acceptor installs replacements as the peer redials.
        if try_write(inner, peer, buf) {
            return true;
        }
        backoff.sleep();
    }
    false
}

/// Drains `peer`'s send queue: one writer thread per peer, so per-peer
/// FIFO order is preserved while peers make progress independently. A
/// write failure that survives the revive loop is surfaced to the failure
/// detector immediately (instead of waiting for a heartbeat timeout), and
/// the queue is declared dead so later messages are dropped cheaply.
fn writer_loop(inner: Arc<Inner>, peer: usize) {
    let link = &inner.links[peer];
    loop {
        let buf = {
            let mut q = link.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(buf) = q.pending.pop_front() {
                    break buf;
                }
                if q.stop {
                    return;
                }
                q = link.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        if write_or_revive(&inner, peer, &buf) {
            continue;
        }
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // The link is dead: tell the failure detector now — collective
        // waits break with HostFailure instead of hanging until the
        // heartbeat monitor notices the silence.
        {
            let mut q = link.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.dead = true;
            q.pending.clear();
        }
        inner.update(|v| v.link_lost(peer, false));
    }
}

impl TcpTransport {
    /// Builds the transport for `host` from a pre-bound listener and the
    /// full port table (one loopback port per host). Used by the
    /// in-process TCP-loopback cluster mode, where all listeners are bound
    /// on port 0 up front.
    ///
    /// `latent` hosts are addressable capacity rather than members: they
    /// take no part in collectives until a grow admits them. A latent host
    /// constructing its own transport dials every member up front
    /// (whatever the id order — it is always the late side of the pair);
    /// members do not wait for latent peers to show up.
    pub fn with_listener(
        host: usize,
        num_hosts: usize,
        listener: TcpListener,
        ports: &[u16],
        cfg: TransportConfig,
        latent: &[usize],
    ) -> io::Result<Self> {
        assert!(num_hosts <= 255, "tcp transport addresses hosts by one byte");
        assert_eq!(ports.len(), num_hosts);
        let is_latent = |p: usize| latent.contains(&p);
        let joiner = is_latent(host);
        let inner = Arc::new(Inner {
            host,
            hosts: num_hosts,
            cfg,
            ports: ports.to_vec(),
            view: StdMutex::new(Membership::new(num_hosts, host, latent)),
            cv: Condvar::new(),
            inbox: (0..num_hosts).map(|_| StdMutex::new(Vec::new())).collect(),
            links: (0..num_hosts).map(|_| PeerLink::new()).collect(),
            shutdown: AtomicBool::new(false),
            // Seed liveness with "now": the clock epoch is process global,
            // so zero would read as ancient silence to the detector.
            last_rx: (0..num_hosts)
                .map(|_| AtomicU64::new(clock::now_nanos()))
                .collect(),
            silence_until: AtomicU64::new(0),
            threads: StdMutex::new(Vec::new()),
            tx_threads: StdMutex::new(Vec::new()),
        });
        {
            let inner2 = inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("kimbap-tcp-acc-{host}"))
                .spawn(move || acceptor_loop(inner2, listener))
                .expect("failed to spawn tcp acceptor");
            inner
                .threads
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle);
        }
        // One writer thread per peer drains that peer's send queue.
        for peer in (0..num_hosts).filter(|&p| p != host) {
            let inner2 = inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("kimbap-tcp-tx-{host}-{peer}"))
                .spawn(move || writer_loop(inner2, peer))
                .expect("failed to spawn tcp writer");
            inner
                .tx_threads
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle);
        }
        // Client side of each pair: the higher id dials the lower. A
        // joiner is the late side of every pair regardless of id order,
        // so it dials every member; members never dial latent peers (the
        // process may not exist yet).
        let dialees: Vec<usize> = if joiner {
            (0..num_hosts).filter(|&p| !is_latent(p)).collect()
        } else {
            (0..host).filter(|&p| !is_latent(p)).collect()
        };
        for peer in dialees {
            let mut backoff = Backoff::reconnect(host);
            let start = clock::now_nanos();
            loop {
                match handshake_connect(&inner, peer) {
                    Ok(stream) => {
                        install(&inner, peer, stream);
                        break;
                    }
                    Err(e)
                        if clock::now_nanos().saturating_sub(start)
                            > SETUP_TIMEOUT.as_nanos() as u64 =>
                    {
                        return Err(e)
                    }
                    Err(_) => backoff.sleep(),
                }
            }
        }
        // Wait for the server side of each pair (installed by the
        // acceptor); latent peers connect later, at their own join.
        let start = clock::now_nanos();
        loop {
            let connected = (0..num_hosts)
                .filter(|&p| p != host && !is_latent(p))
                .all(|p| inner.links[p].connected.load(Ordering::Relaxed));
            if connected {
                break;
            }
            if clock::now_nanos().saturating_sub(start) > SETUP_TIMEOUT.as_nanos() as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("host {host}: peers did not connect within {SETUP_TIMEOUT:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        if let Some(hb) = inner.cfg.heartbeat {
            let inner2 = inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("kimbap-tcp-hb-{host}"))
                .spawn(move || heartbeat_loop(inner2, hb))
                .expect("failed to spawn tcp heartbeat");
            inner
                .threads
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle);
        }
        Ok(TcpTransport { inner })
    }

    /// Binds `127.0.0.1:port_base + host` (retrying while the port is in
    /// `TIME_WAIT`) and joins the mesh with `latent` hosts (see
    /// [`TcpTransport::with_listener`]). Used by `kimbap run _worker`
    /// multi-process mode, where every worker derives the same port table
    /// from `port_base`; a late-spawned worker joining a running cluster
    /// binds its own listener here and dials every member.
    pub fn bind(
        host: usize,
        num_hosts: usize,
        port_base: u16,
        cfg: TransportConfig,
        latent: &[usize],
    ) -> io::Result<Self> {
        let ports: Vec<u16> = (0..num_hosts)
            .map(|h| {
                port_base
                    .checked_add(h as u16)
                    .expect("port range overflows u16")
            })
            .collect();
        let addr = SocketAddr::from(([127, 0, 0, 1], ports[host]));
        let start = clock::now_nanos();
        let listener = loop {
            match TcpListener::bind(addr) {
                Ok(l) => break l,
                Err(e)
                    if clock::now_nanos().saturating_sub(start)
                        > Duration::from_secs(5).as_nanos() as u64 =>
                {
                    return Err(e)
                }
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        TcpTransport::with_listener(host, num_hosts, listener, &ports, cfg, latent)
    }

    /// Binds one loopback listener per host on ephemeral ports; returns
    /// the listeners and the resolved port table. The cluster's TCP
    /// loopback mode hands one listener (plus the table) to each host
    /// thread.
    pub fn loopback_listeners(num_hosts: usize) -> io::Result<(Vec<TcpListener>, Vec<u16>)> {
        let mut listeners = Vec::with_capacity(num_hosts);
        let mut ports = Vec::with_capacity(num_hosts);
        for _ in 0..num_hosts {
            let l = TcpListener::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?;
            ports.push(l.local_addr()?.port());
            listeners.push(l);
        }
        Ok((listeners, ports))
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("host", &self.inner.host)
            .field("hosts", &self.inner.hosts)
            .field("ports", &self.inner.ports)
            .finish()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Phase 1: stop the send queues. Writers drain what is already
        // pending (the DEPARTED notice must reach the wire) and exit;
        // `shutdown` stays unset so in-flight writes complete.
        for link in &self.inner.links {
            link.queue.lock().unwrap_or_else(|e| e.into_inner()).stop = true;
            link.ready.notify_all();
        }
        let writers = std::mem::take(
            &mut *self
                .inner
                .tx_threads
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for h in writers {
            let _ = h.join();
        }
        // Phase 2: tear down the sockets and the reader/acceptor/heartbeat
        // threads.
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for link in &self.inner.links {
            if let Some(s) = link.conn.lock().unwrap_or_else(|e| e.into_inner()).take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        let handles = std::mem::take(
            &mut *self
                .inner
                .threads
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Transport for TcpTransport {
    fn host(&self) -> usize {
        self.inner.host
    }

    fn num_hosts(&self) -> usize {
        self.inner.hosts
    }

    fn send(&self, to: usize, frame: Vec<u8>) {
        send_on(&self.inner, to, TAG_DATA, &frame);
    }

    fn drain(&self, from: usize) -> Vec<Vec<u8>> {
        std::mem::take(&mut *self.inner.inbox[from].lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn post(&self, to: usize, msg: Ctrl) {
        let (tag, body) = msg.encode();
        send_on(&self.inner, to, tag, &body);
    }

    fn wait(&self, deadline: &Deadline, step: &mut dyn FnMut(&mut Membership, bool) -> bool) {
        let mut view = self.inner.lock();
        loop {
            let rem = deadline.remaining();
            if step(&mut view, rem.is_some_and(|r| r.is_zero())) {
                return;
            }
            view = match rem {
                None => self.inner.cv.wait(view).unwrap_or_else(|e| e.into_inner()),
                Some(rem) => {
                    self.inner
                        .cv
                        .wait_timeout(view, rem)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }

    fn reset(&self) {
        for row in &self.inner.inbox {
            row.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
        // Recovery means no live traffic is in flight: drop stale queued
        // data-path frames and give dead-declared links a fresh chance —
        // the peer may only have stalled, and the heal is about to
        // re-admit it. Membership agreement frames (tags from `Shrink` up)
        // must survive the purge: the grow leader resets its own protocol
        // state immediately after cutting a verdict its peers may not have
        // received yet.
        for link in &self.inner.links {
            let mut q = link.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.pending
                .retain(|f| f.first().is_some_and(|&t| t >= TAG_SHRINK));
            q.dead = false;
        }
        // A recovering host is alive: refresh peer liveness so the stall
        // that triggered recovery is not immediately re-flagged.
        let now = self.inner.now_nanos();
        for rx in &self.inner.last_rx {
            rx.store(now, Ordering::Relaxed);
        }
    }

    fn silence(&self, d: Duration) {
        let until = self.inner.now_nanos() + d.as_nanos() as u64;
        self.inner.silence_until.store(until, Ordering::Relaxed);
    }
}
