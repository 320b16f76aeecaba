//! Pluggable channel fabric: the same driver/node protocol can run over
//! in-process crossbeam channels (the default, and the only option under
//! [`ExecMode::Virtual`](crate::driver::ExecMode)) or over length-prefixed
//! framed TCP with one link per node to the driver's router and one direct
//! link per buddy pair — the wire path that makes buddy-checkpoint shipping
//! and spare-node restart real (§2.1/§3 of the paper run replicas on
//! separate physical nodes).
//!
//! Only the *send* side is abstracted: a [`Port`] turns `Net`/`Event`
//! values into deliveries, while every receiver keeps an ordinary
//! crossbeam inbox (the TCP backend's reactor and endpoint loops feed
//! the same channels the in-process backend hands out directly). That keeps the
//! node scheduler and the driver event loop byte-identical across
//! backends.

use std::fmt;
use std::net::SocketAddr;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use acr_obs::Recorder;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::clock::Clock;
use crate::driver::JobConfig;
use crate::message::{Event, Net, NodeIndex};
use crate::node::{NodeWorker, TaskFactory};
use crate::tcp::{Endpoint, Router, CONNECT_TIMEOUT};
use crate::wire::{WelcomeCfg, WireCodec};

/// Send side of the fabric, as seen by one sender (the driver or one
/// node). Delivery is best-effort and non-blocking: the in-process
/// backend enqueues on an unbounded channel, the TCP backend hands the
/// frame to the reactor/endpoint loop (which queues it for replay while
/// the link is down). Loss is surfaced through liveness machinery —
/// counters and the reactor's stale-link scan — never through return
/// values, because a
/// node must not be able to distinguish "peer crashed" from "peer slow"
/// synchronously (§6.1's fail-stop model).
pub(crate) trait Port: Send + Sync {
    /// Deliver a protocol message to `to`'s inbox.
    fn send(&self, to: NodeIndex, msg: Net);
    /// Deliver a node→driver event.
    fn send_event(&self, ev: Event);
}

/// In-process backend: direct crossbeam senders, shared by the driver
/// and every node (the pre-transport fabric, unchanged semantics).
pub(crate) struct ChannelPort {
    peers: Arc<Vec<Sender<Net>>>,
    events: Sender<Event>,
    rec: Arc<Recorder>,
}

impl Port for ChannelPort {
    fn send(&self, to: NodeIndex, msg: Net) {
        // A send to a node whose channel is gone (job tearing down) is
        // dropped like a packet to a powered-off host — but counted, so
        // a swallowed delivery is visible to the metrics surface instead
        // of silently ok (the in-process analogue of a broken socket
        // feeding the liveness probe).
        if self.peers[to].send(msg).is_err() {
            self.rec.inc_counter("acr_send_to_closed_inbox_total", 1);
        }
    }

    fn send_event(&self, ev: Event) {
        let _ = self.events.send(ev);
    }
}

/// TCP backend, node side: every send is framed and handed to the
/// node's [`Endpoint`], which routes it by kind. The round's comparison
/// records (`Compare`, `CompareResult`, always addressed to the node's
/// current buddy) take the direct buddy link; everything else routes
/// through the driver's router, which re-frames by destination.
struct TcpNodePort {
    ep: Arc<Endpoint>,
}

impl Port for TcpNodePort {
    fn send(&self, to: NodeIndex, msg: Net) {
        match msg {
            Net::Compare { .. } | Net::CompareResult { .. } => self.ep.send_to_buddy(to, &msg),
            _ => self.ep.send_net(to, &msg),
        }
    }

    fn send_event(&self, ev: Event) {
        self.ep.send_event(&ev);
    }
}

/// TCP backend, driver side: control traffic goes out through the
/// router's per-node links; the driver's own events loop back directly
/// (the driver never talks to itself over the wire).
struct TcpDriverPort {
    router: Arc<Router>,
    job: u32,
    events: Sender<Event>,
}

impl Port for TcpDriverPort {
    fn send(&self, to: NodeIndex, msg: Net) {
        self.router.send_net(self.job, to, &msg);
    }

    fn send_event(&self, ev: Event) {
        let _ = self.events.send(ev);
    }
}

/// Which wire fabric a job runs on.
#[derive(Debug, Clone, Default)]
pub enum TransportKind {
    /// In-process crossbeam channels (default; required by
    /// [`ExecMode::Virtual`](crate::driver::ExecMode)).
    #[default]
    InProcess,
    /// Length-prefixed framed messaging over localhost TCP, one socket
    /// pair per node. Requires [`ExecMode::Threaded`](crate::driver::ExecMode).
    Tcp(TcpConfig),
}

/// A handle onto a driver service's shared reactor, carried inside
/// [`TcpConfig::shared`]: the job it names rides the service's one
/// reactor thread (inside its own link namespace, keyed by the HELLO's
/// job id) instead of spawning a private router. Constructed by the
/// multi-job driver service; single-job drivers never need one.
#[derive(Clone)]
pub struct SharedReactor {
    router: Arc<Router>,
    job: u32,
}

impl SharedReactor {
    pub(crate) fn new(router: Arc<Router>, job: u32) -> SharedReactor {
        SharedReactor { router, job }
    }

    /// The job id this handle registers links under.
    pub fn job(&self) -> u32 {
        self.job
    }

    /// The address the shared reactor is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.router.local_addr()
    }
}

impl fmt::Debug for SharedReactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedReactor")
            .field("job", &self.job)
            .field("addr", &self.router.local_addr())
            .finish()
    }
}

/// Tuning for the TCP backend: where the router listens and when a silent
/// link counts as stale. The wire format
/// itself has no options — one frame layout, no payload compression (see
/// [`wire`](crate::wire)).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Listen address for the driver's router; `None` binds an ephemeral
    /// localhost port (the in-process-workers case). Multi-process jobs
    /// pass an explicit address that node hosts on other machines dial —
    /// bind `0.0.0.0:<port>` (or a specific interface) to accept
    /// non-local connections, then point each host's
    /// [`run_node_host`] at the driver machine's routable address.
    /// Ignored when [`shared`](TcpConfig::shared) is set (the service
    /// already bound its reactor).
    pub addr: Option<SocketAddr>,
    /// How long a node's link may stay detached before the router's
    /// stale monitor reports it to the driver (which answers with a
    /// targeted liveness probe — a dead socket is not a dead node), and
    /// how long a buddy link may before its traffic falls back to the
    /// router.
    pub stale_after: Duration,
    /// When true, the driver spawns no local workers and instead waits
    /// for `2·ranks + spares` external node hosts (see
    /// [`run_node_host`]) to connect.
    pub remote_nodes: bool,
    /// Compile shim read by `benchmark/src/layers.rs`; see [`WireCodec`].
    #[doc(hidden)]
    pub codec: WireCodec,
    /// Optional hook tests use to sever or quarantine live links
    /// mid-run (socket-kill coverage). `None` in production.
    pub control: Option<TransportControl>,
    /// Ride an existing shared reactor (multi-job driver service) instead
    /// of spawning a private router: the job registers its link namespace
    /// under the handle's job id and deregisters at teardown, leaving the
    /// reactor — and every other job on it — running. `None` (the
    /// default) spawns a private single-job router exactly as before.
    pub shared: Option<SharedReactor>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            addr: None,
            stale_after: Duration::from_millis(50),
            remote_nodes: false,
            codec: WireCodec::None,
            control: None,
            shared: None,
        }
    }
}

/// Test hook for injecting transport faults into a live TCP fabric:
/// clone one into [`TcpConfig::control`] before the run, then `sever`
/// (one-shot socket kill; the endpoint reconnects) or `quarantine`
/// (refuse re-accept; the node stays unreachable until the driver's
/// probe declares it dead) from the test thread.
#[derive(Clone, Default)]
pub struct TransportControl {
    router: Arc<Mutex<Option<AttachedFabric>>>,
}

/// What a control is attached to: the reactor, the job id it routes, and
/// the job's local endpoints (none when the nodes run elsewhere).
type AttachedFabric = (Weak<Router>, u32, Vec<Weak<Endpoint>>);

impl TransportControl {
    /// New, unattached control (attaches when the job builds its fabric).
    pub fn new() -> Self {
        Self::default()
    }

    fn with_router<T>(&self, f: impl FnOnce(&Router, u32) -> T) -> Option<T> {
        let (weak, job, _) = self.router.lock().clone()?;
        weak.upgrade().map(|r| f(&r, job))
    }

    fn endpoint(&self, node: NodeIndex) -> Option<Arc<Endpoint>> {
        let guard = self.router.lock();
        guard.as_ref()?.2.get(node)?.upgrade()
    }

    /// Kill `node`'s current socket to the router (both directions).
    /// Returns `false` if the fabric is gone or the link was already
    /// detached.
    pub fn sever(&self, node: NodeIndex) -> bool {
        self.with_router(|r, job| r.sever(job, node))
            .unwrap_or(false)
    }

    /// Kill the current socket of the direct link between `node` and its
    /// buddy; the side that dialed it redials. Returns `false` if `node`
    /// runs elsewhere or has no live buddy link.
    pub fn sever_buddy_link(&self, node: NodeIndex) -> bool {
        self.endpoint(node).is_some_and(|ep| ep.sever_buddy_link())
    }

    /// Kill `node`'s sockets *and* refuse its reconnect attempts — the
    /// router's link and, for a local node, its buddy link — making the
    /// node permanently unreachable (transport-level death).
    pub fn quarantine(&self, node: NodeIndex) -> bool {
        self.partition_buddy_links(node);
        self.with_router(|r, job| r.quarantine(job, node))
            .unwrap_or(false)
    }

    /// Cut `node` off from direct links — the buddy link it has, any it
    /// would dial, any dialed to it — while its router link stays up: node
    /// hosts that reach the driver but not one another. Returns `false` if
    /// `node` runs elsewhere or the fabric is gone.
    pub fn partition_buddy_links(&self, node: NodeIndex) -> bool {
        self.endpoint(node).map(|ep| ep.quarantine()).is_some()
    }

    pub(crate) fn attach(&self, router: &Arc<Router>, job: u32, endpoints: &[Arc<Endpoint>]) {
        let endpoints = endpoints.iter().map(Arc::downgrade).collect();
        *self.router.lock() = Some((Arc::downgrade(router), job, endpoints));
    }
}

impl fmt::Debug for TransportControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TransportControl")
    }
}

/// Everything the driver needs from a built fabric.
pub(crate) struct Fabric {
    /// The driver's send side.
    pub driver_port: Arc<dyn Port>,
    /// One send side per local node (empty when `remote_nodes`).
    pub node_ports: Vec<Arc<dyn Port>>,
    /// One inbox per local node (empty when `remote_nodes`).
    pub inboxes: Vec<Receiver<Net>>,
    /// Teardown + readiness handle.
    pub handle: FabricHandle,
}

/// Owns the fabric's background machinery for teardown.
pub(crate) enum FabricHandle {
    InProcess,
    Tcp {
        router: Arc<Router>,
        /// The job's id in the router's link namespace (0 for a private
        /// single-job router).
        job: u32,
        /// Whether this job owns the router. An owned router is shut down
        /// at teardown; a shared (service) reactor only has this job
        /// deregistered and keeps serving its other jobs.
        owned: bool,
        endpoints: Vec<Arc<Endpoint>>,
    },
}

impl FabricHandle {
    /// Block until every node's link has completed the handshake, then
    /// hand every node the job's address book, from which a node dials its
    /// buddy (TCP only; trivially ready in-process).
    pub fn wait_transport_ready(&self) -> Result<(), String> {
        match self {
            FabricHandle::InProcess => Ok(()),
            FabricHandle::Tcp { router, job, .. } => {
                router.wait_all_connected(*job, CONNECT_TIMEOUT)?;
                router.publish_address_book(*job);
                Ok(())
            }
        }
    }

    /// Tear the fabric down: endpoints first (so workers wedged on a
    /// dead inbox see `Disconnected` and exit), then the router — shut
    /// down when owned, this job deregistered when shared.
    pub fn teardown(&self) {
        if let FabricHandle::Tcp {
            router,
            job,
            owned,
            endpoints,
            ..
        } = self
        {
            for ep in endpoints {
                ep.shutdown();
            }
            if *owned {
                router.shutdown();
            } else {
                router.deregister_job(*job);
            }
        }
    }
}

/// Build the fabric for the job `welcome` describes: channels for
/// [`TransportKind::InProcess`], a router plus per-node endpoints for
/// [`TransportKind::Tcp`], whose router hands `welcome` to every node.
pub(crate) fn build_fabric(
    cfg: &JobConfig,
    welcome: WelcomeCfg,
    event_tx: Sender<Event>,
    rec: &Arc<Recorder>,
) -> Fabric {
    let total = welcome.total as usize;
    match &cfg.transport {
        TransportKind::InProcess => {
            let mut senders = Vec::with_capacity(total);
            let mut inboxes = Vec::with_capacity(total);
            for _ in 0..total {
                let (tx, rx) = unbounded::<Net>();
                senders.push(tx);
                inboxes.push(rx);
            }
            let port: Arc<dyn Port> = Arc::new(ChannelPort {
                peers: Arc::new(senders),
                events: event_tx,
                rec: Arc::clone(rec),
            });
            Fabric {
                driver_port: Arc::clone(&port),
                node_ports: (0..total).map(|_| Arc::clone(&port)).collect(),
                inboxes,
                handle: FabricHandle::InProcess,
            }
        }
        TransportKind::Tcp(tcp) => {
            // Private router (job id 0) unless the driver service handed
            // this job a shared reactor to ride.
            let (router, job, owned) = match &tcp.shared {
                Some(shared) => (Arc::clone(&shared.router), shared.job, false),
                None => (
                    Router::spawn(tcp.addr)
                        .unwrap_or_else(|e| panic!("tcp transport: cannot bind router: {e}")),
                    0,
                    true,
                ),
            };
            router
                .register_job(
                    job,
                    total,
                    event_tx.clone(),
                    Arc::clone(rec),
                    welcome,
                    tcp.stale_after,
                )
                .unwrap_or_else(|e| panic!("tcp transport: cannot register job {job}: {e}"));
            let mut node_ports: Vec<Arc<dyn Port>> = Vec::new();
            let mut inboxes = Vec::new();
            let mut endpoints = Vec::new();
            if !tcp.remote_nodes {
                for node in 0..total {
                    let (tx, rx) = unbounded::<Net>();
                    let ep =
                        Endpoint::spawn(job, node, router.dial_addr(), tx, Arc::clone(rec), tcp);
                    node_ports.push(Arc::new(TcpNodePort {
                        ep: Arc::clone(&ep),
                    }));
                    inboxes.push(rx);
                    endpoints.push(ep);
                }
            }
            if let Some(control) = &tcp.control {
                control.attach(&router, job, &endpoints);
            }
            let driver_port: Arc<dyn Port> = Arc::new(TcpDriverPort {
                router: Arc::clone(&router),
                job,
                events: event_tx,
            });
            Fabric {
                driver_port,
                node_ports,
                inboxes,
                handle: FabricHandle::Tcp {
                    router,
                    job,
                    owned,
                    endpoints,
                },
            }
        }
    }
}

/// The job's shape and node settings, as every node is built from them:
/// in process directly, in a node host from the router's welcome.
pub(crate) fn welcome_cfg(cfg: &JobConfig, total: usize) -> WelcomeCfg {
    WelcomeCfg {
        ranks: cfg.ranks as u32,
        tasks_per_rank: cfg.tasks_per_rank as u32,
        spares: cfg.spares as u32,
        total: total as u32,
        detection: cfg.detection,
        chunk_size: cfg.chunk_size as u64,
        heartbeat_period_ns: cfg.heartbeat_period.as_nanos() as u64,
        heartbeat_timeout_ns: cfg.heartbeat_timeout.as_nanos() as u64,
        delta_checkpoints: cfg.delta_checkpoints,
    }
}

/// Host `nodes` of a distributed job in this process: dial the driver's
/// router at `addr`, receive the job configuration in the welcome
/// handshake, and run one worker thread per node until the driver sends
/// `Shutdown`. The factory must be the same one the driver's job uses
/// (both replicas reconstruct tasks from it, bit-identically).
///
/// This is the worker half of a multi-process TCP job: start the driver
/// with [`TransportKind::Tcp`] and
/// [`remote_nodes`](TcpConfig::remote_nodes) set, then one or more node
/// hosts covering node indices `0..2·ranks+spares` between them.
pub fn run_node_host(
    addr: SocketAddr,
    nodes: &[NodeIndex],
    factory: impl Fn(usize, usize) -> Box<dyn crate::task::Task> + Send + Sync + 'static,
) -> Result<(), String> {
    run_node_host_for_job(addr, 0, nodes, factory)
}

/// [`run_node_host`] against a specific job of a multi-job driver
/// service: the HELLO handshake carries `job`, and the reactor routes
/// these links into that job's namespace. Standalone drivers register
/// their single job as id 0, which is what [`run_node_host`] dials.
pub fn run_node_host_for_job(
    addr: SocketAddr,
    job: u32,
    nodes: &[NodeIndex],
    factory: impl Fn(usize, usize) -> Box<dyn crate::task::Task> + Send + Sync + 'static,
) -> Result<(), String> {
    let factory: Arc<TaskFactory> = Arc::new(factory);
    let rec = Recorder::disabled();
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for &node in nodes {
        let (tx, rx) = unbounded::<Net>();
        let ep = Endpoint::spawn(job, node, addr, tx, Arc::clone(&rec), &TcpConfig::default());
        let welcome = ep.wait_welcome(Duration::from_secs(30)).ok_or_else(|| {
            format!("node {node}: no welcome from the driver at {addr} within 30s")
        })?;
        let port: Arc<dyn Port> = Arc::new(TcpNodePort {
            ep: Arc::clone(&ep),
        });
        let factory = Arc::clone(&factory);
        let worker = NodeWorker::new(
            node,
            welcome,
            port,
            rx,
            factory,
            Clock::real(),
            Arc::clone(&rec),
        )?;
        handles.push(
            std::thread::Builder::new()
                .name(format!("acr-node-{node}"))
                .spawn(move || worker.run())
                .map_err(|e| format!("node {node}: spawn: {e}"))?,
        );
        endpoints.push(ep);
    }
    for h in handles {
        let _ = h.join();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    for ep in &endpoints {
        ep.linger(deadline);
    }
    Ok(())
}
