//! Reactor soak harness: prove one reactor thread holds thousands of
//! links across many jobs with bounded tick latency.
//!
//! `acrbench` runs this and reports the work per reactor wake-up as
//! `tcp.tick_p50_us` / `tcp.tick_p99_us`; the unit test below runs a
//! miniature of it and pins the thread count.
//!
//! The harness is deliberately *not* a full job: it registers N jobs on
//! one reactor `Router`, handshakes `links_per_job` raw wire links into each
//! job's namespace (the same HELLO/WELCOME exchange a node host
//! performs), then pumps traffic both ways from a single load thread —
//! driver→node `Ctrl::Ping` frames fanned out through the reactor, and
//! node→driver `Event::Pong` frames flowing back up each job's event
//! channel. Every link is a real nonblocking socket; none of them gets
//! a thread. Tick latency is sampled inside the reactor loop itself
//! (`Router::tick_stats`): a tick is one wake-up of the readiness-driven
//! loop, timed from the moment `poll(2)` returns until the loop parks
//! again. Time parked is not counted, and the loop touches only the
//! links poll reported, so the figure is the cost of the work a wake-up
//! found — not of scanning every link.

use crate::message::{Ctrl, Event, Net};
use crate::tcp::Router;
use crate::wire::{self, Hello, WelcomeCfg, DRIVER_DEST, WELCOME_LEN};
use acr_obs::Recorder;
use crossbeam::channel::{unbounded, Receiver};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Shape of a reactor soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Concurrent jobs registered on the one reactor (default 4).
    pub jobs: u32,
    /// Links handshaken into each job's namespace (default 256).
    pub links_per_job: usize,
    /// How long to pump load once every link is connected (default 3 s).
    pub duration: Duration,
    /// Listen address; `None` binds an ephemeral loopback port.
    pub bind: Option<SocketAddr>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            jobs: 4,
            links_per_job: 256,
            duration: Duration::from_secs(3),
            bind: None,
        }
    }
}

/// What a soak run measured.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Jobs registered.
    pub jobs: u32,
    /// Total links connected (all jobs).
    pub links: usize,
    /// Reactor wake-ups (ticks) observed during the run.
    pub ticks: u64,
    /// Median work per reactor wake-up, nanoseconds.
    pub tick_p50_ns: u64,
    /// 99th-percentile work per reactor wake-up, nanoseconds.
    pub tick_p99_ns: u64,
    /// Worst work per reactor wake-up, nanoseconds.
    pub tick_max_ns: u64,
    /// Mean work per reactor wake-up, nanoseconds.
    pub tick_mean_ns: u64,
    /// `Event::Pong`s received across every job's event channel.
    pub events_received: u64,
    /// `Ctrl::Ping` frames fanned out through the reactor.
    pub net_frames_sent: u64,
    /// Process thread count before the router spawned (`/proc/self/status`,
    /// `None` off Linux).
    pub threads_before: Option<u64>,
    /// Process thread count with every link connected and load flowing.
    pub threads_during: Option<u64>,
}

/// Current thread count of this process from `/proc/self/status`
/// (`Threads:` line); `None` where that interface does not exist.
pub fn thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// A soak client: one handshaken link with its own outbound byte queue
/// (frames must never be torn by a partial nonblocking write).
struct SoakLink {
    sock: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    next_seq: u64,
    node: u32,
    /// Inbound frames are decoded only for their sequence numbers: each
    /// pong acknowledges the pings received, as a node's endpoint would,
    /// so the reactor's replay rings drain instead of growing all soak.
    dec: wire::FrameDecoder,
    last_recv: u64,
}

impl SoakLink {
    /// Queue one `Event::Pong` frame if the backlog is drained enough.
    fn queue_pong(&mut self) {
        if self.out.len() - self.out_pos > 16 * 1024 {
            return; // backpressure: the reactor is behind on this link
        }
        let body = wire::flatten(&wire::encode_event(&Event::Pong {
            node: self.node as usize,
            token: self.next_seq,
        }));
        let pong = wire::encode_frame_acked(DRIVER_DEST, self.next_seq, self.last_recv, &body);
        self.out.extend_from_slice(&pong);
        self.next_seq += 1;
    }

    /// Push queued bytes / drain inbound bytes, both without blocking.
    fn pump(&mut self, scratch: &mut [u8]) {
        while self.out_pos < self.out.len() {
            match self.sock.write(&self.out[self.out_pos..]) {
                Ok(0) => break,
                Ok(n) => self.out_pos += n,
                Err(_) => break, // WouldBlock (or a dying socket): retry next round
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        // Inbound is load, not protocol: only the sequence numbers matter.
        while matches!(self.dec.read_from(&mut self.sock, scratch), Ok(k) if k > 0) {
            while let Ok(Some(frame)) = self.dec.next_frame() {
                self.last_recv = self.last_recv.max(frame.seq);
            }
        }
    }
}

/// Run a reactor soak; see the module docs for what it proves.
pub fn run_reactor_soak(cfg: &SoakConfig) -> Result<SoakReport, String> {
    if cfg.jobs == 0 || cfg.links_per_job == 0 {
        return Err("soak needs at least one job and one link".into());
    }
    let threads_before = thread_count();
    let router = Router::spawn(cfg.bind)?;
    let mut event_rxs: Vec<Receiver<Event>> = Vec::new();
    for job in 0..cfg.jobs {
        let (tx, rx) = unbounded();
        router.register_job(
            job,
            cfg.links_per_job,
            tx,
            Recorder::disabled(),
            soak_welcome(cfg.links_per_job),
            Duration::from_secs(600),
        )?;
        event_rxs.push(rx);
    }
    let addr = router.dial_addr();

    // Handshake every link. Connects retry: a burst of dialers can fill
    // the accept queue faster than the reactor empties it.
    let mut links: Vec<(u32, SoakLink)> = Vec::with_capacity(cfg.jobs as usize * cfg.links_per_job);
    for job in 0..cfg.jobs {
        for node in 0..cfg.links_per_job {
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut sock = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(e) if Instant::now() < deadline => {
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(format!("connect {addr} (job {job} node {node}): {e}")),
                }
            };
            sock.write_all(&wire::encode_hello(&Hello {
                job,
                node: node as u32,
                last_recv_seq: 0,
                listen_port: 0,
            }))
            .map_err(|e| format!("hello (job {job} node {node}): {e}"))?;
            sock.set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| e.to_string())?;
            let mut welcome = [0u8; WELCOME_LEN];
            sock.read_exact(&mut welcome)
                .map_err(|e| format!("welcome (job {job} node {node}): {e}"))?;
            wire::decode_welcome(&welcome).map_err(|e| format!("welcome decode: {e:?}"))?;
            sock.set_nonblocking(true).map_err(|e| e.to_string())?;
            let _ = sock.set_nodelay(true);
            links.push((
                job,
                SoakLink {
                    sock,
                    out: Vec::new(),
                    out_pos: 0,
                    next_seq: 1,
                    node: node as u32,
                    dec: wire::FrameDecoder::new(),
                    last_recv: 0,
                },
            ));
        }
    }
    for job in 0..cfg.jobs {
        router.wait_all_connected(job, Duration::from_secs(60))?;
    }
    let connected = router.connected_links();
    if connected < links.len() {
        return Err(format!(
            "only {connected} of {} links registered as connected",
            links.len()
        ));
    }
    let threads_during = thread_count();

    // Load loop: every round, ping one node per job through the reactor
    // (round-robin) and queue a pong on a rotating slice of links.
    let mut events_received = 0u64;
    let mut net_frames_sent = 0u64;
    let mut scratch = vec![0u8; 64 * 1024];
    let deadline = Instant::now() + cfg.duration;
    let mut round = 0usize;
    while Instant::now() < deadline {
        for job in 0..cfg.jobs {
            router.send_net(
                job,
                round % cfg.links_per_job,
                &Net::Ctrl(Ctrl::Ping {
                    token: round as u64,
                }),
            );
            net_frames_sent += 1;
        }
        // A rotating 1/16th of the links speak each round, so every link
        // stays live without the load thread becoming the bottleneck.
        let stride = 16;
        let lane = round % stride;
        for (i, (_, link)) in links.iter_mut().enumerate() {
            if i % stride == lane {
                link.queue_pong();
            }
            link.pump(&mut scratch);
        }
        for rx in &event_rxs {
            events_received += rx.try_iter().count() as u64;
        }
        round += 1;
        std::thread::sleep(Duration::from_millis(1));
    }

    let stats = router.tick_stats();
    let report = SoakReport {
        jobs: cfg.jobs,
        links: links.len(),
        ticks: stats.count(),
        tick_p50_ns: stats.percentile(0.50).as_nanos() as u64,
        tick_p99_ns: stats.percentile(0.99).as_nanos() as u64,
        tick_max_ns: stats.max().as_nanos() as u64,
        tick_mean_ns: stats.mean().as_nanos() as u64,
        events_received,
        net_frames_sent,
        threads_before,
        threads_during,
    };
    router.shutdown();
    Ok(report)
}

fn soak_welcome(total: usize) -> WelcomeCfg {
    WelcomeCfg {
        ranks: (total / 2).max(1) as u32,
        tasks_per_rank: 1,
        spares: 0,
        total: total as u32,
        detection: acr_core::DetectionMethod::FullCompare,
        chunk_size: 4096,
        heartbeat_period_ns: Duration::from_millis(10).as_nanos() as u64,
        heartbeat_timeout_ns: Duration::from_secs(600).as_nanos() as u64,
        delta_checkpoints: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak (2 jobs × 8 links, 200 ms) end to end: links
    /// connect, load flows both ways, tick stats populate, and the
    /// thread count never scales with the link count.
    #[test]
    fn mini_soak_pumps_both_directions_on_bounded_threads() {
        let report = run_reactor_soak(&SoakConfig {
            jobs: 2,
            links_per_job: 8,
            duration: Duration::from_millis(200),
            bind: None,
        })
        .expect("soak runs");
        assert_eq!(report.jobs, 2);
        assert_eq!(report.links, 16);
        assert!(report.ticks > 0, "tick stats must populate");
        assert!(report.net_frames_sent > 0);
        assert!(
            report.events_received > 0,
            "pongs must flow up the event channels"
        );
        assert!(report.tick_p99_ns >= report.tick_p50_ns);
        assert!(report.tick_max_ns >= report.tick_p99_ns);
        if let (Some(before), Some(during)) = (report.threads_before, report.threads_during) {
            assert!(
                during <= before + 4,
                "reactor must stay O(1) threads: {before} -> {during} for 16 links"
            );
        }
    }
}
