//! A copy counter for the TCP ship path: fails when a copy of the shipped
//! checkpoint comes back, or when the fabric starts holding on to old ones.
//!
//! This test binary installs a counting global allocator (in the style of
//! `acr-obs/tests/noalloc.rs`) and runs a two-replica TCP job whose nodes
//! carry 1 MiB of state each, `FullCompare` — so every round packs both
//! replicas and ships one whole checkpoint over the buddy link, endpoint to
//! endpoint. A buffer the size of the checkpoint can only come from the
//! allocator in a large block, so the bytes requested in blocks of 64 KiB
//! or more, per round, count the copies: two packs and the buddy's receive
//! buffer is all there should be. And because a sent frame is released by
//! the peer's acknowledgement, not by 32 MiB of later traffic, what the
//! process holds must stop growing after the first rounds. The same job with
//! delta checkpoints on, its writes confined to two chunks, ships only those
//! windows: two packs and the small record, nothing rebuilt on the buddy. A
//! last test reads the router's own traffic counters: the checkpoints do not
//! cross it.
//!
//! The task samples the counters each time it is packed (`Dir::Packing`:
//! once per node per checkpoint round), so round boundaries are observed
//! from inside the job, not guessed from the clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use acr_obs::{EventKind, DRIVER_NODE};
use acr_pup::{Dir, Pup, PupResult, Puper};
use acr_runtime::{
    AppMsg, DetectionMethod, ExecMode, Job, JobConfig, JobReport, Scheme, Task, TaskCtx, TcpConfig,
    TransportKind,
};

/// Blocks this large or larger are counted as potential checkpoint copies.
const BIG: usize = 64 << 10;

/// Bytes requested in blocks of [`BIG`] or more, ever.
static BIG_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated, and the most that ever was.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

fn took(size: usize) {
    if size >= BIG {
        BIG_BYTES.fetch_add(size, Ordering::Relaxed);
    }
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        took(layout.size());
        System.alloc(layout)
    }

    // (The default would `alloc` and then write the zeros itself.)
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        took(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        took(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const STATE_WORDS: usize = 128 << 10;
const STATE_BYTES: usize = STATE_WORDS * 8;
/// Two of the state's 16 default-size (64 KiB) chunks, in words.
const TWO_CHUNKS_WORDS: usize = 16 << 10;
const ITERS: u64 = 500;

/// `(BIG_BYTES, PEAK)` at each pack, in the order the packs happened.
static PACKS: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());

/// The allocator counts are process-wide: one job at a time.
static JOB_SERIAL: Mutex<()> = Mutex::new(());

/// 1 MiB of state, a few words of its first `span` rewritten per ~0.5 ms
/// step; both replicas compute the same thing, so every comparison is
/// clean.
struct Slab {
    iter: u64,
    words: Vec<u64>,
    span: usize,
}

impl Task for Slab {
    fn try_step(&mut self, _ctx: &mut TaskCtx<'_>) -> bool {
        if self.done() {
            return false;
        }
        std::thread::sleep(Duration::from_micros(500));
        for k in 0..8 {
            let at = (self.iter as usize * 8191 + k * 131) % self.span;
            self.words[at] = self.words[at].wrapping_mul(6364136223846793005) ^ self.iter;
        }
        self.iter += 1;
        true
    }

    fn on_message(&mut self, _msg: AppMsg, _ctx: &mut TaskCtx<'_>) {}

    fn progress(&self) -> u64 {
        self.iter
    }

    fn done(&self) -> bool {
        self.iter >= ITERS
    }

    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        if p.dir() == Dir::Packing {
            let sample = (
                BIG_BYTES.load(Ordering::Relaxed),
                PEAK.load(Ordering::Relaxed),
            );
            PACKS.lock().expect("no panic holds it").push(sample);
        }
        p.pup_u64(&mut self.iter)?;
        self.words.pup(p)
    }
}

/// A fault-free two-replica TCP `FullCompare` job of [`Slab`]s: writing all
/// over the state with delta checkpoints off, or inside its first two
/// chunks with them on.
fn slab_job(delta: bool) -> JobReport {
    let cfg = JobConfig::builder()
        .ranks(1)
        .tasks_per_rank(1)
        .spares(1)
        .scheme(Scheme::Strong)
        .detection(DetectionMethod::FullCompare)
        .delta_checkpoints(delta)
        .checkpoint_interval(Duration::from_millis(20))
        // Nothing here is about liveness: keep a busy runner from
        // declaring a node dead mid-measurement.
        .heartbeat_period(Duration::from_millis(20))
        .heartbeat_timeout(Duration::from_secs(5))
        .max_duration(Duration::from_secs(60))
        .transport(TransportKind::Tcp(TcpConfig::default()))
        .build()
        .expect("valid config");
    let report = Job::new(cfg).mode(ExecMode::Threaded).run(move |rank, _| {
        Box::new(Slab {
            iter: 0,
            words: (0..STATE_WORDS as u64).map(|i| i ^ rank as u64).collect(),
            span: if delta { TWO_CHUNKS_WORDS } else { STATE_WORDS },
        }) as Box<dyn Task>
    });
    assert!(report.completed, "job did not complete: {:?}", report.error);
    assert!(report.replicas_agree());
    assert_eq!(report.hard_errors_recovered, 0, "a false death");
    report
}

/// Run [`slab_job`] and read, from round 2 to the last, the bytes allocated
/// in large blocks per round as a multiple of the state size, and check
/// that the high-water mark grew by at most two states over those rounds.
fn large_blocks_per_round(delta: bool) -> f64 {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    PACKS.lock().expect("no panic holds it").clear();
    let report = slab_job(delta);

    // Two packs per round (one per replica), in round order; the final
    // states' two packs come last. Round `r` starts at its first pack.
    let packs = PACKS.lock().expect("no panic holds it").clone();
    let rounds = report.checkpoints_verified;
    assert!(rounds >= 8, "only {rounds} rounds: too short to tell");
    assert!(packs.len() >= 2 * rounds, "{} packs", packs.len());
    let (from, to) = (2, rounds - 1);
    let ((big0, peak0), (big1, peak1)) = (packs[2 * from], packs[2 * to]);

    let per_round = (big1 - big0) as f64 / (to - from) as f64 / STATE_BYTES as f64;
    let grew = (peak1 - peak0) as f64 / STATE_BYTES as f64;
    println!(
        "delta {delta}, {rounds} rounds: {per_round:.2} x state allocated in large blocks \
         per round; high-water mark grew {grew:.2} x state from round {from} to round {to}"
    );
    assert!(
        grew <= 2.0,
        "live bytes' high-water mark grew {grew:.2} x the state size after round {from}: \
         something keeps old checkpoints"
    );
    per_round
}

#[test]
fn a_shipped_checkpoint_is_allocated_once_per_process_and_let_go() {
    let per_round = large_blocks_per_round(false);
    // Two packs and the buddy's receive buffer — and slack.
    assert!(
        per_round <= 3.5,
        "{per_round:.2} x the state size per round in blocks >= 64 KiB: a copy is back"
    );
}

/// A delta buddy judges the record against its own checkpoint: a round is
/// two packs and a receive buffer for at most two dirty windows (2.10–2.13
/// x state), with no payload rebuilt from a retained copy of the last one
/// (3.13 x).
#[test]
fn a_delta_round_allocates_two_packs_and_the_dirty_windows() {
    let per_round = large_blocks_per_round(true);
    assert!(
        per_round <= 2.25,
        "{per_round:.2} x the state size per delta round in blocks >= 64 KiB: \
         the buddy builds a state-sized buffer again"
    );
}

/// The checkpoints go endpoint to endpoint: what the router receives over
/// the whole job is the final states (which the driver collects) and a
/// little control traffic per round — not a state's worth per round, as
/// when every compare record was relayed through it.
#[test]
fn the_router_carries_no_checkpoint() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = slab_job(false);
    let rounds = report.checkpoints_verified as u64;
    assert!(rounds >= 8, "only {rounds} rounds: too short to tell");
    let router_recv: u64 = (report.events.iter())
        .filter(|e| e.node == DRIVER_NODE)
        .filter_map(|e| match e.kind {
            EventKind::WireBytes { bytes_recv, .. } => Some(bytes_recv),
            _ => None,
        })
        .sum();
    let final_states: u64 = (report.final_states.values())
        .flatten()
        .map(|state| state.len() as u64)
        .sum();
    const PER_ROUND: u64 = 16 << 10;
    println!(
        "{rounds} rounds: router received {router_recv} bytes, final states {final_states}, \
         {:.0} bytes per round besides",
        router_recv.saturating_sub(final_states) as f64 / rounds as f64
    );
    assert!(
        router_recv < final_states + rounds * PER_ROUND,
        "the router received {router_recv} bytes over {rounds} rounds \
         ({final_states} of final states): checkpoints are crossing it"
    );
}
