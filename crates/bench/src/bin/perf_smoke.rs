//! CI perf gate: same-binary speed ratios of the simulation cores.
//!
//! Each case runs one committed `scenarios/*.fgq` machine two ways in
//! this process, alternating the two sides, and checks the ratio of
//! their best wall-clocks against a fixed floor:
//!
//! | case | scenario | slow side / fast side |
//! |---|---|---|
//! | `contended calendar/naive` | `matrix-base.fgq` | naive / calendar core |
//! | `sparse calendar/naive` | `periodic-readers.fgq` | naive / calendar core, leap off |
//! | `leap on/off` | `periodic-readers.fgq`, 50M cycles | leap off / leap on |
//! | `warm boundary cold/fork` | `matrix-base.fgq` | warm-up to a quiesced boundary / fork of it |
//! | `warm boundary cold/load` | `matrix-base.fgq` | the same warm-up / blob decode and load |
//!
//! Both sides of a ratio share the binary, the host and the minute, so
//! a ratio keeps its value when the host runs two or three times slower
//! or faster; no floor here is an absolute throughput. Each floor is
//! about half the smallest ratio seen over repeated runs on a 2-vCPU
//! host (the runs are listed in `CHANGES.md`). A floor trips when a
//! fast path stops working, e.g. the calendar core waking every cycle,
//! leap detection never firing, or a fork replaying the warm-up.
//!
//! ```text
//! cargo run --release -p fgqos-bench --bin perf_smoke
//! ```
//!
//! Every side sets its core explicitly, so `FGQOS_NAIVE` and
//! `FGQOS_NO_LEAP` in the environment do not move the gate. Exits 1 when
//! any ratio falls below its floor.

use fgqos_bench::scenario::ScenarioSpec;
use fgqos_sim::snapshot::SocSnapshot;
use fgqos_sim::system::Soc;
use fgqos_sim::SnapshotBlob;
use std::time::Instant;

const MATRIX_BASE: &str = include_str!("../../../../scenarios/matrix-base.fgq");
const PERIODIC_READERS: &str = include_str!("../../../../scenarios/periodic-readers.fgq");

/// Floor of the naive/calendar ratio on `matrix-base.fgq` (seen:
/// 8.3-13.6).
const CONTENDED_FLOOR: f64 = 4.0;
/// Floor of the naive/calendar ratio, leap off, on
/// `periodic-readers.fgq` (seen: 84-134).
const SPARSE_FLOOR: f64 = 40.0;
/// Floor of the leap-off/leap-on ratio over [`LEAP_CYCLES`] (seen:
/// 170-291).
const LEAP_FLOOR: f64 = 85.0;
/// Floor of the cold-warm-up/fork ratio at the warm boundary (seen:
/// 388-1652).
const FORK_FLOOR: f64 = 190.0;
/// Floor of the cold-warm-up/(blob decode + load) ratio at the warm
/// boundary (seen: 218-352).
const LOAD_FLOOR: f64 = 105.0;

/// Horizon of the leap case: long enough that crossing it algebraically
/// dominates leap-on wall-clock.
const LEAP_CYCLES: u64 = 50_000_000;

/// Cycles every `matrix-base.fgq` side runs: ten times the file's own
/// horizon, so that the calendar side's run and the warm-up take
/// milliseconds, not fractions of one.
const MATRIX_SCALE: u64 = 10;

/// Alternating rounds per case; each side's best round counts.
const REPS: usize = 9;

/// Cycle budget for reaching the warm boundary's quiesced point.
const QUIESCE_BOUND: u64 = 1_000_000;

/// The core a side runs on.
#[derive(Clone, Copy)]
enum Core {
    Naive,
    Calendar { leap: bool },
}

/// Builds `text`'s machine on `core`.
fn build(text: &str, core: Core) -> Soc {
    let spec = ScenarioSpec::parse(text).expect("committed scenario parses");
    let (mut soc, _fabric) = spec.build();
    match core {
        Core::Naive => soc.set_naive(true),
        Core::Calendar { leap } => {
            soc.set_naive(false);
            soc.set_leap(leap);
        }
    }
    soc
}

/// The scenario's own `cycles` horizon.
fn horizon(text: &str) -> u64 {
    ScenarioSpec::parse(text)
        .expect("committed scenario parses")
        .cycles
        .expect("committed scenario declares cycles")
}

/// Best wall-clock seconds of `slow` and of `fast` over [`REPS`]
/// alternating rounds. Each closure sets up untimed and returns the
/// seconds of its timed region.
fn best_pair(mut slow: impl FnMut() -> f64, mut fast: impl FnMut() -> f64) -> (f64, f64) {
    let (mut s, mut f) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        s = s.min(slow());
        f = f.min(fast());
    }
    (s, f)
}

/// Seconds to run `text`'s machine for `cycles` on `core` (the build
/// stays outside the timed region).
fn run_secs(text: &str, core: Core, cycles: u64) -> f64 {
    let mut soc = build(text, core);
    let t0 = Instant::now();
    soc.run(cycles);
    t0.elapsed().as_secs_f64()
}

/// Runs `soc` through its warm-up to the first quiesced boundary after
/// it; returns the boundary cycle.
fn warm_up(soc: &mut Soc, cycles: u64) -> u64 {
    soc.run(cycles);
    soc.quiesce_point(QUIESCE_BOUND)
        .expect("matrix-base quiesces after its warm-up")
        .get()
}

fn main() {
    let calendar = Core::Calendar { leap: true };
    let leap_off = Core::Calendar { leap: false };
    let matrix = MATRIX_SCALE * horizon(MATRIX_BASE);
    let periodic = horizon(PERIODIC_READERS);

    // The warm boundary, captured once: the cold side reaches it again
    // from cycle zero, the fork and load sides start from it.
    let mut warm = build(MATRIX_BASE, calendar);
    let boundary = warm_up(&mut warm, matrix);
    let snap = warm.snapshot().expect("matrix-base forks");
    let bytes = snap.to_blob(MATRIX_BASE).encode();
    let cold = || {
        let mut soc = build(MATRIX_BASE, calendar);
        let t0 = Instant::now();
        let at = warm_up(&mut soc, matrix);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(at, boundary, "cold warm-up reaches the captured boundary");
        secs
    };

    let cases: [(&str, f64, (f64, f64)); 5] = [
        (
            "contended calendar/naive",
            CONTENDED_FLOOR,
            best_pair(
                || run_secs(MATRIX_BASE, Core::Naive, matrix),
                || run_secs(MATRIX_BASE, calendar, matrix),
            ),
        ),
        (
            "sparse calendar/naive",
            SPARSE_FLOOR,
            best_pair(
                || run_secs(PERIODIC_READERS, Core::Naive, periodic),
                || run_secs(PERIODIC_READERS, leap_off, periodic),
            ),
        ),
        (
            "leap on/off",
            LEAP_FLOOR,
            best_pair(
                || run_secs(PERIODIC_READERS, leap_off, LEAP_CYCLES),
                || run_secs(PERIODIC_READERS, calendar, LEAP_CYCLES),
            ),
        ),
        (
            "warm boundary cold/fork",
            FORK_FLOOR,
            best_pair(cold, || {
                let t0 = Instant::now();
                let fork = snap.fork();
                let secs = t0.elapsed().as_secs_f64();
                assert_eq!(fork.now().get(), boundary);
                secs
            }),
        ),
        (
            "warm boundary cold/load",
            LOAD_FLOOR,
            best_pair(cold, || {
                let skeleton = build(MATRIX_BASE, calendar);
                let t0 = Instant::now();
                let blob = SnapshotBlob::decode(&bytes).expect("warm blob decodes");
                let loaded = SocSnapshot::load_into(skeleton, &blob).expect("warm blob loads");
                let secs = t0.elapsed().as_secs_f64();
                assert_eq!(loaded.fingerprint(), snap.fingerprint());
                secs
            }),
        ),
    ];

    let mut failed = false;
    for (name, floor, (slow, fast)) in cases {
        let ratio = slow / fast;
        let ok = ratio >= floor;
        failed |= !ok;
        println!(
            "perf_smoke: {name:<25} {ratio:9.1}x  floor {floor:6.1}x  ({:.3} ms / {:.3} ms)  {}",
            slow * 1e3,
            fast * 1e3,
            if ok { "ok" } else { "FAIL" }
        );
    }
    if failed {
        eprintln!("perf_smoke: a same-binary speed ratio fell below its floor");
        std::process::exit(1);
    }
}
