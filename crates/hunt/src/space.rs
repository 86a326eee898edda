//! The search space: candidate aggressor placements, burst phasings,
//! fault disturbances and regulator knob settings, plus the `.fgq`
//! renderer that turns a candidate into runnable scenario text.
//!
//! A **candidate** is a *family* (extra aggressor masters + fault
//! overlays, which change the scenario text) plus a *point* (the
//! `(period, budget)` programmed into every best-effort regulator at
//! the warm boundary). Candidates sharing a family share one scenario
//! text — and therefore one warmed prefix — so the evaluator can fork a
//! single snapshot per family and run only cheap divergent tails.

use fgqos_bench::rng::XorShift64Star;

/// Everything the engine needs to know about the base scenario without
/// parsing it: the text itself plus the structural facts the umbrella
/// extracted from its parsed form.
#[derive(Debug, Clone)]
pub struct BaseInfo {
    /// The base scenario text (unfiltered; the renderer strips global
    /// `expect` / `cycles` / `until_done` lines before appending).
    pub text: String,
    /// Name of the declared critical master the hunt attacks.
    pub critical: String,
    /// Synthetic (non-kernel) best-effort masters in the base scenario —
    /// the only legal targets for traffic faults.
    pub fault_targets: Vec<String>,
    /// Every declared master name (generated aggressors must not
    /// collide).
    pub reserved_names: Vec<String>,
    /// Scenario clock in MHz (for bandwidth computations downstream).
    pub clock_mhz: u64,
}

/// Address pattern of a generated aggressor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Sequential sweep over the footprint.
    Seq,
    /// Uniform random addresses over the footprint.
    Random,
    /// Fixed stride — the bank-mapping dimension: a stride of
    /// `row_bytes * banks` hammers one bank with a row miss per access.
    Strided(u64),
}

impl Pattern {
    fn render(self) -> String {
        match self {
            Pattern::Seq => "seq".to_string(),
            Pattern::Random => "random".to_string(),
            Pattern::Strided(s) => format!("strided:{s}"),
        }
    }
}

/// One generated best-effort aggressor master.
///
/// Aggressors are always `role best-effort`, so the point's
/// `(period, budget)` regulates them at the boundary: the hunt searches
/// for the worst interference *within* the regulated envelope, which is
/// exactly what the analytic bound claims to cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggressor {
    /// Base address — placed on or off the critical master's banks.
    pub base: u64,
    /// Footprint in bytes.
    pub footprint: u64,
    /// Transaction size in bytes.
    pub txn: u64,
    /// Address pattern (the bank-mapping knob).
    pub pattern: Pattern,
    /// Writes instead of reads (exercises write-to-read turnaround).
    pub write: bool,
    /// Optional on/off burst shaping in cycles.
    pub burst: Option<(u64, u64)>,
    /// Outstanding-transaction depth (0 = the kind's default).
    pub outstanding: u64,
    /// Workload RNG seed (part of the candidate identity).
    pub seed: u64,
}

/// A fault-injection overlay: re-shapes an existing synthetic master or
/// a generated aggressor at a chosen cycle (the burst-phasing knob).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disturbance {
    /// Strip every rate limit from `master` at cycle `at`.
    Rogue {
        /// Target master name.
        master: String,
        /// Switch cycle.
        at: u64,
    },
    /// Impose `on`/`off` burst shaping on `master` at cycle `at`.
    Bursty {
        /// Target master name.
        master: String,
        /// Switch cycle.
        at: u64,
        /// Burst on-phase in cycles (non-zero).
        on: u64,
        /// Burst off-phase in cycles.
        off: u64,
    },
}

impl Disturbance {
    /// The `(master, cycle)` slot this fault occupies — the DSL allows
    /// at most one traffic fault per slot.
    pub fn slot(&self) -> (&str, u64) {
        match self {
            Disturbance::Rogue { master, at } => (master, *at),
            Disturbance::Bursty { master, at, .. } => (master, *at),
        }
    }
}

/// The text-changing half of a candidate: generated aggressors plus
/// fault overlays. Equal families render equal scenario text and share
/// one warmed prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FamilySpec {
    /// Generated aggressor masters, in declaration order.
    pub aggressors: Vec<Aggressor>,
    /// Fault overlays, in declaration order.
    pub faults: Vec<Disturbance>,
}

/// Declared regulator knobs every aggressor carries through the warmed
/// prefix (the point's knobs replace them at the boundary). Fixed so
/// that all points of a family share one prefix.
const WARMUP_PERIOD: u64 = 1_000;
const WARMUP_BUDGET: u64 = 2_048;

impl FamilySpec {
    /// Name of the `i`-th generated aggressor.
    pub fn aggressor_name(i: usize) -> String {
        format!("hx{i}")
    }

    /// Renders the candidate scenario: the filtered base text plus this
    /// family's overlay sections.
    pub fn render(&self, base: &BaseInfo) -> String {
        let mut out = filter_base(&base.text, self.aggressors.len());
        if self.aggressors.is_empty() && self.faults.is_empty() {
            return out;
        }
        out.push_str("\n# hunt overlay\n");
        for (i, a) in self.aggressors.iter().enumerate() {
            out.push_str(&format!(
                "\n[master {}]\nkind accel\nrole best-effort\nperiod {WARMUP_PERIOD}\n\
                 budget {WARMUP_BUDGET}\npattern {}\ndir {}\nbase 0x{:x}\nfootprint {}\n\
                 txn {}\noutstanding {}\nseed {}\n",
                Self::aggressor_name(i),
                a.pattern.render(),
                if a.write { "W" } else { "R" },
                a.base,
                a.footprint,
                a.txn,
                a.outstanding,
                a.seed,
            ));
            if let Some((on, off)) = a.burst {
                out.push_str(&format!("burst {on} {off}\n"));
            }
        }
        for (i, f) in self.faults.iter().enumerate() {
            match f {
                Disturbance::Rogue { master, at } => {
                    out.push_str(&format!("\n[fault hxf{i}]\nat {at}\nrogue {master}\n"));
                }
                Disturbance::Bursty {
                    master,
                    at,
                    on,
                    off,
                } => {
                    out.push_str(&format!(
                        "\n[fault hxf{i}]\nat {at}\nbursty {master} {on} {off}\n"
                    ));
                }
            }
        }
        out
    }

    /// Master names a fault may target in this family: the base
    /// scenario's synthetic best-effort masters plus every generated
    /// aggressor.
    pub fn fault_targets(&self, base: &BaseInfo) -> Vec<String> {
        let mut t = base.fault_targets.clone();
        for i in 0..self.aggressors.len() {
            t.push(Self::aggressor_name(i));
        }
        t
    }
}

/// Drops global `expect`, `cycles` and `until_done` directives from the
/// base text: the hunt pins its own expectations and run length, and a
/// stale base assertion must not fail the winning scenario's replay.
/// (All three are global keys in the DSL, never section-scoped content,
/// so line-level filtering is exact.)
///
/// A declared `weights` list (an `[xbar]`-only key) gains weight 1 — what
/// an unweighted port gets — for each of `extra_masters` generated
/// aggressors, so it keeps listing one weight per master.
pub fn filter_base(text: &str, extra_masters: usize) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let first = line.split_whitespace().next().unwrap_or("");
        if matches!(first, "expect" | "cycles" | "until_done") {
            continue;
        }
        if first == "weights" {
            let (body, comment) = line.split_once('#').unwrap_or((line, ""));
            out.push_str(body.trim_end());
            out.push_str(&",1".repeat(extra_masters));
            if !comment.is_empty() {
                out.push_str(" #");
                out.push_str(comment);
            }
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// A full candidate: family text plus the boundary regulator knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The text-changing half.
    pub family: FamilySpec,
    /// Replenishment period programmed at the boundary (cycles).
    pub period: u64,
    /// Per-window budget programmed at the boundary (bytes).
    pub budget: u64,
}

impl Candidate {
    /// Stable identity for dedup and deterministic tie-breaking: the
    /// rendered family overlay plus the knobs.
    pub fn key(&self, base: &BaseInfo) -> String {
        format!(
            "{}\u{0}p={}\u{0}b={}",
            self.family.render(base),
            self.period,
            self.budget
        )
    }
}

/// A time-dimension knob of one candidate that the post-climb bisection
/// pass can move continuously: the burst phasing of a generated
/// aggressor or bursty fault, and the switch cycle of any fault. Indices
/// refer to the candidate's own `aggressors` / `faults` vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeKnob {
    /// On-phase of aggressor `i`'s burst shaping (cycles, non-zero).
    AggressorBurstOn(usize),
    /// Off-phase of aggressor `i`'s burst shaping (cycles).
    AggressorBurstOff(usize),
    /// Switch cycle of fault `i`.
    FaultAt(usize),
    /// On-phase of bursty fault `i` (cycles, non-zero).
    FaultBurstOn(usize),
    /// Off-phase of bursty fault `i` (cycles).
    FaultBurstOff(usize),
}

impl Candidate {
    /// Every time knob this candidate exposes, in a fixed declaration
    /// order (aggressors first, then faults) so the bisection pass is
    /// deterministic.
    pub fn time_knobs(&self) -> Vec<TimeKnob> {
        let mut knobs = Vec::new();
        for (i, a) in self.family.aggressors.iter().enumerate() {
            if a.burst.is_some() {
                knobs.push(TimeKnob::AggressorBurstOn(i));
                knobs.push(TimeKnob::AggressorBurstOff(i));
            }
        }
        for (i, f) in self.family.faults.iter().enumerate() {
            knobs.push(TimeKnob::FaultAt(i));
            if matches!(f, Disturbance::Bursty { .. }) {
                knobs.push(TimeKnob::FaultBurstOn(i));
                knobs.push(TimeKnob::FaultBurstOff(i));
            }
        }
        knobs
    }

    /// Current value of a knob.
    ///
    /// # Panics
    ///
    /// Panics if the knob does not exist on this candidate (callers pass
    /// knobs obtained from [`Candidate::time_knobs`]).
    pub fn knob(&self, k: TimeKnob) -> u64 {
        match k {
            TimeKnob::AggressorBurstOn(i) => self.family.aggressors[i].burst.expect("burst").0,
            TimeKnob::AggressorBurstOff(i) => self.family.aggressors[i].burst.expect("burst").1,
            TimeKnob::FaultAt(i) => self.family.faults[i].slot().1,
            TimeKnob::FaultBurstOn(i) => match &self.family.faults[i] {
                Disturbance::Bursty { on, .. } => *on,
                Disturbance::Rogue { .. } => panic!("rogue fault has no burst phase"),
            },
            TimeKnob::FaultBurstOff(i) => match &self.family.faults[i] {
                Disturbance::Bursty { off, .. } => *off,
                Disturbance::Rogue { .. } => panic!("rogue fault has no burst phase"),
            },
        }
    }

    /// Returns a clone with the knob set to `v`, or `None` when the
    /// value is illegal there: a zero on-phase, or a fault cycle that
    /// would collide with another fault's `(master, cycle)` slot.
    pub fn with_knob(&self, k: TimeKnob, v: u64) -> Option<Candidate> {
        let mut c = self.clone();
        match k {
            TimeKnob::AggressorBurstOn(i) => {
                if v == 0 {
                    return None;
                }
                c.family.aggressors[i].burst.as_mut()?.0 = v;
            }
            TimeKnob::AggressorBurstOff(i) => {
                c.family.aggressors[i].burst.as_mut()?.1 = v;
            }
            TimeKnob::FaultAt(i) => {
                let master = self.family.faults[i].slot().0.to_string();
                let collides = self
                    .family
                    .faults
                    .iter()
                    .enumerate()
                    .any(|(j, f)| j != i && f.slot() == (master.as_str(), v));
                if collides {
                    return None;
                }
                match &mut c.family.faults[i] {
                    Disturbance::Rogue { at, .. } | Disturbance::Bursty { at, .. } => *at = v,
                }
            }
            TimeKnob::FaultBurstOn(i) => {
                if v == 0 {
                    return None;
                }
                match &mut c.family.faults[i] {
                    Disturbance::Bursty { on, .. } => *on = v,
                    Disturbance::Rogue { .. } => return None,
                }
            }
            TimeKnob::FaultBurstOff(i) => match &mut c.family.faults[i] {
                Disturbance::Bursty { off, .. } => *off = v,
                Disturbance::Rogue { .. } => return None,
            },
        }
        Some(c)
    }
}

/// Value ranges the generator and mutator draw from. The umbrella
/// derives these from the scenario and the DRAM geometry (strides that
/// land on one bank, bases on/off the critical master's range); the
/// engine never needs to know why a value is in the list.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Maximum generated aggressors per family (min 0).
    pub max_aggressors: usize,
    /// Maximum fault overlays per family (min 0).
    pub max_faults: usize,
    /// Candidate boundary periods (cycles, non-zero).
    pub periods: Vec<u64>,
    /// Candidate boundary budgets (bytes, non-zero).
    pub budgets: Vec<u64>,
    /// Candidate aggressor transaction sizes (bytes).
    pub txns: Vec<u64>,
    /// Candidate strides for [`Pattern::Strided`].
    pub strides: Vec<u64>,
    /// Candidate aggressor base addresses.
    pub bases: Vec<u64>,
    /// Candidate aggressor footprints (bytes, each ≥ max txn).
    pub footprints: Vec<u64>,
    /// Candidate outstanding depths.
    pub outstandings: Vec<u64>,
    /// Candidate burst on-phases (cycles, non-zero).
    pub burst_on: Vec<u64>,
    /// Candidate burst off-phases (cycles).
    pub burst_off: Vec<u64>,
    /// Candidate fault cycles.
    pub fault_at: Vec<u64>,
}

impl SearchSpace {
    /// Validates that every list a draw may touch is non-empty and
    /// well-formed. The engine calls this once up front so a bad space
    /// errors before any simulation.
    pub fn validate(&self) -> Result<(), String> {
        let need = [
            (!self.periods.is_empty(), "periods"),
            (!self.budgets.is_empty(), "budgets"),
            (!self.txns.is_empty(), "txns"),
            (!self.strides.is_empty(), "strides"),
            (!self.bases.is_empty(), "bases"),
            (!self.footprints.is_empty(), "footprints"),
            (!self.outstandings.is_empty(), "outstandings"),
            (!self.burst_on.is_empty(), "burst_on"),
            (!self.burst_off.is_empty(), "burst_off"),
            (!self.fault_at.is_empty(), "fault_at"),
        ];
        for (ok, name) in need {
            if !ok {
                return Err(format!("search space: '{name}' must be non-empty"));
            }
        }
        if self.periods.contains(&0) {
            return Err("search space: periods must be non-zero".into());
        }
        if self.budgets.contains(&0) {
            return Err("search space: budgets must be non-zero".into());
        }
        if self.burst_on.contains(&0) {
            return Err("search space: burst on-phases must be non-zero".into());
        }
        Ok(())
    }

    fn random_aggressor(&self, rng: &mut XorShift64Star) -> Aggressor {
        let pattern = match rng.next_below(3) {
            0 => Pattern::Seq,
            1 => Pattern::Random,
            _ => Pattern::Strided(*rng.pick(&self.strides)),
        };
        let burst = if rng.chance(1, 2) {
            Some((*rng.pick(&self.burst_on), *rng.pick(&self.burst_off)))
        } else {
            None
        };
        let txn = *rng.pick(&self.txns);
        // footprint must hold at least one transaction.
        let footprints: Vec<u64> = self
            .footprints
            .iter()
            .copied()
            .filter(|&f| f >= txn)
            .collect();
        let footprint = if footprints.is_empty() {
            txn
        } else {
            *rng.pick(&footprints)
        };
        Aggressor {
            base: *rng.pick(&self.bases),
            footprint,
            txn,
            pattern,
            write: rng.chance(1, 3),
            burst,
            outstanding: *rng.pick(&self.outstandings),
            seed: rng.range_inclusive(1, 1 << 20),
        }
    }

    fn random_faults(
        &self,
        family: &FamilySpec,
        base: &BaseInfo,
        rng: &mut XorShift64Star,
    ) -> Vec<Disturbance> {
        let targets = family.fault_targets(base);
        if targets.is_empty() || self.max_faults == 0 {
            return Vec::new();
        }
        let n = rng.next_below(self.max_faults as u64 + 1) as usize;
        let mut faults: Vec<Disturbance> = Vec::new();
        for _ in 0..n {
            let master = rng.pick(&targets).clone();
            let at = *rng.pick(&self.fault_at);
            // One traffic fault per (master, cycle): drop colliding draws.
            if faults.iter().any(|f| f.slot() == (master.as_str(), at)) {
                continue;
            }
            faults.push(if rng.chance(1, 2) {
                Disturbance::Rogue { master, at }
            } else {
                Disturbance::Bursty {
                    master,
                    at,
                    on: *rng.pick(&self.burst_on),
                    off: *rng.pick(&self.burst_off),
                }
            });
        }
        faults
    }

    /// Draws a uniform random candidate.
    pub fn random_candidate(&self, base: &BaseInfo, rng: &mut XorShift64Star) -> Candidate {
        let n_aggr = rng.next_below(self.max_aggressors as u64 + 1) as usize;
        let mut family = FamilySpec {
            aggressors: (0..n_aggr).map(|_| self.random_aggressor(rng)).collect(),
            faults: Vec::new(),
        };
        family.faults = self.random_faults(&family, base, rng);
        Candidate {
            family,
            period: *rng.pick(&self.periods),
            budget: *rng.pick(&self.budgets),
        }
    }

    /// Hill-climbing mutation: one random tweak of one dimension.
    /// Numeric regulator knobs use bisection steps — the new value is
    /// the midpoint of the current value and a random anchor from the
    /// space — so repeated mutation of a surviving parent converges on
    /// the worst setting instead of hopping the grid forever.
    pub fn mutate(
        &self,
        parent: &Candidate,
        base: &BaseInfo,
        rng: &mut XorShift64Star,
    ) -> Candidate {
        let mut c = parent.clone();
        // 0..=5: budget bisect, period bisect, aggressor tweak,
        // aggressor add/remove, fault re-roll, point re-roll.
        match rng.next_below(6) {
            0 => {
                let anchor = *rng.pick(&self.budgets);
                c.budget = midpoint(c.budget, anchor).max(1);
            }
            1 => {
                let anchor = *rng.pick(&self.periods);
                c.period = midpoint(c.period, anchor).max(1);
            }
            2 => {
                if c.family.aggressors.is_empty() {
                    c.family.aggressors.push(self.random_aggressor(rng));
                } else {
                    let i = rng.pick_index(c.family.aggressors.len());
                    c.family.aggressors[i] = self.random_aggressor(rng);
                }
            }
            3 => {
                if c.family.aggressors.len() < self.max_aggressors && rng.chance(2, 3) {
                    c.family.aggressors.push(self.random_aggressor(rng));
                } else if !c.family.aggressors.is_empty() {
                    let i = rng.pick_index(c.family.aggressors.len());
                    c.family.aggressors.remove(i);
                    // Faults may now target a vanished aggressor name;
                    // re-roll them against the shrunken family.
                    c.family.faults = self.random_faults(&c.family, base, rng);
                }
            }
            4 => {
                c.family.faults = self.random_faults(&c.family, base, rng);
            }
            _ => {
                c.period = *rng.pick(&self.periods);
                c.budget = *rng.pick(&self.budgets);
            }
        }
        c
    }

    /// The `[lo, hi]` bracket the bisection pass searches for a knob —
    /// the extremes of the grid list the knob's kind draws from (the
    /// grid samples the range; bisection fills the continuum between).
    /// On-phases are floored at 1 cycle.
    pub fn knob_bracket(&self, k: TimeKnob) -> (u64, u64) {
        let list = match k {
            TimeKnob::AggressorBurstOn(_) | TimeKnob::FaultBurstOn(_) => &self.burst_on,
            TimeKnob::AggressorBurstOff(_) | TimeKnob::FaultBurstOff(_) => &self.burst_off,
            TimeKnob::FaultAt(_) => &self.fault_at,
        };
        let lo = list.iter().copied().min().unwrap_or(0);
        let hi = list.iter().copied().max().unwrap_or(0);
        if matches!(k, TimeKnob::AggressorBurstOn(_) | TimeKnob::FaultBurstOn(_)) {
            (lo.max(1), hi.max(1))
        } else {
            (lo, hi)
        }
    }
}

/// Overflow-safe integer midpoint (rounds the two halves together).
pub fn midpoint(a: u64, b: u64) -> u64 {
    a / 2 + b / 2 + (a % 2 + b % 2) / 2
}

/// Renders the winning candidate as a standalone, replayable `.fgq`
/// scenario: the family text, a `[phase]` applying the winning knobs to
/// every best-effort master at the recorded warm boundary (mirroring
/// exactly what the batch evaluator programs after forking), a global
/// cycle horizon covering warm-up plus tail, and `expect` assertions
/// pinning each measured metric from both sides.
pub fn render_winner(
    base: &BaseInfo,
    candidate: &Candidate,
    boundary: u64,
    total_cycles: u64,
    seed: u64,
    expects: &[(String, String, u64)],
) -> String {
    let mut out = candidate.family.render(base);
    out.push_str(&format!(
        "\n# fgqos hunt winner (seed {seed}); knobs applied at the warm boundary\n\
         [phase hunt_winner]\nat {boundary}\nperiod * {}\nbudget * {}\nenable * on\n\
         \ncycles {total_cycles}\n\n",
        candidate.period, candidate.budget,
    ));
    for (metric, master, value) in expects {
        out.push_str(&format!("expect {metric}({master}) >= {value}\n"));
        out.push_str(&format!("expect {metric}({master}) <= {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> BaseInfo {
        BaseInfo {
            text: "clock_mhz 1000\ncycles 400000\n\n[master cpu]\nkind cpu\nrole critical\n\n\
                   [master dma0]\nkind accel\nrole best-effort\n\nexpect isolation(cpu)\n"
                .into(),
            critical: "cpu".into(),
            fault_targets: vec!["dma0".into()],
            reserved_names: vec!["cpu".into(), "dma0".into()],
            clock_mhz: 1_000,
        }
    }

    fn space() -> SearchSpace {
        SearchSpace {
            max_aggressors: 3,
            max_faults: 2,
            periods: vec![500, 1_000, 4_000],
            budgets: vec![1_024, 8_192, 65_536],
            txns: vec![256, 1_024],
            strides: vec![16_384],
            bases: vec![0, 0x4000_0000],
            footprints: vec![1 << 20, 16 << 20],
            outstandings: vec![0, 4],
            burst_on: vec![200, 2_000],
            burst_off: vec![0, 1_000],
            fault_at: vec![10_000, 50_000],
        }
    }

    #[test]
    fn filter_strips_only_global_directives() {
        let filtered = filter_base(&base().text, 0);
        assert!(!filtered.contains("expect"));
        assert!(!filtered.contains("cycles 400000"));
        assert!(filtered.contains("[master cpu]"));
        assert!(filtered.contains("clock_mhz 1000"));
    }

    #[test]
    fn weights_gain_one_per_generated_aggressor() {
        let text = "[xbar]\narbitration weighted\nweights 4,1 # cpu first\n\n[master cpu]\n";
        let filtered = filter_base(text, 2);
        assert!(
            filtered.contains("weights 4,1,1,1 # cpu first\n"),
            "{filtered}"
        );
        assert_eq!(filter_base(text, 0), text);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (b, s) = (base(), space());
        let draw = |seed: u64| {
            let mut rng = XorShift64Star::new(seed).split("generate");
            (0..10)
                .map(|_| s.random_candidate(&b, &mut rng).key(&b))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn mutation_changes_exactly_reachable_dimensions() {
        let (b, s) = (base(), space());
        let mut rng = XorShift64Star::new(3).split("generate");
        let parent = s.random_candidate(&b, &mut rng);
        let mut rng_m = XorShift64Star::new(3).split("mutate");
        let mut changed = 0;
        for _ in 0..32 {
            let child = s.mutate(&parent, &b, &mut rng_m);
            if child.key(&b) != parent.key(&b) {
                changed += 1;
            }
        }
        assert!(changed > 16, "mutation almost always moves: {changed}/32");
    }

    #[test]
    fn fault_slots_never_collide() {
        let (b, s) = (base(), space());
        let mut rng = XorShift64Star::new(11).split("generate");
        for _ in 0..200 {
            let c = s.random_candidate(&b, &mut rng);
            let slots: Vec<(String, u64)> = c
                .family
                .faults
                .iter()
                .map(|f| {
                    let (m, at) = f.slot();
                    (m.to_string(), at)
                })
                .collect();
            let mut dedup = slots.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(slots.len(), dedup.len(), "one traffic fault per slot");
        }
    }

    #[test]
    fn winner_renders_phase_cycles_and_pinned_expects() {
        let b = base();
        let cand = Candidate {
            family: FamilySpec::default(),
            period: 700,
            budget: 3_000,
        };
        let text = render_winner(
            &b,
            &cand,
            123_456,
            223_456,
            42,
            &[("max_latency".into(), "cpu".into(), 901)],
        );
        assert!(text.contains("[phase hunt_winner]"));
        assert!(text.contains("at 123456"));
        assert!(text.contains("period * 700"));
        assert!(text.contains("budget * 3000"));
        assert!(text.contains("cycles 223456"));
        assert!(text.contains("expect max_latency(cpu) >= 901"));
        assert!(text.contains("expect max_latency(cpu) <= 901"));
        assert!(!text.contains("cycles 400000"), "base horizon stripped");
        assert!(!text.contains("isolation"), "base expects stripped");
    }
}
