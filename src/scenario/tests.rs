use super::*;
use fgqos_core::fabric::QosFabricBuilder;
use fgqos_core::program::ScenarioProgram;
use fgqos_sim::dram::RefreshStorm;
use fgqos_sim::interconnect::Arbitration;
use fgqos_sim::master::MasterKind;
use fgqos_sim::system::{SocBuilder, SocConfig};
use fgqos_sim::time::Freq;
use fgqos_workloads::kernels::Kernel;
use fgqos_workloads::spec::{AddressPattern, BurstShape, TrafficSpec};

const SAMPLE: &str = "\
clock_mhz 1000

[master cpu]
kind cpu
role critical
pattern random
footprint 4M
txn 256
think 1000
total 2000
outstanding 1

[master dma0]
kind accel
role best-effort
period 1000
budget 2K
pattern seq
base 0x40000000
txn 1024

[master rogue]
kind accel
pattern strided:64K
txn 512
write_ratio 0.5
seed 9
";

fn spec_of(m: &MasterSpec) -> &TrafficSpec {
    match &m.workload {
        Workload::Spec(t) => t,
        Workload::Kernel(..) => panic!("expected synthetic workload"),
    }
}

#[test]
fn parses_sample() {
    let s = ScenarioSpec::parse(SAMPLE).expect("parses");
    assert_eq!(s.freq, Freq::ghz(1));
    assert_eq!(s.masters.len(), 3);
    let cpu = &s.masters[0];
    assert_eq!(cpu.role, Role::Critical);
    assert_eq!(cpu.kind, MasterKind::Cpu);
    assert_eq!(spec_of(cpu).total, 2_000);
    let dma = &s.masters[1];
    assert_eq!(dma.budget, 2_048);
    assert_eq!(spec_of(dma).base, 0x4000_0000);
    let rogue = &s.masters[2];
    assert_eq!(rogue.role, Role::Unmanaged);
    assert!(matches!(
        spec_of(rogue).pattern,
        AddressPattern::Strided { stride: 65_536 }
    ));
    assert_eq!(spec_of(rogue).write_ratio, 0.5);
    assert!(s.phases.is_empty() && s.faults.is_empty() && s.expects.is_empty());
    assert_eq!(s.cycles, None);
    assert_eq!(s.until_done, None);
}

#[test]
fn xbar_section_and_kernel_and_burst() {
    let text = "\
[xbar]
arbitration weighted
weights 1,3

[master cpu]
kind cpu
role critical
burst 1000 9000
txn 256
total 100

[master k]
kind accel
workload kernel:memcpy:2
";
    let s = ScenarioSpec::parse(text).expect("parses");
    assert_eq!(s.xbar.arbitration, Arbitration::WeightedRoundRobin);
    assert_eq!(s.xbar.weights, vec![1, 3]);
    assert_eq!(
        spec_of(&s.masters[0]).burst,
        Some(BurstShape {
            on_cycles: 1_000,
            off_cycles: 9_000
        })
    );
    match &s.masters[1].workload {
        Workload::Kernel(k, iters, _) => {
            assert_eq!(k.name(), "memcpy");
            assert_eq!(*iters, 2);
        }
        other => panic!("expected kernel workload, got {other:?}"),
    }
    let (mut soc, _fabric) = s.build();
    soc.run(20_000);
    assert!(
        soc.master_stats(fgqos_sim::axi::MasterId::new(1))
            .issued_txns
            > 0
    );
}

#[test]
fn weight_count_must_match_masters() {
    let text = "[xbar]\nweights 1,2,3\n[master a]\nkind cpu\n";
    let e = ScenarioSpec::parse(text).unwrap_err();
    assert!(e.message.contains("one weight per master"));
}

#[test]
fn unknown_kernel_rejected() {
    let text = "[master a]\nkind accel\nworkload kernel:bogus\n";
    let e = ScenarioSpec::parse(text).unwrap_err();
    assert!(e.message.contains("unknown kernel"));
}

#[test]
fn builds_and_runs() {
    let s = ScenarioSpec::parse(SAMPLE).expect("parses");
    let (mut soc, fabric) = s.build();
    assert_eq!(soc.master_count(), 3);
    soc.run(200_000);
    assert!(fabric.driver("dma0").unwrap().telemetry().total_bytes > 0);
    assert!(fabric.driver("cpu").unwrap().telemetry().total_bytes > 0);
    assert!(
        fabric.driver("rogue").is_none(),
        "unmanaged ports have no regulator"
    );
}

#[test]
fn reclaim_section_builds_policy() {
    let text = format!(
        "{SAMPLE}\n[policy reclaim]\nreserved 2500\nbase 10K\ncontrol 10000\ngain 25\nbusy 256\n"
    );
    let s = ScenarioSpec::parse(&text).expect("parses");
    let r = s.reclaim.expect("reclaim present");
    assert_eq!(r.config.critical_reserved, 2_500);
    assert_eq!(r.config.be_base, 10_240);
    assert_eq!(r.config.busy_threshold, Some(256));
    let (mut soc, _fabric) = s.build();
    soc.run(50_000);
}

#[test]
fn size_suffixes() {
    let size = |token: &str| {
        ScenarioSpec::parse(&format!(
            "[master a]\nkind cpu\nrole critical\ntotal {token}\n"
        ))
        .map(|s| spec_of(&s.masters[0]).total)
    };
    assert_eq!(size("128").unwrap(), 128);
    assert_eq!(size("0x80").unwrap(), 128);
    assert_eq!(size("4K").unwrap(), 4_096);
    assert_eq!(size("2M").unwrap(), 2 << 20);
    assert_eq!(size("1G").unwrap(), 1 << 30);
    assert!(size("12Q").is_err());
}

#[test]
fn errors_carry_line_numbers() {
    let e = ScenarioSpec::parse("clock_mhz 1000\nbogus").unwrap_err();
    assert_eq!(e.line, 2);
    let e = ScenarioSpec::parse("[master a]\nkind dsp\n").unwrap_err();
    assert_eq!(e.line, 2);
    assert!(e.message.contains("kind"));
}

#[test]
fn missing_kind_rejected() {
    let e = ScenarioSpec::parse("[master a]\ntxn 256\n").unwrap_err();
    assert!(e.message.contains("missing kind"));
}

#[test]
fn empty_scenario_rejected() {
    let e = ScenarioSpec::parse("clock_mhz 500\n").unwrap_err();
    assert!(e.message.contains("no masters"));
}

#[test]
fn scenario_without_fabric_ports_rejected() {
    let text = "clock_mhz 500\n[master a]\nkind accel\n[master b]\nkind cpu\nrole unmanaged\n";
    let e = ScenarioSpec::parse(text).unwrap_err();
    assert_eq!(e.line, 2, "reported at the first master");
    assert!(
        e.message.contains("critical or best-effort"),
        "{}",
        e.message
    );
    let one_port = format!("{text}[master c]\nkind cpu\nrole critical\n");
    ScenarioSpec::parse(&one_port)
        .expect("one regulated port suffices")
        .build();
}

#[test]
fn duplicate_master_rejected() {
    let text = "[master a]\nkind cpu\n[master a]\nkind cpu\n";
    let e = ScenarioSpec::parse(text).unwrap_err();
    assert!(e.message.contains("duplicate"));
    assert_eq!(e.line, 3, "duplicate reported at its own declaration");
}

#[test]
fn diagnostic_renders_file_line_message() {
    let e = ScenarioSpec::parse("clock_mhz 1000\nbogus").unwrap_err();
    assert_eq!(
        e.diagnostic("scen.fgq"),
        "scen.fgq:2: expected `key value`, got \"bogus\""
    );
    // Whole-file errors have no line; the diagnostic omits it.
    let e = ScenarioSpec::parse("clock_mhz 500\n").unwrap_err();
    assert_eq!(e.line, 0);
    assert!(e.diagnostic("s.fgq").starts_with("s.fgq: "));
}

#[test]
fn reclaim_requires_roles() {
    let text = "[master a]\nkind cpu\n[policy reclaim]\nreserved 100\n";
    let e = ScenarioSpec::parse(text).unwrap_err();
    assert!(e.message.contains("reclaim policy needs"));
}

#[test]
fn invalid_traffic_rejected_at_parse() {
    const MAX: &str = "18446744073709551615";
    // (master keys, reported line, message fragment); the master opens
    // on line 1, its keys start on line 4.
    let cases = [
        ("txn 100".to_string(), 1, "multiple"), // not a beat multiple
        ("footprint 20000000000G".into(), 4, "overflows 64 bits"),
        ("footprint 17179869184G".into(), 4, "overflows 64 bits"),
        ("base 0xffffffffffffff00\nfootprint 1M".into(), 1, "base + footprint"),
        (format!("think {MAX}"), 4, "think must be at most"),
        (format!("gap {MAX}"), 4, "gap must be at most"),
        (format!("burst 10 {MAX}"), 4, "burst off-phase must be at most"),
        (format!("pattern strided:{MAX}"), 1, "footprint + stride"),
        (
            format!("\n[master dma]\nkind accel\nrole best-effort\n[fault f]\nat 1\nbursty dma {MAX} {MAX}"),
            10,
            "bursty on-phase must be at most",
        ),
        ("period 0".into(), 4, "period must be non-zero"),
    ];
    for (keys, line, fragment) in cases {
        let text = format!("[master a]\nkind cpu\nrole critical\n{keys}\n");
        let e = ScenarioSpec::parse(&text).unwrap_err();
        assert_eq!(e.line, line, "{keys}: {}", e.message);
        assert!(e.message.contains(fragment), "{keys}: {}", e.message);
    }
}

// ---- v2: phases ----

const V2_BASE: &str = "\
clock_mhz 1000

[master cpu]
kind cpu
role critical
pattern random
footprint 4M
txn 256
think 500

[master dma0]
kind accel
role best-effort
period 1000
budget 2048
pattern seq
base 0x40000000
txn 1024

[master dma1]
kind accel
role best-effort
period 1000
budget 2048
pattern seq
base 0x50000000
txn 1024
";

#[test]
fn parses_phase_sections() {
    let text = format!(
        "{V2_BASE}\n[phase ramp]\nat 50000\nbudget dma0 8192\nperiod dma1 500\nenable dma1 off\n"
    );
    let s = ScenarioSpec::parse(&text).expect("parses");
    assert_eq!(s.phases.len(), 1);
    let p = &s.phases[0];
    assert_eq!(p.name, "ramp");
    assert_eq!(p.at, 50_000);
    assert_eq!(
        p.actions,
        vec![
            PhaseAction {
                master: "dma0".into(),
                op: ProgramOp::Budget(8_192)
            },
            PhaseAction {
                master: "dma1".into(),
                op: ProgramOp::Period(500)
            },
            PhaseAction {
                master: "dma1".into(),
                op: ProgramOp::Enable(false)
            },
        ]
    );
}

#[test]
fn phase_wildcard_expands_over_best_effort() {
    let text = format!("{V2_BASE}\n[phase all]\nat 1000\nbudget * 4096\n");
    let s = ScenarioSpec::parse(&text).expect("parses");
    let names: Vec<&str> = s.phases[0]
        .actions
        .iter()
        .map(|a| a.master.as_str())
        .collect();
    assert_eq!(names, vec!["dma0", "dma1"]);
}

#[test]
fn phase_requires_at_and_best_effort_target() {
    let text = format!("{V2_BASE}\n[phase p]\nbudget dma0 4096\n");
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(e.message.contains("missing `at`"), "{}", e.message);
    let text = format!("{V2_BASE}\n[phase p]\nat 100\nbudget cpu 4096\n");
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(e.message.contains("not best-effort"), "{}", e.message);
}

#[test]
fn phase_zero_period_rejected() {
    let text = format!("{V2_BASE}\n[phase p]\nat 100\nperiod dma0 0\n");
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(e.message.contains("non-zero"), "{}", e.message);
}

#[test]
fn phased_scenario_reprograms_budget() {
    let text = format!("{V2_BASE}\n[phase ramp]\nat 10000\nbudget dma0 8192\n");
    let s = ScenarioSpec::parse(&text).expect("parses");
    let (mut soc, fabric) = s.build();
    assert_eq!(fabric.driver("dma0").unwrap().budget_bytes(), 2_048);
    soc.run(20_000);
    assert_eq!(fabric.driver("dma0").unwrap().budget_bytes(), 8_192);
}

// ---- v2: faults ----

#[test]
fn parses_fault_sections() {
    let text = format!(
        "{V2_BASE}\n[fault mayhem]\nat 80000\nrogue dma0\nbursty dma1 500 1500\n\
         regulator dma1 off\nrefresh_storm 400 20000\n"
    );
    let s = ScenarioSpec::parse(&text).expect("parses");
    assert_eq!(s.faults.len(), 1);
    let f = &s.faults[0];
    assert_eq!(f.at, 80_000);
    assert_eq!(f.events.len(), 4);
    assert_eq!(
        f.events[0],
        FaultEvent::Rogue {
            master: "dma0".into()
        }
    );
    assert_eq!(
        f.events[3],
        FaultEvent::RefreshStorm {
            interval: 400,
            duration: 20_000
        }
    );
}

#[test]
fn fault_validation() {
    // Kernel masters cannot be traffic-faulted.
    let text = "[master k]\nkind accel\nworkload kernel:memcpy\n[fault f]\nat 10\nrogue k\n";
    let e = ScenarioSpec::parse(text).unwrap_err();
    assert!(e.message.contains("kernel"), "{}", e.message);
    // Regulator faults need a regulated master.
    let text = format!("{V2_BASE}\n[fault f]\nat 10\nregulator cpu off\n");
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(e.message.contains("not best-effort"), "{}", e.message);
    // Controller faults need a policy.
    let text = format!("{V2_BASE}\n[fault f]\nat 10\ncontroller off\n");
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(e.message.contains("policy reclaim"), "{}", e.message);
    // Two traffic faults on one master at the same cycle.
    let text = format!("{V2_BASE}\n[fault a]\nat 10\nrogue dma0\n[fault b]\nat 10\nhalt dma0\n");
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(e.message.contains("two traffic faults"), "{}", e.message);
    // Overlapping storms.
    let text = format!(
        "{V2_BASE}\n[fault a]\nat 10\nrefresh_storm 400 1000\n\
         [fault b]\nat 500\nrefresh_storm 400 1000\n"
    );
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(e.message.contains("overlap"), "{}", e.message);
}

#[test]
fn rogue_fault_builds_phased_source() {
    let text = format!("{V2_BASE}\n[fault f]\nat 5000\nrogue dma0\n");
    let s = ScenarioSpec::parse(&text).expect("parses");
    let (mut soc, _fabric) = s.build();
    soc.run(20_000);
    let id = soc.master_id("dma0").expect("declared");
    assert!(soc.master_stats(id).issued_txns > 0);
}

#[test]
fn storm_fault_reaches_dram_config() {
    let text = format!("{V2_BASE}\n[fault f]\nat 5000\nrefresh_storm 500 10000\n");
    let s = ScenarioSpec::parse(&text).expect("parses");
    assert_eq!(
        s.storms(),
        vec![RefreshStorm {
            start: 5_000,
            end: 15_000,
            interval: 500
        }]
    );
    let (mut soc, _fabric) = s.build();
    soc.run(30_000);
}

// ---- v2: expects ----

#[test]
fn parses_expect_directives() {
    let text = format!(
        "{V2_BASE}\nexpect p99_latency(cpu) < 2000\nexpect bytes(dma0) >= 1M\n\
         expect bandwidth(dma1) within 5% of budget\nexpect isolation(cpu)\n\
         expect not isolation(cpu)\n"
    );
    let s = ScenarioSpec::parse(&text).expect("parses");
    assert_eq!(s.expects.len(), 5);
    assert_eq!(
        s.expects[0].kind,
        ExpectKind::Latency {
            metric: LatencyMetric::P99,
            master: "cpu".into(),
            op: CmpOp::Lt,
            value: 2_000
        }
    );
    assert_eq!(
        s.expects[1].kind,
        ExpectKind::Bytes {
            master: "dma0".into(),
            op: CmpOp::Ge,
            value: 1 << 20
        }
    );
    assert_eq!(
        s.expects[2].kind,
        ExpectKind::WithinBudget {
            master: "dma1".into(),
            percent: 5.0
        }
    );
    assert_eq!(
        s.expects[3].kind,
        ExpectKind::Isolation {
            master: "cpu".into()
        }
    );
    assert!(!s.expects[3].negated);
    assert!(s.expects[4].negated);
    assert_eq!(s.expects[0].text, "p99_latency(cpu) < 2000");
}

#[test]
fn expect_role_validation() {
    let text = format!("{V2_BASE}\nexpect isolation(dma0)\n");
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(e.message.contains("critical"), "{}", e.message);
    let text = format!("{V2_BASE}\nexpect bandwidth(cpu) within 5% of budget\n");
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(e.message.contains("best-effort"), "{}", e.message);
}

#[test]
fn malformed_expect_diagnostics_pinned() {
    let e =
        ScenarioSpec::parse("expect p99latency(cpu) < 5\n[master cpu]\nkind cpu\n").unwrap_err();
    assert_eq!(
        e.diagnostic("s.fgq"),
        "s.fgq:1: malformed expect: unknown metric \"p99latency\" \
         (did you mean \"p99_latency\"?)"
    );
    let e = ScenarioSpec::parse("expect isolation cpu\n[master cpu]\nkind cpu\n").unwrap_err();
    assert_eq!(
        e.diagnostic("s.fgq"),
        "s.fgq:1: malformed expect \"isolation cpu\": expected `metric(master)`"
    );
    let e = ScenarioSpec::parse("expect bytes(cpu) == 5\n[master cpu]\nkind cpu\n").unwrap_err();
    assert_eq!(
        e.diagnostic("s.fgq"),
        "s.fgq:1: malformed expect \"bytes(cpu) == 5\": unknown comparison \"==\" \
         (use <, <=, > or >=)"
    );
}

#[test]
fn did_you_mean_diagnostics_pinned() {
    let e = ScenarioSpec::parse("clock_mzh 1000\n[master a]\nkind cpu\n").unwrap_err();
    assert_eq!(
        e.diagnostic("s.fgq"),
        "s.fgq:1: unknown top-level key \"clock_mzh\" (did you mean \"clock_mhz\"?)"
    );
    let e = ScenarioSpec::parse("[master a]\nkind cpu\nfootprnt 4M\n").unwrap_err();
    assert_eq!(
        e.diagnostic("s.fgq"),
        "s.fgq:3: unknown master key \"footprnt\" (did you mean \"footprint\"?)"
    );
    let e = ScenarioSpec::parse("[phse p]\nat 100\n").unwrap_err();
    assert_eq!(
        e.diagnostic("s.fgq"),
        "s.fgq:1: unknown section \"phse\" (did you mean \"phase\"?)"
    );
    // Unknown master names in faults get name suggestions too.
    let text = format!("{V2_BASE}\n[fault f]\nat 10\nrogue dma2\n");
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(
        e.message.contains("did you mean \"dma0\"?"),
        "{}",
        e.message
    );
}

#[test]
fn far_off_keys_get_no_suggestion() {
    let e = ScenarioSpec::parse("[master a]\nkind cpu\nzzzzzz 1\n").unwrap_err();
    assert!(!e.message.contains("did you mean"), "{}", e.message);
}

// ---- v2: cycles / until_done / override / extends ----

#[test]
fn cycles_and_until_done_directives() {
    let text = format!("cycles 123456\nuntil_done cpu\n{V2_BASE}");
    let s = ScenarioSpec::parse(&text).expect("parses");
    assert_eq!(s.cycles, Some(123_456));
    assert_eq!(s.until_done.as_deref(), Some("cpu"));
    let text = format!("until_done nope\n{V2_BASE}");
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(e.message.contains("unknown master"), "{}", e.message);
}

#[test]
fn override_master_merges_into_declaration() {
    let text = format!("{V2_BASE}\n[override master dma0]\nbudget 9999\nseed 7\n");
    let s = ScenarioSpec::parse(&text).expect("parses");
    let dma = &s.masters[1];
    assert_eq!(dma.budget, 9_999);
    assert_eq!(dma.seed, 7);
    // Untouched keys keep their original values.
    assert_eq!(spec_of(dma).base, 0x4000_0000);
    let e = ScenarioSpec::parse("[master a]\nkind cpu\n[override master b]\nseed 2\n").unwrap_err();
    assert!(e.message.contains("unknown master"), "{}", e.message);
}

#[test]
fn unresolved_extends_rejected_by_parse() {
    let e = ScenarioSpec::parse("extends base.fgq\n[master a]\nkind cpu\n").unwrap_err();
    assert!(e.message.contains("unresolved extends"), "{}", e.message);
}

#[test]
fn resolve_extends_flattens_and_detects_cycles() {
    let fetch = |path: &str| match path {
        "base.fgq" => Ok(V2_BASE.to_string()),
        "mid.fgq" => Ok("extends base.fgq\n[override master dma0]\nbudget 4096\n".to_string()),
        other => Err(format!("no such file {other:?}")),
    };
    let child = "extends mid.fgq\n[override master dma1]\nbudget 1024\n";
    let flat = resolve_extends_with(child, &mut fetch.clone()).expect("resolves");
    let s = ScenarioSpec::parse(&flat).expect("flattened text parses");
    assert_eq!(s.masters[1].budget, 4_096);
    assert_eq!(s.masters[2].budget, 1_024);
    // Cycle detection.
    let mut cyclic = |path: &str| match path {
        "a.fgq" => Ok("extends b.fgq\n".to_string()),
        "b.fgq" => Ok("extends a.fgq\n".to_string()),
        other => Err(format!("no such file {other:?}")),
    };
    let e = resolve_extends_with("extends a.fgq\n", &mut cyclic).unwrap_err();
    assert!(e.message.contains("cycle"), "{}", e.message);
    // Missing parent surfaces the loader error with the extends line.
    let e = resolve_extends_with("extends nope.fgq\n", &mut fetch.clone()).unwrap_err();
    assert_eq!(e.line, 1);
    assert!(e.message.contains("no such file"), "{}", e.message);
    // extends inside a section passes through and parse rejects it.
    let kept =
        resolve_extends_with("[master a]\nextends b.fgq\n", &mut fetch.clone()).expect("resolves");
    assert!(kept.contains("extends b.fgq"));
}

#[test]
fn v1_scenarios_parse_unchanged() {
    // The full v1 surface in one file: still parses, still builds.
    let text =
        format!("{SAMPLE}\n[xbar]\narbitration rr\n\n[policy reclaim]\nreserved 1000\nbase 2048\n");
    let s = ScenarioSpec::parse(&text).expect("v1 text parses");
    assert!(s.phases.is_empty());
    assert!(s.faults.is_empty());
    assert!(s.expects.is_empty());
    let (mut soc, _fabric) = s.build();
    soc.run(10_000);
}

// ---- baseline gates, delayed start, kernel placement ----

const GATED: &str = "\
[master cpu]
kind cpu
role critical
pattern random
txn 256
think 200

[master mg]
kind accel
gate memguard 10000 4K 500
txn 512
start 2000

[master prem]
kind accel
role unmanaged
gate tdma 0x400 64
base 0x40000000
txn 512
";

#[test]
fn gate_and_start_keys_parse_and_build() {
    let s = ScenarioSpec::parse(GATED).expect("parses");
    assert_eq!(s.masters[0].gate, None);
    assert_eq!(s.masters[0].start, 0);
    assert_eq!(
        s.masters[1].gate,
        Some(GateSpec::MemGuard {
            tick: 10_000,
            budget: 4_096,
            irq: 500
        })
    );
    assert_eq!(s.masters[1].start, 2_000);
    assert_eq!(
        s.masters[2].gate,
        Some(GateSpec::Tdma {
            slot: 1_024,
            guard: 64
        })
    );
    let (mut soc, fabric) = s.build();
    assert!(
        fabric.driver("mg").is_none(),
        "a baseline gate is no regulator"
    );
    soc.run(1_999);
    let mg = soc.master_id("mg").expect("declared");
    assert_eq!(
        soc.master_stats(mg).issued_txns,
        0,
        "start delays the launch"
    );
    soc.run(40_000);
    assert!(
        soc.master_stats(mg).gate_stall_cycles > 0,
        "memguard throttles"
    );
    let prem = soc.master_id("prem").expect("declared");
    assert!(soc.master_stats(prem).issued_txns > 0);
    assert!(
        soc.master_stats(prem).gate_stall_cycles > 0,
        "tdma waits for its slot"
    );
}

#[test]
fn gate_needs_an_unmanaged_master() {
    for role in ["critical", "best-effort"] {
        let text = format!("[master a]\nkind accel\ngate memguard 1000 256 0\nrole {role}\n");
        let e = ScenarioSpec::parse(&text).unwrap_err();
        assert_eq!(e.line, 3, "reported at the gate line");
        assert!(e.message.contains("role unmanaged"), "{}", e.message);
    }
}

#[test]
fn gate_arguments_are_validated() {
    let rejects = [
        ("memguard 0 256 0", "tick must be non-zero"),
        (
            "memguard 1000 256 0x8000000000000000",
            "irq must be at most",
        ),
        ("memguard 0x8000000000000000 256 0", "tick must be at most"),
        ("tdma 0 0", "slot must be non-zero"),
        ("tdma 100 100", "guard must be shorter"),
        ("tdma 0x8000000000000000 0", "slot must be at most"),
        ("memguard 1000 256", "gate must be"),
        ("tdma 100", "gate must be"),
        ("tdma 100 2 1 0", "gate must be"),
        ("fifo 1 2 3", "gate must be"),
        ("memguard 1000 lots 0", "bad number"),
    ];
    for (value, want) in rejects {
        let text = format!("[master a]\nkind accel\ngate {value}\n");
        let e = ScenarioSpec::parse(&text).unwrap_err();
        assert_eq!(e.line, 3, "{value}");
        assert!(e.message.contains(want), "{value}: {}", e.message);
    }
}

#[test]
fn start_needs_a_synthetic_workload() {
    let text = "[master k]\nkind accel\nstart 100\nworkload kernel:memcpy\n";
    let e = ScenarioSpec::parse(text).unwrap_err();
    assert_eq!(e.line, 3);
    assert!(e.message.contains("synthetic workload"), "{}", e.message);
    // A delayed master's traffic cannot also be rewritten by a fault.
    let text =
        format!("{V2_BASE}\n[override master dma0]\nstart 100\n[fault f]\nat 10\nrogue dma0\n");
    let e = ScenarioSpec::parse(&text).unwrap_err();
    assert!(e.message.contains("`start` delay"), "{}", e.message);
}

#[test]
fn explicit_base_wins_on_kernel_masters() {
    let kernel = |extra: &str| {
        ScenarioSpec::parse(&format!(
            "[master k]\nkind accel\nrole critical\nworkload kernel:memcpy:2\n{extra}"
        ))
        .expect("parses")
    };
    let base_of = |s: &ScenarioSpec| match s.masters[0].workload {
        Workload::Kernel(_, _, base) => base,
        Workload::Spec(_) => panic!("expected a kernel workload"),
    };
    // The default placement is (1 + seed % 16) << 28, seed defaulting to 1.
    assert_eq!(base_of(&kernel("")), 0x2000_0000);
    assert_eq!(base_of(&kernel("seed 7\n")), 0x8000_0000);
    let explicit = kernel("base 0\nseed 7\n");
    assert_eq!(base_of(&explicit), 0);

    // The built machine replays the kernel at the explicit base.
    let hand = |base: u64| {
        let memcpy = Kernel::all()
            .into_iter()
            .find(|k| k.name() == "memcpy")
            .expect("memcpy kernel");
        let monitor = QosFabricBuilder::new().critical_port("k", 1_000);
        let accel = MasterKind::Accelerator;
        let outstanding = accel.default_outstanding();
        SocBuilder::new(SocConfig::default())
            .master_full("k", memcpy.source(base, 2, 7), accel, monitor, outstanding)
            .controller(ScenarioProgram::new(Vec::new()))
            .build()
    };
    let (mut built, _fabric) = explicit.build();
    let (mut at_zero, mut at_default) = (hand(0), hand(0x8000_0000));
    for soc in [&mut built, &mut at_zero, &mut at_default] {
        soc.run(20_000);
    }
    assert_eq!(built.fingerprint(), at_zero.fingerprint());
    assert_ne!(built.fingerprint(), at_default.fingerprint());
}

#[test]
fn traffic_keys_parse_back_to_the_spec() {
    let specs = [
        TrafficSpec::latency_sensitive(0, 4 << 20, 256, 100)
            .with_total(2_000)
            .with_burst(BurstShape {
                on_cycles: 500,
                off_cycles: 1_500,
            }),
        TrafficSpec::stream(3 << 28, 16 << 20, 1_024, fgqos_sim::axi::Dir::Write),
        TrafficSpec {
            pattern: AddressPattern::Strided { stride: 4_096 },
            gap: 40,
            ..TrafficSpec::stream(0x1234_0000, 1 << 20, 64, fgqos_sim::axi::Dir::Read)
        }
        .with_write_ratio(0.25),
    ];
    for t in specs {
        let text = format!(
            "[master a]\nkind accel\nrole critical\n{}",
            traffic_keys(&t)
        );
        let s = ScenarioSpec::parse(&text).expect("rendered keys parse");
        assert_eq!(format!("{:?}", spec_of(&s.masters[0])), format!("{t:?}"));
    }
}
