//! The acceptance fault campaign (ISSUE PR 2): a 32-seed sweep across all
//! three recovery schemes under virtual time. Every generated scenario must
//! end in detection or bit-for-bit-correct output — never silent
//! corruption — and every case must replay byte-identically.

use acr::fault::{FaultAction, FaultScript, Trigger};
use acr::protocol::{DetectionMethod, Scheme};
use acr::runtime::campaign::{run_campaign, run_script_case, CampaignConfig, CaseOutcome};

#[test]
fn thirty_two_seed_sweep_has_no_silent_corruption() {
    let cfg = CampaignConfig::default();
    assert_eq!(cfg.seeds.len(), 32, "acceptance bar is a 32-seed sweep");
    assert_eq!(cfg.schemes.len(), 3);
    assert!(cfg.check_determinism, "every case must replay identically");

    let report = run_campaign(&cfg);
    assert_eq!(report.cases.len(), 32 * 3);

    let violations: Vec<_> = report.violations().collect();
    assert!(
        violations.is_empty(),
        "campaign found {} invariant violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|c| format!(
                "  seed {} {:?}/{:?}: {:?}\n    script:\n{}",
                c.seed,
                c.scheme,
                c.detection,
                c.outcome,
                c.script.to_repro()
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The sweep must actually exercise the machinery, not vacuously pass:
    // some scenarios inject SDC that gets detected, some run clean.
    let (clean, detected, known_escapes, violation_count) = report.tally();
    assert!(
        detected >= 1,
        "no scenario exercised SDC detection (clean={clean}, escapes={known_escapes})"
    );
    assert_eq!(violation_count, 0);
    assert_eq!(clean + detected + known_escapes, report.cases.len());

    // Every non-violating case still finished with a live job.
    for case in &report.cases {
        if !matches!(case.outcome, CaseOutcome::Violation(_)) {
            assert!(
                case.report.completed,
                "seed {} {:?}: job did not complete",
                case.seed, case.scheme
            );
        }
    }
}

/// A fault due on the policy pass that completes the job still lands (the
/// pass fires due triggers before it checks for completion), and the
/// report lists it under the virtual executor as under the threaded one:
/// both shutdown drains record a late `FaultInjected`. Unlisted, the flip
/// it made in replica 0's final state reads as silent corruption.
///
/// The flip comes after the last comparison round, so it is a known
/// escape under every scheme. ROADMAP item 4 (a final comparison round
/// before the job ends) would make it a detection under strong.
#[test]
fn a_fault_landing_as_the_job_completes_is_reported() {
    let cfg = CampaignConfig::default();
    let detection = DetectionMethod::FullCompare;
    for scheme in [Scheme::Strong, Scheme::Medium, Scheme::Weak] {
        let fault_free = run_script_case(&cfg, 0, scheme, detection, FaultScript::new());
        let end = fault_free.report.duration;
        let sdc = FaultAction::Sdc {
            replica: 0,
            rank: 0,
            seed: 1,
            bits: 1,
        };
        let case = run_script_case(
            &cfg,
            0,
            scheme,
            detection,
            FaultScript::single(Trigger::At(end), sdc),
        );
        assert_eq!(
            case.report.sdc_injected_at,
            vec![end],
            "{scheme:?}: the SDC at the job's end ({end} s) is reported"
        );
        assert!(
            !matches!(case.outcome, CaseOutcome::Violation(_)),
            "{scheme:?}: {:?}",
            case.outcome
        );
    }
}
