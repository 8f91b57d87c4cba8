//! The planner report's invariants (`roots_core::PlannerDemo::violations`,
//! rendered by `examples/planner_report.rs`): none is violated on the
//! report's own sweeps, and each check but the baseline's (which reads the
//! world's routing itself) fires on a demo doctored to break it.

use planner::MoveSetConfig;
use roots_core::{PlannerDemo, Scale};

/// A change to a demo that breaks one check, and that check's message.
type Doctor = (fn(&mut PlannerDemo), &'static str);

#[test]
fn the_planner_demo_holds_its_invariants_and_each_check_fires() {
    let cfg = MoveSetConfig::default();
    let mut demo = PlannerDemo::run(Scale::Tiny, &cfg, 120);
    assert_eq!(demo.violations(), Vec::<String>::new());
    assert_eq!(demo.run.report.scores.len(), cfg.count);
    assert_eq!(demo.rescored.len(), 5);
    assert_eq!(demo.timeline.report.scores.len(), 120);
    assert_eq!(demo.timeline.context().epoch_count(), 3);

    // Each doctor breaks one check, named by its message; they pile up.
    let doctors: [Doctor; 4] = [
        (|d| d.rescored[2].1 ^= 1, "sweep diverged at 3 workers"),
        (|d| d.timeline_rescored[1].1 ^= 1, "timeline sweep diverged"),
        (
            |d| d.timeline.report.scores[0].worst_epoch = None,
            "missing worst-epoch",
        ),
        (
            |d| {
                let identity = d.run.report.scores.iter_mut().find(|s| s.id == 0);
                identity.expect("the identity candidate").churn = 0.5;
            },
            "identity candidate scored nonzero",
        ),
    ];
    for (fired, (doctor, message)) in doctors.into_iter().enumerate() {
        doctor(&mut demo);
        let violations = demo.violations();
        assert!(violations.len() > fired, "{violations:?}");
        assert!(
            violations.iter().any(|v| v.contains(message)),
            "{violations:?}"
        );
    }
}
