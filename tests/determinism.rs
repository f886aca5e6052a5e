//! Reproducibility: identical configurations must produce bit-identical
//! runs — the property every comparison in the evaluation rests on.

use coserve::prelude::*;

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let task = TaskSpec::a1().scaled(0.08);
        let model = task.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        let stream = task.stream(&model);
        let config = presets::coserve(&device);
        Engine::new(&device, &model, &perf, &config)
            .unwrap()
            .run(&stream)
    };
    assert_eq!(run(), run());
}

/// The `coserve-sim` docs claim runs are deterministic "bit for bit":
/// the same `TaskSpec` served twice on fresh `ServingSystem`s (separate
/// profiling passes, separate engines, separate streams) must produce
/// identical `RunReport`s, down to individual latency samples and switch
/// events.
#[test]
fn fresh_serving_systems_reproduce_reports_bit_for_bit() {
    let run = || {
        let task = TaskSpec::a1().scaled(0.08);
        let model = task.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let config = presets::coserve(&device);
        let system = ServingSystem::new(device, model, config).unwrap();
        let stream = task.stream(system.model());
        system.serve(&stream)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.latency_summary(), b.latency_summary());
    assert_eq!(a.sched_summary(), b.sched_summary());
    assert_eq!(a.expert_switches(), b.expert_switches());
    assert_eq!(a.switch_events, b.switch_events);
    // And the whole struct, in case a field is added later and missed above.
    assert_eq!(a, b);
}

/// Tracing rides the same guarantee: two fresh traced runs of the same
/// configuration must export byte-identical Perfetto documents, and
/// the traced report must equal the untraced one (the tracer observes,
/// it never perturbs).
#[test]
fn exported_trace_is_bit_identical_across_runs() {
    let traced_run = || {
        let task = TaskSpec::a1().scaled(0.08);
        let model = task.build_model().unwrap();
        let device = devices::numa_rtx3080ti();
        let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
        let stream = task.stream(&model);
        let config = presets::coserve(&device);
        let engine = Engine::new(&device, &model, &perf, &config).unwrap();
        let untraced = engine.run(&stream);
        let mut session = engine.session(stream.name());
        session.set_tracer(Box::new(coserve::trace::RingTracer::new()));
        for job in stream.jobs() {
            session.submit(job.arrival, &job.stages).unwrap();
        }
        session.pump();
        let events = session.tracer_mut().drain();
        assert_eq!(untraced, session.into_report(), "tracing perturbed the run");
        coserve::trace::chrome_trace_json(&events)
    };
    let (a, b) = (traced_run(), traced_run());
    assert!(!a.is_empty() && a.contains("\"stage-done\""));
    assert_eq!(a, b, "exported trace differs between identical runs");
}

#[test]
fn different_seeds_change_the_schedule() {
    let task = TaskSpec::a1().scaled(0.08);
    let model = task.build_model().unwrap();
    let device = devices::numa_rtx3080ti();
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let config = presets::coserve(&device);
    let engine = Engine::new(&device, &model, &perf, &config).unwrap();
    // Different workload seeds → different streams → different runs.
    let board = task.board().clone();
    let s1 = RequestStream::generate(
        "s1",
        &board,
        &model,
        200,
        SimSpan::from_millis(4),
        StreamOrder::Iid,
        1,
    );
    let s2 = RequestStream::generate(
        "s2",
        &board,
        &model,
        200,
        SimSpan::from_millis(4),
        StreamOrder::Iid,
        2,
    );
    let r1 = engine.run(&s1);
    let r2 = engine.run(&s2);
    assert_ne!(r1.switch_events, r2.switch_events);
}

#[test]
fn profiler_output_is_stable() {
    let task = TaskSpec::b1().scaled(0.02);
    let model = task.build_model().unwrap();
    let device = devices::uma_apple_m2();
    let p1 = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let p2 = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    assert_eq!(p1, p2);
}

#[test]
fn autotune_is_deterministic() {
    use coserve::core::autotune;
    let task = TaskSpec::a1().scaled(0.05);
    let model = task.build_model().unwrap();
    let device = devices::numa_rtx3080ti();
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let sample = task.sample(120).stream(&model);
    let a = autotune::tune(&device, &model, &perf, &sample);
    let b = autotune::tune(&device, &model, &perf, &sample);
    assert_eq!(a, b);
}

#[test]
fn reports_are_independent_of_construction_order() {
    // Running system A then B must equal running B then A (no hidden
    // global state).
    let task = TaskSpec::a1().scaled(0.05);
    let model = task.build_model().unwrap();
    let device = devices::numa_rtx3080ti();
    let perf = Profiler::with_defaults().profile(&device, &model, UsageSource::Declared);
    let stream = task.stream(&model);
    let coserve_cfg = presets::coserve(&device);
    let samba_cfg = samba_coe(&device);

    let co_first = Engine::new(&device, &model, &perf, &coserve_cfg)
        .unwrap()
        .run(&stream);
    let sa_second = Engine::new(&device, &model, &perf, &samba_cfg)
        .unwrap()
        .run(&stream);

    let sa_first = Engine::new(&device, &model, &perf, &samba_cfg)
        .unwrap()
        .run(&stream);
    let co_second = Engine::new(&device, &model, &perf, &coserve_cfg)
        .unwrap()
        .run(&stream);

    assert_eq!(co_first, co_second);
    assert_eq!(sa_first, sa_second);
}
