//! A tour of CoServe's offline phase (paper §4.4–§4.5): the
//! microbenchmark profiler, the expert-usage CDF, the executor-count
//! search and the decay-window memory-allocation search that together
//! produce the "CoServe Best" configuration.
//!
//! ```sh
//! cargo run --release -p coserve --example autotune_profiler
//! ```

use coserve::core::autotune;
use coserve::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = devices::numa_rtx3080ti();
    let task = TaskSpec::a1();
    let model = task.build_model()?;

    // --- Offline profiling (§4.5) -----------------------------------
    let profiler = Profiler::with_defaults();
    let perf = profiler.profile(&device, &model, UsageSource::Declared);
    println!("performance matrix for {}:", device.name());
    for (arch, proc, entry) in perf.entries() {
        let name = model.arch(arch).map_or("?", |a| a.name());
        println!(
            "  {name:<10} on {proc}: K={:6.2}ms B={:7.2}ms max_batch={:>2} \
             load(SSD)={:<10} load(cache)={}",
            entry.k_ms,
            entry.b_ms,
            entry.max_batch,
            entry.load_from_ssd.to_string(),
            entry.load_from_cpu
        );
    }

    // --- Expert usage CDF (Figure 11) --------------------------------
    let cdf = autotune::UsageCdf::from_perf(&perf);
    println!(
        "\nexpert-usage CDF: top-35 of {} experts cover {:.1}%",
        cdf.len(),
        cdf.coverage(35) * 100.0
    );

    // --- The two offline searches ------------------------------------
    let sample = task.sample(600).stream(&model);
    let tuned = autotune::tune(&device, &model, &perf, &sample);

    println!("\nexecutor-count search (Figure 17):");
    for t in &tuned.executor_trials {
        println!("  {}G+{}C -> {:.1} img/s", t.gpus, t.cpus, t.throughput);
    }

    println!("\ndecay-window search (Figure 18):");
    for (i, t) in tuned.window.trials.iter().enumerate() {
        println!(
            "  window {} upper bound {:>3} residents -> {:.1} img/s",
            i + 1,
            t.residents,
            t.throughput
        );
    }
    println!(
        "  selected window {:?}, chosen {} residents (trend deviation {:.1}%)",
        tuned.window.selected,
        tuned.window.chosen,
        tuned.window.deviation * 100.0
    );

    println!(
        "\nCoServe Best: {} GPU + {} CPU executors, {:?} GPU-resident experts",
        tuned.config.gpu_executor_count(),
        tuned.config.cpu_executor_count(),
        tuned.config.gpu_resident_experts
    );

    // --- Run the tuned configuration on the full task ----------------
    let report = Engine::new(&device, &model, &perf, &tuned.config)?.run(&task.stream(&model));
    println!("\nfull task: {}", report.summary_line());
    Ok(())
}
