//! §4.5 ablation: load balancing on raw stale reports vs the queue-delta
//! correction.
//!
//! Paper: "When we first ran this experiment, we noticed rapid
//! oscillations in queue lengths … the front end's manager stubs only
//! periodically received distiller queue length reports \[and\] were
//! making load balancing decisions based on stale data. To repair this,
//! we changed the manager stub to keep a running estimate of the change
//! in distiller queue lengths between successive reports; these
//! estimates were sufficient to eliminate the oscillations."

use sns_bench::{banner, compare, stale_lb_run};

fn main() {
    banner(
        "§4.5 ablation — stale-report load balancing vs queue-delta correction",
        "Fox et al., SOSP '97, §4.5 (the oscillation anecdote)",
    );

    let with = stale_lb_run(true);
    let without = stale_lb_run(false);

    println!("\nqueue lengths WITH the delta correction (3 distillers, 55 req/s):");
    for (id, line) in &with.sparklines {
        println!("  {id:>5} {line}");
    }
    println!("\nqueue lengths WITHOUT the correction (raw stale reports):");
    for (id, line) in &without.sparklines {
        println!("  {id:>5} {line}");
    }

    println!();
    compare(
        "queue oscillation (mean |Δq| per 2 s)",
        "rapid oscillations without the fix",
        &format!(
            "{:.2} with vs {:.2} without",
            with.oscillation, without.oscillation
        ),
    );
    compare(
        "time-averaged queue length",
        "lower once fixed",
        &format!(
            "{:.2} with vs {:.2} without",
            with.mean_queue, without.mean_queue
        ),
    );
    compare(
        "p95 latency (s)",
        "improves with the fix",
        &format!(
            "{:.2} with vs {:.2} without",
            with.p95_latency, without.p95_latency
        ),
    );
    println!(
        "\nShape check: without the correction every front end dumps a whole beacon\n\
         interval's worth of work on whichever distiller last reported the shortest\n\
         queue, swinging the queues in lockstep; the running delta estimate\n\
         eliminates the oscillation (§4.5)."
    );
}
