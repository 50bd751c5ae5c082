//! Wall-clock cost of running a benchmark under the naive vs. optimized
//! memory-management scheme (the Figure 1 pipeline).

use openarc_bench::timing::report;
use openarc_core::exec::ExecOptions;
use openarc_core::pipeline::Session;
use openarc_suite::{jacobi, run_variant, Scale, Variant};

fn main() {
    println!("figure1_jacobi");
    let b = jacobi::benchmark(Scale::default());
    for v in [Variant::Naive, Variant::Optimized] {
        report(v.name(), 10, || {
            let eopts = ExecOptions {
                race_detect: false,
                ..Default::default()
            };
            let session = Session::default();
            let (_, r) = run_variant(&session, &b, v, &Default::default(), &eopts).unwrap();
            r.machine.stats.total_bytes()
        });
    }
}
