//! Wall-clock cost of the full interactive optimization loop on the
//! conservatively-annotated JACOBI (the Table 3 pipeline).

use openarc_bench::timing::report;
use openarc_core::exec::ExecOptions;
use openarc_core::interactive::optimize_transfers;
use openarc_core::pipeline::Session;
use openarc_core::translate::TranslateOptions;
use openarc_suite::{jacobi, Scale, Variant};

fn main() {
    println!("table3_jacobi");
    let b = jacobi::benchmark(Scale::default());
    let (p, s) = openarc_minic::frontend(b.source(Variant::Unoptimized)).unwrap();
    let topts = TranslateOptions {
        instrument: true,
        ..Default::default()
    };
    report("interactive_loop", 10, || {
        let eopts = ExecOptions {
            race_detect: false,
            ..Default::default()
        };
        let session = Session::default();
        let out = optimize_transfers(&session, &p, &s, &topts, &b.outputs, &eopts, 10).unwrap();
        assert!(out.converged);
        out.iterations
    });
}
