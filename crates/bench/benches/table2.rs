//! Wall-clock cost of clause stripping + race-injected verification of
//! one benchmark (the Table 2 pipeline).

use openarc_bench::timing::report;
use openarc_core::exec::VerifyOptions;
use openarc_core::faults::strip_privatization;
use openarc_core::pipeline::Session;
use openarc_core::translate::TranslateOptions;
use openarc_suite::{ep, Scale, Variant};

fn main() {
    println!("table2_ep");
    let b = ep::benchmark(Scale::default());
    let (p, s) = openarc_minic::frontend(b.source(Variant::Optimized)).unwrap();
    report("strip_and_verify", 10, || {
        let (stripped, _) = strip_privatization(&p).unwrap();
        let topts = TranslateOptions {
            auto_privatize: false,
            auto_reduction: false,
            ..Default::default()
        };
        let session = Session::default();
        let fe = session.frontend_program(stripped, s.clone());
        session
            .verify(&fe, &topts, VerifyOptions::default())
            .unwrap()
    });
}
