//! Wall-clock overhead of the memory-transfer-verification
//! instrumentation (the Figure 4 pipeline).

use openarc_bench::timing::report;
use openarc_core::exec::{execute, ExecOptions};
use openarc_core::pipeline::Session;
use openarc_core::translate::TranslateOptions;
use openarc_suite::{srad, translate_variant, Scale, Variant};

fn main() {
    println!("figure4_srad");
    let b = srad::benchmark(Scale::default());
    let session = Session::default();
    let plain_tr =
        translate_variant(&session, &b, Variant::Optimized, &Default::default()).unwrap();
    let instr_tr = translate_variant(
        &session,
        &b,
        Variant::Optimized,
        &TranslateOptions {
            instrument: true,
            ..Default::default()
        },
    )
    .unwrap();
    report("uninstrumented", 10, || {
        execute(
            &plain_tr.tr,
            &ExecOptions {
                race_detect: false,
                ..Default::default()
            },
        )
        .unwrap()
    });
    report("instrumented", 10, || {
        execute(
            &instr_tr.tr,
            &ExecOptions {
                check_transfers: true,
                race_detect: false,
                ..Default::default()
            },
        )
        .unwrap()
    });
}
