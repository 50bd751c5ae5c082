//! Wall-clock cost of kernel verification (demoted transfers, device run,
//! CPU reference, comparison) versus a plain run — the Figure 3 pipeline.

use openarc_bench::timing::report;
use openarc_core::exec::{execute, ExecMode, ExecOptions, VerifyOptions};
use openarc_core::pipeline::Session;
use openarc_suite::{hotspot, translate_variant, Scale, Variant};

fn main() {
    println!("figure3_hotspot");
    let b = hotspot::benchmark(Scale::default());
    let tra = translate_variant(
        &Session::default(),
        &b,
        Variant::Optimized,
        &Default::default(),
    )
    .unwrap();
    let tr = &tra.tr;
    report("plain", 10, || {
        execute(
            tr,
            &ExecOptions {
                race_detect: false,
                ..Default::default()
            },
        )
        .unwrap()
    });
    report("verify_all_kernels", 10, || {
        execute(
            tr,
            &ExecOptions {
                mode: ExecMode::Verify(VerifyOptions::default()),
                race_detect: false,
                ..Default::default()
            },
        )
        .unwrap()
    });
}
