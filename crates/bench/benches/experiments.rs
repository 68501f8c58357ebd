//! One reduced-size Criterion benchmark per paper artifact, so
//! `cargo bench` exercises every table/figure code path end to end.
//! (Full-fidelity regeneration is done by `exp` with
//! `--effort paper`; these benches use smoke effort.)

use bench::harness::Criterion;
use std::hint::black_box;

use cluster::config::{ClusterConfig, Topology};
use harmony::strategy::TuningMethod;
use orchestrator::experiments::{fig4, fig5, fig7, table3, table4, tuning_process, Effort};
use tpcw::mix::Workload;

fn effort() -> Effort {
    Effort::smoke()
}

fn bench_tuning_process(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper/tuning_process");
    g.sample_size(10);
    g.bench_function("browsing_smoke", |b| {
        b.iter(|| {
            black_box(
                tuning_process::run(Workload::Browsing, &effort(), 1)
                    .0
                    .best_wips,
            )
        })
    });
    g.finish();
}

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper/fig4");
    g.sample_size(10);
    g.bench_function("matrix_smoke", |b| {
        let t = Topology::single();
        let configs = [
            ClusterConfig::defaults(&t),
            ClusterConfig::defaults(&t),
            ClusterConfig::defaults(&t),
        ];
        b.iter(|| black_box(fig4::run_with_configs(&configs, &effort(), 2).diagonal_dominates()))
    });
    g.finish();
}

fn bench_table3(c: &mut Criterion) {
    // Table 3 rendering is pure bookkeeping; bench the build step.
    let mut g = c.benchmark_group("paper/table3");
    g.bench_function("build_rows", |b| {
        let t = Topology::single();
        let configs = [
            ClusterConfig::defaults(&t),
            ClusterConfig::defaults(&t),
            ClusterConfig::defaults(&t),
        ];
        b.iter(|| black_box(table3::build(&configs).len()))
    });
    g.finish();
}

fn bench_fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper/fig5");
    g.sample_size(10);
    g.bench_function("schedule_smoke", |b| {
        b.iter(|| black_box(fig5::run(&effort(), 3).wips_series.len()))
    });
    g.finish();
}

fn bench_table4(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper/table4");
    g.sample_size(10);
    g.bench_function("duplication_smoke", |b| {
        b.iter(|| {
            black_box(
                table4::run(&[TuningMethod::Duplication], &effort(), 4)
                    .rows
                    .len(),
            )
        })
    });
    g.finish();
}

fn bench_fig7(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper/fig7");
    g.sample_size(10);
    g.bench_function("app_to_proxy_smoke", |b| {
        b.iter(|| black_box(fig7::run(fig7::Fig7Variant::AppToProxy, &effort(), 5).improvement))
    });
    g.finish();
}

fn main() {
    let mut c = Criterion::from_args();
    bench_tuning_process(&mut c);
    bench_fig4(&mut c);
    bench_table3(&mut c);
    bench_fig5(&mut c);
    bench_table4(&mut c);
    bench_fig7(&mut c);
}
