//! Calibration probe: prints WIPS for default and hand-tuned
//! configurations across workloads and browser populations. Not a paper
//! experiment — a diagnostic for picking the operating point (see
//! DESIGN.md §4).

use bench::args::Options;
use cluster::model::ClusterScenario;
use cluster::params::{DbParams, ProxyParams, WebParams};
use cluster::runner::run_iteration;
use cluster::{ClusterConfig, Topology};
use tpcw::metrics::IntervalPlan;
use tpcw::mix::Workload;

fn hand_tuned(workload: Workload) -> (ProxyParams, WebParams, DbParams) {
    let mut p = ProxyParams::default_config();
    let mut w = WebParams::default_config();
    let mut d = DbParams::default_config();
    match workload {
        Workload::Browsing => {
            p.cache_mem = 24;
            p.maximum_object_size_in_memory = 64;
            d.join_buffer_size = 407_552;
            d.table_cache = 800;
        }
        Workload::Shopping => {
            p.cache_mem = 20;
            p.maximum_object_size_in_memory = 256;
            w.max_processors = 64;
            w.ajp_max_processors = 64;
            w.accept_count = 64;
            w.ajp_accept_count = 64;
            d.join_buffer_size = 407_552;
            d.table_cache = 800;
            d.thread_concurrency = 48;
            d.binlog_cache_size = 160_000;
        }
        Workload::Ordering => {
            p.cache_mem = 20;
            p.maximum_object_size_in_memory = 256;
            w.min_processors = 64;
            w.max_processors = 128;
            w.ajp_max_processors = 128;
            w.accept_count = 128;
            w.ajp_accept_count = 256;
            w.buffer_size = 6_656;
            d.join_buffer_size = 407_552;
            d.table_cache = 800;
            d.thread_concurrency = 64;
            d.binlog_cache_size = 284_672;
            d.max_connections = 400;
        }
    }
    (p, w, d)
}

pub fn run(_: &Options) {
    let plan = IntervalPlan::fast();
    let topology = Topology::single();
    for workload in Workload::ALL {
        println!("== {workload} ==");
        for pop in [1300u32, 1400, 1500, 1700] {
            let mut def = ClusterScenario::single(workload, pop, plan, 42);
            def.config = ClusterConfig::defaults(&topology);
            let d = run_iteration(&def);

            let (pp, ww, dd) = hand_tuned(workload);
            let mut tun = ClusterScenario::single(workload, pop, plan, 42);
            tun.config = ClusterConfig::uniform(&topology, pp, ww, dd);
            let t = run_iteration(&tun);

            println!(
                "pop {pop:5}: default {:7.1} WIPS (fail {:5}, resp {:6.3}s) | tuned {:7.1} WIPS (fail {:5}, resp {:6.3}s) | gain {:+.1}%",
                d.metrics.wips,
                d.total_failed,
                d.metrics.mean_response_secs,
                t.metrics.wips,
                t.total_failed,
                t.metrics.mean_response_secs,
                (t.metrics.wips / d.metrics.wips - 1.0) * 100.0
            );
            let u = &d.node_utilization;
            println!(
                "             util default: proxy cpu {:.2} disk {:.2} net {:.2} | app cpu {:.2} | db cpu {:.2} disk {:.2}",
                u[0].cpu, u[0].disk, u[0].net, u[1].cpu, u[2].cpu, u[2].disk
            );
        }
    }
}
