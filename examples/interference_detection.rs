//! Component-level walkthrough of PerfCloud's detection pipeline.
//!
//! Drives a single simulated server directly (no experiment harness):
//! four victim VMs run a mild I/O workload, a fio antagonist arrives
//! mid-run, and we watch each stage of the pipeline react —
//! the monitor's smoothed per-VM metrics, the across-VM deviation, the
//! threshold detector, and the Pearson-based antagonist identifier.
//!
//! Run with: `cargo run --release --example interference_detection`

use perfcloud::core::antagonist::Resource;
use perfcloud::core::detector::{detect, deviation_across_vms};
use perfcloud::core::{
    AntagonistIdentifier, Identifier, PerfCloudConfig, PerformanceMonitor, VmMetricKind,
};
use perfcloud::host::{PhysicalServer, ServerConfig, ServerId, VmConfig, VmId};
use perfcloud::prelude::*;
use perfcloud::workloads::FioRandRead;

fn main() {
    let dt = SimDuration::from_millis(100);
    let mut server =
        PhysicalServer::new(ServerId(0), ServerConfig::chameleon(), RngFactory::new(7), dt);

    // Four victim VMs with a mild random-read load.
    let victims: Vec<VmId> = (0..4).map(VmId).collect();
    for &vm in &victims {
        server.add_vm(vm, VmConfig::high_priority());
        server.spawn(vm, Box::new(FioRandRead::with_rate(800.0, 4096.0, None)));
    }
    // The suspect VM exists from the start but idles until t = 30 s.
    let suspect = VmId(10);
    server.add_vm(suspect, VmConfig::low_priority());

    let config = PerfCloudConfig::default();
    let mut monitor = PerformanceMonitor::new(&config);
    let mut identifier = AntagonistIdentifier::new(&config);

    println!("t(s)  io-deviation  contended  suspect-corr  identified");
    let mut now = SimTime::ZERO;
    monitor.sample(now, &server);
    for interval in 1..=16u64 {
        if interval == 6 {
            // t = 30 s: the antagonist starts a saturating random-read load.
            server.spawn(suspect, Box::new(FioRandRead::new(None).with_modulation(99)));
        }
        for _ in 0..50 {
            server.tick(dt);
        }
        now += SimDuration::from_secs(5.0);

        monitor.sample(now, &server);
        let signal = detect(&monitor, &victims, config.h_io, config.h_cpi);
        identifier.observe(now, signal.io_deviation, signal.cpi_deviation, &monitor, &[suspect]);
        let corr = identifier.correlation(suspect, Resource::Io);
        let found = identifier.identify(&[suspect], Resource::Io);

        println!(
            "{:>4}  {:>12}  {:>9}  {:>12}  {:>10}",
            now.as_secs_f64() as u64,
            signal.io_deviation.map(|d| format!("{d:8.2}")).unwrap_or_else(|| "-".into()),
            signal.io_contended,
            corr.map(|r| format!("{r:+.3}")).unwrap_or_else(|| "-".into()),
            if found.contains(&suspect) { "YES" } else { "" },
        );
    }

    // The raw smoothed series are available for inspection too.
    let dev = deviation_across_vms(&monitor, &victims, VmMetricKind::IowaitRatio);
    println!(
        "\nfinal across-VM iowait-ratio deviation: {:.2} ms/op (threshold {})",
        dev.unwrap_or(0.0),
        config.h_io
    );
}
