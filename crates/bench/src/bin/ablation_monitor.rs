//! Prints [`perfcloud_bench::figs::ablation_monitor`]: EWMA weight x interval.
fn main() {
    perfcloud_bench::figs::main("ablation_monitor");
}
