//! Prints [`perfcloud_bench::figs::ablation_threshold`]: the threshold sweep.
fn main() {
    perfcloud_bench::figs::main("ablation_threshold");
}
