//! Prints [`perfcloud_bench::figs::ablation_controller`]: CUBIC vs AIMD vs on/off.
fn main() {
    perfcloud_bench::figs::main("ablation_controller");
}
