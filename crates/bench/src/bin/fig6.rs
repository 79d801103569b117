//! Prints [`perfcloud_bench::figs::fig6`]; `--omit-missing` runs the ablation.
fn main() {
    perfcloud_bench::figs::main("fig6");
}
