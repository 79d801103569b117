//! Prints [`perfcloud_bench::figs::fig2`]: degradation under a STREAM VM.
fn main() {
    perfcloud_bench::figs::main("fig2");
}
