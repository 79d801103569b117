//! Prints [`perfcloud_bench::figs::fig7`]: the CUBIC growth function.
fn main() {
    perfcloud_bench::figs::main("fig7");
}
