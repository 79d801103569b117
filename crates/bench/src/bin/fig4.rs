//! Prints [`perfcloud_bench::figs::fig4`]: the CPI deviation signal.
fn main() {
    perfcloud_bench::figs::main("fig4");
}
