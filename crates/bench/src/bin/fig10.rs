//! Prints [`perfcloud_bench::figs::fig10`]: PerfCloud's caps over time.
fn main() {
    perfcloud_bench::figs::main("fig10");
}
