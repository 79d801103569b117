//! Prints [`perfcloud_bench::figs::fig3`]: the block-iowait deviation signal.
fn main() {
    perfcloud_bench::figs::main("fig3");
}
