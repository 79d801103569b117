//! Prints [`perfcloud_bench::figs::fig5`]: I/O antagonist identification.
fn main() {
    perfcloud_bench::figs::main("fig5");
}
