//! Prints [`perfcloud_bench::figs::fig11`]; flags `--scale F`, `--heterogeneous`.
fn main() {
    perfcloud_bench::figs::main("fig11");
}
