//! Prints [`perfcloud_bench::figs::future_work`]: heterogeneous servers.
fn main() {
    perfcloud_bench::figs::main("future_work");
}
