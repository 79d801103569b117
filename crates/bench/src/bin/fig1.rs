//! Prints [`perfcloud_bench::figs::fig1`]: degradation under fio, and static I/O caps.
fn main() {
    perfcloud_bench::figs::main("fig1");
}
