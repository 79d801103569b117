//! Prints [`perfcloud_bench::figs::fig9`]: dynamic resource control.
fn main() {
    perfcloud_bench::figs::main("fig9");
}
