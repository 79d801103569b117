//! Prints [`perfcloud_bench::figs::fig12`]; flags `--reps N`, `--scale-servers N`.
fn main() {
    perfcloud_bench::figs::main("fig12");
}
