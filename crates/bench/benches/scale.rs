//! The million-object scale curve: `cargo bench -p disq-bench --bench scale`.
//! Sizes default to 10⁴/10⁵/10⁶ objects; override with a comma-separated
//! `DISQ_SCALE_NS` (CI smoke-tests `DISQ_SCALE_NS=100000`). Prints one
//! row per size: wall, objects/s and peak heap.

fn main() {
    print!("{}", disq_bench::experiments::scale::run());
}
