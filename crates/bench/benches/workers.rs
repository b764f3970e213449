//! Worker-pool heterogeneity curve: `cargo bench -p disq-bench --bench
//! workers`. Pool sizes default to 16/64/256; override with a
//! comma-separated `DISQ_WORKER_NS` (CI smoke-tests `DISQ_WORKER_NS=16`).
//! Prints one row per pool size: wall, units/s and mean query error.

fn main() {
    print!("{}", disq_bench::experiments::workers::run());
}
