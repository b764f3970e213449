//! The `disq-serve` load generator: `cargo bench -p disq-bench --bench
//! serve`. Spins an in-process daemon and hammers it with a Zipf-skewed
//! attribute mix; prints `serve_cold@c1` plus one `serve@c<conns>` row
//! per connection count (p50/p90/p99 µs, QPS, questions/query,
//! plan-cache hit rate) and the warm-vs-cold speedup. Knobs: `DISQ_SERVE_NS`
//! (queries per connection, default 120), `DISQ_SERVE_CONNS`
//! (connection sweep, default 1,8,32 — CI smokes `4`).

fn main() {
    print!("{}", disq_bench::experiments::serve::run());
}
