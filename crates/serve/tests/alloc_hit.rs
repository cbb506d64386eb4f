//! Allocations per `solve` cache-hit round trip through an in-process
//! daemon and the blocking client, both sides counted.

mod counting_alloc;

use bsp_serve::client::{Client, SolveParams};
use bsp_serve::server::{start, ServeConfig};
use counting_alloc::ALLOCS;

/// Read in a debug build: exactly 18 on average, as in a release build.
const MAX_PER_HIT: f64 = 18.0;

#[test]
fn a_cache_hit_round_trip_allocates_at_most_the_pinned_count() {
    let mut cfg = ServeConfig::default();
    cfg.threads = 1;
    let handle = start(cfg).expect("server binds a loopback port");
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut params = SolveParams::default();
    params.instance = "layered?layers=4&width=6&q=0.3&seed=7 @ bsp?p=4&g=2&l=5".to_string();
    params.budget_ms = Some(2000);
    for i in 0..100 {
        let hit = client.solve(&params).unwrap().result.cache_hit;
        assert_eq!(hit, Some(i > 0));
    }
    let (hits, before) = (2000, ALLOCS.count());
    for _ in 0..hits {
        client.solve(&params).unwrap();
    }
    let per_hit = (ALLOCS.count() - before) as f64 / hits as f64;
    handle.shutdown();
    assert!(per_hit <= MAX_PER_HIT, "{per_hit} allocations per hit");
}
