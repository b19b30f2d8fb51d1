//! The metric inventory in `docs/OBSERVABILITY.md` §2 names exactly the
//! metrics the code registers. One process runs every tier: a local sweep
//! through a result store, a daemon sweep, a coordinated sweep over two
//! daemons, one connection through a chaos proxy, and one retried connect
//! (the client registers its retry counters on a first retry). The names then in
//! `Registry::global()` (labels stripped) must equal the names in the
//! inventory's tables (brace patterns such as `store_{hits,misses}_total`
//! expanded), in both directions.
//!
//! The registry is process-global, so this binary holds one test only.

use gather_chaos::{ChaosPlan, ChaosProxy};
use gather_service::client::ClientConfig;
use gathering::prelude::*;
use std::collections::BTreeSet;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

const OBSERVABILITY: &str = include_str!("../docs/OBSERVABILITY.md");

fn grid() -> SweepSpec {
    SweepSpec::new()
        .graph(GraphSpec::new(Family::Cycle, 6))
        .placement(PlacementSpec::new(PlacementKind::UndispersedRandom, 3))
        .algorithms([
            AlgorithmSpec::new("faster_gathering"),
            AlgorithmSpec::new("uxs_gathering"),
        ])
        .seeds([1, 2])
}

fn spawn_daemon() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        workers: 2,
        store: Some(Arc::new(MemStore::new())),
        policy: CachePolicy::ReadWrite,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

/// `pre{a,b}post` → `preapost`, `prebpost`; a label suffix (`{k="v"}`)
/// is dropped instead.
fn expand(pattern: &str) -> Vec<String> {
    let Some((head, rest)) = pattern.split_once('{') else {
        return vec![pattern.to_string()];
    };
    let (inner, tail) = rest.split_once('}').expect("closing brace");
    if inner.contains('=') {
        return vec![head.to_string()];
    }
    inner
        .split(',')
        .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
        .collect()
}

/// Every name in the first column of the tables of §2.
fn documented() -> BTreeSet<String> {
    let start = OBSERVABILITY
        .find("## 2. Metric inventory")
        .expect("§2 heading");
    let section = &OBSERVABILITY[start..];
    let end = section.find("\n## 3.").expect("§3 heading");
    section[..end]
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .flat_map(|row| {
            let cell = row.split('|').next().unwrap_or_default();
            cell.split('`')
                .step_by(2)
                .flat_map(|name| name.split_whitespace())
                .flat_map(expand)
                .collect::<Vec<_>>()
        })
        .filter(|name| !name.is_empty() && name != "/" && name != "†")
        .collect()
}

#[test]
fn registered_metrics_are_exactly_the_documented_inventory() {
    let grid = grid();
    let local = grid
        .clone()
        .into_sweep()
        .cache(Arc::new(MemStore::new()), CachePolicy::ReadWrite)
        .run_default();
    assert_eq!(local.stats.errors, 0);

    let fleet: Vec<_> = (0..2).map(|_| spawn_daemon()).collect();
    let remote = Client::connect(&fleet[0].0)
        .unwrap()
        .run_sweep(&grid, None)
        .unwrap();
    assert_eq!(remote.rows.len(), local.rows.len());
    let config = CoordConfig {
        addrs: fleet.iter().map(|(addr, _)| addr.clone()).collect(),
        chunk: Some(2),
        ..CoordConfig::default()
    };
    let coordinated = run_sweep(&grid, &config).unwrap().report;
    assert_eq!(coordinated.rows.len(), local.rows.len());

    let proxy = ChaosProxy::bind("127.0.0.1:0", fleet[1].0.clone(), ChaosPlan::default())
        .unwrap()
        .spawn()
        .unwrap();
    let proxied = Client::connect(proxy.addr())
        .unwrap()
        .run_sweep(&grid, None)
        .unwrap();
    assert_eq!(proxied.rows.len(), local.rows.len());
    proxy.stop();

    let closed = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let retried = ClientConfig {
        connect_attempts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(1),
        ..ClientConfig::default()
    };
    assert!(Client::connect_with_config(closed, &retried).is_err());

    let registered: BTreeSet<String> = Registry::global()
        .snapshot()
        .samples
        .iter()
        .flat_map(|sample| expand(&sample.name))
        .collect();
    let documented = documented();
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    let unregistered: Vec<_> = documented.difference(&registered).collect();
    assert!(
        undocumented.is_empty() && unregistered.is_empty(),
        "registered but not in OBSERVABILITY.md §2: {undocumented:?}; \
         documented but never registered: {unregistered:?}"
    );

    for (addr, daemon) in fleet {
        Client::connect(&addr).unwrap().shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    }
}
