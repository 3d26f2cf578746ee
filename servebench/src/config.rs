//! The one place session credentials and server configurations are
//! built. Everything starts from the program's defaults; the benchmark
//! pins no cipher suite, so the server picks its preferred one.

use pprl_cluster::ClusterServerConfig;
use pprl_server::{AuthRegistry, ClientAuth, PartyKey, ServerConfig, TenantGrant};
use std::time::Duration;

/// Identity every benchmark client presents. It holds the `*` grant so
/// the same credentials can query, insert, read `STATS` and shut down.
const IDENTITY: &str = "servebench";
/// The identity's pre-shared key.
const KEY: [u8; 32] = [0x5b; 32];

/// Credentials for every client connection: the coordinator's shard
/// connections as well as the load generator's own.
pub fn client_auth() -> ClientAuth {
    ClientAuth {
        identity: IDENTITY.into(),
        key: PartyKey::from_bytes(KEY),
        tenant: "default".into(),
        encrypt: true,
        suites: Default::default(),
    }
}

/// The registry every server and front end authenticates against.
pub fn registry() -> AuthRegistry {
    let mut reg = AuthRegistry::new();
    reg.insert(IDENTITY, PartyKey::from_bytes(KEY), TenantGrant::Any)
        .expect("a fresh registry accepts its first identity");
    reg
}

/// A single node's configuration: the defaults with the given worker
/// count and background compaction interval (`None` turns it off).
pub fn server_config(workers: usize, compact_interval: Option<Duration>) -> ServerConfig {
    ServerConfig {
        workers,
        compact_interval,
        ..ServerConfig::default()
    }
}

/// The coordinator front end's configuration: the defaults with the
/// given worker count.
pub fn front_config(workers: usize) -> ClusterServerConfig {
    ClusterServerConfig {
        workers,
        ..ClusterServerConfig::default()
    }
}
