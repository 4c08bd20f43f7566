//! Server configuration: the `WHYNOT_SERVER_*` environment knobs and
//! their defaults. Every knob here is registered in `whynot-lint`'s
//! `ENV_REGISTRY` and documented in the README's environment table; the
//! binary mirrors each one as a command-line flag (flags win).

use whynot_core::CacheBudget;

/// Resolved server configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Ignored: the server answers every request on the calling thread.
    /// Kept because the wire benchmark constructs it.
    pub threads: Option<usize>,
    /// Per-tenant bounded queue depth; an `enqueue` past this is
    /// rejected with kind `queue-full`
    /// (`WHYNOT_SERVER_QUEUE_DEPTH`; default 64).
    pub queue_depth: usize,
    /// Per-cache entry budget applied to every tenant session as
    /// `CacheBudget::uniform` — the memory bound behind LRU eviction
    /// (`WHYNOT_SERVER_CACHE_BUDGET`; default unlimited; 0 disables the
    /// caches entirely, answers stay correct).
    pub cache_budget: usize,
    /// Directory for snapshot + WAL files; durability commands fail
    /// with kind `no-durability` when unset
    /// (`WHYNOT_SERVER_SNAPSHOT_DIR`; default unset).
    pub snapshot_dir: Option<String>,
    /// Resident-tenant cap — the admission-control memory budget;
    /// `create`/`load` past it is rejected with kind `tenant-capacity`
    /// (`WHYNOT_SERVER_MAX_TENANTS`; default 64).
    pub max_tenants: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: None,
            queue_depth: 64,
            cache_budget: usize::MAX,
            snapshot_dir: None,
            max_tenants: 64,
        }
    }
}

impl ServerConfig {
    /// A configuration from the environment (unset or unparsable knobs
    /// keep their defaults).
    pub fn from_env() -> Self {
        let mut cfg = ServerConfig::default();
        if let Some(n) = read_usize("WHYNOT_SERVER_QUEUE_DEPTH") {
            cfg.queue_depth = n.max(1);
        }
        if let Some(n) = read_usize("WHYNOT_SERVER_CACHE_BUDGET") {
            cfg.cache_budget = n;
        }
        if let Ok(dir) = std::env::var("WHYNOT_SERVER_SNAPSHOT_DIR") {
            if !dir.is_empty() {
                cfg.snapshot_dir = Some(dir);
            }
        }
        if let Some(n) = read_usize("WHYNOT_SERVER_MAX_TENANTS") {
            cfg.max_tenants = n.max(1);
        }
        cfg
    }

    /// The per-tenant session cache budget this configuration implies.
    pub fn session_budget(&self) -> CacheBudget {
        if self.cache_budget == usize::MAX {
            CacheBudget::unlimited()
        } else {
            CacheBudget::uniform(self.cache_budget)
        }
    }
}

fn read_usize(var: &str) -> Option<usize> {
    std::env::var(var).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_unbounded_caches_and_bounded_queues() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.cache_budget, usize::MAX);
        assert_eq!(cfg.session_budget(), CacheBudget::unlimited());
        assert!(cfg.queue_depth >= 1);
        assert!(cfg.max_tenants >= 1);
    }

    #[test]
    fn zero_cache_budget_disables_caches() {
        let cfg = ServerConfig {
            cache_budget: 0,
            ..ServerConfig::default()
        };
        assert_eq!(cfg.session_budget(), CacheBudget::uniform(0));
    }
}
