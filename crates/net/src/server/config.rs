//! Server tuning knobs, grouped by the layer they configure.

use std::sync::Arc;
use std::time::Duration;

use mmlib_obs::Recorder;

use crate::fault::NetFaults;

/// An invalid server configuration value.
#[derive(Debug)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid server config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Wire-level settings: socket ownership and connection lifecycle.
///
/// I/O threads multiplex *all* connections — neither they nor the shard
/// workers cap how many connections the server accepts.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Event-loop threads owning the sockets. Each connection is pinned to
    /// one I/O thread; two or three keep a loopback registry saturated.
    pub io_threads: usize,
    /// Close a connection silently after this long with no traffic and no
    /// request in flight (`None` = never).
    pub idle_timeout: Option<Duration>,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig { io_threads: 2, idle_timeout: Some(Duration::from_secs(30)) }
    }
}

impl WireConfig {
    /// Validated constructor: `io_threads` must be nonzero.
    pub fn new(io_threads: usize) -> Result<WireConfig, ConfigError> {
        let config = WireConfig { io_threads, ..WireConfig::default() };
        config.validate()?;
        Ok(config)
    }

    /// Replaces the idle timeout.
    pub fn with_idle_timeout(mut self, timeout: Option<Duration>) -> WireConfig {
        self.idle_timeout = timeout;
        self
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.io_threads == 0 {
            return Err(ConfigError("io_threads must be at least 1".to_string()));
        }
        Ok(())
    }
}

/// Worker-shard settings: request execution parallelism.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker threads, one queue each. Requests are routed by hashing the
    /// id in the request header, so all requests naming one model land on
    /// one worker in arrival order (the per-model ordering guarantee).
    pub workers: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { workers: 8 }
    }
}

impl ShardConfig {
    /// Validated constructor: `workers` must be nonzero.
    pub fn new(workers: usize) -> Result<ShardConfig, ConfigError> {
        let config = ShardConfig { workers };
        config.validate()?;
        Ok(config)
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError("shard workers must be at least 1".to_string()));
        }
        Ok(())
    }
}

/// Admission-control settings: the in-flight request budget.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// In-flight requests one connection may hold before being shed.
    pub per_conn_inflight: usize,
    /// In-flight requests the whole server may hold before shedding.
    pub global_inflight: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { per_conn_inflight: 64, global_inflight: 1024 }
    }
}

impl AdmissionConfig {
    /// Validated constructor: both budgets must be nonzero and the global
    /// budget must admit at least one connection's worth.
    pub fn new(
        per_conn_inflight: usize,
        global_inflight: usize,
    ) -> Result<AdmissionConfig, ConfigError> {
        let config = AdmissionConfig { per_conn_inflight, global_inflight };
        config.validate()?;
        Ok(config)
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.per_conn_inflight == 0 {
            return Err(ConfigError("per_conn_inflight must be at least 1".to_string()));
        }
        if self.global_inflight < self.per_conn_inflight {
            return Err(ConfigError(format!(
                "global_inflight ({}) must be >= per_conn_inflight ({})",
                self.global_inflight, self.per_conn_inflight
            )));
        }
        Ok(())
    }
}

/// Server tuning knobs, grouped by layer.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Socket ownership and connection lifecycle.
    pub wire: WireConfig,
    /// Request execution parallelism.
    pub shards: ShardConfig,
    /// In-flight request budget.
    pub admission: AdmissionConfig,
    /// Deterministic fault schedules for the accept loop and response
    /// frames (tests only; `None` serves faithfully).
    pub faults: Option<Arc<NetFaults>>,
    /// The metrics registry this server records into. `None` gives the
    /// server its own fresh [`Recorder`] (isolated counts — what the fault
    /// tests assert against); `mmlib serve` passes the process-wide
    /// recorder so the `stats` opcodes expose save/recover phase metrics
    /// alongside the server's own.
    pub recorder: Option<Arc<Recorder>>,
}

impl ServerConfig {
    /// Validates every layer's settings.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.wire.validate()?;
        self.shards.validate()?;
        self.admission.validate()
    }
}
