//! Server settings.

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

/// Server settings.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections served at once, each on a thread of its own; the one
    /// admission budget. A connection past it is answered `Busy` in place
    /// of its `Hello` reply and closed.
    pub max_connections: usize,
    /// Close a connection silently once no byte has moved either way for
    /// this long (`None` = never).
    pub idle_timeout: Option<Duration>,
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

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
            idle_timeout: Some(Duration::from_secs(30)),
            faults: None,
            recorder: None,
        }
    }
}

impl ServerConfig {
    /// Checks the settings: `max_connections` must be nonzero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_connections == 0 {
            return Err(ConfigError("max_connections must be at least 1".to_string()));
        }
        Ok(())
    }
}
