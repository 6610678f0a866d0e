//! `InstanceApp` adapters: the transfer client as the snapshot
//! architecture's *actual* instance and the remote logger as its
//! *auditor* (Fig. 4, use-cases ② and ③).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use csaw_core::value::Value;
use csaw_runtime::{HostCtx, InstanceApp};
use parking_lot::Mutex;

use crate::transfer::{Client, LinkModel, TransferState};

/// The audited transfer client ("Act"). Hook `H1` performs the download
/// whose state the snapshot captures; with continuous auditing the
/// driver invokes the junction per chunk instead.
pub struct CurlApp {
    /// The client.
    pub client: Arc<Mutex<Client>>,
    /// Download jobs (url, size) the driver queues.
    pub jobs: Arc<Mutex<Vec<(String, u64)>>>,
}

impl CurlApp {
    /// New client app over a link.
    pub fn new(link: LinkModel) -> CurlApp {
        CurlApp {
            client: Arc::new(Mutex::new(Client::new(link))),
            jobs: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl InstanceApp for CurlApp {
    fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        if name == "H1" || name == "transfer" {
            let (url, size) = self.jobs.lock().pop().ok_or("no queued download")?;
            self.client.lock().download(&url, size, |_| {});
        }
        Ok(())
    }

    fn save(&mut self, key: &str) -> Result<Value, String> {
        match key {
            "n" => Ok(Value::from(self.client.lock().state.to_bytes()?)),
            other => Err(format!("curl: unexpected save({other})")),
        }
    }

    fn restore(&mut self, key: &str, _value: &Value) -> Result<(), String> {
        Err(format!("curl: unexpected restore({key})"))
    }
}

/// The remote audit log ("Aud"): integrity-protected record of captured
/// transfer states.
pub struct AuditorApp {
    /// The received audit records.
    pub log: Arc<Mutex<Vec<TransferState>>>,
    /// Records appended.
    pub appended: Arc<AtomicU64>,
}

impl AuditorApp {
    /// Empty log.
    pub fn new() -> AuditorApp {
        AuditorApp {
            log: Arc::new(Mutex::new(Vec::new())),
            appended: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Default for AuditorApp {
    fn default() -> Self {
        Self::new()
    }
}

impl InstanceApp for AuditorApp {
    fn host_call(&mut self, name: &str, _ctx: &mut HostCtx<'_>) -> Result<(), String> {
        if name == "H2" || name == "append_log" {
            self.appended.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn save(&mut self, key: &str) -> Result<Value, String> {
        Err(format!("auditor: unexpected save({key})"))
    }

    fn restore(&mut self, key: &str, value: &Value) -> Result<(), String> {
        match key {
            "n" => {
                let state =
                    TransferState::from_bytes(value.as_bytes().ok_or("expected bytes")?)?;
                self.log.lock().push(state);
                Ok(())
            }
            other => Err(format!("auditor: unexpected restore({other})")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csaw_kv::KeyId;
    use std::time::Duration;

    fn table() -> csaw_kv::Table {
        let mut t = csaw_kv::Table::new();
        t.declare_data("n");
        t
    }

    #[test]
    fn curl_app_downloads_and_snapshots() {
        let mut app = CurlApp::new(LinkModel {
            latency: Duration::ZERO,
            bandwidth: 1 << 30,
            chunk: 4096,
        });
        app.jobs.lock().push(("http://x/1".into(), 8192));
        let mut t = table();
        let writes: Vec<KeyId> = vec![];
        let mut ctx = HostCtx::new(&mut t, &writes, "Act", "junction");
        app.host_call("H1", &mut ctx).unwrap();
        let snap = app.save("n").unwrap();
        let state = TransferState::from_bytes(snap.as_bytes().unwrap()).unwrap();
        assert_eq!(state.done, 8192);
        assert_eq!(state.url, "http://x/1");
    }

    #[test]
    fn auditor_appends_records() {
        let mut aud = AuditorApp::new();
        let state = TransferState {
            url: "u".into(),
            total: 10,
            done: 10,
            checksum: 1,
            invocation: 1,
        };
        aud.restore("n", &Value::from(state.to_bytes().unwrap())).unwrap();
        let mut t = table();
        let writes: Vec<KeyId> = vec![];
        let mut ctx = HostCtx::new(&mut t, &writes, "Aud", "junction");
        aud.host_call("H2", &mut ctx).unwrap();
        assert_eq!(aud.log.lock().len(), 1);
        assert_eq!(aud.appended.load(Ordering::Relaxed), 1);
        assert_eq!(aud.log.lock()[0], state);
    }

    #[test]
    fn curl_app_requires_a_job() {
        let mut app = CurlApp::new(LinkModel::gigabit_scaled());
        let mut t = table();
        let writes: Vec<KeyId> = vec![];
        let mut ctx = HostCtx::new(&mut t, &writes, "Act", "junction");
        assert!(app.host_call("H1", &mut ctx).is_err());
    }
}
