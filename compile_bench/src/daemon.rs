//! A child `ssync-serviced` listening on an ephemeral loopback port.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENING: &str = "[ssync-serviced] listening on tcp://";

pub struct Daemon {
    child: Child,
    /// Drains the daemon's stderr after the listening line, so its final
    /// report can never block on a full pipe.
    drain: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Daemon {
    /// Starts `exe --tcp 127.0.0.1:0 --workers 1` and waits until it
    /// reports the bound address.
    pub fn spawn(exe: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .args(["--tcp", "127.0.0.1:0", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut daemon = Daemon { child, drain: None, addr: String::new() };
        let mut line = String::new();
        loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("daemon exited before listening".into()),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix(LISTENING) {
                daemon.addr = addr.to_string();
                break;
            }
        }
        daemon.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        }));
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits up to five seconds for the daemon to exit after a
    /// `Shutdown`; dropping the handle kills it if it has not.
    pub fn wait_exit(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && matches!(self.child.try_wait(), Ok(None)) {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}
