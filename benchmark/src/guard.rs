//! Clean-up that holds on every exit path, panics included: scratch
//! directories are removed and child processes killed and reaped when
//! their guard drops.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::Child;

/// A scratch directory under the benchmark's `work/`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `work_dir/<label>-<pid>` afresh, after sweeping out what
    /// runs that were `SIGKILL`ed (no drop guard runs then) left behind.
    pub fn create(work_dir: &Path, label: &str) -> std::io::Result<TempDir> {
        for entry in std::fs::read_dir(work_dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let owner = name.to_str().and_then(|n| n.rsplit_once('-')?.1.parse::<u32>().ok());
            if owner.is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists()) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let path = work_dir.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A child process that is SIGKILLed and waited for on drop.
pub struct ChildGuard(Child);

impl ChildGuard {
    pub fn new(child: Child) -> ChildGuard {
        ChildGuard(child)
    }

    pub fn pid(&self) -> u32 {
        self.0.id()
    }

    /// `Some(status text)` once the child has exited on its own.
    pub fn exited(&mut self) -> Option<String> {
        match self.0.try_wait() {
            Ok(Some(status)) => Some(status.to_string()),
            Ok(None) => None,
            Err(e) => Some(format!("unwaitable: {e}")),
        }
    }

    /// SIGKILL — no graceful shutdown, which is the crash the restart
    /// path is measured against — then reap.
    pub fn kill(mut self) {
        self.kill_and_reap();
    }

    fn kill_and_reap(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

/// A port that was free a moment ago: bind `127.0.0.1:0`, read the
/// number, release it for the child to bind.
pub fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_even_when_the_holder_panics() {
        let work = std::env::temp_dir().join(format!("bench-guard-{}", std::process::id()));
        let seen = std::sync::Arc::new(std::sync::Mutex::new(PathBuf::new()));
        let seen2 = std::sync::Arc::clone(&seen);
        let work2 = work.clone();
        let result = std::thread::spawn(move || {
            let dir = TempDir::create(&work2, "t").unwrap();
            std::fs::write(dir.path().join("f"), b"x").unwrap();
            *seen2.lock().unwrap() = dir.path().to_path_buf();
            panic!("unwind through the guard");
        })
        .join();
        assert!(result.is_err());
        let path = seen.lock().unwrap().clone();
        assert!(path.starts_with(&work) && !path.exists());
        // A directory whose owner is gone is swept by the next run; one
        // whose owner lives (this process) is left alone.
        let stale = work.join("publish-4194304999");
        let live = work.join(format!("other-{}", std::process::id()));
        std::fs::create_dir_all(&stale).unwrap();
        std::fs::create_dir_all(&live).unwrap();
        let _fresh = TempDir::create(&work, "t").unwrap();
        assert!(!stale.exists() && live.exists());
        let _ = std::fs::remove_dir_all(&work);
    }

    #[test]
    fn child_guard_kills_and_reaps_on_drop() {
        let child = std::process::Command::new("sleep").arg("600").spawn().unwrap();
        let mut guard = ChildGuard::new(child);
        let pid = guard.pid();
        assert!(guard.exited().is_none());
        drop(guard);
        // Reaped: the pid is gone (or recycled to something that is not
        // our sleeping child).
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        assert!(!cmdline.starts_with(b"sleep\x00600"), "child {pid} still alive");
        assert!(free_port().unwrap() > 0);
    }
}
