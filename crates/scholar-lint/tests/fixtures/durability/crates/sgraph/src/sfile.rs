//! DURABILITY-PROTOCOL fixture, rename half, inside the durable-file
//! kit (the one file allowed to call `rename`): a rename into a
//! published path must be preceded by an fsync of the file and followed
//! by an fsync of the parent directory.

use std::fs::File;
use std::io::Write;
use std::path::Path;

// Positive: no fsync before the rename, no directory sync after it.
pub fn publish_torn(tmp: &Path, dst: &Path) -> std::io::Result<()> {
    let mut f = File::create(tmp)?;
    f.write_all(b"payload")?;
    drop(f);
    std::fs::rename(tmp, dst)
}

// Clean: file synced before, directory synced after.
pub fn publish_durable(tmp: &Path, dst: &Path, dir: &Path) -> std::io::Result<()> {
    let mut f = File::create(tmp)?;
    f.write_all(b"payload")?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(tmp, dst)?;
    fsync_dir(dir)
}

// Clean, interprocedural: the helper that writes the tmp file syncs it
// transitively, so the caller's rename is covered.
pub fn publish_via_helper(tmp: &Path, dst: &Path, dir: &Path) -> std::io::Result<()> {
    write_synced(tmp)?;
    std::fs::rename(tmp, dst)?;
    fsync_dir(dir)
}

fn write_synced(tmp: &Path) -> std::io::Result<()> {
    let mut f = File::create(tmp)?;
    f.write_all(b"payload")?;
    f.sync_all()
}

fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}
