//! DURABILITY-PROTOCOL fixture, rename half, outside the durable-file
//! kit: any `rename` here is a hand-rolled publish sequence, even one
//! that follows the protocol to the letter.

use std::fs::File;
use std::io::Write;
use std::path::Path;

// Positive: protocol-complete, but a sixth copy of what
// `sgraph::sfile` owns.
pub fn publish_by_hand(tmp: &Path, dst: &Path, dir: &Path) -> std::io::Result<()> {
    let mut f = File::create(tmp)?;
    f.write_all(b"payload")?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(tmp, dst)?;
    File::open(dir)?.sync_all()
}

// Allowlisted: a cache file whose loss on crash is acceptable.
pub fn publish_cache(tmp: &Path, dst: &Path) -> std::io::Result<()> {
    // lint: allow(DURABILITY-PROTOCOL) fixture exception: throwaway cache, rebuilt on open
    std::fs::rename(tmp, dst)
}
