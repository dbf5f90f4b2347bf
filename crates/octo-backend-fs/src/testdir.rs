//! Directory trees for tests under the system temp directory, removed when
//! their guard drops.

use std::path::{Path, PathBuf};

/// A test's directory, `<temp dir>/<name>-<pid>`, removed with everything
/// under it when the guard drops, also while a failing test unwinds.
pub(crate) struct TempTree(PathBuf);

impl TempTree {
    /// The tree for `name`, cleared of whatever an earlier run left there.
    /// Not created: the code under test may create it.
    pub(crate) fn new(name: &str) -> TempTree {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempTree(dir)
    }
}

impl std::ops::Deref for TempTree {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
