//! One node of the §4 computation tree: `pd-worker --listen <unix:path|tcp:host:port>` —
//! the same server as `pd-dist`'s `pd-dist-worker` binary.
//!
//! This thin wrapper exists in the root package (under a distinct target
//! name, to avoid an output-filename collision with `pd-dist`'s bin) so
//! the workspace-level integration tests get a `CARGO_BIN_EXE_pd-worker`
//! path from cargo even when only the root package is built.

fn main() {
    std::process::exit(powerdrill::dist::worker::worker_main());
}
