//! One node of the §4 computation tree: `pd-dist-worker --listen
//! <unix:path|tcp:host:port>`.
//! See [`pd_dist::worker`] for the protocol and roles.

fn main() {
    std::process::exit(pd_dist::worker::worker_main());
}
