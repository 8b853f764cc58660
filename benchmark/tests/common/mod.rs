//! Shared by the integration tests: a tiny-scale context with its own
//! output directory (tests run on parallel threads and must not share one).

use igm_benchmark::harness::Ctx;
use igm_benchmark::host::Host;
use std::path::PathBuf;

pub fn tiny_ctx(test: &str, seed: u64) -> Ctx {
    Ctx {
        seed,
        scale: 0.01,
        seconds: 0.05,
        out: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test),
        host: Host::detect(),
    }
}
