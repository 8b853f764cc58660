//! The seven workloads. Each stresses a different layer; names are stable.

pub mod cosim;
pub mod lake;
pub mod net;
pub mod paced;
pub mod pool;
pub mod seq;

use crate::harness::{run_end_to_end, run_traced, Ctx, Outcome};

/// Runs workload `name` (one of [`crate::metrics::WORKLOADS`]), untraced
/// for the end-to-end metrics or traced for the per-layer ones.
pub fn run(name: &str, ctx: &Ctx, traced: bool) -> Option<Outcome> {
    macro_rules! dispatch {
        ($name:literal, $ty:ty) => {
            if traced {
                run_traced::<$ty>($name, ctx)
            } else {
                run_end_to_end::<$ty>($name, ctx)
            }
        };
    }
    Some(match name {
        "seq_check" => dispatch!("seq_check", seq::Seq<false>),
        "seq_propagate" => dispatch!("seq_propagate", seq::Seq<true>),
        "pool_tenants" => dispatch!("pool_tenants", pool::PoolTenants),
        "net_loopback" => dispatch!("net_loopback", net::NetLoopback),
        "lake_capture_query" => dispatch!("lake_capture_query", lake::LakeCaptureQuery),
        "paced_detect" => dispatch!("paced_detect", paced::PacedDetect),
        "cosim_figures" => dispatch!("cosim_figures", cosim::CosimFigures),
        _ => return None,
    })
}
