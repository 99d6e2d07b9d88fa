//! Validating constructors for the parameterized [`Workload`]s: each
//! refuses a parameter its generator cannot take.

use crate::spec::Workload;

/// The `incast:<fanin>` workload (`incast` alone defaults to 32:1).
pub fn incast(fan_in: u32) -> Workload {
    assert!(fan_in >= 1, "incast fan-in must be >= 1");
    Workload::Incast { fan_in }
}

/// The `hotspot:<skew>` workload (`hotspot` alone defaults to z = 1).
pub fn zipf_hotspot(skew: f64) -> Workload {
    assert!(skew.is_finite() && skew >= 0.0, "bad zipf skew {skew}");
    Workload::Hotspot { skew }
}

/// The `onoff:<burst>` workload (`onoff` alone defaults to burst = 5).
pub fn onoff(burst: f64) -> Workload {
    assert!(
        burst.is_finite() && burst >= 1.0,
        "bad burst factor {burst}"
    );
    Workload::OnOff { burst }
}
