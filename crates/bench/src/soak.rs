//! The soak client `serve_soak` and `latency_audit` share: the fixture
//! they serve, the backoff they ride on rejection, and the panic hook
//! that keeps injected worker faults quiet.

use std::sync::Arc;
use std::time::Duration;

use dv_core::{DeepValidator, ValidatorConfig};
use dv_nn::InferencePlan;
use dv_runtime::Pool;
use dv_serve::{Pending, Rejected, RetryPolicy, Server};
use dv_tensor::Tensor;

use crate::models::stripe_fixture;

/// The client's backoff: a 100 µs floor, a 20 ms ceiling, at most 10
/// retries per request.
const RETRY: RetryPolicy = RetryPolicy {
    base: Duration::from_micros(100),
    max_delay: Duration::from_millis(20),
    max_attempts: 10,
    seed: 0xD5,
};

/// Silences the panic spew from *injected* worker faults; forwards
/// every other panic to the previous hook so genuine failures stay loud.
pub fn quiet_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected fault"));
        if !injected {
            prev(info);
        }
    }));
}

/// The validator fitted on [`stripe_fixture`] in a one-thread pool, its
/// plan, and the fixture's images.
///
/// # Panics
///
/// Panics if the fixture no longer fits, which is a bug in the fixture.
pub fn stripe_validator() -> (Arc<DeepValidator>, Arc<InferencePlan>, Vec<Tensor>) {
    let (net, images, labels) = stripe_fixture();
    let validator = Pool::new(1).install(|| {
        DeepValidator::fit(&net, &images, &labels, &ValidatorConfig::default())
            .expect("validator fit failed")
    });
    (Arc::new(validator), Arc::new(net.plan()), images)
}

/// Submits `img` as request `key`, backing off on every `QueueFull`
/// (100 µs floor, 20 ms ceiling, at most 10 retries): `retry_after` is the server's per-slot drain estimate,
/// so the client waits for a `queue_capacity` tranche of slots to
/// drain rather than racing the very next free one. `None` once the
/// attempt budget is spent (the server counted each rejection) or the
/// server is shutting down.
pub fn submit_with_retry(
    server: &Server,
    img: &Tensor,
    key: u64,
    queue_capacity: usize,
) -> Option<Pending> {
    let mut attempt = 0u32;
    loop {
        match server.try_submit(img.clone()) {
            Ok(p) => return Some(p),
            Err(Rejected::QueueFull { retry_after }) => {
                let tranche = retry_after.saturating_mul(queue_capacity as u32);
                let backoff = RETRY.delay(key, attempt, Some(tranche))?;
                attempt += 1;
                std::thread::sleep(backoff);
            }
            Err(Rejected::ShuttingDown) => return None,
        }
    }
}
