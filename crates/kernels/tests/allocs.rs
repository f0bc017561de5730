//! Allocation pin for the warmed forward path.
//!
//! A counting global allocator wraps the system allocator, so this test
//! binary sees every heap allocation the engine makes. Once an
//! [`ExecCtx`] has run one forward, its scratch arenas are sized, and a
//! later forward of the same shape may allocate only the logits tensor
//! it returns — its data buffer and its shape.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flight_kernels::{CompiledNet, ExecCtx};
use flight_tensor::{uniform, Tensor, TensorRng};
use flightnn::configs::NetworkConfig;
use flightnn::QuantScheme;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations of one logits tensor: its data and its shape.
const LOGITS_ALLOCATIONS: u64 = 2;

fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warmed_network1_forward_allocates_only_the_logits() {
    for scheme in [QuantScheme::l1(), QuantScheme::fp4w8a()] {
        let mut rng = TensorRng::seed(7);
        let mut net = NetworkConfig::by_id(1).build(&scheme, &mut rng, 10, [3, 16, 16], 0.25);
        let compiled = CompiledNet::compile(&mut net, false).expect("network 1 compiles");
        for n in [1usize, 8] {
            let x = uniform(&mut rng, &[n, 3, 16, 16], -1.0, 1.0);
            let mut ctx = ExecCtx::new();
            let _ = compiled.forward(&x, &mut ctx);
            let mut logits = Tensor::zeros(&[0]);
            let allocs = allocations_of(|| logits = compiled.forward(&x, &mut ctx).0);
            assert_eq!(logits.dims(), &[n, 10]);
            assert_eq!(
                allocs,
                LOGITS_ALLOCATIONS,
                "{} batch {n}: a warmed forward allocated {allocs} times",
                scheme.label()
            );
        }
    }
}
