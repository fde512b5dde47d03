//! The simulated GPU device: memory API with synchronization barriers and
//! an asynchronous, in-order kernel stream.

use crate::arena::{Arena, DeviceAddr};
use crate::config::GpuConfig;
use crate::stats::GpuStats;
use crossbeam::channel::{unbounded, Sender};
use memphis_matrix::Matrix;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Device-resident matrix store, indexed by device address.
pub type DeviceData = HashMap<DeviceAddr, Matrix>;

/// A kernel body executed on the device thread.
pub type Kernel = Box<dyn FnOnce(&mut DeviceData) + Send>;

/// Handle to a device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GpuPtr {
    /// Device address.
    pub addr: DeviceAddr,
    /// Allocation size in bytes.
    pub size: usize,
}

/// Errors surfaced by the device API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// The arena has no contiguous range for the request.
    OutOfMemory {
        /// Requested bytes.
        requested: usize,
        /// Largest contiguous free range.
        largest_free: usize,
        /// Total free bytes (may exceed `largest_free` under fragmentation).
        total_free: usize,
    },
    /// The pointer does not refer to a live allocation.
    InvalidPointer,
    /// No data resident at the pointer (kernel never wrote it).
    NoData,
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::OutOfMemory {
                requested,
                largest_free,
                total_free,
            } => write!(
                f,
                "device out of memory: requested {requested} B, largest free {largest_free} B, total free {total_free} B"
            ),
            GpuError::InvalidPointer => write!(f, "invalid device pointer"),
            GpuError::NoData => write!(f, "no data resident at device pointer"),
        }
    }
}

impl std::error::Error for GpuError {}

enum StreamCmd {
    Kernel(Kernel),
    Sync(Sender<()>),
}

/// The simulated device. One instance per GPU; `Arc`-share it across host
/// threads.
pub struct GpuDevice {
    cfg: GpuConfig,
    arena: Mutex<Arena>,
    data: Arc<Mutex<DeviceData>>,
    stream: Sender<StreamCmd>,
    device_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    stats: Arc<GpuStats>,
}

impl GpuDevice {
    /// Boots a device with the given configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        let data: Arc<Mutex<DeviceData>> = Arc::new(Mutex::new(HashMap::new()));
        let (tx, rx) = unbounded::<StreamCmd>();
        let stats = Arc::new(GpuStats::default());
        let thread_data = data.clone();
        let thread_stats = stats.clone();
        let launch = cfg.kernel_launch;
        let speedup = cfg.compute_speedup;
        let handle = std::thread::Builder::new()
            .name("gpu-stream-0".into())
            .spawn(move || {
                while let Ok(cmd) = rx.recv() {
                    match cmd {
                        StreamCmd::Kernel(k) => {
                            let kernel_span = memphis_obs::span(memphis_obs::cat::GPU, "kernel");
                            if !launch.is_zero() {
                                std::thread::sleep(launch);
                            }
                            let t0 = Instant::now();
                            {
                                let mut data = thread_data.lock();
                                k(&mut data);
                            }
                            let elapsed = t0.elapsed();
                            GpuStats::add_duration(&thread_stats.compute_ns, elapsed);
                            // compute_speedup < 1 models a device slower
                            // than the host core by sleeping the difference;
                            // >= 1 runs at host speed (we cannot execute
                            // faster than real time).
                            if speedup < 1.0 {
                                let extra = elapsed.mul_f64(1.0 / speedup - 1.0);
                                std::thread::sleep(extra);
                            }
                            drop(kernel_span);
                        }
                        StreamCmd::Sync(ack) => {
                            ack.send(()).ok();
                        }
                    }
                }
            })
            .expect("spawn device thread");
        let arena = Mutex::new(Arena::new(cfg.memory_capacity));
        Self {
            cfg,
            arena,
            data,
            stream: tx,
            device_thread: Mutex::new(Some(handle)),
            stats,
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> crate::stats::GpuStatsSnapshot {
        self.stats.snapshot()
    }

    /// Bytes currently allocated on the device.
    pub fn mem_used(&self) -> usize {
        self.arena.lock().used()
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.arena.lock().capacity()
    }

    /// Largest contiguous free range (fragmentation probe).
    pub fn largest_free(&self) -> usize {
        self.arena.lock().largest_free_range()
    }

    /// External fragmentation in `[0, 1]`.
    pub fn fragmentation(&self) -> f64 {
        self.arena.lock().fragmentation()
    }

    /// Drains the kernel stream, blocking the host (a synchronization
    /// barrier). Charged to `sync_wait_ns`.
    pub fn synchronize(&self) {
        let _sync_span = memphis_obs::span(memphis_obs::cat::GPU, "sync");
        let t0 = Instant::now();
        let (ack_tx, ack_rx) = unbounded();
        if self.stream.send(StreamCmd::Sync(ack_tx)).is_ok() {
            ack_rx.recv().ok();
        }
        GpuStats::inc(&self.stats.syncs);
        GpuStats::add_duration(&self.stats.sync_wait_ns, t0.elapsed());
    }

    /// `cudaMalloc`: synchronizes the stream, charges the allocation
    /// overhead, and carves `size` bytes out of the arena.
    pub fn alloc(&self, size: usize) -> Result<GpuPtr, GpuError> {
        let _alloc_span =
            memphis_obs::span(memphis_obs::cat::GPU, "alloc").arg("bytes", size as u64);
        self.synchronize();
        let addr = {
            let mut arena = self.arena.lock();
            match arena.alloc(size) {
                Some(a) => a,
                None => {
                    GpuStats::inc(&self.stats.alloc_failures);
                    return Err(GpuError::OutOfMemory {
                        requested: size,
                        largest_free: arena.largest_free_range(),
                        total_free: arena.free_bytes(),
                    });
                }
            }
        };
        if !self.cfg.alloc_overhead.is_zero() {
            std::thread::sleep(self.cfg.alloc_overhead);
        }
        GpuStats::inc(&self.stats.allocs);
        GpuStats::add_duration(&self.stats.alloc_free_wait_ns, self.cfg.alloc_overhead);
        Ok(GpuPtr { addr, size })
    }

    /// `cudaFree`: synchronizes, releases the allocation, and drops any
    /// resident data.
    pub fn free(&self, ptr: GpuPtr) -> Result<(), GpuError> {
        let _free_span =
            memphis_obs::span(memphis_obs::cat::GPU, "free").arg("bytes", ptr.size as u64);
        self.synchronize();
        {
            let mut arena = self.arena.lock();
            arena.free(ptr.addr).ok_or(GpuError::InvalidPointer)?;
            // Drop the data before the arena lock goes: from then on another
            // host thread may allocate this range and upload into it.
            self.data.lock().remove(&ptr.addr);
        }
        if !self.cfg.free_overhead.is_zero() {
            std::thread::sleep(self.cfg.free_overhead);
        }
        GpuStats::inc(&self.stats.frees);
        GpuStats::add_duration(&self.stats.alloc_free_wait_ns, self.cfg.free_overhead);
        Ok(())
    }

    /// Host-to-device copy into an existing allocation: synchronizes and
    /// charges the pageable-transfer cost.
    pub fn copy_to_device(&self, m: &Matrix, ptr: GpuPtr) -> Result<(), GpuError> {
        if self.arena.lock().size_of(ptr.addr) != Some(ptr.size) {
            return Err(GpuError::InvalidPointer);
        }
        let _h2d_span =
            memphis_obs::span(memphis_obs::cat::XFER, "h2d").arg("bytes", m.size_bytes() as u64);
        self.synchronize();
        let delay = GpuConfig::transfer_delay(m.size_bytes(), self.cfg.h2d_ns_per_byte);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        GpuStats::add(&self.stats.h2d_bytes, m.size_bytes() as u64);
        GpuStats::add_duration(&self.stats.transfer_wait_ns, delay);
        self.data.lock().insert(ptr.addr, m.clone());
        Ok(())
    }

    /// Allocates and uploads in one call.
    pub fn upload(&self, m: &Matrix) -> Result<GpuPtr, GpuError> {
        let ptr = self.alloc(m.size_bytes().max(8))?;
        self.copy_to_device(m, ptr)?;
        Ok(ptr)
    }

    /// Device-to-host copy: synchronizes (a barrier, §2.3) and charges the
    /// transfer cost.
    pub fn copy_to_host(&self, ptr: GpuPtr) -> Result<Matrix, GpuError> {
        let _d2h_span =
            memphis_obs::span(memphis_obs::cat::XFER, "d2h").arg("bytes", ptr.size as u64);
        self.synchronize();
        let m = self
            .data
            .lock()
            .get(&ptr.addr)
            .cloned()
            .ok_or(GpuError::NoData)?;
        let delay = GpuConfig::transfer_delay(m.size_bytes(), self.cfg.d2h_ns_per_byte);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        GpuStats::add(&self.stats.d2h_bytes, m.size_bytes() as u64);
        GpuStats::add_duration(&self.stats.transfer_wait_ns, delay);
        Ok(m)
    }

    /// Reads device-resident data without charging transfer costs — for
    /// test assertions only.
    pub fn peek(&self, ptr: GpuPtr) -> Option<Matrix> {
        self.data.lock().get(&ptr.addr).cloned()
    }

    /// Enqueues a kernel on the stream and returns immediately (the host
    /// keeps running — CUDA-style asynchrony).
    pub fn launch(&self, kernel: Kernel) {
        GpuStats::inc(&self.stats.kernels);
        self.stream.send(StreamCmd::Kernel(kernel)).ok();
    }

    /// Enqueues a unary kernel `out = f(in)`.
    pub fn launch_unary<F>(&self, input: GpuPtr, output: GpuPtr, f: F)
    where
        F: FnOnce(&Matrix) -> Matrix + Send + 'static,
    {
        self.launch(Box::new(move |data| {
            if let Some(m) = data.get(&input.addr) {
                let out = f(m);
                data.insert(output.addr, out);
            }
        }));
    }

    /// Enqueues a binary kernel `out = f(a, b)`.
    pub fn launch_binary<F>(&self, a: GpuPtr, b: GpuPtr, output: GpuPtr, f: F)
    where
        F: FnOnce(&Matrix, &Matrix) -> Matrix + Send + 'static,
    {
        self.launch(Box::new(move |data| {
            if let (Some(ma), Some(mb)) = (data.get(&a.addr), data.get(&b.addr)) {
                let out = f(ma, mb);
                data.insert(output.addr, out);
            }
        }));
    }

    /// Full defragmentation: synchronizes, then compacts all live
    /// allocations to the front of the address space. Returns the relocated
    /// pointers, in the same order as `live` — MEMPHIS's last-resort path
    /// (paper §4.2, "rare in practice").
    pub fn defragment(&self, live: &[GpuPtr]) -> Vec<GpuPtr> {
        let _defrag_span =
            memphis_obs::span(memphis_obs::cat::GPU, "defrag").arg("live", live.len() as u64);
        self.synchronize();
        let mut arena = self.arena.lock();
        let mut data = self.data.lock();
        let mut fresh = Arena::new(arena.capacity());
        let mut out = Vec::with_capacity(live.len());
        let mut new_data: DeviceData = HashMap::new();
        for ptr in live {
            let new_addr = fresh
                .alloc(ptr.size)
                .expect("compaction always fits live set");
            if let Some(m) = data.remove(&ptr.addr) {
                new_data.insert(new_addr, m);
            }
            out.push(GpuPtr {
                addr: new_addr,
                size: ptr.size,
            });
        }
        *arena = fresh;
        *data = new_data;
        out
    }
}

impl Drop for GpuDevice {
    fn drop(&mut self) {
        // Close the stream channel by replacing the sender, then join.
        let (tx, _rx) = unbounded();
        let old = std::mem::replace(&mut self.stream, tx);
        drop(old);
        if let Some(h) = self.device_thread.lock().take() {
            h.join().ok();
        }
    }
}

impl GpuStats {
    /// Increments a counter by one.
    #[inline]
    pub fn inc(counter: &std::sync::atomic::AtomicU64) {
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(counter: &std::sync::atomic::AtomicU64, n: u64) {
        counter.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memphis_matrix::ops::binary::{binary, BinaryOp};
    use memphis_matrix::ops::unary::{unary, UnaryOp};
    use memphis_matrix::rand_gen::rand_uniform;

    fn dev(capacity: usize) -> GpuDevice {
        GpuDevice::new(GpuConfig::zero_cost(capacity))
    }

    #[test]
    fn upload_download_roundtrip() {
        let d = dev(1 << 20);
        let m = rand_uniform(16, 16, -1.0, 1.0, 1);
        let ptr = d.upload(&m).unwrap();
        assert_eq!(d.mem_used(), m.size_bytes());
        let back = d.copy_to_host(ptr).unwrap();
        assert!(back.approx_eq(&m, 0.0));
        d.free(ptr).unwrap();
        assert_eq!(d.mem_used(), 0);
    }

    #[test]
    fn kernels_execute_in_order_asynchronously() {
        let d = dev(1 << 20);
        let m = rand_uniform(8, 8, 0.5, 1.0, 2);
        let input = d.upload(&m).unwrap();
        let mid = d.alloc(m.size_bytes()).unwrap();
        let out = d.alloc(m.size_bytes()).unwrap();
        // Chain: relu → exp, order matters.
        d.launch_unary(input, mid, |x| unary(x, UnaryOp::Relu));
        d.launch_unary(mid, out, |x| unary(x, UnaryOp::Log));
        let got = d.copy_to_host(out).unwrap();
        let expected = unary(&unary(&m, UnaryOp::Relu), UnaryOp::Log);
        assert!(got.approx_eq(&expected, 1e-12));
        assert_eq!(d.stats().kernels, 2);
    }

    #[test]
    fn binary_kernel() {
        let d = dev(1 << 20);
        let a = rand_uniform(4, 4, 0.0, 1.0, 3);
        let b = rand_uniform(4, 4, 0.0, 1.0, 4);
        let pa = d.upload(&a).unwrap();
        let pb = d.upload(&b).unwrap();
        let po = d.alloc(a.size_bytes()).unwrap();
        d.launch_binary(pa, pb, po, |x, y| binary(x, y, BinaryOp::Add).unwrap());
        let got = d.copy_to_host(po).unwrap();
        assert!(got.approx_eq(&binary(&a, &b, BinaryOp::Add).unwrap(), 0.0));
    }

    #[test]
    fn oom_reports_fragmentation() {
        let d = dev(1000);
        let p1 = d.alloc(400).unwrap();
        let _p2 = d.alloc(400).unwrap();
        let err = d.alloc(400).unwrap_err();
        match err {
            GpuError::OutOfMemory {
                requested,
                total_free,
                ..
            } => {
                assert_eq!(requested, 400);
                assert_eq!(total_free, 200);
            }
            other => panic!("unexpected error {other:?}"),
        }
        d.free(p1).unwrap();
        assert!(d.alloc(400).is_ok());
        assert_eq!(d.stats().alloc_failures, 1);
    }

    #[test]
    fn free_invalid_pointer_rejected() {
        let d = dev(1000);
        let bogus = GpuPtr { addr: 123, size: 8 };
        assert_eq!(d.free(bogus), Err(GpuError::InvalidPointer));
        assert_eq!(d.copy_to_host(bogus), Err(GpuError::NoData));
    }

    #[test]
    fn copy_to_device_validates_pointer() {
        let d = dev(1000);
        let m = Matrix::zeros(2, 2);
        let bogus = GpuPtr { addr: 5, size: 32 };
        assert_eq!(d.copy_to_device(&m, bogus), Err(GpuError::InvalidPointer));
    }

    #[test]
    fn sync_counts_barriers() {
        let d = dev(1 << 16);
        let before = d.stats().syncs;
        d.synchronize();
        assert_eq!(d.stats().syncs, before + 1);
        // alloc + free each synchronize too.
        let p = d.alloc(64).unwrap();
        d.free(p).unwrap();
        assert!(d.stats().syncs >= before + 3);
    }

    #[test]
    fn defragment_compacts_live_set() {
        let d = dev(1000);
        let a = d.alloc(200).unwrap();
        let b = d.alloc(200).unwrap();
        let c = d.alloc(200).unwrap();
        let m = rand_uniform(5, 5, 0.0, 1.0, 5);
        d.copy_to_device(&m, c).unwrap();
        d.free(a).unwrap();
        // Hole at front; 400 free total but fragmented.
        d.free(b).unwrap(); // now coalesced front hole of 400
        let live = d.defragment(&[c]);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].addr, 0, "live allocation moved to front");
        assert_eq!(d.largest_free(), 800);
        let back = d.copy_to_host(live[0]).unwrap();
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn transfer_and_compute_counters_accumulate() {
        let d = dev(1 << 20);
        let m = rand_uniform(32, 32, 0.0, 1.0, 6);
        let p = d.upload(&m).unwrap();
        let o = d.alloc(m.size_bytes()).unwrap();
        d.launch_unary(p, o, |x| unary(x, UnaryOp::Relu));
        let _ = d.copy_to_host(o).unwrap();
        let s = d.stats();
        assert_eq!(s.h2d_bytes, m.size_bytes() as u64);
        assert_eq!(s.d2h_bytes, m.size_bytes() as u64);
        assert_eq!(s.kernels, 1);
    }
}
