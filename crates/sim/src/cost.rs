//! The hardware cost model.
//!
//! Every latency the real system would spend on GPU kernels, PCIe transfers,
//! or host DRAM is computed here as simulated [`Nanos`]. The constants in
//! [`CostParams`] are calibrated against the numbers the paper reports:
//!
//! * Fig 3b — all_to_all bandwidth on commodity GPUs is ~54 % of datacenter
//!   GPUs, both saturating in the single-digit GB/s range.
//! * Fig 10 — UVA host-memory access is 3.1–3.4× lower latency than the
//!   CPU-involved path across batch sizes.
//! * Exp #1 — UVM page-granularity access is two orders of magnitude slower
//!   (4 KiB pages moved for ~512 B embeddings).
//! * Fig 3a/3c — HugeCTR on 4×RTX 3090 loses up to 37 % throughput versus
//!   4×A30, with 54–72 % of the gap in collective communication.
//!
//! Absolute values are estimates for the paper's testbed; what the model
//! preserves is the *structure*: which path pays fixed CPU dispatch latency,
//! which path crosses the root complex twice, which path moves whole pages.

use crate::time::Nanos;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Tunable constants of the cost model. See the module docs for calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Peak effective all_to_all bandwidth with PCIe P2P, GB/s per GPU.
    pub a2a_peak_p2p_gbps: f64,
    /// Transfer size at which P2P all_to_all reaches half its peak, bytes.
    pub a2a_half_p2p_bytes: f64,
    /// Peak effective all_to_all bandwidth when bounced on host memory
    /// (no P2P), GB/s per GPU. Fig 3b: ≈54 % of the P2P figure.
    pub a2a_peak_bounce_gbps: f64,
    /// Half-saturation size for the bounced path, bytes (larger: the bounce
    /// buffer adds per-message cost, so saturation needs bigger transfers).
    pub a2a_half_bounce_bytes: f64,
    /// Fixed setup latency of one collective, microseconds (P2P path).
    pub a2a_base_p2p_us: f64,
    /// Fixed setup latency of one collective on the bounced path,
    /// microseconds; higher because the CPU must coordinate the bounce.
    pub a2a_base_bounce_us: f64,

    /// Fixed software latency of a CPU-involved transfer, microseconds
    /// (driver call, kernel launch, staging setup).
    pub cpu_dispatch_us: f64,
    /// CPU cost to gather/scatter one random row on host DRAM, nanoseconds.
    pub cpu_row_ns: f64,
    /// Effective DMA (cudaMemcpy) bandwidth GPU↔host, GB/s.
    pub dma_gbps: f64,

    /// Fixed latency of a UVA zero-copy kernel, microseconds.
    pub uva_base_us: f64,
    /// Effective bandwidth of UVA random row gathers from host DRAM, GB/s.
    /// (Massively parallel GPU loads hide latency; calibrated so the
    /// UVA-vs-CPU ratio lands in the paper's 3.1–3.4× band.)
    pub uva_gather_gbps: f64,

    /// Fixed launch cost of a GPU cache kernel, microseconds.
    pub cache_base_us: f64,
    /// Per-row GPU cache *query* cost, nanoseconds (hash probe).
    pub cache_query_row_ns: f64,
    /// Per-row *local* GPU cache insert/refill cost, nanoseconds (bucket
    /// locking, eviction bookkeeping on the owner GPU itself).
    pub cache_update_row_ns: f64,

    /// UVM page size in bytes (CUDA unified memory migrates 4 KiB pages).
    pub uvm_page_bytes: f64,
    /// Cost per UVM page fault + migration, microseconds. High because the
    /// embedding working set far exceeds device memory, so random accesses
    /// thrash (fault + migrate + dirty-page writeback + TLB shootdown per touched page).
    pub uvm_page_fault_us: f64,

    /// Fraction of peak FP32 throughput a dense MLP actually achieves.
    pub dnn_utilization: f64,
    /// Fixed kernel-launch overhead per DNN layer, microseconds.
    pub dnn_layer_launch_us: f64,

    /// Fixed per-iteration framework overhead of a PyTorch-style stack,
    /// microseconds (Python dispatch, autograd graph, data loading).
    pub fw_fixed_nocache_us: f64,
    /// Fixed per-iteration overhead of a HugeCTR-style cached pipeline on
    /// commodity GPUs, microseconds: without P2P, every pipeline stage is
    /// CPU-coordinated (bucketing rounds, bounce-buffer management).
    pub fw_fixed_cached_us: f64,
    /// Fixed per-iteration overhead of the cached pipeline on datacenter
    /// GPUs, microseconds: NCCL P2P collectives and GPU-side cache kernels
    /// keep the CPU out of the loop.
    pub fw_fixed_cached_p2p_us: f64,
    /// Fixed per-iteration overhead of Frugal's lean runtime, microseconds.
    pub fw_fixed_frugal_us: f64,
    /// Per-unique-row CPU software cost of the no-cache path, nanoseconds
    /// (framework-level gather/scatter, sparse-optimizer bookkeeping). Runs
    /// on the shared CPU service pool, so it stops scaling with GPU count —
    /// the paper's Exp #8 plateau.
    pub fw_row_nocache_ns: f64,
    /// Per-unique-row CPU software cost of the cached pipeline on commodity
    /// GPUs, nanoseconds (bucket keys, reorder — Fig 2b ➊➎).
    pub fw_row_cached_ns: f64,
    /// Per-unique-row cost of the cached pipeline with P2P (GPU-side
    /// bucketing), nanoseconds.
    pub fw_row_cached_p2p_ns: f64,
    /// Per-row cost of the *coordinated* multi-GPU cache update when P2P is
    /// available, nanoseconds (gradients reach the owner's cache directly).
    pub cache_coord_row_p2p_ns: f64,
    /// Per-row cost of the coordinated cache update when traffic bounces
    /// through the CPU (commodity GPUs), nanoseconds. The dominant cost of
    /// HugeCTR on commodity hardware (Fig 12's cache segment).
    pub cache_coord_row_bounce_ns: f64,
    /// CPU worker threads servicing framework row operations; shared across
    /// all GPUs.
    pub cpu_service_threads: f64,
    /// Per-row cost of a *synchronous* write-through flush burst,
    /// nanoseconds: latency-bound, serialized writes on the critical path
    /// (the "long stall" Frugal-Sync suffers, §3.1/Exp #2).
    pub sync_flush_row_ns: f64,
    /// Reference cost of registering one g-entry update on the paper's
    /// controller, nanoseconds, independent of embedding width (queue ops,
    /// R/W-set bookkeeping). Calibrated to Fig 11a.
    pub gentry_base_ns: f64,
    /// Additional per-byte cost of a g-entry update (staging the gradient),
    /// nanoseconds per byte — why KG (dim 400) registration costs tens of
    /// ms (Fig 11a) while REC (dim 32) stays in the single-digit ms.
    pub gentry_byte_ns: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            a2a_peak_p2p_gbps: 4.6,
            a2a_half_p2p_bytes: 1.5e6,
            a2a_peak_bounce_gbps: 2.5,
            a2a_half_bounce_bytes: 2.5e6,
            a2a_base_p2p_us: 12.0,
            a2a_base_bounce_us: 25.0,
            cpu_dispatch_us: 35.0,
            cpu_row_ns: 90.0,
            dma_gbps: 26.0,
            uva_base_us: 11.0,
            uva_gather_gbps: 4.5,
            cache_base_us: 8.0,
            cache_query_row_ns: 20.0,
            cache_update_row_ns: 500.0,
            uvm_page_bytes: 4096.0,
            uvm_page_fault_us: 60.0,
            dnn_utilization: 0.30,
            dnn_layer_launch_us: 10.0,
            fw_fixed_nocache_us: 3_000.0,
            fw_fixed_cached_us: 6_000.0,
            fw_fixed_cached_p2p_us: 1_000.0,
            fw_fixed_frugal_us: 500.0,
            fw_row_nocache_ns: 8_000.0,
            fw_row_cached_ns: 2_000.0,
            fw_row_cached_p2p_ns: 400.0,
            cache_coord_row_p2p_ns: 2_000.0,
            cache_coord_row_bounce_ns: 12_000.0,
            cpu_service_threads: 8.0,
            sync_flush_row_ns: 2_000.0,
            gentry_base_ns: 100.0,
            gentry_byte_ns: 0.3,
        }
    }
}

/// How a GPU reaches parameters resident in host memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostPath {
    /// CPU software stages rows into a buffer and DMAs them to the GPU
    /// (what PyTorch/HugeCTR must do on commodity GPUs — paper Fig 2b ➊➎).
    CpuInvolved,
    /// The GPU kernel load/stores host memory directly via UVA, zero-copy
    /// and CPU-bypassing (Frugal's read path — paper §3.1 ➂).
    Uva,
    /// CUDA unified memory: page faults migrate whole 4 KiB pages
    /// (the PyTorch-UVM baseline of Exp #1).
    Uvm,
}

/// How the flush priority queue's operations are priced — the Exp #4
/// contrast, stated as complexity and serialization (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PqCost {
    /// O(1) operations that proceed concurrently on every thread (the
    /// two-level PQ).
    Concurrent,
    /// O(log `capacity`) operations funnelled through one lock (the tree
    /// heap). `capacity` is the most entries the queue can hold — one per
    /// key of the table, a property of the configuration, never an
    /// observed queue length.
    Serialized {
        /// Upper bound on queued entries.
        capacity: u64,
    },
}

impl PqCost {
    /// Price of one operation's sift, nanoseconds: nothing for O(1)
    /// queues, ⌈log₂ capacity⌉ levels for a heap. The depth is integer
    /// arithmetic, so the price is identical on every host.
    fn sift_ns(self) -> f64 {
        match self {
            PqCost::Concurrent => 0.0,
            PqCost::Serialized { capacity } => {
                HEAP_LEVEL_NS * f64::from((capacity.max(2) - 1).ilog2() + 1)
            }
        }
    }
}

/// Reference prices of one flushed row on one flushing thread,
/// nanoseconds: dequeue + claim (queue pop, g-entry W-set extraction),
/// the optimizer step + host-store write, and that write's per-byte part.
/// Committed once from this repository's measured flusher costs (dequeue +
/// claim ≈ 215 ns/row, apply ≈ 90–170 ns/row for dim-32 rows on a host
/// that registers a g-entry ≈ 3× slower than the reference controller):
/// ≈ 0.1 µs per dim-32 row, the scale the deleted per-process
/// normalisation of those measurements used to land on.
const FLUSH_DEQUEUE_ROW_NS: f64 = 60.0;
const FLUSH_APPLY_ROW_NS: f64 = 30.0;
const FLUSH_APPLY_BYTE_NS: f64 = 0.1;
/// Reference price of one level of a tree-heap sift (lock hand-over plus
/// the compare-and-swap of a node), nanoseconds.
const HEAP_LEVEL_NS: f64 = 25.0;

/// The calibrated cost model for one server [`Topology`].
///
/// # Examples
///
/// ```
/// use frugal_sim::{CostModel, Topology};
///
/// let commodity = CostModel::new(Topology::commodity(4));
/// let datacenter = CostModel::new(Topology::datacenter(4));
/// // Fig 3b: bounced all_to_all reaches ~54 % of the P2P bandwidth.
/// let s = 100 << 20;
/// let ratio = commodity.all_to_all_bandwidth_gbps(s)
///     / datacenter.all_to_all_bandwidth_gbps(s);
/// assert!((0.45..0.65).contains(&ratio));
/// ```
#[derive(Debug, Clone)]
pub struct CostModel {
    topo: Topology,
    params: CostParams,
}

impl CostModel {
    /// Builds a cost model with default calibration for `topo`.
    pub fn new(topo: Topology) -> Self {
        CostModel {
            topo,
            params: CostParams::default(),
        }
    }

    /// The topology this model describes.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The calibration constants.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Effective per-stream bandwidth when `concurrent` GPUs share the root
    /// complex: `min(path, root/concurrent)`. This is the mechanism behind
    /// the scalability plateau of cache-less systems (Exp #8).
    fn contended_gbps(&self, path_gbps: f64, concurrent: usize) -> f64 {
        let shared = self.topo.host().root_complex_gbps / concurrent.max(1) as f64;
        path_gbps.min(shared)
    }

    fn bulk(bytes: u64, gbps: f64) -> Nanos {
        Nanos::from_secs_f64(bytes as f64 / (gbps * 1e9))
    }

    /// Time for one `all_to_all` where each GPU exchanges `per_gpu_bytes`
    /// in total with its peers. Uses the P2P path on datacenter topologies
    /// and the host-bounce path on commodity ones.
    ///
    /// Returns [`Nanos::ZERO`] on single-GPU topologies (nothing to
    /// exchange).
    pub fn all_to_all(&self, per_gpu_bytes: u64) -> Nanos {
        let n = self.topo.n_gpus();
        if n <= 1 {
            return Nanos::ZERO;
        }
        let p = &self.params;
        let (base_us, bw) = if self.topo.supports_p2p() {
            (
                p.a2a_base_p2p_us,
                self.a2a_eff_gbps(per_gpu_bytes, p.a2a_peak_p2p_gbps, p.a2a_half_p2p_bytes),
            )
        } else {
            // Bounced traffic crosses the root complex twice (GPU→host,
            // host→GPU), so it is the aggregate 2·n·S that contends there.
            let curve = self.a2a_eff_gbps(
                per_gpu_bytes,
                p.a2a_peak_bounce_gbps,
                p.a2a_half_bounce_bytes,
            );
            let root_cap = self.topo.host().root_complex_gbps / (2.0 * n as f64);
            (p.a2a_base_bounce_us, curve.min(root_cap))
        };
        Nanos::from_micros_f64(base_us) + Self::bulk(per_gpu_bytes, bw)
    }

    /// The effective all_to_all bandwidth in GB/s for a given per-GPU
    /// transfer size — the quantity plotted in Fig 3b.
    pub fn all_to_all_bandwidth_gbps(&self, per_gpu_bytes: u64) -> f64 {
        let t = self.all_to_all(per_gpu_bytes);
        if t.is_zero() {
            return f64::INFINITY;
        }
        per_gpu_bytes as f64 / 1e9 / t.as_secs_f64()
    }

    fn a2a_eff_gbps(&self, bytes: u64, peak: f64, half: f64) -> f64 {
        let s = bytes as f64;
        peak * s / (s + half)
    }

    /// Time for a GPU to read `rows` random embedding rows of `row_bytes`
    /// each from host memory through `path`, while `concurrent` GPUs do the
    /// same (root-complex contention applies to bulk transfer components).
    pub fn host_read(&self, path: HostPath, rows: u64, row_bytes: u64, concurrent: usize) -> Nanos {
        let p = &self.params;
        let bytes = rows * row_bytes;
        match path {
            HostPath::CpuInvolved => {
                // dispatch + CPU gathers rows into a staging buffer + DMA.
                let gather = Nanos::from_secs_f64(rows as f64 * p.cpu_row_ns * 1e-9);
                let dma = Self::bulk(bytes, self.contended_gbps(p.dma_gbps, concurrent));
                Nanos::from_micros_f64(p.cpu_dispatch_us) + gather + dma
            }
            HostPath::Uva => {
                let bw = self.contended_gbps(p.uva_gather_gbps, concurrent);
                Nanos::from_micros_f64(p.uva_base_us) + Self::bulk(bytes, bw)
            }
            HostPath::Uvm => {
                // Each random row faults its own page: rows × (fault + page
                // transfer). Paper Exp #1: "two orders of magnitude slower".
                let page = Nanos::from_micros_f64(p.uvm_page_fault_us)
                    + Self::bulk(
                        p.uvm_page_bytes as u64,
                        self.contended_gbps(p.dma_gbps, concurrent),
                    );
                page * rows
            }
        }
    }

    /// Time to write `rows` updated rows back to host memory through `path`.
    /// Writes mirror reads: the CPU-involved path stages and DMAs out, UVA
    /// stores go straight to DRAM, UVM dirties pages that must migrate back.
    pub fn host_write(
        &self,
        path: HostPath,
        rows: u64,
        row_bytes: u64,
        concurrent: usize,
    ) -> Nanos {
        // Symmetric with reads in this model; the real asymmetries (write
        // combining, page dirtying) are second-order for the paper's story.
        self.host_read(path, rows, row_bytes, concurrent)
    }

    /// Time for a GPU-cache kernel that queries `rows` keys.
    pub fn cache_query(&self, rows: u64) -> Nanos {
        let p = &self.params;
        Nanos::from_micros_f64(p.cache_base_us)
            + Nanos::from_secs_f64(rows as f64 * p.cache_query_row_ns * 1e-9)
    }

    /// Time for a GPU-cache kernel that inserts/updates `rows` keys.
    pub fn cache_update(&self, rows: u64) -> Nanos {
        let p = &self.params;
        Nanos::from_micros_f64(p.cache_base_us)
            + Nanos::from_secs_f64(rows as f64 * p.cache_update_row_ns * 1e-9)
    }

    /// Per-iteration framework software time of a no-cache (PyTorch-style)
    /// engine that touched `total_rows` unique rows across all GPUs. The
    /// row work runs on the shared CPU service pool, which is what makes
    /// cache-less systems stop scaling past a few GPUs (Exp #8).
    pub fn framework_nocache(&self, total_rows: u64) -> Nanos {
        let p = &self.params;
        Nanos::from_micros_f64(p.fw_fixed_nocache_us)
            + Nanos::from_secs_f64(
                total_rows as f64 * p.fw_row_nocache_ns * 1e-9 / p.cpu_service_threads,
            )
    }

    /// Per-iteration framework software time of a cached (HugeCTR-style)
    /// engine that routed `total_rows` unique rows (bucketing + reorder).
    pub fn framework_cached(&self, total_rows: u64) -> Nanos {
        let p = &self.params;
        let (fixed_us, row_ns) = if self.topo.supports_p2p() {
            (p.fw_fixed_cached_p2p_us, p.fw_row_cached_p2p_ns)
        } else {
            (p.fw_fixed_cached_us, p.fw_row_cached_ns)
        };
        Nanos::from_micros_f64(fixed_us)
            + Nanos::from_secs_f64(total_rows as f64 * row_ns * 1e-9 / p.cpu_service_threads)
    }

    /// Reference-machine cost of registering one g-entry update whose
    /// gradient is `row_bytes` wide through an O(1) queue, in nanoseconds.
    fn gentry_op_reference_ns(&self, row_bytes: u64) -> f64 {
        self.params.gentry_base_ns + self.params.gentry_byte_ns * row_bytes as f64
    }

    /// Modeled time of one step's g-entry registration (the Exp #4a
    /// quantity), priced from operation counts: `member_rows` holds the
    /// rows each cohort member registers this step. Members register their
    /// own shards in parallel, so the slowest member sets the time; a
    /// [`PqCost::Serialized`] queue takes every member's rows one after
    /// another and pays a heap sift per row on top.
    pub fn gentry_registration(
        &self,
        member_rows: impl IntoIterator<Item = u64>,
        row_bytes: u64,
        pq: PqCost,
    ) -> Nanos {
        let (max, sum) = member_rows
            .into_iter()
            .fold((0u64, 0u64), |(max, sum), r| (max.max(r), sum + r));
        let rows = match pq {
            PqCost::Concurrent => max,
            PqCost::Serialized { .. } => sum,
        };
        let row_ns = self.gentry_op_reference_ns(row_bytes) + pq.sift_ns();
        Nanos::from_secs_f64(rows as f64 * row_ns * 1e-9)
    }

    /// Modeled stall of the wait condition: the flushing threads must push
    /// `blocking_rows` rows of `row_bytes` each to host memory before the
    /// next step may start (paper §3.3 / Fig 6). Each row costs a dequeue
    /// and a host apply, spread over `flush_threads`; under a
    /// [`PqCost::Serialized`] queue the dequeues (each an O(log capacity)
    /// sift) do not parallelize — only the applies do. `flush_threads` is
    /// the configured count, not the host's parallelism, so the result is
    /// the same on every machine; core competition is
    /// [`Self::cpu_oversubscription`]'s job, and clamping the divisor by
    /// the modeled core count as well would count that pressure twice.
    pub fn flush_stall(
        &self,
        blocking_rows: u64,
        row_bytes: u64,
        flush_threads: usize,
        pq: PqCost,
    ) -> Nanos {
        let threads = flush_threads.max(1) as f64;
        let dequeue_ns = FLUSH_DEQUEUE_ROW_NS + pq.sift_ns();
        let apply_ns = FLUSH_APPLY_ROW_NS + FLUSH_APPLY_BYTE_NS * row_bytes as f64;
        let row_ns = match pq {
            PqCost::Concurrent => (dequeue_ns + apply_ns) / threads,
            PqCost::Serialized { .. } => dequeue_ns + apply_ns / threads,
        };
        Nanos::from_secs_f64(blocking_rows as f64 * row_ns * 1e-9)
    }

    /// How far `threads` runnable CPU threads (trainers, flushers,
    /// controller) oversubscribe the modeled host's cores, as a factor
    /// ≥ 1 on CPU-side critical-path time — the "too many flushing threads
    /// divert CPU" effect of Fig 17. A modeling assumption derived from the
    /// configuration alone, not a measurement.
    pub fn cpu_oversubscription(&self, threads: usize) -> f64 {
        (threads as f64 / self.topo.host().cpu_cores.max(1) as f64).max(1.0)
    }

    /// Per-iteration fixed overhead of Frugal's runtime (its per-row work —
    /// g-entry registration — is priced by [`Self::gentry_registration`]).
    pub fn framework_frugal(&self) -> Nanos {
        Nanos::from_micros_f64(self.params.fw_fixed_frugal_us)
    }

    /// Stall of a synchronous write-through flush of `total_rows` updates
    /// from `n_gpus` GPUs: per-GPU dispatch plus latency-bound serialized
    /// row writes (no background overlap — that is Frugal-Sync's defect).
    pub fn sync_flush(&self, total_rows: u64, n_gpus: usize) -> Nanos {
        let p = &self.params;
        Nanos::from_micros_f64(p.cpu_dispatch_us * n_gpus as f64)
            + Nanos::from_secs_f64(total_rows as f64 * p.sync_flush_row_ns * 1e-9)
    }

    /// Time for the coordinated multi-GPU cache update of `total_rows` rows
    /// per step: every owner's cached copy must receive the other GPUs'
    /// gradient contributions. Direct peer writes with P2P; CPU-bounced
    /// without — the dominant cost of HugeCTR's cache on commodity GPUs.
    pub fn cache_coordinated_update(&self, total_rows: u64) -> Nanos {
        let p = &self.params;
        let per_row = if self.topo.supports_p2p() {
            p.cache_coord_row_p2p_ns
        } else {
            p.cache_coord_row_bounce_ns
        };
        Nanos::from_micros_f64(p.cache_base_us)
            + Nanos::from_secs_f64(total_rows as f64 * per_row * 1e-9 / p.cpu_service_threads)
    }

    /// Forward+backward time of a dense DNN costing `flops` floating-point
    /// operations across `layers` layers, on this topology's GPU.
    pub fn dnn_time(&self, flops: f64, layers: u32) -> Nanos {
        let p = &self.params;
        let gpu = self.topo.gpu_spec();
        let eff = gpu.fp32_tflops * 1e12 * p.dnn_utilization;
        Nanos::from_secs_f64(flops / eff)
            + Nanos::from_micros_f64(p.dnn_layer_launch_us * layers as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commodity4() -> CostModel {
        CostModel::new(Topology::commodity(4))
    }

    fn datacenter4() -> CostModel {
        CostModel::new(Topology::datacenter(4))
    }

    #[test]
    fn fig3b_bandwidth_gap() {
        // Commodity all_to_all lands at ~54 % of datacenter at large sizes
        // (paper: "the all_to_all communication bandwidth on commodity GPUs
        // is only 54 % of that on datacenter GPUs").
        let s = 100u64 << 20;
        let c = commodity4().all_to_all_bandwidth_gbps(s);
        let d = datacenter4().all_to_all_bandwidth_gbps(s);
        let ratio = c / d;
        assert!((0.48..0.62).contains(&ratio), "ratio {ratio}");
        // Absolute magnitudes in the single-digit GB/s regime of Fig 3b.
        assert!((1.5..4.0).contains(&c), "commodity {c}");
        assert!((3.0..5.0).contains(&d), "datacenter {d}");
    }

    #[test]
    fn fig3b_bandwidth_rises_with_size() {
        let m = commodity4();
        let small = m.all_to_all_bandwidth_gbps(1 << 20);
        let large = m.all_to_all_bandwidth_gbps(100 << 20);
        assert!(large > 2.0 * small, "small {small} large {large}");
    }

    #[test]
    fn fig10_uva_vs_cpu_ratio() {
        // Paper Fig 10: "UVA-enabled access lowers the host memory access
        // latency by 3.1-3.4x" across batch sizes 128..2048, dim 32.
        let m = commodity4();
        for batch in [128u64, 512, 1024, 1536, 2048] {
            let cpu = m.host_read(HostPath::CpuInvolved, batch, 128, 1);
            let uva = m.host_read(HostPath::Uva, batch, 128, 1);
            let ratio = cpu.as_secs_f64() / uva.as_secs_f64();
            assert!((2.8..3.8).contains(&ratio), "batch {batch}: ratio {ratio}");
        }
    }

    #[test]
    fn fig10_absolute_magnitudes() {
        // Fig 10's y-axis tops out around 250 µs at batch 2048.
        let m = commodity4();
        let cpu = m.host_read(HostPath::CpuInvolved, 2048, 128, 1);
        assert!((150.0..350.0).contains(&cpu.as_micros_f64()), "cpu {}", cpu);
    }

    #[test]
    fn uvm_is_two_orders_slower_than_uva() {
        // Exp #1: PyTorch-UVM is "two orders of magnitude slower" because a
        // 4 KiB page moves per ~512 B embedding.
        let m = commodity4();
        let uva = m.host_read(HostPath::Uva, 2048, 128, 1);
        let uvm = m.host_read(HostPath::Uvm, 2048, 128, 1);
        let ratio = uvm.as_secs_f64() / uva.as_secs_f64();
        assert!(ratio > 100.0, "ratio {ratio}");
    }

    #[test]
    fn root_complex_contention_caps_bandwidth() {
        let m = CostModel::new(Topology::commodity(8));
        let alone = m.host_read(HostPath::CpuInvolved, 100_000, 128, 1);
        let crowded = m.host_read(HostPath::CpuInvolved, 100_000, 128, 8);
        assert!(crowded > alone);
        // With 8 concurrent streams the DMA leg is root-limited: 72/8 = 9 GB/s.
        let got = m.contended_gbps(26.0, 8);
        assert!((got - 9.0).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn single_gpu_all_to_all_is_free() {
        let m = CostModel::new(Topology::commodity(1));
        assert_eq!(m.all_to_all(1 << 20), Nanos::ZERO);
        assert!(m.all_to_all_bandwidth_gbps(1 << 20).is_infinite());
    }

    #[test]
    fn cache_update_costlier_than_query() {
        let m = commodity4();
        assert!(m.cache_update(50_000) > m.cache_query(50_000));
    }

    #[test]
    fn dnn_scales_with_flops_and_hardware() {
        let c = commodity4();
        let d = datacenter4();
        let f = 1e10;
        assert!(c.dnn_time(2.0 * f, 4) > c.dnn_time(f, 4));
        // RTX 3090 has higher FP32 TFLOPS than A30, so it computes faster.
        assert!(c.dnn_time(f, 4) < d.dnn_time(f, 4));
    }

    #[test]
    fn write_mirrors_read() {
        let m = commodity4();
        assert_eq!(
            m.host_write(HostPath::Uva, 512, 128, 2),
            m.host_read(HostPath::Uva, 512, 128, 2)
        );
    }

    #[test]
    fn registration_is_the_slowest_member_unless_the_queue_serializes() {
        let m = commodity4();
        // 138.4 ns per dim-32 row (100 + 0.3 × 128) on the slowest member.
        let par = m.gentry_registration([100, 400, 250], 128, PqCost::Concurrent);
        assert_eq!(par, Nanos::from_nanos(55_360));
        // A serializing heap takes all 750 rows in turn, each with a
        // ⌈log₂ 1M⌉ = 20-level sift on top: 750 × (138.4 + 25 × 20).
        let ser = m.gentry_registration(
            [100, 400, 250],
            128,
            PqCost::Serialized {
                capacity: 1_000_000,
            },
        );
        assert_eq!(ser, Nanos::from_nanos(478_800));
        assert_eq!(
            m.gentry_registration([], 128, PqCost::Concurrent),
            Nanos::ZERO
        );
    }

    #[test]
    fn flush_stall_divides_by_the_configured_threads() {
        // The model must price the flushers that run, whatever the modeled
        // core count: a clamp to `cores − n_gpus − 1` once priced 4 real
        // flushers as 1 at 8 GPUs on 8 cores and quadrupled the stall.
        let host = crate::HostSpec {
            cpu_cores: 8,
            ..crate::HostSpec::default()
        };
        let m = CostModel::new(Topology::commodity(8).with_host(host));
        let one = m.flush_stall(1_000, 128, 1, PqCost::Concurrent);
        let four = m.flush_stall(1_000, 128, 4, PqCost::Concurrent);
        // 1000 × (60 + 30 + 0.1 × 128) ns on one thread.
        assert_eq!(one, Nanos::from_nanos(102_800));
        assert_eq!(four, Nanos::from_nanos(25_700));
        // Degenerate zero-flusher configs still divide by 1.
        assert_eq!(m.flush_stall(1_000, 128, 0, PqCost::Concurrent), one);
        assert_eq!(m.flush_stall(0, 128, 4, PqCost::Concurrent), Nanos::ZERO);
    }

    #[test]
    fn serialized_dequeues_do_not_parallelize() {
        let m = commodity4();
        let heap = PqCost::Serialized { capacity: 1 << 16 };
        // Only the apply share shrinks with threads: the dequeue share,
        // 60 + 25 × 16 ns per row, stays.
        let one = m.flush_stall(100, 128, 1, heap);
        let many = m.flush_stall(100, 128, 1_000, heap);
        assert_eq!(one, Nanos::from_nanos(50_280));
        assert_eq!(many, Nanos::from_nanos(46_004));
        assert!(one > m.flush_stall(100, 128, 1, PqCost::Concurrent));
    }

    #[test]
    fn oversubscription_starts_past_the_core_count() {
        let m = commodity4(); // 32 modeled cores
        assert_eq!(m.cpu_oversubscription(14), 1.0);
        assert_eq!(m.cpu_oversubscription(32), 1.0);
        assert_eq!(m.cpu_oversubscription(48), 1.5);
    }
}
