//! Wrappers the benchmark puts around the program's public layer
//! interfaces. They observe from outside: nothing here changes what the
//! wrapped layer does, except [`Medium`]'s failure switch, which is how
//! the `large_degraded` workload loses a disk.

use dcode_array::{ArrayError, ElementIo};
use dcode_faults::{DiskBackend, DiskError, MemBackend};
use std::cell::RefCell;
use std::ops::{Add, Sub};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Block operations and the time spent in them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCount {
    pub reads: u64,
    pub writes: u64,
    pub flushes: u64,
    pub busy_ns: u64,
}

impl Add for IoCount {
    type Output = IoCount;
    fn add(self, o: IoCount) -> IoCount {
        IoCount {
            reads: self.reads + o.reads,
            writes: self.writes + o.writes,
            flushes: self.flushes + o.flushes,
            busy_ns: self.busy_ns + o.busy_ns,
        }
    }
}

impl Sub for IoCount {
    type Output = IoCount;
    fn sub(self, o: IoCount) -> IoCount {
        IoCount {
            reads: self.reads - o.reads,
            writes: self.writes - o.writes,
            flushes: self.flushes - o.flushes,
            busy_ns: self.busy_ns - o.busy_ns,
        }
    }
}

/// Counters a [`Counted`] backend bumps; shared so the benchmark can read
/// them while a shard worker thread owns the backend. Relaxed atomics:
/// they are statistics and publish no other data.
#[derive(Default)]
pub struct IoCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
    busy_ns: AtomicU64,
}

impl IoCounters {
    pub fn get(&self) -> IoCount {
        IoCount {
            reads: self.reads.load(Relaxed),
            writes: self.writes.load(Relaxed),
            flushes: self.flushes.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
        }
    }
}

/// A [`DiskBackend`] that counts and times every block operation.
pub struct Counted<B> {
    inner: B,
    counters: Arc<IoCounters>,
}

impl<B> Counted<B> {
    pub fn new(inner: B, counters: Arc<IoCounters>) -> Self {
        Counted { inner, counters }
    }
}

impl<B: DiskBackend> Counted<B> {
    fn timed<T>(&mut self, count: &AtomicU64, f: impl FnOnce(&mut B) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.counters.busy_ns.fetch_add(nanos(t0), Relaxed);
        count.fetch_add(1, Relaxed);
        out
    }
}

impl<B: DiskBackend> DiskBackend for Counted<B> {
    fn disks(&self) -> usize {
        self.inner.disks()
    }
    fn blocks(&self) -> usize {
        self.inner.blocks()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn read_block(&mut self, disk: usize, block: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        let counters = Arc::clone(&self.counters);
        self.timed(&counters.reads, |b| b.read_block(disk, block, buf))
    }
    fn write_block(&mut self, disk: usize, block: usize, data: &[u8]) -> Result<(), DiskError> {
        let counters = Arc::clone(&self.counters);
        self.timed(&counters.writes, |b| b.write_block(disk, block, data))
    }
    fn flush(&mut self, disk: usize) -> Result<(), DiskError> {
        let counters = Arc::clone(&self.counters);
        self.timed(&counters.flushes, |b| b.flush(disk))
    }
}

/// A shard's in-memory medium with two workload hooks: once `fail` is
/// set, every operation on disk `fail_disk` returns
/// [`DiskError::Failed`]; and when the server drops the backend at
/// shutdown, the medium is sent back over `back` so the benchmark can
/// rebuild and verify the shard's real content afterwards.
pub struct Medium {
    mem: Option<MemBackend>,
    shard: usize,
    fail_disk: usize,
    fail: Arc<AtomicBool>,
    back: Option<mpsc::Sender<(usize, MemBackend)>>,
}

impl Medium {
    pub fn new(
        mem: MemBackend,
        shard: usize,
        fail_disk: usize,
        fail: Arc<AtomicBool>,
        back: Option<mpsc::Sender<(usize, MemBackend)>>,
    ) -> Self {
        Medium {
            mem: Some(mem),
            shard,
            fail_disk,
            fail,
            back,
        }
    }

    fn mem(&mut self, disk: usize) -> Result<&mut MemBackend, DiskError> {
        if disk == self.fail_disk && self.fail.load(Relaxed) {
            return Err(DiskError::Failed { disk });
        }
        Ok(self.mem.as_mut().expect("medium is only taken on drop"))
    }

    fn mem_ref(&self) -> &MemBackend {
        self.mem.as_ref().expect("medium is only taken on drop")
    }
}

impl Drop for Medium {
    fn drop(&mut self) {
        if let (Some(mem), Some(back)) = (self.mem.take(), self.back.take()) {
            // The receiver is gone only when the benchmark already failed.
            let _ = back.send((self.shard, mem));
        }
    }
}

impl DiskBackend for Medium {
    fn disks(&self) -> usize {
        self.mem_ref().disks()
    }
    fn blocks(&self) -> usize {
        self.mem_ref().blocks()
    }
    fn block_size(&self) -> usize {
        self.mem_ref().block_size()
    }
    fn read_block(&mut self, disk: usize, block: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        self.mem(disk)?.read_block(disk, block, buf)
    }
    fn write_block(&mut self, disk: usize, block: usize, data: &[u8]) -> Result<(), DiskError> {
        self.mem(disk)?.write_block(disk, block, data)
    }
    fn flush(&mut self, disk: usize) -> Result<(), DiskError> {
        self.mem(disk)?.flush(disk)
    }
}

/// Layer a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `ObjectStore::upsert` / `ObjectStore::get`.
    ObjStore,
    /// `ElementIo::read_elements` / `ElementIo::write_elements` on the
    /// resilient array.
    Array,
}

/// One timed call. Spans of one request share `req`; an array span's
/// parent is the object-store span with the same `req`. `io` is the block
/// work the backend did inside the span, so the backend's share of a span
/// is `io.busy_ns`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub req: u32,
    pub layer: Layer,
    pub write: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub io: IoCount,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log, written out when the run ends.
pub struct Spans {
    origin: Instant,
    pub req: u32,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Rc<RefCell<Spans>> {
        Rc::new(RefCell::new(Spans {
            origin: Instant::now(),
            req: 0,
            spans: Vec::new(),
        }))
    }

    pub fn now_ns(&self) -> u64 {
        nanos(self.origin)
    }
}

/// An [`ElementIo`] that records one [`Layer::Array`] span per call, with
/// the backend work done inside it.
pub struct TimedIo<D> {
    inner: D,
    spans: Rc<RefCell<Spans>>,
    io: Arc<IoCounters>,
}

impl<D> TimedIo<D> {
    pub fn new(inner: D, spans: Rc<RefCell<Spans>>, io: Arc<IoCounters>) -> Self {
        TimedIo { inner, spans, io }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    fn span<T>(&mut self, write: bool, f: impl FnOnce(&mut D) -> T) -> T {
        let (start_ns, io0) = (self.spans.borrow().now_ns(), self.io.get());
        let out = f(&mut self.inner);
        let mut spans = self.spans.borrow_mut();
        let span = Span {
            req: spans.req,
            layer: Layer::Array,
            write,
            start_ns,
            end_ns: spans.now_ns(),
            io: self.io.get() - io0,
        };
        spans.spans.push(span);
        out
    }
}

impl<D: ElementIo> ElementIo for TimedIo<D> {
    fn capacity_elements(&self) -> usize {
        self.inner.capacity_elements()
    }
    fn element_size(&self) -> usize {
        self.inner.element_size()
    }
    fn read_elements(&mut self, start: usize, count: usize) -> Result<Vec<u8>, ArrayError> {
        self.span(false, |d| d.read_elements(start, count))
    }
    fn write_elements(&mut self, start: usize, bytes: &[u8]) -> Result<(), ArrayError> {
        self.span(true, |d| d.write_elements(start, bytes))
    }
}

#[allow(clippy::cast_possible_truncation)]
pub fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}
