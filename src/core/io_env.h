#pragma once

#include <cstddef>
#include <cstdint>

namespace bikegraph {

/// \brief The syscall seam under the durability protocol. Every raw
/// `::open/::write/::fsync/::rename/::unlink` the WAL writer, checkpoint
/// commit, and WAL repair perform goes through one of these virtual
/// methods (enforced by the `naked-io-syscall` lint), so tests can
/// substitute the FaultInjectingIoEnv of tests/support/fault_io_env.h and
/// exercise ENOSPC, EINTR storms, short writes, torn renames, and lying
/// fsyncs deterministically.
///
/// The base class *is* the production implementation: a zero-cost
/// passthrough to the POSIX calls (one predictable virtual dispatch per
/// I/O operation — invisible next to the syscall itself; the bench guard
/// in BENCH_perf.json holds WAL-on ingest within 1.15× of the pre-seam
/// numbers). All methods follow POSIX conventions: -1 with `errno` set on
/// failure, except Write which returns the byte count (possibly short).
///
/// Thread model: the engine serializes all durable I/O on the ingestion
/// thread; IoEnv implementations are not required to be thread-safe.
class IoEnv {
 public:
  virtual ~IoEnv();

  /// `::open(path, flags, mode)`.
  virtual int Open(const char* path, int flags, unsigned int mode);
  /// `::write(fd, data, size)`; short writes are legal per POSIX and the
  /// callers loop.
  virtual int64_t Write(int fd, const void* data, size_t size);
  /// `::fsync(fd)`.
  virtual int Fsync(int fd);
  /// `::rename(from, to)`.
  virtual int Rename(const char* from, const char* to);
  /// `::unlink(path)`.
  virtual int Unlink(const char* path);
  /// Opens `path` as a directory and fsyncs it (the rename/create
  /// metadata barrier of the commit protocols in docs/DURABILITY.md).
  virtual int FsyncDir(const char* path);
  /// `::ftruncate(fd, size)` (WAL torn-tail repair).
  virtual int Truncate(int fd, int64_t size);
  /// `::close(fd)`.
  virtual int Close(int fd);

  /// Blocks for `ms` milliseconds — the retry-backoff clock (see
  /// DurabilityConfig::faults). Virtual so tests can inject a clock that
  /// records instead of sleeping; production nanosleeps.
  virtual void SleepMs(int64_t ms);

  /// The process-wide production environment (the passthrough above).
  static IoEnv* Default();
};

}  // namespace bikegraph
