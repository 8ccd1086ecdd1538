#include "core/io_env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

// The one file where raw I/O syscalls are legal (the `naked-io-syscall`
// lint pins the whole durability protocol onto this seam; see
// docs/STATIC_ANALYSIS.md).

namespace bikegraph {

IoEnv::~IoEnv() = default;

int IoEnv::Open(const char* path, int flags, unsigned int mode) {
  return ::open(path, flags, static_cast<mode_t>(mode));
}

int64_t IoEnv::Write(int fd, const void* data, size_t size) {
  return static_cast<int64_t>(::write(fd, data, size));
}

int IoEnv::Fsync(int fd) { return ::fsync(fd); }

int IoEnv::Rename(const char* from, const char* to) {
  return ::rename(from, to);
}

int IoEnv::Unlink(const char* path) { return ::unlink(path); }

int IoEnv::FsyncDir(const char* path) {
  const int fd = ::open(path, O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return -1;
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  errno = saved_errno;
  return rc;
}

int IoEnv::Truncate(int fd, int64_t size) {
  return ::ftruncate(fd, static_cast<off_t>(size));
}

int IoEnv::Close(int fd) { return ::close(fd); }

void IoEnv::SleepMs(int64_t ms) {
  if (ms <= 0) {
    return;
  }
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
  // lint: thread-ok: nanosleep is the backoff clock, not synchronization.
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

IoEnv* IoEnv::Default() {
  static IoEnv env;
  return &env;
}

}  // namespace bikegraph
