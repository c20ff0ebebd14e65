// One rsnn_serve child process on a kernel-assigned loopback port. The
// destructor kills and reaps a daemon that was not stopped, so no run leaves
// a process behind.
#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rsnn::e2e {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawn `binary --port 0 args...` and block until it listens. The
  /// daemon's stderr goes to `log_path`. Diagnostic, "" on success.
  std::string start(const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::string& log_path);

  int port() const { return port_; }
  bool running() const { return pid_ > 0; }

  /// Peak resident set (VmHWM) in MiB; 0 when unreadable.
  double peak_rss_mib() const;

  /// Ask for a draining shutdown over the wire and reap the process; kill it
  /// if it has not exited within `timeout_s`. Diagnostic, "" on a clean exit.
  std::string stop(double timeout_s = 20.0);

 private:
  void drain_stdout(int fd);
  /// Wait up to `timeout_s` for the child to exit; true when reaped.
  bool reap(double timeout_s, int* status);
  void kill_and_reap();

  pid_t pid_ = -1;
  int port_ = 0;
  std::mutex mutex_;
  std::condition_variable output_cv_;
  std::string output_;  ///< daemon stdout so far, guarded by mutex_
  bool output_closed_ = false;
  std::thread reader_;  ///< drains the stdout pipe until the child exits
};

}  // namespace rsnn::e2e
