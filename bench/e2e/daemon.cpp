#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "serve/client.hpp"

extern char** environ;

namespace rsnn::e2e {
namespace {

constexpr const char* kListening = "listening on 127.0.0.1:";

}  // namespace

Daemon::~Daemon() {
  if (running()) kill_and_reap();
  if (reader_.joinable()) reader_.join();
}

std::string Daemon::start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& log_path) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0)
    return std::string("pipe: ") + std::strerror(errno);

  std::vector<std::string> argv_text = {binary, "--port", "0"};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_text) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    pid_ = -1;
    return "cannot spawn " + binary + ": " + std::strerror(rc);
  }
  reader_ = std::thread([this, fd = pipe_fds[0]] { drain_stdout(fd); });

  // The daemon prints its bound port once it listens, after every preload
  // has compiled; stdout closing first means it died.
  std::unique_lock<std::mutex> lock(mutex_);
  const bool ready = output_cv_.wait_for(lock, std::chrono::seconds(120), [&] {
    return output_closed_ || output_.find(kListening) != std::string::npos;
  });
  const std::size_t at = output_.find(kListening);
  if (!ready || at == std::string::npos) {
    lock.unlock();
    kill_and_reap();
    return "rsnn_serve did not start (see " + log_path + ")";
  }
  port_ = std::atoi(output_.c_str() + at + std::strlen(kListening));
  return {};
}

void Daemon::drain_stdout(int fd) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    const std::lock_guard<std::mutex> lock(mutex_);
    output_.append(buf, static_cast<std::size_t>(n));
    output_cv_.notify_all();
  }
  ::close(fd);
  const std::lock_guard<std::mutex> lock(mutex_);
  output_closed_ = true;
  output_cv_.notify_all();
}

double Daemon::peak_rss_mib() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
  return 0.0;
}

bool Daemon::reap(double timeout_s, int* status) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    const pid_t done = ::waitpid(pid_, status, WNOHANG);
    if (done == pid_ || (done < 0 && errno != EINTR)) {
      pid_ = -1;
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Daemon::kill_and_reap() {
  ::kill(pid_, SIGKILL);
  int status = 0;
  reap(60.0, &status);
  if (reader_.joinable()) reader_.join();
}

std::string Daemon::stop(double timeout_s) {
  if (!running()) return "rsnn_serve is not running";
  serve::Client client;
  std::string error = client.connect_loopback(port_);
  if (error.empty()) {
    serve::ShutdownReply reply;
    error = client.shutdown_server(/*drain=*/true, &reply);
  }
  client.close();
  int status = 0;
  if (!reap(timeout_s, &status)) {
    kill_and_reap();
    return "rsnn_serve ignored shutdown; killed";
  }
  if (reader_.joinable()) reader_.join();
  if (!error.empty()) return "shutdown: " + error;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    return "rsnn_serve exited abnormally";
  return {};
}

}  // namespace rsnn::e2e
