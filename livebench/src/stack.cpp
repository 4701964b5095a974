#include "stack.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/http.hpp"
#include "timing.hpp"

namespace livebench {
namespace {

// Signal-safe child table: the handler may only kill() and waitpid().
constexpr int kMaxChildren = 64;
std::atomic<pid_t> g_children[kMaxChildren];

void track(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
  throw std::runtime_error("too many child processes");
}

void untrack(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void reap_all_on_signal(int sig) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::waitpid(pid, nullptr, 0);
  }
  ::_exit(128 + sig);
}

/// waitpid with a deadline; true once reaped (or already gone).
bool reap(pid_t pid, double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  do {
    const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
    if (r == pid || (r == -1 && errno == ECHILD)) {
      untrack(pid);
      return true;
    }
    ::usleep(1000);
  } while (now_ns() < deadline);
  return false;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

void install_signal_reaper() {
  struct sigaction sa {};
  sa.sa_handler = reap_all_on_signal;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &sa, nullptr);
}

ProcUsage read_usage(pid_t pid) {
  ProcUsage u;
  const std::string base = "/proc/" + std::to_string(pid);
  // CPU: the per-thread run time in ns from task/*/schedstat. The utime +
  // stime of /proc/<pid>/stat count whole 10 ms ticks, too coarse for a
  // few-second phase; the schedstat sum is the same quantity at ns
  // resolution (threads of these processes live as long as the process).
  if (DIR* dir = ::opendir((base + "/task").c_str())) {
    while (const dirent* e = ::readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      std::istringstream in(
          slurp(base + "/task/" + e->d_name + "/schedstat"));
      double run_ns = 0;
      if (in >> run_ns) u.cpu_s += run_ns / 1e9;
    }
    ::closedir(dir);
  }
  std::istringstream status(slurp(base + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      u.hwm_mb = std::stod(line.substr(6)) / 1024.0;
    }
  }
  return u;
}

std::string admin_get(const janus::net::SockAddr& admin,
                      const std::string& path, int* status) {
  janus::net::HttpClient client(admin, janus::millis(2000));
  auto resp = client.get(path);
  if (!resp.ok()) {
    throw std::runtime_error("GET " + admin.to_string() + path + ": " +
                             resp.error().message);
  }
  if (status) *status = resp.value().status;
  return resp.value().body;
}

Supervisor::Supervisor(std::string janusd, std::string workdir)
    : janusd_(std::move(janusd)), workdir_(std::move(workdir)) {
  procs_.reserve(kMaxChildren);
}

Supervisor::~Supervisor() { stop_all(); }

Proc& Supervisor::launch(const std::string& name, const std::string& role,
                         std::vector<std::string> args) {
  if (procs_.size() == procs_.capacity()) {
    throw std::runtime_error("too many janusd processes");
  }
  Proc p;
  p.name = name;
  p.role = role;
  p.log_path = workdir_ + "/" + name + ".log";
  std::remove(p.log_path.c_str());
  args.insert(args.begin(), {janusd_, role});
  args.insert(args.end(), {"--admin", "127.0.0.1:0"});
  p.args = args;

  const pid_t parent = ::getpid();
  p.launched_ns = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // parent already gone
    const int fd = ::open(p.log_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC,
                          0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::perror("execv janusd");
    ::_exit(127);
  }
  p.pid = pid;
  track(pid);
  procs_.push_back(std::move(p));
  return procs_.back();
}

void Supervisor::await(Proc& proc) {
  auto has = [&](const char* flag) {
    for (const auto& a : proc.args) {
      if (a == flag) return true;
    }
    return false;
  };
  if (proc.role == "server") {
    proc.addr = wait_banner(proc, "QoS server on ", 60);
    if (has("--cluster-listen")) {
      proc.cluster = wait_banner(proc, "cluster agent on ", 10);
    }
    if (has("--bfd-listen")) {
      proc.bfd = wait_banner(proc, "bfd responder on ", 10);
    }
    if (has("--ha-listen")) {
      proc.ha = wait_banner(proc, "ha snapshot server on ", 10);
    }
  } else if (proc.role == "router") {
    proc.addr = wait_banner(proc, "request router on ", 10);
  } else {
    proc.addr = wait_banner(proc, "gateway balancer on ", 10);
  }
  proc.admin = wait_banner(proc, "admin endpoint on ", 10);
}

janus::net::SockAddr Supervisor::wait_banner(Proc& p,
                                             const std::string& marker,
                                             double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (now_ns() < deadline) {
    const std::string log = slurp(p.log_path);
    const auto pos = log.find(marker);
    if (pos != std::string::npos) {
      const std::size_t start = pos + marker.size();
      std::size_t end = start;
      while (end < log.size() && log[end] != ' ' && log[end] != '\n') ++end;
      auto addr = janus::net::SockAddr::parse(log.substr(start, end - start));
      if (addr.ok()) return addr.value();
    }
    if (::waitpid(p.pid, nullptr, WNOHANG) == p.pid) {
      untrack(p.pid);
      p.pid = -1;
      throw std::runtime_error(p.name + " exited during start-up:\n" + log);
    }
    ::usleep(2000);
  }
  throw std::runtime_error(p.name + ": banner '" + marker +
                           "' never appeared in " + p.log_path);
}

void Supervisor::wait_healthy(double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (Proc& p : procs_) {
    if (p.pid <= 0 || p.healthy_ns != 0) continue;
    for (;;) {
      int status = 0;
      try {
        admin_get(p.admin, "/healthz", &status);
      } catch (const std::exception&) {
        status = 0;
      }
      if (status == 200) {
        p.healthy_ns = now_ns();
        break;
      }
      if (now_ns() > deadline) {
        throw std::runtime_error(p.name + ": /healthz never answered 200");
      }
      ::usleep(2000);
    }
  }
}

void Supervisor::sigkill(Proc& p) {
  if (p.pid <= 0) return;
  ::kill(p.pid, SIGKILL);
  if (!reap(p.pid, 5)) throw std::runtime_error(p.name + " survived SIGKILL");
  p.pid = -1;
}

void Supervisor::stop_all() {
  for (Proc& p : procs_) {
    if (p.pid > 0) ::kill(p.pid, SIGTERM);
  }
  for (Proc& p : procs_) {
    if (p.pid <= 0) continue;
    if (!reap(p.pid, 5)) {
      ::kill(p.pid, SIGKILL);
      reap(p.pid, 5);
    }
    p.pid = -1;
  }
}

std::vector<Proc*> Supervisor::by_role(const std::string& role) {
  std::vector<Proc*> out;
  for (Proc& p : procs_) {
    if (p.pid > 0 && (role.empty() || p.role == role)) out.push_back(&p);
  }
  return out;
}

double Supervisor::cpu_s(const std::string& role) {
  double total = 0;
  for (Proc* p : by_role(role)) total += read_usage(p->pid).cpu_s;
  return total;
}

double Supervisor::max_hwm_mb(const std::string& role) {
  double best = 0;
  for (Proc* p : by_role(role)) {
    best = std::max(best, read_usage(p->pid).hwm_mb);
  }
  return best;
}

Scrape Supervisor::scrape(const Proc& p) {
  Scrape out;
  std::istringstream in(admin_get(p.admin, "/metrics"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto brace = line.find('{');
    const auto space = line.rfind(' ');
    if (brace == std::string::npos || space == std::string::npos) continue;
    std::string name = line.substr(0, brace);
    if (name.ends_with("_bucket")) continue;
    if (name.rfind("janus_", 0) == 0) name = name.substr(6);
    out[name] += std::stod(line.substr(space + 1));
  }
  return out;
}

Scrape Supervisor::scrape_role(const std::string& role) {
  Scrape total;
  for (Proc* p : by_role(role)) {
    for (const auto& [k, v] : scrape(*p)) total[k] += v;
  }
  return total;
}

double delta(const Scrape& before, const Scrape& after,
             const std::string& name) {
  auto get = [&](const Scrape& s) {
    auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

double delta_prefix(const Scrape& before, const Scrape& after,
                    const std::string& prefix) {
  double total = 0;
  for (const auto& [name, value] : after) {
    (void)value;
    if (name.rfind(prefix, 0) == 0) total += delta(before, after, name);
  }
  return total;
}

}  // namespace livebench
