#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "bench.h"
#include "serve/rpc_server.h"
#include "util/logging.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double ProcessPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

/// CPU seconds of the calling thread.
double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The value of "<key>:" in /proc/<pid>/status, or -1.
long StatusField(pid_t pid, const std::string& key) {
  std::ifstream in("/proc/" + (pid < 0 ? std::string("self")
                                        : std::to_string(pid)) +
                   "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::strtol(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

}  // namespace

int ProcessThreads() { return static_cast<int>(StatusField(-1, "Threads")); }

std::pair<uint64_t, uint64_t> HostStealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  uint64_t total = 0;
  uint64_t steal = 0;
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t v = 0;
    in >> v;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Replica processes
// ---------------------------------------------------------------------------

std::unique_ptr<ReplicaProcess> ReplicaProcess::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    int threads) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) return nullptr;
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    return nullptr;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  // This process's own sockets must not leak into the replica.
  posix_spawn_file_actions_addclosefrom_np(&actions, 3);

  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::string env_threads = "SEQFM_THREADS=" + std::to_string(threads);
  char* envp[] = {env_threads.data(), nullptr};

  auto proc = std::unique_ptr<ReplicaProcess>(new ReplicaProcess());
  const int rc = posix_spawn(&proc->pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), envp);
  posix_spawn_file_actions_destroy(&actions);
  close(in_pipe[0]);
  close(out_pipe[1]);
  proc->stdin_fd_ = in_pipe[1];
  proc->stdout_fd_ = out_pipe[0];
  if (rc != 0) {
    std::fprintf(stderr, "perfbench: cannot start %s: %s\n", binary.c_str(),
                 std::strerror(rc));
    proc->pid_ = -1;
    return nullptr;
  }

  std::string out;
  const double deadline = Now() + 30.0;
  while (out.find('\n') == std::string::npos) {
    const double left = deadline - Now();
    if (left <= 0.0) break;
    pollfd pfd{proc->stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1) <= 0) continue;
    char buf[256];
    const ssize_t n = read(proc->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  unsigned port = 0;
  if (std::sscanf(out.c_str(), "PORT %u", &port) != 1 || port == 0 ||
      port > 65535) {
    std::fprintf(stderr, "perfbench: replica did not report a port\n");
    return nullptr;  // the destructor reaps it
  }
  proc->port_ = static_cast<uint16_t>(port);
  return proc;
}

ReplicaProcess::~ReplicaProcess() {
  if (stdin_fd_ >= 0) close(stdin_fd_);  // EOF: the replica drains and exits
  if (pid_ > 0) {
    int status = 0;
    const double deadline = Now() + 10.0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

double ReplicaProcess::CpuS() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(paren + 2));
  std::string tok;
  double utime = 0.0;
  double stime = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int field = 3; field <= 15 && (fields >> tok); ++field) {
    if (field == 14) utime = std::atof(tok.c_str());
    if (field == 15) stime = std::atof(tok.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ReplicaProcess::PeakRssMb() const {
  return static_cast<double>(StatusField(pid_, "VmHWM")) / 1024.0;
}

int ReplicaProcess::Threads() const {
  return static_cast<int>(StatusField(pid_, "Threads"));
}

// ---------------------------------------------------------------------------
// Traffic and load phases
// ---------------------------------------------------------------------------

std::vector<Request> Traffic::Take(size_t n) {
  std::vector<Request> out(n);
  for (auto& r : out) r = next_request();
  issued.insert(issued.end(), out.begin(), out.end());
  return out;
}

bool SameRanking(const std::vector<ScoredItem>& a,
                 const std::vector<ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

namespace {

/// Deterministic Poisson send offsets (seconds from phase start).
std::vector<double> PoissonSchedule(size_t n, double rate_rps, uint64_t seed) {
  // A Poisson process conditioned on n arrivals in [0, n / rate): sorted
  // uniform times. The offered rate is then exactly the nominal one, so
  // short phases do not inherit the +-1/sqrt(n) spread of a free-running
  // arrival count.
  std::mt19937_64 gen(seed);
  const double span = static_cast<double>(n) / rate_rps;
  std::vector<double> sched(n);
  for (double& t : sched) {
    t = span * static_cast<double>(gen() >> 11) * 0x1.0p-53;
  }
  std::sort(sched.begin(), sched.end());
  return sched;
}

void SleepUntil(double t) {
  const double left = t - Now();
  if (left > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  }
}

}  // namespace

PhaseResult RunRpcPhase(const std::string& name, uint16_t port,
                        const Traffic& traffic,
                        const std::vector<Request>& reqs, double rate_rps,
                        uint64_t seed, std::vector<Answer>* answers) {
  PhaseResult res;
  res.name = name;
  res.offered_rps = rate_rps;
  res.attempted = reqs.size();
  seqfm::serve::RpcClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    res.failed = reqs.size();
    return res;
  }
  // A stalled server fails the phase instead of hanging it.
  timeval tv{30, 0};
  setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  const std::vector<double> sched = PoissonSchedule(reqs.size(), rate_rps, seed);
  std::vector<double> lateness(reqs.size(), 0.0);
  double sender_cpu = 0.0;
  const double cpu0 = ProcessCpuS();
  const double reader_cpu0 = ThreadCpuS();
  const double start = Now();
  std::thread sender([&]() {
    const double cpu_begin = ThreadCpuS();
    seqfm::serve::RpcRequest rpc;
    for (size_t i = 0; i < reqs.size(); ++i) {
      const double due = start + sched[i];
      SleepUntil(due);
      lateness[i] = (Now() - due) * 1e3;
      const SequenceExample& ex = traffic.Context(reqs[i]);
      rpc.id = i;
      rpc.user = ex.user;
      rpc.k = static_cast<uint32_t>(traffic.k);
      rpc.history = ex.history;
      rpc.slate = traffic.Slate(reqs[i]);
      if (!client.Send(rpc).ok()) break;  // the reader counts the shortfall
    }
    sender_cpu = ThreadCpuS() - cpu_begin;
  });

  res.latency_ms.reserve(reqs.size());
  for (size_t got = 0; got < reqs.size(); ++got) {
    seqfm::serve::RpcResponse resp;
    if (!client.ReadResponse(&resp).ok() || resp.id >= reqs.size()) {
      res.failed += reqs.size() - got;
      break;
    }
    res.latency_ms.push_back((Now() - start - sched[resp.id]) * 1e3);
    switch (resp.status) {
      case seqfm::serve::RpcStatus::kOk:
        ++res.ok;
        answers->push_back({reqs[resp.id], std::move(resp.items)});
        break;
      case seqfm::serve::RpcStatus::kOverloaded:
        ++res.shed;
        break;
      case seqfm::serve::RpcStatus::kPartial:
        ++res.partial;
        break;
      default:
        ++res.failed;
    }
  }
  const double reader_cpu = ThreadCpuS() - reader_cpu0;
  if (res.failed != 0) client.Close();  // unblocks a stuck sender
  sender.join();
  res.wall_s = Now() - start;
  res.sut_cpu_s = ProcessCpuS() - cpu0 - sender_cpu - reader_cpu;
  res.lateness_ms = std::move(lateness);
  return res;
}

PhaseResult RunFleetPhase(const std::string& name,
                          seqfm::serve::Coordinator* coordinator,
                          const Traffic& traffic,
                          const std::vector<Request>& reqs, double rate_rps,
                          uint64_t seed, size_t callers,
                          std::vector<Answer>* answers) {
  PhaseResult res;
  res.name = name;
  res.offered_rps = rate_rps;
  res.attempted = reqs.size();
  const std::vector<double> sched = PoissonSchedule(reqs.size(), rate_rps, seed);
  std::vector<double> latency(reqs.size(), 0.0);
  std::vector<double> lateness(reqs.size(), 0.0);
  std::vector<seqfm::serve::CoordinatorResult> results(reqs.size());
  std::vector<char> call_ok(reqs.size(), 0);
  std::atomic<size_t> next{0};
  const double cpu0 = ProcessCpuS();
  const double start = Now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&]() {
      for (size_t i = next++; i < reqs.size(); i = next++) {
        const double due = start + sched[i];
        SleepUntil(due);
        const double begin = Now();
        lateness[i] = (begin - due) * 1e3;
        const SequenceExample& ex = traffic.Context(reqs[i]);
        call_ok[i] = coordinator->TopKAll(ex, traffic.k, &results[i]).ok();
        latency[i] = (Now() - due) * 1e3;
      }
    });
  }
  for (auto& t : threads) t.join();
  res.wall_s = Now() - start;
  res.sut_cpu_s = ProcessCpuS() - cpu0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (!call_ok[i]) {
      ++res.failed;
    } else if (results[i].status == seqfm::serve::RpcStatus::kOk) {
      ++res.ok;
      answers->push_back({reqs[i], std::move(results[i].items)});
    } else if (results[i].status == seqfm::serve::RpcStatus::kPartial) {
      ++res.partial;
    } else {
      ++res.failed;
    }
  }
  res.latency_ms = std::move(latency);
  res.lateness_ms = std::move(lateness);
  return res;
}

}  // namespace perfbench
