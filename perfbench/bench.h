// Shared pieces of the repository benchmark: clocks, CPU and memory
// accounting, replica processes, the request stream, and the load phases.
// See perfbench/README.md for what each workload measures and why.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/seqfm.h"
#include "data/dataset.h"
#include "serve/coordinator.h"
#include "serve/predictor.h"
#include "serve/rpc_server.h"
#include "serve/server.h"

namespace perfbench {

using seqfm::data::SequenceExample;
using seqfm::serve::ScoredItem;

/// Monotonic seconds.
double Now();
/// user+sys CPU seconds of this process, every thread included.
double ProcessCpuS();
/// Peak resident set of this process in MiB.
double ProcessPeakRssMb();
/// Threads currently in this process.
int ProcessThreads();
/// Host-wide CPU ticks from /proc/stat: {steal, total}. Steal is time this
/// machine's virtual CPUs were runnable but the hypervisor ran another
/// tenant; it shows how much of a run was disturbed from outside.
std::pair<uint64_t, uint64_t> HostStealTicks();

/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// A seqfm_replica process started with posix_spawn, so the launch costs
/// the same however much memory this process has touched (fork would copy its
/// page tables). The replica lives while its stdin pipe is open.
class ReplicaProcess {
 public:
  /// Starts \p binary with \p args and SEQFM_THREADS=\p threads, then waits
  /// for its "PORT <p>" line. Returns null (with a message on stderr) if
  /// the process fails to start or to report a port within 30 s.
  static std::unique_ptr<ReplicaProcess> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      int threads);
  ~ReplicaProcess();
  ReplicaProcess(const ReplicaProcess&) = delete;
  ReplicaProcess& operator=(const ReplicaProcess&) = delete;

  uint16_t port() const { return port_; }
  /// user+sys CPU seconds (from /proc/<pid>/stat).
  double CpuS() const;
  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMb() const;
  int Threads() const;

 private:
  ReplicaProcess() = default;
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// One request of a workload: a (user, history) context and a candidate
/// slate. slate < 0 means the full catalog.
struct Request {
  int32_t context = 0;
  int32_t slate = -1;
};

/// The traffic of one workload: the contexts and slates its requests draw
/// from, and the seeded generator that picks each next request.
struct Traffic {
  std::vector<SequenceExample> contexts;
  std::vector<std::vector<int32_t>> slates;
  std::vector<int32_t> catalog;  // [0, items)
  size_t k = 10;
  /// Deterministic in the workload seed; phases draw from it in turn, so a
  /// cold workload never repeats a context within a run.
  std::function<Request()> next_request;
  /// Every request drawn so far, in order.
  std::vector<Request> issued;

  const std::vector<int32_t>& Slate(const Request& r) const {
    return r.slate < 0 ? catalog : slates[static_cast<size_t>(r.slate)];
  }
  const SequenceExample& Context(const Request& r) const {
    return contexts[static_cast<size_t>(r.context)];
  }
  /// The next \p n requests.
  std::vector<Request> Take(size_t n);
};

/// Answers collected by the load phases, checked against the in-process
/// reference after timing ends.
struct Answer {
  Request req;
  std::vector<ScoredItem> items;
};

/// Operation accounting and timings of one load phase.
struct PhaseResult {
  std::string name;
  double offered_rps = 0.0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t partial = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  /// Latency from each request's scheduled send time, and how late the
  /// sender ran against that schedule, both in ms.
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  /// CPU seconds of the system under test over the phase (load-generator
  /// threads excluded).
  double sut_cpu_s = 0.0;
};

/// Open-loop RPC phase against the server on \p port: one connection, a
/// sender thread that follows the schedule, this thread reading responses.
/// sut_cpu_s is this process's CPU minus the sender's and reader's.
PhaseResult RunRpcPhase(const std::string& name, uint16_t port,
                        const Traffic& traffic,
                        const std::vector<Request>& reqs, double rate_rps,
                        uint64_t seed, std::vector<Answer>* answers);

/// Blocking-caller phase against \p coordinator: \p callers threads take the
/// next due request, wait for its time, and call TopKAll. A request that
/// waits for a free caller is timed from when it was due. sut_cpu_s counts
/// this process only (the callers run the coordinator); the caller adds
/// the replicas'.
PhaseResult RunFleetPhase(const std::string& name,
                          seqfm::serve::Coordinator* coordinator,
                          const Traffic& traffic,
                          const std::vector<Request>& reqs, double rate_rps,
                          uint64_t seed, size_t callers,
                          std::vector<Answer>* answers);

/// Bit-for-bit comparison of two rankings (ids and score bits).
bool SameRanking(const std::vector<ScoredItem>& a,
                 const std::vector<ScoredItem>& b);

// ---------------------------------------------------------------------------
// Workloads and the serving stacks they bring up
// ---------------------------------------------------------------------------

/// One named workload: the data it trains and serves on, the model shape,
/// the traffic, and the serving stack. perfbench/README.md says why each
/// exists.
struct WorkloadSpec {
  const char* name;
  double scale;            // gowalla preset scale
  size_t dim;              // embedding dim (seq len is 20 everywhere)
  size_t epochs;           // Trainer::TrainEpoch calls
  bool fleet;              // Coordinator over replica processes, else RPC
  size_t hot_users;        // > 0: requests from this many test contexts
  bool cold;               // contexts from the train split, never repeated
  size_t slate;            // candidates per request; 0 = full catalog
  size_t k;
  size_t serve_threads;    // pool size of each serving process
  size_t callers;          // blocking callers (fleet only)
  double fixed_rps;        // the fixed offered rate of the latency phase
  double p99_limit_ms;     // capacity criterion
};

constexpr size_t kSeqLen = 20;
/// Training runs on two threads: its kernels gain 1.3x from the second
/// thread and little more from the next two, while every extra thread is
/// another core a burst from other tenants of the host can stall.
constexpr size_t kTrainThreads = 2;
constexpr size_t kNumShards = 2;
/// The context-cache budget seqfm_replica gives its Predictor; the
/// in-process stacks use the same.
constexpr size_t kCacheBytes = size_t{8} << 20;

/// Everything one run shares between its phases.
struct Workload {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  bool quick = false;
  size_t nproc = 1;
  std::string replica_bin;
  std::string checkpoint;
  seqfm::data::TemporalDataset dataset;
  seqfm::data::FeatureSpace space;
  std::unique_ptr<seqfm::data::BatchBuilder> builder;
  Traffic traffic;
  /// The served parameters, loaded from the checkpoint, scored without a
  /// cache: the reference every served answer must equal.
  std::unique_ptr<seqfm::core::SeqFm> ref_model;
  std::unique_ptr<seqfm::serve::Predictor> ref;
};

/// Exactly the SeqFmConfig seqfm_replica derives from --dim and
/// --max-seq-len, so the benchmark's checkpoint is the one the replicas
/// load.
seqfm::core::SeqFmConfig ReplicaModelConfig(size_t dim);

/// A fresh model of the workload's shape with the checkpoint loaded.
std::unique_ptr<seqfm::core::SeqFm> LoadServedModel(const Workload& w);

/// Predictor -> BatchServer -> RpcServer in this process.
struct RpcStack {
  std::unique_ptr<seqfm::core::SeqFm> model;
  std::unique_ptr<seqfm::serve::Predictor> predictor;
  std::unique_ptr<seqfm::serve::BatchServer> batch;
  std::unique_ptr<seqfm::serve::RpcServer> rpc;
};
/// Brings the stack up from the checkpoint; \p replica_mode also serves
/// shard frames over the whole catalog as one shard.
std::unique_ptr<RpcStack> BringUpRpcStack(const Workload& w,
                                          bool replica_mode);

/// kNumShards seqfm_replica processes behind a Coordinator.
struct FleetStack {
  std::vector<std::unique_ptr<ReplicaProcess>> replicas;
  std::unique_ptr<seqfm::serve::Coordinator> coordinator;
  std::vector<double> spawn_ms;  // spawn -> PORT line, per replica
  double ready_ms = 0.0;         // AddReplica for all + Ready()
};
/// Spawns \p shards replicas of the checkpoint and readies a coordinator
/// over them; null on failure.
std::unique_ptr<FleetStack> BringUpFleet(const Workload& w, size_t shards);

/// What the training job measured.
struct TrainOutcome {
  double setup_s = 0.0;
  double examples_per_s = 0.0;
  double cpu_s_per_epoch = 0.0;
  double final_loss = 0.0;
  size_t examples_per_epoch = 0;
  std::vector<double> epoch_s;
  std::vector<double> epoch_cpu_s;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  bool round_trip_ok = false;
};

struct CapacityResult {
  double capacity_rps = 0.0;
  int steps = 0;
};

/// What the serving phases measured.
struct ServeMeasurement {
  PhaseResult fixed;  // the fixed-rate slices together
  std::vector<double> slice_p50_ms, slice_p99_ms, slice_cpu_ms;
  CapacityResult capacity;
  double wave_size = 0.0;  // BatchServer, fixed-rate slices (RPC stacks)
  double peak_rss_mb = 0.0;
};

/// Per-layer metrics of the traced run, timed with the run's stack (\p rpc
/// or \p fleet) still up; see perfbench/README.md.
void RunProbes(Workload* w, RpcStack* rpc, FleetStack* fleet,
               const TrainOutcome& train, const ServeMeasurement& serve,
               std::vector<std::pair<std::string, double>>* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
