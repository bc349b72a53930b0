// The repository benchmark program. One run of one workload:
//
//   1. generate the workload's data (the fixed gowalla preset corpus) and
//      its traffic (--seed drives the requests and their arrival schedule);
//   2. train: Trainer construction (set-up), fixed TrainEpoch calls, then
//      Checkpoint::Save and a save -> load -> score round trip;
//   3. bring up the workload's serving stack from that checkpoint several
//      times (set-up), keep the last one, and serve a fixed-rate phase and
//      a capacity search;
//   4. check every OK answer bit for bit against an in-process reference
//      Predictor loaded from the same checkpoint, and HR@10 of the served
//      model;
//   5. with --trace=1, time calls into each layer's public functions
//      (probes.cc) and print the per-layer metrics instead.
//
// The last stdout line is the result object; the line before it is a report
// with the host record, the operation accounting of every phase and every
// measured value. Exit status is non-zero on any wrong or missing answer.
//
//   seqfm_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                   --replica=PATH --work-dir=DIR [--quick]
#include <signal.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "serve/checkpoint.h"
#include "util/cpu.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace sv = seqfm::serve;
namespace core = seqfm::core;

// Fixed rates sit at a quarter to a third of each workload's capacity on a
// shared 4-core AVX2 virtual machine, whose other tenants take up to a fifth of its CPU
// in bursts, and at half of capacity such a burst pushed the fixed phase
// past the knee. p99 limits are loose enough that the capacity search stops
// where throughput saturates (a backlog grows) rather than where the p99 of
// a short step happens to cross a line. Every serving
// process runs its pool at one thread, so that the system under test and
// the load generator together stay within 4 cores.
const WorkloadSpec kWorkloads[] = {
    // Front end dominates: 16 hot users, 8-item slates, every context
    // cached after its first request. Scale 2 only lengthens the training
    // epochs, whose CPU figure is too short to be steady at scale 1.
    {"serve_hot_small", /*scale=*/2.0, /*dim=*/16, /*epochs=*/3,
     /*fleet=*/false, /*hot_users=*/16, /*cold=*/false, /*slate=*/8, /*k=*/5,
     /*serve_threads=*/1, /*callers=*/0, /*fixed_rps=*/3000.0,
     /*p99_limit_ms=*/20.0},
    // Candidate scoring dominates: a never-seen context per request, each
    // ranked over the full 800-item catalog split across two replicas.
    {"fleet_cold_catalog", /*scale=*/4.0, /*dim=*/32, /*epochs=*/2,
     /*fleet=*/true, /*hot_users=*/0, /*cold=*/true, /*slate=*/0, /*k=*/10,
     /*serve_threads=*/1, /*callers=*/4, /*fixed_rps=*/40.0,
     /*p99_limit_ms=*/100.0},
    // Training dominates: five epochs at scale 1, then the trained model
    // answers its test users over the full catalog.
    {"train_epochs", /*scale=*/1.0, /*dim=*/32, /*epochs=*/5,
     /*fleet=*/false, /*hot_users=*/0, /*cold=*/false, /*slate=*/0, /*k=*/10,
     /*serve_threads=*/1, /*callers=*/0, /*fixed_rps=*/40.0,
     /*p99_limit_ms=*/100.0},
};

core::SeqFmConfig ReplicaModelConfig(size_t dim) {
  core::SeqFmConfig config;
  config.embedding_dim = dim;
  config.max_seq_len = kSeqLen;
  return config;
}

std::unique_ptr<core::SeqFm> LoadServedModel(const Workload& w) {
  auto model = std::make_unique<core::SeqFm>(
      w.space, ReplicaModelConfig(w.spec->dim));
  const seqfm::Status st = sv::Checkpoint::Load(model.get(), w.checkpoint);
  SEQFM_CHECK(st.ok()) << st.ToString();
  return model;
}

namespace {

sv::PredictorOptions ServingOptions() {
  sv::PredictorOptions opts;
  opts.context_cache_bytes = kCacheBytes;
  return opts;
}

}  // namespace

std::unique_ptr<RpcStack> BringUpRpcStack(const Workload& w,
                                          bool replica_mode) {
  auto stack = std::make_unique<RpcStack>();
  stack->model = LoadServedModel(w);
  stack->predictor = std::make_unique<sv::Predictor>(
      stack->model.get(), w.builder.get(), ServingOptions());
  stack->batch = std::make_unique<sv::BatchServer>(stack->predictor.get());
  sv::RpcServerOptions opts;
  if (replica_mode) {
    opts.catalog_size = w.space.num_objects();
    opts.model_version = sv::ParameterVersion(*stack->model);
  }
  stack->rpc = std::make_unique<sv::RpcServer>(stack->batch.get(), opts);
  const seqfm::Status st = stack->rpc->Start();
  SEQFM_CHECK(st.ok()) << st.ToString();
  return stack;
}

std::unique_ptr<FleetStack> BringUpFleet(const Workload& w, size_t shards) {
  auto fleet = std::make_unique<FleetStack>();
  for (size_t s = 0; s < shards; ++s) {
    const std::vector<std::string> args = {
        "--checkpoint=" + w.checkpoint,
        "--shard-index=" + std::to_string(s),
        "--num-shards=" + std::to_string(shards),
        "--users=" + std::to_string(w.space.num_users()),
        "--items=" + std::to_string(w.space.num_objects()),
        "--dim=" + std::to_string(w.spec->dim),
        "--max-seq-len=" + std::to_string(kSeqLen),
        "--port=0"};
    const double begin = Now();
    auto proc = ReplicaProcess::Spawn(
        w.replica_bin, args, static_cast<int>(w.spec->serve_threads));
    if (!proc) return nullptr;
    fleet->spawn_ms.push_back((Now() - begin) * 1e3);
    fleet->replicas.push_back(std::move(proc));
  }
  const double begin = Now();
  sv::CoordinatorOptions copts;
  copts.replica_timeout_ms = 30000;
  copts.connect_timeout_ms = 10000;
  fleet->coordinator = std::make_unique<sv::Coordinator>(copts);
  for (const auto& r : fleet->replicas) {
    const seqfm::Status st = fleet->coordinator->AddReplica("127.0.0.1", r->port());
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return nullptr;
    }
  }
  const seqfm::Status st = fleet->coordinator->Ready();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return nullptr;
  }
  fleet->ready_ms = (Now() - begin) * 1e3;
  return fleet;
}

namespace {

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string Num(double v) {
  SEQFM_CHECK(std::isfinite(v)) << "non-finite metric";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Num(v[i]);
  return out + "]";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string PhaseJson(const PhaseResult& p) {
  std::ostringstream o;
  o << "{\"name\": \"" << p.name << "\", \"offered_rps\": " << Num(p.offered_rps)
    << ", \"attempted\": " << p.attempted << ", \"ok\": " << p.ok
    << ", \"shed\": " << p.shed << ", \"partial\": " << p.partial
    << ", \"failed\": " << p.failed << ", \"wall_s\": " << Num(p.wall_s)
    << ", \"latency_p50_ms\": " << Num(Quantile(p.latency_ms, 0.5))
    << ", \"latency_p99_ms\": " << Num(Quantile(p.latency_ms, 0.99))
    << ", \"send_late_p99_ms\": " << Num(Quantile(p.lateness_ms, 0.99))
    << ", \"send_late_max_ms\": " << Num(Quantile(p.lateness_ms, 1.0)) << "}";
  return o.str();
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

void PrepareData(Workload* w) {
  const double scale = w->spec->scale * (w->quick ? 0.25 : 1.0);
  auto config =
      seqfm::data::SyntheticDatasetGenerator::Preset("gowalla", scale)
          .ValueOrDie();
  seqfm::data::SyntheticDatasetGenerator generator(config);
  auto log = generator.Generate().ValueOrDie().Filter(10, 2).ValueOrDie();
  w->dataset = seqfm::data::TemporalDataset::FromLog(log).ValueOrDie();
  w->space = seqfm::data::FeatureSpace(log.num_users(), log.num_objects());
  w->builder = std::make_unique<seqfm::data::BatchBuilder>(w->space, kSeqLen);
}

void PrepareTraffic(Workload* w) {
  Traffic& t = w->traffic;
  const WorkloadSpec& spec = *w->spec;
  t.k = spec.k;
  t.catalog.resize(w->space.num_objects());
  for (size_t i = 0; i < t.catalog.size(); ++i) {
    t.catalog[i] = static_cast<int32_t>(i);
  }
  auto rng = std::make_shared<std::mt19937_64>(w->seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<seqfm::data::SequenceExample> pool =
      spec.cold ? w->dataset.train() : w->dataset.test();
  std::shuffle(pool.begin(), pool.end(), *rng);
  if (spec.hot_users > 0) {
    pool.resize(std::min(pool.size(), spec.hot_users));
    constexpr size_t kSlatesPerContext = 8;
    for (size_t c = 0; c < pool.size(); ++c) {
      for (size_t j = 0; j < kSlatesPerContext; ++j) {
        std::vector<int32_t> items = t.catalog;
        std::shuffle(items.begin(), items.end(), *rng);
        items.resize(std::min(spec.slate, items.size()));
        t.slates.push_back(std::move(items));
      }
    }
    const size_t contexts = pool.size();
    t.next_request = [rng, contexts]() {
      const size_t c = (*rng)() % contexts;
      const size_t j = (*rng)() % kSlatesPerContext;
      return Request{static_cast<int32_t>(c),
                     static_cast<int32_t>(c * kSlatesPerContext + j)};
    };
  } else {
    // Cold contexts are issued once each; warm ones cycle in seeded order.
    const size_t contexts = pool.size();
    const bool cold = spec.cold;
    auto next = std::make_shared<size_t>(0);
    t.next_request = [next, contexts, cold]() {
      SEQFM_CHECK(!cold || *next < contexts) << "cold contexts exhausted";
      return Request{static_cast<int32_t>((*next)++ % contexts), -1};
    };
  }
  t.contexts = std::move(pool);
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

/// Training and evaluation use a fixed seed: the corpus is the fixed gowalla
/// preset, so hr_at_10 repeats exactly and guards the model's quality across
/// changes; --seed drives the served traffic and its arrival schedule.
constexpr uint64_t kTrainSeed = 42;

core::TrainConfig TrainingConfig(const Workload& w) {
  core::TrainConfig cfg;
  cfg.epochs = w.spec->epochs;
  cfg.batch_size = 128;
  cfg.learning_rate = 1e-2f;
  cfg.num_negatives = 1;
  cfg.seed = kTrainSeed;
  return cfg;
}

TrainOutcome Train(Workload* w, size_t setup_reps) {
  TrainOutcome out;
  const core::TrainConfig cfg = TrainingConfig(*w);
  std::vector<double> setup;
  std::unique_ptr<core::SeqFm> model;
  std::unique_ptr<core::Trainer> trainer;
  for (size_t r = 0; r < setup_reps; ++r) {
    trainer.reset();
    model.reset();
    const double t0 = Now();
    model = std::make_unique<core::SeqFm>(w->space,
                                          ReplicaModelConfig(w->spec->dim));
    trainer = std::make_unique<core::Trainer>(model.get(), w->builder.get(),
                                              &w->dataset, cfg);
    setup.push_back(Now() - t0);
  }
  out.setup_s = Median(setup);

  // Throughput comes from the fastest epoch (contention from other tenants
  // of the host only ever slows an epoch down), CPU from the median one.
  const size_t epochs = w->quick ? 1 : w->spec->epochs;
  std::vector<double>& cpu_s = out.epoch_cpu_s;
  for (size_t e = 0; e < epochs; ++e) {
    const double cpu0 = ProcessCpuS();
    const double begin = Now();
    const core::EpochStats stats = trainer->TrainEpoch();
    out.epoch_s.push_back(Now() - begin);
    cpu_s.push_back(ProcessCpuS() - cpu0);
    out.final_loss = stats.mean_loss;
  }
  out.examples_per_epoch = w->dataset.train().size() * cfg.num_negatives;
  out.examples_per_s = static_cast<double>(out.examples_per_epoch) /
                       *std::min_element(out.epoch_s.begin(), out.epoch_s.end());
  out.cpu_s_per_epoch = Median(cpu_s);

  for (int r = 0; r < 3; ++r) {
    const double begin = Now();
    const seqfm::Status st = sv::Checkpoint::Save(*model, w->checkpoint);
    SEQFM_CHECK(st.ok()) << st.ToString();
    out.save_ms.push_back((Now() - begin) * 1e3);
  }
  for (int r = 0; r < 3; ++r) {
    const double begin = Now();
    w->ref_model = LoadServedModel(*w);
    out.load_ms.push_back((Now() - begin) * 1e3);
  }
  w->ref = std::make_unique<sv::Predictor>(w->ref_model.get(),
                                           w->builder.get());

  // Round trip: the trained model and the reloaded one score every catalog
  // item of a few test contexts to the same bits.
  sv::Predictor trained(model.get(), w->builder.get());
  out.round_trip_ok =
      sv::ParameterVersion(*model) == sv::ParameterVersion(*w->ref_model);
  const auto& test = w->dataset.test();
  for (size_t i = 0; i < std::min<size_t>(8, test.size()); ++i) {
    const auto a = trained.ScoreCandidates(test[i], w->traffic.catalog);
    const auto b = w->ref->ScoreCandidates(test[i], w->traffic.catalog);
    out.round_trip_ok = out.round_trip_ok &&
                        std::memcmp(a.data(), b.data(),
                                    a.size() * sizeof(float)) == 0;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

/// The live stack of the run: the RPC stack or the fleet.
struct Serving {
  std::unique_ptr<RpcStack> rpc;
  std::unique_ptr<FleetStack> fleet;
  std::vector<Answer> answers;
  std::vector<PhaseResult> phases;

  double ReplicaCpuS() const {
    double s = 0.0;
    if (fleet) {
      for (const auto& r : fleet->replicas) s += r->CpuS();
    }
    return s;
  }

  PhaseResult Run(Workload* w, const std::string& name, size_t n, double rps,
                  uint64_t seed) {
    const std::vector<Request> reqs = w->traffic.Take(n);
    PhaseResult res;
    if (fleet) {
      const double replica0 = ReplicaCpuS();
      res = RunFleetPhase(name, fleet->coordinator.get(), w->traffic, reqs,
                          rps, seed, w->spec->callers, &answers);
      res.sut_cpu_s += ReplicaCpuS() - replica0;
    } else {
      res = RunRpcPhase(name, rpc->rpc->port(), w->traffic, reqs, rps, seed,
                        &answers);
    }
    phases.push_back(res);
    return res;
  }
};

/// Brings the stack up and warms it: in-process stacks send rounds of
/// requests until Engine::stats().compiled_counts stops growing; a replica
/// compiles every count a full-catalog shard request needs on its first
/// request, so the fleet takes two rounds.
bool BringUp(Workload* w, Serving* s, uint64_t seed) {
  s->rpc.reset();
  s->fleet.reset();
  constexpr size_t kWarmRound = 4;
  if (w->spec->fleet) {
    s->fleet = BringUpFleet(*w, kNumShards);
    if (!s->fleet) return false;
    for (int round = 0; round < 2; ++round) {
      const PhaseResult r = s->Run(w, "warmup", kWarmRound, 1e6, seed + round);
      if (r.ok != r.attempted) return false;
    }
    return true;
  }
  s->rpc = BringUpRpcStack(*w, /*replica_mode=*/false);
  size_t counts = 0;
  for (int round = 0;; ++round) {
    const PhaseResult r = s->Run(w, "warmup", kWarmRound, 1e6, seed + round);
    if (r.ok != r.attempted) return false;
    const size_t now = s->rpc->predictor->engine()
                           ? s->rpc->predictor->engine()->stats().compiled_counts
                           : 0;
    if (round > 0 && now == counts) return true;
    counts = now;
  }
}

bool StepPasses(const PhaseResult& r, double limit_ms) {
  if (r.ok != r.attempted || r.latency_ms.empty()) return false;
  // Achieved throughput over the schedule, allowing the last request a
  // median latency to finish: below 0.98x offered means a backlog grew.
  const double span = static_cast<double>(r.attempted) / r.offered_rps;
  const double drain_s = Quantile(r.latency_ms, 0.5) / 1e3;
  const double achieved =
      static_cast<double>(r.ok) / std::max(span, r.wall_s - drain_s);
  return Quantile(r.latency_ms, 0.99) <= limit_ms &&
         achieved >= 0.98 * r.offered_rps;
}

/// Highest offered Poisson rate that passes StepPasses: steps of 1.25x up
/// from 2.5x the fixed rate (fixed rates sit near a third of capacity),
/// then bisection to 3%. A rate fails only if two tries at it fail, so one
/// burst of contention from other tenants cannot end the search low.
/// \p max_steps counts the retries; \p after_step runs after each step.
CapacityResult SearchCapacity(Workload* w, Serving* s, double step_s,
                              int max_steps,
                              const std::function<void()>& after_step) {
  CapacityResult out;
  double lo = 0.0;
  double hi = 0.0;
  double rate = w->spec->fixed_rps * 2.5;
  while (out.steps < max_steps) {
    const size_t n = std::max<size_t>(20, static_cast<size_t>(rate * step_s));
    bool pass = false;
    for (int tries = 0; tries < 2 && !pass && out.steps < max_steps; ++tries) {
      const PhaseResult r = s->Run(w, "capacity", n, rate,
                                   w->seed + 1000 + 10 * out.steps);
      ++out.steps;
      if (r.failed + r.partial + r.shed != 0) return out;  // a failed run
      pass = StepPasses(r, w->spec->p99_limit_ms);
      after_step();
    }
    if (pass) {
      lo = rate;
      rate = hi > 0.0 ? 0.5 * (lo + hi) : rate * 1.25;
    } else {
      hi = rate;
      rate = lo > 0.0 ? 0.5 * (lo + hi) : rate / 1.25;
    }
    if (lo > 0.0 && hi > 0.0 && (hi - lo) / lo < 0.03) break;
  }
  out.capacity_rps = lo;
  return out;
}

/// The fixed-rate phase runs as five slices interleaved with the capacity
/// search (one first, then one after every second search step), so they
/// spread over the whole run: contention from other tenants of the host
/// comes in bursts of 10-20 s, and latency and CPU per request are medians
/// over slices.
ServeMeasurement MeasureServing(Workload* w, Serving* s, double seconds) {
  constexpr int kSlices = 5;
  const WorkloadSpec& spec = *w->spec;
  const size_t per_slice =
      static_cast<size_t>(spec.fixed_rps * seconds * 0.4 / kSlices);
  ServeMeasurement m;
  uint64_t served = 0;
  uint64_t waves = 0;
  auto slice = [&]() {
    const int i = static_cast<int>(m.slice_p50_ms.size());
    if (i == kSlices) return;
    sv::BatchServerStats b0;
    if (s->rpc) b0 = s->rpc->batch->stats();
    const PhaseResult r = s->Run(w, "fixed_rate", per_slice, spec.fixed_rps,
                                 w->seed + 500 + i);
    if (s->rpc) {
      const sv::BatchServerStats b1 = s->rpc->batch->stats();
      served += b1.requests_served - b0.requests_served;
      waves += b1.waves - b0.waves;
    }
    m.slice_p50_ms.push_back(Quantile(r.latency_ms, 0.5));
    m.slice_p99_ms.push_back(Quantile(r.latency_ms, 0.99));
    m.slice_cpu_ms.push_back(
        r.ok ? r.sut_cpu_s * 1e3 / static_cast<double>(r.ok) : 0.0);
    m.fixed.attempted += r.attempted;
    m.fixed.ok += r.ok;
    m.fixed.wall_s += r.wall_s;
    m.fixed.sut_cpu_s += r.sut_cpu_s;
    m.fixed.latency_ms.insert(m.fixed.latency_ms.end(), r.latency_ms.begin(),
                              r.latency_ms.end());
  };
  slice();
  // Peak memory before any overload step: those queue a backlog whose size
  // depends on how far past capacity the step went.
  m.peak_rss_mb = ProcessPeakRssMb();
  if (s->fleet) {
    for (const auto& r : s->fleet->replicas) m.peak_rss_mb += r->PeakRssMb();
  }
  int steps = 0;
  m.capacity = SearchCapacity(w, s, seconds * 0.06, w->quick ? 3 : 12,
                              [&]() {
                                if (++steps % 2 == 0) slice();
                              });
  while (m.slice_p50_ms.size() < kSlices) slice();
  m.wave_size = static_cast<double>(served) /
                static_cast<double>(std::max<uint64_t>(1, waves));
  return m;
}

/// Reference answers for every distinct (context, slate) served, computed
/// after timing on the whole pool; returns the number of mismatches.
uint64_t CheckAnswers(Workload* w, const std::vector<Answer>& answers) {
  std::map<std::pair<int32_t, int32_t>, size_t> keys;
  std::vector<Request> distinct;
  for (const Answer& a : answers) {
    if (keys.emplace(std::make_pair(a.req.context, a.req.slate),
                     distinct.size()).second) {
      distinct.push_back(a.req);
    }
  }
  std::vector<std::vector<ScoredItem>> expect(distinct.size());
  seqfm::util::SetGlobalThreads(w->nproc);
  seqfm::util::ParallelFor(distinct.size(), 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      const Request& r = distinct[i];
      expect[i] = w->ref->TopK(w->traffic.Context(r), w->traffic.Slate(r),
                               w->traffic.k);
    }
  });
  uint64_t mismatches = 0;
  for (const Answer& a : answers) {
    const size_t i = keys.at(std::make_pair(a.req.context, a.req.slate));
    if (!SameRanking(a.items, expect[i])) ++mismatches;
  }
  return mismatches;
}

int Run(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  seqfm::FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 2;
  const std::string name = flags.GetString("workload", "");
  const WorkloadSpec* spec = nullptr;
  for (const auto& ws : kWorkloads) {
    if (name == ws.name) spec = &ws;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  Workload w;
  w.spec = spec;
  w.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  w.quick = flags.GetBool("quick", false);
  w.nproc = std::max<size_t>(1, std::thread::hardware_concurrency());
  w.replica_bin = flags.GetString("replica", "");
  const std::string work_dir = flags.GetString("work-dir", "");
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  if (w.replica_bin.empty() || work_dir.empty() || seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --replica, --work-dir and a positive "
                         "--seconds are required\n");
    return 2;
  }
  w.checkpoint = work_dir + "/model.ckpt";
  const size_t setup_reps = w.quick ? 2 : 11;

  const auto steal0 = HostStealTicks();
  PrepareData(&w);
  PrepareTraffic(&w);
  seqfm::util::SetGlobalThreads(std::min(kTrainThreads, w.nproc));
  const TrainOutcome train = Train(&w, setup_reps);
  const double training_peak_rss_mb = ProcessPeakRssMb();
  seqfm::eval::RankingEvaluator evaluator(&w.dataset, w.builder.get(),
                                          /*num_negatives=*/100, kTrainSeed + 31);
  const double hr_at_10 = evaluator.Evaluate(*w.ref, {10}).hr.at(10);

  // Serving: in-process stacks run their pool at serve_threads; replicas
  // get it through SEQFM_THREADS.
  seqfm::util::SetGlobalThreads(spec->fleet ? w.nproc : spec->serve_threads);
  Serving s;
  std::vector<double> setup;
  bool up = true;
  for (size_t r = 0; r < setup_reps && up; ++r) {
    const double t0 = Now();
    up = BringUp(&w, &s, w.seed + 100 * r);
    setup.push_back(Now() - t0);
  }
  const double serve_setup_s = Median(setup);

  ServeMeasurement m;
  uint64_t recovery = 0;
  std::vector<Metric> layer;
  std::vector<Metric> purpose;
  if (up) {
    m = MeasureServing(&w, &s, seconds);
    if (s.fleet) {
      const sv::CoordinatorStats cs = s.fleet->coordinator->stats();
      recovery = cs.retries + cs.retries_denied + cs.circuit_opens +
                 cs.reconnects + cs.reconnect_failures;
    }
    if (trace) {
      std::vector<std::pair<std::string, double>> probes;
      RunProbes(&w, s.rpc.get(), s.fleet.get(), train, m, &probes);
      for (auto& [key, value] : probes) {
        const size_t bar = key.rfind('|');
        Metric metric{key.substr(0, bar), value, key.substr(bar + 1)};
        (metric.name.rfind("purpose.", 0) == 0 ? purpose : layer)
            .push_back(metric);
      }
    }
  }
  // Host record: thread counts while the stack is still up.
  std::ostringstream threads;
  threads << "{\"benchmark\": " << ProcessThreads();
  if (s.fleet) {
    for (size_t i = 0; i < s.fleet->replicas.size(); ++i) {
      threads << ", \"replica" << i << "\": " << s.fleet->replicas[i]->Threads();
    }
  }
  threads << "}";
  s.rpc.reset();
  s.fleet.reset();

  const auto steal1 = HostStealTicks();
  const double steal_share =
      static_cast<double>(steal1.first - steal0.first) /
      static_cast<double>(std::max<uint64_t>(1, steal1.second - steal0.second));
  const uint64_t mismatches = CheckAnswers(&w, s.answers);
  uint64_t attempted = 0;
  uint64_t failed = mismatches + recovery;
  for (const PhaseResult& p : s.phases) {
    attempted += p.attempted;
    failed += p.failed + p.partial + p.shed;
  }
  const bool train_ok = std::isfinite(train.final_loss) && train.round_trip_ok;
  if (!train_ok) ++failed;
  if (!up) ++failed;
  attempted += 1;  // the training job
  const bool correct = failed == 0;

  // The gated metrics: those that repeat across seeds on a shared 4-core
  // virtual machine (see perfbench/README.md).
  const std::vector<Metric> e2e = {
      {"setup_s", train.setup_s + serve_setup_s, "s"},
      {"cpu_ms_per_req", Median(m.slice_cpu_ms), "ms"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
      {"cpu_s_per_epoch", train.cpu_s_per_epoch, "s"},
      {"hr_at_10", hr_at_10, "ratio"},
  };
  // Measured and printed, not gated: other tenants of the host move these
  // wall-clock rates and latencies by more than the largest allowed bound
  // between runs (see perfbench/README.md).
  const std::vector<Metric> ungated = {
      {"capacity_rps", m.capacity.capacity_rps, "1/s"},
      {"latency_p50_ms", Median(m.slice_p50_ms), "ms"},
      {"latency_p99_ms", Median(m.slice_p99_ms), "ms"},
      {"train_examples_per_s", train.examples_per_s, "1/s"},
  };

  std::set<int32_t> distinct_contexts;
  for (const Request& r : w.traffic.issued) distinct_contexts.insert(r.context);
  std::ostringstream report;
  report << "{\"report\": {\"workload\": \"" << spec->name
         << "\", \"seed\": " << w.seed << ", \"trace\": " << trace
         << ", \"host\": {\"nproc\": " << w.nproc << ", \"simd\": \""
         << seqfm::util::SimdLevelName(seqfm::util::ActiveSimdLevel())
         << "\", \"steal_share\": " << Num(steal_share)
         << ", \"threads\": " << threads.str()
         << ", \"serve_threads\": " << spec->serve_threads
         << ", \"callers\": " << spec->callers << "}"
         << ", \"inputs\": {\"users\": " << w.space.num_users()
         << ", \"items\": " << w.space.num_objects()
         << ", \"train_examples_per_epoch\": " << train.examples_per_epoch
         << ", \"test_users\": " << w.dataset.test().size()
         << ", \"contexts\": " << w.traffic.contexts.size()
         << ", \"distinct_contexts_served\": " << distinct_contexts.size()
         << ", \"requests_served\": " << w.traffic.issued.size()
         << ", \"candidates_per_request\": "
         << (spec->slate ? spec->slate : w.space.num_objects())
         << ", \"k\": " << spec->k << ", \"dim\": " << spec->dim
         << ", \"seq_len\": " << kSeqLen << "}"
         << ", \"fixed_rps\": " << Num(spec->fixed_rps)
         << ", \"p99_limit_ms\": " << Num(spec->p99_limit_ms)
         << ", \"capacity_steps\": " << m.capacity.steps
         << ", \"training\": {\"epochs\": " << train.epoch_s.size()
         << ", \"final_loss\": " << Num(train.final_loss)
         << ", \"round_trip_ok\": " << train.round_trip_ok
         << ", \"setup_s\": " << Num(train.setup_s)
         << ", \"peak_rss_mb\": " << Num(training_peak_rss_mb)
         << ", \"epoch_s\": " << NumList(train.epoch_s)
         << ", \"epoch_cpu_s\": " << NumList(train.epoch_cpu_s) << "}"
         << ", \"serve_setup_s\": " << Num(serve_setup_s)
         << ", \"mismatches\": " << mismatches
         << ", \"coordinator_recovery_events\": " << recovery
         << ", \"fixed_rate_samples\": " << m.fixed.latency_ms.size()
         << ", \"fixed_rate_slices\": {\"p50_ms\": " << NumList(m.slice_p50_ms)
         << ", \"p99_ms\": " << NumList(m.slice_p99_ms)
         << ", \"cpu_ms_per_req\": " << NumList(m.slice_cpu_ms) << "}"
         << ", \"phases\": [";
  // Capacity steps and warm-ups are summed per name to keep the line short.
  std::vector<PhaseResult> summary;
  for (const PhaseResult& p : s.phases) {
    auto it = std::find_if(summary.begin(), summary.end(),
                           [&](const PhaseResult& q) { return q.name == p.name; });
    if (it == summary.end()) {
      summary.push_back(p);
      continue;
    }
    it->attempted += p.attempted;
    it->ok += p.ok;
    it->shed += p.shed;
    it->partial += p.partial;
    it->failed += p.failed;
    it->wall_s += p.wall_s;
    it->offered_rps = std::max(it->offered_rps, p.offered_rps);
    it->latency_ms.insert(it->latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
    it->lateness_ms.insert(it->lateness_ms.end(), p.lateness_ms.begin(),
                           p.lateness_ms.end());
  }
  for (size_t i = 0; i < summary.size(); ++i) {
    report << (i ? ", " : "") << PhaseJson(summary[i]);
  }
  report << "], \"end_to_end\": " << MetricsJson(e2e)
         << ", \"ungated\": " << MetricsJson(ungated);
  if (trace) {
    report << ", \"per_layer\": " << MetricsJson(layer)
           << ", \"purpose\": " << MetricsJson(purpose);
  }
  report << "}}";
  std::printf("%s\n", report.str().c_str());

  if (!correct) {
    std::fprintf(stderr,
                 "perfbench: FAILED: %llu failures (%llu mismatching answers, "
                 "%llu coordinator recovery events, training ok=%d, stack "
                 "up=%d)\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(recovery), train_ok, up);
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              MetricsJson(trace ? layer : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
