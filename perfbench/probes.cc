// Per-layer metrics of the traced run. Every value is timed from outside
// the program, around calls into one module's public functions, on the
// workload's own model, checkpoint and requests, after the timed phases
// have ended (so the end-to-end numbers of a traced run carry no tracing
// cost). Each key is "name|unit"; perfbench/README.md maps every metric to
// the end-to-end metric it should move. "purpose.*" values describe the
// workload rather than a layer and go to the report only.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "autograd/ops.h"
#include "bench.h"
#include "core/trainer.h"
#include "optim/optimizer.h"
#include "serve/backend.h"
#include "serve/protocol.h"
#include "serve/shard.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace sv = seqfm::serve;

namespace {

/// Frame header bytes (magic + payload length) in front of every payload.
constexpr size_t kFrameHeader = 8;

class Emitter {
 public:
  explicit Emitter(std::vector<std::pair<std::string, double>>* out)
      : out_(out) {}
  void operator()(const std::string& name, const std::string& unit,
                  double value) {
    out_->emplace_back(name + "|" + unit, value);
  }

 private:
  std::vector<std::pair<std::string, double>>* out_;
};

/// Wall time of \p fn in the given unit scale (1e3 = ms, 1e6 = us).
template <typename Fn>
double Time(double scale, Fn&& fn) {
  const double t0 = Now();
  fn();
  return (Now() - t0) * scale;
}

std::vector<sv::RankEntry> ToRun(const std::vector<ScoredItem>& items) {
  std::vector<sv::RankEntry> run;
  for (const ScoredItem& it : items) {
    run.push_back({it.score, it.item, static_cast<size_t>(it.item)});
  }
  return run;
}

void ProbeProtocol(const Workload& w, const std::vector<Request>& reqs,
                   const std::vector<std::vector<ScoredItem>>& answers,
                   Emitter& emit) {
  const Traffic& t = w.traffic;
  const bool fleet = w.spec->fleet;
  const std::vector<size_t> bounds =
      sv::ShardedCatalog::Bounds(t.catalog.size(), kNumShards);
  // Encode one request's frames (a shard request and response per shard on
  // the fleet, one request and response otherwise), then decode them.
  std::vector<double> enc_us, dec_us;
  double request_bytes = 0.0;
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<std::string> wires(reqs.size());
    const double enc = Time(1e6, [&] {
      for (size_t i = 0; i < reqs.size(); ++i) {
        const SequenceExample& ex = t.Context(reqs[i]);
        std::string& wire = wires[i];
        if (fleet) {
          for (size_t s = 0; s < kNumShards; ++s) {
            sv::RpcShardRequest req;
            req.id = i;
            req.user = ex.user;
            req.k = static_cast<uint32_t>(t.k);
            req.begin = bounds[s];
            req.end = bounds[s + 1];
            req.history = ex.history;
            sv::AppendShardRequestFrame(req, &wire);
            sv::RpcShardResponse resp;
            resp.id = i;
            for (const ScoredItem& it : answers[i]) {
              resp.entries.push_back(
                  {it.item, it.score, static_cast<uint64_t>(it.item)});
            }
            sv::AppendShardResponseFrame(resp, &wire);
          }
        } else {
          sv::RpcRequest req;
          req.id = i;
          req.user = ex.user;
          req.k = static_cast<uint32_t>(t.k);
          req.history = ex.history;
          req.slate = t.Slate(reqs[i]);
          sv::AppendRequestFrame(req, &wire);
          sv::RpcResponse resp;
          resp.id = i;
          resp.items = answers[i];
          sv::AppendResponseFrame(resp, &wire);
        }
      }
    });
    enc_us.push_back(enc / static_cast<double>(reqs.size()));
    // Split the concatenated frames back into payloads outside the timer.
    std::vector<std::vector<std::string>> payloads(reqs.size());
    double bytes = 0.0;
    for (size_t i = 0; i < reqs.size(); ++i) {
      sv::FrameReader reader;
      reader.Feed(wires[i].data(), wires[i].size());
      std::string payload;
      bool got = false;
      size_t frame = 0;
      while (reader.Next(&payload, &got).ok() && got) {
        // Request frames sit at even positions, responses at odd ones.
        if (frame % 2 == 0) bytes += static_cast<double>(payload.size() + kFrameHeader);
        payloads[i].push_back(payload);
        ++frame;
      }
    }
    request_bytes = bytes / static_cast<double>(reqs.size());
    bool ok = true;
    const double dec = Time(1e6, [&] {
      for (const auto& frames : payloads) {
        for (size_t f = 0; f < frames.size(); ++f) {
          if (fleet) {
            sv::RpcShardRequest req;
            sv::RpcShardResponse resp;
            ok &= f % 2 == 0 ? sv::DecodeShardRequest(frames[f], &req).ok()
                             : sv::DecodeShardResponse(frames[f], &resp).ok();
          } else {
            sv::RpcRequest req;
            sv::RpcResponse resp;
            ok &= f % 2 == 0 ? sv::DecodeRequest(frames[f], &req).ok()
                             : sv::DecodeResponse(frames[f], &resp).ok();
          }
        }
      }
    });
    SEQFM_CHECK(ok) << "protocol probe: a frame failed to decode";
    dec_us.push_back(dec / static_cast<double>(reqs.size()));
  }
  emit("protocol.encode_us", "us", Median(enc_us));
  emit("protocol.decode_us", "us", Median(dec_us));
  emit("protocol.request_bytes", "bytes", request_bytes);
}

/// rpc.self_ms and batch.self_ms on an in-process stack, one request in
/// flight, every context already cached (the self times are what the front
/// end adds on top of scoring).
void ProbeFrontEnd(const Workload& w, RpcStack* stack,
                   const std::vector<Request>& reqs, Emitter& emit,
                   double* front_end_share) {
  const Traffic& t = w.traffic;
  for (const Request& r : reqs) {
    stack->batch->Submit(t.Context(r), t.Slate(r), t.k).get();
  }
  sv::RpcClient client;
  SEQFM_CHECK(client.Connect("127.0.0.1", stack->rpc->port()).ok());
  std::vector<double> call_ms, submit_ms, direct_ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t i = 0; i < reqs.size(); ++i) {
      const SequenceExample& ex = t.Context(reqs[i]);
      sv::RpcRequest req;
      req.id = i;
      req.user = ex.user;
      req.k = static_cast<uint32_t>(t.k);
      req.history = ex.history;
      req.slate = t.Slate(reqs[i]);
      sv::RpcResponse resp;
      call_ms.push_back(Time(1e3, [&] {
        SEQFM_CHECK(client.Call(req, &resp).ok());
      }));
      submit_ms.push_back(Time(1e3, [&] {
        stack->batch->Submit(ex, t.Slate(reqs[i]), t.k).get();
      }));
      direct_ms.push_back(Time(1e3, [&] {
        stack->predictor->TopK(ex, t.Slate(reqs[i]), t.k);
      }));
    }
  }
  const double call = Median(call_ms);
  const double submit = Median(submit_ms);
  const double direct = Median(direct_ms);
  emit("rpc.call_ms", "ms", call);
  emit("rpc.self_ms", "ms", call - submit);
  emit("batch.self_ms", "ms", submit - direct);
  *front_end_share = (call - direct) / call;
}

/// Wave size with \p callers blocking submitters (the fleet's replicas see
/// their shard requests this way).
double ProbeWaveSize(const Workload& w, RpcStack* stack,
                     const std::vector<Request>& reqs, size_t callers) {
  const Traffic& t = w.traffic;
  const sv::BatchServerStats before = stack->batch->stats();
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < reqs.size(); i = next++) {
        stack->batch->Submit(t.Context(reqs[i]), t.Slate(reqs[i]), t.k).get();
      }
    });
  }
  for (auto& th : threads) th.join();
  const sv::BatchServerStats after = stack->batch->stats();
  return static_cast<double>(after.requests_served - before.requests_served) /
         static_cast<double>(std::max<uint64_t>(1, after.waves - before.waves));
}

void ProbeCoordinator(Workload* w, RpcStack* probe, FleetStack* fleet,
                      Emitter& emit) {
  Traffic& t = w->traffic;
  // The fleet's own coordinator and replicas; on the in-process workloads a
  // one-shard coordinator over the probe stack in replica mode, plus a
  // replica process launched for the spawn timing.
  std::unique_ptr<sv::Coordinator> own;
  sv::Coordinator* coord = nullptr;
  std::vector<uint16_t> ports;
  double ready_ms = 0.0;
  std::vector<double> spawn_ms;
  if (fleet) {
    coord = fleet->coordinator.get();
    ready_ms = fleet->ready_ms;
    spawn_ms = fleet->spawn_ms;
    for (const auto& r : fleet->replicas) ports.push_back(r->port());
  } else {
    ports.push_back(probe->rpc->port());
    ready_ms = Time(1e3, [&] {
      own = std::make_unique<sv::Coordinator>();
      SEQFM_CHECK(own->AddReplica("127.0.0.1", ports[0]).ok());
      SEQFM_CHECK(own->Ready().ok());
    });
    coord = own.get();
    auto one = BringUpFleet(*w, 1);
    SEQFM_CHECK(one != nullptr) << "probe replica failed to start";
    spawn_ms = one->spawn_ms;
  }
  std::vector<std::unique_ptr<sv::RemoteReplicaBackend>> backends;
  for (uint16_t port : ports) {
    backends.push_back(std::make_unique<sv::RemoteReplicaBackend>());
    SEQFM_CHECK(backends.back()->Connect("127.0.0.1", port).ok());
  }

  const size_t n = w->quick ? 8 : 32;
  const std::vector<Request> a = t.Take(n);
  const std::vector<Request> b = t.Take(n);
  const std::vector<Request> c = t.Take(n);
  std::vector<double> one_caller;
  double merged = 0.0;
  double total = 0.0;
  for (const Request& r : a) {
    sv::CoordinatorResult res;
    one_caller.push_back(Time(1e3, [&] {
      SEQFM_CHECK(coord->TopKAll(t.Context(r), t.k, &res).ok());
    }));
    merged += res.shards_merged;
    total += res.shards_total;
  }
  std::vector<double> shard_ms, slowest_ms;
  for (const Request& r : b) {
    double slowest = 0.0;
    for (size_t s = 0; s < backends.size(); ++s) {
      const sv::ReplicaInfo& info = backends[s]->info();
      std::vector<sv::ScoreJob> jobs = {
          {&t.Context(r), nullptr, static_cast<size_t>(info.shard_begin),
           static_cast<size_t>(info.shard_end), t.k}};
      std::vector<std::vector<sv::RankEntry>> results;
      const double ms = Time(1e3, [&] {
        SEQFM_CHECK(backends[s]->ScoreTopK(jobs, &results).ok());
      });
      shard_ms.push_back(ms);
      slowest = std::max(slowest, ms);
    }
    slowest_ms.push_back(slowest);
  }
  std::vector<double> four_callers(c.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int caller = 0; caller < 4; ++caller) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < c.size(); i = next++) {
        sv::CoordinatorResult res;
        four_callers[i] = Time(1e3, [&] {
          SEQFM_CHECK(coord->TopKAll(t.Context(c[i]), t.k, &res).ok());
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  const sv::CoordinatorStats cs = coord->stats();
  emit("backend.shard_ms", "ms", Median(shard_ms));
  emit("coordinator.self_ms", "ms", Median(one_caller) - Median(slowest_ms));
  emit("coordinator.channel_wait_ms", "ms",
       Median(four_callers) - Median(one_caller));
  emit("coordinator.merged_share", "ratio", total > 0.0 ? merged / total : 0.0);
  emit("coordinator.retries", "count", static_cast<double>(cs.retries));
  emit("coordinator.reconnects", "count", static_cast<double>(cs.reconnects));
  emit("coordinator.circuit_opens", "count",
       static_cast<double>(cs.circuit_opens));
  emit("coordinator.ready_ms", "ms", ready_ms);
  emit("replica.spawn_ms", "ms", Median(spawn_ms));
}

/// Replays every served context, in order, through a fresh Predictor with
/// the serving cache budget: the hit ratio the serving processes saw, and
/// AcquireContext's cost on a hit and on a miss.
void ProbeContextCache(const Workload& w, size_t served, Emitter& emit) {
  const Traffic& t = w.traffic;
  sv::PredictorOptions opts;
  opts.context_cache_bytes = kCacheBytes;
  sv::Predictor predictor(w.ref_model.get(), w.builder.get(), opts);
  std::vector<double> hit_us, miss_us;
  std::vector<char> seen(t.contexts.size(), 0);
  size_t repeats = 0;
  for (size_t i = 0; i < served; ++i) {
    const Request& r = t.issued[i];
    repeats += seen[static_cast<size_t>(r.context)];
    seen[static_cast<size_t>(r.context)] = 1;
    const uint64_t hits = predictor.context_cache()->stats().hits;
    const double us = Time(1e6, [&] { predictor.AcquireContext(t.Context(r)); });
    (predictor.context_cache()->stats().hits > hits ? hit_us : miss_us)
        .push_back(us);
  }
  const sv::ContextCacheStats st = predictor.context_cache()->stats();
  // Hit timing where the workload has no hits: re-acquire recent contexts.
  for (size_t i = served; i-- > 0 && hit_us.size() < 32;) {
    const Request& r = t.issued[i];
    const uint64_t hits = predictor.context_cache()->stats().hits;
    const double us = Time(1e6, [&] { predictor.AcquireContext(t.Context(r)); });
    if (predictor.context_cache()->stats().hits > hits) hit_us.push_back(us);
  }
  emit("context_cache.hit_ratio", "ratio", st.hit_rate());
  emit("purpose.context_repeat_share", "ratio",
       static_cast<double>(repeats) / static_cast<double>(std::max<size_t>(1, served)));
  emit("predictor.acquire_hit_us", "us", Median(hit_us));
  emit("predictor.acquire_miss_us", "us", Median(miss_us));
}

/// The compiled body on one chunk, one thread, and the engine's counts.
double ProbePredictor(const Workload& w, const std::vector<Request>& reqs,
                      Emitter& emit) {
  const Traffic& t = w.traffic;
  std::vector<double> compile_ms;
  std::unique_ptr<sv::Predictor> predictor;
  for (int rep = 0; rep < 3; ++rep) {
    predictor.reset();
    compile_ms.push_back(Time(1e3, [&] {
      predictor = std::make_unique<sv::Predictor>(w.ref_model.get(),
                                                  w.builder.get());
    }));
  }
  seqfm::util::SetGlobalThreads(1);
  std::vector<double> per_candidate_us;
  for (size_t i = 0; i < std::min<size_t>(4, reqs.size()); ++i) {
    const SequenceExample& ex = t.Context(reqs[i]);
    const std::vector<int32_t>& slate = t.Slate(reqs[i]);
    const size_t chunk = std::min<size_t>(256, slate.size());
    std::vector<float> out(chunk);
    auto ctx = predictor->AcquireContext(ex);
    for (int rep = 0; rep < 8; ++rep) {
      const double us = Time(1e6, [&] {
        predictor->ScoreContextRange(*ctx, ex, slate, 0, chunk, out.data());
      });
      per_candidate_us.push_back(us / static_cast<double>(chunk));
    }
  }
  const seqfm::ir::EngineStats es =
      predictor->engine() ? predictor->engine()->stats() : seqfm::ir::EngineStats{};
  emit("predictor.body_us_per_candidate", "us", Median(per_candidate_us));
  emit("ir.body_instrs", "count", static_cast<double>(es.body_instrs));
  emit("ir.prologue_instrs", "count", static_cast<double>(es.prologue_instrs));
  emit("ir.slots", "count", static_cast<double>(es.slots));
  emit("ir.body_frame_floats", "count", static_cast<double>(es.body_frame_floats));
  emit("ir.compile_ms", "ms", Median(compile_ms));
  return Median(per_candidate_us);
}

/// tensor::Gemm on one thread at an [m, d] x [d, d] shape.
void ProbeGemm(const std::string& name, size_t m, size_t d, Emitter& emit) {
  seqfm::util::SetGlobalThreads(1);
  std::vector<float> a(m * d), b(d * d), c(m * d);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i % 13) * 0.01f;
  for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(i % 7) * 0.02f;
  std::vector<double> s;
  for (int rep = 0; rep < 20; ++rep) {
    s.push_back(Time(1.0, [&] {
      seqfm::tensor::Gemm(a.data(), b.data(), c.data(), m, d, d, false, false,
                          false);
    }));
  }
  const double flop = 2.0 * static_cast<double>(m * d * d);
  const double bytes = 4.0 * static_cast<double>(m * d + d * d + m * d);
  emit("kernels.gemm_" + name + "_gflops", "GF/s", flop / Median(s) / 1e9);
  emit("kernels.gemm_" + name + "_mflop", "Mflop", flop / 1e6);
  emit("kernels.gemm_" + name + "_kib", "KiB", bytes / 1024.0);
}

void ProbeTopK(const Workload& w, const std::vector<Request>& reqs,
               Emitter& emit) {
  const Traffic& t = w.traffic;
  std::vector<double> select_us, merge_us;
  for (size_t i = 0; i < std::min<size_t>(8, reqs.size()); ++i) {
    const SequenceExample& ex = t.Context(reqs[i]);
    const std::vector<int32_t>& slate = t.Slate(reqs[i]);
    const std::vector<float> scores = w.ref->ScoreCandidates(ex, slate);
    const size_t half = slate.size() / 2;
    const std::vector<int32_t> lo(slate.begin(), slate.begin() + half);
    const std::vector<int32_t> hi(slate.begin() + half, slate.end());
    const std::vector<float> slo(scores.begin(), scores.begin() + half);
    const std::vector<float> shi(scores.begin() + half, scores.end());
    const std::vector<std::vector<sv::RankEntry>> runs = {
        ToRun(sv::SelectTopK(lo, slo, t.k)), ToRun(sv::SelectTopK(hi, shi, t.k))};
    for (int rep = 0; rep < 50; ++rep) {
      select_us.push_back(Time(1e6, [&] { sv::SelectTopK(slate, scores, t.k); }));
      merge_us.push_back(Time(1e6, [&] { sv::MergeSortedRuns(runs, t.k); }));
    }
  }
  emit("topk.select_us", "us", Median(select_us));
  emit("shard.merge_us", "us", Median(merge_us));
}

/// One training step split at its public calls, on a separate model so the
/// served parameters stay untouched.
void ProbeTraining(const Workload& w, const TrainOutcome& train,
                   Emitter& emit) {
  seqfm::util::SetGlobalThreads(std::min(kTrainThreads, w.nproc));
  seqfm::core::SeqFm model(w.space, ReplicaModelConfig(w.spec->dim));
  seqfm::optim::Adam adam(model.TrainableParameters(), 1e-2f);
  seqfm::data::NegativeSampler sampler(&w.dataset);
  seqfm::Rng rng(w.seed);
  const auto& examples = w.dataset.train();
  std::vector<double> build_ms, forward_ms, backward_ms, step_ms;
  constexpr size_t kBatch = 128;
  for (size_t step = 0; step < 9; ++step) {
    std::vector<const SequenceExample*> chunk;
    std::vector<int32_t> negatives;
    for (size_t i = 0; i < kBatch; ++i) {
      chunk.push_back(&examples[(step * kBatch + i) % examples.size()]);
      negatives.push_back(sampler.Sample(chunk.back()->user, &rng));
    }
    seqfm::data::Batch pos_batch, neg_batch;
    const double build = Time(1e3, [&] {
      pos_batch = w.builder->Build(chunk);
      neg_batch = w.builder->Build(chunk, &negatives);
    });
    seqfm::autograd::Variable pos, neg;
    const double forward = Time(1e3, [&] {
      pos = model.Score(pos_batch, /*training=*/true);
      neg = model.Score(neg_batch, /*training=*/true);
    });
    seqfm::autograd::Variable loss = seqfm::autograd::BprLoss(pos, neg);
    adam.ZeroGrad();
    const double backward = Time(1e3, [&] { seqfm::autograd::Backward(loss); });
    adam.ClipGradNorm(5.0f);
    const double opt = Time(1e3, [&] { adam.Step(); });
    if (step == 0) continue;  // first step pays lazy allocations
    build_ms.push_back(build);
    forward_ms.push_back(forward);
    backward_ms.push_back(backward);
    step_ms.push_back(opt);
  }
  emit("trainer.epoch_s", "s", Median(train.epoch_s));
  emit("train.forward_ms", "ms", Median(forward_ms));
  emit("autograd.backward_ms", "ms", Median(backward_ms));
  emit("optim.step_ms", "ms", Median(step_ms));
  emit("data.batch_build_ms", "ms", Median(build_ms));
  emit("checkpoint.save_ms", "ms", Median(train.save_ms));
  emit("checkpoint.load_ms", "ms", Median(train.load_ms));
}

}  // namespace

void RunProbes(Workload* w, RpcStack* rpc, FleetStack* fleet,
               const TrainOutcome& train, const ServeMeasurement& serve,
               std::vector<std::pair<std::string, double>>* out) {
  Emitter emit(out);
  const size_t served = w->traffic.issued.size();
  const size_t n = w->quick ? 8 : 32;
  const std::vector<Request> reqs = w->traffic.Take(n);
  std::vector<std::vector<ScoredItem>> answers;
  for (const Request& r : reqs) {
    answers.push_back(w->ref->TopK(w->traffic.Context(r),
                                   w->traffic.Slate(r), w->traffic.k));
  }

  ProbeProtocol(*w, reqs, answers, emit);

  // The front-end probes run on an in-process stack in replica mode with
  // the serving pool size; on the fleet it stands in for one replica.
  seqfm::util::SetGlobalThreads(w->spec->serve_threads);
  auto probe = BringUpRpcStack(*w, /*replica_mode=*/true);
  double front_end_share = 0.0;
  ProbeFrontEnd(*w, probe.get(), reqs, emit, &front_end_share);
  const double wave = fleet ? ProbeWaveSize(*w, probe.get(), reqs, w->spec->callers)
                            : serve.wave_size;
  emit("batch.avg_wave_size", "count", wave);
  // The serving stack's own RpcServer where there is one.
  const sv::RpcServerStats rs = (rpc ? rpc : probe.get())->rpc->stats();
  emit("rpc.shed", "count", static_cast<double>(rs.requests_shed));
  emit("rpc.backpressure_pauses", "count",
       static_cast<double>(rs.backpressure_pauses));
  ProbeCoordinator(w, probe.get(), fleet, emit);
  probe.reset();

  ProbeContextCache(*w, served, emit);
  const double body_us = ProbePredictor(*w, reqs, emit);
  ProbeGemm("body", 256 * (kSeqLen + 2), w->spec->dim, emit);
  ProbeGemm("train", 128 * (kSeqLen + 2), w->spec->dim, emit);
  ProbeTopK(*w, reqs, emit);
  emit("pool.busy_cores", "cores",
       serve.fixed.wall_s > 0.0 ? serve.fixed.sut_cpu_s / serve.fixed.wall_s
                                : 0.0);
  ProbeTraining(*w, train, emit);

  // The workload's purpose, as shares: how much of a request's CPU the
  // compiled body accounts for, and how much of a request's time the front
  // end (RpcServer + BatchServer) adds on top of scoring.
  const double candidates = static_cast<double>(
      w->spec->slate ? w->spec->slate : w->space.num_objects());
  const double cpu_us_per_req =
      serve.fixed.ok
          ? serve.fixed.sut_cpu_s * 1e6 / static_cast<double>(serve.fixed.ok)
          : 0.0;
  emit("purpose.body_cpu_share", "ratio",
       cpu_us_per_req > 0.0 ? candidates * body_us / cpu_us_per_req : 0.0);
  emit("purpose.front_end_share", "ratio", front_end_share);
}

}  // namespace perfbench
