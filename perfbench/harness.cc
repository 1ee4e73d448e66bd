#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/rng.h"
#include "latency.h"
#include "common/thread_pool.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/simd.h"
#include "rl/feature_policy.h"
#include "rl/ippo_trainer.h"
#include "rl/rollout.h"

namespace perfbench {

using garl::Rng;
namespace env = garl::env;
namespace nn = garl::nn;
namespace rl = garl::rl;

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_[name] = Value{value, unit};
  std::printf("metric %-34s %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
              note.empty() ? "" : "  ", note.c_str());
  std::fflush(stdout);
}

void Report::Check(bool ok, const std::string& what) {
  CheckMany(1, ok ? 0 : 1, what);
}

void Report::CheckMany(int64_t attempted, int64_t failed,
                       const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::printf("CHECK FAILED: %s (%lld of %lld)\n", what.c_str(),
                static_cast<long long>(failed),
                static_cast<long long>(attempted));
    std::fflush(stdout);
  }
}

void Report::Print() const {
  std::string line = "{\"correct\": ";
  line += failed_ == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(value.value) ? value.value : 0.0);
    line += first ? "" : ", ";
    line += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            value.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void Phase(const std::string& workload, const std::string& phase) {
  std::fprintf(stderr, "phase %s/%s\n", workload.c_str(), phase.c_str());
  std::fflush(stderr);
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string Quartiles(std::vector<double> values) {
  if (values.empty()) return "no samples";
  std::sort(values.begin(), values.end());
  char text[128];
  std::snprintf(text, sizeof(text), "min %.4g, p25 %.4g, p75 %.4g, max %.4g",
                values.front(), Percentile(values, 25.0),
                Percentile(values, 75.0), values.back());
  return text;
}

double MedianCallMs(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double start = NowS();
    fn();
    ms.push_back((NowS() - start) * 1e3);
  }
  return Median(ms);
}

bool PrintFacts(const Args& args) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : 0;
  const char* threads_env = std::getenv("GARL_NUM_THREADS");
  const char* simd_env = std::getenv("GARL_SIMD");
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const char* asserts = "off";
#else
  const char* asserts = "on";
#endif
  std::printf("fact workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("fact nproc=%d hardware_concurrency=%u GARL_NUM_THREADS=%s "
              "pool_threads=%lld\n",
              nproc, std::thread::hardware_concurrency(),
              threads_env != nullptr ? threads_env : "(unset)",
              static_cast<long long>(garl::ThreadPool::Global().num_threads()));
  std::printf("fact GARL_SIMD compiled=%d runtime=%d env=%s\n",
              GARL_SIMD_COMPILED, nn::simd::Enabled() ? 1 : 0,
              simd_env != nullptr ? simd_env : "(unset)");
  std::printf("fact build_type=%s optimized=%d assertions=%s compiler=%s\n",
              PERFBENCH_BUILD_TYPE, optimized ? 1 : 0, asserts, __VERSION__);
  std::fflush(stdout);
  if (!optimized) {
    std::fprintf(stderr,
                 "perfbench: REFUSED: this build is not optimized; timings "
                 "from it mean nothing. Build with "
                 "CMAKE_BUILD_TYPE=Release.\n");
  }
  return optimized;
}

SpanDelta SpanBetween(const std::vector<garl::obs::SpanStats>& before,
                      const std::vector<garl::obs::SpanStats>& after,
                      const std::string& name) {
  SpanDelta delta;
  for (const garl::obs::SpanStats& s : after) {
    if (s.name != name) continue;
    delta.count += s.count;
    delta.total_s += static_cast<double>(s.total_ns) * 1e-9;
  }
  for (const garl::obs::SpanStats& s : before) {
    if (s.name != name) continue;
    delta.count -= s.count;
    delta.total_s -= static_cast<double>(s.total_ns) * 1e-9;
  }
  return delta;
}

std::vector<env::UgvObservation> ObserveAll(const env::World& world) {
  std::vector<env::UgvObservation> observations;
  for (int64_t u = 0; u < world.num_ugvs(); ++u) {
    observations.push_back(world.ObserveUgv(u));
  }
  return observations;
}

TimedEpisode RunTimedEpisode(env::World& world, rl::UgvPolicyNetwork& policy,
                             rl::UavController& uav_controller,
                             uint64_t eval_seed, int64_t episode,
                             bool greedy) {
  TimedEpisode out;
  // Same seeding and call order as rl::EvaluatePolicy's episode loop.
  Rng rng(Rng::StreamSeed(eval_seed, static_cast<uint64_t>(episode)));
  world.Reset(eval_seed + static_cast<uint64_t>(episode));
  while (!world.Done()) {
    double t0 = NowS();
    std::vector<env::UgvObservation> observations = ObserveAll(world);
    double t1 = NowS();
    out.observe_us.push_back((t1 - t0) * 1e6);
    std::vector<rl::UgvPolicyOutput> outputs;
    {
      nn::NoGradGuard no_grad;
      outputs = policy.Forward(observations);
    }
    std::vector<env::UgvAction> ugv_actions(
        static_cast<size_t>(world.num_ugvs()));
    for (int64_t u = 0; u < world.num_ugvs(); ++u) {
      if (!world.UgvNeedsAction(u)) continue;
      t0 = NowS();
      ugv_actions[static_cast<size_t>(u)] =
          rl::SampleUgvAction(outputs[static_cast<size_t>(u)], rng, greedy)
              .action;
      t1 = NowS();
      out.sample_us.push_back((t1 - t0) * 1e6);
    }
    std::vector<env::UavAction> uav_actions(
        static_cast<size_t>(world.num_uavs()));
    for (int64_t v = 0; v < world.num_uavs(); ++v) {
      if (!world.UavAirborne(v)) continue;
      t0 = NowS();
      uav_actions[static_cast<size_t>(v)] = uav_controller.Act(world, v, rng);
      t1 = NowS();
      out.uav_act_us.push_back((t1 - t0) * 1e6);
    }
    out.requests.push_back(std::move(observations));
    t0 = NowS();
    world.Step(ugv_actions, uav_actions);
    t1 = NowS();
    out.step_us.push_back((t1 - t0) * 1e6);
  }
  return out;
}

void ReportEpisodeLayers(const TimedEpisode& episode, Report* report) {
  report->Metric("env.step_us", Median(episode.step_us), "us",
                 "World::Step, median per slot");
  report->Metric("env.observe_us", Median(episode.observe_us), "us",
                 "ObserveUgv x U, median per slot");
  report->Metric("rl.sample_us", Median(episode.sample_us), "us",
                 "SampleUgvAction, median per call");
  report->Metric("rl.uav_act_us", Median(episode.uav_act_us), "us",
                 "GreedyUavController::Act, median per call");
}

ForwardProbe ProbeForward(
    rl::UgvPolicyNetwork& policy,
    const std::vector<std::vector<env::UgvObservation>>& requests) {
  ForwardProbe probe;
  if (requests.empty()) return probe;
  auto* feature = dynamic_cast<rl::FeatureUgvPolicy*>(&policy);
  std::vector<double> fwd, extract, priors;
  nn::NoGradGuard no_grad;
  for (const auto& request : requests) {
    double t0 = NowS();
    std::vector<rl::UgvPolicyOutput> outputs = policy.Forward(request);
    fwd.push_back((NowS() - t0) * 1e3);
    if (feature == nullptr) continue;
    t0 = NowS();
    std::vector<nn::Tensor> features = feature->extractor().Extract(request);
    extract.push_back((NowS() - t0) * 1e3);
    t0 = NowS();
    rl::UgvPriors prior = feature->extractor().Priors(request);
    priors.push_back((NowS() - t0) * 1e3);
  }
  probe.fwd_nograd_ms = Median(fwd);
  probe.extract_ms = Median(extract);
  probe.priors_ms = Median(priors);
  return probe;
}

UpdateProbe ProbeUpdate(
    rl::UgvPolicyNetwork& policy, const rl::EnvContext& context,
    const std::vector<std::vector<env::UgvObservation>>& requests,
    uint64_t seed) {
  UpdateProbe probe;
  const rl::TrainConfig config;  // the trainer's defaults
  const size_t slots = static_cast<size_t>(config.minibatch_slots);
  if (requests.size() < slots) return probe;
  Rng rng(seed);
  // Decisions to replay: one sampled action per UGV per slot.
  std::vector<std::vector<rl::UgvDecision>> decisions(slots);
  {
    nn::NoGradGuard no_grad;
    for (size_t s = 0; s < slots; ++s) {
      std::vector<rl::UgvPolicyOutput> outputs = policy.Forward(requests[s]);
      for (size_t u = 0; u < outputs.size(); ++u) {
        rl::SampledUgvAction sampled =
            rl::SampleUgvAction(outputs[u], rng, /*greedy=*/false);
        rl::UgvDecision d;
        d.slot = static_cast<int64_t>(s);
        d.ugv = static_cast<int64_t>(u);
        d.release = sampled.action.release ? 1 : 0;
        d.target = sampled.action.target_stop;
        d.old_log_prob = sampled.log_prob;
        d.value = sampled.value;
        d.advantage = rng.UniformF(-1.0f, 1.0f);
        d.ret = sampled.value + rng.UniformF(-0.1f, 0.1f);
        decisions[s].push_back(d);
      }
    }
  }
  nn::Adam adam(policy.Parameters(), config.lr);
  std::vector<double> fwd_ms, backward_ms, step_ms;
  constexpr int kReps = 4;
  for (int rep = 0; rep <= kReps; ++rep) {  // rep 0 warms up, untimed
    // The loss graph IppoTrainer::UpdateUgv builds for one minibatch: the
    // clipped surrogate (Eq. 15), the clipped value loss (Eq. 16), the
    // entropy bonus and the extractor's auxiliary loss.
    std::vector<nn::Tensor> losses;
    for (size_t s = 0; s < slots; ++s) {
      const double t0 = NowS();
      std::vector<rl::UgvPolicyOutput> outputs = policy.Forward(requests[s]);
      if (rep > 0) fwd_ms.push_back((NowS() - t0) * 1e3);
      for (const rl::UgvDecision& d : decisions[s]) {
        const rl::UgvPolicyOutput& out = outputs[static_cast<size_t>(d.ugv)];
        rl::UgvLogProbEntropy lp = rl::UgvActionLogProb(out, d);
        nn::Tensor ratio = nn::Exp(nn::AddScalar(lp.log_prob, -d.old_log_prob));
        nn::Tensor surr1 = nn::MulScalar(ratio, d.advantage);
        nn::Tensor surr2 = nn::MulScalar(
            nn::Clip(ratio, 1.0f - config.clip_eps, 1.0f + config.clip_eps),
            d.advantage);
        nn::Tensor policy_loss =
            nn::Neg(nn::Sub(surr2, nn::Relu(nn::Sub(surr2, surr1))));
        nn::Tensor v_err = nn::Square(nn::AddScalar(out.value, -d.ret));
        nn::Tensor v_clipped =
            nn::Clip(nn::AddScalar(out.value, -d.value), -config.value_clip,
                     config.value_clip);
        nn::Tensor v_err2 = nn::Square(
            nn::AddScalar(nn::AddScalar(v_clipped, d.value), -d.ret));
        nn::Tensor value_loss =
            nn::Add(v_err, nn::Relu(nn::Sub(v_err2, v_err)));
        losses.push_back(nn::Reshape(
            nn::Sub(nn::Add(policy_loss,
                            nn::MulScalar(value_loss, config.value_coef)),
                    nn::MulScalar(lp.entropy, config.entropy_coef)),
            {1}));
      }
    }
    nn::Tensor loss = nn::MulScalar(nn::Sum(nn::Concat(losses, 0)),
                                    1.0f / static_cast<float>(losses.size()));
    nn::Tensor aux = policy.ConsumeAuxLoss();
    if (aux.defined()) loss = nn::Add(loss, nn::MulScalar(aux, 0.1f));
    adam.ZeroGrad();
    double t0 = NowS();
    loss.Backward();
    double t1 = NowS();
    adam.ClipGradNorm(config.max_grad_norm);
    adam.Step();
    double t2 = NowS();
    if (rep > 0) {
      backward_ms.push_back((t1 - t0) * 1e3);
      step_ms.push_back((t2 - t1) * 1e3);
    }
  }
  probe.fwd_grad_ms = Median(fwd_ms);
  probe.backward_ms = Median(backward_ms);
  probe.adam_step_ms = Median(step_ms);

  // Laplacian propagation L[B,B] x H[B,64] as the GCN layers run it: L is a
  // constant, H carries grad, so backward is one more GEMM of the same shape.
  const int64_t b = context.num_stops;
  constexpr int64_t kWidth = 64;
  std::vector<float> h_values(static_cast<size_t>(b * kWidth));
  for (float& v : h_values) v = rng.UniformF(-1.0f, 1.0f);
  nn::Tensor h = nn::Tensor::FromVector({b, kWidth}, std::move(h_values),
                                        /*requires_grad=*/true);
  const double ms = MedianCallMs(20, [&] {
    nn::Tensor out = nn::Sum(nn::MatMul(context.laplacian, h));
    out.Backward();
  });
  const double flops = 4.0 * static_cast<double>(b * b * kWidth);
  probe.matmul_gflops = ms > 0.0 ? flops / (ms * 1e-3) / 1e9 : 0.0;
  return probe;
}

}  // namespace perfbench
